//===- vmcore/GangSchedule.h - Gang worker-pool scheduling knob -*- C++ -*-===//
///
/// \file
/// How `GangReplayer::run` distributes gang members over its worker
/// pool when Threads > 1 (serial runs ignore the knob). Split into its
/// own header so the harness layers (SweepSpec, the bench flags) can
/// name the knob without pulling in the replay engine.
///
/// Both schedules produce bit-identical counters — the choice only
/// moves *where* each (member, tile) executes, never the event order a
/// member observes (tests/GangReplayTest.cpp pins the invariance).
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_VMCORE_GANGSCHEDULE_H
#define VMIB_VMCORE_GANGSCHEDULE_H

#include <cstdint>
#include <string>

namespace vmib {

enum class GangSchedule : uint8_t {
  /// Fixed near-equal contiguous member slices, one owner per member
  /// for the whole pass (the PR-4 baseline, and what old spec files
  /// parse as).
  Static,
  /// Cost-aware dynamic scheduling: the decoder builds a cost-weighted
  /// owner table per tile from measured member replay cost, idle
  /// workers steal whole members at tile boundaries (one owner per
  /// member *per tile*).
  Dynamic,
};

/// Stable token for spec files and command lines.
inline const char *gangScheduleId(GangSchedule S) {
  return S == GangSchedule::Dynamic ? "dynamic" : "static";
}

inline bool gangScheduleFromId(const std::string &Id, GangSchedule &Out) {
  if (Id == "static")
    Out = GangSchedule::Static;
  else if (Id == "dynamic")
    Out = GangSchedule::Dynamic;
  else
    return false;
  return true;
}

} // namespace vmib

#endif // VMIB_VMCORE_GANGSCHEDULE_H
