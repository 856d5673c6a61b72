//===- harness/SweepExecutor.h - Run sweep specs in-process -----*- C++ -*-===//
///
/// \file
/// Executes `SweepSpec`s over the lab replay pipeline. The executor is
/// the single implementation both execution modes share:
///
///  - `runAll()` — the in-process path: a trace-affine `parallelFor`
///    over the workloads, one `runSlice` per workload covering every
///    (CPU × variant × predictor) member as one chunk-tiled gang.
///  - `runSlice()` — one workload's contiguous member range (also
///    what a `sweep_driver --worker` process executes for its
///    ShardJob). It serves what the result store holds, and only when
///    a member misses does it capture (warm the lab) and replay the
///    missing members — so a fully served sweep replays nothing.
///
/// Both paths honor the spec's `Threads` knob: each gang replays on
/// GangReplayer's shared-tile worker pool (fixed member slices) when
/// the resolved thread count exceeds 1 (Threads == 0 auto-detects the
/// host's core count, see resolveGangThreads) — so a worker process
/// can use several cores of its host without re-decoding the trace
/// per core (two-level shards × threads fan-out). Cells are
/// bit-identical for any (shards, threads) pair.
///
/// Every member is a *full* replay, so a member's counters do not
/// depend on which other members share the gang — `runAll` and any
/// shard decomposition produce bit-identical cells (pinned by
/// tests/SweepSpecTest.cpp).
///
/// Labs can be borrowed (a bench passes its own, keeping one set of
/// compile/reference/trace caches per process) or are created lazily.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_SWEEPEXECUTOR_H
#define VMIB_HARNESS_SWEEPEXECUTOR_H

#include "harness/ForthLab.h"
#include "harness/JavaLab.h"
#include "harness/ResultStore.h"
#include "harness/SweepSpec.h"

#include <memory>
#include <vector>

namespace vmib {

class Auditor;

/// Resolves a spec's `threads` field to the worker count a gang
/// actually runs with: 0 (the auto-detect request, `--threads=0` /
/// `threads 0`) becomes the host's hardware_concurrency (min 1); any
/// other value passes through.
unsigned resolveGangThreads(unsigned SpecThreads);

/// Wall-clock accounting of one sweep execution, in the units the
/// standard [timing] line reports.
struct SweepRunStats {
  double CaptureSeconds = 0; ///< lab warmup time, summed over workloads
  double ReplaySeconds = 0;  ///< wall clock of the whole workload loop
  uint64_t ReplayedEvents = 0;
  size_t Configs = 0;
  /// Gang worker-pool accounting summed over every gang this sweep
  /// replayed (per-worker events/waits/busy time, catch-up
  /// counts, the gangs' own run() wall) — what the `:loadbalance`
  /// timing line renders.
  GangReplayer::Stats Load;
};

/// Accounting of runSlice calls (each call adds to it).
struct SliceRunStats {
  double CaptureSeconds = 0;   ///< lab warmup; 0 when every member hit
  uint64_t ReplayedEvents = 0; ///< trace events × members not served
};

class SweepExecutor {
public:
  /// Borrow \p Forth / \p Java (may be null: created lazily on first
  /// use for the relevant suite; creation is not thread-safe, so
  /// runAll creates its suite's lab before spawning workload jobs).
  explicit SweepExecutor(ForthLab *Forth = nullptr, JavaLab *Java = nullptr)
      : ForthRef(Forth), JavaRef(Java) {}

  /// Attaches an open ResultStore (borrowed, may be null to detach):
  /// runSlice then serves cells whose content keys hit the store
  /// without replaying them, and records + flushes fresh cells before
  /// returning — so a cell a worker computed is durable before the
  /// orchestrator can commit the rows announcing it.
  void setResultStore(ResultStore *S) { Store = S; }

  /// Arms compute-fault injection (the `flipcounter` mass of
  /// VMIB_FAULT): each freshly computed cell draws deterministically
  /// and may get one bit flipped BEFORE it is returned or committed to
  /// the store — modelling silent compute corruption the audit layer
  /// must catch. Store-served cells are not re-flipped here (that is
  /// the store's own `flipstore` mass).
  void setFaultInjection(const FaultPlan &Plan) { Faults = Plan; }

  /// Attaches an Auditor (borrowed, may be null to detach): runAll
  /// then audits each workload's row after every job completed —
  /// serially, one workload at a time — repairing rows in place before
  /// cells scatter.
  void setAuditor(Auditor *A) { Audit = A; }

  /// The audit layer's re-execution entry: replays \p Members
  /// (ascending) of \p Workload exactly as specced, with NO result
  /// store consultation and NO fault injection — a clean, direct
  /// recompute whose only inputs are the trace and the spec.
  std::vector<PerfCounters>
  replayMembersDirect(const SweepSpec &Spec, size_t Workload,
                      const std::vector<size_t> &Members);

  /// Runs gang members [MemberBegin, MemberEnd) of workload \p Workload
  /// as one gang over the workload's trace; results in member order.
  /// Members the result store holds are served; the lab is warmed
  /// (trace captured or opened, profiles trained) only when at least
  /// one member missed. The gang replays on
  /// resolveGangThreads(Spec.Threads) workers; \p LoadOut, when
  /// non-null, accumulates (merges) the gang's pool accounting, and
  /// \p StatsOut the slice's capture time and replayed work.
  std::vector<PerfCounters> runSlice(const SweepSpec &Spec, size_t Workload,
                                     size_t MemberBegin, size_t MemberEnd,
                                     GangReplayer::Stats *LoadOut = nullptr,
                                     SliceRunStats *StatsOut = nullptr);

  /// The full in-process sweep: every cell, workload-major canonical
  /// order, one runSlice per workload on \p Threads workload workers
  /// (0 uses defaultSweepThreads()).
  SweepRunStats runAll(const SweepSpec &Spec, unsigned Threads,
                       std::vector<PerfCounters> &Cells);

  ForthLab &forth();
  JavaLab &java();

private:
  // The slice runners take an arbitrary (ascending) member list rather
  // than a contiguous range: with a result store attached, the members
  // still missing after the probe are whatever subset the store did
  // not cover.
  std::vector<PerfCounters> runForthSlice(const SweepSpec &Spec,
                                          size_t Workload,
                                          const std::vector<size_t> &Members,
                                          GangReplayer::Stats *LoadOut);
  std::vector<PerfCounters> runJavaSlice(const SweepSpec &Spec,
                                         size_t Workload,
                                         const std::vector<size_t> &Members,
                                         GangReplayer::Stats *LoadOut);

  ForthLab *ForthRef;
  JavaLab *JavaRef;
  std::unique_ptr<ForthLab> OwnedForth;
  std::unique_ptr<JavaLab> OwnedJava;
  ResultStore *Store = nullptr;
  Auditor *Audit = nullptr;
  FaultPlan Faults;
};

} // namespace vmib

#endif // VMIB_HARNESS_SWEEPEXECUTOR_H
