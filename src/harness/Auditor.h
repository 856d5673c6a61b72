//===- harness/Auditor.h - Sampled redundant-execution audit ----*- C++ -*-===//
///
/// \file
/// The always-on silent-corruption audit layer. Every guarantee the
/// sweep pipeline makes reduces to one contract: a cell's counters are
/// a pure function of (trace content, member config), bit-identical
/// across decode mode, thread count and shard count.
/// `--verify` checks that contract when a human asks; the Auditor
/// checks it *continuously*, on a deterministically sampled subset of
/// real production cells:
///
///  1. **Sample** — each cell draws against `AuditPlan.Rate` with a
///     seeded hash of its content identity (suite, benchmark, member
///     config — nothing about execution shape), so re-runs audit the
///     same cells and sharding cannot dodge the sample.
///  2. **Re-execute decorrelated** — the sampled cell replays through
///     an execution shape that flips every axis relative to the
///     primary: decode mode (stream<->materialize) and thread count.
///     A bug or bit flip tied to any one shape cannot corrupt both
///     executions identically. Audit executions bypass the result
///     store and run fault-injection-free: the store key ignores shape
///     (caching across shapes is its point), so a store-served cell
///     would otherwise just re-serve itself.
///  3. **Tiebreak + triage** — on mismatch, a third execution through
///     the canonical clean shape (materialize, one thread)
///     classifies the fault:
///       tiebreak == audit  != primary : the primary was wrong. If the
///           store would serve that wrong value -> store-served
///           corruption (quarantine the cell, never delete); else
///           compute divergence in the primary shape.
///       tiebreak == primary != audit  : the audit shape diverged —
///           compute divergence; the primary stands.
///       all three differ              : nondeterminism (the contract
///           itself is broken for this cell).
///     The tiebreak result is the authoritative value: the cell is
///     repaired in place ("requeued for authoritative recompute") and
///     re-recorded to the store, so final tables converge to the
///     fault-free reference.
///
/// Everything is reported through `[audit]` stdout lines (summary
/// lines carry summable counters the orchestrator aggregates into
/// `OrchestratorReport`) and `AuditStats`.
///
/// Proven by injection: `VMIB_FAULT="flipcounter=P,flipstore=P"`
/// (harness/FaultInjection.h) plants seeded single-bit flips in
/// computed counters / served store records, and tests/AuditTest.cpp +
/// the CI chaos-audit job assert the auditor catches, classifies,
/// quarantines, and converges.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_AUDITOR_H
#define VMIB_HARNESS_AUDITOR_H

#include "harness/ResultStore.h"
#include "harness/SweepSpec.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vmib {

class SweepExecutor;

/// The sampling contract: audit each cell with probability \p Rate,
/// decided by a pure seeded draw over the cell's content identity.
struct AuditPlan {
  double Rate = 0;  ///< [0, 1]; 0 disables, 1 audits every cell
  /// Fixed default so plain `--audit=RATE` re-runs audit the same
  /// cells; override for a fresh sample ("audi").
  uint64_t Seed = 0x61756469;

  bool enabled() const { return Rate > 0; }
};

/// Parses the `--audit=RATE` value (a decimal in [0, 1]).
bool parseAuditRate(const std::string &Text, AuditPlan &Plan,
                    std::string &Error);

/// The deterministic sampling draw for one cell. Keyed on content
/// identity only — suite, benchmark, member configuration (via
/// memberCostKey) — never on execution shape, shard layout or the
/// spec's display name, so the same logical cell is audited no matter
/// how the sweep is decomposed. Pure.
bool decideAudit(const AuditPlan &Plan, const SweepSpec &Spec,
                 size_t Workload, size_t Member);

/// What the tiebreak concluded about one mismatched cell.
enum class AuditVerdict : uint8_t {
  Match,             ///< no mismatch (not reported per cell)
  StoreCorruption,   ///< the store serves a proven-wrong value
  ComputeDivergence, ///< one execution shape computed a wrong value
  Nondeterminism,    ///< all three shapes disagree
};

/// Stable token for [audit] lines and tests ("match",
/// "store_corruption", "compute_divergence", "nondeterminism").
const char *auditVerdictId(AuditVerdict V);

/// One point in execution-shape space: the axes the bit-identity
/// contract quantifies over.
struct AuditShape {
  TraceDecodeMode Decode = TraceDecodeMode::Materialize;
  unsigned Threads = 1;
};

/// The decorrelation matrix: every axis flipped relative to what
/// \p Spec would run as primary.
AuditShape decorrelatedAuditShape(const SweepSpec &Spec);

/// The tiebreak shape: the canonical clean configuration
/// (materialize, one thread) — the most-tested
/// baseline path, and the authority when primary and audit disagree.
AuditShape canonicalAuditShape();

/// "decode:stream,threads:2" for logs.
std::string auditShapeId(const AuditShape &S);

/// Counters the audit layer reports (summed across slices / workers /
/// orchestrator in OrchestratorReport).
struct AuditStats {
  uint64_t CellsAudited = 0;
  uint64_t Mismatches = 0;         ///< audit != primary
  uint64_t StoreCorruptions = 0;   ///< verdict breakdown of mismatches
  uint64_t ComputeDivergences = 0;
  uint64_t Nondeterminism = 0;
  uint64_t CellsQuarantined = 0;   ///< store cells retired as evidence
  uint64_t CellsRequeued = 0;      ///< cells repaired with the
                                   ///< authoritative recompute

  void merge(const AuditStats &O) {
    CellsAudited += O.CellsAudited;
    Mismatches += O.Mismatches;
    StoreCorruptions += O.StoreCorruptions;
    ComputeDivergences += O.ComputeDivergences;
    Nondeterminism += O.Nondeterminism;
    CellsQuarantined += O.CellsQuarantined;
    CellsRequeued += O.CellsRequeued;
  }
};

/// The in-process audit engine, shared by `runAll` (audits each
/// workload row after its gang completes) and worker mode (audits the
/// shard slice before emitting rows). NOT thread-safe: it accumulates
/// stats and repairs the caller's slice in place.
class Auditor {
public:
  /// \p Store (may be null) is consulted and repaired during triage;
  /// audit re-executions themselves never touch it.
  Auditor(const AuditPlan &Plan, SweepExecutor &Executor,
          ResultStore *Store = nullptr)
      : Plan(Plan), Executor(Executor), StoreRef(Store) {}

  /// Audits the sampled members of [\p MemberBegin, \p MemberEnd) of
  /// workload \p Workload. \p Slice holds the primary results in
  /// member order and is repaired IN PLACE wherever the tiebreak
  /// proves the primary wrong — after this returns, the slice is what
  /// the caller should announce. Emits `[audit]` lines to stdout: one
  /// detail line per mismatch, one summary line (with summable
  /// counters) per slice that sampled anything.
  void auditSlice(const SweepSpec &Spec, size_t Workload,
                  size_t MemberBegin, size_t MemberEnd,
                  std::vector<PerfCounters> &Slice);

  const AuditPlan &plan() const { return Plan; }
  const AuditStats &stats() const { return Stats; }

private:
  std::vector<PerfCounters> replayShaped(const SweepSpec &Spec,
                                         size_t Workload,
                                         const std::vector<size_t> &Members,
                                         const AuditShape &Shape);
  bool storeKeyFor(const SweepSpec &Spec, size_t Workload, size_t Member,
                   StoreKey &Out);

  AuditPlan Plan;
  SweepExecutor &Executor;
  ResultStore *StoreRef;
  AuditStats Stats;
};

} // namespace vmib

#endif // VMIB_HARNESS_AUDITOR_H
