//===- harness/SweepOrchestrator.h - Multi-process sweep fan-out *- C++ -*-===//
///
/// \file
/// Distributes a `SweepSpec` over worker *processes* and merges their
/// results. The orchestrator decomposes the spec into ShardJobs
/// (decomposeSweep), keeps up to `Shards` workers alive at a time, and
/// parses each worker's `[result]` lines back into the canonical cell
/// vector — bit-identical to `SweepExecutor::runAll` because cells are
/// pure functions of (trace, configuration) and the result lines are
/// exact decimal round trips.
///
/// Workers are launched through a shell command template, so the same
/// orchestrator fans out locally (the default template runs the
/// sibling `sweep_driver` binary) or across machines (an SSH/queue
/// template — the spec file and trace cache just have to be reachable
/// from the remote side):
///
///   {driver} --worker --spec={spec} --shards={shards} --job={job}
///     --threads={threads} --attempt={attempt}
///   ssh host 'VMIB_TRACE_CACHE=/shared/cache {driver} --worker ...'
///
/// `{attempt}` is the
/// job's retry/hedge attempt number (0 for the first launch): workers
/// only use it to seed deterministic fault injection (VMIB_FAULT), so
/// templates without the placeholder still work.
///
/// Fan-out is two-level: `Shards` worker processes × `Threads`
/// intra-gang worker threads per process (GangReplayer shared decoded
/// tiles), so a multi-core worker host uses its cores off ONE decode
/// of its trace instead of running N whole processes that each
/// re-decode it.
///
/// The worker protocol is line-oriented stdout: any number of
/// `[timing]` lines (echoed through for the timing artifact), one
/// `[result]` line per finished member, exit status 0. Anything else
/// is ignored, so workers can keep printing banners. Worker stderr is
/// captured separately; its tail is attached to every failure
/// diagnostic.
///
/// **Failure model** (docs/simulation-pipeline.md, "Failure model"):
/// a worker attempt FAILS when it exits non-zero, dies on a signal,
/// exceeds the per-job wall-clock timeout (SIGTERM, then SIGKILL
/// after a grace period — both sent to the worker's process group),
/// violates the protocol (result outside its shard, duplicate
/// member), or exits 0 without covering its shard. A failed attempt's
/// partial `[result]` rows are DISCARDED — every attempt accumulates
/// into private staging buffers that are committed only on clean
/// completion, so `mergeShardResults`' coverage guarantees are
/// unaffected by how many attempts died mid-stream. The job then
/// re-enters the queue with exponential backoff + deterministic
/// jitter, up to `Retries` requeues; a job that exhausts its budget
/// fails the sweep loudly (with the worker's stderr tail) unless
/// `PartialOk` degrades it to a per-cell coverage report. Optional
/// straggler hedging re-dispatches the last `HedgeLast` outstanding
/// jobs to idle slots; the first attempt to complete a job wins and
/// the losers are killed — safe because cells are deterministic, so
/// any winner reports identical counters.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_SWEEPORCHESTRATOR_H
#define VMIB_HARNESS_SWEEPORCHESTRATOR_H

#include "harness/Auditor.h"
#include "harness/SweepExecutor.h"
#include "harness/SweepSpec.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vmib {

/// How to fan a sweep out over worker processes.
struct SweepWorkerOptions {
  /// Worker processes kept running concurrently (and the decomposition
  /// granularity hint handed to decomposeSweep).
  unsigned Shards = 1;
  /// Intra-gang worker threads per worker process ({threads} in the
  /// command template): the second level of a shards × threads
  /// fan-out. 0 defers to the spec's own `threads` field.
  unsigned Threads = 0;
  /// Spec file passed to workers as {spec}. Empty: the orchestrator
  /// writes the spec to a temp file and removes it afterwards. For
  /// remote templates this must be a path the remote side can read.
  std::string SpecPath;
  /// Shell command template; {driver}, {spec}, {shards}, {job},
  /// {threads} and {attempt} are substituted. Empty uses
  /// the default local-worker template above.
  std::string CommandTemplate;
  /// Path substituted for {driver}; empty uses defaultSweepDriverPath().
  std::string DriverBinary;
  /// Echo worker [timing] lines to stdout (the merged timing
  /// artifact). Only lines from *committed* attempts are echoed, so
  /// retried/hedged duplicates never double-count in the artifact.
  bool EchoWorkerTimings = true;

  //===--- fault tolerance -------------------------------------------------===//

  /// Requeues allowed per job after its first attempt fails (exit
  /// non-zero, signal, timeout, protocol violation, short coverage).
  /// 0 keeps the strict fail-fast behavior.
  unsigned Retries = 0;
  /// Base requeue delay; requeue i of a job waits
  /// BackoffMs << (i-1) (capped at << 6) ± 25% deterministic jitter.
  unsigned BackoffMs = 250;
  /// Per-attempt wall-clock budget in milliseconds; 0 = no timeout.
  /// An over-budget worker's process group gets SIGTERM, then SIGKILL
  /// after KillGraceMs.
  unsigned JobTimeoutMs = 0;
  /// SIGTERM-to-SIGKILL escalation grace.
  unsigned KillGraceMs = 2000;
  /// Straggler hedging: when the job queue is drained and worker
  /// slots sit idle, re-dispatch up to this many of the still-running
  /// jobs (newest first, at most one hedge per job). First completed
  /// attempt wins; losers are killed and discarded. 0 disables.
  unsigned HedgeLast = 0;
  /// A job that exhausts its retries stops the sweep (false) or is
  /// recorded in the report while the rest of the sweep completes
  /// (true). Uncovered cells are zero-filled; OrchestratorReport says
  /// which.
  bool PartialOk = false;
  /// Seed for the backoff jitter (deterministic: same seed + same
  /// failure schedule = same delays).
  uint64_t JitterSeed = 0x76696d6962ULL;

  //===--- incremental results ---------------------------------------------===//

  /// Open ResultStore (borrowed, may be null) probed BEFORE shard
  /// dispatch: a job whose every cell already resolves by content key
  /// is committed from the store without spawning a worker. Workers
  /// additionally consult the same store (via VMIB_RESULT_STORE in
  /// their environment) for partially-covered jobs, and report their
  /// hit/miss accounting back on `[store]` lines.
  ResultStore *Store = nullptr;

  //===--- redundant-execution audit ---------------------------------------===//

  /// Sampled audit (harness/Auditor): committed shards whose cells the
  /// seeded draw samples are re-dispatched — like hedges, only into
  /// idle slots once the job queue has drained, so audit steals no
  /// critical-path latency — as `--audit-exec` workers running the
  /// fully decorrelated shape (decode and threads both flipped, store
  /// and fault injection off). Mismatching cells get a
  /// third canonical-shape tiebreak dispatch; the triage ladder then
  /// classifies (store corruption / compute divergence /
  /// nondeterminism), quarantines implicated store cells, and repairs
  /// the committed slice with the authoritative tiebreak value before
  /// the final merge. Audit attempts never fail the sweep — a dead
  /// audit worker logs and forfeits that job's audit.
  AuditPlan Audit;
};

/// What happened while fanning a sweep out: retry/timeout/hedge
/// accounting plus — under PartialOk — exactly which jobs and cells
/// are missing. All-zero counters mean every job succeeded first try.
struct OrchestratorReport {
  unsigned AttemptsLaunched = 0; ///< all spawns, including hedges
  unsigned WorkerFailures = 0;   ///< failed attempts (any cause)
  unsigned Timeouts = 0;         ///< attempts killed by the job timeout
  unsigned RetriesScheduled = 0; ///< requeues actually performed
  unsigned HedgesLaunched = 0;
  unsigned HedgeWins = 0; ///< jobs whose committed attempt was a hedge
  /// Jobs (decomposeSweep indices) that exhausted their retry budget.
  /// Non-empty only under PartialOk (otherwise the sweep failed).
  std::vector<size_t> FailedJobs;
  /// Final failure diagnostic per entry of FailedJobs (parallel array).
  std::vector<std::string> FailedJobErrors;
  /// Per canonical cell: 1 when a committed attempt reported it.
  std::vector<uint8_t> CellCovered;
  /// First failure diagnostic observed (kept even when the attempt
  /// was successfully retried — field diagnosis wants the cause, not
  /// just the recovery).
  std::string FirstFailure;

  //===--- result-store accounting -----------------------------------------===//

  /// Jobs committed straight from the orchestrator's pre-dispatch
  /// store probe (no worker spawned).
  size_t JobsServedFromStore = 0;
  /// Cell lookups served from the store: pre-dispatch probe hits plus
  /// the hits committed workers reported on their [store] lines.
  uint64_t StoreHits = 0;
  /// Cell lookups that missed (committed workers only).
  uint64_t StoreMisses = 0;
  /// Records salvaged from torn segments (committed workers).
  uint64_t StoreRecovered = 0;
  /// Segments quarantined during recovery (committed workers).
  uint64_t StoreQuarantined = 0;
  /// Worker flushes that failed and kept records buffered.
  uint64_t StoreFlushFailures = 0;

  //===--- audit accounting ------------------------------------------------===//

  /// Decorrelated-shape audit workers dispatched into idle slots.
  unsigned AuditShardsLaunched = 0;
  /// Canonical-shape tiebreak workers dispatched after a mismatch.
  unsigned AuditTiebreaksLaunched = 0;
  /// Cells bit-compared against a decorrelated re-execution (audit
  /// shards compare their whole slice) plus cells worker self-audits
  /// reported on committed `[audit]` lines.
  uint64_t CellsAudited = 0;
  uint64_t AuditMismatches = 0; ///< audited cells where audit != primary
  uint64_t AuditStoreCorruptions = 0;   ///< triage verdict breakdown
  uint64_t AuditComputeDivergences = 0;
  uint64_t AuditNondeterminism = 0;
  uint64_t CellsQuarantined = 0; ///< store cells retired during triage
  uint64_t CellsRequeued = 0;    ///< cells repaired with the tiebreak value
  /// Wall clock from the first audit dispatch until audits settled —
  /// the `[timing]` evidence that audit rode idle slots instead of the
  /// critical path.
  double AuditWallSeconds = 0;

  size_t cellsCovered() const {
    size_t N = 0;
    for (uint8_t C : CellCovered)
      N += C;
    return N;
  }
  bool complete() const { return FailedJobs.empty(); }
};

/// The sibling sweep_driver binary of the running executable
/// (<dir of /proc/self/exe>/sweep_driver), or "sweep_driver" when the
/// executable path cannot be resolved.
std::string defaultSweepDriverPath();

/// Runs \p Spec over worker processes per \p Opt; on success fills
/// \p Cells (canonical order; zero-filled for cells lost to a
/// PartialOk job failure) and \p Stats (ReplaySeconds = fan-out wall
/// clock; ReplayedEvents summed from committed workers' timing
/// lines). \p Report, when non-null, receives the fault-tolerance
/// accounting above. \returns false with \p Error set on spawn
/// failure, a job exhausting its retries without PartialOk, or
/// incomplete/duplicate coverage.
bool orchestrateSweep(const SweepSpec &Spec, const SweepWorkerOptions &Opt,
                      std::vector<PerfCounters> &Cells, SweepRunStats &Stats,
                      std::string &Error,
                      OrchestratorReport *Report = nullptr);

} // namespace vmib

#endif // VMIB_HARNESS_SWEEPORCHESTRATOR_H
