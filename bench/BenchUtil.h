//===- bench/BenchUtil.h - Shared bench-binary helpers ----------*- C++ -*-===//
///
/// \file
/// Small shared pieces for the per-figure/per-table bench binaries:
/// banner printing and the toy "A B A GOTO" loop machinery used by the
/// Table I-IV walkthrough benches.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_BENCH_BENCHUTIL_H
#define VMIB_BENCH_BENCHUTIL_H

#include "harness/Figures.h"
#include "harness/ForthLab.h"
#include "harness/JavaLab.h"
#include "harness/SweepExecutor.h"
#include "harness/SweepOrchestrator.h"
#include "harness/SweepSpec.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "vmcore/DispatchBuilder.h"
#include "vmcore/DispatchSim.h"
#include "vmcore/GangReplayer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace vmib {
namespace bench {

/// Prints the standard bench banner.
inline void banner(const std::string &Id, const std::string &What) {
  std::printf("=== %s ===\n%s\n\n", Id.c_str(), What.c_str());
}

//===--- machine-readable emitters ----------------------------------------===//
//
// Every [timing] and [result] line a bench or the sweep_driver prints
// flows through these two emitters, so the line grammar lives in one
// place (support/Statistics benchTimingLine, harness/SweepSpec
// sweepResultLine) and the artifact tooling and the sweep_driver merge
// path parse one format.

/// Emits the standard per-sweep throughput line.
inline void emitTiming(const std::string &BenchId, double CaptureSeconds,
                       double ReplaySeconds, uint64_t ReplayedEvents,
                       size_t Configs) {
  std::fputs(benchTimingLine(BenchId, CaptureSeconds, ReplaySeconds,
                             ReplayedEvents, Configs)
                 .c_str(),
             stdout);
}
inline void emitTiming(const std::string &BenchId, const SweepRunStats &S) {
  emitTiming(BenchId, S.CaptureSeconds, S.ReplaySeconds, S.ReplayedEvents,
             S.Configs);
}

/// Emits one finished sweep cell (the sweep_driver worker protocol).
inline void emitResult(const std::string &SweepName, size_t Workload,
                       size_t Member, const PerfCounters &C) {
  std::fputs(sweepResultLine(SweepName, Workload, Member, C).c_str(),
             stdout);
}

/// Emits the fault-tolerance summary of an orchestrated sweep — but
/// only when something actually happened (a failure, retry, timeout,
/// hedge, or coverage gap), so clean runs stay clean.
inline void emitOrchestratorReport(const std::string &SweepName,
                                   const OrchestratorReport &R) {
  if (R.WorkerFailures == 0 && R.RetriesScheduled == 0 && R.Timeouts == 0 &&
      R.HedgesLaunched == 0 && R.complete())
    return;
  std::printf("[orchestrator] sweep=%s attempts=%u failures=%u retries=%u "
              "timeouts=%u hedges=%u hedge_wins=%u covered=%zu/%zu\n",
              SweepName.c_str(), R.AttemptsLaunched, R.WorkerFailures,
              R.RetriesScheduled, R.Timeouts, R.HedgesLaunched, R.HedgeWins,
              R.cellsCovered(), R.CellCovered.size());
}

/// Worker-side per-job result-store line: the orchestrator parses the
/// space-prefixed `key=value` tokens, stages them with the attempt,
/// and aggregates them only when the attempt commits.
inline void emitStoreLine(const std::string &SweepName, size_t JobIdx,
                          const ResultStoreStats &S) {
  std::printf("[store] sweep=%s job=%zu hits=%llu misses=%llu "
              "recovered=%llu quarantined=%llu flush_failures=%llu\n",
              SweepName.c_str(), JobIdx, (unsigned long long)S.Hits,
              (unsigned long long)S.Misses, (unsigned long long)S.Recovered,
              (unsigned long long)S.Quarantined,
              (unsigned long long)S.FlushFailures);
}

/// Final aggregate of an orchestrated sweep: pre-dispatch probe hits +
/// every committed worker's accounting.
inline void emitStoreReport(const std::string &SweepName,
                            const OrchestratorReport &R) {
  std::printf("[store] sweep=%s hits=%llu misses=%llu recovered=%llu "
              "quarantined=%llu flush_failures=%llu jobs_from_store=%zu\n",
              SweepName.c_str(), (unsigned long long)R.StoreHits,
              (unsigned long long)R.StoreMisses,
              (unsigned long long)R.StoreRecovered,
              (unsigned long long)R.StoreQuarantined,
              (unsigned long long)R.StoreFlushFailures,
              R.JobsServedFromStore);
}

/// Same line for an in-process sweep, straight from the store's own
/// stats.
inline void emitStoreReport(const std::string &SweepName,
                            const ResultStore &Store) {
  const ResultStoreStats &S = Store.stats();
  std::printf("[store] sweep=%s hits=%llu misses=%llu recovered=%llu "
              "quarantined=%llu flush_failures=%llu records=%zu\n",
              SweepName.c_str(), (unsigned long long)S.Hits,
              (unsigned long long)S.Misses, (unsigned long long)S.Recovered,
              (unsigned long long)S.Quarantined,
              (unsigned long long)S.FlushFailures, Store.size());
}

/// Resolves and opens the durable result store per the shared flags —
/// `--result-store` (default location), `--store-dir=D`,
/// `--no-result-store` — and the VMIB_RESULT_STORE environment
/// variable, then RE-EXPORTS the decision into the environment so
/// orchestrated worker processes (which see only the env, not the
/// flags) make the same choice. \returns true when \p Store is open;
/// failures to open degrade to a warning and a disabled store — a
/// cache must never fail a sweep.
inline bool applyStoreOptions(const OptionParser &Opts, ResultStore &Store) {
  std::string Why;
  std::string Dir = ResultStore::resolveDir(
      Opts.get("store-dir"), Opts.has("result-store"),
      Opts.has("no-result-store"), &Why);
  ::setenv("VMIB_RESULT_STORE", Dir.empty() ? "off" : Dir.c_str(), 1);
  if (Dir.empty()) {
    if (!Why.empty())
      std::fprintf(stderr, "warning: %s\n", Why.c_str());
    return false;
  }
  std::string Diag;
  if (!Store.open(Dir, &Diag)) {
    std::fprintf(stderr,
                 "warning: %s; continuing without the result store\n",
                 Diag.c_str());
    ::setenv("VMIB_RESULT_STORE", "off", 1);
    return false;
  }
  return true;
}

/// Reads the count flag `--Name` (OptionParser::getCount: strict
/// decimal) into \p Out, or \p Default when absent. \returns false
/// with a diagnostic on stderr for a malformed value or one above
/// \p Max.
inline bool countOption(const OptionParser &Opts, const char *Name,
                        uint64_t Default, uint64_t Max, uint64_t &Out) {
  if (Opts.getCount(Name, Default, Out) && Out <= Max)
    return true;
  std::string Bound =
      Max == UINT64_MAX ? "" : format(" <= %llu", (unsigned long long)Max);
  std::fprintf(stderr, "error: bad --%s '%s' (expected a decimal count%s)\n",
               Name, Opts.get(Name).c_str(), Bound.c_str());
  return false;
}

/// Parses the redundant-execution audit knobs — `--audit=RATE` (the
/// deterministic cell-sampling rate, 0..1) and `--audit-seed=N`
/// (override the fixed default sample) — into \p Plan. \returns false
/// with \p ExitCode set on a malformed value.
inline bool applyAuditOptions(const OptionParser &Opts, AuditPlan &Plan,
                              int &ExitCode) {
  if (Opts.has("audit")) {
    std::string Error;
    if (!parseAuditRate(Opts.get("audit"), Plan, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      ExitCode = 1;
      return false;
    }
  }
  if (!countOption(Opts, "audit-seed", Plan.Seed, UINT64_MAX, Plan.Seed)) {
    ExitCode = 1;
    return false;
  }
  return true;
}

/// Minimal JSON string escape for the report writer: quotes,
/// backslashes, and control bytes (as \u00XX).
inline std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += format("\\u%04x", static_cast<unsigned>(C) & 0xFF);
    } else {
      Out += C;
    }
  }
  return Out;
}

/// Writes the full OrchestratorReport — attempt/retry/hedge, store,
/// and audit accounting — as a JSON object at \p Path
/// (`sweep_driver --report-json=PATH`). \returns false (errno set) on
/// any write failure; the file is written atomically enough for CI
/// (single fopen/fprintf/fclose — a torn report fails its parser, it
/// cannot fail the sweep).
inline bool writeOrchestratorReportJson(const std::string &Path,
                                        const std::string &SweepName,
                                        const OrchestratorReport &R) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"sweep\": \"%s\",\n", jsonEscape(SweepName).c_str());
  std::fprintf(F, "  \"attempts\": %u,\n", R.AttemptsLaunched);
  std::fprintf(F, "  \"worker_failures\": %u,\n", R.WorkerFailures);
  std::fprintf(F, "  \"timeouts\": %u,\n", R.Timeouts);
  std::fprintf(F, "  \"retries\": %u,\n", R.RetriesScheduled);
  std::fprintf(F, "  \"hedges\": %u,\n", R.HedgesLaunched);
  std::fprintf(F, "  \"hedge_wins\": %u,\n", R.HedgeWins);
  std::fprintf(F, "  \"cells\": %zu,\n", R.CellCovered.size());
  std::fprintf(F, "  \"cells_covered\": %zu,\n", R.cellsCovered());
  std::fprintf(F, "  \"complete\": %s,\n", R.complete() ? "true" : "false");
  std::fprintf(F, "  \"failed_jobs\": [");
  for (size_t I = 0; I < R.FailedJobs.size(); ++I)
    std::fprintf(F, "%s%zu", I ? ", " : "", R.FailedJobs[I]);
  std::fprintf(F, "],\n");
  std::fprintf(F, "  \"first_failure\": \"%s\",\n",
               jsonEscape(R.FirstFailure).c_str());
  std::fprintf(F, "  \"store\": {\n");
  std::fprintf(F, "    \"jobs_from_store\": %zu,\n", R.JobsServedFromStore);
  std::fprintf(F, "    \"hits\": %llu,\n",
               (unsigned long long)R.StoreHits);
  std::fprintf(F, "    \"misses\": %llu,\n",
               (unsigned long long)R.StoreMisses);
  std::fprintf(F, "    \"recovered\": %llu,\n",
               (unsigned long long)R.StoreRecovered);
  std::fprintf(F, "    \"quarantined\": %llu,\n",
               (unsigned long long)R.StoreQuarantined);
  std::fprintf(F, "    \"flush_failures\": %llu\n",
               (unsigned long long)R.StoreFlushFailures);
  std::fprintf(F, "  },\n");
  std::fprintf(F, "  \"audit\": {\n");
  std::fprintf(F, "    \"shards\": %u,\n", R.AuditShardsLaunched);
  std::fprintf(F, "    \"tiebreaks\": %u,\n", R.AuditTiebreaksLaunched);
  std::fprintf(F, "    \"cells_audited\": %llu,\n",
               (unsigned long long)R.CellsAudited);
  std::fprintf(F, "    \"mismatches\": %llu,\n",
               (unsigned long long)R.AuditMismatches);
  std::fprintf(F, "    \"store_corruption\": %llu,\n",
               (unsigned long long)R.AuditStoreCorruptions);
  std::fprintf(F, "    \"compute_divergence\": %llu,\n",
               (unsigned long long)R.AuditComputeDivergences);
  std::fprintf(F, "    \"nondeterminism\": %llu,\n",
               (unsigned long long)R.AuditNondeterminism);
  std::fprintf(F, "    \"quarantined\": %llu,\n",
               (unsigned long long)R.CellsQuarantined);
  std::fprintf(F, "    \"requeued\": %llu,\n",
               (unsigned long long)R.CellsRequeued);
  std::fprintf(F, "    \"wall_s\": %.3f\n", R.AuditWallSeconds);
  std::fprintf(F, "  }\n");
  std::fprintf(F, "}\n");
  bool Ok = std::ferror(F) == 0;
  return std::fclose(F) == 0 && Ok;
}

/// Applies the replay-path knob every entry point shares —
/// `--decode=materialize|stream|auto` (whole-trace in-memory decode vs
/// O(tile) streaming from the trace cache file; auto streams past the
/// VMIB_DECODE_BUDGET footprint) — and RE-EXPORTS the decision into
/// the environment so orchestrated worker processes make the same
/// choice. The knob is bit-identity-neutral by contract; it only moves
/// throughput and memory. \returns false with \p ExitCode set on a
/// malformed value.
inline bool applyReplayPathOptions(const OptionParser &Opts, int &ExitCode) {
  if (Opts.has("decode")) {
    std::string V = Opts.get("decode");
    TraceDecodeMode Mode;
    if (!traceDecodeModeFromId(V, Mode)) {
      std::fprintf(stderr,
                   "error: bad --decode '%s' (expected materialize, stream "
                   "or auto)\n",
                   V.c_str());
      ExitCode = 1;
      return false;
    }
    ::setenv("VMIB_TRACE_DECODE", traceDecodeModeId(Mode), 1);
  }
  return true;
}

//===--- declarative sweeps -----------------------------------------------===//

/// Applies the spec-override flags every spec-driven entry point
/// shares — `--threads=N` (0 = auto-detect) and
/// `--decode=materialize|stream|auto` — then re-validates the spec.
/// \returns false with \p ExitCode set (and a diagnostic on stderr)
/// when the caller should exit.
inline bool applySpecOverrides(const OptionParser &Opts, SweepSpec &Spec,
                               int &ExitCode) {
  // Capped like the spec parser's threads field.
  uint64_t Threads;
  if (!countOption(Opts, "threads", Spec.Threads, 1024, Threads)) {
    ExitCode = 1;
    return false;
  }
  Spec.Threads = static_cast<unsigned>(Threads);
  if (Opts.has("decode") &&
      !traceDecodeModeFromId(Opts.get("decode"), Spec.Decode)) {
    std::fprintf(stderr,
                 "error: unknown --decode '%s' (expected materialize, "
                 "stream or auto)\n",
                 Opts.get("decode").c_str());
    ExitCode = 1;
    return false;
  }
  std::string Error;
  if (!validateSweepSpec(Spec, Error)) {
    std::fprintf(stderr, "error: invalid sweep spec: %s\n", Error.c_str());
    ExitCode = 1;
    return false;
  }
  return true;
}

/// Applies the fault-tolerance flags every orchestrating entry point
/// shares — `--retries=N`, `--backoff-ms=N`, `--job-timeout=MS`,
/// `--kill-grace=MS`, `--hedge=K` and (sweep_driver only)
/// `--partial-ok` — onto \p W. \returns false with \p ExitCode set
/// (and a diagnostic on stderr) when the caller should exit.
inline bool applyWorkerFaultOptions(const OptionParser &Opts,
                                    SweepWorkerOptions &W, int &ExitCode,
                                    bool AllowPartialOk = false) {
  auto ParseU = [&](const char *Name, unsigned &Out) {
    uint64_t V;
    if (!countOption(Opts, Name, Out, UINT32_MAX, V))
      return false;
    Out = static_cast<unsigned>(V);
    return true;
  };
  if (!ParseU("retries", W.Retries) || !ParseU("backoff-ms", W.BackoffMs) ||
      !ParseU("job-timeout", W.JobTimeoutMs) ||
      !ParseU("kill-grace", W.KillGraceMs) || !ParseU("hedge", W.HedgeLast)) {
    ExitCode = 1;
    return false;
  }
  if (Opts.has("partial-ok")) {
    if (!AllowPartialOk) {
      // Benches render full tables by cell position; a zero-filled
      // hole would print as a nonsense speedup. Degraded sweeps
      // belong to sweep_driver, which reports the coverage.
      std::fprintf(stderr,
                   "error: --partial-ok is a sweep_driver flag (benches "
                   "need full coverage to render their tables)\n");
      ExitCode = 1;
      return false;
    }
    W.PartialOk = true;
  }
  return true;
}

/// Builds the common benchmark-suite sweep spec (one CPU, default
/// predictor): what the fig/table benches declare.
inline SweepSpec suiteSpec(const std::string &Name, const std::string &Suite,
                           std::vector<std::string> Benchmarks,
                           std::vector<VariantSpec> Variants,
                           const std::string &CpuId) {
  SweepSpec Spec;
  Spec.Name = Name;
  Spec.Suite = Suite;
  Spec.Benchmarks = std::move(Benchmarks);
  Spec.Variants = std::move(Variants);
  Spec.Cpus = {CpuId};
  return Spec;
}

/// Extracts the (benchmark × variant) SpeedupMatrix of one
/// (CPU, predictor) plane from canonical sweep cells.
inline SpeedupMatrix matrixFromCells(const SweepSpec &Spec,
                                     const std::vector<PerfCounters> &Cells,
                                     size_t CpuIdx = 0, size_t PredIdx = 0) {
  SpeedupMatrix M;
  M.Benchmarks = Spec.Benchmarks;
  for (const VariantSpec &V : Spec.Variants)
    M.Variants.push_back(V.Name);
  for (size_t B = 0; B < Spec.Benchmarks.size(); ++B)
    for (size_t V = 0; V < Spec.Variants.size(); ++V)
      M.Counters[Spec.Benchmarks[B]][Spec.Variants[V].Name] =
          Cells[Spec.cellIndex(B, Spec.memberIndex(CpuIdx, V, PredIdx))];
  return M;
}

/// The declarative-sweep entry every spec-driven bench shares. Handles
/// the flags the sweep layer gives benches for free:
///
///   --emit-spec       print the spec text (worker/CI input) and exit
///   --spec=FILE       replace the declared spec with FILE
///   --shards=N        fan out over N sweep_driver worker processes
///   --worker-cmd=TPL  worker command template ({driver}, {spec},
///                     {shards}, {job}, {threads}; e.g. an ssh wrapper)
///   --threads=N       intra-gang worker threads per gang replay
///                     (spec `threads` override; default 1 = serial;
///                     0 = auto-detect, resolved to the host's
///                     hardware_concurrency at executor level;
///                     composes with --shards into shards × threads)
///   --decode=M        replay input acquisition, `materialize` (whole
///                     trace in memory), `stream` (O(tile) decode from
///                     the trace cache file) or `auto` (stream past
///                     the VMIB_DECODE_BUDGET footprint); spec
///                     `decode` override, bit-identical either way
///   --retries=N       requeues per failed/timed-out/garbled worker
///                     job (exponential backoff, --backoff-ms=MS)
///   --job-timeout=MS  per-job wall-clock budget; over-budget workers
///                     get SIGTERM, then SIGKILL after --kill-grace=MS
///   --hedge=K         re-dispatch the last K outstanding jobs to
///                     idle slots; first completion wins
///   --result-store    durable per-cell result cache at the default
///                     location (<VMIB_TRACE_CACHE>/results): cells
///                     whose content keys are already stored are
///                     served without replaying, fresh cells persist
///                     crash-consistently (see harness/ResultStore.h)
///   --store-dir=D     result store at D (implies --result-store)
///   --no-result-store force the store off (overrides the env)
///   --audit=RATE      deterministically-sampled redundant-execution
///                     audit (harness/Auditor): sampled cells re-run
///                     through a decorrelated shape and bit-compare;
///                     mismatches tiebreak, classify, quarantine and
///                     repair (--audit-seed=N for a fresh sample)
///
/// \returns true with \p Cells filled (canonical order) and the
/// standard [timing] line emitted; false when the bench should exit
/// immediately with \p ExitCode (--emit-spec, or a spec/worker error).
/// \p Banner is printed only when a sweep actually runs, so
/// --emit-spec output stays a clean spec file.
inline bool runDeclaredSweep(const OptionParser &Opts, SweepSpec &Spec,
                             const std::string &Banner, ForthLab *FLab,
                             JavaLab *JLab, std::vector<PerfCounters> &Cells,
                             int &ExitCode, SweepRunStats *StatsOut = nullptr) {
  std::string Error;
  if (Opts.has("spec")) {
    SweepSpec Loaded;
    if (!loadSweepSpecFile(Opts.get("spec"), Loaded, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      ExitCode = 1;
      return false;
    }
    // A bench renders its declared table shape by cell position, so a
    // substituted spec may change workloads/parameters but must keep
    // the declared axis sizes and suite; arbitrary-shape specs belong
    // to sweep_driver, which renders from the spec itself.
    size_t DeclaredPreds = Spec.Predictors.empty() ? 1 : Spec.Predictors.size();
    size_t LoadedPreds =
        Loaded.Predictors.empty() ? 1 : Loaded.Predictors.size();
    if (Loaded.Suite != Spec.Suite ||
        Loaded.Variants.size() != Spec.Variants.size() ||
        Loaded.Cpus.size() != Spec.Cpus.size() ||
        LoadedPreds != DeclaredPreds) {
      std::fprintf(stderr,
                   "error: %s does not match this bench's sweep shape "
                   "(suite %s, %zu cpus x %zu variants x %zu predictors); "
                   "run arbitrary specs through sweep_driver instead\n",
                   Opts.get("spec").c_str(), Spec.Suite.c_str(),
                   Spec.Cpus.size(), Spec.Variants.size(), DeclaredPreds);
      ExitCode = 1;
      return false;
    }
    Spec = std::move(Loaded);
  }
  // --threads overrides the spec's intra-gang thread count (validated
  // like any other spec field; 0 = auto-detect), so any spec-driven
  // bench can run its gangs on the shared-tile worker pool without
  // editing the spec.
  if (!applySpecOverrides(Opts, Spec, ExitCode))
    return false;
  if (Opts.has("emit-spec")) {
    std::fputs(printSweepSpec(Spec).c_str(), stdout);
    ExitCode = 0;
    return false;
  }
  std::printf("%s", Banner.c_str());
  ResultStore Store;
  bool StoreOn = applyStoreOptions(Opts, Store);
  AuditPlan Audit;
  if (!applyAuditOptions(Opts, Audit, ExitCode))
    return false;
  uint64_t Shards;
  if (!countOption(Opts, "shards", 0, UINT32_MAX, Shards)) {
    ExitCode = 1;
    return false;
  }
  SweepRunStats Stats;
  if (Shards > 1 || Opts.has("worker-cmd")) {
    SweepWorkerOptions W;
    W.Shards = static_cast<unsigned>(Shards < 1 ? 1 : Shards);
    W.Threads = Spec.Threads; // two-level: shards × intra-gang threads
    W.CommandTemplate = Opts.get("worker-cmd");
    W.SpecPath = Opts.get("spec"); // reuse the file workers can read
    W.Store = StoreOn ? &Store : nullptr;
    W.Audit = Audit;
    if (!applyWorkerFaultOptions(Opts, W, ExitCode))
      return false;
    OrchestratorReport Report;
    if (!orchestrateSweep(Spec, W, Cells, Stats, Error, &Report)) {
      std::fprintf(stderr, "error: sweep orchestration failed: %s\n",
                   Error.c_str());
      ExitCode = 1;
      return false;
    }
    emitTiming(Spec.Name + format(":shards%u", W.Shards), Stats);
    emitOrchestratorReport(Spec.Name, Report);
    if (StoreOn)
      emitStoreReport(Spec.Name, Report);
  } else {
    SweepExecutor Executor(FLab, JLab);
    if (StoreOn)
      Executor.setResultStore(&Store);
    Auditor InProcAudit(Audit, Executor, StoreOn ? &Store : nullptr);
    if (Audit.enabled())
      Executor.setAuditor(&InProcAudit);
    Stats = Executor.runAll(Spec, 0, Cells);
    emitTiming(Spec.Name + ":gang", Stats);
    if (StoreOn)
      emitStoreReport(Spec.Name, Store);
  }
  if (StatsOut)
    *StatsOut = Stats;
  return true;
}

/// Shared main body of the variant-matrix benches (Figs. 7-13): the
/// declarative sweep, rendered as a (benchmark × variant)
/// SpeedupMatrix. \p LabT is ForthLab or JavaLab. \returns false when
/// the bench should exit with \p Exit (--emit-spec, or an error).
template <class LabT>
bool runMatrixBench(const OptionParser &Opts, const std::string &Id,
                    const std::string &Suite, const std::string &CpuId,
                    std::vector<std::string> Benchmarks,
                    std::vector<VariantSpec> Variants,
                    const std::string &Banner, LabT &Lab, SpeedupMatrix &M,
                    int &Exit) {
  SweepSpec Spec = suiteSpec(Id, Suite, std::move(Benchmarks),
                             std::move(Variants), CpuId);
  std::vector<PerfCounters> Cells;
  ForthLab *FLab = nullptr;
  JavaLab *JLab = nullptr;
  if constexpr (std::is_same_v<LabT, ForthLab>)
    FLab = &Lab;
  else
    JLab = &Lab;
  if (!runDeclaredSweep(Opts, Spec, Banner, FLab, JLab, Cells, Exit))
    return false;
  M = matrixFromCells(Spec, Cells);
  return true;
}

/// Suite benchmark names, cut to the first two for --quick smoke runs.
inline std::vector<std::string> forthBenchNames(bool Quick = false) {
  std::vector<std::string> Names;
  for (const ForthBenchmark &B : forthSuite()) {
    Names.push_back(B.Name);
    if (Quick && Names.size() == 2)
      break;
  }
  return Names;
}
inline std::vector<std::string> javaBenchNames(bool Quick = false) {
  std::vector<std::string> Names;
  for (const JavaBenchmark &B : javaSuite()) {
    Names.push_back(B.Name);
    if (Quick && Names.size() == 2)
      break;
  }
  return Names;
}

/// The %superinstruction columns of the Figs. 14-16 mix grids.
inline constexpr uint32_t MixPercents[] = {0, 25, 50, 75, 100};

/// The Figs. 14-16 static replication/superinstruction mix grid
/// flattened into a sweep's variant list, row-major: one row per total
/// budget of additional static instructions in \p Totals, one cell per
/// MixPercents column (the superinstruction share of the budget). The
/// zero-budget row has a single cell, plain threaded code.
inline std::vector<VariantSpec>
mixGridVariants(const std::vector<uint32_t> &Totals,
                bool ReplicateSupers = false) {
  std::vector<VariantSpec> Variants;
  for (uint32_t Total : Totals)
    for (uint32_t Pct : MixPercents) {
      VariantSpec V;
      V.Name = "mix";
      V.Config.Kind = Total == 0 ? DispatchStrategy::Threaded
                                 : DispatchStrategy::StaticBoth;
      V.SuperCount = Total * Pct / 100;
      V.ReplicaCount = Total - V.SuperCount;
      V.ReplicateSupers = ReplicateSupers;
      V.Config.SuperCount = V.SuperCount;
      V.Config.ReplicaCount = V.ReplicaCount;
      Variants.push_back(V);
      if (Total == 0)
        break;
    }
  return Variants;
}

/// Renders the "total \ %super" table of a mix grid from its cells in
/// mixGridVariants() order, one string per cell from \p Format.
template <class FormatT>
std::string renderMixGrid(const std::vector<uint32_t> &Totals,
                          const std::vector<PerfCounters> &Cells,
                          FormatT Format) {
  std::vector<std::string> Header = {"total \\ %super"};
  for (uint32_t Pct : MixPercents)
    Header.push_back(std::to_string(Pct) + "%");
  TextTable T(Header);
  size_t Cell = 0;
  for (uint32_t Total : Totals) {
    std::vector<std::string> Row = {std::to_string(Total)};
    size_t Width = Total == 0 ? 1 : std::size(MixPercents);
    for (size_t K = 0; K < Width; ++K)
      Row.push_back(Format(Cells[Cell++]));
    while (Row.size() < Header.size())
      Row.push_back("-");
    T.addRow(Row);
  }
  return T.render();
}

/// A 3-opcode toy VM (A, B, GOTO) for the paper's worked examples.
struct ToyLoopVM {
  OpcodeSet Set;
  Opcode A, B, Goto, Halt;

  ToyLoopVM() {
    auto add = [&](const char *Name, BranchKind BK) {
      OpcodeInfo Info;
      Info.Name = Name;
      Info.WorkInstrs = 3;
      Info.BodyBytes = 16;
      Info.Branch = BK;
      return Set.add(std::move(Info));
    };
    A = add("A", BranchKind::None);
    B = add("B", BranchKind::None);
    Goto = add("GOTO", BranchKind::Uncond);
    Halt = add("HLT", BranchKind::Halt);
  }

  /// "label: A B A GOTO label" (Tables I, II, IV).
  VMProgram loopABA() const {
    VMProgram P;
    P.Name = "loop";
    P.Code = {{A, 0, 0}, {B, 0, 0}, {A, 0, 0}, {Goto, 0, 0}};
    return P;
  }

  /// "label: A B A B A GOTO label" (Table III).
  VMProgram loopABABA() const {
    VMProgram P;
    P.Name = "loop3";
    P.Code = {{A, 0, 0}, {B, 0, 0}, {A, 0, 0},
              {B, 0, 0}, {A, 0, 0}, {Goto, 0, 0}};
    return P;
  }

  /// Executes \p Iterations of the loop over \p Sim.
  void run(const VMProgram &P, DispatchSim &Sim, uint32_t Iterations) const {
    uint32_t Len = P.size();
    uint32_t Ip = 0;
    for (uint64_t Step = 0; Step < uint64_t(Iterations) * Len; ++Step) {
      uint32_t Next = P.Code[Ip].Op == Goto ? 0 : Ip + 1;
      Sim.step(Ip, Next);
      Ip = Next;
    }
  }
};

/// Symbolizes the addresses of a layout: branch sites become "br-A1" /
/// "br-switch", entries become "A1", "B", ... following the paper's
/// notation in Tables I-IV.
class LoopSymbolizer {
public:
  LoopSymbolizer(const DispatchProgram &Layout, const OpcodeSet &Set,
                 const VMProgram &P) {
    std::map<std::string, int> NameUses;
    // Count distinct entry addresses per opcode name to decide whether
    // to number replicas (A1, A2) or keep plain names (B, GOTO).
    std::map<std::string, std::vector<Addr>> AddrsPerName;
    for (uint32_t I = 0; I < P.size(); ++I) {
      const std::string &Name = Set.info(P.Code[I].Op).Name;
      Addr E = Layout.piece(I).EntryAddr;
      auto &List = AddrsPerName[Name];
      bool Known = false;
      for (Addr Have : List)
        Known |= Have == E;
      if (!Known)
        List.push_back(E);
    }
    for (auto &[Name, Addrs] : AddrsPerName) {
      bool Numbered = Addrs.size() > 1;
      for (size_t K = 0; K < Addrs.size(); ++K) {
        std::string Label =
            Numbered ? Name + std::to_string(K + 1) : Name;
        EntryNames[Addrs[K]] = Label;
      }
    }
    for (uint32_t I = 0; I < P.size(); ++I) {
      const Piece &Pc = Layout.piece(I);
      if (Pc.BranchSite == 0)
        continue;
      auto It = BranchNames.find(Pc.BranchSite);
      if (It == BranchNames.end())
        BranchNames[Pc.BranchSite] =
            SharedSite(Layout, P) && Pc.BranchSite == SharedAddr(Layout, P)
                ? "br-switch"
                : "br-" + entryName(Pc.EntryAddr);
    }
  }

  std::string entryName(Addr A) const {
    auto It = EntryNames.find(A);
    return It == EntryNames.end() ? format("0x%llx",
                                           (unsigned long long)A)
                                  : It->second;
  }
  std::string branchName(Addr A) const {
    auto It = BranchNames.find(A);
    return It == BranchNames.end() ? format("0x%llx",
                                            (unsigned long long)A)
                                   : It->second;
  }

private:
  static bool SharedSite(const DispatchProgram &L, const VMProgram &) {
    return L.config().Kind == DispatchStrategy::Switch;
  }
  static Addr SharedAddr(const DispatchProgram &L, const VMProgram &) {
    return L.piece(0).BranchSite;
  }

  std::map<Addr, std::string> EntryNames;
  std::map<Addr, std::string> BranchNames;
};

/// Runs \p Warmup + \p Shown iterations of a loop program and renders
/// the per-dispatch trace of the shown iterations in the Table I-IV
/// format.
inline std::string traceLoop(const ToyLoopVM &VM, const VMProgram &P,
                             const StrategyConfig &Config,
                             const StaticResources *Static,
                             uint32_t Warmup, uint32_t Shown) {
  auto Layout = DispatchBuilder::build(P, VM.Set, Config, Static);
  LoopSymbolizer Sym(*Layout, VM.Set, P);
  CpuConfig Cpu = makePentium4Northwood();
  DispatchSim Sim(*Layout, Cpu);

  VM.run(P, Sim, Warmup);

  TextTable T({"#", "instr", "BTB entry", "prediction", "actual",
               "outcome"});
  uint32_t Row = 1;
  auto AddRow = [&](const TraceEvent &E) {
    if (!E.Dispatched)
      return;
    std::string Pred = E.Predicted == NoPrediction
                           ? "(empty)"
                           : Sym.entryName(E.Predicted);
    T.addRow({std::to_string(Row++),
              Sym.entryName(Layout->piece(E.Cur).EntryAddr),
              Sym.branchName(E.Site), Pred, Sym.entryName(E.Target),
              E.Mispredicted ? "MISPREDICT" : "correct"});
  };
  CallbackObserver<decltype(AddRow)> Observer(AddRow);
  Sim.setObserver(&Observer);
  uint64_t MissBefore = Sim.counters().Mispredictions;
  VM.run(P, Sim, Shown);
  Sim.setObserver(nullptr);
  uint64_t Misses = Sim.counters().Mispredictions - MissBefore;

  return T.render() +
         format("\nmispredictions in %u shown iteration(s): %llu\n", Shown,
                (unsigned long long)Misses);
}

} // namespace bench
} // namespace vmib

#endif // VMIB_BENCH_BENCHUTIL_H
