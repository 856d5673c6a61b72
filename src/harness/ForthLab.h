//===- harness/ForthLab.h - Forth experiment runner -------------*- C++ -*-===//
///
/// \file
/// Runs Forth-suite benchmarks under interpreter variants and CPU
/// models, producing the paper's counters. Handles the training step:
/// static replicas and superinstructions are selected from a dynamic
/// profile of the brainless benchmark (§7.1), with resources cached per
/// (superCount, replicaCount) configuration.
///
/// Two execution paths produce bit-identical counters:
///  - run(): interpret the workload with a DispatchSim attached
///    (capture-per-config; the direct-simulation reference).
///  - replay(): interpret once into a cached DispatchTrace, then
///    re-drive any number of (variant x predictor x CPU) configurations
///    through the devirtualized TraceReplayer kernels.
/// The caches are mutex-guarded, so replay() calls may be sharded
/// across SweepRunner workers.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_FORTHLAB_H
#define VMIB_HARNESS_FORTHLAB_H

#include "harness/Variants.h"
#include "uarch/CpuModel.h"
#include "vmcore/DispatchBuilder.h"
#include "vmcore/DispatchTrace.h"
#include "vmcore/GangReplayer.h"
#include "vmcore/TraceReplayer.h"
#include "workloads/ForthSuite.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace vmib {

/// Cached compilation + training state for the Forth suite.
///
/// All per-benchmark state (compiled unit, reference run, trace) is
/// populated lazily on first use: a sweep-shard worker process that
/// touches one workload pays for that workload only, not for a
/// whole-suite eager constructor.
class ForthLab {
public:
  ForthLab();

  /// The compiled unit for a suite benchmark (compiled + reference-run
  /// on first use). Thread-safe.
  const ForthUnit &unit(const std::string &Benchmark);

  /// The training profile (dynamic frequencies of brainless, §7.1).
  const SequenceProfile &trainingProfile();

  /// Static resources for a (supers, replicas) configuration; cached.
  const StaticResources &resources(uint32_t SuperCount,
                                   uint32_t ReplicaCount,
                                   bool ReplicateSupers);

  /// Runs \p Benchmark under \p Variant on \p Cpu; checks that the run
  /// halts cleanly and matches the reference output hash.
  PerfCounters run(const std::string &Benchmark, const VariantSpec &Variant,
                   const CpuConfig &Cpu);

  /// Same, with an externally supplied predictor (ablation bench).
  PerfCounters
  runWithPredictor(const std::string &Benchmark, const VariantSpec &Variant,
                   const CpuConfig &Cpu,
                   std::unique_ptr<IndirectBranchPredictor> Predictor);

  /// The captured dispatch trace of \p Benchmark: loaded from the
  /// VMIB_TRACE_CACHE directory when a valid (workload- and
  /// content-hash-verified) file exists, otherwise interpreted once
  /// (hash verified) and saved back to the cache; then cached in
  /// memory for replays. Thread-safe.
  const DispatchTrace &trace(const std::string &Benchmark);

  /// The replay input for \p Benchmark under \p Mode: a borrowed
  /// in-memory trace (zero-copy tiles) or a validated streaming view
  /// of the benchmark's trace cache file (O(tile) working memory).
  /// Auto consults VMIB_TRACE_DECODE, then streams only when the
  /// decoded footprint exceeds the decode budget. A stream with no
  /// cache file yet captures the trace, saves it and streams the saved
  /// file without keeping the capture resident; only when the file
  /// cannot be written does an explicit Stream request fall back to
  /// materializing with a warning — replay never fails over a missing
  /// optimization. Counters are bit-identical either way. Thread-safe.
  TraceSource traceSource(const std::string &Benchmark,
                          TraceDecodeMode Mode = TraceDecodeMode::Auto);

  /// Reference output hash of \p Benchmark (what every variant run and
  /// the trace cache verify against). Thread-safe. May come from a
  /// persisted meta sidecar in VMIB_TRACE_CACHE (see WorkloadCache.h),
  /// in which case it is provisional: the first actual interpretation
  /// confirms it, and a stale sidecar falls back to a real reference
  /// run instead of aborting.
  uint64_t referenceHash(const std::string &Benchmark);

  /// Steps of the reference run (== events of the captured trace).
  /// Thread-safe.
  uint64_t referenceSteps(const std::string &Benchmark);

  /// Whole-workload reference interpretations this lab actually ran
  /// (cold-start accounting; sidecar hits keep this at zero).
  uint64_t referenceRunsPerformed() const {
    return ReferenceRuns.load(std::memory_order_relaxed);
  }
  /// Training-benchmark interpretations actually run (a persisted
  /// training profile keeps this at zero).
  uint64_t trainingRunsPerformed() const {
    return TrainingRuns.load(std::memory_order_relaxed);
  }

  /// Populates the caches a replay of \p Benchmark will hit — its
  /// trace and the training profile behind every static-resource
  /// selection. SweepExecutor::runSlice calls it only when a member
  /// missed the result store, on the thread that then replays.
  /// (Per-config resource selections stay lazy; they are cheap once
  /// the profile exists.)
  /// \p Decode mirrors the sweep's decode mode: a streaming sweep
  /// only validates the trace cache file here (capturing/generating
  /// it if absent) instead of pinning the whole event arena in
  /// memory.
  void warmup(const std::string &Benchmark,
              TraceDecodeMode Decode = TraceDecodeMode::Auto) {
    (void)traceSource(Benchmark, Decode);
    (void)trainingProfile();
  }
  /// The per-CPU form; the CPU does not change what is warmed.
  void warmup(const std::string &Benchmark, const CpuConfig &,
              TraceDecodeMode Decode = TraceDecodeMode::Auto) {
    warmup(Benchmark, Decode);
  }

  /// Number of traces this lab holds materialized in memory (a
  /// streaming sweep keeps this at zero). Thread-safe.
  size_t residentTraces();

  /// Releases a cached trace (memory control in long sweeps). NOT safe
  /// while replays of \p Benchmark are in flight: they hold references
  /// into the cached trace. Call only between sweep phases.
  void dropTrace(const std::string &Benchmark);

  /// Replays the cached trace of \p Benchmark under (Variant, Cpu) with
  /// the CPU's default BTB through the devirtualized kernel. Counters
  /// are bit-identical to run(). Thread-safe.
  PerfCounters replay(const std::string &Benchmark,
                      const VariantSpec &Variant, const CpuConfig &Cpu);

  /// Replay with a concrete predictor type: predict()/update() inline
  /// into the replay loop (devirtualized predictor sweeps).
  /// Thread-safe; \p Predictor must be fresh (stateful across events).
  template <class PredictorT>
  PerfCounters replayWith(const std::string &Benchmark,
                          const VariantSpec &Variant, const CpuConfig &Cpu,
                          PredictorT &Predictor) {
    auto Layout = buildLayout(Benchmark, Variant);
    return TraceReplayer::replay(trace(Benchmark), *Layout,
                                 /*MutableProgram=*/nullptr, Cpu, Predictor);
  }

  /// Type-erased replay for predictors assembled at run time.
  PerfCounters replayWithPredictor(const std::string &Benchmark,
                                   const VariantSpec &Variant,
                                   const CpuConfig &Cpu,
                                   IndirectBranchPredictor &Predictor);

  /// Replay with a custom BTB geometry (capacity sweeps): no-evict
  /// fast path with exact LRU fallback. Thread-safe.
  PerfCounters replayBtb(const std::string &Benchmark,
                         const VariantSpec &Variant, const CpuConfig &Cpu,
                         const BTBConfig &Config);

  /// Predictor-only BTB-geometry replay: branch stream only, fetch
  /// counters from \p FetchBaseline. Thread-safe.
  PerfCounters replayBtbPredictorOnly(const std::string &Benchmark,
                                      const VariantSpec &Variant,
                                      const CpuConfig &Cpu,
                                      const BTBConfig &Config,
                                      const PerfCounters &FetchBaseline);

  /// Predictor-sweep tier: re-simulates only the dispatch branch
  /// stream, reusing the predictor-independent fetch counters of
  /// \p FetchBaseline (any run()/replay() of the same (benchmark,
  /// variant, CPU)). Thread-safe.
  template <class PredictorT>
  PerfCounters replayPredictorOnly(const std::string &Benchmark,
                                   const VariantSpec &Variant,
                                   const CpuConfig &Cpu,
                                   PredictorT &Predictor,
                                   const PerfCounters &FetchBaseline) {
    auto Layout = buildLayout(Benchmark, Variant);
    return TraceReplayer::replayPredictorOnly(trace(Benchmark), *Layout,
                                              Cpu, Predictor, FetchBaseline);
  }

  /// Builds the dispatch layout of (Benchmark, Variant) — the static
  /// construction a replay or direct run simulates over. Thread-safe.
  std::unique_ptr<DispatchProgram> buildLayout(const std::string &Benchmark,
                                               const VariantSpec &Variant);

private:
  template <class LabT>
  friend TraceSource labTraceSource(LabT &, const std::string &,
                                    const std::string &, TraceDecodeMode);

  /// Captures (or, for a synthetic workload, generates) the trace of
  /// \p Benchmark, hash-verified, and saves it to the trace cache
  /// best-effort. The caller decides whether it stays resident.
  DispatchTrace captureTrace(const std::string &Benchmark);

  /// Compiles + reference-runs \p Benchmark if not cached yet (fatal
  /// on an unknown name or a failing reference run, like the old eager
  /// constructor). A valid meta sidecar stands in for the reference
  /// run (the hash is then provisional until confirmed).
  const ForthUnit &unitLocked(const std::string &Benchmark);
  const SequenceProfile &trainingProfileLocked();
  const StaticResources &resourcesLocked(uint32_t SuperCount,
                                         uint32_t ReplicaCount,
                                         bool ReplicateSupers);

  /// The authoritative reference hash: if the cached value is
  /// provisional (sidecar-sourced), runs the real reference
  /// interpretation, refreshes the sidecar, and returns the confirmed
  /// value. Called on the verification-failure path so a stale sidecar
  /// degrades to one extra run, never to a false divergence abort.
  uint64_t confirmedReferenceHash(const std::string &Benchmark);

  std::map<std::string, ForthUnit> Units;
  std::map<std::string, uint64_t> ReferenceHash;
  std::map<std::string, uint64_t> ReferenceSteps;
  std::map<std::string, uint64_t> BindingHash; ///< compiled-program id
  std::map<std::string, bool> HashFromSidecar;
  std::atomic<uint64_t> ReferenceRuns{0};
  std::atomic<uint64_t> TrainingRuns{0};
  std::unique_ptr<SequenceProfile> Training;
  std::map<std::string, StaticResources> ResourceCache;
  std::map<std::string, DispatchTrace> Traces;
  // Plain mutex on purpose: the *Locked helpers exist so nothing locks
  // re-entrantly; accidental re-entrancy should deadlock loudly, not
  // silently recurse.
  std::mutex CacheMutex;
};

} // namespace vmib

#endif // VMIB_HARNESS_FORTHLAB_H
