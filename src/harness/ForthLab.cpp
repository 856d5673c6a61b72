//===- harness/ForthLab.cpp -----------------------------------------------===//

#include "harness/ForthLab.h"

#include "harness/LabTraceSource.h"
#include "harness/WorkloadCache.h"
#include "support/Format.h"
#include "vmcore/DispatchSim.h"
#include "workloads/SynthSuite.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace vmib;

ForthLab::ForthLab() = default; // all state is populated lazily

const ForthUnit &ForthLab::unitLocked(const std::string &Benchmark) {
  auto It = Units.find(Benchmark);
  if (It != Units.end())
    return It->second;
  if (isSynthBenchmarkName(Benchmark)) {
    // Synthetic workload: the name IS the workload. No reference run
    // exists or is needed — the identity hash is a pure function of
    // the parameters, the step count is the requested event count, and
    // both are exact (never sidecar-provisional).
    SynthWorkloadParams Params;
    std::string Err;
    if (!parseSynthBenchmarkName(Benchmark, Params, &Err)) {
      std::fprintf(stderr, "fatal: %s\n", Err.c_str());
      std::abort();
    }
    ForthUnit Unit = buildSynthUnit(Params);
    std::string Invalid = Unit.Program.validate(forth::opcodeSet());
    if (!Invalid.empty()) {
      std::fprintf(stderr, "fatal: synthetic program %s: %s\n",
                   Benchmark.c_str(), Invalid.c_str());
      std::abort();
    }
    BindingHash[Benchmark] = programBindingHash(Unit.Program);
    ReferenceHash[Benchmark] = synthWorkloadHash(Params);
    ReferenceSteps[Benchmark] = Params.NumEvents;
    HashFromSidecar[Benchmark] = false;
    return Units.emplace(Benchmark, std::move(Unit)).first->second;
  }
  const ForthBenchmark *Bench = nullptr;
  for (const ForthBenchmark &B : forthSuite())
    if (B.Name == Benchmark)
      Bench = &B;
  if (!Bench) {
    std::fprintf(stderr, "fatal: unknown forth benchmark %s\n",
                 Benchmark.c_str());
    std::abort();
  }
  ForthUnit Unit = compileForth(Bench->Source, Bench->Name);
  if (!Unit.ok()) {
    std::fprintf(stderr, "fatal: benchmark %s: %s\n", Benchmark.c_str(),
                 Unit.Error.c_str());
    std::abort();
  }
  // The reference run exists to produce the output hash and step count;
  // a valid meta sidecar in the trace cache stands in for it (the big
  // worker cold-start saving: compile is cheap, interpretation is not).
  // The sidecar is bound to the program we just compiled, so a changed
  // workload rejects its stale sidecar structurally; on top of that a
  // sidecar-sourced hash stays provisional — any interpretation that
  // disagrees refreshes it instead of aborting.
  uint64_t Binding = programBindingHash(Unit.Program);
  BindingHash[Benchmark] = Binding;
  WorkloadMeta Meta;
  if (loadWorkloadMeta("forth-" + Benchmark, Binding, Meta)) {
    ReferenceHash[Benchmark] = Meta.ReferenceHash;
    ReferenceSteps[Benchmark] = Meta.ReferenceSteps;
    HashFromSidecar[Benchmark] = true;
  } else {
    ForthVM VM;
    ForthVM::Result Ref = VM.run(Unit);
    ReferenceRuns.fetch_add(1, std::memory_order_relaxed);
    if (!Ref.ok()) {
      std::fprintf(stderr, "fatal: benchmark %s reference run: %s\n",
                   Benchmark.c_str(), Ref.Error.c_str());
      std::abort();
    }
    ReferenceHash[Benchmark] = Ref.OutputHash;
    ReferenceSteps[Benchmark] = Ref.Steps;
    HashFromSidecar[Benchmark] = false;
    (void)saveWorkloadMeta("forth-" + Benchmark, Binding,
                           {Ref.OutputHash, Ref.Steps}); // best-effort
  }
  return Units.emplace(Benchmark, std::move(Unit)).first->second;
}

uint64_t ForthLab::confirmedReferenceHash(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  const ForthUnit &Unit = unitLocked(Benchmark);
  if (!HashFromSidecar[Benchmark])
    return ReferenceHash[Benchmark];
  ForthVM VM;
  ForthVM::Result Ref = VM.run(Unit);
  ReferenceRuns.fetch_add(1, std::memory_order_relaxed);
  if (!Ref.ok()) {
    std::fprintf(stderr, "fatal: benchmark %s reference run: %s\n",
                 Benchmark.c_str(), Ref.Error.c_str());
    std::abort();
  }
  if (Ref.OutputHash != ReferenceHash[Benchmark]) {
    std::fprintf(stderr,
                 "warning: stale workload meta sidecar for %s; refreshed\n",
                 Benchmark.c_str());
    // Anything derived from the stale hash is derived from the wrong
    // workload: retire the in-memory training state with it.
    if (Benchmark == forthTrainingBenchmark()) {
      Training.reset();
      ResourceCache.clear();
    }
  }
  ReferenceHash[Benchmark] = Ref.OutputHash;
  ReferenceSteps[Benchmark] = Ref.Steps;
  HashFromSidecar[Benchmark] = false;
  (void)saveWorkloadMeta("forth-" + Benchmark, BindingHash[Benchmark],
                         {Ref.OutputHash, Ref.Steps});
  return Ref.OutputHash;
}

const ForthUnit &ForthLab::unit(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return unitLocked(Benchmark);
}

const SequenceProfile &ForthLab::trainingProfileLocked() {
  if (Training)
    return *Training;
  const std::string Train = forthTrainingBenchmark();
  const ForthUnit &Unit = unitLocked(Train);
  // A persisted training profile (bound to the training benchmark's
  // reference hash, so it can never outlive the workload it was
  // trained on) replaces the whole training interpretation.
  SequenceProfile Persisted;
  if (loadTrainedProfile("forth-training", ReferenceHash[Train],
                         Persisted)) {
    Training = std::make_unique<SequenceProfile>(std::move(Persisted));
    return *Training;
  }
  std::vector<uint64_t> Counts;
  ForthVM VM;
  ForthVM::Result R = VM.run(Unit, nullptr, 1ull << 33, &Counts);
  TrainingRuns.fetch_add(1, std::memory_order_relaxed);
  assert(R.ok() && "training run failed");
  // The training run doubles as hash confirmation: adopt its output if
  // the provisional sidecar value disagreed (stale sidecar).
  if (R.ok() && HashFromSidecar[Train]) {
    if (R.OutputHash != ReferenceHash[Train])
      std::fprintf(stderr,
                   "warning: stale workload meta sidecar for %s; "
                   "refreshed\n",
                   Train.c_str());
    ReferenceHash[Train] = R.OutputHash;
    ReferenceSteps[Train] = R.Steps;
    HashFromSidecar[Train] = false;
    (void)saveWorkloadMeta("forth-" + Train, BindingHash[Train],
                           {R.OutputHash, R.Steps});
  }
  Training = std::make_unique<SequenceProfile>(
      buildProfile(Unit.Program, forth::opcodeSet(), Counts));
  (void)saveTrainedProfile("forth-training", ReferenceHash[Train],
                           *Training); // best-effort
  return *Training;
}

const SequenceProfile &ForthLab::trainingProfile() {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return trainingProfileLocked();
}

const StaticResources &ForthLab::resourcesLocked(uint32_t SuperCount,
                                                 uint32_t ReplicaCount,
                                                 bool ReplicateSupers) {
  std::string Key = format("%u/%u/%d", SuperCount, ReplicaCount,
                           ReplicateSupers ? 1 : 0);
  auto It = ResourceCache.find(Key);
  if (It != ResourceCache.end())
    return It->second;
  StaticResources Res = selectStaticResources(
      trainingProfileLocked(), forth::opcodeSet(), SuperCount, ReplicaCount,
      SuperWeighting::DynamicFrequency, ReplicateSupers);
  return ResourceCache.emplace(Key, std::move(Res)).first->second;
}

const StaticResources &ForthLab::resources(uint32_t SuperCount,
                                           uint32_t ReplicaCount,
                                           bool ReplicateSupers) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return resourcesLocked(SuperCount, ReplicaCount, ReplicateSupers);
}

std::unique_ptr<DispatchProgram>
ForthLab::buildLayout(const std::string &Benchmark,
                      const VariantSpec &Variant) {
  const ForthUnit &Unit = unit(Benchmark);
  const StaticResources *Static = nullptr;
  if (usesStaticSupers(Variant.Config.Kind) ||
      usesReplicas(Variant.Config.Kind))
    Static = &resources(Variant.SuperCount, Variant.ReplicaCount,
                        Variant.ReplicateSupers);
  return DispatchBuilder::build(Unit.Program, forth::opcodeSet(),
                                Variant.Config, Static);
}

PerfCounters ForthLab::run(const std::string &Benchmark,
                           const VariantSpec &Variant,
                           const CpuConfig &Cpu) {
  return runWithPredictor(Benchmark, Variant, Cpu, nullptr);
}

PerfCounters ForthLab::runWithPredictor(
    const std::string &Benchmark, const VariantSpec &Variant,
    const CpuConfig &Cpu,
    std::unique_ptr<IndirectBranchPredictor> Predictor) {
  if (isSynthBenchmarkName(Benchmark)) {
    // The generated program is dispatch-shaped, not value-correct:
    // interpreting it would underflow stacks immediately. Every sweep
    // path replays; only explicit direct-simulation requests land
    // here, and those must fail loudly.
    std::fprintf(stderr,
                 "fatal: %s is replay-only (synthetic workloads have no "
                 "reference interpretation)\n",
                 Benchmark.c_str());
    std::abort();
  }
  const ForthUnit &Unit = unit(Benchmark);
  auto Layout = buildLayout(Benchmark, Variant);
  DispatchSim Sim(*Layout, Cpu);
  if (Predictor)
    Sim.setPredictor(std::move(Predictor));
  ForthVM VM;
  ForthVM::Result R = VM.run(Unit, &Sim);
  Sim.finish();
  // A mismatch against a provisional (sidecar-sourced) hash gets one
  // authoritative re-check before being declared a divergence.
  if (!R.ok() ||
      (R.OutputHash != referenceHash(Benchmark) &&
       R.OutputHash != confirmedReferenceHash(Benchmark))) {
    std::fprintf(stderr, "fatal: %s under %s diverged (%s)\n",
                 Benchmark.c_str(), Variant.Name.c_str(), R.Error.c_str());
    std::abort();
  }
  return Sim.counters();
}

uint64_t ForthLab::referenceHash(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  (void)unitLocked(Benchmark);
  return ReferenceHash[Benchmark];
}

uint64_t ForthLab::referenceSteps(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  (void)unitLocked(Benchmark);
  return ReferenceSteps[Benchmark];
}

const DispatchTrace &ForthLab::trace(const std::string &Benchmark) {
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    auto It = Traces.find(Benchmark);
    if (It != Traces.end())
      return It->second;
  }

  // Serialized-trace cache: a hash-verified file replaces the whole
  // interpretation. The workload hash ties the file to this program's
  // reference output, so a changed workload re-captures. A file that
  // exists but fails verification is surfaced (then re-captured) —
  // silent fallback would hide cache corruption forever.
  uint64_t WorkloadHash = referenceHash(Benchmark);
  std::string CachePath = DispatchTrace::cachePathFor("forth-" + Benchmark);
  if (!CachePath.empty()) {
    DispatchTrace Cached;
    std::string Diag;
    if (Cached.load(CachePath, WorkloadHash, &Diag)) {
      std::lock_guard<std::mutex> Lock(CacheMutex);
      return Traces.emplace(Benchmark, std::move(Cached)).first->second;
    }
    if (Diag.find("cannot open") == std::string::npos)
      std::fprintf(stderr, "warning: ignoring trace cache entry: %s\n",
                   Diag.c_str());
  }

  DispatchTrace T = captureTrace(Benchmark);
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return Traces.emplace(Benchmark, std::move(T)).first->second;
}

DispatchTrace ForthLab::captureTrace(const std::string &Benchmark) {
  uint64_t WorkloadHash = referenceHash(Benchmark);
  std::string CachePath = DispatchTrace::cachePathFor("forth-" + Benchmark);

  // Synthetic workloads are generated, never interpreted: O(events)
  // with no VM state, so a multi-hundred-million-event trace costs
  // about as much as reading one. Still outside the lock (generation
  // of a mega-trace is the slow path) and still save/best-effort, so a
  // generated trace round-trips the same file cache as captured ones.
  if (isSynthBenchmarkName(Benchmark)) {
    SynthWorkloadParams Params;
    if (!parseSynthBenchmarkName(Benchmark, Params)) {
      std::fprintf(stderr, "fatal: unparseable synthetic benchmark %s\n",
                   Benchmark.c_str());
      std::abort();
    }
    const ForthUnit &SynthUnit = unit(Benchmark);
    DispatchTrace T;
    generateSynthTrace(Params, SynthUnit.Program, T);
    if (!CachePath.empty())
      (void)T.save(CachePath, WorkloadHash); // best-effort
    return T;
  }

  // Capture outside the lock: this interprets the whole workload, and
  // holding the lab-wide mutex through it would serialize every other
  // sweep worker. Concurrent first captures of the same benchmark just
  // race to the emplace (or the file rename); the loser's trace is
  // discarded.
  const ForthUnit &Unit = unit(Benchmark);
  DispatchTrace T;
  // One event per step: the reference run already told us the size.
  T.reserve(referenceSteps(Benchmark));
  ForthVM VM;
  ForthVM::Result R =
      VM.run(Unit, nullptr, 1ull << 33, nullptr, &T);
  if (!R.ok()) {
    std::fprintf(stderr, "fatal: %s capture run failed (%s)\n",
                 Benchmark.c_str(), R.Error.c_str());
    std::abort();
  }
  if (R.OutputHash != WorkloadHash) {
    // The capture interpretation IS an authoritative reference run: if
    // the expected hash was provisional (meta sidecar), the sidecar
    // was stale — adopt the real numbers and refresh it. A mismatch
    // against a confirmed hash is a genuine divergence.
    bool Provisional;
    {
      std::lock_guard<std::mutex> Lock(CacheMutex);
      Provisional = HashFromSidecar[Benchmark];
    }
    if (!Provisional) {
      std::fprintf(stderr, "fatal: %s capture run diverged (%s)\n",
                   Benchmark.c_str(), R.Error.c_str());
      std::abort();
    }
    std::fprintf(stderr,
                 "warning: stale workload meta sidecar for %s; refreshed\n",
                 Benchmark.c_str());
    uint64_t Binding;
    {
      std::lock_guard<std::mutex> Lock(CacheMutex);
      ReferenceHash[Benchmark] = R.OutputHash;
      ReferenceSteps[Benchmark] = R.Steps;
      HashFromSidecar[Benchmark] = false;
      Binding = BindingHash[Benchmark];
      // Training state derived from the stale hash dies with it.
      if (Benchmark == forthTrainingBenchmark()) {
        Training.reset();
        ResourceCache.clear();
      }
    }
    (void)saveWorkloadMeta("forth-" + Benchmark, Binding,
                           {R.OutputHash, R.Steps});
    WorkloadHash = R.OutputHash;
  } else {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    HashFromSidecar[Benchmark] = false; // capture confirmed the sidecar
  }
  if (!CachePath.empty())
    (void)T.save(CachePath, WorkloadHash); // best-effort
  return T;
}

void ForthLab::dropTrace(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  Traces.erase(Benchmark);
}

size_t ForthLab::residentTraces() {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return Traces.size();
}

TraceSource ForthLab::traceSource(const std::string &Benchmark,
                                  TraceDecodeMode Mode) {
  return labTraceSource(*this, Benchmark, "forth-" + Benchmark, Mode);
}

PerfCounters ForthLab::replay(const std::string &Benchmark,
                              const VariantSpec &Variant,
                              const CpuConfig &Cpu) {
  auto Layout = buildLayout(Benchmark, Variant);
  return TraceReplayer::replayDefault(trace(Benchmark), *Layout,
                                      /*MutableProgram=*/nullptr, Cpu);
}

PerfCounters
ForthLab::replayWithPredictor(const std::string &Benchmark,
                              const VariantSpec &Variant,
                              const CpuConfig &Cpu,
                              IndirectBranchPredictor &Predictor) {
  auto Layout = buildLayout(Benchmark, Variant);
  return TraceReplayer::replayVirtual(trace(Benchmark), *Layout,
                                      /*MutableProgram=*/nullptr, Cpu,
                                      Predictor);
}

PerfCounters ForthLab::replayBtb(const std::string &Benchmark,
                                 const VariantSpec &Variant,
                                 const CpuConfig &Cpu,
                                 const BTBConfig &Config) {
  auto Layout = buildLayout(Benchmark, Variant);
  return TraceReplayer::replayBtb(trace(Benchmark), *Layout,
                                  /*MutableProgram=*/nullptr, Cpu, Config);
}

PerfCounters ForthLab::replayBtbPredictorOnly(
    const std::string &Benchmark, const VariantSpec &Variant,
    const CpuConfig &Cpu, const BTBConfig &Config,
    const PerfCounters &FetchBaseline) {
  auto Layout = buildLayout(Benchmark, Variant);
  return TraceReplayer::replayBtbPredictorOnly(trace(Benchmark), *Layout,
                                               Cpu, Config, FetchBaseline);
}
