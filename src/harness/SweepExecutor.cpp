//===- harness/SweepExecutor.cpp ------------------------------------------===//

#include "harness/SweepExecutor.h"

#include "harness/Auditor.h"
#include "harness/SweepRunner.h"
#include "harness/WorkloadCache.h"
#include "support/Statistics.h"
#include "uarch/CaseBlockTable.h"
#include "uarch/CpuModel.h"
#include "uarch/TwoLevelPredictor.h"

#include <atomic>
#include <cassert>
#include <map>
#include <mutex>
#include <thread>

using namespace vmib;

namespace {

/// Whether this run's gangs produce measured per-member costs worth
/// persisting (the dynamic scheduler on a real pool).
bool dynamicPooled(const SweepSpec &Spec) {
  return Spec.Schedule == GangSchedule::Dynamic &&
         resolveGangThreads(Spec.Threads) > 1;
}

/// Loads the persisted cost table of \p TraceKey into a by-key map.
std::map<uint64_t, uint64_t> loadCostMap(const std::string &TraceKey,
                                         uint64_t TraceHash) {
  std::map<uint64_t, uint64_t> Map;
  std::vector<MemberCost> Persisted;
  if (loadMemberCosts(TraceKey, TraceHash, Persisted))
    for (const MemberCost &C : Persisted)
      Map[C.MemberKey] = C.CostNs;
  return Map;
}

/// Folds \p Final (per gang-member measured EWMAs; 0 = unmeasured)
/// back into \p Map under each member's config key and persists the
/// merged table (best-effort, like every sidecar write).
void saveCostMap(const SweepSpec &Spec, const std::vector<size_t> &Members,
                 const std::vector<uint64_t> &Final,
                 std::map<uint64_t, uint64_t> &Map,
                 const std::string &TraceKey, uint64_t TraceHash) {
  bool Changed = false;
  for (size_t K = 0; K < Members.size() && K < Final.size(); ++K) {
    if (Final[K] == 0)
      continue;
    Map[memberCostKey(Spec, Members[K])] = Final[K];
    Changed = true;
  }
  if (!Changed)
    return;
  std::vector<MemberCost> ToSave;
  ToSave.reserve(Map.size());
  for (const auto &[Key, Ns] : Map)
    ToSave.push_back({Key, Ns});
  (void)saveMemberCosts(TraceKey, TraceHash, ToSave);
}

} // namespace

unsigned vmib::resolveGangThreads(unsigned SpecThreads) {
  if (SpecThreads != 0)
    return SpecThreads;
  unsigned H = std::thread::hardware_concurrency();
  return H != 0 ? H : 1;
}

ForthLab &SweepExecutor::forth() {
  if (ForthRef)
    return *ForthRef;
  if (!OwnedForth)
    OwnedForth = std::make_unique<ForthLab>();
  return *OwnedForth;
}

JavaLab &SweepExecutor::java() {
  if (JavaRef)
    return *JavaRef;
  if (!OwnedJava)
    OwnedJava = std::make_unique<JavaLab>();
  return *OwnedJava;
}

std::vector<PerfCounters>
SweepExecutor::runForthSlice(const SweepSpec &Spec, size_t Workload,
                             const std::vector<size_t> &Members,
                             GangReplayer::Stats *LoadOut) {
  ForthLab &Lab = forth();
  const std::string &Benchmark = Spec.Benchmarks[Workload];
  // The spec's decode mode picks the replay input: a materialized
  // in-memory trace or an O(tile) streaming view of the cache file.
  // Cells are bit-identical either way.
  TraceSource Source = Lab.traceSource(Benchmark, Spec.Decode);
  GangReplayer Gang(Source, Spec.ChunkEvents);
  // One layout per variant, shared across the slice's members: members
  // of the same variant then share a GroupDecoder (SoA tile decode),
  // and the layout is built once instead of once per predictor point.
  std::map<size_t, std::shared_ptr<DispatchProgram>> Layouts;
  for (size_t M : Members) {
    size_t CpuIdx, VarIdx, PredIdx;
    Spec.decodeMember(M, CpuIdx, VarIdx, PredIdx);
    CpuConfig Cpu;
    bool Known = cpuConfigById(Spec.Cpus[CpuIdx], Cpu);
    assert(Known && "validateSweepSpec admits only known cpu ids");
    (void)Known;
    auto It = Layouts.find(VarIdx);
    if (It == Layouts.end())
      It = Layouts
               .emplace(VarIdx, std::shared_ptr<DispatchProgram>(
                                    Lab.buildLayout(Benchmark,
                                                    Spec.Variants[VarIdx])))
               .first;
    const PredictorGeometry G = Spec.Predictors.empty()
                                    ? PredictorGeometry()
                                    : Spec.Predictors[PredIdx];
    switch (G.PredKind) {
    case PredictorGeometry::Kind::Default:
      Gang.addDefault(It->second, Cpu);
      break;
    case PredictorGeometry::Kind::Btb:
      Gang.addBtb(It->second, Cpu, G.Btb);
      break;
    case PredictorGeometry::Kind::TwoLevel:
      Gang.addPredictor(It->second, Cpu, TwoLevelPredictor(G.TwoLevel));
      break;
    case PredictorGeometry::Kind::CaseBlock:
      Gang.addPredictor(It->second, Cpu, CaseBlockTable(G.CaseBlockEntries));
      break;
    }
  }
  // Persisted dynamic-scheduler costs: seed each gang member's EWMA
  // from the trace's cost sidecar so even tile 0 plans cost-weighted.
  const bool PersistCosts = dynamicPooled(Spec);
  const std::string TraceKey = "forth-" + Benchmark;
  std::map<uint64_t, uint64_t> CostMap;
  if (PersistCosts) {
    CostMap = loadCostMap(TraceKey, Source.contentHash());
    for (size_t K = 0; K < Members.size(); ++K) {
      auto It = CostMap.find(memberCostKey(Spec, Members[K]));
      if (It != CostMap.end() && It->second != 0)
        Gang.seedMemberCost(K, It->second);
    }
  }
  // Only wire the stats through when the caller wants them: a non-null
  // StatsOut makes every static (member, tile) execution pay two clock
  // reads (see GangReplayer's Timed gate), which a --worker process
  // with no consumer should not fund.
  GangReplayer::Stats GangLoad;
  std::vector<PerfCounters> Out =
      Gang.run(resolveGangThreads(Spec.Threads), Spec.Schedule,
               LoadOut ? &GangLoad : nullptr);
  if (LoadOut)
    LoadOut->merge(GangLoad);
  if (PersistCosts)
    saveCostMap(Spec, Members, Gang.finalCosts(), CostMap, TraceKey,
                Source.contentHash());
  return Out;
}

std::vector<PerfCounters>
SweepExecutor::runJavaSlice(const SweepSpec &Spec, size_t Workload,
                            const std::vector<size_t> &Members,
                            GangReplayer::Stats *LoadOut) {
  JavaLab &Lab = java();
  const std::string &Benchmark = Spec.Benchmarks[Workload];
  // Java members are quickening replays on the CPU's default BTB
  // (validateSweepSpec enforces a single Default predictor entry), so
  // the member order is CPU-major runs of the variant list: group the
  // slice's members by CPU (the list is ascending, so groups come out
  // in member order) and gang-replay each CPU's variant subset. A
  // member's counters do not depend on its gang's other members, so
  // slicing cannot change any cell.
  assert(Spec.Predictors.size() <= 1 &&
         "validateSweepSpec caps java specs at one predictor entry");
  const bool PersistCosts = dynamicPooled(Spec);
  const std::string TraceKey = "java-" + Benchmark;
  std::map<uint64_t, uint64_t> CostMap;
  uint64_t TraceHash = 0;
  if (PersistCosts) {
    // traceSource avoids materializing a streamed trace just for its
    // hash (the streaming view carries the verified header's value).
    TraceHash = Lab.traceSource(Benchmark, Spec.Decode).contentHash();
    CostMap = loadCostMap(TraceKey, TraceHash);
  }
  std::vector<PerfCounters> Out;
  size_t V = Spec.Variants.size();
  size_t Pos = 0;
  while (Pos < Members.size()) {
    size_t CpuIdx = Members[Pos] / V;
    size_t GroupEnd = Pos;
    while (GroupEnd < Members.size() && Members[GroupEnd] / V == CpuIdx)
      ++GroupEnd;
    CpuConfig Cpu;
    bool Known = cpuConfigById(Spec.Cpus[CpuIdx], Cpu);
    assert(Known && "validateSweepSpec admits only known cpu ids");
    (void)Known;
    std::vector<VariantSpec> Subset;
    std::vector<uint64_t> SeedNs(GroupEnd - Pos, 0);
    Subset.reserve(GroupEnd - Pos);
    for (size_t K = Pos; K < GroupEnd; ++K) {
      Subset.push_back(Spec.Variants[Members[K] % V]);
      if (PersistCosts) {
        auto It = CostMap.find(memberCostKey(Spec, Members[K]));
        if (It != CostMap.end())
          SeedNs[K - Pos] = It->second;
      }
    }
    GangReplayer::Stats GangLoad;
    std::vector<uint64_t> FinalNs;
    std::vector<PerfCounters> Row =
        Lab.replayGang(Benchmark, Subset, Cpu,
                       resolveGangThreads(Spec.Threads), Spec.Schedule,
                       LoadOut ? &GangLoad : nullptr,
                       PersistCosts ? &SeedNs : nullptr,
                       PersistCosts ? &FinalNs : nullptr, Spec.Decode);
    if (LoadOut)
      LoadOut->merge(GangLoad);
    if (PersistCosts && !FinalNs.empty()) {
      std::vector<size_t> GroupMembers(Members.begin() + Pos,
                                       Members.begin() + GroupEnd);
      saveCostMap(Spec, GroupMembers, FinalNs, CostMap, TraceKey, TraceHash);
    }
    Out.insert(Out.end(), Row.begin(), Row.end());
    Pos = GroupEnd;
  }
  return Out;
}

std::vector<PerfCounters> SweepExecutor::runSlice(const SweepSpec &Spec,
                                                  size_t Workload,
                                                  size_t MemberBegin,
                                                  size_t MemberEnd,
                                                  GangReplayer::Stats
                                                      *LoadOut,
                                                  size_t *ComputedOut) {
  assert(Workload < Spec.Benchmarks.size() &&
         MemberEnd <= Spec.membersPerWorkload() &&
         MemberBegin <= MemberEnd && "slice out of range");
  std::vector<PerfCounters> Out(MemberEnd - MemberBegin);
  std::vector<size_t> Missing;
  std::vector<size_t> MissSlot;  ///< Out index of each missing member
  std::vector<StoreKey> MissKey; ///< store key of each missing member
  const bool UseStore = Store && Store->isOpen();
  if (UseStore) {
    // The store key needs the trace *content* hash. Peek it from the
    // cached trace file header when one exists (no load, no capture);
    // otherwise fall back to the lab's trace — which a miss needs
    // loaded anyway, and which a fully-hit slice only pays when its
    // trace file has vanished (re-capture reproduces the same content
    // hash, so the hits still apply).
    const std::string &B = Spec.Benchmarks[Workload];
    uint64_t TraceHash = 0;
    if (!DispatchTrace::peekContentHash(
            DispatchTrace::cachePathFor(Spec.Suite + "-" + B), TraceHash))
      TraceHash = Spec.Suite == "java" ? java().trace(B).contentHash()
                                       : forth().trace(B).contentHash();
    for (size_t M = MemberBegin; M < MemberEnd; ++M) {
      StoreKey Key = cellStoreKey(Spec, M, TraceHash);
      PerfCounters C;
      if (Store->lookup(Key, C)) {
        Out[M - MemberBegin] = C;
      } else {
        Missing.push_back(M);
        MissSlot.push_back(M - MemberBegin);
        MissKey.push_back(Key);
      }
    }
  } else {
    Missing.reserve(MemberEnd - MemberBegin);
    for (size_t M = MemberBegin; M < MemberEnd; ++M) {
      Missing.push_back(M);
      MissSlot.push_back(M - MemberBegin);
    }
  }
  if (ComputedOut)
    *ComputedOut = Missing.size();
  if (Missing.empty())
    return Out;

  std::vector<PerfCounters> Fresh =
      Spec.Suite == "java"
          ? runJavaSlice(Spec, Workload, Missing, LoadOut)
          : runForthSlice(Spec, Workload, Missing, LoadOut);
  assert(Fresh.size() == Missing.size() && "slice runner covers its members");
  for (size_t K = 0; K < Missing.size(); ++K) {
    // Injected compute corruption lands here — after the replay, before
    // the value is returned OR committed — so the store faithfully
    // persists what the (faulted) compute path produced, exactly the
    // silent-corruption scenario the audit layer exists to catch.
    if (Faults.FlipCounter > 0) {
      unsigned Word = 0, Bit = 0;
      if (decideCounterFlip(Faults, Workload, Missing[K], Word, Bit))
        Fresh[K].flipBit(Word, Bit);
    }
    Out[MissSlot[K]] = Fresh[K];
    if (UseStore)
      Store->record(MissKey[K], Fresh[K]);
  }
  // Durable before returned: the caller (a worker about to emit rows,
  // an in-process sweep about to report cells) must never announce a
  // result the store would lose to a crash.
  if (UseStore)
    (void)Store->flush();
  return Out;
}

std::vector<PerfCounters>
SweepExecutor::replayMembersDirect(const SweepSpec &Spec, size_t Workload,
                                   const std::vector<size_t> &Members) {
  // Deliberately bypasses the store (whose shape-free key would
  // re-serve the very value under audit) and the flip injection (whose
  // cell-keyed draw would reproduce the primary's corruption and mask
  // it): the only inputs are the trace and the spec.
  return Spec.Suite == "java"
             ? runJavaSlice(Spec, Workload, Members, nullptr)
             : runForthSlice(Spec, Workload, Members, nullptr);
}

SweepRunStats SweepExecutor::runAll(const SweepSpec &Spec, unsigned Threads,
                                    std::vector<PerfCounters> &Cells) {
  if (Threads == 0)
    Threads = defaultSweepThreads();
  // Two-level thread budget: every gang spawns GangThreads replay
  // workers of its own, so shrink the pipeline pool to keep the total
  // thread count roughly constant — otherwise --threads=4 on a 4-core
  // host would run ~cores × 5 busy threads and get slower, not faster.
  unsigned GangThreads = resolveGangThreads(Spec.Threads);
  if (GangThreads > 1)
    Threads = Threads / GangThreads > 1 ? Threads / GangThreads : 1;
  size_t W = Spec.Benchmarks.size();
  size_t M = Spec.membersPerWorkload();

  SweepRunStats Stats;
  Stats.Configs = Spec.numCells();
  double CaptureBusy = 0; // producer thread only; no lock needed
  std::atomic<uint64_t> Events{0};
  std::mutex LoadMutex; // replay jobs may run on several pipeline workers
  std::vector<std::vector<PerfCounters>> Rows(W);

  WallTimer PipelineTimer;
  pipelineSweep(
      W, Threads,
      [&](size_t I) {
        WallTimer T;
        const std::string &B = Spec.Benchmarks[I];
        for (const std::string &CpuId : Spec.Cpus) {
          CpuConfig Cpu;
          if (!cpuConfigById(CpuId, Cpu))
            continue;
          // Per-CPU warmup: the Java runtime-overhead basis is a
          // (benchmark, CPU) cache; the trace/profile warmups behind it
          // are idempotent.
          if (Spec.Suite == "java")
            java().warmup(B, Cpu, Spec.Decode);
          else
            forth().warmup(B, Cpu, Spec.Decode);
        }
        CaptureBusy += T.seconds();
      },
      [&](size_t I) {
        const std::string &B = Spec.Benchmarks[I];
        // referenceSteps == trace events, and never materializes — a
        // streaming sweep must not pin the event arena just to count.
        uint64_t N = Spec.Suite == "java" ? java().referenceSteps(B)
                                          : forth().referenceSteps(B);
        GangReplayer::Stats GangLoad;
        size_t Computed = 0;
        Rows[I] = runSlice(Spec, I, 0, M, &GangLoad, &Computed);
        // Every replayed member rides the whole trace once; cells the
        // store served cost no replay and count nothing.
        Events.fetch_add(N * Computed, std::memory_order_relaxed);
        std::lock_guard<std::mutex> Lock(LoadMutex);
        Stats.Load.merge(GangLoad);
      });
  Stats.ReplaySeconds = PipelineTimer.seconds();
  Stats.CaptureSeconds = CaptureBusy;
  Stats.ReplayedEvents = Events.load();

  // Audit after the pipeline has fully drained, one workload at a
  // time: the Auditor is not thread-safe. Rows are repaired in place,
  // so the scatter below publishes the post-audit (authoritative)
  // cells.
  if (Audit && Audit->plan().enabled())
    for (size_t I = 0; I < W; ++I)
      Audit->auditSlice(Spec, I, 0, M, Rows[I]);

  Cells.assign(Spec.numCells(), PerfCounters());
  for (size_t I = 0; I < W; ++I)
    for (size_t J = 0; J < M; ++J)
      Cells[Spec.cellIndex(I, J)] = Rows[I][J];
  return Stats;
}
