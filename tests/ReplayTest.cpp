//===- tests/ReplayTest.cpp - trace capture/replay equivalence ------------===//
///
/// The contract of the trace-capture/replay pipeline: counters produced
/// by replaying a captured DispatchTrace over a layout must be
/// *bit-identical* to the counters of a direct interpretation-driven
/// DispatchSim run — for every variant (including the Fig. 6 side-entry
/// fallback of "w/static super across" and the quickening-driven layout
/// patching of the JVM), every predictor, and every CPU model. Also
/// covers concurrent replays through one lab and the trace container
/// itself.
///
//===----------------------------------------------------------------------===//

#include "harness/ForthLab.h"
#include "harness/JavaLab.h"
#include "uarch/CaseBlockTable.h"
#include "uarch/TwoLevelPredictor.h"
#include "vmcore/TraceReplayer.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

using namespace vmib;

namespace {

/// Shared labs: construction compiles and reference-runs both suites,
/// so do it once per test binary.
ForthLab &forthLab() {
  static ForthLab Lab;
  return Lab;
}
JavaLab &javaLab() {
  static JavaLab Lab;
  return Lab;
}

void expectEqualCounters(const PerfCounters &Direct,
                         const PerfCounters &Replayed,
                         const std::string &What) {
  EXPECT_EQ(Direct.Cycles, Replayed.Cycles) << What;
  EXPECT_EQ(Direct.Instructions, Replayed.Instructions) << What;
  EXPECT_EQ(Direct.VMInstructions, Replayed.VMInstructions) << What;
  EXPECT_EQ(Direct.IndirectBranches, Replayed.IndirectBranches) << What;
  EXPECT_EQ(Direct.Mispredictions, Replayed.Mispredictions) << What;
  EXPECT_EQ(Direct.ICacheMisses, Replayed.ICacheMisses) << What;
  EXPECT_EQ(Direct.MissCycles, Replayed.MissCycles) << What;
  EXPECT_EQ(Direct.CodeBytes, Replayed.CodeBytes) << What;
  EXPECT_EQ(Direct.DispatchCount, Replayed.DispatchCount) << What;
}

} // namespace

TEST(DispatchTrace, PackRoundTrip) {
  EXPECT_EQ(DispatchTrace::cur(DispatchTrace::pack(7, 12)), 7u);
  EXPECT_EQ(DispatchTrace::next(DispatchTrace::pack(7, 12)), 12u);
  EXPECT_EQ(DispatchTrace::next(DispatchTrace::pack(1, 0xffffffffu)),
            0xffffffffu);
  EXPECT_EQ(DispatchTrace::cur(DispatchTrace::pack(0xfffffffeu, 3)),
            0xfffffffeu);
}

TEST(DispatchTrace, ArenaClearKeepsCapacity) {
  DispatchTrace T;
  for (uint32_t I = 0; I < 1000; ++I)
    T.append(I, I + 1);
  T.appendQuicken(5, VMInstr{1, 2, 3});
  EXPECT_EQ(T.numEvents(), 1000u);
  EXPECT_EQ(T.numQuickens(), 1u);
  EXPECT_EQ(T.quickens()[0].AfterEvents, 1000u);
  uint64_t Bytes = T.memoryBytes();
  EXPECT_GE(Bytes, 8000u);
  T.clear();
  EXPECT_TRUE(T.empty());
  EXPECT_EQ(T.numQuickens(), 0u);
  // clear() is an arena reset: capacity survives for the next capture.
  EXPECT_EQ(T.memoryBytes(), Bytes);
}

TEST(ReplayEquivalence, ForthAllVariantsBitIdentical) {
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  for (const std::string &Bench : {std::string("gray"),
                                   std::string("vmgen")}) {
    for (const VariantSpec &V : gforthVariants()) {
      expectEqualCounters(Lab.run(Bench, V, P4), Lab.replay(Bench, V, P4),
                          Bench + "/" + V.Name + "/P4");
    }
    VariantSpec Switch = makeVariant(DispatchStrategy::Switch);
    expectEqualCounters(Lab.run(Bench, Switch, P4),
                        Lab.replay(Bench, Switch, P4), Bench + "/switch");
  }
}

TEST(ReplayEquivalence, ForthCeleronBitIdentical) {
  // A second CPU model: different BTB/I-cache geometry and penalties.
  ForthLab &Lab = forthLab();
  CpuConfig Cel = makeCeleron800();
  for (DispatchStrategy K :
       {DispatchStrategy::Threaded, DispatchStrategy::DynamicSuper,
        DispatchStrategy::WithStaticSuper}) {
    VariantSpec V = makeVariant(K);
    expectEqualCounters(Lab.run("cross", V, Cel),
                        Lab.replay("cross", V, Cel),
                        std::string("cross/") + V.Name + "/celeron");
  }
}

TEST(ReplayEquivalence, JavaAllVariantsBitIdentical) {
  // Includes quickening-driven layout patching on every variant and the
  // Fig. 6 side-entry fallback path of "w/static super across".
  JavaLab &Lab = javaLab();
  CpuConfig P4 = makePentium4Northwood();
  for (const std::string &Bench : {std::string("jess"),
                                   std::string("javac")}) {
    for (const VariantSpec &V : jvmVariants()) {
      expectEqualCounters(Lab.run(Bench, V, P4), Lab.replay(Bench, V, P4),
                          Bench + "/" + V.Name);
    }
  }
}

TEST(ReplayEquivalence, FullSuitesBitIdentical) {
  // Every benchmark of both suites, plain threaded plus a replicating
  // variant (the all-variant matrices run on representative benchmarks
  // above; this closes the per-benchmark gap).
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  VariantSpec DynBoth = makeVariant(DispatchStrategy::DynamicBoth);

  ForthLab &FLab = forthLab();
  for (const ForthBenchmark &B : forthSuite())
    for (const VariantSpec &V : {Threaded, DynBoth})
      expectEqualCounters(FLab.run(B.Name, V, P4),
                          FLab.replay(B.Name, V, P4),
                          "forth-suite/" + B.Name + "/" + V.Name);

  JavaLab &JLab = javaLab();
  for (const JavaBenchmark &B : javaSuite())
    for (const VariantSpec &V : {Threaded, DynBoth})
      expectEqualCounters(JLab.run(B.Name, V, P4),
                          JLab.replay(B.Name, V, P4),
                          "java-suite/" + B.Name + "/" + V.Name);
}

TEST(ReplayEquivalence, JavaTraceRecordsQuickenings) {
  JavaLab &Lab = javaLab();
  const DispatchTrace &T = Lab.trace("jess");
  EXPECT_GT(T.numEvents(), 0u);
  // Table VII: jess quickens 35 instructions.
  EXPECT_EQ(T.numQuickens(), 35u);
  // Quicken positions are monotonically non-decreasing event indices.
  uint64_t Last = 0;
  for (const DispatchTrace::QuickenRecord &Q : T.quickens()) {
    EXPECT_GE(Q.AfterEvents, Last);
    Last = Q.AfterEvents;
  }
}

TEST(ReplayEquivalence, DevirtualizedPredictorsMatchVirtualPath) {
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  VariantSpec Switch = makeVariant(DispatchStrategy::Switch);

  // Two-level predictor: direct run vs devirtualized vs virtual replay.
  TwoLevelConfig TL;
  PerfCounters Direct = Lab.runWithPredictor(
      "gray", Threaded, P4, std::make_unique<TwoLevelPredictor>(TL));
  TwoLevelPredictor Devirt(TL);
  expectEqualCounters(Direct,
                      Lab.replayWith("gray", Threaded, P4, Devirt),
                      "two-level devirtualized");
  TwoLevelPredictor Virt(TL);
  expectEqualCounters(Direct,
                      Lab.replayWithPredictor("gray", Threaded, P4, Virt),
                      "two-level virtual replay");

  // Case block table under switch dispatch (hint-indexed).
  PerfCounters CbtDirect = Lab.runWithPredictor(
      "gray", Switch, P4, std::make_unique<CaseBlockTable>(4096));
  CaseBlockTable Cbt(4096);
  expectEqualCounters(CbtDirect, Lab.replayWith("gray", Switch, P4, Cbt),
                      "case-block devirtualized");
}

TEST(ReplayEquivalence, BtbFastPathAndOverflowFallbackBitIdentical) {
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);

  // Default-size BTB: the no-evict fast path never overflows here.
  expectEqualCounters(
      Lab.runWithPredictor("gray", Threaded, P4,
                           std::make_unique<BTB>(P4.Btb)),
      Lab.replayBtb("gray", Threaded, P4, P4.Btb), "replayBtb default");

  // Tiny BTB: sets overflow, forcing the exact-LRU fallback rerun.
  BTBConfig Tiny;
  Tiny.Entries = 64;
  Tiny.Ways = 4;
  expectEqualCounters(Lab.runWithPredictor("gray", Threaded, P4,
                                           std::make_unique<BTB>(Tiny)),
                      Lab.replayBtb("gray", Threaded, P4, Tiny),
                      "replayBtb tiny/overflow fallback");

  // Two-bit counters ride the no-evict fast path too.
  BTBConfig TwoBit = P4.Btb;
  TwoBit.TwoBitCounters = true;
  expectEqualCounters(Lab.runWithPredictor("gray", Threaded, P4,
                                           std::make_unique<BTB>(TwoBit)),
                      Lab.replayBtb("gray", Threaded, P4, TwoBit),
                      "replayBtb two-bit");

  // Celeron: small I-cache plus code growth exercises the I-cache
  // overflow fallback inside replay() on a replicating variant.
  CpuConfig Cel = makeCeleron800();
  VariantSpec DynBoth = makeVariant(DispatchStrategy::DynamicBoth);
  expectEqualCounters(Lab.run("bench-gc", DynBoth, Cel),
                      Lab.replay("bench-gc", DynBoth, Cel),
                      "celeron icache overflow fallback");
}

TEST(ReplayEquivalence, PredictorOnlyReplayBitIdentical) {
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  VariantSpec Switch = makeVariant(DispatchStrategy::Switch);

  PerfCounters Baseline = Lab.replay("gray", Threaded, P4);
  TwoLevelConfig TL;
  TwoLevelPredictor TwoLevel(TL);
  expectEqualCounters(
      Lab.runWithPredictor("gray", Threaded, P4,
                           std::make_unique<TwoLevelPredictor>(TL)),
      Lab.replayPredictorOnly("gray", Threaded, P4, TwoLevel, Baseline),
      "predictor-only two-level");

  PerfCounters SwitchBaseline = Lab.replay("gray", Switch, P4);
  CaseBlockTable Cbt(4096);
  expectEqualCounters(
      Lab.runWithPredictor("gray", Switch, P4,
                           std::make_unique<CaseBlockTable>(4096)),
      Lab.replayPredictorOnly("gray", Switch, P4, Cbt, SwitchBaseline),
      "predictor-only case-block");
}

TEST(ReplayEquivalence, OracleAndNullBaselinesBound) {
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);

  PerfCounters Btb = Lab.replay("gray", Threaded, P4);

  PerfectPredictor Oracle;
  PerfCounters Best = Lab.replayWith("gray", Threaded, P4, Oracle);
  EXPECT_EQ(Best.Mispredictions, 0u);

  NullPredictor None;
  PerfCounters Worst = Lab.replayWith("gray", Threaded, P4, None);
  EXPECT_EQ(Worst.Mispredictions, Worst.DispatchCount);

  // Same event stream, only prediction outcomes differ.
  EXPECT_EQ(Best.DispatchCount, Btb.DispatchCount);
  EXPECT_EQ(Worst.DispatchCount, Btb.DispatchCount);
  EXPECT_LE(Best.Cycles, Btb.Cycles);
  EXPECT_GE(Worst.Cycles, Btb.Cycles);
  EXPECT_GE(Btb.Mispredictions, Best.Mispredictions);
  EXPECT_LE(Btb.Mispredictions, Worst.Mispredictions);
}

namespace {

/// Counts dispatched events seen by the replay kernel.
struct DispatchCountingObserver {
  uint64_t *Dispatches;
  bool active() const { return true; }
  void operator()(const TraceEvent &E) const {
    if (E.Dispatched)
      ++*Dispatches;
  }
};

} // namespace

TEST(ReplayEquivalence, ReplayObserverSeesEveryDispatch) {
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec V = makeVariant(DispatchStrategy::Threaded);
  auto Layout = Lab.buildLayout("gray", V);
  uint64_t Dispatches = 0;
  BTB Predictor(P4.Btb);
  PerfCounters C = TraceReplayer::replay(
      Lab.trace("gray"), *Layout, nullptr, P4, Predictor,
      DispatchCountingObserver{&Dispatches});
  EXPECT_EQ(Dispatches, C.DispatchCount);
}

TEST(ReplayEquivalence, ParallelSweepMatchesSerialReplays) {
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  std::vector<VariantSpec> Variants = gforthVariants();

  std::vector<PerfCounters> Serial;
  for (const VariantSpec &V : Variants)
    Serial.push_back(Lab.replay("cross", V, P4));

  // Concurrent replays share only the lab's mutex-guarded caches
  // (pipelineSweep relies on this): four threads, strided over the
  // variants.
  constexpr size_t Threads = 4;
  std::vector<PerfCounters> Parallel(Variants.size());
  std::vector<std::thread> Pool;
  for (size_t T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (size_t I = T; I < Variants.size(); I += Threads)
        Parallel[I] = Lab.replay("cross", Variants[I], P4);
    });
  for (std::thread &Th : Pool)
    Th.join();

  ASSERT_EQ(Serial.size(), Parallel.size());
  for (size_t I = 0; I < Serial.size(); ++I)
    expectEqualCounters(Serial[I], Parallel[I],
                        "parallel/" + Variants[I].Name);
}
