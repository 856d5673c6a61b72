//===- tests/HarnessTest.cpp - harness and realdispatch tests -------------===//

#include "harness/Baselines.h"
#include "harness/Figures.h"
#include "harness/ForthLab.h"
#include "harness/Variants.h"
#include "realdispatch/RealDispatch.h"

#include <gtest/gtest.h>

using namespace vmib;

TEST(Variants, GforthMatrixMatchesPaper) {
  auto V = gforthVariants();
  ASSERT_EQ(V.size(), 9u); // §7.1 lists nine variants
  EXPECT_EQ(V.front().Name, "plain");
  EXPECT_EQ(V.back().Name, "with static super");
  // Static both: 35 supers + 365 replicas = 400 additional instructions.
  for (const VariantSpec &S : V) {
    if (S.Config.Kind == DispatchStrategy::StaticBoth) {
      EXPECT_EQ(S.SuperCount + S.ReplicaCount, 400u);
    }
  }
}

TEST(Variants, JvmMatrixMatchesPaper) {
  auto V = jvmVariants();
  ASSERT_EQ(V.size(), 9u);
  // §7.1: identical to Gforth's except no "static both", plus
  // "w/static super across".
  for (const VariantSpec &S : V)
    EXPECT_NE(S.Config.Kind, DispatchStrategy::StaticBoth);
  EXPECT_EQ(V.back().Name, "w/static super across");
}

TEST(Variants, SameRecipeIgnoresOnlyTheName) {
  // The Java gang takes its overhead basis from any variant whose
  // recipe equals the plain-threaded one, so every field that shapes
  // the layout must count and the display name must not.
  const VariantSpec Plain = makeVariant(DispatchStrategy::Threaded);
  VariantSpec Renamed = Plain;
  Renamed.Name = "plain, renamed";
  EXPECT_TRUE(sameRecipe(Plain, Renamed));
  std::vector<VariantSpec> Changed(9, Plain);
  Changed[0].Config.Kind = DispatchStrategy::Switch;
  Changed[1].Config.ReplicaCount += 1;
  Changed[2].Config.SuperCount += 1;
  Changed[3].Config.Policy = ReplicaPolicy::Random;
  Changed[4].Config.Parse = ParsePolicy::Optimal;
  Changed[5].Config.Seed += 1;
  Changed[6].SuperCount += 1;
  Changed[7].ReplicaCount += 1;
  Changed[8].ReplicateSupers = !Plain.ReplicateSupers;
  for (size_t I = 0; I < Changed.size(); ++I)
    EXPECT_FALSE(sameRecipe(Plain, Changed[I])) << "field " << I;
}

TEST(Figures, SpeedupMatrixMath) {
  SpeedupMatrix M;
  M.Benchmarks = {"b"};
  M.Variants = {"plain", "fast"};
  PerfCounters Plain, Fast;
  Plain.Cycles = 1000;
  Fast.Cycles = 250;
  M.Counters["b"]["plain"] = Plain;
  M.Counters["b"]["fast"] = Fast;
  EXPECT_DOUBLE_EQ(M.speedup("b", "fast"), 4.0);
  std::string Render = M.renderSpeedups("t");
  EXPECT_NE(Render.find("4.00"), std::string::npos);
  std::string Bars = M.renderCounterBars("t", "b");
  EXPECT_NE(Bars.find("fast"), std::string::npos);
}

TEST(Baselines, NativeProxiesAreFasterThanInterpreters) {
  PerfCounters Plain;
  Plain.Instructions = 1000000;
  Plain.DispatchCount = 150000;
  Plain.Mispredictions = 90000;
  CpuConfig Cpu = makePentium4Northwood();
  finalizeCycles(Cpu, Plain);
  uint64_t Big = baselineCycles(Plain, Cpu, bigForthProxy());
  uint64_t Ifo = baselineCycles(Plain, Cpu, iForthProxy());
  uint64_t KaffeInt = baselineCycles(Plain, Cpu, kaffeInterpreterProxy());
  EXPECT_LT(Big, Plain.Cycles);
  EXPECT_LT(Big, Ifo);           // bigForth compiles harder
  EXPECT_GT(KaffeInt, Plain.Cycles); // naive interpreter is slower
}

TEST(Baselines, LabRunsAreDeterministic) {
  ForthLab Lab;
  CpuConfig Cpu = makeCeleron800();
  VariantSpec V = makeVariant(DispatchStrategy::DynamicBoth);
  PerfCounters A = Lab.run("gray", V, Cpu);
  PerfCounters B = Lab.run("gray", V, Cpu);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Mispredictions, B.Mispredictions);
  EXPECT_EQ(A.ICacheMisses, B.ICacheMisses);
}

//===----------------------------------------------------------------------===//
// Real dispatch kernels (host CPU)
//===----------------------------------------------------------------------===//

class RealDispatchTest : public ::testing::TestWithParam<int> {};

TEST_P(RealDispatchTest, KernelsAgree) {
  using namespace realdispatch;
  RealProgram P = makeRealWorkload(static_cast<uint32_t>(GetParam()), 7);
  int64_t S = runSwitchInterp(P, 10);
  int64_t T = runThreadedInterp(P, 10);
  int64_t U = runSuperInterp(P, 10);
  EXPECT_EQ(S, T);
  EXPECT_EQ(S, U);
}

INSTANTIATE_TEST_SUITE_P(BodySizes, RealDispatchTest,
                         ::testing::Values(8, 16, 64, 256, 1024));

TEST(RealDispatch, FusionShortensPrograms) {
  using namespace realdispatch;
  RealProgram P = makeRealWorkload(256, 7);
  RealProgram F = fuseSuperinstructions(P);
  EXPECT_LT(F.Code.size(), P.Code.size());
}

TEST(RealDispatch, WorkloadIsDeterministic) {
  using namespace realdispatch;
  RealProgram A = makeRealWorkload(128, 3);
  RealProgram B = makeRealWorkload(128, 3);
  EXPECT_EQ(A.Code, B.Code);
  RealProgram C = makeRealWorkload(128, 4);
  EXPECT_NE(A.Code, C.Code);
}
