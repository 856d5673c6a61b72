//===- tests/StrategyPropertyTest.cpp - cross-strategy properties ---------===//
///
/// Property-style sweeps over (dispatch strategy x real benchmark):
/// structural invariants every layout must satisfy, cost-model
/// relations the paper asserts, and robustness of the front ends
/// against malformed input.
///
//===----------------------------------------------------------------------===//

#include "forthvm/ForthCompiler.h"
#include "harness/ForthLab.h"
#include "support/Random.h"
#include "vmcore/CostModel.h"
#include "vmcore/DispatchBuilder.h"

#include <gtest/gtest.h>

#include <set>

using namespace vmib;

namespace {

std::string safeName(DispatchStrategy Kind) {
  std::string Name = strategyName(Kind);
  for (char &C : Name)
    if (C == ' ' || C == '/')
      C = '_';
  return Name;
}

const DispatchStrategy AllStrategies[] = {
    DispatchStrategy::Switch,        DispatchStrategy::Threaded,
    DispatchStrategy::StaticRepl,    DispatchStrategy::StaticSuper,
    DispatchStrategy::StaticBoth,    DispatchStrategy::DynamicRepl,
    DispatchStrategy::DynamicSuper,  DispatchStrategy::DynamicBoth,
    DispatchStrategy::AcrossBB,      DispatchStrategy::WithStaticSuper,
    DispatchStrategy::WithStaticSuperAcross,
};

} // namespace

//===----------------------------------------------------------------------===//
// Layout invariants for every strategy over every Forth benchmark
//===----------------------------------------------------------------------===//

class LayoutInvariants
    : public ::testing::TestWithParam<
          std::tuple<DispatchStrategy, const char *>> {};

TEST_P(LayoutInvariants, StructurallySound) {
  auto [Kind, BenchName] = GetParam();
  const OpcodeSet &Set = forth::opcodeSet();
  const ForthBenchmark &B = forthBenchmark(BenchName);
  ForthUnit Unit = compileForth(B.Source, B.Name);
  ASSERT_TRUE(Unit.ok());

  // Light static resources so every strategy can build.
  ForthVM Train;
  std::vector<uint64_t> Counts;
  Train.run(Unit, nullptr, 1ull << 33, &Counts);
  SequenceProfile Prof = buildProfile(Unit.Program, Set, Counts);
  StaticResources Res = selectStaticResources(
      Prof, Set, 50, 50, SuperWeighting::DynamicFrequency, true);

  StrategyConfig Cfg;
  Cfg.Kind = Kind;
  auto L = DispatchBuilder::build(Unit.Program, Set, Cfg, &Res);

  std::set<Addr> BranchSites;
  for (uint32_t I = 0; I < L->numPieces(); ++I) {
    const Piece &P = L->piece(I);
    // Every piece that can dispatch has a branch site; pieces that
    // never dispatch have no dispatch cost.
    if (P.Kind != DispatchKind::None) {
      EXPECT_NE(P.BranchSite, 0u) << "piece " << I;
      BranchSites.insert(P.BranchSite);
    } else {
      EXPECT_EQ(P.DispatchInstrs, 0u) << "piece " << I;
    }
    // A piece's branch site lies beyond its entry (dispatch at the
    // end), except for shared routines (switch/original fallbacks).
    if (P.Kind != DispatchKind::None && Kind != DispatchStrategy::Switch) {
      EXPECT_GE(P.BranchSite, P.EntryAddr) << "piece " << I;
    }
  }

  if (Kind == DispatchStrategy::Switch) {
    // One shared indirect branch (§2.1).
    EXPECT_EQ(BranchSites.size(), 1u);
  } else {
    EXPECT_GT(BranchSites.size(), 1u);
  }

  if (isDynamicStrategy(Kind))
    EXPECT_GT(L->generatedCodeBytes(), 0u);
  else
    EXPECT_EQ(L->generatedCodeBytes(), 0u);

  // The layout must execute correctly.
  CpuConfig Cpu = makeCeleron800();
  DispatchSim Sim(*L, Cpu);
  ForthVM VM;
  ForthVM::Result R = VM.run(Unit, &Sim);
  Sim.finish();
  EXPECT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(Sim.counters().VMInstructions, R.Steps);
  EXPECT_GE(Sim.counters().Instructions, R.Steps); // >=1 instr per step
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LayoutInvariants,
    ::testing::Combine(::testing::ValuesIn(AllStrategies),
                       ::testing::Values("gray", "vmgen", "cross")),
    [](const ::testing::TestParamInfo<
        std::tuple<DispatchStrategy, const char *>> &Info) {
      return safeName(std::get<0>(Info.param)) + "_" +
             std::get<1>(Info.param);
    });

//===----------------------------------------------------------------------===//
// Cost-model relations the paper asserts (§7.3, §7.4)
//===----------------------------------------------------------------------===//

class CodeGrowthOrder : public ::testing::TestWithParam<const char *> {};

TEST_P(CodeGrowthOrder, ReplicationCostsMoreThanSharing) {
  ForthLab Lab;
  CpuConfig Cpu = makePentium4Northwood();
  std::string B = GetParam();
  uint64_t Super =
      Lab.run(B, makeVariant(DispatchStrategy::DynamicSuper), Cpu)
          .CodeBytes;
  uint64_t Both =
      Lab.run(B, makeVariant(DispatchStrategy::DynamicBoth), Cpu)
          .CodeBytes;
  uint64_t Repl =
      Lab.run(B, makeVariant(DispatchStrategy::DynamicRepl), Cpu)
          .CodeBytes;
  // §5.2: sharing identical blocks shrinks code; full replication is
  // the largest.
  EXPECT_LE(Super, Both);
  EXPECT_LE(Both, Repl + Repl / 4); // across/both may pad fragment ends
}

INSTANTIATE_TEST_SUITE_P(Suite, CodeGrowthOrder,
                         ::testing::Values("gray", "bench-gc", "tscp",
                                           "vmgen", "cross", "brainless",
                                           "brew"));

class MispredictElimination : public ::testing::TestWithParam<const char *> {
};

TEST_P(MispredictElimination, DynamicReplKillsNearlyAll) {
  // §7.3: "just eliminating most of these mispredictions by dynamic
  // replication gives a dramatic speedup"; residual mispredictions come
  // from VM-level indirect branches (returns) and BTB capacity.
  ForthLab Lab;
  CpuConfig Cpu = makePentium4Northwood();
  std::string B = GetParam();
  PerfCounters Plain =
      Lab.run(B, makeVariant(DispatchStrategy::Threaded), Cpu);
  PerfCounters Repl =
      Lab.run(B, makeVariant(DispatchStrategy::DynamicRepl), Cpu);
  EXPECT_LT(Repl.Mispredictions, Plain.Mispredictions / 3);
  EXPECT_EQ(Repl.Instructions, Plain.Instructions);
  EXPECT_EQ(Repl.IndirectBranches, Plain.IndirectBranches);
}

INSTANTIATE_TEST_SUITE_P(Suite, MispredictElimination,
                         ::testing::Values("gray", "bench-gc", "tscp",
                                           "vmgen", "cross", "brainless",
                                           "brew"));

//===----------------------------------------------------------------------===//
// BTB geometry monotonicity (the §6 simulator's purpose)
//===----------------------------------------------------------------------===//

class BTBGeometry : public ::testing::TestWithParam<int> {};

TEST_P(BTBGeometry, BiggerBTBNeverHurtsPlainCode) {
  ForthLab Lab;
  CpuConfig Cpu = makePentium4Northwood();
  uint32_t Entries = static_cast<uint32_t>(GetParam());
  BTBConfig Small;
  Small.Entries = Entries;
  Small.Ways = 4;
  BTBConfig Large;
  Large.Entries = Entries * 4;
  Large.Ways = 4;
  uint64_t MissSmall =
      Lab.runWithPredictor("gray", makeVariant(DispatchStrategy::Threaded),
                           Cpu, std::make_unique<BTB>(Small))
          .Mispredictions;
  uint64_t MissLarge =
      Lab.runWithPredictor("gray", makeVariant(DispatchStrategy::Threaded),
                           Cpu, std::make_unique<BTB>(Large))
          .Mispredictions;
  EXPECT_GE(MissSmall, MissLarge);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTBGeometry,
                         ::testing::Values(32, 128, 512));

//===----------------------------------------------------------------------===//
// Front-end robustness: pseudo-random token soup must never crash
//===----------------------------------------------------------------------===//

class ForthFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ForthFuzz, CompilerAndVMNeverCrash) {
  static const char *Tokens[] = {
      ":",    ";",     "if",   "else", "then",  "begin", "until",
      "do",   "loop",  "dup",  "drop", "swap",  "+",     "-",
      "@",    "!",     "1",    "42",   "-7",    "foo",   "variable",
      "constant", "create", "allot", ",",      "'",     "recurse",
      "exit", "i",     "j",    ">r",   "r>",    "while", "repeat",
      "leave", "emit", ".",    "(",    ")",     "\\",    "halt",
  };
  Xoroshiro128 Rng(1000 + GetParam());
  std::string Source;
  size_t Count = 5 + Rng.nextBelow(120);
  for (size_t I = 0; I < Count; ++I) {
    Source += Tokens[Rng.nextBelow(std::size(Tokens))];
    Source += (Rng.nextBelow(8) == 0) ? "\n" : " ";
  }
  ForthUnit Unit = compileForth(Source, "fuzz");
  if (!Unit.ok())
    return; // rejected cleanly: fine
  if (!Unit.Program.validate(forth::opcodeSet()).empty())
    return;
  ForthVM VM;
  // Bounded run: errors allowed, crashes are not.
  ForthVM::Result R = VM.run(Unit, nullptr, 200000);
  (void)R;
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForthFuzz, ::testing::Range(0, 25));

//===----------------------------------------------------------------------===//
// Selection determinism: same profile, same resources
//===----------------------------------------------------------------------===//

TEST(Selection, Deterministic) {
  ForthLab Lab;
  const SequenceProfile &Prof = Lab.trainingProfile();
  const OpcodeSet &Set = forth::opcodeSet();
  StaticResources A = selectStaticResources(
      Prof, Set, 100, 100, SuperWeighting::DynamicFrequency, true);
  StaticResources B = selectStaticResources(
      Prof, Set, 100, 100, SuperWeighting::DynamicFrequency, true);
  EXPECT_EQ(A.OpcodeReplicas, B.OpcodeReplicas);
  EXPECT_EQ(A.SuperReplicas, B.SuperReplicas);
  ASSERT_EQ(A.Supers.size(), B.Supers.size());
  for (SuperId Id = 0; Id < A.Supers.size(); ++Id)
    EXPECT_EQ(A.Supers.sequence(Id), B.Supers.sequence(Id));
}

TEST(Selection, SuperTableRespectsCount) {
  ForthLab Lab;
  const OpcodeSet &Set = forth::opcodeSet();
  for (uint32_t N : {1u, 10u, 100u, 400u}) {
    StaticResources Res = selectStaticResources(
        Lab.trainingProfile(), Set, N, 0,
        SuperWeighting::DynamicFrequency);
    EXPECT_LE(Res.Supers.size(), N);
    if (N <= 100) {
      EXPECT_EQ(Res.Supers.size(), N); // profile is rich enough
    }
  }
}
