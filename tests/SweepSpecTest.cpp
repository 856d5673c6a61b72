//===- tests/SweepSpecTest.cpp - Sweep spec / sharding / trace cache ------===//
///
/// Pins the contracts the distributed-sweep layer rests on:
///  - spec text round-trip is exact (parse(print(S)) == S),
///  - shard decomposition covers every cell exactly once and the merged
///    shard results are bit-identical to a single in-process gang sweep
///    (both suites),
///  - [result] lines round-trip PerfCounters exactly,
///  - the ablation benches' specs equal the per-config lab oracle
///    (TraceReplayer) cell for cell,
///  - a sweep the result store fully serves captures and replays
///    nothing (a partially served one only its misses), and a streamed
///    sweep leaves no trace materialized,
///  - corrupt trace-cache files fail to load with a diagnostic and no
///    partial state, and the cache directory is auto-created,
///  - concurrent cache writers (threads and processes) never expose a
///    partial file to readers and leave no temp droppings.
///
//===----------------------------------------------------------------------===//

#include "harness/SweepExecutor.h"
#include "harness/SweepSpec.h"
#include "harness/WorkloadCache.h"
#include "uarch/CaseBlockTable.h"
#include "vmcore/DispatchTrace.h"
#include "workloads/ForthSuite.h"
#include "workloads/JavaSuite.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace vmib;

namespace {

PredictorGeometry btbGeometry(uint32_t Entries, bool TwoBit = false) {
  PredictorGeometry G;
  G.PredKind = PredictorGeometry::Kind::Btb;
  G.Btb.Entries = Entries;
  G.Btb.Ways = 4;
  G.Btb.TwoBitCounters = TwoBit;
  return G;
}

/// A spec exercising every serializable dimension (quoted variant
/// names, every predictor kind, several CPUs).
SweepSpec fullSpec() {
  SweepSpec S;
  S.Name = "sweeptest_full";
  S.Suite = "forth";
  S.Benchmarks = {forthSuite()[0].Name, forthSuite()[1].Name};
  S.Cpus = {"p4northwood", "celeron800", "athlon1200"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::StaticBoth),
                makeVariant(DispatchStrategy::WithStaticSuper)};
  S.Variants[1].Config.Policy = ReplicaPolicy::Random;
  S.Variants[2].Config.Parse = ParsePolicy::Optimal;
  S.Variants[2].Config.Seed = 12345;
  PredictorGeometry TwoLevel;
  TwoLevel.PredKind = PredictorGeometry::Kind::TwoLevel;
  TwoLevel.TwoLevel.TableEntries = 1024;
  TwoLevel.TwoLevel.HistoryLength = 8;
  PredictorGeometry CaseBlock;
  CaseBlock.PredKind = PredictorGeometry::Kind::CaseBlock;
  CaseBlock.CaseBlockEntries = 2048;
  S.Predictors = {PredictorGeometry(), btbGeometry(256, true), TwoLevel,
                  CaseBlock};
  S.ChunkEvents = 1 << 14;
  S.Threads = 7;
  return S;
}

/// The small sweep the shard-equivalence tests execute for real.
SweepSpec forthRunSpec() {
  SweepSpec S;
  S.Name = "sweeptest_forth";
  S.Suite = "forth";
  S.Benchmarks = {forthSuite()[0].Name, forthSuite()[1].Name};
  S.Cpus = {"p4northwood"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::StaticRepl),
                makeVariant(DispatchStrategy::AcrossBB)};
  S.Predictors = {PredictorGeometry(), btbGeometry(128)};
  return S;
}

SweepSpec javaRunSpec() {
  SweepSpec S;
  S.Name = "sweeptest_java";
  S.Suite = "java";
  S.Benchmarks = {javaSuite()[0].Name, javaSuite()[1].Name};
  S.Cpus = {"p4northwood"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::DynamicSuper)};
  return S;
}

void expectSameCounters(const PerfCounters &A, const PerfCounters &B,
                        const std::string &What) {
  EXPECT_EQ(0, std::memcmp(&A, &B, sizeof(PerfCounters))) << What;
}

void expectCellsEqual(const std::vector<PerfCounters> &A,
                      const std::vector<PerfCounters> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(0, std::memcmp(&A[I], &B[I], sizeof(PerfCounters)))
        << "cell " << I << " diverges";
}

/// Runs the spec shard-by-shard through the executor and merges.
std::vector<PerfCounters> runSharded(SweepExecutor &Executor,
                                     const SweepSpec &Spec, unsigned Shards) {
  std::vector<ShardJob> Jobs = decomposeSweep(Spec, Shards);
  std::vector<std::vector<PerfCounters>> Slices;
  for (const ShardJob &J : Jobs)
    Slices.push_back(
        Executor.runSlice(Spec, J.Workload, J.MemberBegin, J.MemberEnd));
  std::vector<PerfCounters> Cells;
  std::string Error;
  EXPECT_TRUE(mergeShardResults(Spec, Jobs, Slices, Cells, Error)) << Error;
  return Cells;
}

} // namespace

//===--- text format ------------------------------------------------------===//

TEST(SweepSpec, PrintParseRoundTrip) {
  SweepSpec S = fullSpec();
  std::string Text = printSweepSpec(S);
  SweepSpec P;
  std::string Error;
  ASSERT_TRUE(parseSweepSpec(Text, P, Error)) << Error;
  // print -> parse -> print is the identity (field-exact round trip).
  EXPECT_EQ(Text, printSweepSpec(P));
  ASSERT_EQ(S.Variants.size(), P.Variants.size());
  for (size_t I = 0; I < S.Variants.size(); ++I) {
    EXPECT_EQ(S.Variants[I].Name, P.Variants[I].Name);
    EXPECT_EQ(S.Variants[I].Config.Kind, P.Variants[I].Config.Kind);
    EXPECT_EQ(S.Variants[I].Config.Seed, P.Variants[I].Config.Seed);
    EXPECT_EQ(S.Variants[I].SuperCount, P.Variants[I].SuperCount);
    EXPECT_EQ(S.Variants[I].ReplicaCount, P.Variants[I].ReplicaCount);
    EXPECT_EQ(S.Variants[I].ReplicateSupers, P.Variants[I].ReplicateSupers);
  }
  ASSERT_EQ(S.Predictors.size(), P.Predictors.size());
  EXPECT_EQ(P.Predictors[1].Btb.Entries, 256u);
  EXPECT_TRUE(P.Predictors[1].Btb.TwoBitCounters);
  EXPECT_EQ(P.Predictors[2].TwoLevel.TableEntries, 1024u);
  EXPECT_EQ(P.Predictors[3].CaseBlockEntries, 2048u);
  EXPECT_EQ(P.ChunkEvents, size_t{1} << 14);
  EXPECT_EQ(P.Threads, 7u);
  EXPECT_EQ(P.Cpus, S.Cpus);
  EXPECT_EQ(P.Benchmarks, S.Benchmarks);
}

TEST(SweepSpec, ThreadsFieldCompatAndValidation) {
  // A PR-3-era spec (no `threads` declaration) must parse as the
  // serial default, not fail.
  std::string Modern = printSweepSpec(forthRunSpec());
  size_t Pos = Modern.find("threads 1\n");
  ASSERT_NE(Pos, std::string::npos);
  std::string Legacy = Modern;
  Legacy.erase(Pos, std::strlen("threads 1\n"));
  SweepSpec P;
  std::string Error;
  ASSERT_TRUE(parseSweepSpec(Legacy, P, Error)) << Error;
  EXPECT_EQ(P.Threads, 1u);

  // Malformed values are rejected with a diagnostic, never clamped.
  for (const char *Bad : {"threads -2\n", "threads x\n",
                          "threads 2000\n", "threads 1 1\n"}) {
    std::string Broken = Modern;
    Broken.replace(Pos, std::strlen("threads 1\n"), Bad);
    EXPECT_FALSE(parseSweepSpec(Broken, P, Error)) << Bad;
    EXPECT_FALSE(Error.empty());
  }

  // threads 0 is the auto-detect request (resolved to the host's core
  // count at executor level), valid in the text and round-tripped.
  std::string Auto = Modern;
  Auto.replace(Pos, std::strlen("threads 1\n"), "threads 0\n");
  ASSERT_TRUE(parseSweepSpec(Auto, P, Error)) << Error;
  EXPECT_EQ(P.Threads, 0u);
  EXPECT_NE(printSweepSpec(P).find("threads 0\n"), std::string::npos);
  EXPECT_GE(resolveGangThreads(0), 1u);
  EXPECT_EQ(resolveGangThreads(7), 7u);

  // validateSweepSpec applies the same bound to programmatic specs.
  SweepSpec Prog = forthRunSpec();
  Prog.Threads = 0;
  EXPECT_TRUE(validateSweepSpec(Prog, Error)) << Error;
  Prog.Threads = 4096;
  EXPECT_FALSE(validateSweepSpec(Prog, Error));
  Prog.Threads = 8;
  EXPECT_TRUE(validateSweepSpec(Prog, Error)) << Error;
}

TEST(SweepSpec, ScheduleFieldCompatAndRoundTrip) {
  // A PR-4-era spec (no `schedule` declaration) must parse as the
  // static scheduler, not fail.
  std::string Modern = printSweepSpec(forthRunSpec());
  size_t Pos = Modern.find("schedule static\n");
  ASSERT_NE(Pos, std::string::npos);
  std::string Legacy = Modern;
  Legacy.erase(Pos, std::strlen("schedule static\n"));
  SweepSpec P;
  std::string Error;
  ASSERT_TRUE(parseSweepSpec(Legacy, P, Error)) << Error;
  EXPECT_EQ(P.Schedule, GangSchedule::Static);

  // The inert dynamic value still round-trips exactly.
  std::string Dynamic = Modern;
  Dynamic.replace(Pos, std::strlen("schedule static\n"),
                  "schedule dynamic\n");
  ASSERT_TRUE(parseSweepSpec(Dynamic, P, Error)) << Error;
  EXPECT_EQ(P.Schedule, GangSchedule::Dynamic);
  EXPECT_NE(printSweepSpec(P).find("schedule dynamic\n"),
            std::string::npos);

  // Malformed values are rejected with a diagnostic.
  for (const char *Bad : {"schedule bogus\n", "schedule static extra\n",
                          "schedule\n"}) {
    std::string Broken = Modern;
    Broken.replace(Pos, std::strlen("schedule static\n"), Bad);
    EXPECT_FALSE(parseSweepSpec(Broken, P, Error)) << Bad;
    EXPECT_FALSE(Error.empty());
  }

  // The id helpers are the stable spec/CLI tokens.
  GangSchedule S;
  EXPECT_TRUE(gangScheduleFromId("static", S));
  EXPECT_EQ(S, GangSchedule::Static);
  EXPECT_TRUE(gangScheduleFromId("dynamic", S));
  EXPECT_EQ(S, GangSchedule::Dynamic);
  EXPECT_FALSE(gangScheduleFromId("Dynamic", S));
}

TEST(SweepSpec, DecodeFieldCompatAndRoundTrip) {
  // A pre-streaming spec (no `decode` declaration) must parse as Auto,
  // not fail.
  std::string Modern = printSweepSpec(forthRunSpec());
  size_t Pos = Modern.find("decode auto\n");
  ASSERT_NE(Pos, std::string::npos);
  std::string Legacy = Modern;
  Legacy.erase(Pos, std::strlen("decode auto\n"));
  SweepSpec P;
  std::string Error;
  ASSERT_TRUE(parseSweepSpec(Legacy, P, Error)) << Error;
  EXPECT_EQ(P.Decode, TraceDecodeMode::Auto);

  // Both explicit modes round-trip exactly.
  for (const char *Mode : {"materialize", "stream"}) {
    std::string Explicit = Modern;
    Explicit.replace(Pos, std::strlen("decode auto\n"),
                     std::string("decode ") + Mode + "\n");
    ASSERT_TRUE(parseSweepSpec(Explicit, P, Error)) << Error;
    EXPECT_EQ(traceDecodeModeId(P.Decode), std::string(Mode));
    EXPECT_NE(printSweepSpec(P).find(std::string("decode ") + Mode + "\n"),
              std::string::npos);
  }

  // Malformed values are rejected with a diagnostic.
  for (const char *Bad : {"decode bogus\n", "decode stream extra\n",
                          "decode\n"}) {
    std::string Broken = Modern;
    Broken.replace(Pos, std::strlen("decode auto\n"), Bad);
    EXPECT_FALSE(parseSweepSpec(Broken, P, Error)) << Bad;
    EXPECT_FALSE(Error.empty());
  }

  // The id helpers are the stable spec/CLI tokens.
  TraceDecodeMode M;
  EXPECT_TRUE(traceDecodeModeFromId("materialize", M));
  EXPECT_EQ(M, TraceDecodeMode::Materialize);
  EXPECT_TRUE(traceDecodeModeFromId("stream", M));
  EXPECT_EQ(M, TraceDecodeMode::Stream);
  EXPECT_TRUE(traceDecodeModeFromId("auto", M));
  EXPECT_EQ(M, TraceDecodeMode::Auto);
  EXPECT_FALSE(traceDecodeModeFromId("Stream", M));
  EXPECT_FALSE(traceDecodeModeFromId("", M));
}

TEST(SweepSpec, ParseRejectsMalformedSpecs) {
  SweepSpec P;
  std::string Error;
  EXPECT_FALSE(parseSweepSpec("", P, Error));
  EXPECT_FALSE(parseSweepSpec("not-a-spec\n", P, Error));

  std::string Good = printSweepSpec(forthRunSpec());
  // Truncation (no 'end') is a parse error, not a shorter sweep.
  std::string Truncated = Good.substr(0, Good.size() - 4);
  EXPECT_FALSE(parseSweepSpec(Truncated, P, Error));
  EXPECT_NE(Error.find("end"), std::string::npos);

  std::string BadKind = Good;
  size_t Pos = BadKind.find("kind=threaded");
  BadKind.replace(Pos, std::strlen("kind=threaded"), "kind=bogus");
  EXPECT_FALSE(parseSweepSpec(BadKind, P, Error));
  EXPECT_NE(Error.find("bogus"), std::string::npos);

  std::string BadCpu = Good;
  Pos = BadCpu.find("cpu p4northwood");
  BadCpu.replace(Pos, std::strlen("cpu p4northwood"), "cpu pdp11");
  EXPECT_FALSE(parseSweepSpec(BadCpu, P, Error));
  EXPECT_NE(Error.find("pdp11"), std::string::npos);

  // Java sweeps reject non-default predictor geometries, and more than
  // one predictor entry (the java executor assumes one per variant).
  SweepSpec Java = javaRunSpec();
  Java.Predictors = {btbGeometry(256)};
  EXPECT_FALSE(validateSweepSpec(Java, Error));
  Java.Predictors = {PredictorGeometry(), PredictorGeometry()};
  EXPECT_FALSE(validateSweepSpec(Java, Error));
}

TEST(SweepSpec, ResultLineRoundTrip) {
  PerfCounters C;
  C.Cycles = 0xDEADBEEF12345ULL;
  C.Instructions = 987654321;
  C.VMInstructions = 123456789;
  C.IndirectBranches = 42;
  C.Mispredictions = 7;
  C.ICacheMisses = 99;
  C.MissCycles = 2673;
  C.CodeBytes = 4096;
  C.DispatchCount = 41;
  std::string Line = sweepResultLine("mysweep", 3, 17, C);
  std::string Name;
  size_t W = 0, M = 0;
  PerfCounters Parsed;
  ASSERT_TRUE(parseSweepResultLine(Line, Name, W, M, Parsed));
  EXPECT_EQ(Name, "mysweep");
  EXPECT_EQ(W, 3u);
  EXPECT_EQ(M, 17u);
  EXPECT_EQ(0, std::memcmp(&C, &Parsed, sizeof(PerfCounters)));

  EXPECT_FALSE(parseSweepResultLine("[timing] bench=x", Name, W, M, Parsed));
  EXPECT_FALSE(parseSweepResultLine("[result] sweep=x workload=0", Name, W,
                                    M, Parsed));
}

//===--- decomposition ----------------------------------------------------===//

TEST(SweepSpec, DecompositionCoversEveryCellExactlyOnce) {
  SweepSpec S = fullSpec(); // 2 workloads x 36 members
  size_t M = S.membersPerWorkload();
  for (unsigned Shards : {1u, 2u, 3u, 4u, 7u, 16u, 1000u}) {
    std::vector<ShardJob> Jobs = decomposeSweep(S, Shards);
    ASSERT_GE(Jobs.size(), std::min<size_t>(Shards, S.Benchmarks.size()));
    std::vector<int> Covered(S.numCells(), 0);
    for (const ShardJob &J : Jobs) {
      ASSERT_LT(J.Workload, S.Benchmarks.size());
      ASSERT_LE(J.MemberEnd, M);
      ASSERT_LT(J.MemberBegin, J.MemberEnd); // no empty jobs
      for (size_t I = J.MemberBegin; I < J.MemberEnd; ++I)
        ++Covered[S.cellIndex(J.Workload, I)];
    }
    for (size_t Cell = 0; Cell < Covered.size(); ++Cell)
      EXPECT_EQ(1, Covered[Cell]) << "shards=" << Shards;
  }
  // Trace-affine: with fewer shards than workloads, one job per
  // workload.
  EXPECT_EQ(decomposeSweep(S, 1).size(), S.Benchmarks.size());
}

TEST(SweepSpec, MergeRejectsBadCoverage) {
  SweepSpec S = forthRunSpec();
  std::vector<ShardJob> Jobs = decomposeSweep(S, 4);
  std::vector<std::vector<PerfCounters>> Slices;
  for (const ShardJob &J : Jobs)
    Slices.emplace_back(J.MemberEnd - J.MemberBegin);
  std::vector<PerfCounters> Cells;
  std::string Error;
  ASSERT_TRUE(mergeShardResults(S, Jobs, Slices, Cells, Error)) << Error;

  // Wrong slice size.
  Slices[0].pop_back();
  EXPECT_FALSE(mergeShardResults(S, Jobs, Slices, Cells, Error));
  Slices[0].emplace_back();

  // A missing job leaves cells uncovered.
  std::vector<ShardJob> Short(Jobs.begin(), Jobs.end() - 1);
  std::vector<std::vector<PerfCounters>> ShortSlices(Slices.begin(),
                                                     Slices.end() - 1);
  EXPECT_FALSE(mergeShardResults(S, Short, ShortSlices, Cells, Error));

  // Overlapping jobs cover a cell twice.
  std::vector<ShardJob> Dup = Jobs;
  Dup.push_back(Jobs[0]);
  std::vector<std::vector<PerfCounters>> DupSlices = Slices;
  DupSlices.push_back(Slices[0]);
  EXPECT_FALSE(mergeShardResults(S, Dup, DupSlices, Cells, Error));
}

//===--- shard/merge bit-identity -----------------------------------------===//

TEST(SweepSpec, ShardedForthSweepIsBitIdenticalToInProcess) {
  SweepSpec S = forthRunSpec();
  SweepExecutor Executor;
  std::vector<PerfCounters> Full;
  Executor.runAll(S, 1, Full);
  ASSERT_EQ(Full.size(), S.numCells());
  for (unsigned Shards : {3u, 5u})
    expectCellsEqual(Full, runSharded(Executor, S, Shards));
}

TEST(SweepSpec, ShardedJavaSweepIsBitIdenticalToInProcess) {
  SweepSpec S = javaRunSpec();
  SweepExecutor Executor;
  std::vector<PerfCounters> Full;
  Executor.runAll(S, 1, Full);
  ASSERT_EQ(Full.size(), S.numCells());
  for (unsigned Shards : {3u, 4u})
    expectCellsEqual(Full, runSharded(Executor, S, Shards));
}

TEST(SweepSpec, ThreadedExecutionIsBitIdenticalBothSuites) {
  // The spec-level threads knob: runAll and every shard slice replay
  // their gangs on the shared-tile worker pool bit-identical to the
  // serial spec, including the two-level (shards x threads) shape and
  // the auto-detected (threads 0) worker count.
  for (bool Java : {false, true}) {
    SweepSpec Serial = Java ? javaRunSpec() : forthRunSpec();
    SweepExecutor Executor;
    std::vector<PerfCounters> Reference;
    Executor.runAll(Serial, 1, Reference);
    ASSERT_EQ(Reference.size(), Serial.numCells());

    SweepSpec Threaded = Serial;
    Threaded.Threads = 3;
    std::vector<PerfCounters> Cells;
    Executor.runAll(Threaded, 1, Cells);
    expectCellsEqual(Reference, Cells);
    // 2 shards x 3 threads: slices of a threaded spec stay exact.
    expectCellsEqual(Reference, runSharded(Executor, Threaded, 2));

    // A spec declaring the inert `schedule dynamic` line (the shape of
    // the benchmark's specs) must still run bit-identically, in-process
    // or sharded; the pool accounting must cover the work.
    SweepSpec Dynamic = Threaded;
    Dynamic.Schedule = GangSchedule::Dynamic;
    std::vector<PerfCounters> DynCells;
    SweepRunStats DynStats = Executor.runAll(Dynamic, 1, DynCells);
    expectCellsEqual(Reference, DynCells);
    EXPECT_FALSE(DynStats.Load.Workers.empty());
    uint64_t Events = 0;
    for (const GangReplayer::Stats::Worker &W : DynStats.Load.Workers)
      Events += W.EventsReplayed;
    EXPECT_GT(Events, 0u);
    expectCellsEqual(Reference, runSharded(Executor, Dynamic, 2));

    // threads 0 auto-detects at executor level and stays bit-exact.
    SweepSpec Auto = Dynamic;
    Auto.Threads = 0;
    std::vector<PerfCounters> AutoCells;
    Executor.runAll(Auto, 1, AutoCells);
    expectCellsEqual(Reference, AutoCells);
  }
}

//===--- capture only on a store miss -------------------------------------===//

namespace {

/// A scratch trace cache (VMIB_TRACE_CACHE) for one test's lifetime.
class ScratchTraceCache {
public:
  ScratchTraceCache() {
    EXPECT_NE(nullptr, ::mkdtemp(Dir));
    ::setenv("VMIB_TRACE_CACHE", Dir, 1);
  }
  ~ScratchTraceCache() {
    ::unsetenv("VMIB_TRACE_CACHE");
    std::string Cleanup = "rm -rf " + std::string(Dir);
    EXPECT_EQ(0, std::system(Cleanup.c_str()));
  }
  std::string path() const { return Dir; }

private:
  char Dir[32] = "/tmp/vmib-served-XXXXXX";
};

/// The run spec of a suite widened to its first four benchmarks, so a
/// four-thread runAll has a workload job per thread.
SweepSpec fourWorkloadSpec(bool Java) {
  SweepSpec S = Java ? javaRunSpec() : forthRunSpec();
  S.Benchmarks.clear();
  for (size_t I = 0; I < 4; ++I)
    S.Benchmarks.push_back(Java ? javaSuite()[I].Name : forthSuite()[I].Name);
  return S;
}

} // namespace

TEST(SweepSpec, FullyServedSweepCapturesAndReplaysNothing) {
  ScratchTraceCache Cache;
  for (bool Java : {false, true}) {
    SCOPED_TRACE(Java ? "java" : "forth");
    SweepSpec Spec = fourWorkloadSpec(Java);
    ResultStore Store;
    std::string Diag;
    ASSERT_TRUE(Store.open(Cache.path() + "/results", &Diag)) << Diag;

    std::vector<PerfCounters> Computed;
    {
      SweepExecutor Executor;
      Executor.setResultStore(&Store);
      SweepRunStats Stats = Executor.runAll(Spec, 4, Computed);
      EXPECT_GT(Stats.CaptureSeconds, 0.0);
      EXPECT_GT(Stats.ReplayedEvents, 0u);
    }

    // A fresh executor whose labs runAll creates lazily, four workload
    // jobs on one lab: every cell is served, so nothing is captured,
    // interpreted, trained, loaded or replayed.
    SweepExecutor Served;
    Served.setResultStore(&Store);
    uint64_t Hits = Store.stats().Hits;
    std::vector<PerfCounters> Cells;
    SweepRunStats Stats = Served.runAll(Spec, 4, Cells);
    EXPECT_EQ(0.0, Stats.CaptureSeconds);
    EXPECT_EQ(0u, Stats.ReplayedEvents);
    EXPECT_EQ(Spec.numCells(), Store.stats().Hits - Hits);
    if (Java) {
      EXPECT_EQ(0u, Served.java().referenceRunsPerformed());
      EXPECT_EQ(0u, Served.java().profileRunsPerformed());
      EXPECT_EQ(0u, Served.java().residentTraces());
    } else {
      EXPECT_EQ(0u, Served.forth().referenceRunsPerformed());
      EXPECT_EQ(0u, Served.forth().trainingRunsPerformed());
      EXPECT_EQ(0u, Served.forth().residentTraces());
    }
    expectCellsEqual(Computed, Cells);

    // One more variant misses on every workload: those workloads
    // capture again and replay only the missing members.
    SweepSpec Wider = Spec;
    Wider.Variants.push_back(makeVariant(DispatchStrategy::StaticSuper));
    size_t Extra = Wider.membersPerWorkload() - Spec.membersPerWorkload();
    std::vector<PerfCounters> Reference;
    SweepExecutor().runAll(Wider, 1, Reference);
    SweepExecutor Partial;
    Partial.setResultStore(&Store);
    Hits = Store.stats().Hits;
    uint64_t Misses = Store.stats().Misses;
    std::vector<PerfCounters> Mixed;
    Stats = Partial.runAll(Wider, 4, Mixed);
    EXPECT_GT(Stats.CaptureSeconds, 0.0);
    uint64_t Events = 0;
    for (const std::string &B : Wider.Benchmarks)
      Events += (Java ? Partial.java().referenceSteps(B)
                      : Partial.forth().referenceSteps(B)) *
                Extra;
    EXPECT_EQ(Events, Stats.ReplayedEvents);
    EXPECT_EQ(Spec.numCells(), Store.stats().Hits - Hits);
    EXPECT_EQ(Wider.Benchmarks.size() * Extra,
              Store.stats().Misses - Misses);
    expectCellsEqual(Reference, Mixed);
  }
}

TEST(SweepSpec, StreamedSweepMaterializesNoTrace) {
  // A streamed sweep replays in O(tile) memory on an empty trace cache
  // as on a warm one: neither lab may pin a decoded trace — not the
  // one a cold sweep captures (it streams the file the capture saved),
  // nor the Java runtime-overhead basis, which comes out of the gang.
  ScratchTraceCache Cache;
  for (bool Java : {false, true}) {
    SCOPED_TRACE(Java ? "java" : "forth");
    SweepSpec Spec = Java ? javaRunSpec() : forthRunSpec();
    SweepSpec Streamed = Spec;
    Streamed.Decode = TraceDecodeMode::Stream;
    std::vector<PerfCounters> Reference;
    for (bool Warm : {false, true}) {
      SCOPED_TRACE(Warm ? "warm cache" : "empty cache");
      SweepExecutor Executor;
      std::vector<PerfCounters> Cells;
      SweepRunStats Stats = Executor.runAll(Streamed, 1, Cells);
      EXPECT_TRUE(Stats.Load.StreamedDecode);
      EXPECT_EQ(0u, Java ? Executor.java().residentTraces()
                         : Executor.forth().residentTraces());
      if (!Warm) // materialized, off the files the cold sweep saved
        SweepExecutor().runAll(Spec, 1, Reference);
      expectCellsEqual(Reference, Cells);
    }
  }
}

//===--- bench specs vs the per-config lab oracle -------------------------===//

namespace {

/// bench/ablation_predictors.cpp's spec under --quick: {plain, switch}
/// × {default BTB, two-bit BTB, two-level, case-block}.
SweepSpec predictorAblationSpec() {
  SweepSpec S;
  S.Name = "ablation_predictors";
  S.Suite = "forth";
  S.Benchmarks = {forthSuite()[0].Name, forthSuite()[1].Name};
  S.Cpus = {"p4northwood"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::Switch)};
  PredictorGeometry TwoBit;
  TwoBit.PredKind = PredictorGeometry::Kind::Btb;
  TwoBit.Btb = makePentium4Northwood().Btb;
  TwoBit.Btb.TwoBitCounters = true;
  PredictorGeometry TwoLevel;
  TwoLevel.PredKind = PredictorGeometry::Kind::TwoLevel;
  PredictorGeometry CaseBlock;
  CaseBlock.PredKind = PredictorGeometry::Kind::CaseBlock;
  CaseBlock.CaseBlockEntries = 4096;
  S.Predictors = {PredictorGeometry(), TwoBit, TwoLevel, CaseBlock};
  return S;
}

/// Checks every cell of a single-CPU forth spec against the labs'
/// per-config TraceReplayer calls: full replays (replayBtb /
/// replayWith) for every member, plus the predictor-only tier on the
/// member's fetch baseline (default BTB cells and two-level/case-block
/// members on replayBtb's default-BTB run; BTB-geometry members on the
/// variant's replay()).
void expectCellsMatchOracle(ForthLab &Lab, const SweepSpec &Spec,
                            const std::vector<PerfCounters> &Cells) {
  ASSERT_EQ(Spec.Cpus.size(), 1u);
  ASSERT_EQ(Cells.size(), Spec.numCells());
  CpuConfig Cpu;
  ASSERT_TRUE(cpuConfigById(Spec.Cpus[0], Cpu));
  for (size_t B = 0; B < Spec.Benchmarks.size(); ++B) {
    const std::string &Bench = Spec.Benchmarks[B];
    for (size_t V = 0; V < Spec.Variants.size(); ++V) {
      const VariantSpec &Var = Spec.Variants[V];
      PerfCounters Baseline = Lab.replayBtb(Bench, Var, Cpu, Cpu.Btb);
      PerfCounters Replayed = Lab.replay(Bench, Var, Cpu);
      for (size_t P = 0; P < Spec.Predictors.size(); ++P) {
        const PredictorGeometry &G = Spec.Predictors[P];
        const PerfCounters &Cell =
            Cells[Spec.cellIndex(B, Spec.memberIndex(0, V, P))];
        std::string What = Bench + "/" + Var.Name + "/predictor " +
                           std::to_string(P);
        switch (G.PredKind) {
        case PredictorGeometry::Kind::Default:
          expectSameCounters(Cell, Baseline, What + " vs replayBtb");
          break;
        case PredictorGeometry::Kind::Btb:
          expectSameCounters(Cell, Lab.replayBtb(Bench, Var, Cpu, G.Btb),
                             What + " vs replayBtb");
          expectSameCounters(
              Cell,
              Lab.replayBtbPredictorOnly(Bench, Var, Cpu, G.Btb, Replayed),
              What + " vs replayBtbPredictorOnly");
          break;
        case PredictorGeometry::Kind::TwoLevel: {
          TwoLevelPredictor Full(G.TwoLevel), Only(G.TwoLevel);
          expectSameCounters(Cell, Lab.replayWith(Bench, Var, Cpu, Full),
                             What + " vs replayWith");
          expectSameCounters(
              Cell, Lab.replayPredictorOnly(Bench, Var, Cpu, Only, Baseline),
              What + " vs replayPredictorOnly");
          break;
        }
        case PredictorGeometry::Kind::CaseBlock: {
          CaseBlockTable Full(G.CaseBlockEntries), Only(G.CaseBlockEntries);
          expectSameCounters(Cell, Lab.replayWith(Bench, Var, Cpu, Full),
                             What + " vs replayWith");
          expectSameCounters(
              Cell, Lab.replayPredictorOnly(Bench, Var, Cpu, Only, Baseline),
              What + " vs replayPredictorOnly");
          break;
        }
        }
      }
    }
  }
}

} // namespace

TEST(SweepSpec, BenchSpecsMatchPerConfigOracle) {
  // The gang-vs-per-config claim for the two ablation benches: every
  // member kind the executor gangs — default and two-bit BTBs, BTB
  // geometries whose sets overflow and catch up, two-level and
  // case-block predictors — equals the independent per-config lab
  // oracle, cell for cell.
  ForthLab Lab;
  SweepExecutor Executor(&Lab);

  SweepSpec Predictors = predictorAblationSpec();
  std::vector<PerfCounters> Cells;
  Executor.runAll(Predictors, 1, Cells);
  expectCellsMatchOracle(Lab, Predictors, Cells);

  SweepSpec BtbSweep;
  std::string Error;
  ASSERT_TRUE(loadSweepSpecFile(std::string(VMIB_SOURCE_DIR) +
                                    "/perfbench/specs/ablation_btb_sweep.spec",
                                BtbSweep, Error))
      << Error;
  Executor.runAll(BtbSweep, 1, Cells);
  expectCellsMatchOracle(Lab, BtbSweep, Cells);
}

//===--- trace-cache hardening --------------------------------------------===//

namespace {

/// A deterministic little trace (with quicken records) for file tests.
DispatchTrace makeTrace() {
  DispatchTrace T;
  for (uint32_t I = 0; I < 1000; ++I)
    T.append(I % 7, (I + 1) % 7);
  VMInstr Q;
  Q.Op = 3;
  Q.A = -1;
  Q.B = 99;
  T.appendQuicken(5, Q);
  return T;
}

class TraceFileTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::snprintf(Dir, sizeof(Dir), "/tmp/vmib-trace-test-XXXXXX");
    ASSERT_NE(nullptr, ::mkdtemp(Dir));
    Path = std::string(Dir) + "/t.vmibtrace";
    Trace = makeTrace();
    ASSERT_TRUE(Trace.save(Path, /*WorkloadHash=*/0x1234));
  }
  void TearDown() override {
    std::remove(Path.c_str());
    ::rmdir(Dir);
  }

  /// Overwrites Bytes at Offset (negative: from the end).
  void corrupt(long Offset, const void *Bytes, size_t N) {
    std::FILE *F = std::fopen(Path.c_str(), "r+b");
    ASSERT_NE(nullptr, F);
    std::fseek(F, Offset, Offset < 0 ? SEEK_END : SEEK_SET);
    std::fwrite(Bytes, 1, N, F);
    std::fclose(F);
  }

  void truncateTo(long Bytes) {
    ASSERT_EQ(0, ::truncate(Path.c_str(), Bytes));
  }

  /// Loads and expects failure; checks the diagnostic mentions
  /// \p Needle and that no partial state leaks.
  void expectLoadFailure(const char *Needle) {
    DispatchTrace T;
    // Pre-fill so a failed load that "forgot" to clear is caught.
    T.append(1, 2);
    std::string Diag;
    EXPECT_FALSE(T.load(Path, 0x1234, &Diag));
    EXPECT_NE(Diag.find(Needle), std::string::npos) << "diag: " << Diag;
    EXPECT_EQ(T.numEvents(), 0u) << "partial state after failed load";
    EXPECT_EQ(T.numQuickens(), 0u);
  }

  char Dir[64];
  std::string Path;
  DispatchTrace Trace;
};

} // namespace

TEST_F(TraceFileTest, RoundTripLoads) {
  DispatchTrace T;
  std::string Diag;
  ASSERT_TRUE(T.load(Path, 0x1234, &Diag)) << Diag;
  EXPECT_EQ(T.numEvents(), Trace.numEvents());
  EXPECT_EQ(T.numQuickens(), Trace.numQuickens());
  EXPECT_EQ(T.contentHash(), Trace.contentHash());
}

TEST_F(TraceFileTest, MissingFileFailsCleanly) {
  DispatchTrace T;
  std::string Diag;
  EXPECT_FALSE(T.load(Path + ".nope", 0x1234, &Diag));
  EXPECT_NE(Diag.find("cannot open"), std::string::npos);
}

TEST_F(TraceFileTest, BadMagicRejected) {
  uint64_t Garbage = 0x4241441142414411ULL;
  corrupt(0, &Garbage, sizeof(Garbage));
  expectLoadFailure("bad magic");
}

TEST_F(TraceFileTest, WrongVersionRejected) {
  uint64_t V = 999;
  corrupt(8, &V, sizeof(V));
  expectLoadFailure("version");
}

TEST_F(TraceFileTest, WorkloadHashMismatchRejected) {
  DispatchTrace T;
  std::string Diag;
  EXPECT_FALSE(T.load(Path, /*ExpectedWorkloadHash=*/0x9999, &Diag));
  EXPECT_NE(Diag.find("workload hash"), std::string::npos);
  EXPECT_EQ(T.numEvents(), 0u);
}

TEST_F(TraceFileTest, TruncationRejected) {
  truncateTo(40); // shorter than the 48-byte header
  expectLoadFailure("truncated");
}

TEST_F(TraceFileTest, SizeMismatchRejected) {
  // Truncating mid-payload is caught by the frame directory's byte
  // claim indexing past EOF — before any payload byte is read.
  truncateTo(48 + 8 * 100); // header + less payload than it claims
  expectLoadFailure("corrupt directory");
}

TEST_F(TraceFileTest, TrailingGarbageRejected) {
  std::FILE *F = std::fopen(Path.c_str(), "ab");
  ASSERT_NE(nullptr, F);
  uint64_t Extra = 7;
  std::fwrite(&Extra, sizeof(Extra), 1, F);
  std::fclose(F);
  expectLoadFailure("size mismatch");
}

TEST_F(TraceFileTest, BitCorruptionRejected) {
  unsigned char Flip = 0xFF;
  corrupt(-5, &Flip, 1); // inside the last quicken record
  // The quicken block checksum catches this; the diagnostic names bit
  // corruption.
  expectLoadFailure("bit corruption");
}

// Many writers — threads of this process AND forked child processes —
// race DispatchTrace::save on ONE canonical path while readers load it
// continuously. The temp-name + rename discipline must make every load
// observe a complete file (same content hash), and no writer may leave
// a .tmp. file behind. This is the exact shape of a shared
// VMIB_TRACE_CACHE under an orchestrated sweep: N workers warm the same
// cold trace at once.
TEST_F(TraceFileTest, ConcurrentWritersNeverExposePartialFiles) {
  constexpr int WriterThreads = 4;
  constexpr int SavesPerWriter = 20;
  constexpr int WriterProcesses = 3;

  std::atomic<bool> Stop{false};
  std::atomic<int> WriteFailures{0};

  // Fork the writer processes before any thread exists: a child forked
  // while a writer thread holds an allocator or stdio lock can block on
  // it forever.
  std::vector<pid_t> Children;
  for (int P = 0; P < WriterProcesses; ++P) {
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: hammer saves, exit 0 only if every one succeeded.
      // _exit, not exit — don't run gtest atexit handlers twice.
      for (int I = 0; I < SavesPerWriter; ++I)
        if (!Trace.save(Path, 0x1234))
          ::_exit(1);
      ::_exit(0);
    }
    Children.push_back(Pid);
  }

  std::vector<std::thread> Writers;
  for (int W = 0; W < WriterThreads; ++W)
    Writers.emplace_back([&] {
      for (int I = 0; I < SavesPerWriter; ++I)
        if (!Trace.save(Path, 0x1234))
          WriteFailures.fetch_add(1);
    });

  // Reader: every load during the storm must round-trip a COMPLETE
  // trace — rename atomicity means there is no moment where the
  // canonical path holds a prefix.
  std::thread Reader([&] {
    while (!Stop.load()) {
      DispatchTrace T;
      std::string Diag;
      ASSERT_TRUE(T.load(Path, 0x1234, &Diag)) << Diag;
      ASSERT_EQ(T.contentHash(), Trace.contentHash());
    }
  });

  for (std::thread &T : Writers)
    T.join();
  for (pid_t Pid : Children) {
    int Status = 0;
    ASSERT_EQ(Pid, ::waitpid(Pid, &Status, 0));
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
        << "writer process failed";
  }
  Stop.store(true);
  Reader.join();
  EXPECT_EQ(WriteFailures.load(), 0);

  // No temp droppings: every writer renamed (or cleaned up) its file.
  DIR *D = ::opendir(Dir);
  ASSERT_NE(nullptr, D);
  while (struct dirent *E = ::readdir(D))
    EXPECT_EQ(nullptr, std::strstr(E->d_name, ".tmp."))
        << "leftover temp file: " << E->d_name;
  ::closedir(D);

  DispatchTrace Final;
  std::string Diag;
  ASSERT_TRUE(Final.load(Path, 0x1234, &Diag)) << Diag;
  EXPECT_EQ(Final.contentHash(), Trace.contentHash());
}

//===--- workload meta / trained-profile sidecars -------------------------===//

TEST(WorkloadCacheSidecar, SkipsColdStartAndSurvivesTraceDeletion) {
  char Base[64];
  std::snprintf(Base, sizeof(Base), "/tmp/vmib-sidecar-test-XXXXXX");
  ASSERT_NE(nullptr, ::mkdtemp(Base));
  ASSERT_EQ(0, ::setenv("VMIB_TRACE_CACHE", Base, 1));
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);

  // Cold lab: pays the reference + training interpretations once and
  // persists trace, meta sidecar and trained profile.
  PerfCounters Baseline;
  {
    ForthLab Cold;
    Cold.warmup("gray", P4);
    EXPECT_GE(Cold.referenceRunsPerformed(), 2u); // gray + brainless
    EXPECT_EQ(Cold.trainingRunsPerformed(), 1u);
    Baseline = Cold.replay("gray", Threaded, P4);
  }
  struct stat St;
  ASSERT_EQ(0, ::stat(workloadMetaPath("forth-gray").c_str(), &St));
  ASSERT_EQ(0, ::stat(DispatchTrace::cachePathFor("forth-gray").c_str(),
                      &St));

  // Warm worker: every interpretation is skipped — trace loads from
  // the cache, reference numbers come from the meta sidecars, the
  // training profile is persisted. Counters stay bit-identical.
  {
    ForthLab Warm;
    Warm.warmup("gray", P4);
    EXPECT_EQ(Warm.referenceRunsPerformed(), 0u);
    EXPECT_EQ(Warm.trainingRunsPerformed(), 0u);
    expectSameCounters(Baseline, Warm.replay("gray", Threaded, P4),
                       "warm replay off cached trace + sidecars");
  }

  // Delete the trace but keep the sidecar: the lab re-captures, and
  // the sidecar hash still stands in for the reference run (the
  // capture verifies against it), so the worker pays ONE
  // interpretation instead of two.
  ASSERT_EQ(0,
            std::remove(DispatchTrace::cachePathFor("forth-gray").c_str()));
  {
    ForthLab Recapture;
    (void)Recapture.trace("gray");
    EXPECT_EQ(Recapture.referenceRunsPerformed(), 0u)
        << "sidecar should have replaced the reference run";
    expectSameCounters(Baseline, Recapture.replay("gray", Threaded, P4),
                       "replay off re-captured trace");
  }

  // A *changed workload* (sidecar bound to a different compiled
  // program) must reject the sidecar outright and run the real
  // reference interpretation — the structural guard against a
  // stale-but-mutually-consistent (sidecar, trace) pair.
  uint64_t Binding;
  {
    ForthLab BindingProbe;
    Binding = programBindingHash(BindingProbe.unit("gray").Program);
  }
  WorkloadMeta Real;
  ASSERT_TRUE(loadWorkloadMeta("forth-gray", Binding, Real));
  EXPECT_FALSE(loadWorkloadMeta("forth-gray", Binding + 1, Real));
  ASSERT_TRUE(saveWorkloadMeta("forth-gray", Binding + 1, Real));
  {
    ForthLab ChangedWorkload;
    (void)ChangedWorkload.referenceHash("gray");
    EXPECT_GE(ChangedWorkload.referenceRunsPerformed(), 1u)
        << "wrong-binding sidecar must not replace the reference run";
    expectSameCounters(Baseline, ChangedWorkload.replay("gray", Threaded,
                                                        P4),
                       "replay after wrong-binding sidecar rejection");
  }

  // A *stale* (right binding, wrong hash) sidecar must degrade to a
  // refreshed capture, never to a divergence abort: the capture run is
  // adopted as the authoritative reference and the sidecar rewritten.
  ASSERT_EQ(0,
            std::remove(DispatchTrace::cachePathFor("forth-gray").c_str()));
  WorkloadMeta Stale;
  Stale.ReferenceHash = 0xdeadbeef;
  Stale.ReferenceSteps = 1;
  ASSERT_TRUE(saveWorkloadMeta("forth-gray", Binding, Stale));
  {
    ForthLab Refreshed;
    expectSameCounters(Baseline, Refreshed.replay("gray", Threaded, P4),
                       "replay after stale-sidecar refresh");
  }
  WorkloadMeta After;
  ASSERT_TRUE(loadWorkloadMeta("forth-gray", Binding, After));
  EXPECT_NE(After.ReferenceHash, 0xdeadbeefull);

  ::unsetenv("VMIB_TRACE_CACHE");
  std::string Cleanup = "rm -rf " + std::string(Base);
  ASSERT_EQ(0, std::system(Cleanup.c_str()));
}

TEST(WorkloadCacheSidecar, CorruptSidecarsAreRejectedNotTrusted) {
  char Base[64];
  std::snprintf(Base, sizeof(Base), "/tmp/vmib-sidecar-test-XXXXXX");
  ASSERT_NE(nullptr, ::mkdtemp(Base));
  ASSERT_EQ(0, ::setenv("VMIB_TRACE_CACHE", Base, 1));

  WorkloadMeta Meta;
  Meta.ReferenceHash = 0x1111;
  Meta.ReferenceSteps = 42;
  ASSERT_TRUE(saveWorkloadMeta("forth-x", /*BindingHash=*/0x99, Meta));
  WorkloadMeta Back;
  ASSERT_TRUE(loadWorkloadMeta("forth-x", 0x99, Back));
  EXPECT_EQ(Back.ReferenceHash, 0x1111u);
  EXPECT_EQ(Back.ReferenceSteps, 42u);
  // Bound to a different compiled program: rejected.
  EXPECT_FALSE(loadWorkloadMeta("forth-x", 0x9A, Back));

  // Any byte flip fails the checksum; the out-param stays untouched.
  std::string Path = workloadMetaPath("forth-x");
  std::FILE *F = std::fopen(Path.c_str(), "r+b");
  ASSERT_NE(nullptr, F);
  std::fseek(F, 25, SEEK_SET);
  unsigned char Junk = 0xA5;
  std::fwrite(&Junk, 1, 1, F);
  std::fclose(F);
  WorkloadMeta Untouched;
  Untouched.ReferenceHash = 7;
  EXPECT_FALSE(loadWorkloadMeta("forth-x", 0x99, Untouched));
  EXPECT_EQ(Untouched.ReferenceHash, 7u);

  // Profiles: round-trip exactly, reject a wrong bound hash and any
  // payload corruption.
  SequenceProfile P;
  P.OpcodeWeight = {5, 0, 9};
  P.SequenceWeight[{1, 2}] = 11;
  P.SequenceWeight[{2, 2, 0}] = 3;
  ASSERT_TRUE(saveTrainedProfile("forth-prof", 0x77, P));
  SequenceProfile Q;
  ASSERT_TRUE(loadTrainedProfile("forth-prof", 0x77, Q));
  EXPECT_EQ(Q.OpcodeWeight, P.OpcodeWeight);
  EXPECT_EQ(Q.SequenceWeight, P.SequenceWeight);
  EXPECT_FALSE(loadTrainedProfile("forth-prof", 0x78, Q));
  std::string ProfPath = std::string(Base) + "/forth-prof.vmibprofile";
  F = std::fopen(ProfPath.c_str(), "r+b");
  ASSERT_NE(nullptr, F);
  std::fseek(F, -3, SEEK_END);
  std::fwrite(&Junk, 1, 1, F);
  std::fclose(F);
  EXPECT_FALSE(loadTrainedProfile("forth-prof", 0x77, Q));

  ::unsetenv("VMIB_TRACE_CACHE");
  std::string Cleanup = "rm -rf " + std::string(Base);
  ASSERT_EQ(0, std::system(Cleanup.c_str()));
}

TEST(TraceCacheDir, AutoCreatedWhenMissing) {
  char Base[64];
  std::snprintf(Base, sizeof(Base), "/tmp/vmib-cache-test-XXXXXX");
  ASSERT_NE(nullptr, ::mkdtemp(Base));
  std::string Nested = std::string(Base) + "/deep/cache";
  ASSERT_EQ(0, ::setenv("VMIB_TRACE_CACHE", Nested.c_str(), 1));
  std::string Path = DispatchTrace::cachePathFor("forth-x");
  ::unsetenv("VMIB_TRACE_CACHE");
  EXPECT_EQ(Path, Nested + "/forth-x.vmibtrace");
  struct stat St;
  EXPECT_EQ(0, ::stat(Nested.c_str(), &St));
  EXPECT_TRUE(S_ISDIR(St.st_mode));
  ::rmdir(Nested.c_str());
  ::rmdir((std::string(Base) + "/deep").c_str());
  ::rmdir(Base);
}

TEST(TraceCacheDir, SaveLoadThroughAutoCreatedCache) {
  char Base[64];
  std::snprintf(Base, sizeof(Base), "/tmp/vmib-cache-test-XXXXXX");
  ASSERT_NE(nullptr, ::mkdtemp(Base));
  std::string Nested = std::string(Base) + "/sub";
  ASSERT_EQ(0, ::setenv("VMIB_TRACE_CACHE", Nested.c_str(), 1));
  DispatchTrace T = makeTrace();
  std::string Path = DispatchTrace::cachePathFor("java-y");
  ASSERT_FALSE(Path.empty());
  EXPECT_TRUE(T.save(Path, 77));
  DispatchTrace Back;
  std::string Diag;
  EXPECT_TRUE(Back.load(Path, 77, &Diag)) << Diag;
  EXPECT_EQ(Back.contentHash(), T.contentHash());
  ::unsetenv("VMIB_TRACE_CACHE");
  std::remove(Path.c_str());
  ::rmdir(Nested.c_str());
  ::rmdir(Base);
}
