//===- tests/AuditTest.cpp - Redundant-execution audit layer --------------===//
///
/// Pins the always-on silent-corruption audit (harness/Auditor):
///
///  - the `--audit=RATE` grammar and the deterministic, shape-free
///    sampling draw (same cells audited no matter how the sweep is
///    shaped or named);
///  - the decorrelation matrix: the audit shape flips decode mode and
///    thread count relative to the primary, and the
///    tiebreak shape is the canonical clean configuration;
///  - PerfCounters fingerprint/flipBit, the audit layer's value
///    identity and the fault injector's corruption primitive;
///  - end to end, with injected `flipcounter` corruption in primary
///    workers and `--audit` sampling at the orchestrator: the audit
///    shards catch every corrupted cell, the tiebreak classifies it as
///    compute divergence, the cell is repaired ("requeued for
///    authoritative recompute"), and the merged tables are
///    bit-identical to a fault-free storeless reference — on BOTH
///    suites;
///  - with `flipstore` serve-corruption under a populated ResultStore,
///    the in-process auditor classifies store corruption, quarantines
///    the cell (tombstones + quarantine/ evidence, nothing deleted),
///    repairs the slice, and a clean re-run converges with zero
///    mismatches;
///  - a fault-free audited sweep reports zero mismatches while still
///    proving it audited something.
///
/// Corruption seeds are searched in-test over the PURE draw functions
/// (decideCounterFlip × decideAudit), so every assertion is
/// deterministic — no flaky "hope the sample hits the fault".
///
//===----------------------------------------------------------------------===//

#include "harness/Auditor.h"
#include "harness/FaultInjection.h"
#include "harness/ResultStore.h"
#include "harness/SweepExecutor.h"
#include "harness/SweepOrchestrator.h"
#include "harness/SweepSpec.h"
#include "uarch/PerfCounters.h"
#include "workloads/ForthSuite.h"
#include "workloads/JavaSuite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace vmib;

namespace {

SweepSpec auditForthSpec() {
  SweepSpec S;
  S.Name = "audittest_forth";
  S.Suite = "forth";
  S.Benchmarks = {forthSuite()[0].Name, forthSuite()[1].Name};
  S.Cpus = {"p4northwood"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::DynamicSuper)};
  return S;
}

SweepSpec auditJavaSpec() {
  SweepSpec S;
  S.Name = "audittest_java";
  S.Suite = "java";
  S.Benchmarks = {javaSuite()[0].Name, javaSuite()[1].Name};
  S.Cpus = {"p4northwood"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::DynamicSuper)};
  return S;
}

/// A synthetic many-cell spec for the pure sampling-draw tests: no
/// traces are ever loaded, decideAudit only hashes names and member
/// configuration.
SweepSpec samplingSpec() {
  SweepSpec S;
  S.Name = "sampling";
  S.Suite = "forth";
  for (int I = 0; I < 8; ++I)
    S.Benchmarks.push_back("bench" + std::to_string(I));
  S.Cpus = {"p4northwood", "celeron800"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::StaticRepl),
                makeVariant(DispatchStrategy::DynamicSuper),
                makeVariant(DispatchStrategy::Switch)};
  return S;
}

void expectCellsEqual(const std::vector<PerfCounters> &A,
                      const std::vector<PerfCounters> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(0, std::memcmp(&A[I], &B[I], sizeof(PerfCounters)))
        << "cell " << I << " diverges";
}

size_t countFiles(const std::string &Dir, const std::string &Suffix) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  size_t N = 0;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() >= Suffix.size() &&
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) == 0)
      ++N;
  }
  ::closedir(D);
  return N;
}

/// Finds a VMIB_FAULT seed under which the flipcounter mass corrupts
/// at least one cell of \p Spec AND every corrupted cell is inside the
/// audit sample — the precondition for "the audited sweep repairs
/// everything and converges bit-identically". Both draws are pure, so
/// the search is exact, not probabilistic.
uint64_t findCoveredFlipSeed(const SweepSpec &Spec, double FlipMass,
                             const AuditPlan &Audit) {
  FaultPlan Faults;
  Faults.FlipCounter = FlipMass;
  size_t M = Spec.membersPerWorkload();
  for (uint64_t Seed = 1; Seed < 100000; ++Seed) {
    Faults.Seed = Seed;
    size_t Fired = 0;
    bool AllAudited = true;
    for (size_t W = 0; W < Spec.Benchmarks.size(); ++W)
      for (size_t Mem = 0; Mem < M; ++Mem) {
        unsigned Word, Bit;
        if (decideCounterFlip(Faults, W, Mem, Word, Bit)) {
          ++Fired;
          AllAudited = AllAudited && decideAudit(Audit, Spec, W, Mem);
        }
      }
    if (Fired > 0 && AllAudited)
      return Seed;
  }
  ADD_FAILURE() << "no covered flip seed in 100000 tries";
  return 0;
}

class AuditTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::snprintf(Dir, sizeof(Dir), "/tmp/vmib-audit-test-XXXXXX");
    ASSERT_NE(nullptr, ::mkdtemp(Dir));
    ASSERT_EQ(0, ::setenv("VMIB_TRACE_CACHE", Dir, 1));
    ::unsetenv("VMIB_FAULT");
    ::unsetenv("VMIB_RESULT_STORE");
  }
  void TearDown() override {
    ::unsetenv("VMIB_FAULT");
    ::unsetenv("VMIB_RESULT_STORE");
    ::unsetenv("VMIB_TRACE_CACHE");
    std::system(("rm -rf " + std::string(Dir)).c_str());
  }

  std::string writeSpec(const SweepSpec &Spec) {
    std::string Path = std::string(Dir) + "/" + Spec.Name + ".spec";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    EXPECT_NE(nullptr, F);
    std::string Text = printSweepSpec(Spec);
    std::fwrite(Text.data(), 1, Text.size(), F);
    std::fclose(F);
    return Path;
  }

  /// Fault-free, storeless in-process ground truth (also warms the
  /// trace cache workers share).
  std::vector<PerfCounters> reference(const SweepSpec &Spec) {
    std::vector<PerfCounters> Cells;
    Executor.runAll(Spec, 1, Cells);
    return Cells;
  }

  SweepWorkerOptions baseOptions(const std::string &SpecPath,
                                 unsigned Shards) {
    SweepWorkerOptions Opt;
    Opt.Shards = Shards;
    Opt.SpecPath = SpecPath;
    Opt.EchoWorkerTimings = false;
    Opt.BackoffMs = 10;
    return Opt;
  }

  char Dir[64];
  SweepExecutor Executor;
};

} // namespace

//===--- --audit grammar and the sampling draw ----------------------------===//

TEST(AuditPlan, ParsesRates) {
  AuditPlan P;
  std::string Error;
  ASSERT_TRUE(parseAuditRate("0.25", P, Error)) << Error;
  EXPECT_DOUBLE_EQ(P.Rate, 0.25);
  EXPECT_TRUE(P.enabled());
  ASSERT_TRUE(parseAuditRate("0", P, Error));
  EXPECT_FALSE(P.enabled());
  ASSERT_TRUE(parseAuditRate("1", P, Error));
  EXPECT_DOUBLE_EQ(P.Rate, 1.0);
  EXPECT_FALSE(parseAuditRate("1.5", P, Error));
  EXPECT_NE(Error.find("audit rate"), std::string::npos);
  EXPECT_FALSE(parseAuditRate("-0.1", P, Error));
  EXPECT_FALSE(parseAuditRate("banana", P, Error));
  EXPECT_FALSE(parseAuditRate("", P, Error));
  EXPECT_FALSE(parseAuditRate("0.5x", P, Error));
}

TEST(AuditPlan, SamplingIsDeterministicShapeFreeAndSeeded) {
  SweepSpec Spec = samplingSpec();
  size_t W = Spec.Benchmarks.size(), M = Spec.membersPerWorkload();
  AuditPlan P;
  P.Rate = 0.5;

  // The draw is pure, and a reshaped/renamed/rechunked execution of
  // the same logical sweep samples the SAME cells — shard layout,
  // threads, decode mode and display name are not identity.
  SweepSpec Shaped = Spec;
  Shaped.Name = "renamed";
  Shaped.Threads = 8;
  Shaped.Decode = TraceDecodeMode::Stream;
  Shaped.ChunkEvents = 12345;
  size_t Sampled = 0;
  for (size_t I = 0; I < W; ++I)
    for (size_t J = 0; J < M; ++J) {
      bool D = decideAudit(P, Spec, I, J);
      EXPECT_EQ(D, decideAudit(P, Spec, I, J));
      EXPECT_EQ(D, decideAudit(P, Shaped, I, J));
      Sampled += D;
    }
  // Rate 0.5 over 64 cells actually samples, and actually skips.
  EXPECT_GT(Sampled, 0u);
  EXPECT_LT(Sampled, W * M);

  // Extremes: 0 never samples, 1 always does.
  AuditPlan Off;
  Off.Rate = 0;
  AuditPlan All;
  All.Rate = 1;
  for (size_t I = 0; I < W; ++I)
    for (size_t J = 0; J < M; ++J) {
      EXPECT_FALSE(decideAudit(Off, Spec, I, J));
      EXPECT_TRUE(decideAudit(All, Spec, I, J));
    }

  // A different seed draws a different sample ("--audit-seed").
  AuditPlan Reseeded = P;
  Reseeded.Seed = P.Seed + 1;
  bool AnyDiffers = false;
  for (size_t I = 0; I < W && !AnyDiffers; ++I)
    for (size_t J = 0; J < M && !AnyDiffers; ++J)
      AnyDiffers =
          decideAudit(P, Spec, I, J) != decideAudit(Reseeded, Spec, I, J);
  EXPECT_TRUE(AnyDiffers);
}

TEST(AuditPlan, DecorrelatedShapeFlipsEveryAxis) {
  SweepSpec Spec;
  Spec.Decode = TraceDecodeMode::Materialize;
  Spec.Threads = 1;
  AuditShape D = decorrelatedAuditShape(Spec);
  EXPECT_EQ(D.Decode, TraceDecodeMode::Stream);
  EXPECT_EQ(D.Threads, 2u);
  EXPECT_EQ(auditShapeId(D), "decode:stream,threads:2");

  Spec.Decode = TraceDecodeMode::Stream;
  Spec.Threads = 4;
  D = decorrelatedAuditShape(Spec);
  EXPECT_EQ(D.Decode, TraceDecodeMode::Materialize);
  EXPECT_EQ(D.Threads, 1u);

  // The tiebreak authority is the canonical clean configuration.
  AuditShape C = canonicalAuditShape();
  EXPECT_EQ(C.Decode, TraceDecodeMode::Materialize);
  EXPECT_EQ(C.Threads, 1u);
  EXPECT_EQ(auditShapeId(C), "decode:materialize,threads:1");
}

//===--- PerfCounters value identity --------------------------------------===//

TEST(AuditPlan, FingerprintSeesEveryCounterAndFlipBitRoundTrips) {
  PerfCounters C;
  C.Cycles = 1000;
  C.Instructions = 2000;
  C.VMInstructions = 300;
  C.IndirectBranches = 400;
  C.Mispredictions = 50;
  C.ICacheMisses = 7;
  C.MissCycles = 70;
  C.CodeBytes = 4096;
  C.DispatchCount = 500;
  uint64_t F = C.fingerprint();
  for (unsigned W = 0; W < PerfCounters::NumWords; ++W) {
    PerfCounters D = C;
    D.flipBit(W, 17);
    EXPECT_NE(D, C) << "word " << W;
    EXPECT_NE(D.fingerprint(), F) << "word " << W;
    D.flipBit(W, 17); // a second flip of the same bit restores
    EXPECT_EQ(D, C) << "word " << W;
    EXPECT_EQ(D.fingerprint(), F) << "word " << W;
  }
  // Out-of-range (word, bit) wrap instead of corrupting memory, so a
  // seeded draw needs no range bookkeeping.
  PerfCounters A = C, B = C;
  A.flipBit(PerfCounters::NumWords, 64 + 3);
  B.flipBit(0, 3);
  EXPECT_EQ(A, B);
}

//===--- end to end: flipcounter corruption under orchestrated audit ------===//

TEST_F(AuditTest, OrchestratedAuditRepairsFlipcounterCorruptionBothSuites) {
  // The acceptance scenario: primaries run under
  // VMIB_FAULT="flipcounter=P,seed=N" and corrupt some cells; the
  // orchestrator audits a 25% sample through decorrelated shards, the
  // tiebreak classifies every mismatch as compute divergence (no store
  // is attached, so the store can never be implicated), repairs the
  // cells, and the merged tables are bit-identical to the fault-free
  // reference.
  for (bool Java : {false, true}) {
    SweepSpec Spec = Java ? auditJavaSpec() : auditForthSpec();
    std::string SpecPath = writeSpec(Spec);
    std::vector<PerfCounters> Want = reference(Spec);

    AuditPlan Audit;
    Audit.Rate = 0.25;
    uint64_t Seed = findCoveredFlipSeed(Spec, 0.3, Audit);
    ASSERT_NE(Seed, 0u);
    std::string Fault = "flipcounter=0.3,seed=" + std::to_string(Seed);
    ASSERT_EQ(0, ::setenv("VMIB_FAULT", Fault.c_str(), 1));

    SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
    Opt.Audit = Audit;

    std::vector<PerfCounters> Cells;
    SweepRunStats Stats;
    std::string Error;
    OrchestratorReport Report;
    ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
        << (Java ? "java: " : "forth: ") << Error;
    ::unsetenv("VMIB_FAULT");
    expectCellsEqual(Want, Cells);

    EXPECT_GE(Report.AuditShardsLaunched, 1u);
    EXPECT_GE(Report.AuditTiebreaksLaunched, 1u);
    EXPECT_GE(Report.CellsAudited, 1u);
    EXPECT_GE(Report.AuditMismatches, 1u);
    // Storeless: every mismatch is a compute divergence, each repaired.
    EXPECT_EQ(Report.AuditComputeDivergences, Report.AuditMismatches);
    EXPECT_EQ(Report.CellsRequeued, Report.AuditMismatches);
    EXPECT_EQ(Report.AuditStoreCorruptions, 0u);
    EXPECT_EQ(Report.AuditNondeterminism, 0u);
    EXPECT_EQ(Report.CellsQuarantined, 0u);
    // Audit shards ride idle slots and never count as sweep attempts,
    // failures or timeouts.
    EXPECT_EQ(Report.WorkerFailures, 0u);
    EXPECT_EQ(Report.Timeouts, 0u);
    EXPECT_TRUE(Report.complete());
    EXPECT_GE(Report.AuditWallSeconds, 0.0);
  }
}

//===--- worker self-audit (template-carried --audit) ---------------------===//

TEST_F(AuditTest, WorkerSelfAuditRepairsBeforeEmitAndFoldsCounters) {
  // When the worker template itself carries --audit, each worker
  // audits its slice BEFORE emitting rows: the orchestrator receives
  // already-repaired results and folds the worker's [audit] counters
  // into the report at commit (duplicates from retries or hedge losers
  // never double-count).
  SweepSpec Spec = auditForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);

  // Rate 1: the worker audits every cell, so any fired flip is caught.
  FaultPlan Faults;
  Faults.FlipCounter = 0.3;
  uint64_t Seed = 0;
  for (uint64_t S = 1; S < 100000 && !Seed; ++S) {
    Faults.Seed = S;
    unsigned Word, Bit;
    for (size_t W = 0; W < Spec.Benchmarks.size() && !Seed; ++W)
      for (size_t M = 0; M < Spec.membersPerWorkload() && !Seed; ++M)
        if (decideCounterFlip(Faults, W, M, Word, Bit))
          Seed = S;
  }
  ASSERT_NE(Seed, 0u);
  std::string Fault = "flipcounter=0.3,seed=" + std::to_string(Seed);
  ASSERT_EQ(0, ::setenv("VMIB_FAULT", Fault.c_str(), 1));

  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.CommandTemplate =
      "exec {driver} --worker --spec={spec} --shards={shards} --job={job} "
      "--threads={threads} --attempt={attempt} --audit=1.0";

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  ::unsetenv("VMIB_FAULT");
  expectCellsEqual(Want, Cells);

  // All counters came from worker self-audit lines, none from
  // orchestrator-dispatched audit shards.
  EXPECT_EQ(Report.AuditShardsLaunched, 0u);
  EXPECT_EQ(Report.AuditTiebreaksLaunched, 0u);
  EXPECT_EQ(Report.CellsAudited, Spec.numCells());
  EXPECT_GE(Report.AuditMismatches, 1u);
  EXPECT_EQ(Report.AuditComputeDivergences, Report.AuditMismatches);
  EXPECT_EQ(Report.CellsRequeued, Report.AuditMismatches);
}

//===--- store corruption: flipstore, quarantine, convergence -------------===//

TEST_F(AuditTest, FlipstoreIsClassifiedQuarantinedAndCleanRerunConverges) {
  SweepSpec Spec = auditForthSpec();
  std::vector<PerfCounters> Want = reference(Spec);
  std::string StoreDir = std::string(Dir) + "/results";

  // Populate the store with clean cells.
  {
    ResultStore St;
    std::string Diag;
    ASSERT_TRUE(St.open(StoreDir, &Diag)) << Diag;
    Executor.setResultStore(&St);
    std::vector<PerfCounters> Cells;
    Executor.runAll(Spec, 1, Cells);
    Executor.setResultStore(nullptr);
    St.close();
    expectCellsEqual(Want, Cells);
  }

  // Serve-corrupt EVERY store lookup (the disk bytes stay clean —
  // silent corruption below the segment checksums). The audited sweep
  // must classify each mismatch as store corruption, quarantine the
  // cell, repair the row, and still produce the exact reference.
  ASSERT_EQ(0, ::setenv("VMIB_FAULT", "flipstore=1.0,seed=9", 1));
  {
    ResultStore St;
    std::string Diag;
    ASSERT_TRUE(St.open(StoreDir, &Diag)) << Diag;
    Executor.setResultStore(&St);
    AuditPlan Plan;
    Plan.Rate = 1.0;
    Auditor Aud(Plan, Executor, &St);
    Executor.setAuditor(&Aud);
    std::vector<PerfCounters> Cells;
    Executor.runAll(Spec, 1, Cells);
    Executor.setAuditor(nullptr);
    Executor.setResultStore(nullptr);
    const AuditStats &S = Aud.stats();
    St.close();
    expectCellsEqual(Want, Cells);

    EXPECT_EQ(S.CellsAudited, Spec.numCells());
    EXPECT_GE(S.Mismatches, 1u);
    EXPECT_EQ(S.StoreCorruptions, S.Mismatches);
    EXPECT_EQ(S.CellsQuarantined, S.Mismatches);
    EXPECT_EQ(S.CellsRequeued, S.Mismatches);
    EXPECT_EQ(S.ComputeDivergences, 0u);
    EXPECT_EQ(S.Nondeterminism, 0u);
  }
  ::unsetenv("VMIB_FAULT");

  // Quarantine preserved the evidence durably: value-fingerprint
  // tombstones plus an evidence record under quarantine/ — and no
  // segment was deleted.
  EXPECT_GE(countFiles(StoreDir, ".vmibtomb"), 1u);
  EXPECT_GE(countFiles(StoreDir + "/quarantine", ".vmibstore"), 1u);
  EXPECT_GE(countFiles(StoreDir, ".vmibstore"), 1u);

  // Fault-free re-run over the repaired store: zero mismatches, exact
  // cells.
  {
    ResultStore St;
    std::string Diag;
    ASSERT_TRUE(St.open(StoreDir, &Diag)) << Diag;
    Executor.setResultStore(&St);
    AuditPlan Plan;
    Plan.Rate = 1.0;
    Auditor Aud(Plan, Executor, &St);
    Executor.setAuditor(&Aud);
    std::vector<PerfCounters> Cells;
    Executor.runAll(Spec, 1, Cells);
    Executor.setAuditor(nullptr);
    Executor.setResultStore(nullptr);
    const AuditStats &S = Aud.stats();
    St.close();
    expectCellsEqual(Want, Cells);
    EXPECT_EQ(S.CellsAudited, Spec.numCells());
    EXPECT_EQ(S.Mismatches, 0u);
    EXPECT_EQ(S.CellsQuarantined, 0u);
    EXPECT_EQ(S.CellsRequeued, 0u);
  }
}

//===--- orchestrated store corruption ------------------------------------===//

TEST_F(AuditTest, OrchestratedAuditQuarantinesServedStoreCorruption) {
  // The sharded flavor of the same scenario: jobs are served whole
  // from the orchestrator's pre-dispatch store probe (no worker ever
  // spawns for them), so only the audit shards stand between a
  // flip-served store and the final tables.
  SweepSpec Spec = auditForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);
  std::string StoreDir = std::string(Dir) + "/results";

  {
    ResultStore St;
    std::string Diag;
    ASSERT_TRUE(St.open(StoreDir, &Diag)) << Diag;
    Executor.setResultStore(&St);
    std::vector<PerfCounters> Cells;
    Executor.runAll(Spec, 1, Cells);
    Executor.setResultStore(nullptr);
    St.close();
  }

  ASSERT_EQ(0, ::setenv("VMIB_FAULT", "flipstore=1.0,seed=7", 1));
  ResultStore St;
  std::string Diag;
  ASSERT_TRUE(St.open(StoreDir, &Diag)) << Diag; // parses VMIB_FAULT
  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.Store = &St;
  Opt.Audit.Rate = 1.0;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  ::unsetenv("VMIB_FAULT");
  St.close();
  expectCellsEqual(Want, Cells);

  // Flipstore mass 1 corrupts EVERY served cell, so as long as the
  // store served anything the audit had something real to catch.
  EXPECT_GE(Report.JobsServedFromStore + Report.StoreHits, 1u);
  EXPECT_GE(Report.AuditMismatches, 1u);
  EXPECT_GE(Report.AuditStoreCorruptions, 1u);
  EXPECT_GE(Report.CellsQuarantined, 1u);
  EXPECT_EQ(Report.CellsRequeued, Report.AuditMismatches);
  EXPECT_TRUE(Report.complete());
  EXPECT_GE(countFiles(StoreDir, ".vmibtomb"), 1u);
}

//===--- the null result: clean runs audit clean --------------------------===//

TEST_F(AuditTest, CleanAuditedSweepReportsZeroMismatches) {
  SweepSpec Spec = auditForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);

  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.Audit.Rate = 0.25;
  // Make sure the 25% sample is non-empty for this spec (a zero-cell
  // audit would vacuously "pass"); the seeded draw is pure, so this is
  // a fixed property, not a retry loop at run time.
  while (true) {
    size_t Sampled = 0;
    for (size_t W = 0; W < Spec.Benchmarks.size(); ++W)
      for (size_t M = 0; M < Spec.membersPerWorkload(); ++M)
        Sampled += decideAudit(Opt.Audit, Spec, W, M);
    if (Sampled > 0)
      break;
    ++Opt.Audit.Seed;
  }

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  expectCellsEqual(Want, Cells);
  EXPECT_GE(Report.AuditShardsLaunched, 1u);
  EXPECT_GE(Report.CellsAudited, 1u);
  EXPECT_EQ(Report.AuditMismatches, 0u);
  EXPECT_EQ(Report.AuditTiebreaksLaunched, 0u);
  EXPECT_EQ(Report.AuditStoreCorruptions, 0u);
  EXPECT_EQ(Report.AuditComputeDivergences, 0u);
  EXPECT_EQ(Report.AuditNondeterminism, 0u);
  EXPECT_EQ(Report.CellsQuarantined, 0u);
  EXPECT_EQ(Report.CellsRequeued, 0u);
  EXPECT_TRUE(Report.complete());
}
