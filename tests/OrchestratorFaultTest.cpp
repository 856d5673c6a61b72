//===- tests/OrchestratorFaultTest.cpp - Fault-tolerant fan-out -----------===//
///
/// Pins the orchestrator's failure model (SweepOrchestrator.h):
///  - a failed attempt's partial rows are discarded and the job is
///    requeued with backoff; the recovered sweep is bit-identical to
///    the in-process executor,
///  - a job that exhausts its retries fails the sweep loudly, with the
///    worker's stderr tail in the diagnostic,
///  - hung workers are SIGTERMed at the job timeout and SIGKILLed
///    after the grace period,
///  - --partial-ok degrades exhausted jobs into a per-cell coverage
///    report while every surviving cell stays exact,
///  - straggler hedging re-dispatches outstanding jobs and the first
///    completion wins,
///  - under VMIB_FAULT chaos (worker crashes, hangs, protocol garbage)
///    the orchestrator still converges to bit-identical results on
///    both suites,
///  - the VMIB_FAULT grammar parses/rejects correctly and draws are
///    deterministic,
///  - a malformed `--shards` count or an unknown flag exits 1 with a
///    diagnostic.
///
/// Worker templates are tiny shell programs wrapping the real
/// `sweep_driver --worker` sibling binary, so every failure is
/// injected deterministically — no sleeps-and-hope.
///
//===----------------------------------------------------------------------===//

#include "harness/FaultInjection.h"
#include "harness/SweepExecutor.h"
#include "harness/SweepOrchestrator.h"
#include "harness/SweepSpec.h"
#include "workloads/ForthSuite.h"
#include "workloads/JavaSuite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace vmib;

namespace {

/// The shell tail every template ends with: run the real worker.
const char *WorkerExec =
    "exec {driver} --worker --spec={spec} --shards={shards} --job={job} "
    "--threads={threads} --attempt={attempt}";

SweepSpec faultForthSpec() {
  SweepSpec S;
  S.Name = "faulttest_forth";
  S.Suite = "forth";
  S.Benchmarks = {forthSuite()[0].Name, forthSuite()[1].Name};
  S.Cpus = {"p4northwood"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::StaticRepl),
                makeVariant(DispatchStrategy::DynamicSuper)};
  return S;
}

SweepSpec faultJavaSpec() {
  SweepSpec S;
  S.Name = "faulttest_java";
  S.Suite = "java";
  S.Benchmarks = {javaSuite()[0].Name, javaSuite()[1].Name};
  S.Cpus = {"p4northwood"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::DynamicSuper)};
  return S;
}

void expectCellsEqual(const std::vector<PerfCounters> &A,
                      const std::vector<PerfCounters> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(0, std::memcmp(&A[I], &B[I], sizeof(PerfCounters)))
        << "cell " << I << " diverges";
}

class OrchestratorFaultTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::snprintf(Dir, sizeof(Dir), "/tmp/vmib-fault-test-XXXXXX");
    ASSERT_NE(nullptr, ::mkdtemp(Dir));
    // Workers share one trace cache with the in-process reference, so
    // a worker attempt loads its trace instead of re-interpreting.
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

  /// Writes \p Spec under the fixture dir and returns its path.
  std::string writeSpec(const SweepSpec &Spec) {
    std::string Path = std::string(Dir) + "/" + Spec.Name + ".spec";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    EXPECT_NE(nullptr, F);
    std::string Text = printSweepSpec(Spec);
    std::fwrite(Text.data(), 1, Text.size(), F);
    std::fclose(F);
    return Path;
  }

  /// In-process ground truth (also warms the shared trace cache).
  std::vector<PerfCounters> reference(const SweepSpec &Spec) {
    std::vector<PerfCounters> Cells;
    Executor.runAll(Spec, 1, Cells);
    return Cells;
  }

  /// Options wired to the fixture: quiet, fast backoff.
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

//===--- retry / requeue --------------------------------------------------===//

TEST_F(OrchestratorFaultTest, RetryRequeueRecoversAndMergesBitIdentical) {
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);

  // EVERY job's first attempt dies after writing its stderr marker;
  // the retry (attempt 1) runs the real worker.
  SweepWorkerOptions Opt = baseOptions(SpecPath, 4);
  Opt.CommandTemplate = std::string("if [ {attempt} -lt 1 ]; then "
                                    "echo boom-{job} >&2; exit 9; fi; ") +
                        WorkerExec;
  Opt.Retries = 2;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  expectCellsEqual(Want, Cells);

  size_t Jobs = decomposeSweep(Spec, 4).size();
  EXPECT_EQ(Report.WorkerFailures, Jobs);
  EXPECT_EQ(Report.RetriesScheduled, Jobs);
  EXPECT_EQ(Report.Timeouts, 0u);
  EXPECT_TRUE(Report.complete());
  EXPECT_EQ(Report.cellsCovered(), Spec.numCells());
  // The first failure's diagnosis survives the successful recovery.
  EXPECT_NE(Report.FirstFailure.find("boom-"), std::string::npos)
      << Report.FirstFailure;
  EXPECT_NE(Report.FirstFailure.find("exited with status 9"),
            std::string::npos)
      << Report.FirstFailure;
}

TEST_F(OrchestratorFaultTest, ExhaustedRetriesFailLoudlyWithStderrTail) {
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);

  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.CommandTemplate = "echo catastrophic-banana >&2; exit 3";
  Opt.Retries = 1;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_FALSE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report));
  // The sweep error names the exit status, the retry budget, and —
  // crucially for field diagnosis — the worker's own stderr.
  EXPECT_NE(Error.find("exited with status 3"), std::string::npos) << Error;
  EXPECT_NE(Error.find("catastrophic-banana"), std::string::npos) << Error;
  EXPECT_NE(Error.find("failed after 2 attempt(s)"), std::string::npos)
      << Error;
  EXPECT_GE(Report.WorkerFailures, 2u); // first attempt + its retry
}

//===--- timeouts ---------------------------------------------------------===//

TEST_F(OrchestratorFaultTest, TimeoutKillsHungWorker) {
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);

  // A worker that never speaks: SIGTERM at the deadline ends it.
  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.CommandTemplate = "sleep 30";
  Opt.JobTimeoutMs = 300;
  Opt.KillGraceMs = 200;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_FALSE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report));
  EXPECT_NE(Error.find("timed out after 300 ms"), std::string::npos) << Error;
  EXPECT_GE(Report.Timeouts, 1u);
}

TEST_F(OrchestratorFaultTest, TimeoutEscalatesToSigkillWhenTermIgnored) {
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);

  // The worst hang: the worker ignores SIGTERM, so only the SIGKILL
  // escalation after the grace period can reclaim the slot.
  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.CommandTemplate = "trap '' TERM; while :; do sleep 1; done";
  Opt.JobTimeoutMs = 300;
  Opt.KillGraceMs = 200;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_FALSE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report));
  EXPECT_NE(Error.find("escalated to SIGKILL"), std::string::npos) << Error;
  EXPECT_GE(Report.Timeouts, 1u);
}

//===--- partial-ok degradation -------------------------------------------===//

TEST_F(OrchestratorFaultTest, PartialOkCompletesWithCoverageReport) {
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);

  // Job 0 is beyond saving; every other job runs the real worker.
  SweepWorkerOptions Opt = baseOptions(SpecPath, 4);
  Opt.CommandTemplate = std::string("if [ {job} -eq 0 ]; then "
                                    "echo dead-zero >&2; exit 7; fi; ") +
                        WorkerExec;
  Opt.Retries = 1;
  Opt.PartialOk = true;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  ASSERT_EQ(Report.FailedJobs.size(), 1u);
  EXPECT_EQ(Report.FailedJobs[0], 0u);
  ASSERT_EQ(Report.FailedJobErrors.size(), 1u);
  EXPECT_NE(Report.FailedJobErrors[0].find("dead-zero"), std::string::npos)
      << Report.FailedJobErrors[0];
  EXPECT_FALSE(Report.complete());

  // Lost cells are zero-filled and reported uncovered; every cell a
  // surviving job owns is bit-identical to the in-process sweep.
  std::vector<ShardJob> Jobs = decomposeSweep(Spec, 4);
  ASSERT_EQ(Cells.size(), Want.size());
  ASSERT_EQ(Report.CellCovered.size(), Want.size());
  std::vector<uint8_t> Lost(Want.size(), 0);
  for (size_t M = Jobs[0].MemberBegin; M < Jobs[0].MemberEnd; ++M)
    Lost[Spec.cellIndex(Jobs[0].Workload, M)] = 1;
  PerfCounters Zero{};
  for (size_t I = 0; I < Cells.size(); ++I) {
    EXPECT_EQ(Report.CellCovered[I], Lost[I] ? 0 : 1) << "cell " << I;
    const PerfCounters &Expect = Lost[I] ? Zero : Want[I];
    EXPECT_EQ(0, std::memcmp(&Cells[I], &Expect, sizeof(PerfCounters)))
        << "cell " << I;
  }
  EXPECT_EQ(Report.cellsCovered(),
            Want.size() - (Jobs[0].MemberEnd - Jobs[0].MemberBegin));
}

//===--- straggler hedging ------------------------------------------------===//

TEST_F(OrchestratorFaultTest, HedgingFirstCompletionWins) {
  SweepSpec Spec = faultForthSpec();
  Spec.Benchmarks = {forthSuite()[0].Name}; // one workload, 3 members
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);

  // Attempt 0 of the last job stalls forever; the hedge (attempt 1)
  // dispatched into the idle slot wins and the straggler is killed.
  SweepWorkerOptions Opt = baseOptions(SpecPath, 3);
  Opt.CommandTemplate = std::string("if [ {job} -eq 2 ] && "
                                    "[ {attempt} -eq 0 ]; then sleep 60; "
                                    "fi; ") +
                        WorkerExec;
  Opt.HedgeLast = 1;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  expectCellsEqual(Want, Cells);
  EXPECT_GE(Report.HedgesLaunched, 1u);
  EXPECT_GE(Report.HedgeWins, 1u);
  EXPECT_EQ(Report.RetriesScheduled, 0u); // hedging, not retrying
  EXPECT_TRUE(Report.complete());
}

//===--- chaos: VMIB_FAULT end to end -------------------------------------===//

TEST_F(OrchestratorFaultTest, ChaosFaultInjectionRecoversBothSuites) {
  // Workers misbehave via the deterministic in-worker fault harness —
  // crash mid-stream, emit rows outside their shard, truncate,
  // duplicate — on a seeded schedule that faults a healthy fraction of
  // first attempts. With retries the sweep must still converge to the
  // exact in-process cells on BOTH suites.
  ASSERT_EQ(0, ::setenv("VMIB_FAULT",
                        "kill=0.2,garble=0.15,trunc=0.1,dup=0.1,seed=11", 1));
  for (bool Java : {false, true}) {
    SweepSpec Spec = Java ? faultJavaSpec() : faultForthSpec();
    std::string SpecPath = writeSpec(Spec);
    std::vector<PerfCounters> Want = reference(Spec);

    SweepWorkerOptions Opt = baseOptions(SpecPath, 4);
    Opt.Retries = 3;
    Opt.JobTimeoutMs = 60000; // only a backstop; no hangs in this plan

    std::vector<PerfCounters> Cells;
    SweepRunStats Stats;
    std::string Error;
    OrchestratorReport Report;
    ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
        << (Java ? "java: " : "forth: ") << Error;
    expectCellsEqual(Want, Cells);
    EXPECT_TRUE(Report.complete());
    EXPECT_EQ(Report.cellsCovered(), Spec.numCells());
    if (!Java) {
      // The forth seed is chosen to actually fault first attempts —
      // a chaos test that injects nothing tests nothing.
      EXPECT_GT(Report.WorkerFailures, 0u);
      EXPECT_GT(Report.RetriesScheduled, 0u);
    }
  }
}

//===--- dead-orchestrator pipe: SIGPIPE handling -------------------------===//

TEST_F(OrchestratorFaultTest, WorkerSurvivesSigpipeAndFailsWithDiagnostic) {
  // A worker whose orchestrator died mid-flight writes [result] rows
  // into a pipe nobody reads. The default SIGPIPE disposition would
  // kill it silently (WIFSIGNALED, no diagnostic); the worker instead
  // ignores SIGPIPE, detects the EPIPE on its stdout stream, and exits
  // non-zero with a stderr explanation. Exercised by direct fork/exec —
  // a shell pipeline would mask the worker's exit status.
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);
  reference(Spec); // warm the shared trace cache; keeps the worker fast

  std::string Driver = defaultSweepDriverPath();
  std::string SpecArg = "--spec=" + SpecPath;
  int OutPipe[2], ErrPipe[2];
  ASSERT_EQ(0, ::pipe(OutPipe));
  ASSERT_EQ(0, ::pipe(ErrPipe));
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    ::dup2(OutPipe[1], 1);
    ::dup2(ErrPipe[1], 2);
    ::close(OutPipe[0]);
    ::close(OutPipe[1]);
    ::close(ErrPipe[0]);
    ::close(ErrPipe[1]);
    ::execl(Driver.c_str(), Driver.c_str(), "--worker", SpecArg.c_str(),
            "--shards=2", "--job=0", "--threads=1", "--attempt=0",
            (char *)nullptr);
    ::_exit(127);
  }
  // The "orchestrator" dies: both ends of the worker's stdout close
  // before it can deliver a single row.
  ::close(OutPipe[1]);
  ::close(OutPipe[0]);
  ::close(ErrPipe[1]);
  std::string Err;
  char Buf[512];
  ssize_t N;
  while ((N = ::read(ErrPipe[0], Buf, sizeof(Buf))) > 0)
    Err.append(Buf, static_cast<size_t>(N));
  ::close(ErrPipe[0]);
  int Status = 0;
  ASSERT_EQ(Pid, ::waitpid(Pid, &Status, 0));
  ASSERT_TRUE(WIFEXITED(Status)) << "worker died on a signal instead of "
                                    "exiting cleanly; status " << Status;
  EXPECT_NE(WEXITSTATUS(Status), 0);
  EXPECT_NE(WEXITSTATUS(Status), 127) << "worker binary failed to exec";
  EXPECT_NE(Err.find("could not write results"), std::string::npos) << Err;
}

//===--- count flags are strict decimal -----------------------------------===//

namespace {

/// Runs \p Tool, a binary beside sweep_driver, with \p Args by direct
/// fork/exec (stdout discarded) so the exit status is the tool's own.
/// \returns that status, or -1 when the tool did not exit normally;
/// its stderr lands in \p Err.
int execTool(const std::string &Tool, const std::vector<std::string> &Args,
             std::string &Err) {
  std::string Driver = defaultSweepDriverPath();
  std::string Path = Driver.substr(0, Driver.rfind('/') + 1) + Tool;
  std::vector<char *> Argv = {const_cast<char *>(Path.c_str())};
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  int ErrPipe[2];
  if (::pipe(ErrPipe) != 0)
    return -1;
  pid_t Pid = ::fork();
  if (Pid == 0) {
    std::FILE *Null = std::fopen("/dev/null", "w");
    if (Null)
      ::dup2(::fileno(Null), 1);
    ::dup2(ErrPipe[1], 2);
    ::close(ErrPipe[0]);
    ::close(ErrPipe[1]);
    ::execv(Path.c_str(), Argv.data());
    ::_exit(127);
  }
  ::close(ErrPipe[1]);
  char Buf[512];
  ssize_t N;
  while ((N = ::read(ErrPipe[0], Buf, sizeof(Buf))) > 0)
    Err.append(Buf, static_cast<size_t>(N));
  ::close(ErrPipe[0]);
  int Status = 0;
  if (Pid < 0 || ::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status))
    return -1;
  return WEXITSTATUS(Status);
}

} // namespace

TEST_F(OrchestratorFaultTest, MalformedShardCountExitsWithDiagnostic) {
  // `--shards=foo` once ran 1 shard, `010` ran 8 (octal) and `4x` ran
  // 4: a typo'd fan-out must stop the sweep with a diagnostic instead.
  std::string SpecArg = "--spec=" + writeSpec(faultForthSpec());
  for (const char *Bad : {"--shards=foo", "--shards=010", "--shards=4x"}) {
    std::string Err;
    EXPECT_EQ(1, execTool("sweep_driver", {SpecArg, Bad}, Err)) << Bad;
    EXPECT_NE(Err.find("bad --shards"), std::string::npos)
        << Bad << ": " << Err;
  }
}

TEST_F(OrchestratorFaultTest, UnknownFlagExitsWithDiagnostic) {
  // A removed or misspelled flag used to be ignored: `--schedule=dynamic`
  // (the deleted scheduler) ran the sweep as if it were absent.
  std::string SpecArg = "--spec=" + writeSpec(faultForthSpec());
  std::string Err;
  EXPECT_EQ(1, execTool("sweep_driver",
                        {SpecArg, "--in-process", "--schedule=dynamic"},
                        Err));
  EXPECT_NE(Err.find("unknown flag --schedule"), std::string::npos) << Err;
  Err.clear();
  EXPECT_EQ(1, execTool("trace_synth",
                        {"--events=1k", "--emit-spec", "--schedule=dynamic"},
                        Err));
  EXPECT_NE(Err.find("unknown flag --schedule"), std::string::npos) << Err;
  // The known flags still run.
  Err.clear();
  EXPECT_EQ(0, execTool("trace_synth", {"--events=1k", "--emit-spec",
                                        "--threads=2"},
                        Err))
      << Err;
}

//===--- store open failure degrades to a storeless run -------------------===//

TEST_F(OrchestratorFaultTest, UnopenableStoreDegradesToStorelessRun) {
  // VMIB_RESULT_STORE points below a regular file — a directory that
  // can never be created, for every uid (these tests often run as
  // root, where permission-bit read-only dirs do not block). Workers
  // must warn, run storeless, and still converge bit-identically.
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);

  std::string Blocker = std::string(Dir) + "/blocker";
  std::FILE *F = std::fopen(Blocker.c_str(), "w");
  ASSERT_NE(nullptr, F);
  std::fputs("not a directory\n", F);
  std::fclose(F);
  ASSERT_EQ(0, ::setenv("VMIB_RESULT_STORE",
                        (Blocker + "/results").c_str(), 1));

  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  expectCellsEqual(Want, Cells);
  EXPECT_TRUE(Report.complete());
  EXPECT_EQ(Report.JobsServedFromStore, 0u);
  EXPECT_EQ(Report.StoreHits, 0u);
  EXPECT_EQ(Report.WorkerFailures, 0u);
}

//===--- VMIB_FAULT grammar -----------------------------------------------===//

TEST(FaultInjection, ParsesFullGrammar) {
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(parseFaultPlan("kill=0.25,hang=0.1,garble=0.1,trunc=0.05,"
                             "dup=0.05,seed=42",
                             Plan, Error))
      << Error;
  EXPECT_DOUBLE_EQ(Plan.Kill, 0.25);
  EXPECT_DOUBLE_EQ(Plan.Hang, 0.1);
  EXPECT_DOUBLE_EQ(Plan.Garble, 0.1);
  EXPECT_DOUBLE_EQ(Plan.Trunc, 0.05);
  EXPECT_DOUBLE_EQ(Plan.Dup, 0.05);
  EXPECT_EQ(Plan.Seed, 42u);
  EXPECT_TRUE(Plan.any());
}

TEST(FaultInjection, NullAndEmptyAreInert) {
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(parseFaultPlan(nullptr, Plan, Error));
  EXPECT_FALSE(Plan.any());
  ASSERT_TRUE(parseFaultPlan("", Plan, Error));
  EXPECT_FALSE(Plan.any());
  EXPECT_EQ(decideFault(Plan, 0, 0), FaultMode::None);
}

TEST(FaultInjection, RejectsMalformedPlans) {
  FaultPlan Plan;
  std::string Error;
  EXPECT_FALSE(parseFaultPlan("explode=0.5", Plan, Error));
  EXPECT_NE(Error.find("unknown fault key"), std::string::npos);
  EXPECT_FALSE(parseFaultPlan("kill=1.5", Plan, Error));
  EXPECT_NE(Error.find("probability"), std::string::npos);
  EXPECT_FALSE(parseFaultPlan("kill=banana", Plan, Error));
  EXPECT_FALSE(parseFaultPlan("kill", Plan, Error));
  EXPECT_NE(Error.find("'='"), std::string::npos);
  EXPECT_FALSE(parseFaultPlan("kill=0.7,hang=0.7", Plan, Error));
  EXPECT_NE(Error.find("sum past 1"), std::string::npos);
  EXPECT_FALSE(parseFaultPlan("seed=notanumber", Plan, Error));
  // Regression: strtoull quietly accepts "-1" (wrapping to 2^64-1) and
  // saturates on overflow — both must reject, not seed silently.
  EXPECT_FALSE(parseFaultPlan("seed=-1", Plan, Error));
  EXPECT_NE(Error.find("seed"), std::string::npos);
  EXPECT_FALSE(parseFaultPlan("seed=99999999999999999999999", Plan, Error));
  EXPECT_NE(Error.find("seed"), std::string::npos);
  EXPECT_FALSE(parseFaultPlan("seed=", Plan, Error));
  EXPECT_FALSE(parseFaultPlan("seed=42x", Plan, Error));
}

TEST(FaultInjection, DrawsAreDeterministicAndAttemptFresh) {
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(parseFaultPlan("kill=0.3,garble=0.3,dup=0.3,seed=7", Plan,
                             Error));
  // Pure function of (seed, job, attempt): same inputs, same mode.
  for (size_t Job = 0; Job < 64; ++Job)
    for (unsigned Attempt = 0; Attempt < 4; ++Attempt)
      EXPECT_EQ(decideFault(Plan, Job, Attempt),
                decideFault(Plan, Job, Attempt));
  // Retries get FRESH draws: across many jobs, attempt 1 must not
  // always repeat attempt 0's mode (that would make retries useless
  // against deterministic faults).
  bool AttemptChangesSomething = false;
  for (size_t Job = 0; Job < 64 && !AttemptChangesSomething; ++Job)
    AttemptChangesSomething =
        decideFault(Plan, Job, 0) != decideFault(Plan, Job, 1);
  EXPECT_TRUE(AttemptChangesSomething);
  // And the configured mass actually faults some jobs.
  unsigned Faulted = 0;
  for (size_t Job = 0; Job < 64; ++Job)
    Faulted += decideFault(Plan, Job, 0) != FaultMode::None;
  EXPECT_GT(Faulted, 0u);
  EXPECT_LT(Faulted, 64u);
}

TEST(FaultInjection, ParsesFlipGrammar) {
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(
      parseFaultPlan("flipcounter=0.25,flipstore=0.5,seed=9", Plan, Error))
      << Error;
  EXPECT_DOUBLE_EQ(Plan.FlipCounter, 0.25);
  EXPECT_DOUBLE_EQ(Plan.FlipStore, 0.5);
  EXPECT_EQ(Plan.Seed, 9u);
  EXPECT_TRUE(Plan.anyFlip());
  // The flip masses are their own independent pair — they join neither
  // the worker-fault nor the filesystem-fault cumulative budget.
  EXPECT_FALSE(Plan.any());
  EXPECT_FALSE(Plan.anyFs());
  ASSERT_TRUE(parseFaultPlan("flipcounter=1.0,flipstore=1.0", Plan, Error))
      << Error;
  EXPECT_FALSE(parseFaultPlan("flipcounter=1.5", Plan, Error));
  EXPECT_NE(Error.find("probability"), std::string::npos) << Error;
  EXPECT_FALSE(parseFaultPlan("flipstore=banana", Plan, Error));
  // The unknown-key diagnostic advertises the flip keys.
  EXPECT_FALSE(parseFaultPlan("flipeverything=0.5", Plan, Error));
  EXPECT_NE(Error.find("flipcounter"), std::string::npos) << Error;
  EXPECT_NE(Error.find("flipstore"), std::string::npos) << Error;
}

TEST(FaultInjection, FlipDrawsAreDeterministicPerCellAndPerKey) {
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(
      parseFaultPlan("flipcounter=0.5,flipstore=0.5,seed=21", Plan, Error));
  // flipcounter: pure per (seed, workload, member) — NOT per attempt,
  // so a retry reproduces the same corruption and cannot wash it out.
  unsigned W1, B1, W2, B2;
  unsigned FiredCells = 0;
  for (size_t W = 0; W < 8; ++W)
    for (size_t M = 0; M < 8; ++M) {
      bool F1 = decideCounterFlip(Plan, W, M, W1, B1);
      bool F2 = decideCounterFlip(Plan, W, M, W2, B2);
      ASSERT_EQ(F1, F2);
      if (F1) {
        EXPECT_EQ(W1, W2);
        EXPECT_EQ(B1, B2);
        EXPECT_LT(W1, PerfCounters::NumWords);
        EXPECT_LT(B1, 64u);
        ++FiredCells;
      }
    }
  EXPECT_GT(FiredCells, 0u);
  EXPECT_LT(FiredCells, 64u);
  // flipstore: pure per 128-bit store key — every serve of the cell is
  // corrupted identically while other keys draw independently.
  unsigned FiredKeys = 0;
  for (uint64_t K = 0; K < 64; ++K) {
    bool F1 = decideStoreFlip(Plan, K * 7919, ~K, W1, B1);
    bool F2 = decideStoreFlip(Plan, K * 7919, ~K, W2, B2);
    ASSERT_EQ(F1, F2);
    if (F1) {
      EXPECT_EQ(W1, W2);
      EXPECT_EQ(B1, B2);
      EXPECT_LT(W1, PerfCounters::NumWords);
      EXPECT_LT(B1, 64u);
      ++FiredKeys;
    }
  }
  EXPECT_GT(FiredKeys, 0u);
  EXPECT_LT(FiredKeys, 64u);
  // An inert plan never fires either draw.
  FaultPlan None;
  EXPECT_FALSE(decideCounterFlip(None, 0, 0, W1, B1));
  EXPECT_FALSE(decideStoreFlip(None, 1, 2, W1, B1));
}
