//===- tests/GoldenTest.cpp - Cells against committed golden fingerprints -===//
///
/// Pins the sweep pipeline against a fixed reference instead of only
/// "path A equals path B": the BTB-geometry ablation and the Figure 7,
/// 8 and 9 sweeps run through SweepExecutor in several execution
/// shapes, and
/// every cell's PerfCounters::fingerprint() must equal the value
/// committed in perfbench/reference/<spec>.ref. A deletion or kernel
/// rewrite that changes any counter of any cell fails here. Between
/// them the Forth specs pin both overflow paths of the gang: BTB-only
/// overflows (the BTB sweep) and I-cache overflows (Figure 7's
/// replicated variants on the Celeron's 16 KB I-cache). Figure 9 pins
/// the Java quickening members and the runtime-overhead cycles every
/// Java cell carries.
///
/// Shapes: {materialize, 1 thread} and {stream, 2 threads}, each
/// without a trace cache (replay off the in-memory capture; a stream
/// request then falls back to the materialized trace) and with one
/// (the second run of a shape reloads or streams the trace files the
/// first run saved).
///
/// The reference files are read-only inputs, keyed exactly as the
/// perfbench driver writes them:
///   cell <benchmark>|<cpu>|<variant name>|<predictor key> <hex>
///
//===----------------------------------------------------------------------===//

#include "harness/SweepExecutor.h"
#include "harness/SweepSpec.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

using namespace vmib;

namespace {

const std::string PerfbenchDir = std::string(VMIB_SOURCE_DIR) + "/perfbench";

std::string predictorKey(const SweepSpec &S, size_t P) {
  if (S.Predictors.empty())
    return "default";
  const PredictorGeometry &G = S.Predictors[P];
  switch (G.PredKind) {
  case PredictorGeometry::Kind::Default:
    return "default";
  case PredictorGeometry::Kind::Btb:
    return format("btb%ux%us%ut%d", G.Btb.Entries, G.Btb.Ways,
                  G.Btb.IndexShift, G.Btb.TwoBitCounters ? 1 : 0);
  case PredictorGeometry::Kind::TwoLevel:
    return format("twolevel%zu", P);
  case PredictorGeometry::Kind::CaseBlock:
    return format("caseblock%u", G.CaseBlockEntries);
  }
  return "unknown";
}

std::string cellKey(const SweepSpec &S, size_t W, size_t M) {
  size_t Cpu, Var, Pred;
  S.decodeMember(M, Cpu, Var, Pred);
  return S.Benchmarks[W] + "|" + S.Cpus[Cpu] + "|" + S.Variants[Var].Name +
         "|" + predictorKey(S, Pred);
}

/// The "cell" lines of a reference file: key -> fingerprint. The key
/// may hold spaces (variant names); the fingerprint is the last token.
std::map<std::string, uint64_t> loadReference(const std::string &Path) {
  std::map<std::string, uint64_t> Cells;
  std::ifstream IS(Path);
  std::string Line;
  while (std::getline(IS, Line)) {
    if (Line.compare(0, 5, "cell ") != 0)
      continue;
    size_t Sp = Line.find_last_of(' ');
    Cells[Line.substr(5, Sp - 5)] =
        std::strtoull(Line.c_str() + Sp + 1, nullptr, 16);
  }
  return Cells;
}

struct Shape {
  TraceDecodeMode Decode;
  unsigned Threads;
};

void expectGolden(const std::string &SpecName) {
  SweepSpec Spec;
  std::string Error;
  ASSERT_TRUE(loadSweepSpecFile(PerfbenchDir + "/specs/" + SpecName + ".spec",
                                Spec, Error))
      << Error;
  std::map<std::string, uint64_t> Golden =
      loadReference(PerfbenchDir + "/reference/" + SpecName + ".ref");
  ASSERT_EQ(Spec.numCells(), Golden.size()) << "reference/spec mismatch";

  char CacheTemplate[] = "/tmp/vmib-golden-XXXXXX";
  ASSERT_NE(nullptr, ::mkdtemp(CacheTemplate));
  const Shape Shapes[] = {
      {TraceDecodeMode::Materialize, 1},
      {TraceDecodeMode::Stream, 2},
  };
  for (bool Cached : {false, true}) {
    if (Cached)
      ::setenv("VMIB_TRACE_CACHE", CacheTemplate, 1);
    else
      ::unsetenv("VMIB_TRACE_CACHE");
    for (const Shape &Sh : Shapes) {
      SweepSpec Run = Spec;
      Run.Decode = Sh.Decode;
      Run.Threads = Sh.Threads;
      std::string What = format("%s decode=%s threads=%u cache=%s",
                                SpecName.c_str(),
                                traceDecodeModeId(Sh.Decode), Sh.Threads,
                                Cached ? "on" : "off");
      // A fresh executor per run: its labs hold no traces, so with the
      // cache on every run after the first goes through the files.
      SweepExecutor Executor;
      std::vector<PerfCounters> Cells;
      SweepRunStats Stats = Executor.runAll(Run, 1, Cells);
      ASSERT_EQ(Spec.numCells(), Cells.size()) << What;
      EXPECT_EQ(Cached && Sh.Decode == TraceDecodeMode::Stream,
                Stats.Load.StreamedDecode)
          << What;
      for (size_t W = 0; W < Spec.Benchmarks.size(); ++W)
        for (size_t M = 0; M < Spec.membersPerWorkload(); ++M) {
          std::string Key = cellKey(Spec, W, M);
          auto It = Golden.find(Key);
          ASSERT_NE(Golden.end(), It) << What << ": no reference for " << Key;
          EXPECT_EQ(It->second, Cells[Spec.cellIndex(W, M)].fingerprint())
              << What << ": cell " << Key;
        }
    }
  }
  ::unsetenv("VMIB_TRACE_CACHE");
  std::string Cleanup = std::string("rm -rf '") + CacheTemplate + "'";
  ASSERT_EQ(0, std::system(Cleanup.c_str()));
}

} // namespace

TEST(GoldenTest, BtbGeometrySweepMatchesReference) {
  expectGolden("ablation_btb_sweep");
}

TEST(GoldenTest, Figure7SweepMatchesReference) {
  expectGolden("fig07_gforth_celeron");
}

TEST(GoldenTest, Figure8SweepMatchesReference) {
  expectGolden("fig08_gforth_p4");
}

// Registered as its own ctest entry (see CMakeLists.txt) so it runs
// beside the Forth goldens.
TEST(GoldenTest, Figure9SweepMatchesReference) {
  expectGolden("fig09_java_p4");
}
