//===- bench/table06_forth_suite.cpp - Paper Table VI ---------------------===//
///
/// Regenerates Table VI: the Forth benchmark inventory, with source
/// sizes, compiled VM code sizes, and a reference execution check for
/// each program. The step column is declared as a one-variant (plain)
/// SweepSpec routed through the shared declarative runner — the trace
/// length *is* the step count (one event per interpreter step), so the
/// table doubles as a consistency check on cached trace files, and the
/// bench gains --emit-spec / --spec / --shards / --worker-cmd: with
/// --shards=N and VMIB_TRACE_CACHE set, N worker processes capture and
/// verify the suite's traces in parallel and populate the shared
/// cache.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  const std::string Banner =
      "=== Table VI: benchmark programs used in Gforth ===\n\n";
  ForthLab Lab;

  SweepSpec Spec = bench::suiteSpec(
      "table06_forth_suite", "forth",
      bench::forthBenchNames(Opts.has("quick")),
      {makeVariant(DispatchStrategy::Threaded)}, "p4northwood");
  std::vector<PerfCounters> Cells;
  int Exit = 0;
  if (!bench::runDeclaredSweep(Opts, Spec, Banner, &Lab, nullptr, Cells,
                               Exit))
    return Exit;

  // runDeclaredSweep already rejected a malformed --shards.
  uint64_t Shards = 0;
  bool Sharded = (Opts.getCount("shards", 0, Shards) && Shards > 1) ||
                 Opts.has("worker-cmd");
  TextTable T({"program", "lines", "VM instrs", "description", "steps",
               "output hash"});
  for (size_t B = 0; B < Spec.Benchmarks.size(); ++B) {
    const ForthBenchmark &Bench = forthBenchmark(Spec.Benchmarks[B]);
    // One event per interpreter step: the plain replay's VM-instruction
    // count is the step count, whichever process produced it.
    uint64_t Steps =
        Cells[Spec.cellIndex(B, Spec.memberIndex(0, 0, 0))].VMInstructions;
    if (Steps != Lab.referenceSteps(Bench.Name)) {
      std::printf("replayed step count / reference mismatch in %s\n",
                  Bench.Name.c_str());
      return 1;
    }
    if (!Sharded &&
        Lab.trace(Bench.Name).numEvents() != Lab.referenceSteps(Bench.Name)) {
      std::printf("cached trace length / reference mismatch in %s\n",
                  Bench.Name.c_str());
      return 1;
    }
    T.addRow({Bench.Name, std::to_string(Bench.sourceLines()),
              std::to_string(Lab.unit(Bench.Name).Program.size()),
              Bench.Description, withThousands(Steps),
              format("%016llx",
                     (unsigned long long)Lab.referenceHash(Bench.Name))});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("All benchmarks are deterministic and self-checking via the\n"
              "output hash; the harness verifies the hash for every\n"
              "interpreter variant.\n");
  return 0;
}
