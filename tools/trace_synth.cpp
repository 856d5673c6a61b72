//===- tools/trace_synth.cpp - Synthetic mega-trace generator -------------===//
///
/// Generates a synthetic Markov dispatch trace (workloads/SynthSuite.h)
/// straight into the trace cache, where every downstream consumer —
/// sweep_driver, the labs, the result store — picks it up exactly like
/// a captured one:
///
///   trace_synth --seed=S --events=N[k|m|g] --entropy=E
///               [--out=PATH]              write here instead of the cache
///   trace_synth --name=synth-markov-s1-n250m-e35   same, from the
///               canonical benchmark name
///   trace_synth ... --emit-spec    print a ready-to-run sweep spec for
///               the workload (the CI smoke input) instead of generating
///               (--threads=N and --decode=MODE override its fields)
///
/// An unknown flag exits 1 with a diagnostic.
///
/// Generation is O(events) with no interpreter state, so this is how
/// multi-hundred-million-event decode/replay-bandwidth inputs are made:
/// the real suite tops out around 10^7 events per benchmark. The
/// [timing] line reports generation and save throughput plus the
/// on-disk compression ratio (logical 8-bytes-per-event footprint /
/// file bytes), and the benchmark NAME is the workload — running the
/// emitted spec through sweep_driver needs no side channel, because
/// the labs regenerate (or cache-load) the trace from the name alone.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "workloads/SynthSuite.h"

#include <cstdio>
#include <string>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  std::string Unknown = Opts.firstUnknown(
      {"name", "seed", "events", "entropy", "out", "emit-spec", "threads",
       "decode"});
  if (!Unknown.empty()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", Unknown.c_str());
    return 1;
  }

  // Both flag styles funnel through the one name grammar, so the
  // validation (suffix scaling, entropy range, overflow) lives in
  // exactly one place and --name round-trips what --seed/... builds.
  std::string Name;
  if (Opts.has("name")) {
    Name = Opts.get("name");
  } else if (Opts.has("events")) {
    Name = "synth-markov-s" + (Opts.has("seed") ? Opts.get("seed") : "1") +
           "-n" + Opts.get("events") + "-e" +
           (Opts.has("entropy") ? Opts.get("entropy") : "50");
  } else {
    std::fprintf(stderr,
                 "usage: trace_synth --seed=S --events=N[k|m|g] "
                 "--entropy=0..100 [--out=PATH] "
                 "[--emit-spec [--threads=N]]\n"
                 "       trace_synth --name=synth-markov-s<seed>-"
                 "n<events>[k|m|g]-e<entropy> [...]\n");
    return 2;
  }
  SynthWorkloadParams Params;
  std::string Error;
  if (!parseSynthBenchmarkName(Name, Params, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  Name = synthBenchmarkName(Params); // canonical (collapses suffixes)

  if (Opts.has("emit-spec")) {
    // A four-variant single-benchmark sweep: enough members to fan a
    // gang out over threads, small enough for a smoke cell.
    SweepSpec Spec = bench::suiteSpec(
        "synthsmoke", "forth", {Name},
        {makeVariant(DispatchStrategy::Threaded),
         makeVariant(DispatchStrategy::StaticRepl),
         makeVariant(DispatchStrategy::StaticSuper),
         makeVariant(DispatchStrategy::StaticBoth)},
        "p4northwood");
    int ExitCode = 0;
    if (!bench::applySpecOverrides(Opts, Spec, ExitCode))
      return ExitCode;
    std::fputs(printSweepSpec(Spec).c_str(), stdout);
    return 0;
  }

  std::string Out = Opts.get("out");
  if (Out.empty())
    Out = DispatchTrace::cachePathFor("forth-" + Name);
  if (Out.empty()) {
    std::fprintf(stderr, "error: no destination: set VMIB_TRACE_CACHE or "
                         "pass --out=PATH\n");
    return 1;
  }

  ForthUnit Unit = buildSynthUnit(Params);
  std::string Invalid = Unit.Program.validate(forth::opcodeSet());
  if (!Invalid.empty()) {
    std::fprintf(stderr, "error: generated program invalid: %s\n",
                 Invalid.c_str());
    return 1;
  }

  WallTimer GenTimer;
  DispatchTrace Trace;
  generateSynthTrace(Params, Unit.Program, Trace);
  double GenerateSeconds = GenTimer.seconds();

  WallTimer SaveTimer;
  if (!Trace.save(Out, synthWorkloadHash(Params))) {
    std::fprintf(stderr, "error: could not write %s\n", Out.c_str());
    return 1;
  }
  double SaveSeconds = SaveTimer.seconds();

  DispatchTrace::FileInfo Info;
  if (!DispatchTrace::peekFileInfo(Out, Info)) {
    std::fprintf(stderr, "error: wrote %s but cannot read its header back\n",
                 Out.c_str());
    return 1;
  }

  std::printf("%s: %llu events -> %s\n", Name.c_str(),
              (unsigned long long)Trace.numEvents(), Out.c_str());
  std::printf("[timing] bench=trace_synth:%s events=%llu generate_s=%.3f "
              "save_s=%.3f events_per_s=%.3g version=%llu bytes=%llu "
              "logical=%llu ratio=%.2f\n",
              Name.c_str(), (unsigned long long)Trace.numEvents(),
              GenerateSeconds, SaveSeconds,
              GenerateSeconds > 0
                  ? (double)Trace.numEvents() / GenerateSeconds
                  : 0.0,
              (unsigned long long)Info.Version,
              (unsigned long long)Info.FileBytes,
              (unsigned long long)Info.LogicalBytes, Info.ratio());
  return 0;
}
