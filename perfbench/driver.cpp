//===- perfbench/driver.cpp - Layered sweep benchmark driver --------------===//
///
/// Measures the sweep pipeline end to end and layer by layer, calling
/// every layer from outside through its public entry points (the labs,
/// DispatchTrace, GangReplayer statistics, SweepExecutor, ResultStore,
/// orchestrateSweep, generateSynthTrace). perfbench/run.py drives it;
/// each mode is one process so that set-up, sweeping and checking never
/// share in-memory caches:
///
///   perfbench_driver info
///   perfbench_driver setup     --workload=W --seed=S --specs=D --rundir=R
///                              --out=F [--probe]
///   perfbench_driver sweep     --workload=W --seed=S --seconds=T --specs=D
///                              --refs=D1,D2 --rundir=R --out=F
///   perfbench_driver trace     (sweep's flags) [--spans=F]
///   perfbench_driver reference --workload=W --seed=S --specs=D --outdir=D
///                              [--refs=D1,D2 --missing-only]
///
/// The caller points VMIB_TRACE_CACHE at a private cache directory and
/// pins every other VMIB_* knob. `setup` fills the empty cache; `sweep`
/// times whole sweeps over the warm cache; `trace` records spans around
/// the layer calls and reports per-layer metrics; `reference` writes
/// the cell fingerprints and table hashes of the canonical execution
/// shape (materialized decode, one thread, static schedule).
///
/// Every mode writes one flat JSON object to --out: the metrics plus the
/// number of cells attempted and failed (fingerprint or table mismatch
/// against the stored reference, or a failed worker attempt).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "harness/ResultStore.h"
#include "harness/SweepExecutor.h"
#include "harness/SweepOrchestrator.h"
#include "support/Table.h"
#include "workloads/SynthSuite.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace vmib;

namespace {

//===--- workload constants ----------------------------------------------===//

/// Threads never exceed this, nor the host's core count.
constexpr unsigned MaxThreads = 4;
constexpr uint64_t MegaEvents = 100000000;
constexpr uint32_t MegaEntropy = 35;
constexpr unsigned OrchestratorShards = 2;
constexpr unsigned OrchestratorThreads = 2;
constexpr double AuditRate = 0.25;
/// Size of the synthetic trace the traced run generates, loads and
/// orchestrates on workloads whose own inputs do not exercise those
/// layers (a small fixed probe, so every per-layer time is measured).
constexpr uint64_t ProbeSynthEvents = 2000000;
/// Fixed inputs of the single-kind member probes.
const char *const MemberProbeForth = "bench-gc";
const char *const MemberProbeJava = "db";
constexpr uint32_t NoEvictBtbEntries = 16384;
constexpr uint32_t LruBtbEntries = 64;
/// Timed iterations per run: at least this many, more while --seconds
/// lasts, never more than the cap.
constexpr size_t MinIterations = 3;
constexpr size_t MaxIterations = 200;
/// Served re-sweeps after each timed sweep: at least one, more while
/// they have taken less than this share of the sweep's wall (a streamed
/// workload's served pass takes about a millisecond, a paper-suite one
/// about a second), at most ServedPerSweep.
constexpr double ServedShare = 0.5;
constexpr size_t ServedPerSweep = 50;

unsigned hostThreads() {
  unsigned H = std::thread::hardware_concurrency();
  return std::max(1u, std::min(MaxThreads, H == 0 ? 1u : H));
}

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

uint64_t fnv64(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

//===--- spans -----------------------------------------------------------===//

/// In-memory span recorder: spans open and close around calls into a
/// layer; a layer's own accounting (e.g. GangReplayer's finish time)
/// becomes a child span ending where its parent ends. Everything stays
/// in memory until the process writes it out at exit.
class SpanLog {
public:
  bool Enabled = false;

  int open(const std::string &Name) {
    if (!Enabled)
      return -1;
    Spans.push_back({Name, Current, now(), 0});
    Current = static_cast<int>(Spans.size()) - 1;
    return Current;
  }
  void close(int Id) {
    if (Id < 0)
      return;
    Spans[Id].End = now();
    Current = Spans[Id].Parent;
  }
  /// A child of the innermost open span whose duration the layer
  /// measured itself; placed at the end of the parent's interval so far.
  void addMeasured(const std::string &Name, double Seconds) {
    if (!Enabled || Seconds <= 0)
      return;
    double End = now();
    Spans.push_back({Name, Current, End - Seconds, End});
  }
  /// Self time per span name over \p Root and its descendants: each
  /// span's duration minus its direct children's.
  std::map<std::string, double> selfTimes(int Root) const {
    std::map<std::string, double> Self;
    std::vector<double> ChildSum(Spans.size(), 0);
    for (size_t I = 0; I < Spans.size(); ++I)
      if (Spans[I].Parent >= 0)
        ChildSum[Spans[I].Parent] += Spans[I].End - Spans[I].Start;
    for (size_t I = 0; I < Spans.size(); ++I)
      if (descends(static_cast<int>(I), Root))
        Self[Spans[I].Name] += std::max(
            0.0, Spans[I].End - Spans[I].Start - ChildSum[I]);
    return Self;
  }
  double duration(int Id) const {
    return Id < 0 ? 0 : Spans[Id].End - Spans[Id].Start;
  }
  bool write(const std::string &Path) const {
    std::ofstream OS(Path);
    double T0 = Spans.empty() ? 0 : Spans.front().Start;
    OS << "[\n";
    for (size_t I = 0; I < Spans.size(); ++I)
      OS << format("  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                   I, Spans[I].Name.c_str(), Spans[I].Parent,
                   Spans[I].Start - T0, Spans[I].End - T0,
                   I + 1 < Spans.size() ? "," : "");
    OS << "]\n";
    return static_cast<bool>(OS);
  }

private:
  struct Span {
    std::string Name;
    int Parent;
    double Start;
    double End;
  };
  bool descends(int I, int Root) const {
    for (int P = I; P >= 0; P = Spans[P].Parent)
      if (P == Root)
        return true;
    return false;
  }
  std::vector<Span> Spans;
  int Current = -1;
};

SpanLog Spans;

class ScopedSpan {
public:
  explicit ScopedSpan(const std::string &Name) : Id(Spans.open(Name)) {}
  ~ScopedSpan() { Spans.close(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  int Id;
};

//===--- results ---------------------------------------------------------===//

struct Result {
  std::map<std::string, double> Metrics;
  /// Traced runs: each layer's share of the decomposed sweep's wall.
  std::map<std::string, double> Shares;
  /// Every timed sample behind a metric, for spread analysis.
  std::map<std::string, std::vector<double>> Samples;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Notes;

  void note(const std::string &N) {
    Notes.push_back(N);
    std::fprintf(stderr, "perfbench: %s\n", N.c_str());
  }
  bool write(const std::string &Path) const {
    std::ofstream OS(Path);
    OS << "{\"attempted\": " << Attempted << ", \"failed\": " << Failed
       << ", \"metrics\": {";
    bool First = true;
    for (const auto &[K, V] : Metrics) {
      OS << (First ? "" : ", ") << "\"" << K << "\": "
         << format("%.17g", V);
      First = false;
    }
    OS << "}, \"shares\": {";
    First = true;
    for (const auto &[K, V] : Shares) {
      OS << (First ? "" : ", ") << "\"" << K << "\": " << format("%.6f", V);
      First = false;
    }
    OS << "}, \"samples\": {";
    First = true;
    for (const auto &[K, V] : Samples) {
      OS << (First ? "" : ", ") << "\"" << K << "\": [";
      for (size_t I = 0; I < V.size(); ++I)
        OS << (I ? ", " : "") << format("%.6g", V[I]);
      OS << "]";
      First = false;
    }
    OS << "}, \"notes\": [";
    for (size_t I = 0; I < Notes.size(); ++I)
      OS << (I ? ", " : "") << "\"" << bench::jsonEscape(Notes[I]) << "\"";
    OS << "]}\n";
    return static_cast<bool>(OS);
  }
};

//===--- workloads -------------------------------------------------------===//

struct Workload {
  std::string Name;
  /// The specs as swept: the stored spec files plus execution knobs.
  std::vector<SweepSpec> Specs;
  /// Swept through orchestrateSweep into an empty store.
  bool Orchestrated = false;
};

std::string megaBenchmark(uint64_t Seed) {
  SynthWorkloadParams P;
  P.Seed = Seed;
  P.NumEvents = MegaEvents;
  P.EntropyPct = MegaEntropy;
  return synthBenchmarkName(P);
}

bool loadSpec(const std::string &Dir, const std::string &Name, SweepSpec &S,
              std::string &Error) {
  return loadSweepSpecFile(Dir + "/" + Name + ".spec", S, Error);
}

bool makeWorkload(const std::string &Name, uint64_t Seed,
                  const std::string &SpecDir, Workload &W,
                  std::string &Error) {
  W.Name = Name;
  std::vector<std::string> Files;
  if (Name == "paper-sweeps")
    Files = {"fig07_gforth_celeron", "fig08_gforth_p4", "fig09_java_p4"};
  else if (Name == "btb-geometry")
    Files = {"ablation_btb_sweep"};
  else if (Name == "mega-trace")
    Files = {"synthsmoke"};
  else if (Name == "sharded-store")
    Files = {"fig08_gforth_p4"};
  else {
    Error = "unknown workload '" + Name + "'";
    return false;
  }
  for (const std::string &F : Files) {
    SweepSpec S;
    if (!loadSpec(SpecDir, F, S, Error))
      return false;
    if (Name == "mega-trace")
      S.Benchmarks = {megaBenchmark(Seed)};
    if (Name == "btb-geometry") {
      S.Threads = hostThreads();
      S.Schedule = GangSchedule::Dynamic;
    } else if (Name == "mega-trace") {
      S.Threads = hostThreads();
      S.Decode = TraceDecodeMode::Stream;
    } else if (Name == "sharded-store") {
      S.Threads = std::min(OrchestratorThreads, hostThreads());
      W.Orchestrated = true;
    }
    if (!validateSweepSpec(S, Error))
      return false;
    W.Specs.push_back(S);
  }
  return true;
}

//===--- trace-file facts ------------------------------------------------===//

std::string cachePath(const SweepSpec &S, const std::string &Benchmark) {
  return DispatchTrace::cachePathFor(S.Suite + "-" + Benchmark);
}

uint64_t traceEvents(const SweepSpec &S, const std::string &Benchmark) {
  DispatchTrace::FileInfo Info;
  return DispatchTrace::peekFileInfo(cachePath(S, Benchmark), Info)
             ? Info.NumEvents
             : 0;
}

uint64_t traceHash(const SweepSpec &S, const std::string &Benchmark) {
  uint64_t H = 0;
  (void)DispatchTrace::peekContentHash(cachePath(S, Benchmark), H);
  return H;
}

/// Member-events a sweep of \p S must replay: cells the store (when
/// given) does not already hold, times their trace's events.
double eventsToCompute(const SweepSpec &S, ResultStore *Store) {
  double Events = 0;
  for (size_t W = 0; W < S.Benchmarks.size(); ++W) {
    uint64_t N = traceEvents(S, S.Benchmarks[W]);
    uint64_t Hash = Store ? traceHash(S, S.Benchmarks[W]) : 0;
    for (size_t M = 0; M < S.membersPerWorkload(); ++M) {
      PerfCounters C;
      if (!Store || !Store->probe(cellStoreKey(S, M, Hash), C))
        Events += static_cast<double>(N);
    }
  }
  return Events;
}

//===--- correctness -----------------------------------------------------===//

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

/// Content identity of cell (W, M), as the reference files name it.
std::string cellKey(const SweepSpec &S, size_t W, size_t M) {
  size_t Cpu, Var, Pred;
  S.decodeMember(M, Cpu, Var, Pred);
  return S.Benchmarks[W] + "|" + S.Cpus[Cpu] + "|" + S.Variants[Var].Name +
         "|" + predictorKey(S, Pred);
}

/// The tables the repository's binaries print for these cells: the
/// figure benches' speedup matrices, ablation_btb_sweep's mispredict
/// table, sweep_driver's per-plane matrices for other specs.
std::vector<std::string> renderTables(const SweepSpec &S,
                                      const std::vector<PerfCounters> &Cells) {
  static const std::map<std::string, std::string> Titles = {
      {"fig07_gforth_celeron", "Figure 7 (Celeron-800)"},
      {"fig08_gforth_p4", "Figure 8 (Pentium 4)"},
      {"fig09_java_p4", "Figure 9 (Pentium 4)"},
  };
  std::vector<std::string> Out;
  if (S.Name == "ablation_btb_sweep") {
    std::vector<std::string> Header = {"BTB entries"};
    for (const VariantSpec &V : S.Variants)
      Header.push_back(V.Name);
    TextTable T(Header);
    for (size_t P = 0; P < S.Predictors.size(); ++P) {
      std::vector<std::string> Row = {
          std::to_string(S.Predictors[P].Btb.Entries)};
      for (size_t V = 0; V < S.Variants.size(); ++V)
        Row.push_back(format(
            "%.1f%%",
            100 * Cells[S.cellIndex(0, S.memberIndex(0, V, P))]
                      .mispredictRate()));
      T.addRow(Row);
    }
    Out.push_back(T.render());
    return Out;
  }
  size_t NP = S.Predictors.empty() ? 1 : S.Predictors.size();
  for (size_t C = 0; C < S.Cpus.size(); ++C)
    for (size_t P = 0; P < NP; ++P) {
      auto It = Titles.find(S.Name);
      std::string Title = It != Titles.end()
                              ? It->second
                              : S.Name + " [cpu=" + S.Cpus[C] + "]";
      Out.push_back(
          bench::matrixFromCells(S, Cells, C, P).renderSpeedups(Title));
    }
  return Out;
}

std::string referenceName(const SweepSpec &S) {
  for (const std::string &B : S.Benchmarks)
    if (isSynthBenchmarkName(B))
      return S.Name + "-" + B;
  return S.Name;
}

struct Reference {
  bool Found = false;
  std::map<std::string, uint64_t> Cells;
  std::vector<uint64_t> Tables;
};

/// Compares swept cells with the references stored as
/// `<dir>/<referenceName>.ref`, searching the directories in order.
class Checker {
public:
  explicit Checker(std::vector<std::string> Dirs) : Dirs(std::move(Dirs)) {}

  /// Checks \p Cells of \p S and the tables they render against the
  /// reference of \p S; counts attempted cells and mismatches into \p R.
  void check(const SweepSpec &S, const std::vector<PerfCounters> &Cells,
             Result &R) {
    const Reference &Ref = reference(S, R);
    uint64_t Bad = 0;
    for (size_t W = 0; W < S.Benchmarks.size(); ++W)
      for (size_t M = 0; M < S.membersPerWorkload(); ++M) {
        auto It = Ref.Cells.find(cellKey(S, W, M));
        if (It == Ref.Cells.end() ||
            It->second != Cells[S.cellIndex(W, M)].fingerprint())
          ++Bad;
      }
    R.Attempted += Cells.size();
    std::vector<std::string> Tables = renderTables(S, Cells);
    for (size_t T = 0; T < std::max(Tables.size(), Ref.Tables.size()); ++T)
      if (T >= Tables.size() || T >= Ref.Tables.size() ||
          fnv64(Tables[T]) != Ref.Tables[T])
        ++Bad;
    if (Bad)
      R.note(format("%s: %llu cell/table mismatches against the reference",
                    S.Name.c_str(), (unsigned long long)Bad));
    R.Failed += Bad;
  }

  /// Whether a stored reference exists for \p S.
  bool has(const SweepSpec &S) {
    for (const std::string &D : Dirs)
      if (std::ifstream(D + "/" + referenceName(S) + ".ref"))
        return true;
    return false;
  }

private:
  const Reference &reference(const SweepSpec &S, Result &R) {
    std::string Name = referenceName(S);
    auto It = Loaded.find(Name);
    if (It != Loaded.end())
      return It->second;
    Reference &Ref = Loaded[Name];
    for (const std::string &D : Dirs) {
      std::ifstream IS(D + "/" + Name + ".ref");
      if (!IS)
        continue;
      Ref.Found = true;
      std::string Line;
      while (std::getline(IS, Line)) {
        std::istringstream LS(Line);
        std::string Tag, Key, Hex;
        LS >> Tag;
        if (Tag == "table" && (LS >> Hex))
          Ref.Tables.push_back(std::strtoull(Hex.c_str(), nullptr, 16));
        else if (Tag == "cell") {
          // The key may hold spaces (variant names); the hash is last.
          std::string Rest;
          std::getline(LS, Rest);
          size_t Sp = Rest.find_last_of(' ');
          if (Sp == std::string::npos)
            continue;
          Key = Rest.substr(1, Sp - 1);
          Ref.Cells[Key] =
              std::strtoull(Rest.substr(Sp + 1).c_str(), nullptr, 16);
        }
      }
      break;
    }
    if (!Ref.Found)
      R.note("no reference for " + Name + "; every cell counts as failed");
    return Ref;
  }

  std::vector<std::string> Dirs;
  std::map<std::string, Reference> Loaded;
};

bool writeReference(const SweepSpec &S,
                    const std::vector<PerfCounters> &Cells,
                    const std::string &Dir) {
  std::ofstream OS(Dir + "/" + referenceName(S) + ".ref");
  OS << "# " << referenceName(S)
     << ": canonical-shape cell fingerprints and table hashes\n";
  for (const std::string &T : renderTables(S, Cells))
    OS << format("table %016llx\n", (unsigned long long)fnv64(T));
  for (size_t W = 0; W < S.Benchmarks.size(); ++W)
    for (size_t M = 0; M < S.membersPerWorkload(); ++M)
      OS << "cell " << cellKey(S, W, M)
         << format(" %016llx\n",
                   (unsigned long long)Cells[S.cellIndex(W, M)]
                       .fingerprint());
  return static_cast<bool>(OS);
}

//===--- set-up ----------------------------------------------------------===//

/// Warms the labs of every benchmark of \p Specs exactly as a sweep's
/// capture stage does (runAll's producer, sweep_driver's workers).
void warmLabs(const std::vector<SweepSpec> &Specs, ForthLab &F, JavaLab &J) {
  for (const SweepSpec &S : Specs)
    for (const std::string &B : S.Benchmarks)
      for (const std::string &CpuId : S.Cpus) {
        CpuConfig Cpu;
        if (!cpuConfigById(CpuId, Cpu))
          continue;
        if (S.Suite == "java")
          J.warmup(B, Cpu, S.Decode);
        else
          F.warmup(B, Cpu, S.Decode);
      }
}

/// Generates synthetic benchmark \p Name straight into the trace cache.
bool generateSynth(const std::string &Name, const std::string &Path,
                   double &GenerateSeconds, double &SaveSeconds) {
  SynthWorkloadParams P;
  if (!parseSynthBenchmarkName(Name, P))
    return false;
  ForthUnit Unit = buildSynthUnit(P);
  DispatchTrace Trace;
  double T0 = now();
  generateSynthTrace(P, Unit.Program, Trace);
  double T1 = now();
  bool Ok = Trace.save(Path, synthWorkloadHash(P));
  GenerateSeconds += T1 - T0;
  SaveSeconds += now() - T1;
  return Ok;
}

/// Distinct (suite, benchmark) trace files the workload sweeps.
std::vector<std::pair<const SweepSpec *, std::string>>
workloadTraces(const std::vector<SweepSpec> &Specs) {
  std::vector<std::pair<const SweepSpec *, std::string>> Out;
  std::map<std::string, bool> Seen;
  for (const SweepSpec &S : Specs)
    for (const std::string &B : S.Benchmarks)
      if (!Seen[S.Suite + "-" + B]) {
        Seen[S.Suite + "-" + B] = true;
        Out.push_back({&S, B});
      }
  return Out;
}

uint64_t workloadHashOf(const SweepSpec &S, const std::string &B,
                        ForthLab &F, JavaLab &J) {
  return S.Suite == "java" ? J.referenceHash(B) : F.referenceHash(B);
}

Result runSetup(const Workload &W, const std::string &RunDir, bool Probe) {
  Result R;
  double T0 = now();
  double Generate = 0, Save = 0;
  bool Generated = false;
  for (const auto &[S, B] : workloadTraces(W.Specs))
    if (isSynthBenchmarkName(B)) {
      if (!generateSynth(B, cachePath(*S, B), Generate, Save)) {
        R.note("could not generate " + B);
        ++R.Failed;
      }
      Generated = true;
    }
  ForthLab F;
  JavaLab J;
  double T1 = now();
  warmLabs(W.Specs, F, J);
  double End = now();
  R.Metrics["setup_s"] = End - T0;
  R.Metrics["harness.lab.capture_s"] = End - T1;
  if (Generated) {
    R.Metrics["workloads.synth.generate_s"] = Generate;
    R.Metrics["vmcore.trace.save_s"] = Save;
  }
  uint64_t Bytes = 0;
  double ResaveSeconds = 0;
  for (const auto &[S, B] : workloadTraces(W.Specs)) {
    DispatchTrace::FileInfo Info;
    if (DispatchTrace::peekFileInfo(cachePath(*S, B), Info))
      Bytes += Info.FileBytes;
    // Captured traces are saved inside the lab's warmup; time the save
    // layer on its own by re-encoding each one to a temporary file.
    if (Probe && !Generated) {
      const DispatchTrace &T = S->Suite == "java" ? J.trace(B) : F.trace(B);
      std::string Tmp = RunDir + "/resave.vmibtrace";
      double T2 = now();
      if (!T.save(Tmp, workloadHashOf(*S, B, F, J)))
        R.note("could not re-save " + B);
      ResaveSeconds += now() - T2;
      std::remove(Tmp.c_str());
    }
  }
  R.Metrics["vmcore.trace.file_bytes"] = static_cast<double>(Bytes);
  if (Probe && !Generated)
    R.Metrics["vmcore.trace.save_s"] = ResaveSeconds;
  return R;
}

//===--- sweeps ----------------------------------------------------------===//

struct Context {
  std::string RunDir;
  std::string DriverBinary;
  Checker *Check = nullptr;
  size_t StoreSerial = 0;
};

struct Iteration {
  double Wall = 0;
  double MemberEvents = 0; ///< cells actually computed x trace events
  double PipelineWall = 0; ///< runAll's pipeline wall, summed
  double CaptureBusy = 0;  ///< runAll's producer busy time, summed
  uint64_t StoreHits = 0;
  uint64_t StoreMisses = 0;
  std::string StoreDir; ///< the store an orchestrated pass filled
  OrchestratorReport Report;
  double OrchestratorWall = 0;
  std::vector<std::vector<PerfCounters>> Cells; ///< per spec
};

void setStoreEnv(const std::string &Dir) {
  ::setenv("VMIB_RESULT_STORE", Dir.empty() ? "off" : Dir.c_str(), 1);
}

/// One orchestrated pass of \p S into the open, borrowed \p Store.
bool orchestrate(const SweepSpec &S, Context &Ctx, ResultStore &Store,
                 Iteration &It, std::vector<PerfCounters> &Cells,
                 Result &R) {
  std::string Error;
  std::string SpecPath = Ctx.RunDir + "/" + S.Name + ".run.spec";
  if (!writeSweepSpecFile(S, SpecPath, Error)) {
    R.note(Error);
    return false;
  }
  SweepWorkerOptions Opt;
  Opt.Shards = OrchestratorShards;
  Opt.Threads = S.Threads;
  Opt.SpecPath = SpecPath;
  Opt.DriverBinary = Ctx.DriverBinary;
  Opt.EchoWorkerTimings = false;
  Opt.Store = &Store;
  Opt.Audit.Rate = AuditRate;
  SweepRunStats Stats;
  double T0 = now();
  bool Ok;
  {
    ScopedSpan Orch("harness.orchestrator");
    Ok = orchestrateSweep(S, Opt, Cells, Stats, Error, &It.Report);
    Spans.addMeasured("harness.auditor", It.Report.AuditWallSeconds);
  }
  It.OrchestratorWall += now() - T0;
  if (!Ok)
    R.note("orchestration failed: " + Error);
  return Ok;
}

/// One complete sweep of the workload, timed as a user would see it.
/// Counting the member-events it must replay stays off the clock.
bool sweepOnce(const Workload &W, Context &Ctx, Iteration &It, Result &R) {
  if (!W.Orchestrated)
    for (const SweepSpec &S : W.Specs)
      It.MemberEvents += eventsToCompute(S, nullptr);
  double T0 = now();
  double Counting = 0;
  bool Ok = true;
  for (const SweepSpec &S : W.Specs) {
    std::vector<PerfCounters> Cells;
    if (W.Orchestrated) {
      It.StoreDir = Ctx.RunDir + format("/store-%zu", Ctx.StoreSerial++);
      setStoreEnv(It.StoreDir);
      ResultStore Store;
      std::string Diag;
      {
        ScopedSpan Open("harness.store");
        if (!Store.open(It.StoreDir, &Diag)) {
          R.note("store open failed: " + Diag);
          Ok = false;
        }
      }
      double C0 = now();
      It.MemberEvents += eventsToCompute(S, &Store);
      Counting += now() - C0;
      Ok = Ok && orchestrate(S, Ctx, Store, It, Cells, R);
      Store.close();
      setStoreEnv("");
      It.StoreHits += It.Report.StoreHits;
      It.StoreMisses += It.Report.StoreMisses;
    } else {
      ScopedSpan Span("harness.executor");
      SweepExecutor E;
      SweepRunStats St = E.runAll(S, 0, Cells);
      It.PipelineWall += St.ReplaySeconds;
      It.CaptureBusy += St.CaptureSeconds;
    }
    It.Cells.push_back(std::move(Cells));
  }
  It.Wall = now() - T0 - Counting;
  return Ok;
}

/// Checks an iteration's cells and worker attempts.
void checkIteration(const Workload &W, Context &Ctx, const Iteration &It,
                    bool SweepOk, Result &R) {
  for (size_t I = 0; I < W.Specs.size(); ++I) {
    if (I < It.Cells.size() && It.Cells[I].size() == W.Specs[I].numCells()) {
      Ctx.Check->check(W.Specs[I], It.Cells[I], R);
    } else {
      R.Attempted += W.Specs[I].numCells();
      R.Failed += W.Specs[I].numCells();
    }
  }
  R.Failed += It.Report.WorkerFailures;
  if (!SweepOk || !It.Report.complete())
    ++R.Failed;
}

/// A re-sweep in-process against a store that already holds every
/// cell: the store's read path plus whatever set-up the executor still
/// does before it consults the store.
bool servedOnce(const Workload &W, const std::string &StoreDir,
                Iteration &It, Result &R) {
  double T0 = now();
  double Counting = 0;
  ResultStore Store;
  std::string Diag;
  {
    ScopedSpan Open("harness.store");
    if (!Store.open(StoreDir, &Diag)) {
      R.note("store open failed: " + Diag);
      return false;
    }
  }
  for (const SweepSpec &S : W.Specs) {
    double C0 = now();
    It.MemberEvents += eventsToCompute(S, &Store);
    Counting += now() - C0;
    ScopedSpan Span("harness.executor");
    SweepExecutor E;
    E.setResultStore(&Store);
    std::vector<PerfCounters> Cells;
    SweepRunStats St = E.runAll(S, 0, Cells);
    It.PipelineWall += St.ReplaySeconds;
    It.CaptureBusy += St.CaptureSeconds;
    It.Cells.push_back(std::move(Cells));
  }
  It.StoreHits += Store.stats().Hits;
  It.StoreMisses += Store.stats().Misses;
  Store.close();
  It.Wall = now() - T0 - Counting;
  return true;
}

/// Records every cell of \p It into a fresh store at \p Dir (the
/// store's commit path: record + flush). \returns the seconds taken.
double fillStore(const Workload &W, const Iteration &It,
                 const std::string &Dir, Result &R) {
  ResultStore Store;
  std::string Diag;
  if (!Store.open(Dir, &Diag)) {
    R.note("store open failed: " + Diag);
    return 0;
  }
  double T0 = now();
  for (size_t I = 0; I < W.Specs.size() && I < It.Cells.size(); ++I) {
    const SweepSpec &S = W.Specs[I];
    for (size_t B = 0; B < S.Benchmarks.size(); ++B) {
      uint64_t Hash = traceHash(S, S.Benchmarks[B]);
      for (size_t M = 0; M < S.membersPerWorkload(); ++M)
        Store.record(cellStoreKey(S, M, Hash), It.Cells[I][S.cellIndex(B, M)]);
    }
  }
  if (!Store.flush())
    R.note("store flush failed");
  double Seconds = now() - T0;
  Store.close();
  return Seconds;
}

double peakRssMb(bool WithChildren) {
  struct rusage Self {}, Kids {};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Kids);
  long Kb = Self.ru_maxrss + (WithChildren ? Kids.ru_maxrss : 0);
  return static_cast<double>(Kb) / 1024.0;
}

/// The dynamic scheduler's per-member cost sidecars (`.vmibcost`) in
/// the trace cache: captured once after the warm-up sweep and put back
/// before every timed sweep, so each starts from the same state
/// instead of from whatever the previous sweep measured.
class CostSidecars {
public:
  void capture() {
    Files.clear();
    for (const auto &E :
         std::filesystem::directory_iterator(DispatchTrace::cacheDir()))
      if (E.path().extension() == ".vmibcost") {
        std::ifstream IS(E.path(), std::ios::binary);
        Files[E.path().string()] =
            std::string(std::istreambuf_iterator<char>(IS),
                        std::istreambuf_iterator<char>());
      }
  }
  void restore() const {
    std::vector<std::filesystem::path> Stale;
    for (const auto &E :
         std::filesystem::directory_iterator(DispatchTrace::cacheDir()))
      if (E.path().extension() == ".vmibcost" &&
          !Files.count(E.path().string()))
        Stale.push_back(E.path());
    for (const std::filesystem::path &P : Stale)
      std::filesystem::remove(P);
    for (const auto &[Path, Bytes] : Files)
      std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;
  }

private:
  std::map<std::string, std::string> Files;
};

struct Options {
  std::string Mode, WorkloadName, SpecDir, RunDir, Out, SpansOut, OutDir;
  std::vector<std::string> RefDirs;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Probe = false;
};

Result runSweep(const Workload &W, Context &Ctx, const Options &O) {
  Result R;
  // One discarded sweep leaves the sidecars every timed one starts from.
  // Peak RSS is read after it, before any served re-sweep has loaded
  // traces into this (for sharded-store: the orchestrator) process.
  CostSidecars Sidecars;
  Iteration Warm;
  bool WarmOk = sweepOnce(W, Ctx, Warm, R);
  checkIteration(W, Ctx, Warm, WarmOk, R);
  Sidecars.capture();
  R.Metrics["peak_rss_mb"] = peakRssMb(W.Orchestrated);
  // An in-process workload's served re-sweeps read a store filled with
  // the warm-up's checked cells.
  std::string Filled;
  if (!W.Orchestrated) {
    Filled = Ctx.RunDir + format("/store-%zu", Ctx.StoreSerial++);
    (void)fillStore(W, Warm, Filled, R);
  }

  std::vector<double> Walls, Served;
  double MemberEvents = 0, Wall = 0;
  double Start = now();
  while (Walls.size() < MinIterations ||
         (now() - Start < O.Seconds && Walls.size() < MaxIterations)) {
    Sidecars.restore();
    Iteration It;
    bool Ok = sweepOnce(W, Ctx, It, R);
    checkIteration(W, Ctx, It, Ok, R);
    Walls.push_back(It.Wall);
    MemberEvents += It.MemberEvents;
    Wall += It.Wall;
    // Served re-sweeps follow each sweep, so both sample the same host
    // conditions.
    const std::string &Store = W.Orchestrated ? It.StoreDir : Filled;
    double Spent = 0;
    for (size_t N = 0; N < ServedPerSweep &&
                       (N == 0 || Spent < ServedShare * It.Wall);
         ++N) {
      Iteration S;
      bool SOk = servedOnce(W, Store, S, R);
      checkIteration(W, Ctx, S, SOk, R);
      Served.push_back(S.Wall);
      Spent += S.Wall;
    }
  }
  // Means, not medians: on a shared host the same pass runs in two
  // speed modes (up to 1.5x apart, in stretches of seconds), so the
  // median of a run's samples jumps between the modes while the mean
  // follows the share of time spent in each.
  R.Metrics["sweep_s"] = mean(Walls);
  R.Metrics["member_events_per_s"] = MemberEvents / Wall;
  R.Metrics["served_sweep_s"] = mean(Served);
  R.Samples["sweep_s"] = Walls;
  R.Samples["served_sweep_s"] = Served;
  return R;
}

//===--- traced run: layer probes ----------------------------------------===//

/// Gang accounting summed over the slices a traced run replayed.
struct GangTotals {
  double Wall = 0;
  double MemberEvents = 0;
  double MaxSliceWall = 0;
  GangReplayer::Stats Stats;
};

/// Replays one slice through the executor inside a vmcore.gang span,
/// with the gang's own finish time as its child.
std::vector<PerfCounters> replaySlice(SweepExecutor &E, const SweepSpec &S,
                                      size_t Workload, size_t Begin,
                                      size_t End, GangTotals &G) {
  GangReplayer::Stats St;
  double T0 = now();
  std::vector<PerfCounters> Out;
  {
    ScopedSpan Gang("vmcore.gang");
    Out = E.runSlice(S, Workload, Begin, End, &St);
    Spans.addMeasured("vmcore.gang.finish", St.FinishSeconds);
  }
  double Seconds = now() - T0;
  G.Wall += Seconds;
  G.MaxSliceWall = std::max(G.MaxSliceWall, Seconds);
  G.MemberEvents +=
      static_cast<double>(End - Begin) *
      static_cast<double>(traceEvents(S, S.Benchmarks[Workload]));
  G.Stats.merge(St);
  return Out;
}

/// One spec's sweep made one call at a time, each inside its layer's
/// span: per benchmark the lab (trace load, then the rest of warmup),
/// then the gang replay — or, when \p Store holds the cells, the
/// store-served slice.
void decomposeSpec(const SweepSpec &S, ResultStore *Store, Context &Ctx,
                   GangTotals &G, Result &R) {
  ScopedSpan Exec("harness.executor");
  SweepExecutor E;
  E.setResultStore(Store);
  std::vector<PerfCounters> Cells(S.numCells());
  for (size_t B = 0; B < S.Benchmarks.size(); ++B) {
    const std::string &Name = S.Benchmarks[B];
    {
      ScopedSpan Lab("harness.lab");
      {
        ScopedSpan Load("vmcore.trace.load");
        if (S.Decode == TraceDecodeMode::Stream)
          (void)(S.Suite == "java" ? E.java().traceSource(Name, S.Decode)
                                   : E.forth().traceSource(Name, S.Decode));
        else if (S.Suite == "java")
          (void)E.java().trace(Name);
        else
          (void)E.forth().trace(Name);
      }
      SweepSpec One = S;
      One.Benchmarks = {Name};
      warmLabs({One}, E.forth(), E.java());
    }
    std::vector<PerfCounters> Row;
    if (Store) {
      ScopedSpan Served("harness.store");
      Row = E.runSlice(S, B, 0, S.membersPerWorkload());
    } else {
      Row = replaySlice(E, S, B, 0, S.membersPerWorkload(), G);
    }
    for (size_t M = 0; M < Row.size(); ++M)
      Cells[S.cellIndex(B, M)] = Row[M];
  }
  Ctx.Check->check(S, Cells, R);
}

/// The workload's sweep decomposed into layer calls under one root
/// span. An orchestrated workload keeps its orchestrated pass (its
/// layers run in worker processes) and decomposes the served re-sweep.
/// \returns the root span.
int decomposedSweep(const Workload &W, Context &Ctx, GangTotals &G,
                    Iteration &Orch, Result &R) {
  int Root = Spans.open("decomposition");
  if (W.Orchestrated) {
    bool Ok = sweepOnce(W, Ctx, Orch, R);
    checkIteration(W, Ctx, Orch, Ok, R);
    ResultStore Store;
    {
      ScopedSpan Open("harness.store");
      (void)Store.open(Orch.StoreDir);
    }
    for (const SweepSpec &S : W.Specs)
      decomposeSpec(S, &Store, Ctx, G, R);
    Store.close();
  } else {
    for (const SweepSpec &S : W.Specs)
      decomposeSpec(S, nullptr, Ctx, G, R);
  }
  Spans.close(Root);
  return Root;
}

/// Replays every shard job of \p S in-process with the workers' thread
/// count: the replay the orchestrator's wall is compared against.
GangTotals replayJobs(const SweepSpec &S) {
  GangTotals G;
  SweepExecutor E;
  warmLabs({S}, E.forth(), E.java());
  for (const ShardJob &J : decomposeSweep(S, OrchestratorShards))
    (void)replaySlice(E, S, J.Workload, J.MemberBegin, J.MemberEnd, G);
  return G;
}

/// The small synthetic spec the probes use where a workload's own
/// inputs do not exercise a layer: synthsmoke's variants over a
/// ProbeSynthEvents-event trace, generated into the cache.
bool probeSynthSpec(const Options &O, SweepSpec &S, double &GenerateSeconds,
                    Result &R) {
  std::string Error;
  if (!loadSpec(O.SpecDir, "synthsmoke", S, Error)) {
    R.note(Error);
    return false;
  }
  SynthWorkloadParams P;
  P.Seed = O.Seed;
  P.NumEvents = ProbeSynthEvents;
  P.EntropyPct = MegaEntropy;
  S.Name = "synthprobe";
  S.Benchmarks = {synthBenchmarkName(P)};
  double Save = 0;
  if (!generateSynth(S.Benchmarks[0], cachePath(S, S.Benchmarks[0]),
                     GenerateSeconds, Save)) {
    R.note("could not generate the probe trace");
    return false;
  }
  return true;
}

void loadProbe(const std::vector<SweepSpec> &Specs, Result &R) {
  ForthLab F;
  JavaLab J;
  double Seconds = 0, Events = 0;
  for (const auto &[S, B] : workloadTraces(Specs)) {
    uint64_t Hash = workloadHashOf(*S, B, F, J);
    DispatchTrace T;
    std::string Diag;
    double T0 = now();
    if (!T.load(cachePath(*S, B), Hash, &Diag))
      R.note("trace load failed: " + Diag);
    Seconds += now() - T0;
    Events += static_cast<double>(T.numEvents());
  }
  R.Metrics["vmcore.trace.load_s"] = Seconds;
  R.Metrics["vmcore.trace.load_events_per_s"] =
      Seconds > 0 ? Events / Seconds : 0;
}

void streamMetrics(const GangReplayer::Stats &St, Result &R) {
  R.Metrics["vmcore.trace.stream_read_s"] = St.SourceReadSeconds;
  R.Metrics["vmcore.trace.stream_events_per_s"] =
      St.SourceReadSeconds > 0
          ? static_cast<double>(St.SourceEvents) / St.SourceReadSeconds
          : 0;
  R.Metrics["vmcore.trace.peak_ring_bytes"] =
      static_cast<double>(St.PeakTileRingBytes);
}

void gangMetrics(const GangTotals &G, Result &R) {
  const GangReplayer::Stats &St = G.Stats;
  double Replay = std::max(0.0, G.Wall - St.FinishSeconds);
  R.Metrics["vmcore.gang.replay_s"] = Replay;
  R.Metrics["vmcore.gang.member_events_per_s"] =
      Replay > 0 ? G.MemberEvents / Replay : 0;
  double Busy = 0;
  uint64_t Waited = 0, Stolen = 0;
  for (const GangReplayer::Stats::Worker &Wk : St.Workers) {
    Busy += Wk.BusySeconds;
    Waited += Wk.TilesWaited;
    Stolen += Wk.MembersStolen;
  }
  // Workers is empty for serial gangs: there is no pool to account.
  R.Metrics["vmcore.gang.busy_frac"] =
      St.Workers.empty() || Replay <= 0
          ? 0
          : Busy / (static_cast<double>(St.Workers.size()) * Replay);
  R.Metrics["vmcore.gang.tiles_waited"] = static_cast<double>(Waited);
  R.Metrics["vmcore.gang.steals"] = static_cast<double>(Stolen);
  R.Metrics["vmcore.gang.finish_s"] = St.FinishSeconds;
  R.Metrics["vmcore.gang.deferred_members"] =
      static_cast<double>(St.DeferredFinishes);
}

void orchestratorMetrics(const Iteration &It, const GangTotals &Jobs,
                         Result &R) {
  R.Metrics["harness.orchestrator.wall_s"] = It.OrchestratorWall;
  R.Metrics["harness.orchestrator.overhead_s"] =
      It.OrchestratorWall - Jobs.MaxSliceWall;
  R.Metrics["harness.orchestrator.attempts"] = It.Report.AttemptsLaunched;
  R.Metrics["harness.orchestrator.failures"] = It.Report.WorkerFailures;
  R.Metrics["harness.auditor.wall_s"] = It.Report.AuditWallSeconds;
  R.Metrics["harness.auditor.cells_audited"] =
      static_cast<double>(It.Report.CellsAudited);
  R.Metrics["harness.auditor.mismatches"] =
      static_cast<double>(It.Report.AuditMismatches);
}

/// An orchestrated pass of \p S into a fresh store, for workloads that
/// do not orchestrate: its cells are checked against the stored
/// reference, or against an in-process sweep when there is none (the
/// synthetic probe).
void orchestratorProbe(const SweepSpec &S, Context &Ctx, Result &R) {
  std::string Dir = Ctx.RunDir + format("/store-%zu", Ctx.StoreSerial++);
  setStoreEnv(Dir);
  ResultStore Store;
  (void)Store.open(Dir);
  Iteration It;
  std::vector<PerfCounters> Cells;
  bool Ok = orchestrate(S, Ctx, Store, It, Cells, R);
  Store.close();
  setStoreEnv("");
  R.Failed += It.Report.WorkerFailures + (Ok && It.Report.complete() ? 0 : 1);
  if (Ok && Ctx.Check->has(S)) {
    Ctx.Check->check(S, Cells, R);
  } else if (Ok) {
    SweepExecutor E;
    std::vector<PerfCounters> InProc;
    (void)E.runAll(S, 0, InProc);
    uint64_t Bad = 0;
    for (size_t I = 0; I < InProc.size(); ++I)
      Bad += InProc[I].fingerprint() != Cells[I].fingerprint();
    R.Attempted += Cells.size();
    R.Failed += Bad;
  }
  orchestratorMetrics(It, replayJobs(S), R);
}

/// Single-kind gang at one thread over a fixed input: member-events
/// per second of one member kind (median of three).
void memberProbe(const std::string &Metric, SweepSpec S, size_t ExpectDeferred,
                 Result &R) {
  S.Threads = 1;
  S.Schedule = GangSchedule::Static;
  S.Decode = TraceDecodeMode::Materialize;
  SweepExecutor E;
  warmLabs({S}, E.forth(), E.java());
  std::vector<double> Rates;
  for (int Rep = 0; Rep < 3; ++Rep) {
    GangTotals G;
    (void)replaySlice(E, S, 0, 0, S.membersPerWorkload(), G);
    if (G.Stats.DeferredFinishes != ExpectDeferred)
      R.note(format("%s: %llu of %zu members deferred (expected %zu)",
                    Metric.c_str(),
                    (unsigned long long)G.Stats.DeferredFinishes,
                    S.membersPerWorkload(), ExpectDeferred));
    Rates.push_back(G.MemberEvents / G.Wall);
  }
  R.Metrics[Metric] = median(Rates);
}

void memberProbes(const Options &O, Result &R) {
  std::string Error;
  SweepSpec Btb, Java;
  if (!loadSpec(O.SpecDir, "ablation_btb_sweep", Btb, Error) ||
      !loadSpec(O.SpecDir, "fig09_java_p4", Java, Error)) {
    R.note(Error);
    return;
  }
  Btb.Benchmarks = {MemberProbeForth};
  Btb.Predictors.resize(1);
  SweepSpec NoEvict = Btb, Lru = Btb;
  NoEvict.Predictors[0].Btb.Entries = NoEvictBtbEntries;
  Lru.Predictors[0].Btb.Entries = LruBtbEntries;
  memberProbe("vmcore.member.btb_noevict.events_per_s", NoEvict, 0, R);
  memberProbe("vmcore.member.btb_lru.events_per_s", Lru, Lru.Variants.size(),
              R);
  Java.Benchmarks = {MemberProbeJava};
  memberProbe("vmcore.member.jvm_quicken.events_per_s", Java, 0, R);

  // The independent oracle the deferred finish and the Auditor re-run
  // through: TraceReplayer's BTB replay (no-evict attempt, then the
  // exact-LRU re-run) of the deferring member kind.
  ForthLab F;
  CpuConfig Cpu;
  (void)cpuConfigById(Btb.Cpus[0], Cpu);
  F.warmup(MemberProbeForth, Cpu);
  double Events = static_cast<double>(F.referenceSteps(MemberProbeForth));
  std::vector<double> Rates;
  for (int Rep = 0; Rep < 3; ++Rep) {
    double T0 = now();
    (void)F.replayBtb(MemberProbeForth, Lru.Variants.back(), Cpu,
                      Lru.Predictors[0].Btb);
    Rates.push_back(Events / (now() - T0));
  }
  R.Metrics["vmcore.replayer.events_per_s"] = median(Rates);
}

Result runTrace(const Workload &W, Context &Ctx, const Options &O) {
  Result R;
  CostSidecars Sidecars;
  {
    Iteration Warm;
    bool Ok = sweepOnce(W, Ctx, Warm, R);
    checkIteration(W, Ctx, Warm, Ok, R);
    Sidecars.capture();
  }
  // Untraced and traced sweeps alternate so drift hits both alike; the
  // difference of their medians is what the spans cost.
  std::vector<double> Untraced, Traced, Pipeline, Capture;
  Iteration Last;
  double Start = now();
  while (Traced.size() < 2 ||
         (now() - Start < O.Seconds && Traced.size() < MaxIterations)) {
    for (bool On : {false, true}) {
      Sidecars.restore();
      Spans.Enabled = On;
      Iteration It;
      int Root = Spans.open("sweep");
      bool Ok = sweepOnce(W, Ctx, It, R);
      Spans.close(Root);
      checkIteration(W, Ctx, It, Ok, R);
      (On ? Traced : Untraced).push_back(It.Wall);
      Pipeline.push_back(It.PipelineWall);
      Capture.push_back(It.CaptureBusy);
      Last = std::move(It);
    }
  }
  Spans.Enabled = true;
  R.Metrics["trace.overhead_s"] = median(Traced) - median(Untraced);

  // Store layer over this workload's cells: commit (record + flush),
  // the served re-sweeps, then open and lookup on their own.
  std::string CommitDir = Ctx.RunDir + "/store-commit";
  R.Metrics["harness.store.commit_s"] = fillStore(W, Last, CommitDir, R);
  std::string Store = W.Orchestrated ? Last.StoreDir : CommitDir;
  uint64_t Hits = Last.StoreHits, Misses = Last.StoreMisses;
  std::vector<double> ServedPipeline, ServedCapture;
  for (int Pass = 0; Pass < 2; ++Pass) {
    Iteration It;
    bool Ok = servedOnce(W, Store, It, R);
    checkIteration(W, Ctx, It, Ok, R);
    Hits += It.StoreHits;
    Misses += It.StoreMisses;
    ServedPipeline.push_back(It.PipelineWall);
    ServedCapture.push_back(It.CaptureBusy);
  }
  R.Metrics["harness.store.hits"] = static_cast<double>(Hits);
  R.Metrics["harness.store.misses"] = static_cast<double>(Misses);
  {
    ResultStore S;
    double T0 = now();
    (void)S.open(Store);
    double T1 = now();
    for (const SweepSpec &Spec : W.Specs)
      for (size_t B = 0; B < Spec.Benchmarks.size(); ++B) {
        uint64_t Hash = traceHash(Spec, Spec.Benchmarks[B]);
        for (size_t M = 0; M < Spec.membersPerWorkload(); ++M) {
          PerfCounters C;
          (void)S.lookup(cellStoreKey(Spec, M, Hash), C);
        }
      }
    R.Metrics["harness.store.open_s"] = T1 - T0;
    R.Metrics["harness.store.lookup_s"] = now() - T1;
    S.close();
  }
  // An orchestrated sweep runs no in-process pipeline; its served
  // re-sweep is the one runAll call it makes.
  R.Metrics["harness.executor.pipeline_wall_s"] =
      W.Orchestrated ? median(ServedPipeline) : median(Pipeline);
  R.Metrics["harness.executor.capture_busy_s"] =
      W.Orchestrated ? median(ServedCapture) : median(Capture);
  {
    ForthLab F;
    JavaLab J;
    double T0 = now();
    warmLabs(W.Specs, F, J);
    R.Metrics["harness.lab.warm_warmup_s"] = now() - T0;
  }

  GangTotals G;
  Iteration Orch;
  int Root = decomposedSweep(W, Ctx, G, Orch, R);
  double Serial = Spans.duration(Root);
  R.Metrics["harness.executor.serial_wall_s"] = Serial;
  for (const auto &[Layer, Self] : Spans.selfTimes(Root))
    R.Shares[Layer] = Serial > 0 ? Self / Serial : 0;

  // Layers the workload's own sweep leaves idle get a small probe, so
  // every per-layer figure is a measurement.
  double Generate = 0;
  SweepSpec Probe;
  bool HaveProbe = probeSynthSpec(O, Probe, Generate, R);
  R.Metrics["workloads.synth.generate_s"] = Generate;
  bool Materializes = false;
  for (const SweepSpec &S : W.Specs)
    Materializes |= S.Decode != TraceDecodeMode::Stream;
  if (Materializes)
    loadProbe(W.Specs, R);
  else if (HaveProbe)
    loadProbe({Probe}, R);

  if (W.Orchestrated) {
    GangTotals Jobs = replayJobs(W.Specs[0]);
    gangMetrics(Jobs, R);
    orchestratorMetrics(Orch, Jobs, R);
  } else {
    gangMetrics(G, R);
    SweepSpec S = Materializes || !HaveProbe ? W.Specs[0] : Probe;
    S.Threads = std::min(OrchestratorThreads, hostThreads());
    S.Schedule = GangSchedule::Static;
    orchestratorProbe(S, Ctx, R);
  }

  if (G.Stats.StreamedDecode) {
    streamMetrics(G.Stats, R);
  } else {
    SweepSpec S = W.Specs[0];
    S.Benchmarks = {S.Benchmarks[0]};
    S.Decode = TraceDecodeMode::Stream;
    SweepExecutor E;
    warmLabs({S}, E.forth(), E.java());
    GangTotals Stream;
    (void)replaySlice(E, S, 0, 0, S.membersPerWorkload(), Stream);
    streamMetrics(Stream.Stats, R);
  }

  memberProbes(O, R);
  return R;
}

//===--- reference -------------------------------------------------------===//

/// Sweeps the canonical specs in the canonical execution shape
/// (materialized decode, one thread, static schedule) and writes their
/// references into \p Dir; with \p MissingOnly, only those \p Check
/// does not find.
Result runReference(const Workload &W, const std::string &Dir,
                    Checker &Check, bool MissingOnly) {
  Result R;
  for (SweepSpec S : W.Specs) {
    if (MissingOnly && Check.has(S))
      continue;
    S.Threads = 1;
    S.Schedule = GangSchedule::Static;
    S.Decode = TraceDecodeMode::Materialize;
    SweepExecutor E;
    std::vector<PerfCounters> Cells;
    (void)E.runAll(S, 1, Cells);
    R.Attempted += Cells.size();
    if (!writeReference(S, Cells, Dir)) {
      R.note("could not write the reference of " + S.Name);
      ++R.Failed;
    }
  }
  return R;
}

//===--- entry -----------------------------------------------------------===//

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::stringstream SS(S);
  std::string Item;
  while (std::getline(SS, Item, ','))
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

std::string siblingBinary(const char *Argv0, const std::string &Name) {
  std::string Self = Argv0;
  size_t Slash = Self.find_last_of('/');
  return Slash == std::string::npos ? Name : Self.substr(0, Slash + 1) + Name;
}

int run(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: perfbench_driver "
                         "info|setup|sweep|trace|reference [--flags]\n");
    return 2;
  }
  // The host fingerprint names the build; only Release builds measure.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "error: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "error: refusing to measure a build with assertions\n");
  return 3;
#endif
  Options O;
  O.Mode = Argv[1];
  OptionParser Opts(Argc - 1, Argv + 1);
  if (O.Mode == "info") {
    std::printf("{\"build_type\": \"%s\", \"compiler\": \"%s\"}\n",
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
    return 0;
  }
  O.WorkloadName = Opts.get("workload");
  O.SpecDir = Opts.get("specs");
  O.RunDir = Opts.get("rundir");
  O.Out = Opts.get("out");
  O.SpansOut = Opts.get("spans");
  O.OutDir = Opts.get("outdir");
  O.RefDirs = splitList(Opts.get("refs"));
  O.Seed = std::strtoull(Opts.get("seed", "1").c_str(), nullptr, 10);
  O.Seconds = std::strtod(Opts.get("seconds", "10").c_str(), nullptr);
  O.Probe = Opts.has("probe");
  if (DispatchTrace::cacheDir().empty()) {
    std::fprintf(stderr, "error: VMIB_TRACE_CACHE must name the private "
                         "trace cache\n");
    return 2;
  }
  Workload W;
  std::string Error;
  if (!makeWorkload(O.WorkloadName, O.Seed, O.SpecDir, W, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  Checker Check(O.RefDirs);
  Context Ctx;
  Ctx.RunDir = O.RunDir;
  Ctx.DriverBinary = siblingBinary(Argv[0], "sweep_driver");
  Ctx.Check = &Check;
  setStoreEnv("");

  Result R;
  if (O.Mode == "setup") {
    R = runSetup(W, O.RunDir, O.Probe);
  } else if (O.Mode == "sweep") {
    R = runSweep(W, Ctx, O);
  } else if (O.Mode == "trace") {
    R = runTrace(W, Ctx, O);
    if (!O.SpansOut.empty() && !Spans.write(O.SpansOut))
      R.note("could not write " + O.SpansOut);
  } else if (O.Mode == "reference") {
    R = runReference(W, O.OutDir, Check, Opts.has("missing-only"));
  } else {
    std::fprintf(stderr, "error: unknown mode '%s'\n", O.Mode.c_str());
    return 2;
  }
  if (!R.write(O.Out)) {
    std::fprintf(stderr, "error: could not write %s\n", O.Out.c_str());
    return 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  try {
    return run(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
