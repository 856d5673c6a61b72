//===- tests/GangReplayTest.cpp - gang replay equivalence -----------------===//
///
/// The contract of the gang replay engine: counters produced by one
/// chunk-tiled GangReplayer pass — SoA group decode, first-touch fetch
/// streams, baseline-linked predictor-only members, prefix catch-ups
/// of overflowing members — must be *bit-identical* to per-config
/// TraceReplayer calls, across both suites, all variants, BTB capacity
/// sweeps (including overflows) and the quickening tier. Also
/// covers the trace chunk cursor, binary trace serialization (save →
/// load → replay round trip, hash rejection), the labs' serialized
/// trace cache (VMIB_TRACE_CACHE) and the workload-parallel sweep
/// loop.
///
//===----------------------------------------------------------------------===//

#include "harness/ForthLab.h"
#include "harness/JavaLab.h"
#include "harness/SweepRunner.h"
#include "uarch/CaseBlockTable.h"
#include "uarch/TwoLevelPredictor.h"
#include "vmcore/GangReplayer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sys/stat.h>
#include <unistd.h>

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

/// One default-BTB gang member per variant over \p Bench's trace — the
/// Forth gang shape the sweep executor builds for a suite figure.
std::vector<PerfCounters> forthGang(const std::string &Bench,
                                    const std::vector<VariantSpec> &Variants,
                                    const CpuConfig &Cpu,
                                    unsigned Threads = 1) {
  ForthLab &Lab = forthLab();
  GangReplayer Gang(Lab.trace(Bench));
  for (const VariantSpec &V : Variants)
    Gang.addDefault(Lab.buildLayout(Bench, V), Cpu);
  return Gang.run(Threads);
}

void expectEqualCounters(const PerfCounters &Expected,
                         const PerfCounters &Gang, const std::string &What) {
  EXPECT_EQ(Expected.Cycles, Gang.Cycles) << What;
  EXPECT_EQ(Expected.Instructions, Gang.Instructions) << What;
  EXPECT_EQ(Expected.VMInstructions, Gang.VMInstructions) << What;
  EXPECT_EQ(Expected.IndirectBranches, Gang.IndirectBranches) << What;
  EXPECT_EQ(Expected.Mispredictions, Gang.Mispredictions) << What;
  EXPECT_EQ(Expected.ICacheMisses, Gang.ICacheMisses) << What;
  EXPECT_EQ(Expected.MissCycles, Gang.MissCycles) << What;
  EXPECT_EQ(Expected.CodeBytes, Gang.CodeBytes) << What;
  EXPECT_EQ(Expected.DispatchCount, Gang.DispatchCount) << What;
}

/// The first \p MaxEvents events of \p Full — plus the quicken records
/// landing inside them, at their exact positions — as a standalone
/// trace. A prefix of a dispatch trace is itself a valid trace, which
/// bounds the cost of the tiny-chunk cells of the thread-invariance
/// matrix without leaving the real suite workloads.
DispatchTrace prefixTrace(const DispatchTrace &Full, size_t MaxEvents) {
  DispatchTrace T;
  size_t N = std::min(MaxEvents, Full.numEvents());
  T.reserve(N);
  const std::vector<DispatchTrace::QuickenRecord> &Quickens =
      Full.quickens();
  size_t Q = 0;
  while (Q < Quickens.size() && Quickens[Q].AfterEvents == 0)
    ++Q; // cannot precede the first event
  for (size_t I = 0; I < N; ++I) {
    T.append(DispatchTrace::cur(Full.events()[I]),
             DispatchTrace::next(Full.events()[I]));
    while (Q < Quickens.size() && Quickens[Q].AfterEvents == I + 1) {
      T.appendQuicken(Quickens[Q].Index, Quickens[Q].NewInstr);
      ++Q;
    }
  }
  return T;
}

} // namespace

TEST(ChunkCursor, TilesTheStreamExactly) {
  DispatchTrace T;
  for (uint32_t I = 0; I < 1000; ++I)
    T.append(I, I + 1);

  DispatchTrace::ChunkCursor C(T, 256);
  size_t Expected[] = {0, 256, 512, 768};
  size_t N = 0;
  size_t Covered = 0;
  while (C.next()) {
    ASSERT_LT(N, 4u);
    EXPECT_EQ(C.begin(), Expected[N]);
    EXPECT_EQ(C.end(), N == 3 ? 1000u : Expected[N] + 256);
    Covered += C.end() - C.begin();
    ++N;
  }
  EXPECT_EQ(N, 4u);
  EXPECT_EQ(Covered, 1000u);

  // Empty trace: no tiles.
  DispatchTrace Empty;
  DispatchTrace::ChunkCursor E(Empty, 256);
  EXPECT_FALSE(E.next());

  // ChunkEvents == 0 falls back to the (env-overridable) default.
  DispatchTrace::ChunkCursor D(T, 0);
  EXPECT_TRUE(D.next());
  EXPECT_EQ(D.end(), 1000u);
}

TEST(GangReplay, ForthAllVariantsBitIdentical) {
  // One gang per benchmark covering the full variant matrix (fig07/08
  // shape) vs per-config replays.
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  std::vector<VariantSpec> Variants = gforthVariants();
  Variants.push_back(makeVariant(DispatchStrategy::Switch));
  for (const std::string &Bench : {std::string("gray"),
                                   std::string("vmgen")}) {
    std::vector<PerfCounters> Gang = forthGang(Bench, Variants, P4);
    ASSERT_EQ(Gang.size(), Variants.size());
    for (size_t I = 0; I < Variants.size(); ++I)
      expectEqualCounters(Lab.replay(Bench, Variants[I], P4), Gang[I],
                          Bench + "/" + Variants[I].Name);
  }
}

TEST(GangReplay, JavaAllVariantsBitIdentical) {
  // Quickening members: every variant re-applies the recorded rewrites
  // to its own program copy, chunk-major; includes the Fig. 6
  // side-entry fallback variant ("w/static super across").
  JavaLab &Lab = javaLab();
  CpuConfig P4 = makePentium4Northwood();
  std::vector<VariantSpec> Variants = jvmVariants();
  for (const std::string &Bench : {std::string("jess"),
                                   std::string("javac")}) {
    std::vector<PerfCounters> Gang = Lab.replayGang(Bench, Variants, P4);
    ASSERT_EQ(Gang.size(), Variants.size());
    for (size_t I = 0; I < Variants.size(); ++I)
      expectEqualCounters(Lab.replay(Bench, Variants[I], P4), Gang[I],
                          Bench + "/" + Variants[I].Name);
  }
}

TEST(GangReplay, MixedPredictorGangSharedLayouts) {
  // The ablation_predictors shape: threaded and switch members share
  // their layouts (SoA group decode), predictor-only members take the
  // fetch baseline from the full member of the same layout, plus the
  // oracle/null policy baselines riding the same gang.
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  VariantSpec Switch = makeVariant(DispatchStrategy::Switch);
  BTBConfig TwoBit = P4.Btb;
  TwoBit.TwoBitCounters = true;
  TwoLevelConfig TL;

  GangReplayer Gang(Lab.trace("gray"));
  std::shared_ptr<DispatchProgram> LThreaded =
      Lab.buildLayout("gray", Threaded);
  std::shared_ptr<DispatchProgram> LSwitch = Lab.buildLayout("gray", Switch);
  size_t TB = Gang.addBtb(LThreaded, P4, P4.Btb);
  Gang.addBtbPredictorOnly(LThreaded, P4, TwoBit, TB);
  Gang.addPredictorOnly(LThreaded, P4, TwoLevelPredictor(TL), TB);
  Gang.addPredictorOnly(LThreaded, P4, PerfectPredictor(), TB);
  Gang.addPredictorOnly(LThreaded, P4, NullPredictor(), TB);
  size_t SB = Gang.addBtb(LSwitch, P4, P4.Btb);
  Gang.addPredictorOnly(LSwitch, P4, CaseBlockTable(4096), SB);
  EXPECT_GT(Gang.stateBytes(), 0u);
  std::vector<PerfCounters> R = Gang.run();
  ASSERT_EQ(R.size(), 7u);

  expectEqualCounters(Lab.replayBtb("gray", Threaded, P4, P4.Btb), R[0],
                      "full btb threaded");
  expectEqualCounters(
      Lab.replayBtbPredictorOnly("gray", Threaded, P4, TwoBit, R[0]), R[1],
      "two-bit predictor-only");
  TwoLevelPredictor TwoLevel(TL);
  expectEqualCounters(
      Lab.replayPredictorOnly("gray", Threaded, P4, TwoLevel, R[0]), R[2],
      "two-level predictor-only");
  PerfectPredictor Oracle;
  expectEqualCounters(
      Lab.replayPredictorOnly("gray", Threaded, P4, Oracle, R[0]), R[3],
      "oracle predictor-only");
  EXPECT_EQ(R[3].Mispredictions, 0u);
  NullPredictor None;
  expectEqualCounters(
      Lab.replayPredictorOnly("gray", Threaded, P4, None, R[0]), R[4],
      "null predictor-only");
  EXPECT_EQ(R[4].Mispredictions, R[4].DispatchCount);
  expectEqualCounters(Lab.replayBtb("gray", Switch, P4, P4.Btb), R[5],
                      "full btb switch");
  CaseBlockTable Cbt(4096);
  expectEqualCounters(
      Lab.replayPredictorOnly("gray", Switch, P4, Cbt, R[5]), R[6],
      "case-block predictor-only");
}

TEST(GangReplay, BtbCapacitySweepWithOverflowFallback) {
  // The ablation_btb_sweep shape, with capacities small enough that
  // the no-evict members overflow and catch up onto the exact BTB
  // (both the full and the predictor-only tiers).
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);

  GangReplayer Gang(Lab.trace("gray"));
  std::shared_ptr<DispatchProgram> Layout = Lab.buildLayout("gray", Threaded);
  size_t Base = Gang.addDefault(Layout, P4);
  std::vector<BTBConfig> Configs;
  for (uint32_t Entries : {64u, 256u, 4096u, 0u}) {
    BTBConfig Cfg;
    Cfg.Entries = Entries; // 0 = idealised (exact member from the start)
    Cfg.Ways = Entries == 0 ? 4 : Cfg.Ways;
    Configs.push_back(Cfg);
    Gang.addBtbPredictorOnly(Layout, P4, Cfg, Base);
  }
  BTBConfig Tiny;
  Tiny.Entries = 64;
  Tiny.Ways = 4;
  size_t TinyFull = Gang.addBtb(Layout, P4, Tiny);

  std::vector<PerfCounters> R = Gang.run();
  expectEqualCounters(Lab.replayBtb("gray", Threaded, P4, P4.Btb), R[Base],
                      "default baseline");
  for (size_t I = 0; I < Configs.size(); ++I)
    expectEqualCounters(Lab.replayBtbPredictorOnly("gray", Threaded, P4,
                                                   Configs[I], R[Base]),
                        R[Base + 1 + I],
                        "capacity " + std::to_string(Configs[I].Entries));
  expectEqualCounters(Lab.replayBtb("gray", Threaded, P4, Tiny), R[TinyFull],
                      "tiny full member (overflow fallback)");
}

TEST(GangReplay, ICacheOverflowFallbackBitIdentical) {
  // Celeron: small I-cache plus code growth overflows the no-evict
  // fast path on a replicating variant; the gang member catches up
  // onto the exact-LRU models, like replay()'s fallback.
  ForthLab &Lab = forthLab();
  CpuConfig Cel = makeCeleron800();
  std::vector<VariantSpec> Variants = {
      makeVariant(DispatchStrategy::Threaded),
      makeVariant(DispatchStrategy::DynamicBoth)};
  std::vector<PerfCounters> Gang = forthGang("bench-gc", Variants, Cel);
  for (size_t I = 0; I < Variants.size(); ++I)
    expectEqualCounters(Lab.replay("bench-gc", Variants[I], Cel), Gang[I],
                        "celeron/" + Variants[I].Name);
}

TEST(GangReplay, ChunkSizeInvariance) {
  // Tiling must never leak into counters: a 1000-event tile and one
  // giant tile produce the same results as the default.
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  PerfCounters Expected = Lab.replay("gray", Threaded, P4);

  for (size_t Chunk : {size_t{1000}, size_t{1} << 30}) {
    GangReplayer Gang(Lab.trace("gray"), Chunk);
    std::shared_ptr<DispatchProgram> Layout =
        Lab.buildLayout("gray", Threaded);
    Gang.addDefault(Layout, P4);
    Gang.addDefault(Layout, P4); // grouped: one decode, two members
    std::vector<PerfCounters> R = Gang.run();
    expectEqualCounters(Expected, R[0], "chunked full (decoded)");
    expectEqualCounters(Expected, R[1], "chunked full (decoded, second)");
    GangReplayer Single(Lab.trace("gray"), Chunk);
    Single.addDefault(Lab.buildLayout("gray", Threaded), P4);
    expectEqualCounters(Expected, Single.run()[0],
                        "chunked full (decoded alone)");
  }
}

TEST(TraceSerialization, SaveLoadRoundTrip) {
  DispatchTrace T;
  for (uint32_t I = 0; I < 5000; ++I)
    T.append(I % 97, (I + 1) % 97);
  T.appendQuicken(42, VMInstr{7, -3, 123456789});
  T.append(1, 2);
  T.appendQuicken(9, VMInstr{1, 2, 3});
  uint64_t Hash = T.contentHash();

  std::string Path = "/tmp/vmib-trace-roundtrip.vmibtrace";
  ASSERT_TRUE(T.save(Path, /*WorkloadHash=*/0xabcdefull));

  DispatchTrace L;
  ASSERT_TRUE(L.load(Path, 0xabcdefull));
  EXPECT_EQ(L.numEvents(), T.numEvents());
  EXPECT_EQ(L.numQuickens(), T.numQuickens());
  EXPECT_EQ(L.contentHash(), Hash);
  EXPECT_EQ(L.events(), T.events());
  for (size_t I = 0; I < T.numQuickens(); ++I) {
    EXPECT_EQ(L.quickens()[I].AfterEvents, T.quickens()[I].AfterEvents);
    EXPECT_EQ(L.quickens()[I].Index, T.quickens()[I].Index);
    EXPECT_EQ(L.quickens()[I].NewInstr.Op, T.quickens()[I].NewInstr.Op);
    EXPECT_EQ(L.quickens()[I].NewInstr.A, T.quickens()[I].NewInstr.A);
    EXPECT_EQ(L.quickens()[I].NewInstr.B, T.quickens()[I].NewInstr.B);
  }

  // Wrong workload identity: stale cache entries must not load.
  DispatchTrace Wrong;
  EXPECT_FALSE(Wrong.load(Path, 0x12345ull));
  EXPECT_TRUE(Wrong.empty());

  // Truncation: the content hash rejects a cut-off file.
  {
    std::FILE *F = std::fopen(Path.c_str(), "rb+");
    ASSERT_NE(F, nullptr);
    std::fseek(F, 0, SEEK_END);
    long Size = std::ftell(F);
    ASSERT_EQ(std::fclose(F), 0);
    ASSERT_EQ(truncate(Path.c_str(), Size - 16), 0);
  }
  DispatchTrace Cut;
  EXPECT_FALSE(Cut.load(Path, 0xabcdefull));
  std::remove(Path.c_str());

  // Missing file.
  DispatchTrace Missing;
  EXPECT_FALSE(Missing.load("/tmp/vmib-no-such-trace.vmibtrace", 1));
}

TEST(TraceSerialization, CachePathRespectsEnvironment) {
  unsetenv("VMIB_TRACE_CACHE");
  EXPECT_EQ(DispatchTrace::cacheDir(), "");
  EXPECT_EQ(DispatchTrace::cachePathFor("forth-gray"), "");
  setenv("VMIB_TRACE_CACHE", "/tmp/vmib-cache", 1);
  EXPECT_EQ(DispatchTrace::cachePathFor("forth-gray"),
            "/tmp/vmib-cache/forth-gray.vmibtrace");
  setenv("VMIB_TRACE_CACHE", "/tmp/vmib-cache/", 1);
  EXPECT_EQ(DispatchTrace::cachePathFor("forth-gray"),
            "/tmp/vmib-cache/forth-gray.vmibtrace");
  unsetenv("VMIB_TRACE_CACHE");
}

TEST(TraceSerialization, LabTraceCacheRoundTrip) {
  // End to end: capture saves into VMIB_TRACE_CACHE, a later lab
  // consult loads the file instead of re-interpreting, and replays
  // off the loaded trace are bit-identical.
  const char *Dir = "/tmp/vmib-trace-cache-test";
  ::mkdir(Dir, 0755);
  setenv("VMIB_TRACE_CACHE", Dir, 1);

  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);

  Lab.dropTrace("vmgen");
  (void)Lab.trace("vmgen"); // capture + save
  std::string Path = DispatchTrace::cachePathFor("forth-vmgen");
  struct stat St;
  ASSERT_EQ(::stat(Path.c_str(), &St), 0) << "capture did not save " << Path;
  PerfCounters Captured = Lab.replay("vmgen", Threaded, P4);

  Lab.dropTrace("vmgen");
  (void)Lab.trace("vmgen"); // loads from the cache file
  expectEqualCounters(Captured, Lab.replay("vmgen", Threaded, P4),
                      "replay off cache-loaded trace");

  // A stale file for a different workload is rejected, not trusted:
  // loading under the wrong reference hash fails, and the lab
  // re-captures (same counters again).
  DispatchTrace Stale;
  EXPECT_FALSE(Stale.load(Path, /*ExpectedWorkloadHash=*/1));
  unsetenv("VMIB_TRACE_CACHE");
  Lab.dropTrace("vmgen");
  expectEqualCounters(Captured, Lab.replay("vmgen", Threaded, P4),
                      "replay off re-captured trace");
  std::remove(Path.c_str());
}

TEST(TraceSerialization, DecodeModeSelectsTheRequestedPath) {
  // The decode ladder must honor EXPLICIT modes: Materialize may never
  // silently stream (regression: it once fell through to the
  // openStreaming block when the arena was not yet cached), Stream
  // must stream when a cache file exists, and replays through both
  // sources stay bit-identical.
  const char *Dir = "/tmp/vmib-decode-mode-test";
  ::mkdir(Dir, 0755);
  setenv("VMIB_TRACE_CACHE", Dir, 1);

  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);

  Lab.dropTrace("vmgen");
  (void)Lab.trace("vmgen"); // capture + save the streamable file
  std::string Path = DispatchTrace::cachePathFor("forth-vmgen");
  PerfCounters Ref = Lab.replay("vmgen", Threaded, P4);

  Lab.dropTrace("vmgen"); // nothing materialized from here on
  TraceSource Streamed =
      Lab.traceSource("vmgen", TraceDecodeMode::Stream);
  EXPECT_TRUE(Streamed.streaming());

  Lab.dropTrace("vmgen");
  TraceSource Materialized =
      Lab.traceSource("vmgen", TraceDecodeMode::Materialize);
  EXPECT_FALSE(Materialized.streaming());
  EXPECT_EQ(Streamed.contentHash(), Materialized.contentHash());
  EXPECT_EQ(Streamed.numEvents(), Materialized.numEvents());

  // Both sources drive a gang to the same counters.
  for (TraceSource *Src : {&Streamed, &Materialized}) {
    GangReplayer Gang(*Src);
    Gang.addBtb(Lab.buildLayout("vmgen", Threaded), P4, P4.Btb);
    std::vector<PerfCounters> R = Gang.run();
    ASSERT_EQ(R.size(), 1u);
    expectEqualCounters(Ref, R[0],
                        Src->streaming() ? "streamed gang"
                                         : "materialized gang");
  }

  unsetenv("VMIB_TRACE_CACHE");
  Lab.dropTrace("vmgen");
  std::remove(Path.c_str());
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr size_t N = 17;
  std::vector<std::atomic<int>> Ran(N);
  parallelFor(N, 4, [&](size_t I) { Ran[I].fetch_add(1); });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Ran[I].load(), 1) << "index " << I;

  // Degenerate cases.
  parallelFor(0, 4, [](size_t) { FAIL(); });
  std::atomic<int> Solo{0};
  parallelFor(3, 1, [&](size_t) { Solo.fetch_add(1); });
  EXPECT_EQ(Solo.load(), 3);
}

TEST(ParallelFor, RethrowsTheFirstExceptionAfterEveryJobRan) {
  std::atomic<int> Ran{0};
  EXPECT_THROW(parallelFor(6, 2,
                           [&](size_t I) {
                             Ran.fetch_add(1);
                             if (I == 2)
                               throw std::runtime_error("job failed");
                           }),
               std::runtime_error);
  EXPECT_EQ(Ran.load(), 6);
}

TEST(GangReplay, DecodeFingerprintGroupsStructurallyEqualLayouts) {
  // Two layouts built independently for the same (benchmark, variant)
  // must fingerprint equal (they decode identically, so members built
  // once per CPU share one GroupDecoder); different variants must not.
  ForthLab &Lab = forthLab();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  VariantSpec Switch = makeVariant(DispatchStrategy::Switch);
  auto A = Lab.buildLayout("gray", Threaded);
  auto B = Lab.buildLayout("gray", Threaded);
  auto C = Lab.buildLayout("gray", Switch);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(gang::decodeFingerprint(*A), gang::decodeFingerprint(*B));
  EXPECT_NE(gang::decodeFingerprint(*A), gang::decodeFingerprint(*C));
}

TEST(GangReplay, CrossCpuMembersShareDecodedStreamBitIdentical) {
  // Members that differ only in CPU I-cache geometry — with layout
  // objects built independently per CPU, as a per-CPU bench would —
  // group by fingerprint and share one decoded stream; counters still
  // match the per-config replayer on every CPU.
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  CpuConfig Cel = makeCeleron800();
  CpuConfig Athlon = makeAthlon1200();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);

  GangReplayer Gang(Lab.trace("gray"));
  Gang.addDefault(Lab.buildLayout("gray", Threaded), P4);
  Gang.addDefault(Lab.buildLayout("gray", Threaded), Cel);
  Gang.addDefault(Lab.buildLayout("gray", Threaded), Athlon);
  std::vector<PerfCounters> R = Gang.run();
  ASSERT_EQ(R.size(), 3u);
  expectEqualCounters(Lab.replay("gray", Threaded, P4), R[0], "p4");
  expectEqualCounters(Lab.replay("gray", Threaded, Cel), R[1], "celeron");
  expectEqualCounters(Lab.replay("gray", Threaded, Athlon), R[2], "athlon");
}

namespace {

/// Builds the mixed-tier Forth gang of the thread-invariance matrix
/// over \p Trace and runs it: full members on two CPUs (separately
/// built layouts — fingerprint-grouped), a tiny-BTB member that
/// overflows and catches up onto the exact BTB, baseline-linked
/// predictor-only members, and a custom-predictor member alone on its
/// layout (a decode group of one).
std::vector<PerfCounters>
runForthMatrixGang(const DispatchTrace &Trace, size_t Chunk, unsigned Threads,
                   GangReplayer::Stats *StatsOut = nullptr) {
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  CpuConfig Cel = makeCeleron800();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  VariantSpec Switch = makeVariant(DispatchStrategy::Switch);

  GangReplayer Gang(Trace, Chunk);
  std::shared_ptr<DispatchProgram> L = Lab.buildLayout("gray", Threaded);
  size_t Base = Gang.addBtb(L, P4, P4.Btb);
  Gang.addDefault(Lab.buildLayout("gray", Threaded), Cel); // fingerprint
  BTBConfig Tiny;
  Tiny.Entries = 16;
  Tiny.Ways = 2;
  Gang.addBtb(L, P4, Tiny); // overflows -> prefix catch-up
  BTBConfig TwoBit = P4.Btb;
  TwoBit.TwoBitCounters = true;
  Gang.addBtbPredictorOnly(L, P4, TwoBit, Base);
  TwoLevelConfig TL;
  Gang.addPredictorOnly(L, P4, TwoLevelPredictor(TL), Base);
  Gang.addPredictor(Lab.buildLayout("gray", Switch), P4,
                    CaseBlockTable(1024)); // a decode group of one
  return Gang.run(Threads, StatsOut);
}

/// The JVM quickening gang of the matrix: every member re-applies the
/// recorded rewrites to its own program copy (fused members — the
/// decoder ring still paces them tile by tile).
std::vector<PerfCounters>
runJavaMatrixGang(const DispatchTrace &Trace, size_t Chunk,
                  unsigned Threads) {
  JavaLab &Lab = javaLab();
  CpuConfig P4 = makePentium4Northwood();
  std::vector<VariantSpec> Variants = {
      makeVariant(DispatchStrategy::Threaded),
      makeVariant(DispatchStrategy::DynamicSuper),
      makeVariant(DispatchStrategy::Switch)};

  GangReplayer Gang(Trace, Chunk);
  for (const VariantSpec &V : Variants) {
    auto Copy = std::make_shared<VMProgram>(Lab.program("jess").Program);
    auto Layout = Lab.buildLayout("jess", V, *Copy);
    Gang.addQuickening(std::shared_ptr<DispatchProgram>(std::move(Layout)),
                       std::move(Copy), P4);
  }
  return Gang.run(Threads);
}

} // namespace

TEST(GangReplay, ForthThreadCountInvarianceMatrix) {
  // The parallel-replay contract: any (threads, chunk) combination is
  // bit-identical to the serial gang — including the overflowing
  // catch-up member and the fingerprint-shared cross-CPU group.
  // Chunk=1 over a 60K-event prefix gives the pool tens of thousands
  // of tiny tiles, so the ring's publish/drain handshake runs under
  // maximal contention.
  ForthLab &Lab = forthLab();
  DispatchTrace Prefix = prefixTrace(Lab.trace("gray"), 60000);
  ASSERT_GT(Prefix.numEvents(), 0u);
  std::vector<PerfCounters> Serial =
      runForthMatrixGang(Prefix, /*Chunk=*/4096, /*Threads=*/1);
  for (size_t Chunk : {size_t{1}, size_t{4096}, size_t{65536}})
    for (unsigned Threads : {1u, 2u, 3u, 8u}) {
      std::vector<PerfCounters> R = runForthMatrixGang(Prefix, Chunk, Threads);
      ASSERT_EQ(R.size(), Serial.size());
      for (size_t I = 0; I < R.size(); ++I)
        expectEqualCounters(Serial[I], R[I],
                            "member " + std::to_string(I) + " chunk " +
                                std::to_string(Chunk) + " threads " +
                                std::to_string(Threads));
    }
}

TEST(GangReplay, JavaThreadCountInvarianceMatrix) {
  // Same matrix over the quickening tier: JVM members are fused (each
  // owns a mutating program copy) and must stay bit-identical for any
  // thread count and tile size.
  JavaLab &Lab = javaLab();
  DispatchTrace Prefix = prefixTrace(Lab.trace("jess"), 60000);
  ASSERT_GT(Prefix.numEvents(), 0u);
  ASSERT_GT(Prefix.numQuickens(), 0u)
      << "prefix must cover quickening rewrites to exercise the tier";
  std::vector<PerfCounters> Serial =
      runJavaMatrixGang(Prefix, /*Chunk=*/4096, /*Threads=*/1);
  for (size_t Chunk : {size_t{1}, size_t{4096}, size_t{65536}})
    for (unsigned Threads : {1u, 2u, 3u, 8u}) {
      std::vector<PerfCounters> R = runJavaMatrixGang(Prefix, Chunk, Threads);
      ASSERT_EQ(R.size(), Serial.size());
      for (size_t I = 0; I < R.size(); ++I)
        expectEqualCounters(Serial[I], R[I],
                            "member " + std::to_string(I) + " chunk " +
                                std::to_string(Chunk) + " threads " +
                                std::to_string(Threads));
    }
}

namespace {

/// Index of the event at which the no-evict models of (\p Cpu,
/// \p Config) over \p Layout first overflow — the event whose tile
/// triggers a gang member's catch-up — or numEvents() if they never do.
size_t firstOverflowEvent(const DispatchTrace &T, DispatchProgram &Layout,
                          const CpuConfig &Cpu, const BTBConfig &Config) {
  sim::DispatchStateT<NoEvictICache> S(Cpu.ICache);
  NoEvictBTB Pred(Config);
  sim::NullObserver Obs;
  for (size_t I = 0; I < T.numEvents(); ++I) {
    sim::step(Layout, S, Pred, Obs, DispatchTrace::cur(T.events()[I]),
              DispatchTrace::next(T.events()[I]));
    if (S.ICache.overflowed() || Pred.overflowed())
      return I;
  }
  return T.numEvents();
}

} // namespace

TEST(GangReplay, OverflowingMembersCatchUpBitIdentical) {
  // The catch-up contract: a member whose optimistic model overflows
  // in tile T replays [0, end of T) once through the exact models and
  // stays in the gang. Every member kind that can overflow rides one
  // gang — BTB-only overflows (tiny BTBs: they keep the no-evict
  // I-cache and the decode group), I-cache overflows (a CPU with a
  // tiny I-cache: they leave the group and replay fused on the exact
  // LRU models), predictor-only members with a tiny BTB, and
  // predictor-only members whose fetch baseline is a caught-up
  // member. Overflow is placed in the first, a middle and the last
  // tile of the pass; each placement runs materialized and streamed,
  // serial and pooled, and every cell must equal the per-config
  // TraceReplayer result.
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  CpuConfig TinyCache = P4;
  TinyCache.ICache.SizeBytes = 1024;
  TinyCache.ICache.Ways = 2;
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  VariantSpec Switch = makeVariant(DispatchStrategy::Switch);
  std::shared_ptr<DispatchProgram> L = Lab.buildLayout("gray", Threaded);
  std::shared_ptr<DispatchProgram> LSwitch = Lab.buildLayout("gray", Switch);
  DispatchTrace Prefix = prefixTrace(Lab.trace("gray"), 60000);
  BTBConfig Tiny;
  Tiny.Entries = 16;
  Tiny.Ways = 2;
  BTBConfig Tinier = Tiny;
  Tinier.Entries = 8;
  BTBConfig Mid = P4.Btb;
  Mid.Entries = 128;
  TwoLevelConfig TL;

  // The gang and, member for member, its per-config oracle.
  auto BuildAndRun = [&](const TraceSource &Source, size_t Chunk,
                         unsigned Threads, GangReplayer::Stats *St) {
    GangReplayer Gang(Source, Chunk);
    size_t Base = Gang.addDefault(L, P4);
    size_t TinyBtb = Gang.addBtb(L, P4, Tiny);
    Gang.addBtb(L, P4, Tinier);
    size_t TinyIC = Gang.addDefault(L, TinyCache);
    Gang.addBtb(L, TinyCache, Tiny); // both models overflow
    Gang.addBtbPredictorOnly(L, P4, Mid, TinyBtb);
    Gang.addBtbPredictorOnly(L, P4, Tiny, Base);
    Gang.addPredictor(L, TinyCache, TwoLevelPredictor(TL));
    Gang.addPredictorOnly(L, TinyCache, TwoLevelPredictor(TL), TinyIC);
    Gang.addDefault(LSwitch, TinyCache); // a decode group of one
    return Gang.run(Threads, St);
  };
  auto Oracle = [&](const DispatchTrace &T) {
    std::vector<PerfCounters> R;
    R.push_back(TraceReplayer::replayBtb(T, *L, nullptr, P4, P4.Btb));
    R.push_back(TraceReplayer::replayBtb(T, *L, nullptr, P4, Tiny));
    R.push_back(TraceReplayer::replayBtb(T, *L, nullptr, P4, Tinier));
    R.push_back(
        TraceReplayer::replayBtb(T, *L, nullptr, TinyCache, TinyCache.Btb));
    R.push_back(TraceReplayer::replayBtb(T, *L, nullptr, TinyCache, Tiny));
    R.push_back(TraceReplayer::replayBtbPredictorOnly(T, *L, P4, Mid, R[1]));
    R.push_back(TraceReplayer::replayBtbPredictorOnly(T, *L, P4, Tiny, R[0]));
    TwoLevelPredictor Full(TL), Only(TL);
    R.push_back(TraceReplayer::replay(T, *L, nullptr, TinyCache, Full));
    R.push_back(
        TraceReplayer::replayPredictorOnly(T, *L, TinyCache, Only, R[3]));
    R.push_back(TraceReplayer::replayBtb(T, *LSwitch, nullptr, TinyCache,
                                         TinyCache.Btb));
    return R;
  };

  // Placements relative to a probe member's overflow event E (tile
  // index E / Chunk): the first tile, a middle tile, and — on a trace
  // cut right after E — the last tile. Probes: the tiny BTB (BTB-only
  // overflow) and the tiny I-cache.
  struct Placement {
    DispatchTrace Trace;
    size_t Chunk;
    std::string What;
    bool EndsAtOverflow; ///< the probe's catch-up is the whole trace
  };
  std::vector<Placement> Placements;
  const std::pair<const char *, size_t> Probes[] = {
      {"btb", firstOverflowEvent(Prefix, *L, P4, Tiny)},
      {"icache", firstOverflowEvent(Prefix, *L, TinyCache, TinyCache.Btb)}};
  for (const auto &[Name, E] : Probes) {
    ASSERT_GE(E, 8u) << Name << " probe overflows too early to place";
    ASSERT_LT(E, Prefix.numEvents() / 4)
        << Name << " probe must overflow for this test to bite";
    size_t Third = (E + 1) / 3;
    Placements.push_back(
        {Prefix, E + 1, std::string(Name) + "/first", false});
    Placements.push_back(
        {Prefix, Third, std::string(Name) + "/middle", false});
    Placements.push_back({prefixTrace(Prefix, E + 1), Third,
                          std::string(Name) + "/last", true});
  }

  const std::string Path =
      "/tmp/vmib-catchup-" + std::to_string(::getpid()) + ".vmibtrace";
  for (const Placement &P : Placements) {
    // CatchUpEvents is compared across thread counts below, which holds
    // only while a tile is at most one decode sub-tile: serially the
    // group is the worker's own and catches up at sub-tile ends, at
    // four threads it spans workers and catches up at ring-tile ends.
    ASSERT_LE(P.Chunk, gang::DecodeSubTileEvents)
        << P.What << ": catch-up cost is thread-invariant only when a "
        << "tile fits one sub-tile";
    size_t N = P.Trace.numEvents();
    std::vector<PerfCounters> Expected = Oracle(P.Trace);
    ASSERT_TRUE(P.Trace.save(Path, /*WorkloadHash=*/0x1234)) << P.What;
    TraceSource Streamed;
    ASSERT_TRUE(TraceSource::openStreaming(Path, 0x1234, Streamed))
        << P.What;

    bool First = true;
    GangReplayer::Stats Ref;
    for (const TraceSource &Source : {TraceSource(P.Trace), Streamed})
      for (unsigned Threads : {1u, 4u}) {
        std::string What = P.What + (Source.streaming() ? " stream" : "") +
                           " threads " + std::to_string(Threads);
        GangReplayer::Stats St;
        std::vector<PerfCounters> R =
            BuildAndRun(Source, P.Chunk, Threads, &St);
        ASSERT_EQ(R.size(), Expected.size()) << What;
        for (size_t I = 0; I < R.size(); ++I)
          expectEqualCounters(Expected[I], R[I],
                              What + " member " + std::to_string(I));
        if (First) {
          Ref = St;
          First = false;
          EXPECT_GE(St.DeferredFinishes, 3u) << What;
          // Catch-ups replay prefixes, never more than the trace.
          if (P.EndsAtOverflow) {
            EXPECT_LE(St.CatchUpEvents, St.DeferredFinishes * N) << What;
          } else {
            EXPECT_LT(St.CatchUpEvents, St.DeferredFinishes * N) << What;
          }
        }
        EXPECT_EQ(St.DeferredFinishes, Ref.DeferredFinishes) << What;
        EXPECT_EQ(St.CatchUpEvents, Ref.CatchUpEvents) << What;
      }
  }
  std::remove(Path.c_str());
}

namespace {

/// One replaying thread's decode scratch at most: a sub-tile of branch
/// records plus the at most two first-touch fetches per event.
constexpr uint64_t SubTileScratchBytes =
    gang::DecodeSubTileEvents * (sizeof(gang::DecodedChunk::BranchRec) +
                                 2 * sizeof(gang::DecodedChunk::FetchRec));

/// \p N rounded up to whole decode sub-tiles.
size_t subTileCeil(size_t N) {
  return (N + gang::DecodeSubTileEvents - 1) / gang::DecodeSubTileEvents *
         gang::DecodeSubTileEvents;
}

/// Saves \p T to a per-process temp file and opens it as a streaming
/// source; the file stays until the caller removes \p Path.
TraceSource streamedCopy(const DispatchTrace &T, const std::string &Path) {
  TraceSource S;
  EXPECT_TRUE(T.save(Path, /*WorkloadHash=*/0x1234));
  EXPECT_TRUE(TraceSource::openStreaming(Path, 0x1234, S));
  return S;
}

/// Layouts of \p Kinds over "gray", asserted pairwise decode-distinct,
/// so members on different entries never share a decode group.
std::vector<std::shared_ptr<DispatchProgram>>
distinctLayouts(std::initializer_list<DispatchStrategy> Kinds) {
  std::vector<std::shared_ptr<DispatchProgram>> L;
  for (DispatchStrategy K : Kinds)
    L.push_back(forthLab().buildLayout("gray", makeVariant(K)));
  for (size_t I = 0; I < L.size(); ++I)
    for (size_t J = 0; J < I; ++J)
      EXPECT_NE(gang::decodeFingerprint(*L[I]), gang::decodeFingerprint(*L[J]))
          << "layouts " << J << " and " << I << " would share a group";
  return L;
}

} // namespace

TEST(GangReplay, SingletonGroupsMatchPerConfigOracle) {
  // Every member alone on its layout is a decode group of one, decoded
  // sub-tile by sub-tile by the thread that owns it. Full,
  // predictor-only and custom-predictor members, BTB overflows, and
  // I-cache overflows that leave their group mid-tile must equal the
  // per-config TraceReplayer for any thread count, tile size and
  // decode path, with at most one sub-tile of decode scratch per
  // replaying thread.
  CpuConfig P4 = makePentium4Northwood();
  CpuConfig TinyCache = P4;
  TinyCache.ICache.SizeBytes = 1024;
  TinyCache.ICache.Ways = 2;
  BTBConfig Tiny;
  Tiny.Entries = 16;
  Tiny.Ways = 2;
  BTBConfig TwoBit = P4.Btb;
  TwoBit.TwoBitCounters = true;
  TwoLevelConfig TL;
  std::vector<std::shared_ptr<DispatchProgram>> L = distinctLayouts(
      {DispatchStrategy::Threaded, DispatchStrategy::Switch,
       DispatchStrategy::StaticRepl, DispatchStrategy::StaticSuper,
       DispatchStrategy::DynamicRepl, DispatchStrategy::DynamicBoth,
       DispatchStrategy::AcrossBB, DispatchStrategy::WithStaticSuper});
  DispatchTrace Prefix = prefixTrace(forthLab().trace("gray"), 60000);
  const size_t N = Prefix.numEvents();

  auto BuildAndRun = [&](const TraceSource &Source, size_t Chunk,
                         unsigned Threads, GangReplayer::Stats *St) {
    GangReplayer Gang(Source, Chunk);
    size_t Base = Gang.addDefault(L[0], P4);
    Gang.addBtb(L[1], P4, Tiny); // BTB overflow: keeps its group
    Gang.addBtbPredictorOnly(L[2], P4, TwoBit, Base);
    Gang.addPredictorOnly(L[3], P4, TwoLevelPredictor(TL), Base);
    Gang.addPredictor(L[4], P4, CaseBlockTable(1024));
    size_t TinyIC = Gang.addDefault(L[5], TinyCache); // leaves its group
    Gang.addPredictor(L[6], TinyCache, TwoLevelPredictor(TL));
    Gang.addBtbPredictorOnly(L[7], P4, Tiny, TinyIC);
    return Gang.run(Threads, St);
  };
  std::vector<PerfCounters> Expected;
  {
    const DispatchTrace &T = Prefix;
    Expected.push_back(TraceReplayer::replayBtb(T, *L[0], nullptr, P4, P4.Btb));
    Expected.push_back(TraceReplayer::replayBtb(T, *L[1], nullptr, P4, Tiny));
    Expected.push_back(TraceReplayer::replayBtbPredictorOnly(
        T, *L[2], P4, TwoBit, Expected[0]));
    TwoLevelPredictor Only(TL), Full(TL);
    Expected.push_back(
        TraceReplayer::replayPredictorOnly(T, *L[3], P4, Only, Expected[0]));
    CaseBlockTable Cbt(1024);
    Expected.push_back(TraceReplayer::replay(T, *L[4], nullptr, P4, Cbt));
    Expected.push_back(TraceReplayer::replayBtb(T, *L[5], nullptr, TinyCache,
                                                TinyCache.Btb));
    Expected.push_back(
        TraceReplayer::replay(T, *L[6], nullptr, TinyCache, Full));
    Expected.push_back(TraceReplayer::replayBtbPredictorOnly(
        T, *L[7], P4, Tiny, Expected[5]));
  }

  const std::string Path =
      "/tmp/vmib-singleton-" + std::to_string(::getpid()) + ".vmibtrace";
  TraceSource Streamed = streamedCopy(Prefix, Path);
  for (const TraceSource &Source : {TraceSource(Prefix), Streamed})
    for (size_t Chunk : {size_t{1}, size_t{4096}, size_t{65536}})
      for (unsigned Threads : {1u, 2u, 4u}) {
        std::string What = std::string(Source.streaming() ? "stream" : "mat") +
                           " chunk " + std::to_string(Chunk) + " threads " +
                           std::to_string(Threads);
        GangReplayer::Stats St;
        std::vector<PerfCounters> R = BuildAndRun(Source, Chunk, Threads, &St);
        ASSERT_EQ(R.size(), Expected.size()) << What;
        for (size_t I = 0; I < R.size(); ++I)
          expectEqualCounters(Expected[I], R[I],
                              What + " member " + std::to_string(I));
        EXPECT_GE(St.DeferredFinishes, 3u) << What;
        EXPECT_GT(St.PeakDecodeScratchBytes, 0u) << What;
        EXPECT_LE(St.PeakDecodeScratchBytes, Threads * SubTileScratchBytes)
            << What;
      }
  std::remove(Path.c_str());

  // The mid-tile exit itself: alone in a serial gang over one 64K tile,
  // the tiny-I-cache member catches up at the end of the sub-tile it
  // overflowed in, leaves its group there and replays the rest of the
  // tile fused.
  size_t E = firstOverflowEvent(Prefix, *L[5], TinyCache, TinyCache.Btb);
  ASSERT_LT(subTileCeil(E + 1), N)
      << "the overflow must land before the tile's last sub-tile";
  GangReplayer Gang(Prefix, /*Chunk=*/65536);
  Gang.addDefault(L[5], TinyCache);
  GangReplayer::Stats St;
  std::vector<PerfCounters> R = Gang.run(1, &St);
  expectEqualCounters(Expected[5], R[0], "mid-tile exit");
  EXPECT_EQ(St.DeferredFinishes, 1u);
  EXPECT_EQ(St.CatchUpEvents, subTileCeil(E + 1));
  EXPECT_LE(St.PeakDecodeScratchBytes, SubTileScratchBytes);
}

TEST(GangReplay, PooledGangMixesWorkerLocalAndCrossWorkerGroups) {
  // Members on layouts [A, B, C, A, D, D]: on two workers (slices
  // {0,1,2} and {3,4,5}) A spans both and is decoded once per tile
  // into the ring, while B, C and D are decoded by their owners; on
  // four ({0,1}, {2,3}, {4}, {5}) A and D span workers and B, C stay
  // local. Either way every cell equals the per-config replayer.
  CpuConfig P4 = makePentium4Northwood();
  CpuConfig TinyCache = P4;
  TinyCache.ICache.SizeBytes = 1024;
  TinyCache.ICache.Ways = 2;
  BTBConfig Tiny;
  Tiny.Entries = 16;
  Tiny.Ways = 2;
  BTBConfig TwoBit = P4.Btb;
  TwoBit.TwoBitCounters = true;
  TwoLevelConfig TL;
  std::vector<std::shared_ptr<DispatchProgram>> L = distinctLayouts(
      {DispatchStrategy::Threaded, DispatchStrategy::Switch,
       DispatchStrategy::StaticRepl, DispatchStrategy::DynamicBoth});
  DispatchTrace Prefix = prefixTrace(forthLab().trace("gray"), 60000);

  auto BuildAndRun = [&](const TraceSource &Source, size_t Chunk,
                         unsigned Threads, GangReplayer::Stats *St) {
    GangReplayer Gang(Source, Chunk);
    size_t Base = Gang.addDefault(L[0], P4);
    Gang.addDefault(L[1], P4);
    Gang.addBtb(L[2], P4, Tiny);
    Gang.addBtbPredictorOnly(L[0], P4, TwoBit, Base);
    size_t TinyIC = Gang.addDefault(L[3], TinyCache);
    Gang.addPredictorOnly(L[3], TinyCache, TwoLevelPredictor(TL), TinyIC);
    return Gang.run(Threads, St);
  };
  std::vector<PerfCounters> Expected;
  {
    const DispatchTrace &T = Prefix;
    Expected.push_back(TraceReplayer::replayBtb(T, *L[0], nullptr, P4, P4.Btb));
    Expected.push_back(TraceReplayer::replayBtb(T, *L[1], nullptr, P4, P4.Btb));
    Expected.push_back(TraceReplayer::replayBtb(T, *L[2], nullptr, P4, Tiny));
    Expected.push_back(TraceReplayer::replayBtbPredictorOnly(
        T, *L[0], P4, TwoBit, Expected[0]));
    Expected.push_back(TraceReplayer::replayBtb(T, *L[3], nullptr, TinyCache,
                                                TinyCache.Btb));
    TwoLevelPredictor Only(TL);
    Expected.push_back(TraceReplayer::replayPredictorOnly(T, *L[3], TinyCache,
                                                         Only, Expected[4]));
  }

  const std::string Path =
      "/tmp/vmib-mixedgroups-" + std::to_string(::getpid()) + ".vmibtrace";
  TraceSource Streamed = streamedCopy(Prefix, Path);
  for (const TraceSource &Source : {TraceSource(Prefix), Streamed})
    for (size_t Chunk : {size_t{4096}, size_t{65536}})
      for (unsigned Threads : {2u, 4u}) {
        std::string What = std::string(Source.streaming() ? "stream" : "mat") +
                           " chunk " + std::to_string(Chunk) + " threads " +
                           std::to_string(Threads);
        GangReplayer::Stats St;
        std::vector<PerfCounters> R = BuildAndRun(Source, Chunk, Threads, &St);
        ASSERT_EQ(R.size(), Expected.size()) << What;
        for (size_t I = 0; I < R.size(); ++I)
          expectEqualCounters(Expected[I], R[I],
                              What + " member " + std::to_string(I));
        ASSERT_EQ(St.Workers.size(), Threads) << What;
        EXPECT_GT(St.PeakDecodeScratchBytes, 0u) << What;
        EXPECT_LE(St.PeakDecodeScratchBytes, Threads * SubTileScratchBytes)
            << What;
      }
  std::remove(Path.c_str());
}

TEST(GangReplay, SchedulerStatsAccountGangWork) {
  // The imbalance-reporting contract: the pool stats must add up — on
  // a no-dropout gang every worker row is populated and the events
  // replayed sum to members × trace events.
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  DispatchTrace Prefix = prefixTrace(Lab.trace("gray"), 60000);
  std::shared_ptr<DispatchProgram> L = Lab.buildLayout("gray", Threaded);
  constexpr size_t NumMembers = 5;

  {
    GangReplayer Gang(Prefix, /*Chunk=*/4096);
    for (size_t I = 0; I < NumMembers; ++I)
      Gang.addDefault(L, P4);
    GangReplayer::Stats St;
    std::vector<PerfCounters> R = Gang.run(3, &St);
    ASSERT_EQ(R.size(), NumMembers);
    ASSERT_EQ(St.Workers.size(), 3u);
    uint64_t Events = 0, Steals = 0;
    double Busy = 0;
    for (const GangReplayer::Stats::Worker &W : St.Workers) {
      Events += W.EventsReplayed;
      Steals += W.MembersStolen;
      Busy += W.BusySeconds;
    }
    EXPECT_EQ(Events, Prefix.numEvents() * NumMembers);
    EXPECT_GT(Busy, 0.0);
    EXPECT_EQ(St.DeferredFinishes, 0u);
    EXPECT_EQ(St.CatchUpEvents, 0u);
    EXPECT_EQ(Steals, 0u) << "fixed slices never steal";
    EXPECT_GE(St.FinishSeconds, 0.0);
    EXPECT_GE(St.ReplayWallSeconds, St.FinishSeconds);
    EXPECT_LE(Busy, St.ReplayWallSeconds * St.Workers.size());
  }

  // Serial runs have no pool to account.
  GangReplayer Gang(Prefix, 4096);
  Gang.addDefault(L, P4);
  GangReplayer::Stats St;
  (void)Gang.run(1, &St);
  EXPECT_TRUE(St.Workers.empty());
}

TEST(GangReplay, ThreadedFullTraceMatchesPerConfigReplay) {
  // End to end on the full traces: the threaded lab gang equals the
  // per-config TraceReplayer on both suites (not just the serial gang).
  ForthLab &FLab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  std::vector<VariantSpec> FVariants = {
      makeVariant(DispatchStrategy::Threaded),
      makeVariant(DispatchStrategy::StaticRepl),
      makeVariant(DispatchStrategy::DynamicBoth)};
  std::vector<PerfCounters> FGang =
      forthGang("gray", FVariants, P4, /*Threads=*/4);
  ASSERT_EQ(FGang.size(), FVariants.size());
  for (size_t I = 0; I < FVariants.size(); ++I)
    expectEqualCounters(FLab.replay("gray", FVariants[I], P4), FGang[I],
                        "forth threaded gang/" + FVariants[I].Name);

  JavaLab &JLab = javaLab();
  std::vector<VariantSpec> JVariants = {
      makeVariant(DispatchStrategy::Threaded),
      makeVariant(DispatchStrategy::DynamicSuper)};
  std::vector<PerfCounters> JGang =
      JLab.replayGang("jess", JVariants, P4, /*Threads=*/4);
  ASSERT_EQ(JGang.size(), JVariants.size());
  for (size_t I = 0; I < JVariants.size(); ++I)
    expectEqualCounters(JLab.replay("jess", JVariants[I], P4), JGang[I],
                        "java threaded gang/" + JVariants[I].Name);
}

TEST(GangReplay, JavaGangTakesOverheadBasisFromPlainMember) {
  // A Java gang that replays the plain variant takes the uncached
  // runtime-overhead basis from that member instead of adding a hidden
  // one; its cells and basis equal those of a gang without `plain`,
  // which does need the hidden member.
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Plain = makeVariant(DispatchStrategy::Threaded);
  VariantSpec Super = makeVariant(DispatchStrategy::DynamicSuper);
  auto MembersReplayed = [](const GangReplayer::Stats &St) {
    uint64_t Events = 0;
    for (const GangReplayer::Stats::Worker &W : St.Workers)
      Events += W.EventsReplayed;
    return Events / St.SourceEvents;
  };

  JavaLab WithPlain, Without;
  GangReplayer::Stats St;
  std::vector<PerfCounters> R =
      WithPlain.replayGang("jess", {Plain, Super}, P4, /*Threads=*/2, &St);
  EXPECT_EQ(MembersReplayed(St), 2u) << "no hidden basis member";
  std::vector<PerfCounters> S =
      Without.replayGang("jess", {Super}, P4, /*Threads=*/2, &St);
  EXPECT_EQ(MembersReplayed(St), 2u) << "the hidden basis member rides";
  ASSERT_EQ(R.size(), 2u);
  ASSERT_EQ(S.size(), 1u);
  expectEqualCounters(S[0], R[1], "dynamic super");
  EXPECT_EQ(WithPlain.runtimeOverhead("jess", P4),
            Without.runtimeOverhead("jess", P4));
  expectEqualCounters(javaLab().replay("jess", Plain, P4), R[0], "plain");
}

TEST(GangReplay, StateBytesAuditCoversModels) {
  // The packing audit: model state must be accounted (non-zero, and
  // scaling with the table geometry) so gang sizing decisions have
  // real numbers to work with.
  BTBConfig Big;
  Big.Entries = 4096;
  BTBConfig Small;
  Small.Entries = 64;
  EXPECT_GT(BTB(Big).stateBytes(), BTB(Small).stateBytes());
  EXPECT_GT(NoEvictBTB(Big).stateBytes(), NoEvictBTB(Small).stateBytes());
  TwoLevelConfig TL;
  EXPECT_GT(TwoLevelPredictor(TL).stateBytes(), 0u);
  EXPECT_GT(CaseBlockTable(4096).stateBytes(), 0u);
  ICacheConfig IC;
  EXPECT_GT(InstructionCache(IC).stateBytes(), 0u);
  // The no-evict model carries tags only — the dense-packing audit
  // point: strictly smaller than the exact model it shadows.
  EXPECT_LT(NoEvictICache(IC).stateBytes(),
            InstructionCache(IC).stateBytes());

  NoEvictICache Cache(IC);
  (void)Cache.access(0x1000, 64);
  Cache.reset();
  EXPECT_FALSE(Cache.overflowed());
}
