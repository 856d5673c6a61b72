//===- tests/TraceCodecTest.cpp - Trace file encoding ---------------------===//
///
/// Pins the delta/varint trace file encoding under the bit-identity
/// contract:
///
///  - it round-trips every trace shape (frame boundaries, wild deltas,
///    halt sentinels, quickens) bit-identically, declares the logical
///    content hash in its header, and actually compresses walk-shaped
///    dispatch streams (the ratio the :decodebandwidth line reports);
///  - ResultStore cell keys are derived from that logical hash, not
///    from the file bytes;
///  - streaming decode (FrameReader / TraceSource) hands out exactly
///    the materialized stream and rejects corrupt frames;
///  - a retired version-1 cache entry is rejected with a diagnostic,
///    re-captured and rewritten, and the sweep's cells do not change.
///
//===----------------------------------------------------------------------===//

#include "harness/ResultStore.h"
#include "harness/SweepExecutor.h"
#include "harness/SweepSpec.h"
#include "harness/Variants.h"
#include "support/Random.h"
#include "vmcore/DispatchTrace.h"
#include "vmcore/TraceSource.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

using namespace vmib;

namespace {

constexpr uint64_t WorkloadHash = 0xabcddcba1234ULL;

std::string tempPath(const char *Tag) {
  return "/tmp/vmib-codec-" + std::string(Tag) + "-" +
         std::to_string(::getpid()) + ".vmibtrace";
}

/// Round-trips \p T through a trace file and checks that the load is
/// bit-identical and the header declares the logical content hash.
void expectRoundTrip(const DispatchTrace &T, const std::string &What) {
  std::string Path = tempPath("roundtrip");
  ASSERT_TRUE(T.save(Path, WorkloadHash)) << What;
  DispatchTrace::FileInfo Info;
  ASSERT_TRUE(DispatchTrace::peekFileInfo(Path, Info)) << What;
  EXPECT_EQ(2u, Info.Version) << What;
  EXPECT_EQ(T.numEvents(), Info.NumEvents) << What;
  EXPECT_EQ(T.numQuickens(), Info.NumQuickens) << What;
  uint64_t Peeked = 0;
  ASSERT_TRUE(DispatchTrace::peekContentHash(Path, Peeked)) << What;
  EXPECT_EQ(T.contentHash(), Peeked) << What;
  DispatchTrace Loaded;
  std::string Diag;
  ASSERT_TRUE(Loaded.load(Path, WorkloadHash, &Diag)) << What << ": "
                                                      << Diag;
  EXPECT_EQ(T.events(), Loaded.events()) << What;
  EXPECT_EQ(T.numQuickens(), Loaded.numQuickens()) << What;
  EXPECT_EQ(T.contentHash(), Loaded.contentHash()) << What;
  std::remove(Path.c_str());
}

} // namespace

TEST(TraceCodecTest, RoundTripShapes) {
  // Empty.
  expectRoundTrip(DispatchTrace(), "empty trace");

  // One event, ending in the halt sentinel (next = 0xffffffff).
  {
    DispatchTrace T;
    T.append(7, 0xffffffffu);
    expectRoundTrip(T, "single halt event");
  }

  // Exactly one frame, one frame + 1, and one frame - 1 (the frame
  // size is 65536 events; boundary off-by-ones are where framed codecs
  // break).
  for (uint32_t N : {65535u, 65536u, 65537u}) {
    DispatchTrace T;
    uint32_t Ip = 0;
    for (uint32_t I = 0; I < N; ++I) {
      uint32_t Next = I % 16 == 15 ? (Ip * 2654435761u) % 4096 : Ip + 1;
      T.append(Ip, Next);
      Ip = Next;
    }
    expectRoundTrip(T, "frame boundary " + std::to_string(N));
  }

  // Adversarial deltas: maximal forward/backward jumps in both cur and
  // next, so every varint width and both zigzag signs appear.
  {
    DispatchTrace T;
    Xoroshiro128 Rng(0x636f646563ULL);
    for (int I = 0; I < 5000; ++I)
      T.append(static_cast<uint32_t>(Rng.next()),
               static_cast<uint32_t>(Rng.next()));
    expectRoundTrip(T, "random jumps");
  }

  // Quicken records: clustered, sign-mixed operands, wide indices.
  {
    DispatchTrace T;
    for (uint32_t I = 0; I < 300; ++I) {
      T.append(I, I + 1);
      if (I % 3 == 0) {
        VMInstr Q;
        Q.Op = static_cast<Opcode>(I % 31);
        Q.A = I % 2 == 0 ? -(int64_t{1} << 40) - I : (int64_t{1} << 50) + I;
        Q.B = -static_cast<int64_t>(I) * 7;
        T.appendQuicken(I * 9973 % 100000, Q);
      }
    }
    expectRoundTrip(T, "quicken stress");
  }
}

TEST(TraceCodecTest, WalkTraceCompressesAtLeastTwofold) {
  // A dispatch-shaped walk (straight-line runs broken by indirect
  // jumps, like every real and synthetic workload) must compress >= 2x
  // against its 8-bytes-per-event logical footprint — the floor the
  // :decodebandwidth line is expected to show in CI.
  DispatchTrace T;
  Xoroshiro128 Rng(0x77616c6bULL);
  uint32_t Ip = 0;
  for (uint32_t I = 0; I < 300000; ++I) {
    uint32_t Next = Ip % 16 == 15
                        ? static_cast<uint32_t>(Rng.nextBelow(4096)) * 16
                        : Ip + 1;
    T.append(Ip, Next);
    Ip = Next;
  }
  std::string Path = tempPath("ratio");
  ASSERT_TRUE(T.save(Path, WorkloadHash));
  DispatchTrace::FileInfo Info;
  ASSERT_TRUE(DispatchTrace::peekFileInfo(Path, Info));
  EXPECT_GE(Info.ratio(), 2.0) << "trace encoding stopped compressing: "
                               << Info.FileBytes << " bytes for "
                               << Info.LogicalBytes << " logical";
  std::remove(Path.c_str());
}

TEST(TraceCodecTest, ReencodedTraceHitsSameStoreCells) {
  // Store keys come from the logical content hash, not from the bytes
  // on disk: record cells keyed by one trace file, rewrite the same
  // trace into a file whose bytes differ (another workload hash moves
  // header word 4 and the header checksum), and the store must serve
  // the same cells; a trace with different content must miss.
  SweepSpec Spec;
  Spec.Name = "codec";
  Spec.Suite = "forth";
  Spec.Benchmarks = {"fib"};
  Spec.Variants = {makeVariant(DispatchStrategy::Threaded),
                   makeVariant(DispatchStrategy::StaticRepl)};
  Spec.Cpus = {"p4northwood"};

  DispatchTrace T;
  for (uint32_t I = 0; I < 4096; ++I)
    T.append(I % 97, (I + 1) % 97);
  std::string TracePath = tempPath("store");
  auto FileBytes = [&] {
    std::vector<unsigned char> Bytes;
    std::FILE *F = std::fopen(TracePath.c_str(), "rb");
    for (int C; F && (C = std::fgetc(F)) != EOF;)
      Bytes.push_back(static_cast<unsigned char>(C));
    if (F)
      std::fclose(F);
    return Bytes;
  };

  char StoreTemplate[] = "/tmp/vmib-codec-store-XXXXXX";
  ASSERT_NE(nullptr, ::mkdtemp(StoreTemplate));
  std::string StoreDir = StoreTemplate;
  {
    ResultStore Store;
    std::string Diag;
    ASSERT_TRUE(Store.open(StoreDir, &Diag)) << Diag;

    ASSERT_TRUE(T.save(TracePath, WorkloadHash));
    std::vector<unsigned char> FirstBytes = FileBytes();
    uint64_t FirstHash = 0;
    ASSERT_TRUE(DispatchTrace::peekContentHash(TracePath, FirstHash));
    for (size_t M = 0; M < Spec.Variants.size(); ++M) {
      PerfCounters C;
      C.Cycles = 1000 + M;
      C.DispatchCount = 4096;
      Store.record(cellStoreKey(Spec, M, FirstHash), C);
    }
    ASSERT_TRUE(Store.flush());

    ASSERT_TRUE(T.save(TracePath, WorkloadHash ^ 0xfeed));
    ASSERT_NE(FirstBytes, FileBytes()) << "rewrite left the bytes alone";
    uint64_t SecondHash = 0;
    ASSERT_TRUE(DispatchTrace::peekContentHash(TracePath, SecondHash));
    EXPECT_EQ(FirstHash, SecondHash);
    EXPECT_EQ(T.contentHash(), SecondHash);
    for (size_t M = 0; M < Spec.Variants.size(); ++M) {
      PerfCounters C;
      EXPECT_TRUE(Store.probe(cellStoreKey(Spec, M, SecondHash), C))
          << "member " << M << " missed after the rewrite";
      EXPECT_EQ(1000 + M, C.Cycles);
    }

    DispatchTrace Other = T;
    Other.append(1, 2);
    ASSERT_TRUE(Other.save(TracePath, WorkloadHash));
    uint64_t OtherHash = 0;
    ASSERT_TRUE(DispatchTrace::peekContentHash(TracePath, OtherHash));
    PerfCounters C;
    EXPECT_FALSE(Store.probe(cellStoreKey(Spec, 0, OtherHash), C))
        << "different trace content served a stored cell";
  }
  std::remove(TracePath.c_str());
  std::string Cleanup = "rm -rf '" + StoreDir + "'";
  ASSERT_EQ(0, std::system(Cleanup.c_str()));
}

namespace {

/// A multi-frame walk with quicken records clustered around the
/// 64K-event frame boundaries — the shapes where a streaming decoder
/// with per-frame state is most likely to diverge from load().
DispatchTrace makeMultiFrameTrace(uint32_t NumEvents) {
  DispatchTrace T;
  Xoroshiro128 Rng(0x73747265616dULL);
  uint32_t Ip = 0;
  for (uint32_t I = 0; I < NumEvents; ++I) {
    uint32_t Next = Ip % 16 == 15
                        ? static_cast<uint32_t>(Rng.nextBelow(4096)) * 16
                        : Ip + 1;
    T.append(Ip, Next);
    Ip = Next;
    // Quickens at, just before, and just after each frame boundary,
    // plus a sparse background population.
    uint32_t InFrame = I % 65536;
    if (InFrame == 65535 || InFrame == 0 || InFrame == 1 || I % 9973 == 0) {
      VMInstr Q;
      Q.Op = static_cast<Opcode>(I % 31);
      Q.A = static_cast<int64_t>(I) * 3 - 1000;
      Q.B = -static_cast<int64_t>(InFrame);
      T.appendQuicken(I, Q);
    }
  }
  return T;
}

} // namespace

TEST(TraceCodecTest, StreamingDecodeBitIdenticalToMaterialized) {
  // ~2.3 frames of events, quickens straddling both frame boundaries.
  DispatchTrace T = makeMultiFrameTrace(150000);
  std::string Path = tempPath("stream");
  ASSERT_TRUE(T.save(Path, WorkloadHash));
  {
    TraceSource Stream;
    std::string Diag;
    ASSERT_TRUE(TraceSource::openStreaming(Path, WorkloadHash, Stream, &Diag))
        << Diag;
    ASSERT_TRUE(Stream.streaming());
    EXPECT_EQ(T.numEvents(), Stream.numEvents());
    EXPECT_EQ(T.contentHash(), Stream.contentHash());
    ASSERT_EQ(T.numQuickens(), Stream.numQuickens());
    for (size_t I = 0; I < T.numQuickens(); ++I) {
      EXPECT_EQ(T.quickens()[I].AfterEvents, Stream.quickens()[I].AfterEvents);
      EXPECT_EQ(T.quickens()[I].Index, Stream.quickens()[I].Index);
      // Field by field: VMInstr has padding after Op, which memcmp
      // would compare as uninitialized bytes.
      EXPECT_EQ(T.quickens()[I].NewInstr.Op, Stream.quickens()[I].NewInstr.Op);
      EXPECT_EQ(T.quickens()[I].NewInstr.A, Stream.quickens()[I].NewInstr.A);
      EXPECT_EQ(T.quickens()[I].NewInstr.B, Stream.quickens()[I].NewInstr.B);
    }

    TraceSource Mat(T);
    // Tile sizes chosen to hit every boundary class: odd (tiles
    // straddle frames), the default, one frame exactly, and oversize
    // (one tile spanning the whole trace).
    for (size_t Chunk : {size_t(999), size_t(0), size_t(65536),
                         size_t(1) << 21}) {
      TraceSource::Cursor SC = Stream.cursor(Chunk);
      TraceSource::Cursor MC = Mat.cursor(Chunk);
      std::vector<DispatchTrace::Event> SBuf, MBuf;
      EventSpan SSpan, MSpan;
      size_t Tiles = 0;
      for (;;) {
        bool SMore = SC.nextInto(SBuf, SSpan);
        bool MMore = MC.nextInto(MBuf, MSpan);
        ASSERT_EQ(MMore, SMore) << "tile count diverged at tile " << Tiles
                                << " chunk " << Chunk;
        if (!SMore)
          break;
        ASSERT_EQ(MSpan.Begin, SSpan.Begin) << "chunk " << Chunk;
        ASSERT_EQ(MSpan.End, SSpan.End) << "chunk " << Chunk;
        ASSERT_EQ(0, std::memcmp(MSpan.Data, SSpan.Data,
                                 SSpan.size() * sizeof(DispatchTrace::Event)))
            << "tile " << Tiles << " chunk " << Chunk;
        ++Tiles;
      }
    }
  }
  std::remove(Path.c_str());
}

TEST(TraceCodecTest, FrameReaderIncrementalApi) {
  DispatchTrace T = makeMultiFrameTrace(70000); // frame + partial frame
  std::string Path = tempPath("reader");
  ASSERT_TRUE(T.save(Path, WorkloadHash));

  DispatchTrace::FrameReader R;
  std::string Diag;
  ASSERT_TRUE(R.open(Path, WorkloadHash, &Diag)) << Diag;
  EXPECT_EQ(T.numEvents(), R.numEvents());
  EXPECT_EQ(T.numQuickens(), R.numQuickens());
  EXPECT_EQ(WorkloadHash, R.workloadHash());
  EXPECT_EQ(T.contentHash(), R.contentHash());

  // Odd-sized bites across the frame boundary; read() appends.
  std::vector<DispatchTrace::Event> Got;
  while (R.eventsRemaining() > 0) {
    size_t Before = Got.size();
    ASSERT_TRUE(R.read(777, Got)) << R.error();
    ASSERT_GT(Got.size(), Before) << "no progress before end of stream";
  }
  ASSERT_EQ(T.numEvents(), Got.size());
  EXPECT_EQ(0, std::memcmp(T.events().data(), Got.data(),
                           Got.size() * sizeof(DispatchTrace::Event)));
  // Exhausted: a further read appends nothing but still succeeds.
  size_t AtEnd = Got.size();
  ASSERT_TRUE(R.read(100, Got));
  EXPECT_EQ(AtEnd, Got.size());

  // Rewind, second pass in one gulp: identical bytes.
  ASSERT_TRUE(R.rewind());
  EXPECT_EQ(T.numEvents(), R.eventsRemaining());
  std::vector<DispatchTrace::Event> Again;
  ASSERT_TRUE(R.read(T.numEvents(), Again)) << R.error();
  EXPECT_EQ(0, std::memcmp(T.events().data(), Again.data(),
                           Again.size() * sizeof(DispatchTrace::Event)));
  std::remove(Path.c_str());
}

TEST(TraceCodecTest, StreamingZeroEventsAndOversizeChunk) {
  DispatchTrace Empty;
  std::string Path = tempPath("empty");
  ASSERT_TRUE(Empty.save(Path, WorkloadHash));
  {
    TraceSource S;
    std::string Diag;
    ASSERT_TRUE(TraceSource::openStreaming(Path, WorkloadHash, S, &Diag))
        << Diag;
    EXPECT_EQ(0u, S.numEvents());
    TraceSource::Cursor C = S.cursor(4096);
    std::vector<DispatchTrace::Event> Buf;
    EventSpan Span;
    EXPECT_FALSE(C.nextInto(Buf, Span)) << "zero-event trace yielded a tile";
  }
  std::remove(Path.c_str());
}

TEST(TraceCodecTest, StreamingRejectsBitCorruption) {
  DispatchTrace T = makeMultiFrameTrace(100000);
  std::string Path = tempPath("corrupt");

  // open() validates header/directory/quickens; a flipped byte in an
  // event frame is caught by that frame's checksum at read() time,
  // before any decoded event escapes.
  ASSERT_TRUE(T.save(Path, WorkloadHash));
  {
    // Find the payload region: flip a byte well inside the event
    // frames (half-way through the file is always event payload for
    // this shape — quickens are a tiny tail).
    FILE *F = std::fopen(Path.c_str(), "r+b");
    ASSERT_NE(nullptr, F);
    std::fseek(F, 0, SEEK_END);
    long Size = std::ftell(F);
    std::fseek(F, Size / 2, SEEK_SET);
    int Byte = std::fgetc(F);
    std::fseek(F, Size / 2, SEEK_SET);
    std::fputc(Byte ^ 0x40, F);
    std::fclose(F);

    DispatchTrace::FrameReader R;
    std::string Diag;
    ASSERT_TRUE(R.open(Path, WorkloadHash, &Diag))
        << "open should defer payload verification: " << Diag;
    std::vector<DispatchTrace::Event> Out;
    bool Failed = false;
    while (R.eventsRemaining() > 0)
      if (!R.read(65536, Out)) {
        Failed = true;
        break;
      }
    ASSERT_TRUE(Failed) << "corrupt frame decoded without complaint";
    EXPECT_NE(std::string::npos, R.error().find("checksum"))
        << "unexpected diagnostic: " << R.error();
  }
  std::remove(Path.c_str());
}

TEST(TraceCodecTest, LegacyVersion1CacheEntryIsRecaptured) {
  // A cache written before the flat version-1 encoding was retired
  // must not be trusted: every reader rejects the file naming its
  // version, the lab warns and re-captures, the entry is rewritten in
  // the current format, and the sweep's cells equal a fresh-cache run.
  SweepSpec Spec;
  Spec.Name = "legacy";
  Spec.Suite = "forth";
  Spec.Benchmarks = {"vmgen"};
  Spec.Variants = {makeVariant(DispatchStrategy::Threaded),
                   makeVariant(DispatchStrategy::StaticRepl)};
  Spec.Cpus = {"p4northwood"};

  char FreshTemplate[] = "/tmp/vmib-codec-fresh-XXXXXX";
  char LegacyTemplate[] = "/tmp/vmib-codec-legacy-XXXXXX";
  ASSERT_NE(nullptr, ::mkdtemp(FreshTemplate));
  ASSERT_NE(nullptr, ::mkdtemp(LegacyTemplate));

  ::setenv("VMIB_TRACE_CACHE", FreshTemplate, 1);
  SweepExecutor FreshRun;
  std::vector<PerfCounters> Reference;
  FreshRun.runAll(Spec, 1, Reference);
  const DispatchTrace &T = FreshRun.forth().trace("vmgen");
  const uint64_t WH = FreshRun.forth().referenceHash("vmgen");
  ASSERT_EQ(0u, T.numQuickens());

  // The version-1 layout, by hand: six header words (magic, version,
  // event count, quicken count, workload hash, logical content hash)
  // followed by the raw event words.
  ::setenv("VMIB_TRACE_CACHE", LegacyTemplate, 1);
  std::string Path = DispatchTrace::cachePathFor("forth-vmgen");
  {
    const uint64_t Header[6] = {0x0143525442494d56ULL, 1, T.numEvents(), 0,
                                WH, T.contentHash()};
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(nullptr, F);
    ASSERT_EQ(6u, std::fwrite(Header, sizeof(uint64_t), 6, F));
    ASSERT_EQ(T.numEvents(), std::fwrite(T.events().data(),
                                         sizeof(DispatchTrace::Event),
                                         T.numEvents(), F));
    ASSERT_EQ(0, std::fclose(F));
  }

  const std::string Version = "format version 1";
  {
    DispatchTrace Loaded;
    std::string Diag;
    EXPECT_FALSE(Loaded.load(Path, WH, &Diag));
    EXPECT_NE(std::string::npos, Diag.find(Version)) << Diag;
    EXPECT_TRUE(Loaded.empty());

    DispatchTrace::FrameReader R;
    Diag.clear();
    EXPECT_FALSE(R.open(Path, WH, &Diag));
    EXPECT_NE(std::string::npos, Diag.find(Version)) << Diag;

    uint64_t Hash = 0;
    Diag.clear();
    EXPECT_FALSE(DispatchTrace::peekContentHash(Path, Hash, &Diag));
    EXPECT_NE(std::string::npos, Diag.find(Version)) << Diag;
  }

  SweepExecutor LegacyRun;
  std::vector<PerfCounters> Cells;
  ::testing::internal::CaptureStderr();
  LegacyRun.runAll(Spec, 1, Cells);
  std::string Err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(std::string::npos,
            Err.find("warning: ignoring trace cache entry: " + Path))
      << Err;
  EXPECT_NE(std::string::npos, Err.find(Version)) << Err;

  DispatchTrace::FileInfo Info;
  ASSERT_TRUE(DispatchTrace::peekFileInfo(Path, Info));
  EXPECT_EQ(2u, Info.Version);
  DispatchTrace Rewritten;
  std::string Diag;
  ASSERT_TRUE(Rewritten.load(Path, WH, &Diag)) << Diag;
  EXPECT_EQ(T.contentHash(), Rewritten.contentHash());

  ASSERT_EQ(Reference.size(), Cells.size());
  for (size_t I = 0; I < Cells.size(); ++I)
    EXPECT_EQ(Reference[I].fingerprint(), Cells[I].fingerprint())
        << "cell " << I;

  ::unsetenv("VMIB_TRACE_CACHE");
  std::string Cleanup = std::string("rm -rf '") + FreshTemplate + "' '" +
                        LegacyTemplate + "'";
  ASSERT_EQ(0, std::system(Cleanup.c_str()));
}
