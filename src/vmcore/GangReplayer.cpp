//===- vmcore/GangReplayer.cpp --------------------------------------------===//

#include "vmcore/GangReplayer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <thread>

using namespace vmib;

uint64_t gang::decodeFingerprint(const DispatchProgram &Layout) {
  // FNV-1a over every field decodeSpan() reads, mixed field by field
  // (hashing raw structs would fold in padding bytes). Any layout
  // property the decoder starts consuming must be added here, or two
  // decode-distinct layouts could share a stream.
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](uint64_t V) {
    for (unsigned I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xFF;
      H *= 0x100000001b3ULL;
    }
  };
  auto MixPiece = [&](const Piece &P) {
    Mix(P.EntryAddr);
    Mix(P.BranchSite);
    Mix(P.CodeBytes);
    Mix(P.WorkInstrs);
    Mix(P.DispatchInstrs);
    Mix(static_cast<uint64_t>(P.Kind));
    Mix(P.ExtraFetchAddr);
    Mix(P.ExtraFetchBytes);
    Mix(P.ColdStubBranch ? 1 : 0);
    Mix(P.FallbackEnd);
  };
  uint32_t N = Layout.numPieces();
  bool Fallbacks = Layout.hasFallbacks();
  Mix(N);
  Mix(Fallbacks ? 1 : 0);
  for (uint32_t I = 0; I < N; ++I) {
    MixPiece(Layout.piece(I));
    Mix(Layout.hintFor(I));
    if (Fallbacks)
      MixPiece(Layout.fallback(I));
  }
  return H;
}

namespace {

using Clock = std::chrono::steady_clock;

uint64_t elapsedNs(Clock::time_point Since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Since)
          .count());
}

/// Members sharing one decoded stream: two or more members whose
/// layouts carry the same decode fingerprint amortize one SoA decode
/// per tile across the group.
struct Group {
  std::unique_ptr<gang::GroupDecoder> Decoder;
  std::vector<size_t> MemberIdx;
};

/// One slot of the parallel tile ring. The decoder publishes a tile by
/// storing its index into Seq (release) after filling Begin/End and the
/// per-group chunks; each worker decrements Pending (release) once it
/// replayed its member slice over the tile, and the decoder refills the
/// slot once Pending hits zero (acquire), so chunk memory is never
/// written while a worker reads it.
struct TileSlot {
  /// The tile's event window. Materialized sources alias the trace
  /// arena (Raw stays empty); streaming sources decode the tile into
  /// Raw and Span points at it — the slot owns the only copy of those
  /// events, so ring memory is O(tile x slots) regardless of trace
  /// length.
  EventSpan Span;
  std::vector<DispatchTrace::Event> Raw;
  std::vector<gang::DecodedChunk> Chunks; ///< one per group
  std::atomic<int64_t> Seq{-1};           ///< tile index this slot holds
  std::atomic<unsigned> Pending{0};       ///< workers yet to drain it
};

} // namespace

std::vector<PerfCounters> GangReplayer::run(unsigned Threads,
                                            Stats *StatsOut) {
  Clock::time_point RunStart = Clock::now();
  // Scratch sizing: a tile never exceeds the trace, so clamp before
  // the decoders allocate (a huge VMIB_GANG_CHUNK must degrade to one
  // whole-trace tile, not a multi-GB zeroed buffer).
  size_t ChunkCapacity =
      ChunkEvents == 0 ? DispatchTrace::defaultChunkEvents() : ChunkEvents;
  if (ChunkCapacity > Source.numEvents())
    ChunkCapacity = Source.numEvents();

  // Group members by decode fingerprint: a group of two or more
  // amortizes one SoA decode per tile across all of its members.
  // Pointer identity first (exact and cheap — the executor shares
  // layouts per variant already), then fingerprint merging, so members
  // that differ only in CPU geometry share a decoded stream even when
  // their layout objects were built independently. Singletons keep the
  // fused kernel (decode-then-consume would cost them an extra pass
  // over the tile for nothing).
  const size_t M = Members.size();
  std::vector<Group> Groups;
  std::vector<int> GroupOf(M, -1);
  {
    std::map<const DispatchProgram *, std::vector<size_t>> ByLayout;
    for (size_t I = 0; I < M; ++I)
      if (const DispatchProgram *L = Members[I]->soaLayout())
        ByLayout[L].push_back(I);
    std::map<uint64_t, std::pair<const DispatchProgram *,
                                 std::vector<size_t>>> ByPrint;
    for (auto &[Layout, Idx] : ByLayout) {
      auto &Merged = ByPrint[gang::decodeFingerprint(*Layout)];
      if (Merged.first == nullptr)
        Merged.first = Layout; // representative: decode-identical
      Merged.second.insert(Merged.second.end(), Idx.begin(), Idx.end());
    }
    for (auto &[Print, Merged] : ByPrint) {
      (void)Print;
      std::vector<size_t> &Idx = Merged.second;
      if (Idx.size() < 2)
        continue; // GroupOf stays -1: the member replays fused
      std::sort(Idx.begin(), Idx.end()); // deterministic consume order
      for (size_t I : Idx)
        GroupOf[I] = static_cast<int>(Groups.size());
      Groups.push_back({std::make_unique<gang::GroupDecoder>(*Merged.first,
                                                             ChunkCapacity),
                        std::move(Idx)});
    }
  }

  if (Threads > M)
    Threads = static_cast<unsigned>(M);

  Stats LocalStats;
  Stats &St = StatsOut ? *StatsOut : LocalStats;
  St = Stats();

  bool Pooled = Threads > 1 && Source.numEvents() != 0;
  St.StreamedDecode = Source.streaming();
  // Source-read accounting costs two clock reads per tile: always pay
  // it when streaming (the decode-bandwidth number is the point of the
  // mode), otherwise only when the caller asked for stats.
  const bool TimedSource = Source.streaming() || StatsOut != nullptr;

  // Live-member count per group: once a group's last member leaves
  // (an I-cache catch-up moves it onto the fused kernel), decoding for
  // it stops. In the pooled pass a worker decrements only after its
  // member stopped consuming, so the count can never read zero while a
  // consumer of a future tile is still active.
  std::vector<std::atomic<unsigned>> GroupAlive(Groups.size());
  for (size_t G = 0; G < Groups.size(); ++G)
    GroupAlive[G].store(static_cast<unsigned>(Groups[G].MemberIdx.size()),
                        std::memory_order_relaxed);

  /// Advances member \p I over the tile in \p Span (\p C is its
  /// group's decoded tile, null for fused members). A member whose
  /// optimistic models overflowed catches up right here, on the thread
  /// that owns it for this tile; one that the catch-up moved onto the
  /// exact I-cache leaves its decode group. GroupOf[I] and
  /// CatchUpEvents[I] are only touched by member I's current owner.
  std::vector<uint64_t> CatchUpEvents(M, 0);
  auto RunMemberSpan = [&](size_t I, const gang::DecodedChunk *C,
                           const EventSpan &Span) {
    GangMember &Mem = *Members[I];
    if (C == nullptr ? Mem.runChunk(Span) : Mem.runChunkDecoded(*C))
      return;
    CatchUpEvents[I] += Mem.catchUp(Source, Span.End);
    if (GroupOf[I] >= 0 && Mem.soaLayout() == nullptr) {
      GroupAlive[GroupOf[I]].fetch_sub(1, std::memory_order_relaxed);
      GroupOf[I] = -1;
    }
  };

  if (!Pooled) {
    // Serial chunk-major sweep: every active member crosses the tile
    // before the cursor advances — group layouts decode once, then
    // their members consume the SoA streams; fused members replay the
    // raw events. A streaming source decodes each tile into Raw — the
    // only resident event buffer — before the members consume it.
    TraceSource::Cursor Cursor = Source.cursor(ChunkCapacity);
    std::vector<DispatchTrace::Event> Raw;
    EventSpan Span;
    for (;;) {
      Clock::time_point T0;
      if (TimedSource)
        T0 = Clock::now();
      bool More = Cursor.nextInto(Raw, Span);
      if (TimedSource)
        St.SourceReadSeconds += static_cast<double>(elapsedNs(T0)) * 1e-9;
      if (!More)
        break;
      St.SourceEvents += Span.size();
      if (Source.streaming()) {
        uint64_t Bytes = Raw.capacity() * sizeof(DispatchTrace::Event);
        if (Bytes > St.PeakTileRingBytes)
          St.PeakTileRingBytes = Bytes;
      }
      for (size_t G = 0; G < Groups.size(); ++G)
        if (GroupAlive[G].load(std::memory_order_relaxed) != 0)
          Groups[G].Decoder->decode(Span);
      for (size_t I = 0; I < M; ++I)
        RunMemberSpan(I,
                      GroupOf[I] < 0 ? nullptr
                                     : &Groups[GroupOf[I]].Decoder->chunk(),
                      Span);
    }
  } else {
    // Shared-tile worker pool: the calling thread decodes tiles into a
    // small ring; Threads workers replay fixed contiguous member slices
    // off the published slots. A member has exactly one owner for the
    // whole pass and crosses tiles in stream order, so every member
    // sees exactly the serial event sequence and counters are
    // bit-identical for any thread count; the ring only bounds how far
    // decode runs ahead.
    size_t NumTiles =
        (Source.numEvents() + ChunkCapacity - 1) / ChunkCapacity;
    size_t Slots = std::min<size_t>(4, NumTiles);
    std::vector<TileSlot> Ring(Slots);
    for (TileSlot &S : Ring) {
      S.Chunks.reserve(Groups.size());
      for (Group &G : Groups)
        S.Chunks.push_back(G.Decoder->makeChunk());
    }

    std::atomic<bool> Abort{false};
    std::exception_ptr FirstError;
    std::mutex ErrorMutex;
    auto Record = [&] {
      {
        std::lock_guard<std::mutex> Lock(ErrorMutex);
        if (!FirstError)
          FirstError = std::current_exception();
      }
      Abort.store(true, std::memory_order_relaxed);
    };

    const unsigned NumWorkers = Threads;
    St.Workers.assign(NumWorkers, Stats::Worker());

    // The two clock reads per (member, tile) are paid only when the
    // caller asked for stats — the hot path stays clock-free otherwise
    // (chunk=1 runs make the reads comparable to the replay work
    // itself).
    const bool Timed = StatsOut != nullptr;

    /// Waits for slot \p S to carry tile \p T; \returns false on abort.
    auto AwaitTile = [&](TileSlot &S, size_t T, Stats::Worker &WS) {
      bool Waited = false;
      while (S.Seq.load(std::memory_order_acquire) <
             static_cast<int64_t>(T)) {
        if (Abort.load(std::memory_order_relaxed))
          return false;
        Waited = true;
        std::this_thread::yield();
      }
      if (Waited)
        ++WS.TilesWaited;
      return true;
    };

    auto Worker = [&](unsigned W) {
      Stats::Worker &WS = St.Workers[W];
      // Near-equal contiguous member slice; the first (M % workers)
      // slices carry one extra member.
      size_t Base = M / NumWorkers, Rem = M % NumWorkers;
      size_t MBegin = W * Base + std::min<size_t>(W, Rem);
      size_t MEnd = MBegin + Base + (W < Rem ? 1 : 0);
      try {
        for (size_t T = 0; T < NumTiles; ++T) {
          TileSlot &S = Ring[T % Slots];
          if (!AwaitTile(S, T, WS))
            return;
          for (size_t I = MBegin; I < MEnd; ++I) {
            Clock::time_point T0;
            if (Timed)
              T0 = Clock::now();
            RunMemberSpan(I, GroupOf[I] < 0 ? nullptr : &S.Chunks[GroupOf[I]],
                          S.Span);
            if (Timed)
              WS.BusySeconds += static_cast<double>(elapsedNs(T0)) * 1e-9;
            WS.EventsReplayed += S.Span.size();
          }
          S.Pending.fetch_sub(1, std::memory_order_release);
        }
      } catch (...) {
        Record();
      }
    };

    std::vector<std::thread> Pool;
    Pool.reserve(NumWorkers);
    for (unsigned W = 0; W < NumWorkers; ++W)
      Pool.emplace_back(Worker, W);

    // Decoder loop (this thread): refill each ring slot once every
    // worker drained it, decode the live groups, publish.
    try {
      TraceSource::Cursor Cursor = Source.cursor(ChunkCapacity);
      for (size_t T = 0; T < NumTiles; ++T) {
        TileSlot &S = Ring[T % Slots];
        bool Bail = false;
        while (S.Pending.load(std::memory_order_acquire) != 0) {
          if (Abort.load(std::memory_order_relaxed)) {
            Bail = true;
            break;
          }
          std::this_thread::yield();
        }
        if (Bail)
          break;
        Clock::time_point T0;
        if (TimedSource)
          T0 = Clock::now();
        bool More = Cursor.nextInto(S.Raw, S.Span);
        if (TimedSource)
          St.SourceReadSeconds += static_cast<double>(elapsedNs(T0)) * 1e-9;
        assert(More && "cursor must yield exactly NumTiles tiles");
        (void)More;
        St.SourceEvents += S.Span.size();
        if (Source.streaming()) {
          // The whole resident event footprint is the ring's decode
          // buffers; only the decoder mutates them, so their
          // capacities are safe to read here.
          uint64_t RingBytes = 0;
          for (const TileSlot &RS : Ring)
            RingBytes += RS.Raw.capacity() * sizeof(DispatchTrace::Event);
          if (RingBytes > St.PeakTileRingBytes)
            St.PeakTileRingBytes = RingBytes;
        }
        for (size_t G = 0; G < Groups.size(); ++G)
          if (GroupAlive[G].load(std::memory_order_relaxed) != 0)
            Groups[G].Decoder->decodeInto(S.Span, S.Chunks[G]);
        S.Pending.store(NumWorkers, std::memory_order_relaxed);
        S.Seq.store(static_cast<int64_t>(T), std::memory_order_release);
      }
    } catch (...) {
      Record();
    }
    for (std::thread &Th : Pool)
      Th.join();
    if (FirstError)
      std::rethrow_exception(FirstError);
  }

  for (uint64_t Events : CatchUpEvents) {
    St.DeferredFinishes += Events != 0 ? 1 : 0;
    St.CatchUpEvents += Events;
  }

  // Completion pass: every member already replayed the whole trace on
  // models that are exact for it, so this only finalizes — in add
  // order, so predictor-only members take their fetch baseline from an
  // earlier member's finished counters.
  Clock::time_point FinishStart = Clock::now();
  std::vector<PerfCounters> Finished;
  Finished.reserve(M);
  for (std::unique_ptr<GangMember> &Mem : Members)
    Finished.push_back(Mem->finish(Finished));
  St.FinishSeconds = static_cast<double>(elapsedNs(FinishStart)) * 1e-9;
  St.ReplayWallSeconds = static_cast<double>(elapsedNs(RunStart)) * 1e-9;
  return Finished;
}
