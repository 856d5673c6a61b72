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

/// Members sharing one decoded stream: every member on the no-evict
/// models joins the group of its layout's decode fingerprint, alone or
/// not, and the group is decoded once per stretch of events for all of
/// them.
struct Group {
  std::unique_ptr<gang::GroupDecoder> Decoder;
  std::vector<size_t> MemberIdx;
  /// The worker whose member slice holds every member of the group: it
  /// decodes the group itself, sub-tile by sub-tile into its scratch.
  /// -1 when the members span workers: the calling thread then decodes
  /// each tile once into the ring.
  int Owner = -1;
};

/// One slot of the parallel tile ring. The decoder publishes a tile by
/// storing its index into Seq (release) after filling Begin/End and the
/// chunks of the groups that span workers; each worker decrements
/// Pending (release) once it replayed its member slice over the tile,
/// and the decoder refills the slot once Pending hits zero (acquire),
/// so slot memory is never written while a worker reads it.
struct TileSlot {
  /// The tile's event window. Materialized sources alias the trace
  /// arena (Raw stays empty); streaming sources decode the tile into
  /// Raw and Span points at it — the slot owns the only copy of those
  /// events, so ring memory is O(tile x slots) regardless of trace
  /// length.
  EventSpan Span;
  std::vector<DispatchTrace::Event> Raw;
  /// Indexed by group; only groups that span workers are reserved.
  std::vector<gang::DecodedChunk> Chunks;
  std::atomic<int64_t> Seq{-1};     ///< tile index this slot holds
  std::atomic<unsigned> Pending{0}; ///< workers yet to drain it
};

} // namespace

std::vector<PerfCounters> GangReplayer::run(unsigned Threads,
                                            Stats *StatsOut) {
  Clock::time_point RunStart = Clock::now();
  // Scratch sizing: a tile never exceeds the trace, so clamp before
  // the ring allocates (a huge VMIB_GANG_CHUNK must degrade to one
  // whole-trace tile, not a multi-GB zeroed buffer).
  size_t ChunkCapacity =
      ChunkEvents == 0 ? DispatchTrace::defaultChunkEvents() : ChunkEvents;
  if (ChunkCapacity > Source.numEvents())
    ChunkCapacity = Source.numEvents();

  // Group members by decode fingerprint. Pointer identity first (exact
  // and cheap — the executor shares layouts per variant already), then
  // fingerprint merging, so members that differ only in CPU geometry
  // share a decoded stream even when their layout objects were built
  // independently. A member alone on its layout is a group of one: the
  // decoded sub-tile is cheaper for it than the fused kernel, which
  // walks the no-evict I-cache on every fetch.
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
      std::sort(Idx.begin(), Idx.end()); // deterministic consume order
      for (size_t I : Idx)
        GroupOf[I] = static_cast<int>(Groups.size());
      Group G;
      G.Decoder = std::make_unique<gang::GroupDecoder>(*Merged.first);
      G.MemberIdx = std::move(Idx);
      Groups.push_back(std::move(G));
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

  // Near-equal contiguous member slices, [SliceBegin[W],
  // SliceBegin[W + 1]); the first (M % workers) carry one extra
  // member. The serial pass is one slice over the whole gang. A group
  // whose members (sorted) start and end in one slice is that
  // worker's to decode.
  const unsigned NumWorkers = Pooled ? Threads : 1;
  std::vector<size_t> SliceBegin(NumWorkers + 1);
  for (unsigned W = 0; W <= NumWorkers; ++W)
    SliceBegin[W] = W * (M / NumWorkers) + std::min<size_t>(W, M % NumWorkers);
  auto OwnerOf = [&](size_t I) {
    return static_cast<int>(std::upper_bound(SliceBegin.begin(),
                                             SliceBegin.end(), I) -
                            SliceBegin.begin()) -
           1;
  };
  std::vector<std::vector<size_t>> LocalGroups(NumWorkers);
  for (size_t G = 0; G < Groups.size(); ++G) {
    int Owner = OwnerOf(Groups[G].MemberIdx.front());
    if (Owner != OwnerOf(Groups[G].MemberIdx.back()))
      continue; // spans workers: decoded into the ring
    Groups[G].Owner = Owner;
    LocalGroups[Owner].push_back(G);
  }

  // One decode scratch per replaying thread, holding one sub-tile of
  // the largest layout that thread decodes; nothing when it decodes no
  // group.
  const size_t ScratchEvents =
      std::min(gang::DecodeSubTileEvents, ChunkCapacity);
  auto MakeScratch = [&](unsigned W) {
    gang::DecodedChunk Scratch;
    size_t MaxFetches = 0;
    for (size_t G : LocalGroups[W])
      MaxFetches = std::max(MaxFetches, Groups[G].Decoder->maxFetches());
    if (!LocalGroups[W].empty())
      Scratch.reserve(ScratchEvents, MaxFetches);
    return Scratch;
  };

  // Live-member count per group: once a group's last member leaves
  // (an I-cache catch-up moves it onto the fused kernel), decoding for
  // it stops. In the pooled pass a worker decrements only after its
  // member stopped consuming, so the count can never read zero while a
  // consumer of a future tile is still active.
  std::vector<std::atomic<unsigned>> GroupAlive(Groups.size());
  for (size_t G = 0; G < Groups.size(); ++G)
    GroupAlive[G].store(static_cast<unsigned>(Groups[G].MemberIdx.size()),
                        std::memory_order_relaxed);

  /// Catches member \p I up after its optimistic models overflowed in
  /// the events ending at \p End, on the thread that owns it; one that
  /// the catch-up moved onto the exact I-cache leaves its decode group.
  /// \returns whether it left. GroupOf[I] and CatchUpEvents[I] are only
  /// touched by member I's owner.
  std::vector<uint64_t> CatchUpEvents(M, 0);
  auto CatchUp = [&](size_t I, size_t End) {
    GangMember &Mem = *Members[I];
    CatchUpEvents[I] += Mem.catchUp(Source, End);
    if (GroupOf[I] < 0 || Mem.soaLayout() != nullptr)
      return false;
    GroupAlive[GroupOf[I]].fetch_sub(1, std::memory_order_relaxed);
    GroupOf[I] = -1;
    return true;
  };

  /// Decodes group \p G over \p Span one sub-tile at a time into
  /// \p Scratch, running the group's members over each sub-tile. A
  /// member that leaves the group mid-tile finishes the tile fused.
  auto RunGroupTile = [&](size_t G, const EventSpan &Span,
                          gang::DecodedChunk &Scratch) {
    const Group &Grp = Groups[G];
    for (size_t B = Span.Begin; B < Span.End; B += ScratchEvents) {
      if (GroupAlive[G].load(std::memory_order_relaxed) == 0)
        return;
      EventSpan Sub{Span.Data + (B - Span.Begin), B,
                    std::min(B + ScratchEvents, Span.End)};
      Grp.Decoder->decodeInto(Sub, Scratch);
      for (size_t I : Grp.MemberIdx) {
        if (GroupOf[I] != static_cast<int>(G) ||
            Members[I]->runChunkDecoded(Scratch))
          continue;
        if (CatchUp(I, Sub.End) && Sub.End < Span.End)
          (void)Members[I]->runChunk({Span.Data + (Sub.End - Span.Begin),
                                      Sub.End, Span.End});
      }
    }
  };

  /// Replays worker \p W's member slice over one tile: fused members
  /// and members of ring-decoded groups (\p RingChunks, indexed by
  /// group) tile-at-once, then the worker's own groups sub-tiled.
  auto ReplaySlice = [&](unsigned W, const EventSpan &Span,
                         const std::vector<gang::DecodedChunk> *RingChunks,
                         gang::DecodedChunk &Scratch) {
    for (size_t I = SliceBegin[W]; I < SliceBegin[W + 1]; ++I) {
      int G = GroupOf[I];
      if (G >= 0 && Groups[G].Owner >= 0)
        continue; // decoded below
      GangMember &Mem = *Members[I];
      if (G < 0 ? !Mem.runChunk(Span) : !Mem.runChunkDecoded((*RingChunks)[G]))
        (void)CatchUp(I, Span.End);
    }
    for (size_t G : LocalGroups[W])
      RunGroupTile(G, Span, Scratch);
  };

  if (!Pooled) {
    // Serial chunk-major sweep: every member crosses the tile before
    // the cursor advances. A streaming source decodes each tile into
    // Raw — the only resident event buffer — before the members
    // consume it.
    gang::DecodedChunk Scratch = MakeScratch(0);
    St.PeakDecodeScratchBytes = Scratch.bytes();
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
      ReplaySlice(0, Span, nullptr, Scratch);
    }
  } else {
    // Shared-tile worker pool: the calling thread reads tiles into a
    // small ring and decodes the groups that span workers; Threads
    // workers replay fixed contiguous member slices off the published
    // slots, decoding their own groups. A member has exactly one owner
    // for the whole pass and crosses tiles in stream order, so every
    // member sees exactly the serial event sequence and counters are
    // bit-identical for any thread count; the ring only bounds how far
    // the reader runs ahead.
    size_t NumTiles =
        (Source.numEvents() + ChunkCapacity - 1) / ChunkCapacity;
    size_t Slots = std::min<size_t>(4, NumTiles);
    std::vector<TileSlot> Ring(Slots);
    for (TileSlot &S : Ring) {
      S.Chunks.resize(Groups.size());
      for (size_t G = 0; G < Groups.size(); ++G)
        if (Groups[G].Owner < 0)
          S.Chunks[G].reserve(ChunkCapacity, Groups[G].Decoder->maxFetches());
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

    St.Workers.assign(NumWorkers, Stats::Worker());
    std::vector<uint64_t> ScratchBytes(NumWorkers, 0);

    // The two clock reads per (worker, tile) are paid only when the
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
      const size_t SliceMembers = SliceBegin[W + 1] - SliceBegin[W];
      try {
        // Allocated (and first touched) by the thread that uses it.
        gang::DecodedChunk Scratch = MakeScratch(W);
        ScratchBytes[W] = Scratch.bytes();
        for (size_t T = 0; T < NumTiles; ++T) {
          TileSlot &S = Ring[T % Slots];
          if (!AwaitTile(S, T, WS))
            return;
          Clock::time_point T0;
          if (Timed)
            T0 = Clock::now();
          ReplaySlice(W, S.Span, &S.Chunks, Scratch);
          if (Timed)
            WS.BusySeconds += static_cast<double>(elapsedNs(T0)) * 1e-9;
          WS.EventsReplayed += S.Span.size() * SliceMembers;
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

    // Reader loop (this thread): refill each ring slot once every
    // worker drained it, decode the live groups that span workers,
    // publish.
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
          // buffers; only this thread mutates them, so their
          // capacities are safe to read here.
          uint64_t RingBytes = 0;
          for (const TileSlot &RS : Ring)
            RingBytes += RS.Raw.capacity() * sizeof(DispatchTrace::Event);
          if (RingBytes > St.PeakTileRingBytes)
            St.PeakTileRingBytes = RingBytes;
        }
        for (size_t G = 0; G < Groups.size(); ++G)
          if (Groups[G].Owner < 0 &&
              GroupAlive[G].load(std::memory_order_relaxed) != 0)
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
    for (uint64_t Bytes : ScratchBytes)
      St.PeakDecodeScratchBytes += Bytes;
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
