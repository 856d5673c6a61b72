//===- vmcore/GangReplayer.h - Trace-chunk-major gang replay ----*- C++ -*-===//
///
/// \file
/// Executes a *gang* of replay configurations over one DispatchTrace in
/// a single chunk-tiled pass. The PR-1 sweep model was
/// configuration-major: every (variant x predictor x CPU) cell streamed
/// the whole multi-hundred-MB event buffer from DRAM independently, so
/// an N-configuration sweep read the trace N times and the replay
/// kernels were memory-bandwidth-bound. Ertl & Gregg's counters depend
/// only on the shared (Cur, Next) stream, so one pass can feed every
/// configuration: the gang advances a DispatchTrace::ChunkCursor and,
/// for each ~64K-event tile, runs every member over that tile before
/// moving on. Each trace byte then crosses the memory bus once per
/// tile instead of once per configuration, while every member still
/// observes the exact sequential event order — counters stay
/// bit-identical to per-config TraceReplayer calls (asserted by
/// tests/GangReplayTest.cpp).
///
/// Members carry the same tiered state the per-config replayer uses:
///
///  - addBtb()/addDefault(): optimistic NoEvictBTB + NoEvictICache
///    fast path. A member whose optimistic model overflows *catches
///    up*: the thread that owns it replays its consumed prefix once
///    through the exact models on a private cursor, and the member
///    continues in the gang from the next event. After a BTB-only
///    overflow it keeps its no-evict I-cache and its decode group;
///    after an I-cache overflow it replays fused on the exact LRU
///    models. Overflows are the rare case (tiny BTBs, replication
///    blowing a small I-cache) and come early in the trace, so the
///    gang never pays LRU bookkeeping for the common case and an
///    overflowing member re-runs a short prefix, not the whole trace.
///  - addBtbPredictorOnly()/addPredictorOnly(): branch-stream-only
///    members (NullICache) that take the predictor-independent fetch
///    counters from an *earlier gang member's* finished result —
///    baselines resolve in add order at finish() time, so one gang
///    can carry a full replay and all its dependent predictor sweeps.
///    A no-evict BTB here catches up the same way.
///  - addPredictor(): any concrete predictor type; predict()/update()
///    devirtualize into the tile loop exactly as in TraceReplayer.
///  - addQuickening(): JVM members own a fresh program copy + layout
///    and re-apply the recorded quicken rewrites at their exact event
///    positions (per-member record cursor), on the exact-LRU models.
///
/// Every member on the no-evict models — a group of one included —
/// replays *decoded* tiles: its layout is decoded once per tile into
/// structure-of-arrays branch records and a first-touch fetch stream
/// (gang::DecodedChunk), shared by every member whose layout decodes
/// identically. Only members on exact models (the quickening tier,
/// members an I-cache catch-up moved onto the LRU cache) run the fused
/// sim::step kernel over raw events.
///
/// Quicken-free members only *read* their DispatchProgram (sim::step
/// uses const accessors), so members of the same variant may share one
/// layout via shared_ptr — with the predictor state-size audit
/// (stateBytes()) this is what lets a 20+-member gang pack into cache
/// next to the tile.
///
/// run(Threads) with Threads > 1 replays the gang on a shared-tile
/// worker pool: the calling thread reads tiles into a small ring and
/// Threads workers replay member work off the same tile, each owning a
/// fixed contiguous member slice for the whole pass. A decode group
/// whose members all lie in one slice is decoded by that slice's
/// worker, sub-tile by sub-tile into its own scratch; only groups that
/// span workers are decoded once per tile into the ring. A member has
/// exactly one owner and crosses tiles in stream order, so counters
/// are bit-identical for any thread count (tests/GangReplayTest.cpp
/// pins the invariance).
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_VMCORE_GANGREPLAYER_H
#define VMIB_VMCORE_GANGREPLAYER_H

#include "vmcore/TraceReplayer.h"
#include "vmcore/TraceSource.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

namespace vmib {

namespace gang {

/// Replays one tile of events through the devirtualized kernel — the
/// tile-sized inner loop every gang member runs. The span may alias a
/// materialized trace arena or a streaming decode buffer; the kernel
/// only sees a contiguous (Cur, Next) window either way.
template <bool Full, class StateT, class PredictorT>
inline void runSpan(const EventSpan &Span, DispatchProgram &Layout,
                    StateT &S, PredictorT &Pred) {
  const DispatchTrace::Event *Events = Span.Data;
  sim::NullObserver Obs;
  for (size_t I = 0, N = Span.size(); I < N; ++I)
    sim::step<Full>(Layout, S, Pred, Obs, DispatchTrace::cur(Events[I]),
                    DispatchTrace::next(Events[I]));
}

/// runSpan dispatched on the slim-layout check, with the per-tile
/// overflow probe. \returns false if an optimistic model overflowed
/// (the member then catches up).
///
/// The state and predictor are taken by value and moved back: gang
/// member state lives on the heap behind the member object, and a hot
/// loop storing counters through `this` cannot keep them in registers
/// (any u64 store into the model tables may alias them). Hoisting the
/// models into non-escaping stack locals for the duration of the tile
/// restores the per-config replayer's codegen — the moves are pointer
/// swaps, paid once per ~64K events. Without this the lean
/// predictor-only kernels run ~2.6x slower in a gang than per-config.
template <class StateT, class PredictorT>
inline bool runSpanChecked(const EventSpan &Span,
                           DispatchProgram &Layout, bool Slim, StateT &MemberS,
                           PredictorT &MemberPred) {
  StateT S = std::move(MemberS);
  PredictorT Pred = std::move(MemberPred);
  if (Slim)
    runSpan<false>(Span, Layout, S, Pred);
  else
    runSpan<true>(Span, Layout, S, Pred);
  bool Ok = !TraceReplayer::overflowed(S.ICache) &&
            !TraceReplayer::overflowed(Pred);
  MemberS = std::move(S);
  MemberPred = std::move(Pred);
  return Ok;
}

/// A stretch of the event stream (a sub-tile, or a tile of the
/// parallel ring) decoded against a layout, stored as
/// structure-of-arrays: the per-event work that depends only on
/// (layout, event) — piece lookup, fallback state machine, fetch
/// addresses, dispatch targets and hints, and the counter sums — is
/// done ONCE per (layout, events) and shared by every gang member on
/// that layout. Members then consume just the stream their tier
/// needs, so predictor-only members reduce to a pure
/// predict-and-update loop over the contiguous branch records.
///
/// The fetch stream is *first-touch-only*: a no-evict I-cache's total
/// misses equal the number of distinct lines ever touched, and a set
/// overflows exactly when its (Ways+1)-th distinct line arrives —
/// both order-independent — so repeat fetches of an already-seen
/// piece (which hit by construction and update no state) are elided
/// at decode time. This is what makes full members nearly as cheap as
/// predictor-only members inside a group. The stream is therefore
/// only valid for no-evict cache models; exact-LRU members (the
/// quickening tier, members caught up after an I-cache overflow)
/// never consume it. Totals and the overflow flag stay bit-identical;
/// post-overflow state is garbage in *both* models and is replaced by
/// the catch-up.
///
/// All counter contributions are sums and the predictor sees the
/// identical (site, target, hint) sequence, so the decomposition is
/// bit-exact against the fused sim::step kernel (pinned by
/// tests/GangReplayTest.cpp).
struct DecodedChunk {
  /// Targets are simulated code addresses (bump-allocated, far below
  /// 2^48), so the decode-time hint packs into the top 16 bits.
  static constexpr unsigned TargetBits = 48;
  static constexpr uint64_t TargetMask = (uint64_t{1} << TargetBits) - 1;

  struct BranchRec {
    Addr Site;
    uint64_t TargetHint; ///< Target | (Hint << TargetBits)
  };
  struct FetchRec {
    Addr A;
    uint64_t Bytes;
  };

  /// Sizes the SoA arrays for up to \p Events events of a layout whose
  /// first-touch fetch stream holds at most \p MaxFetches records over
  /// the whole pass (GroupDecoder::maxFetches()). One decode also
  /// touches at most two fetches per event, so a sub-tile scratch
  /// stays small however large the layout.
  void reserve(size_t Events, size_t MaxFetches) {
    Branches.resize(Events); // one dispatch per event, max
    Fetches.resize(std::min(2 * Events, MaxFetches));
  }

  /// Resident bytes of the SoA arrays.
  uint64_t bytes() const {
    return Branches.size() * sizeof(BranchRec) +
           Fetches.size() * sizeof(FetchRec);
  }

  /// Dispatch branch records in exact event order; [0, NumBranches).
  /// The vector is sized to tile capacity once and never resized — the
  /// decoder writes through raw pointers (a push_back per event costs
  /// more than the rest of the decode).
  std::vector<BranchRec> Branches;
  size_t NumBranches = 0;
  /// First-touch fetch records; [0, NumFetches). Bounded by the
  /// layout's piece count, not the tile size.
  std::vector<FetchRec> Fetches;
  size_t NumFetches = 0;
  /// Predictor- and cache-independent counter sums over the tile.
  uint64_t VMInstructions = 0;
  uint64_t Instructions = 0;
  uint64_t DispatchCount = 0;
  uint64_t ColdStubBranches = 0;
};

/// Per-layout decoder: the fallback state machine and the first-touch
/// bitmaps — all pure functions of (layout, events), carried once per
/// group instead of once per member. It owns no output storage: the
/// thread that decodes a group hands it a DecodedChunk (its sub-tile
/// scratch, or a slot of the parallel tile ring).
class GroupDecoder {
public:
  explicit GroupDecoder(const DispatchProgram &Layout)
      : Layout(Layout), Slim(TraceReplayer::isSlimLayout(Layout)) {
    SeenPiece.assign(Layout.numPieces(), 0);
    if (Layout.hasFallbacks())
      SeenFallback.assign(Layout.numPieces(), 0);
  }

  /// Upper bound on this layout's first-touch fetch records over the
  /// whole pass: two per piece, normal and fallback executions of an
  /// index counted apart.
  size_t maxFetches() const {
    return 2 * (SeenPiece.size() + SeenFallback.size());
  }

  /// Decodes the events of \p Span into \p Out, which must be reserved
  /// for at least Span.size() events and this layout's maxFetches().
  /// The fallback state machine and the first-touch bitmaps live in
  /// the decoder, so calls MUST cover the event stream in strict order
  /// regardless of where the output lands (one thread decodes a group
  /// for the whole pass).
  void decodeInto(const EventSpan &Span, DecodedChunk &Out) {
    assert(Span.size() <= Out.Branches.size() &&
           Out.Fetches.size() >= std::min(2 * Span.size(), maxFetches()) &&
           "decode output reserved too small");
    if (Slim)
      decodeSpan<false>(Span, Out);
    else
      decodeSpan<true>(Span, Out);
  }

private:
  /// Mirrors sim::step event for event, recording instead of
  /// simulating; any change here must stay in lockstep with the
  /// kernel (GangReplayTest pins the equivalence).
  template <bool Full>
  void decodeSpan(const EventSpan &Span, DecodedChunk &Out) {
    const DispatchTrace::Event *Events = Span.Data;
    DecodedChunk::BranchRec *Branches = Out.Branches.data();
    DecodedChunk::FetchRec *Fetches = Out.Fetches.data();
    size_t NB = 0, NF = 0;
    uint64_t Instructions = 0, DispatchCount = 0, ColdStubs = 0;
    bool Fallback = InFallback;
    uint32_t Until = FallbackUntil;

    for (size_t I = 0, N = Span.size(); I < N; ++I) {
      uint32_t Cur = DispatchTrace::cur(Events[I]);
      uint32_t Next = DispatchTrace::next(Events[I]);

      bool CurFallback = Full && Fallback && Cur < Until;
      const Piece &P = CurFallback ? Layout.fallback(Cur) : Layout.piece(Cur);

      Instructions += P.WorkInstrs;
      uint8_t &Seen = CurFallback ? SeenFallback[Cur] : SeenPiece[Cur];
      if (Seen == 0) {
        Seen = 1;
        if (P.CodeBytes != 0)
          Fetches[NF++] = {P.EntryAddr, P.CodeBytes};
        if (P.ExtraFetchBytes != 0)
          Fetches[NF++] = {P.ExtraFetchAddr, P.ExtraFetchBytes};
      }
      if (Full && P.ColdStubBranch)
        ++ColdStubs;

      bool Dispatches = false;
      switch (P.Kind) {
      case DispatchKind::Always:
        Dispatches = Next != sim::HaltNext;
        break;
      case DispatchKind::TakenOnly:
        Dispatches = Next != Cur + 1 && Next != sim::HaltNext;
        break;
      case DispatchKind::None:
        Dispatches = false;
        break;
      }

      if (!Dispatches) {
        if (Next == sim::HaltNext)
          continue;
        if constexpr (Full)
          Fallback = CurFallback && Next < Until;
        continue;
      }

      Instructions += P.DispatchInstrs;
      ++DispatchCount;

      const Piece &NextPiece = Layout.piece(Next);
      bool NextFallback = Full && NextPiece.FallbackEnd > Next;
      Addr Target = NextFallback ? Layout.fallback(Next).EntryAddr
                                 : NextPiece.EntryAddr;
      assert((Target >> DecodedChunk::TargetBits) == 0 &&
             "simulated address overflows the packed target field");
      Branches[NB++] = {P.BranchSite,
                        Target | (Layout.hintFor(Next)
                                  << DecodedChunk::TargetBits)};

      if constexpr (Full) {
        if (NextFallback)
          Until = NextPiece.FallbackEnd;
        Fallback = NextFallback;
      }
    }

    Out.NumBranches = NB;
    Out.NumFetches = NF;
    Out.VMInstructions = Span.size();
    Out.Instructions = Instructions;
    Out.DispatchCount = DispatchCount;
    Out.ColdStubBranches = ColdStubs;
    InFallback = Fallback;
    FallbackUntil = Until;
  }

  const DispatchProgram &Layout;
  bool Slim;
  bool InFallback = false;
  uint32_t FallbackUntil = 0;
  /// First-touch bitmaps: a piece's fetch footprint is constant for
  /// the quicken-free layouts groups are built over, so it enters the
  /// fetch stream exactly once (normal and fallback executions of the
  /// same index fetch different pieces, hence two maps).
  std::vector<uint8_t> SeenPiece;
  std::vector<uint8_t> SeenFallback;
};

/// Events per decoded sub-tile. A thread decodes a group's share of a
/// tile this many events at a time into one scratch it reuses for every
/// group it decodes, so the branch records it just wrote are still in
/// cache when the members read them, and resident decode memory is one
/// sub-tile per replaying thread rather than one tile per group.
constexpr size_t DecodeSubTileEvents = size_t{1} << 13;

/// Structural identity of everything the tile decoder reads from a
/// layout: the piece and fallback tables, the dispatch hints, and the
/// slim-layout property (all derived from those fields). Two layouts
/// with equal fingerprints produce bit-identical decoded streams, so
/// the gang groups members by fingerprint rather than pointer — the
/// decoded branch/fetch stream is CPU-independent, and members that
/// differ only in CPU I-cache geometry (the same variant built once
/// per CPU) share one GroupDecoder even when their layout objects are
/// distinct.
uint64_t decodeFingerprint(const DispatchProgram &Layout);

/// Runs the decoded (first-touch) fetch stream through a *no-evict*
/// I-cache model; \returns the misses.
template <class ICacheT>
inline uint64_t runDecodedFetches(const DecodedChunk &D, ICacheT &ICache) {
  uint64_t Misses = 0;
  for (size_t I = 0; I < D.NumFetches; ++I)
    Misses += ICache.access(D.Fetches[I].A,
                            static_cast<uint32_t>(D.Fetches[I].Bytes));
  return Misses;
}

/// Runs the decoded branch stream through a predictor; \returns the
/// mispredicted dispatches (excluding cold-stub branches).
template <class PredictorT>
inline uint64_t runDecodedBranches(const DecodedChunk &D, PredictorT &Pred) {
  using Policy = PredictorPolicy<PredictorT>;
  if constexpr (Policy::AlwaysCorrect) {
    (void)Pred;
    return 0;
  } else if constexpr (Policy::AlwaysMiss) {
    (void)Pred;
    return D.NumBranches;
  } else {
    const DecodedChunk::BranchRec *Branches = D.Branches.data();
    uint64_t Misses = 0;
    for (size_t I = 0, N = D.NumBranches; I < N; ++I) {
      Addr Target = Branches[I].TargetHint & DecodedChunk::TargetMask;
      uint64_t Hint = 0;
      if constexpr (Policy::UsesHint)
        Hint = Branches[I].TargetHint >> DecodedChunk::TargetBits;
      Addr Predicted;
      if constexpr (sim::HasFusedPredictUpdate<PredictorT>::value) {
        Predicted = Pred.predictAndUpdate(Branches[I].Site, Target, Hint);
      } else {
        Predicted = Pred.predict(Branches[I].Site, Hint);
        Pred.update(Branches[I].Site, Target, Hint);
      }
      Misses += static_cast<uint64_t>(Predicted != Target);
    }
    return Misses;
  }
}

/// Adds the decode-time counter sums plus this member's branch misses
/// (everything except ICacheMisses, which is model-specific).
inline void addDecodedAggregates(const DecodedChunk &D, PerfCounters &C,
                                 uint64_t BranchMisses) {
  C.VMInstructions += D.VMInstructions;
  C.Instructions += D.Instructions;
  C.DispatchCount += D.DispatchCount;
  C.IndirectBranches += D.DispatchCount + D.ColdStubBranches;
  C.Mispredictions += D.ColdStubBranches + BranchMisses;
}

/// Runs the decoded branch stream through the member's predictor
/// (stack-hoisted, see runSpanChecked) and adds the tile's aggregates
/// to \p C. \returns false if the predictor overflowed.
template <class PredictorT>
inline bool consumeDecodedBranches(const DecodedChunk &D, PerfCounters &C,
                                   PredictorT &MemberPred) {
  PredictorT Pred = std::move(MemberPred);
  uint64_t BranchMisses = runDecodedBranches(D, Pred);
  bool Ok = !TraceReplayer::overflowed(Pred);
  MemberPred = std::move(Pred);
  addDecodedAggregates(D, C, BranchMisses);
  return Ok;
}

/// A full member's decoded tile: the first-touch fetch stream through
/// its no-evict I-cache, then the branch stream. The two are
/// independent state machines, so each runs as its own tight loop.
/// \returns false if either model overflowed.
template <class PredictorT>
inline bool consumeDecoded(const DecodedChunk &D,
                           sim::DispatchStateT<NoEvictICache> &S,
                           PredictorT &Pred) {
  NoEvictICache ICache = std::move(S.ICache);
  S.Counters.ICacheMisses += runDecodedFetches(D, ICache);
  bool Ok = !ICache.overflowed();
  S.ICache = std::move(ICache);
  return consumeDecodedBranches(D, S.Counters, Pred) && Ok;
}

/// The prefix catch-up every overflowing member shares: replays events
/// [0, End) of \p Source through the fused kernel into the fresh state
/// \p S and predictor \p Pred. It reads a private cursor (a streaming
/// source opens one file descriptor per cursor), so it runs on
/// whichever worker owns the member while the decoder reads ahead.
/// \returns the events replayed.
template <class StateT, class PredictorT>
inline uint64_t replayPrefix(const TraceSource &Source, size_t End,
                             DispatchProgram &Layout, bool Slim, StateT &S,
                             PredictorT &Pred) {
  // 64K-event tiles: one trace-file frame per streamed read.
  TraceSource::Cursor Cursor = Source.cursor(size_t{1} << 16);
  std::vector<DispatchTrace::Event> Raw;
  EventSpan Span;
  while (Span.End < End && Cursor.nextInto(Raw, Span)) {
    Span.End = std::min(Span.End, End);
    (void)runSpanChecked(Span, Layout, Slim, S, Pred);
  }
  return End;
}

/// Detects a stateBytes() audit hook on a model type; models without
/// one are accounted at sizeof (the stateless baselines).
template <class T, class = void> struct HasStateBytes : std::false_type {};
template <class T>
struct HasStateBytes<
    T, std::void_t<decltype(std::declval<const T &>().stateBytes())>>
    : std::true_type {};
template <class T> inline uint64_t modelStateBytes(const T &Model) {
  if constexpr (HasStateBytes<T>::value)
    return Model.stateBytes();
  else
    return sizeof(Model);
}

} // namespace gang

/// One configuration riding a gang: replays tiles as the cursor hands
/// them out, catches up once through the exact models if its
/// optimistic models overflow, then finalizes.
class GangMember {
public:
  virtual ~GangMember() = default;

  /// Replays raw events through the fused kernel. Only called while
  /// soaLayout() returns null, i.e. on exact models, which never
  /// overflow: \returns true.
  virtual bool runChunk(const EventSpan &Span) {
    (void)Span;
    assert(false && "decoded members never replay raw events");
    return true;
  }

  /// The layout this member's tiles are decoded against, or nullptr if
  /// it must replay fused (quickening members mutate their layout
  /// mid-stream; members on an exact LRU I-cache cannot use the
  /// first-touch fetch stream). Members whose layouts decode
  /// identically share one decode per tile, a group of one included;
  /// a member whose answer turns null after a catch-up leaves its
  /// group.
  virtual const DispatchProgram *soaLayout() const { return nullptr; }

  /// Replays decoded events: a sub-tile, or a whole tile of a group
  /// decoded into the parallel ring. \returns false if this member's
  /// optimistic models overflowed in them — the gang then calls catchUp()
  /// before handing the member its next events. Only called while
  /// soaLayout() returns non-null.
  virtual bool runChunkDecoded(const gang::DecodedChunk &D) {
    (void)D;
    return true;
  }

  /// Switches a member whose optimistic models overflowed in the
  /// events ending at \p End to the exact models: replays the consumed
  /// prefix [0, End) once through them (gang::replayPrefix) so the
  /// member continues in the gang from event \p End. \returns the
  /// events replayed.
  virtual uint64_t catchUp(const TraceSource &Source, size_t End) = 0;

  /// Finalizes the counters; predictor-only members patch in their
  /// fetch baseline's I-cache misses. \p Finished holds the results of
  /// all *earlier* members (baseline references resolve in add order).
  virtual PerfCounters finish(const std::vector<PerfCounters> &Finished) = 0;

  /// Mutable per-member state (predictor + I-cache model + counters),
  /// excluding the (possibly shared) layout — the number the gang
  /// packing audit sums.
  virtual uint64_t stateBytes() const = 0;
};

namespace gang {

/// Full replay under a BTB geometry: no-evict fast path with a prefix
/// catch-up on overflow. Idealised configs (Entries == 0) keep the
/// exact BTB and only run the I-cache optimistically, mirroring
/// TraceReplayer::replayBtb.
class BtbMember final : public GangMember {
public:
  BtbMember(std::shared_ptr<DispatchProgram> Layout, const CpuConfig &Cpu,
            const BTBConfig &Config)
      : Layout(std::move(Layout)), Cpu(Cpu), Config(Config),
        Slim(TraceReplayer::isSlimLayout(*this->Layout)), S(Cpu.ICache) {
    if (Config.Entries != 0)
      FastPred = std::make_unique<NoEvictBTB>(Config);
    else
      ExactPred = std::make_unique<BTB>(Config);
  }

  bool runChunk(const EventSpan &Span) override {
    assert(ExactS && "no-evict members replay decoded tiles");
    (void)runSpanChecked(Span, *Layout, Slim, *ExactS, *ExactPred);
    return true;
  }

  const DispatchProgram *soaLayout() const override {
    return ExactS ? nullptr : Layout.get();
  }

  bool runChunkDecoded(const DecodedChunk &D) override {
    return FastPred ? consumeDecoded(D, S, *FastPred)
                    : consumeDecoded(D, S, *ExactPred);
  }

  uint64_t catchUp(const TraceSource &Source, size_t End) override {
    ExactPred = std::make_unique<BTB>(Config);
    FastPred.reset();
    if (S.ICache.overflowed()) {
      // Exact BTB and exact LRU I-cache from here on, fused: the
      // first-touch fetch stream cannot drive an LRU cache.
      ExactS = std::make_unique<sim::DispatchState>(Cpu.ICache);
      return replayPrefix(Source, End, *Layout, Slim, *ExactS, *ExactPred);
    }
    // Only the BTB overflowed: the no-evict I-cache and its misses stay
    // valid, so the prefix re-derives just the branch-side counters.
    sim::DispatchStateT<sim::NullICache> Branches(Cpu.ICache);
    uint64_t Events =
        replayPrefix(Source, End, *Layout, Slim, Branches, *ExactPred);
    uint64_t FetchMisses = S.Counters.ICacheMisses;
    S.Counters = Branches.Counters;
    S.Counters.ICacheMisses = FetchMisses;
    return Events;
  }

  PerfCounters finish(const std::vector<PerfCounters> &) override {
    return TraceReplayer::finalize(ExactS ? ExactS->Counters : S.Counters,
                                   *Layout, Cpu);
  }

  uint64_t stateBytes() const override {
    return sizeof(*this) + modelStateBytes(S.ICache) +
           (ExactS ? modelStateBytes(ExactS->ICache) : 0) +
           (FastPred ? modelStateBytes(*FastPred)
                     : modelStateBytes(*ExactPred));
  }

private:
  std::shared_ptr<DispatchProgram> Layout;
  CpuConfig Cpu;
  BTBConfig Config;
  bool Slim;
  sim::DispatchStateT<NoEvictICache> S;
  std::unique_ptr<sim::DispatchState> ExactS; // after an I-cache catch-up
  std::unique_ptr<NoEvictBTB> FastPred;       // until the first catch-up
  std::unique_ptr<BTB> ExactPred;             // Entries == 0, or after it
};

/// Branch-stream-only replay of a BTB geometry (capacity sweeps):
/// fetch counters come from an earlier member's finished result.
class BtbPredictorOnlyMember final : public GangMember {
public:
  BtbPredictorOnlyMember(std::shared_ptr<DispatchProgram> Layout,
                         const CpuConfig &Cpu, const BTBConfig &Config,
                         size_t FetchBaseline)
      : Layout(std::move(Layout)), Cpu(Cpu), Config(Config),
        FetchBaseline(FetchBaseline),
        Slim(TraceReplayer::isSlimLayout(*this->Layout)), S(Cpu.ICache) {
    if (Config.Entries != 0)
      FastPred = std::make_unique<NoEvictBTB>(Config);
    else
      ExactPred = std::make_unique<BTB>(Config);
  }

  const DispatchProgram *soaLayout() const override { return Layout.get(); }

  bool runChunkDecoded(const DecodedChunk &D) override {
    return FastPred ? consumeDecodedBranches(D, S.Counters, *FastPred)
                    : consumeDecodedBranches(D, S.Counters, *ExactPred);
  }

  uint64_t catchUp(const TraceSource &Source, size_t End) override {
    ExactPred = std::make_unique<BTB>(Config);
    FastPred.reset();
    S = sim::DispatchStateT<sim::NullICache>(Cpu.ICache);
    return replayPrefix(Source, End, *Layout, Slim, S, *ExactPred);
  }

  PerfCounters finish(const std::vector<PerfCounters> &Finished) override {
    assert(FetchBaseline < Finished.size() &&
           "fetch baseline must be an earlier gang member");
    S.Counters.ICacheMisses = Finished[FetchBaseline].ICacheMisses;
    return TraceReplayer::finalize(S.Counters, *Layout, Cpu);
  }

  uint64_t stateBytes() const override {
    return sizeof(*this) + (FastPred ? modelStateBytes(*FastPred)
                                     : modelStateBytes(*ExactPred));
  }

private:
  std::shared_ptr<DispatchProgram> Layout;
  CpuConfig Cpu;
  BTBConfig Config;
  size_t FetchBaseline;
  bool Slim;
  sim::DispatchStateT<sim::NullICache> S;
  std::unique_ptr<NoEvictBTB> FastPred;
  std::unique_ptr<BTB> ExactPred;
};

/// Full replay with an arbitrary concrete predictor type (two-level,
/// case-block, oracle/null baselines): the optimistic I-cache tier of
/// TraceReplayer::replay, chunk-major.
template <class PredictorT> class PredictorMember final : public GangMember {
public:
  PredictorMember(std::shared_ptr<DispatchProgram> Layout,
                  const CpuConfig &Cpu, PredictorT Pred)
      : Layout(std::move(Layout)), Cpu(Cpu), Pred(std::move(Pred)),
        Slim(TraceReplayer::isSlimLayout(*this->Layout)), S(Cpu.ICache) {}

  bool runChunk(const EventSpan &Span) override {
    assert(ExactS && "no-evict members replay decoded tiles");
    (void)runSpanChecked(Span, *Layout, Slim, *ExactS, Pred);
    return true;
  }

  const DispatchProgram *soaLayout() const override {
    return ExactS ? nullptr : Layout.get();
  }

  bool runChunkDecoded(const DecodedChunk &D) override {
    return consumeDecoded(D, S, Pred);
  }

  uint64_t catchUp(const TraceSource &Source, size_t End) override {
    // Any overflow lands on the exact I-cache with a reset predictor,
    // as TraceReplayer::replay's fallback does.
    Pred.reset();
    ExactS = std::make_unique<sim::DispatchState>(Cpu.ICache);
    return replayPrefix(Source, End, *Layout, Slim, *ExactS, Pred);
  }

  PerfCounters finish(const std::vector<PerfCounters> &) override {
    return TraceReplayer::finalize(ExactS ? ExactS->Counters : S.Counters,
                                   *Layout, Cpu);
  }

  uint64_t stateBytes() const override {
    return sizeof(*this) + modelStateBytes(S.ICache) +
           (ExactS ? modelStateBytes(ExactS->ICache) : 0) +
           modelStateBytes(Pred);
  }

private:
  std::shared_ptr<DispatchProgram> Layout;
  CpuConfig Cpu;
  PredictorT Pred;
  bool Slim;
  sim::DispatchStateT<NoEvictICache> S;
  std::unique_ptr<sim::DispatchState> ExactS; // after the catch-up
};

/// Branch-stream-only replay with an arbitrary concrete predictor;
/// fetch counters from an earlier member (the predictor-sweep tier).
template <class PredictorT>
class PredictorOnlyMember final : public GangMember {
public:
  PredictorOnlyMember(std::shared_ptr<DispatchProgram> Layout,
                      const CpuConfig &Cpu, PredictorT Pred,
                      size_t FetchBaseline)
      : Layout(std::move(Layout)), Cpu(Cpu), Pred(std::move(Pred)),
        FetchBaseline(FetchBaseline),
        Slim(TraceReplayer::isSlimLayout(*this->Layout)), S(Cpu.ICache) {}

  const DispatchProgram *soaLayout() const override { return Layout.get(); }

  bool runChunkDecoded(const DecodedChunk &D) override {
    return consumeDecodedBranches(D, S.Counters, Pred) || CaughtUp;
  }

  uint64_t catchUp(const TraceSource &Source, size_t End) override {
    Pred.reset();
    S = sim::DispatchStateT<sim::NullICache>(Cpu.ICache);
    CaughtUp = true;
    return replayPrefix(Source, End, *Layout, Slim, S, Pred);
  }

  PerfCounters finish(const std::vector<PerfCounters> &Finished) override {
    assert(FetchBaseline < Finished.size() &&
           "fetch baseline must be an earlier gang member");
    S.Counters.ICacheMisses = Finished[FetchBaseline].ICacheMisses;
    return TraceReplayer::finalize(S.Counters, *Layout, Cpu);
  }

  uint64_t stateBytes() const override {
    return sizeof(*this) + modelStateBytes(Pred);
  }

private:
  std::shared_ptr<DispatchProgram> Layout;
  CpuConfig Cpu;
  PredictorT Pred;
  size_t FetchBaseline;
  bool Slim;
  sim::DispatchStateT<sim::NullICache> S;
  bool CaughtUp = false;
};

/// JVM member: owns a fresh program copy and the layout built over it,
/// re-applies the recorded quicken rewrites at their exact event
/// positions while replaying on the exact-LRU models (quickening
/// patches layout state, so the optimistic discard-and-retry tier can
/// never apply — same rule as TraceReplayer::replay).
class QuickeningMember final : public GangMember {
public:
  /// \p Quickens is the trace's quicken record stream (borrowed; the
  /// owning GangReplayer's TraceSource keeps it alive for the run —
  /// streaming sources materialize the side-band records at open).
  QuickeningMember(std::shared_ptr<DispatchProgram> Layout,
                   std::shared_ptr<VMProgram> Program, const CpuConfig &Cpu,
                   const BTBConfig &Config,
                   const std::vector<DispatchTrace::QuickenRecord> &Quickens)
      : Layout(std::move(Layout)), Program(std::move(Program)), Cpu(Cpu),
        Pred(Config), S(Cpu.ICache), Quickens(Quickens) {
    assert(&this->Layout->program() == this->Program.get() &&
           "layout must be built over this member's program copy");
  }

  bool runChunk(const EventSpan &Span) override {
    const DispatchTrace::Event *Events = Span.Data;
    sim::NullObserver Obs;
    // Hoist the models into stack locals for the tile (see
    // runSpanChecked): heap member state cannot be registerized
    // across the event loop.
    sim::DispatchState LocalS = std::move(S);
    BTB LocalPred = std::move(Pred);
    size_t LocalQIdx = QIdx;
    uint64_t LocalDone = Done;
    for (size_t I = 0, N = Span.size(); I < N; ++I) {
      sim::step(*Layout, LocalS, LocalPred, Obs,
                DispatchTrace::cur(Events[I]),
                DispatchTrace::next(Events[I]));
      ++LocalDone;
      // Engine order: the quickable routine runs once (the step just
      // replayed), then rewrites itself and patches the layout.
      while (LocalQIdx < Quickens.size() &&
             Quickens[LocalQIdx].AfterEvents == LocalDone) {
        const DispatchTrace::QuickenRecord &Q = Quickens[LocalQIdx];
        Program->Code[Q.Index] = Q.NewInstr;
        Layout->onQuicken(Q.Index);
        ++LocalQIdx;
      }
    }
    S = std::move(LocalS);
    Pred = std::move(LocalPred);
    QIdx = LocalQIdx;
    Done = LocalDone;
    return true; // exact models never overflow
  }

  uint64_t catchUp(const TraceSource &, size_t) override {
    assert(false && "exact models never overflow");
    return 0;
  }

  PerfCounters finish(const std::vector<PerfCounters> &) override {
    assert(QIdx == Quickens.size() && "unconsumed quicken records");
    return TraceReplayer::finalize(S.Counters, *Layout, Cpu);
  }

  uint64_t stateBytes() const override {
    return sizeof(*this) + modelStateBytes(S.ICache) +
           modelStateBytes(Pred) + Program->Code.size() * sizeof(VMInstr);
  }

private:
  std::shared_ptr<DispatchProgram> Layout;
  std::shared_ptr<VMProgram> Program;
  CpuConfig Cpu;
  BTB Pred;
  sim::DispatchState S;
  const std::vector<DispatchTrace::QuickenRecord> &Quickens;
  size_t QIdx = 0;
  uint64_t Done = 0;
};

} // namespace gang

/// The gang replay engine: collect members, then run() makes one
/// chunk-tiled pass over the trace and returns one finalized
/// PerfCounters per member, in add order. Counters are bit-identical
/// to the corresponding per-config TraceReplayer calls.
///
/// run(1) is strictly single-threaded — trace-affine sweep scheduling
/// hands one (trace, gang) pair to each SweepRunner worker, so workers
/// never contend on a trace and every byte a worker streams feeds all
/// of its configurations. run(Threads > 1) keeps the trace-affinity
/// but splits the gang's *members* across worker threads that share
/// each tile (one reader, many consumers — the tile is read once per
/// host, not once per process).
class GangReplayer {
public:
  /// \p Source is the replay input: a materialized DispatchTrace
  /// (implicitly converted; must outlive the gang) or a streaming
  /// TraceSource whose tiles are decoded on demand — the decoder
  /// thread then fills the tile ring straight from the trace file and
  /// working memory is O(tile x ring), independent of trace length.
  /// \p ChunkEvents sizes the tile; 0 uses
  /// DispatchTrace::defaultChunkEvents() (VMIB_GANG_CHUNK override).
  explicit GangReplayer(TraceSource Source, size_t ChunkEvents = 0)
      : Source(std::move(Source)), ChunkEvents(ChunkEvents) {}

  /// Full replay with \p Cpu's default BTB (the common sweep cell).
  size_t addDefault(std::shared_ptr<DispatchProgram> Layout,
                    const CpuConfig &Cpu) {
    return addBtb(std::move(Layout), Cpu, Cpu.Btb);
  }

  /// Full replay under a custom BTB geometry. Quicken-free traces only
  /// (use addQuickening for JVM traces).
  size_t addBtb(std::shared_ptr<DispatchProgram> Layout, const CpuConfig &Cpu,
                const BTBConfig &Config) {
    assert(Source.numQuickens() == 0 &&
           "quickening trace needs addQuickening members");
    return adopt(std::make_unique<gang::BtbMember>(std::move(Layout), Cpu,
                                                   Config));
  }

  /// Branch-stream-only BTB member; fetch counters from gang member
  /// \p FetchBaseline (must have been added earlier).
  size_t addBtbPredictorOnly(std::shared_ptr<DispatchProgram> Layout,
                             const CpuConfig &Cpu, const BTBConfig &Config,
                             size_t FetchBaseline) {
    assert(Source.numQuickens() == 0 &&
           "predictor-only members need a quicken-free trace");
    assert(FetchBaseline < Members.size() &&
           "fetch baseline must be an earlier gang member");
    return adopt(std::make_unique<gang::BtbPredictorOnlyMember>(
        std::move(Layout), Cpu, Config, FetchBaseline));
  }

  /// Full replay with a concrete predictor (moved into the member).
  template <class PredictorT>
  size_t addPredictor(std::shared_ptr<DispatchProgram> Layout,
                      const CpuConfig &Cpu, PredictorT Pred) {
    assert(Source.numQuickens() == 0 &&
           "quickening trace needs addQuickening members");
    return adopt(std::make_unique<gang::PredictorMember<PredictorT>>(
        std::move(Layout), Cpu, std::move(Pred)));
  }

  /// Branch-stream-only member with a concrete predictor; fetch
  /// counters from gang member \p FetchBaseline.
  template <class PredictorT>
  size_t addPredictorOnly(std::shared_ptr<DispatchProgram> Layout,
                          const CpuConfig &Cpu, PredictorT Pred,
                          size_t FetchBaseline) {
    assert(Source.numQuickens() == 0 &&
           "predictor-only members need a quicken-free trace");
    assert(FetchBaseline < Members.size() &&
           "fetch baseline must be an earlier gang member");
    return adopt(std::make_unique<gang::PredictorOnlyMember<PredictorT>>(
        std::move(Layout), Cpu, std::move(Pred), FetchBaseline));
  }

  /// JVM member over a fresh program copy (layout must be built over
  /// exactly that copy) with \p Cpu's default BTB.
  size_t addQuickening(std::shared_ptr<DispatchProgram> Layout,
                       std::shared_ptr<VMProgram> Program,
                       const CpuConfig &Cpu) {
    return addQuickening(std::move(Layout), std::move(Program), Cpu,
                         Cpu.Btb);
  }

  /// JVM member with a custom BTB geometry.
  size_t addQuickening(std::shared_ptr<DispatchProgram> Layout,
                       std::shared_ptr<VMProgram> Program,
                       const CpuConfig &Cpu, const BTBConfig &Config) {
    return adopt(std::make_unique<gang::QuickeningMember>(
        std::move(Layout), std::move(Program), Cpu, Config,
        Source.quickens()));
  }

  size_t size() const { return Members.size(); }

  /// Pool accounting of one run(): who replayed how much, who waited,
  /// and what the catch-ups cost. Workers is empty for serial runs (no
  /// pool to account). The sweep layers aggregate this across gangs
  /// (merge) and sweep_driver --verify renders it as the `:loadbalance`
  /// timing line.
  struct Stats {
    struct Worker {
      /// Member-events this worker replayed (tile span summed per
      /// member execution; catch-up prefixes count in CatchUpEvents).
      uint64_t EventsReplayed = 0;
      /// Tiles where the worker stalled waiting for the decoder to
      /// publish (decode-bound or arrived early).
      uint64_t TilesWaited = 0;
      /// Inert, always 0: the pool has no work stealing. Kept only for
      /// the benchmark driver, which still sums it; drop it with the
      /// next benchmark change.
      uint64_t MembersStolen = 0;
      /// Wall time spent inside replay kernels, catch-ups included
      /// (busy fraction = BusySeconds / ReplayWallSeconds).
      double BusySeconds = 0;
    };
    std::vector<Worker> Workers;
    /// Members whose optimistic models overflowed and caught up
    /// through the exact tier (counted once per member).
    uint64_t DeferredFinishes = 0;
    /// Events the catch-ups replayed: each one re-runs its member's
    /// consumed prefix, not the whole trace. The prefix ends with the
    /// sub-tile the member overflowed in when its own thread decodes
    /// its group, else with the tile, so this count (unlike every
    /// counter) depends on the thread count and the tile size.
    uint64_t CatchUpEvents = 0;
    /// Wall clock of the completion pass (baseline patching and
    /// finalization).
    double FinishSeconds = 0;
    /// Wall clock of run() itself, completion pass included — the
    /// denominator of the workers' busy fractions.
    double ReplayWallSeconds = 0;
    /// Whether this run decoded its tiles from the trace file
    /// (streaming TraceSource) rather than a materialized arena.
    bool StreamedDecode = false;
    /// Wall time the decoder spent acquiring event tiles from the
    /// source (streaming frame decode, or pointer arithmetic when
    /// materialized — effectively 0 there).
    double SourceReadSeconds = 0;
    /// Events the decoder pulled from the source this run.
    uint64_t SourceEvents = 0;
    /// High-water mark of the streaming tile-ring event buffers
    /// (bytes; 0 for materialized runs) — the number the O(tile)
    /// memory claim is audited by.
    uint64_t PeakTileRingBytes = 0;
    /// High-water mark of the replaying threads' decode scratch
    /// (bytes, summed over threads): at most one DecodeSubTileEvents
    /// sub-tile per thread, however many groups it decodes. Ring chunks
    /// of groups that span workers are not scratch and not counted.
    uint64_t PeakDecodeScratchBytes = 0;

    /// Accumulates \p O (worker rows summed index-wise) — how the
    /// sweep executor folds per-gang stats into a sweep-level view.
    void merge(const Stats &O) {
      if (Workers.size() < O.Workers.size())
        Workers.resize(O.Workers.size());
      for (size_t I = 0; I < O.Workers.size(); ++I) {
        Workers[I].EventsReplayed += O.Workers[I].EventsReplayed;
        Workers[I].TilesWaited += O.Workers[I].TilesWaited;
        Workers[I].MembersStolen += O.Workers[I].MembersStolen;
        Workers[I].BusySeconds += O.Workers[I].BusySeconds;
      }
      DeferredFinishes += O.DeferredFinishes;
      CatchUpEvents += O.CatchUpEvents;
      FinishSeconds += O.FinishSeconds;
      ReplayWallSeconds += O.ReplayWallSeconds;
      StreamedDecode |= O.StreamedDecode;
      SourceReadSeconds += O.SourceReadSeconds;
      SourceEvents += O.SourceEvents;
      if (O.PeakTileRingBytes > PeakTileRingBytes)
        PeakTileRingBytes = O.PeakTileRingBytes;
      if (O.PeakDecodeScratchBytes > PeakDecodeScratchBytes)
        PeakDecodeScratchBytes = O.PeakDecodeScratchBytes;
    }
  };

  /// Mutable gang state across all members (the packing audit): how
  /// much cache the gang competes for next to one trace tile.
  uint64_t stateBytes() const {
    uint64_t Bytes = 0;
    for (const std::unique_ptr<GangMember> &M : Members)
      Bytes += M->stateBytes();
    return Bytes;
  }

  /// One chunk-tiled pass over the trace, then per-member
  /// finalization (baseline patching, in add order). \returns one
  /// finalized PerfCounters per member, in add order. The gang is
  /// spent afterwards; build a new one for another pass.
  ///
  /// \p Threads <= 1 is the serial pass. Threads > 1 runs the
  /// shared-tile worker pool: the calling thread reads each tile once
  /// into a small ring and \p Threads workers replay members off it,
  /// each owning a fixed near-equal contiguous member slice for the
  /// whole pass. Slices, not work stealing: a cost-weighted stealing
  /// schedule measured no faster on any sweep, mixed-cost gangs
  /// included (docs/simulation-pipeline.md, "Why static slices").
  ///
  /// Decode happens on the thread that consumes it: the serial pass
  /// and each worker decode their own groups one DecodeSubTileEvents
  /// sub-tile at a time into one reused scratch, then run the group's
  /// members over it. Only a group whose members span workers is
  /// decoded by the calling thread, once per tile, into the ring.
  ///
  /// A member whose optimistic models overflow catches up on the
  /// thread that owns it (GangMember::catchUp) and replays the rest of
  /// the trace on the exact models, so no member leaves the gang.
  ///
  /// Counters are bit-identical for every \p Threads. \p StatsOut,
  /// when non-null, receives the pool accounting of this run.
  std::vector<PerfCounters> run(unsigned Threads = 1,
                                Stats *StatsOut = nullptr);

private:
  size_t adopt(std::unique_ptr<GangMember> Member) {
    Members.push_back(std::move(Member));
    return Members.size() - 1;
  }

  TraceSource Source;
  size_t ChunkEvents;
  std::vector<std::unique_ptr<GangMember>> Members;
};

} // namespace vmib

#endif // VMIB_VMCORE_GANGREPLAYER_H
