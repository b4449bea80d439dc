#pragma once
// Algorithm 1: signature-based data-dependence detection.
//
// One detector owns a read signature and a write signature and turns an
// ordered stream of accesses to *its* addresses into merged dependences.
// The serial profiler has one detector; the parallel pipeline has one per
// worker (Fig. 2), which is sound because every address is owned by exactly
// one worker and workers see their addresses in program order.
//
// Note on the published pseudocode: the INIT branch and the WAR branch are
// independent.  Fig. 1 line "1:65 NOM ... {WAR 1:67|temp2} {INIT *}" shows a
// sink that is simultaneously an initialization (first write) and the sink
// of a WAR against an earlier read, so a write checks the read signature
// regardless of whether the write signature already held the address.
//
// DetectorCore is the single Algorithm 1 implementation, templated over any
// type satisfying the AccessStore concept: the fixed-size Signature, the
// PerfectSignature baseline, the ShadowMemory baseline, and the
// HashTableRecorder baseline.  The slot layout is deduced from the store
// (Store::slot_type), so each (backend, target kind) pair is one full
// monomorphization — there is no per-access branch on the storage kind
// anywhere in the detect loop.

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/hash.hpp"
#include "core/dep.hpp"
#include "sig/access_store.hpp"
#include "sig/slots.hpp"
#include "trace/event.hpp"
#include "trace/nest.hpp"

namespace depprof {

static_assert(kNestLevels == kNestIters,
              "DepInfo level buckets mirror the event iteration window");

/// Builds the slot recorded for an access in a context of nest depth
/// `depth`: the slot keeps the iteration at that depth, clamped to the
/// window (a context deeper than kNestIters is only ever compared through
/// an ancestor, whose iteration comes from the forest instead).
template <typename Slot>
Slot make_slot(const AccessEvent& ev, std::uint32_t depth) {
  Slot s;
  s.loc = ev.loc;
  s.tag = addr_tag(ev.addr);
  s.ctx = ev.ctx;
  s.iter = depth == 0
               ? 0
               : ev.iters[std::min<std::size_t>(depth, kNestIters) - 1];
  if constexpr (std::is_same_v<Slot, MtSlot>) {
    s.tid = ev.tid;
    s.flags = ev.flags;
    s.ts = ev.ts;
  }
  return s;
}

/// Resolves two nest contexts to the innermost dynamic loop entry common to
/// both (the lowest common ancestor in the forest) and the carried distance
/// at that level.  Returns a zero attribution when the endpoints share no
/// loop entry.
///
/// The LCA loop is the *only* candidate carrier: both contexts descend from
/// the same dynamic entry at every level above it, and a thread reaches two
/// different child entries (or two iterations of the same entry) only after
/// advancing some iteration counter at or above the divergence point —
/// every strictly higher level's counter is therefore equal for both
/// endpoints, and the distance vector of the pair is zero everywhere except
/// possibly at the LCA level itself.  The sink's counter at that level sits
/// in its root-anchored window whenever the level's depth is <= kNestIters;
/// the source brings only its own-level iteration `src_iter`, so when the
/// walk climbs the source path its counter at the LCA level is the
/// `entry_iter` of the child just below the LCA (event.hpp's window
/// invariant).  Deeper common levels degrade to "carried, distance unknown"
/// (the >= 2 bucket) rather than to any heuristic.
inline DepAttribution attribute_nest(std::uint32_t src_ctx,
                                     std::uint32_t src_iter,
                                     std::uint32_t sink_ctx,
                                     const std::uint32_t* sink_iters) {
  DepAttribution at;
  if (src_ctx == NestForest::kRoot || sink_ctx == NestForest::kRoot) return at;
  const NestForest& forest = nest_forest();
  std::uint32_t a = src_ctx;
  std::uint32_t b = sink_ctx;
  std::uint32_t da = forest.depth(a);
  std::uint32_t db = forest.depth(b);
  std::uint32_t ia = src_iter;  // source iteration at level da
  while (da > db) {
    const NestForest::Node& n = forest.node(a);
    ia = n.entry_iter;
    a = n.parent;
    --da;
  }
  while (db > da) {
    b = forest.parent(b);
    --db;
  }
  while (a != b) {
    const NestForest::Node& n = forest.node(a);
    ia = n.entry_iter;
    a = n.parent;
    b = forest.parent(b);
    --da;
  }
  if (a == NestForest::kRoot) return at;
  at.loop = forest.loop(a);
  at.level = da;
  if (da <= kNestIters) {
    const std::uint32_t ib = sink_iters[da - 1];
    at.distance = ib > ia ? ib - ia : ia - ib;
    at.distance_known = true;
  } else {
    at.distance = 0;
    at.distance_known = false;
  }
  return at;
}

/// Flags qualifying the dependence built from recorded source `src` and
/// current sink `sink`, plus its nest attribution.
///
/// When the slot's address tag does not match the sink's address, the slot
/// was written by a *colliding* address: the dependence record itself is
/// still built (the paper's approximate-membership semantics), but the
/// nest-context and timestamp comparisons would compare two unrelated
/// accesses, so no qualifying flags or attribution are derived (see
/// slots.hpp).
template <typename Slot>
std::uint8_t classify_dep(const Slot& src, const AccessEvent& sink,
                          DepAttribution& at) {
  std::uint8_t f = 0;
  at = {};
  const bool same_address = src.tag == addr_tag(sink.addr);
  if (same_address) {
    at = attribute_nest(src.ctx, src.iter, sink.ctx, sink.iters);
    if (at.loop != 0 && (!at.distance_known || at.distance != 0))
      f |= kLoopCarried;
    if (src.ctx != sink.ctx &&
        (src.ctx != NestForest::kRoot || sink.ctx != NestForest::kRoot))
      f |= kCrossLoop;
  }
  if constexpr (std::is_same_v<Slot, MtSlot>) {
    if (src.tid != sink.tid) f |= kCrossThread;
    if (same_address) {
      // A worker expects increasing timestamps per address (Sec. V-B); a
      // reversal proves the access/push pair was not mutually excluded with
      // the recorded one — a potential data race.
      if (src.ts > sink.ts) f |= kReversed;
      // Both endpoints inside lock regions: the target's own mutual
      // exclusion ordered this pair, so it cannot be a race candidate.
      // Gated on the address tag like the timestamp check — a colliding
      // slot must not suppress an unrelated pair.
      if ((src.flags & kInLockRegion) != 0 &&
          (sink.flags & kInLockRegion) != 0)
        f |= kLockProtected;
    }
  }
  return f;
}

template <AccessStore Store>
class DetectorCore {
 public:
  using Slot = typename Store::slot_type;

  /// Takes ownership of the two (empty) signatures.
  DetectorCore(Store sig_read, Store sig_write)
      : sig_read_(std::move(sig_read)), sig_write_(std::move(sig_write)) {}

  /// Processes one access in program order (Algorithm 1).  The profilers
  /// run process_batch(); this is the per-event reference the equivalence
  /// tests and benches compare it against.
  void process(const AccessEvent& ev, DepMap& deps) {
    process_one(ev, [&](const DepKey& k, std::uint8_t flags,
                        const DepAttribution& at) { deps.add(k, flags, at); });
  }

  /// Distance (in events) between a prefetch and its consuming compare.
  /// Far enough to cover an LLC miss at ~4 events' work per miss, small
  /// enough that the prefetched lines are still resident when reached.
  static constexpr std::size_t kPrefetchDistance = 8;

  /// Batched Algorithm 1: identical results to calling process() per event,
  /// with the two batch-only optimizations of the hot path:
  ///
  ///  - the read/write store slots of the event kPrefetchDistance ahead are
  ///    software-prefetched (write intent) before each compare/update,
  ///    overlapping the slot misses process() would take one by one;
  ///  - dependence records — which repeat the same few (sink, source, var)
  ///    keys throughout a batch — are aggregated in a small stack table and
  ///    folded into the map once per distinct key (DepMap::fold) instead of
  ///    one map probe per event.
  ///
  /// Returns the number of prefetch pairs issued (obs accounting).
  std::size_t process_batch(const AccessEvent* events, std::size_t count,
                            DepMap& deps) {
    DepBatch batch;
    std::size_t prefetched = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t ahead = i + kPrefetchDistance;
      if (ahead < count) {
        sig_read_.prefetch(events[ahead].addr);
        sig_write_.prefetch(events[ahead].addr);
        ++prefetched;
      }
      process_one(events[i], [&](const DepKey& k, std::uint8_t flags,
                                 const DepAttribution& at) {
        if (!batch.accumulate(k, flags, at)) deps.add(k, flags, at);
      });
    }
    batch.flush(deps);
    return prefetched;
  }

  Store& read_signature() { return sig_read_; }
  Store& write_signature() { return sig_write_; }

  /// Migration support (Sec. IV-A): extract/adopt the per-address state.
  struct AddrState {
    bool has_read = false;
    bool has_write = false;
    Slot read_slot{};
    Slot write_slot{};
  };

  AddrState extract_state(std::uint64_t addr) {
    AddrState st;
    if (auto r = sig_read_.extract(addr)) {
      st.has_read = true;
      st.read_slot = *r;
    }
    if (auto w = sig_write_.extract(addr)) {
      st.has_write = true;
      st.write_slot = *w;
    }
    return st;
  }

  void adopt_state(std::uint64_t addr, const AddrState& st) {
    if (st.has_read) sig_read_.insert(addr, st.read_slot);
    if (st.has_write) sig_write_.insert(addr, st.write_slot);
  }

 private:
  /// Algorithm 1 for one access.  Every dependence record (including INIT)
  /// goes through `sink(key, flags, attribution)` instead of touching the
  /// map directly, so the batch kernel can aggregate records per batch while
  /// process() — the per-event reference — adds them straight to the map.
  template <typename Sink>
  void process_one(const AccessEvent& ev, Sink&& sink) {
    if (ev.is_burst_mark()) {
      // Overhead-budget sampling: accesses were dropped before this point.
      // Forget every recorded last access so no dependence is attributed
      // across the unobserved gap — a stale source could name the wrong
      // endpoint, and the subset contract tolerates missed edges only.
      sig_read_.clear();
      sig_write_.clear();
      return;
    }
    if (ev.is_free()) {
      // Variable-lifetime analysis: obsolete addresses leave the signatures
      // so later re-use of the memory does not fabricate dependences.
      sig_read_.remove(ev.addr);
      sig_write_.remove(ev.addr);
      return;
    }
    if (ev.is_write()) {
      if (const Slot* w = sig_write_.find(ev.addr)) {
        emit(ev, *w, DepType::kWaw, sink);
      } else {
        sink(init_key(ev), 0, DepAttribution{});
      }
      if (const Slot* r = sig_read_.find(ev.addr)) {
        emit(ev, *r, DepType::kWar, sink);
      }
      sig_write_.insert(ev.addr, make_slot<Slot>(ev, ctx_depth(ev.ctx)));
    } else {
      // RAR dependences are ignored (Sec. III-B): most analyses do not need
      // them, so reads only consult the write signature.
      if (const Slot* w = sig_write_.find(ev.addr)) {
        emit(ev, *w, DepType::kRaw, sink);
      }
      sig_read_.insert(ev.addr, make_slot<Slot>(ev, ctx_depth(ev.ctx)));
    }
  }

  /// Per-batch record accumulator: a small linear-probe table keyed by
  /// DepKey, applying DepMap::add's per-instance update rules locally.
  /// Flushing folds each entry into the map with DepMap::fold, whose result
  /// is exactly that of replaying the instances one add() at a time (every
  /// per-key update is a commutative join: flags OR, count sum, per-level
  /// loop max and bucket sums).  Occupancy sentinel is count == 0.  Probes are capped; a record
  /// that finds neither its key nor a free slot within the cap goes straight
  /// to the map, which keeps the table loss-free and bounded.
  struct DepBatch {
    // Power of two (the probe sequence masks); sized for the instantaneous
    // key set of a hot loop (tens of keys), not the whole program's map.
    static constexpr std::size_t kSlots = 128;
    static constexpr std::size_t kMaxProbe = 8;
    static_assert((kSlots & (kSlots - 1)) == 0);
    struct Entry {
      DepKey key;
      DepInfo info;  ///< info.count == 0 = slot free
    };
    std::array<Entry, kSlots> entries{};

    /// Applies one instance; false if the record must go to the map.
    bool accumulate(const DepKey& key, std::uint8_t flags,
                    const DepAttribution& at) {
      // A throwaway 128-slot table does not need DepKeyHash's full-strength
      // mixing — one multiply per field keeps the accumulate cheaper than
      // the map probe it replaces; collisions just fall through to the map.
      std::size_t i =
          (key.sink_loc * 0x9E3779B9u + key.src_loc * 0x85EBCA6Bu +
           key.var * 0xC2B2AE35u + key.sink_tid + key.src_tid +
           static_cast<std::size_t>(key.type)) &
          (kSlots - 1);
      for (std::size_t probe = 0; probe < kMaxProbe; ++probe) {
        Entry& e = entries[i];
        if (e.info.count != 0 && !(e.key == key)) {
          i = (i + 1) & (kSlots - 1);
          continue;
        }
        if (e.info.count == 0) e.key = key;
        // The exact same per-instance update DepMap::add applies.
        apply_dep_instance(e.info, flags, at);
        return true;
      }
      return false;
    }

    void flush(DepMap& deps) {
      for (const Entry& e : entries)
        if (e.info.count != 0) deps.fold(e.key, e.info);
    }
  };

  template <typename Sink>
  void emit(const AccessEvent& sink_ev, const Slot& src, DepType type,
            Sink&& sink) {
    DepAttribution at;
    const std::uint8_t flags = classify_dep(src, sink_ev, at);
    DepKey k;
    k.sink_loc = sink_ev.loc;
    k.src_loc = src.loc;
    k.var = sink_ev.var;
    k.sink_tid = sink_ev.tid;
    if constexpr (std::is_same_v<Slot, MtSlot>)
      k.src_tid = static_cast<std::uint16_t>(src.tid);
    k.type = type;
    sink(k, flags, at);
  }

  static DepKey init_key(const AccessEvent& sink) {
    DepKey k;
    k.sink_loc = sink.loc;
    k.src_loc = 0;
    k.var = sink.var;
    k.sink_tid = sink.tid;
    k.type = DepType::kInit;
    return k;
  }

  /// Nest depth of `ctx`, memoized for the run of events that share one
  /// context (a loop body) so the slot build skips the forest lookup.
  std::uint32_t ctx_depth(std::uint32_t ctx) {
    if (ctx != depth_ctx_) {
      depth_ctx_ = ctx;
      depth_ = nest_forest().depth(ctx);
    }
    return depth_;
  }

  Store sig_read_;
  Store sig_write_;
  std::uint32_t depth_ctx_ = NestForest::kRoot;
  std::uint32_t depth_ = 0;  ///< depth of depth_ctx_ (root: 0)
};

}  // namespace depprof
