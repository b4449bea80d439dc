#pragma once
// Front-end redundancy elision — the dedup half of the front-end event
// reduction layer (see DESIGN.md "Front-end event reduction").
//
// Loop-heavy code re-executes the same instrumented access — same word,
// kind, source location, variable, thread, and loop-iteration context —
// many times between flush points, and an exact repeat can never add a new
// dependence *entry*: it only bumps the count of the entry the first
// instance created.  The dedup cache recognizes such repeats at record time
// and run-length encodes them (AccessSink::on_batch_rle), so the pipeline's
// produce/route/queue path handles one record per run instead of one cache
// line per instance.
//
// Why the merged map is preserved exactly (not just bounded):
//
//  1. The cache is direct-mapped and indexed by the access *word alone*.
//     Any event touching a word replaces (or, for frees, clears) the cache
//     slot that word maps to.  A repeat can therefore only merge into the
//     immediately preceding event *of its own word's substream* — if any
//     event touched that word (or merely collided with its slot) in
//     between, the match fails and the event is kept verbatim.  Expanding
//     a run in place thus reproduces every per-word subsequence of the
//     original stream exactly; only the interleaving of *different* words
//     can shift.
//  2. Algorithm 1's detection state is per-address, so cross-word order is
//     invisible to exact stores; and every aggregation in DepInfo is a
//     commutative join (count sum, flags OR, per-level loop max and carry-
//     bucket sums), so the merged map is independent of cross-word arrival
//     order.
//  3. Eligibility is gated: events with a nonzero timestamp (MT targets,
//     where collapsing repeats would change the Sec. V-B reversed-timestamp
//     race check), events inside lock regions, and lifetime events never
//     dedup.  Flush points (buffer flush, loop begin/iter/end, lock
//     boundaries, sync points, detach) invalidate the whole cache in O(1)
//     via a generation bump; record_free clears the slots of the freed word
//     span so a recycled address can never merge into its previous life.
//
// The differential harness (src/oracle) enforces this contract: with dedup
// applied, exact stores must produce byte-identical maps, not merely
// signature-bounded ones.

#include <array>
#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "trace/event.hpp"
#include "trace/event_buffer.hpp"

namespace depprof {

/// Dedup identity: two events are exact repeats when they touch the same
/// word with the same kind, location, variable, thread, timestamp, flags,
/// nest context, and iteration.  (Sub-word byte addresses may differ —
/// detection works on word units.)  The context and its own iteration fix
/// every enclosing iteration too (event.hpp's entry invariant).
inline bool same_access_identity(const AccessEvent& a, const AccessEvent& b) {
  return word_addr(a.addr) == word_addr(b.addr) && a.kind == b.kind &&
         a.loc == b.loc && a.var == b.var && a.tid == b.tid && a.ts == b.ts &&
         a.flags == b.flags && a.ctx == b.ctx && a.iter == b.iter;
}

/// Whether the cache may merge this event at all.  Timestamped events (MT
/// targets) carry per-instance order the race check depends on; lock-region
/// events are flushed per-region anyway; lifetime events are never merged
/// (adjacent identical frees are rare and the word-span invalidation below
/// wants to see each one); burst markers are state-clearing control events,
/// never data.  Only plain reads and writes are merge candidates.
inline bool dedup_eligible(const AccessEvent& ev) {
  return ev.ts == 0 && ev.flags == 0 &&
         (ev.kind == AccessKind::kRead || ev.kind == AccessKind::kWrite);
}

/// Fixed-size direct-mapped map from word address to the index of the most
/// recent buffered record touching that word.  4 KiB per thread; collisions
/// only cost missed merges, never correctness (see header comment).
class DedupCache {
 public:
  static constexpr std::size_t kEntries = 256;
  static constexpr std::uint32_t kNoIndex = ~0u;

  /// Index of the live cached record for `word`, or kNoIndex.  The caller
  /// still compares full identity against the buffered event — the cache
  /// only narrows the candidate set to at most one.
  std::uint32_t find(std::uint64_t word) const {
    const Entry& e = entries_[slot(word)];
    return (e.generation == generation_ && e.word == word) ? e.index
                                                           : kNoIndex;
  }

  /// Records that buffered record `index` is now the latest event touching
  /// `word`.  Replaces whatever occupied the slot — mandatory even when the
  /// evicted entry is a different word, so a later repeat of that word
  /// cannot merge across this event.
  void put(std::uint64_t word, std::uint32_t index) {
    entries_[slot(word)] = Entry{word, index, generation_};
  }

  /// Drops the cached record for `word` if one is live (record_free's
  /// word-span invalidation).
  void invalidate_word(std::uint64_t word) {
    Entry& e = entries_[slot(word)];
    if (e.generation == generation_ && e.word == word) e.generation = 0;
  }

  /// O(1) full invalidation — every flush point calls this.  Generation 0
  /// never matches, and a (rare) wrap clears the table outright.
  void invalidate_all() {
    if (++generation_ == 0) {
      entries_.fill(Entry{});
      generation_ = 1;
    }
  }

 private:
  struct Entry {
    std::uint64_t word = 0;
    std::uint32_t index = 0;
    std::uint32_t generation = 0;  ///< 0 = free (generation_ starts at 1)
  };
  static std::size_t slot(std::uint64_t word) {
    return static_cast<std::size_t>(mix64(word)) & (kEntries - 1);
  }
  std::array<Entry, kEntries> entries_{};
  std::uint32_t generation_ = 1;
};

/// A run-length-encoded event stream: reps[i] >= 1 identical instances of
/// events[i].  Expanding the runs in order reproduces every per-word
/// subsequence of the stream the encoder consumed.
struct RleStream {
  std::vector<AccessEvent> events;
  std::vector<std::uint32_t> reps;

  std::uint64_t logical_events() const {
    std::uint64_t n = 0;
    for (std::uint32_t r : reps) n += r;
    return n;
  }
};

/// Applies the runtime's dedup policy to a flat event stream — the
/// trace-replay twin of the per-thread cache in instrument/runtime.cpp,
/// used by the differential harness, the equivalence tests, and
/// bench/frontend.  One shared cache over the whole stream (an event of any
/// thread replaces the slot of its word), so per-word subsequences are
/// preserved across threads too.
inline RleStream dedup_stream(const AccessEvent* events, std::size_t count) {
  RleStream out;
  out.events.reserve(count);
  out.reps.reserve(count);
  DedupCache cache;
  for (std::size_t i = 0; i < count; ++i) {
    const AccessEvent& ev = events[i];
    const std::uint64_t word = word_addr(ev.addr);
    if (ev.kind == AccessKind::kFree) {
      cache.invalidate_word(word);
      out.events.push_back(ev);
      out.reps.push_back(1);
      continue;
    }
    if (ev.kind == AccessKind::kBurstMark) {
      // The marker clears all detection state downstream, so a post-marker
      // repeat must not merge into a pre-marker record: expanding the run
      // would move the repeat across the store clear.
      cache.invalidate_all();
      out.events.push_back(ev);
      out.reps.push_back(1);
      continue;
    }
    if (dedup_eligible(ev)) {
      const std::uint32_t idx = cache.find(word);
      if (idx != DedupCache::kNoIndex &&
          same_access_identity(out.events[idx], ev) &&
          out.reps[idx] != ~0u) {
        out.reps[idx] += 1;
        continue;
      }
      out.events.push_back(ev);
      out.reps.push_back(1);
      cache.put(word, static_cast<std::uint32_t>(out.events.size() - 1));
    } else {
      out.events.push_back(ev);
      out.reps.push_back(1);
      cache.put(word, static_cast<std::uint32_t>(out.events.size() - 1));
    }
  }
  return out;
}

/// Expands an RLE stream back into the flat event sequence its runs encode.
inline std::vector<AccessEvent> expand_rle(const RleStream& rle) {
  std::vector<AccessEvent> out;
  out.reserve(rle.events.size());
  for (std::size_t i = 0; i < rle.events.size(); ++i)
    for (std::uint32_t r = 0; r < rle.reps[i]; ++r)
      out.push_back(rle.events[i]);
  return out;
}

/// Streams an RLE stream into `sink` in EventBuffer-sized record batches
/// (the granularity live instrumentation flushes at) and finishes it — the
/// RLE twin of trace replay().
inline void replay_rle(const RleStream& rle, AccessSink& sink) {
  const std::size_t count = rle.events.size();
  for (std::size_t off = 0; off < count; off += EventBuffer::kCapacity) {
    const std::size_t n = count - off < EventBuffer::kCapacity
                              ? count - off
                              : EventBuffer::kCapacity;
    sink.on_batch_rle(rle.events.data() + off, rle.reps.data() + off, n);
  }
  sink.finish();
}

}  // namespace depprof
