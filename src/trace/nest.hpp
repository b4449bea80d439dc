#pragma once
// The loop-nest forest — interned dynamic loop entries.
//
// Every dynamic entry of a loop (one execution of its DP_LOOP_BEGIN) is
// interned as one node of a global append-only forest: (parent entry,
// static loop id, depth, entry iteration).  An access event then carries a
// single 32-bit context id — the innermost enclosing entry — instead of a
// fixed number of (loop, entry, iteration) triples, so arbitrarily deep
// nests cost the same four bytes per event (PROMPT's LoopHierarchy contexts
// work the same way).
//
// The attribution question the detector asks — "which loop carries this
// dependence?" — becomes a lowest-common-ancestor walk over two context
// ids: the innermost *common* entry of source and sink is the innermost
// loop whose iteration space contains both endpoints, and the carried
// distance is the difference of their iteration counters at that level
// (every level strictly above the common entry has, by construction, equal
// counters for both endpoints, so the common entry is the *only* candidate
// carrier).  An access carries only its own-level iteration (event.hpp);
// the walk reads parent, depth and entry iteration, which this forest
// serves lock-free.
//
// Entry iteration: a thread cannot advance an enclosing loop while it is
// inside one of that loop's child entries, so the parent's iteration is
// the same for every access under an entry — it is fixed when the entry is
// entered, and the node records it (`entry_iter`).  That is what lets an
// access event and a recorded slot keep only their own iteration
// (event.hpp, sig/slots.hpp): the iteration at any ancestor level is the
// `entry_iter` of the node just below that level on the context path.
// Top-level entries have no enclosing iteration and record 0.  Attribution
// never reads entry_iter below depth kNestIters + 1 (the common level would
// lie beyond the tracked levels), so the file readers, which cannot derive
// it there, leave it 0.
//
// Growth and lifetime: one node per dynamic loop entry — the same rate the
// previous design burned its process-unique `entry` counter at.  Nodes are
// appended under a mutex (loop entry is already a slow path that takes the
// control-flow lock) and never mutated or freed afterwards, so readers need
// no synchronization beyond an acquire load of the size: context ids stay
// valid process-wide, across Runtime::reset() epochs, which is what lets
// in-memory traces and replay reuse them.  Storage is chunked so appends
// never move published nodes.  Ids are 32-bit: once 2^32 - 1 entries exist
// enter() throws std::length_error rather than wrap a new id onto kRoot.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "trace/event.hpp"

namespace depprof {

class NestForest {
 public:
  /// Node id 0: the synthetic root ("not in any loop").
  static constexpr std::uint32_t kRoot = 0;

  struct Node {
    std::uint32_t parent = 0;  ///< enclosing entry (kRoot at top level)
    std::uint32_t loop = 0;    ///< static loop id (packed begin location)
    std::uint32_t depth = 0;   ///< nest depth; root = 0, top-level loops = 1
    /// Parent's iteration when this entry was entered (0 at top level).
    std::uint32_t entry_iter = 0;
  };

  NestForest();
  /// Test hook: a forest whose next interned id is `next_id` (> kRoot), so
  /// the id-space bound can be exercised without 2^32 entries.
  struct StartAt {
    std::uint32_t next_id;
  };
  explicit NestForest(StartAt start);
  NestForest(const NestForest&) = delete;
  NestForest& operator=(const NestForest&) = delete;
  ~NestForest();

  /// Interns a fresh dynamic entry of loop `loop` under `parent`, entered
  /// during the parent's iteration `entry_iter`; returns its id.
  /// Thread-safe.  Throws std::length_error once the id space is exhausted.
  std::uint32_t enter(std::uint32_t parent, std::uint32_t loop,
                      std::uint32_t entry_iter);

  /// Node lookup.  `id` must be < size(); id kRoot is always valid.
  const Node& node(std::uint32_t id) const {
    return chunk_[id >> kChunkShift].load(std::memory_order_acquire)
        [id & (kChunkNodes - 1)];
  }
  std::uint32_t parent(std::uint32_t id) const { return node(id).parent; }
  std::uint32_t loop(std::uint32_t id) const { return node(id).loop; }
  std::uint32_t depth(std::uint32_t id) const { return node(id).depth; }
  std::uint32_t entry_iter(std::uint32_t id) const {
    return node(id).entry_iter;
  }

  /// Root-anchored iteration window of an access in context `ctx` whose
  /// AccessEvent::iter is `iter`: out[i] is its iteration at depth i+1, 0
  /// beyond the context's depth.  The trace and repro formats carry this
  /// window; their writers rebuild it here from the entry iterations.
  void window(std::uint32_t ctx, std::uint32_t iter,
              std::uint32_t (&out)[kNestIters]) const;

  /// Nodes interned so far (ids are 0..size()-1, root included).
  std::uint32_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  static constexpr std::uint32_t kChunkShift = 12;
  static constexpr std::uint32_t kChunkNodes = 1u << kChunkShift;  // 4096
  /// 2^20 chunks x 4096 nodes covers the full 32-bit id space.
  static constexpr std::uint32_t kMaxChunks = 1u << 20;

  std::mutex mu_;
  std::atomic<std::uint32_t> size_{0};
  std::atomic<Node*>* chunk_;  // kMaxChunks pointers, allocated lazily
};

/// The process-wide forest every runtime, generator, and replayer interns
/// into (the var_registry() pattern).
NestForest& nest_forest();

/// The AccessEvent::iter of an access at nest depth `depth`, read from its
/// root-anchored window (the inverse of NestForest::window).
inline std::uint32_t window_iter(std::uint32_t depth,
                                 const std::uint32_t (&window)[kNestIters]) {
  if (depth == 0) return 0;
  return window[(depth < kNestIters ? depth : kNestIters) - 1];
}

/// Re-interns the nest table of a trace or repro file.  Neither format
/// records `entry_iter`, so the loader derives it from the file's events:
/// the first event under an entry (directly or through a descendant) fixes
/// it, and a later event that disagrees is a contradiction the reader
/// rejects.  Ids are file-local until intern(): 0 is the root and every
/// node's parent precedes it.
class NestTableLoader {
 public:
  /// Declares the next file-local node under the already-declared local
  /// `parent`; returns its local id (1, 2, ...).
  std::uint32_t declare(std::uint32_t parent, std::uint32_t loop);
  /// Local ids declared so far, root included.
  std::uint32_t size() const { return static_cast<std::uint32_t>(nodes_.size()); }
  /// Nest depth of declared local node `local` (root: 0).
  std::uint32_t depth(std::uint32_t local) const { return nodes_[local].depth; }
  /// Fixes or checks the entry iterations on local context `ctx`'s path
  /// against an event's root-anchored window (event.hpp's entry invariant).
  /// Returns false when the window contradicts an earlier event.
  bool observe(std::uint32_t ctx, const std::uint32_t (&window)[kNestIters]);
  /// Interns every declared node; returns the local -> forest id map.
  std::vector<std::uint32_t> intern() const;

 private:
  struct Local {
    std::uint32_t parent = 0;
    std::uint32_t loop = 0;
    std::uint32_t depth = 0;
    std::uint32_t entry_iter = 0;
    bool fixed = false;  ///< entry_iter set by an event
  };
  std::vector<Local> nodes_{Local{}};  // [0] = root
};

}  // namespace depprof
