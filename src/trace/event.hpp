#pragma once
// Memory-access events — the unit of work flowing through the profiler.
//
// The instrumentation boundary of the paper is an LLVM pass inserting a call
// per IR load/store (Fig. 4); our source-level macros produce the same
// per-access records.  Everything downstream (Algorithm 1, the Fig. 2
// pipeline, the analyses) consumes this event stream and nothing else.
//
// Each event carries the loop context of the access as one interned nest
// context id — the innermost dynamic loop entry, a node of the global
// NestForest (trace/nest.hpp) — plus one iteration counter, `iter`: the
// access's iteration at its own nest level.  A dependence is carried by the
// innermost loop entry common to source and sink when their iteration
// counters differ at that entry's depth; the counter of an endpoint at an
// *ancestor* level is a property of the loop entry, not of the access, and
// is read from the forest (NestForest::entry_iter), so no per-access window
// of enclosing iterations is needed.
//
// Bounded levels: distances are tracked for common levels up to kNestIters.
// A context deeper than that stamps its depth-kNestIters iteration into
// `iter` (the deepest level attribution can still use); deeper common levels
// degrade conservatively to "carried, distance unknown" — never to a
// heuristic.
//
// Entry invariant: for every node n on ctx's path with
// 2 <= depth(n) <= kNestIters + 1, the access's iteration at level
// depth(n) - 1 equals NestForest::entry_iter(n).  Every producer that keeps
// a loop stack satisfies it by construction; the file readers (repro and
// trace), whose formats carry the equivalent root-anchored window of
// iterations (NestForest::window), derive entry_iter from their events and
// reject a file whose events contradict one another.
//
// Layout: 32 bytes, two events per cache line.  Address and timestamp share
// their 64-bit words with the kind/flags bytes and the thread id; both are
// 48-bit fields.  User-space byte addresses fit, and the MT timestamp
// counter throws rather than wrap at the bound (Runtime::record); the file
// readers reject values beyond it.

#include <cstdint>

#include "common/location.hpp"

namespace depprof {

enum class AccessKind : std::uint8_t {
  kRead = 0,
  kWrite = 1,
  /// Variable-lifetime event (Sec. III-B): the address range became obsolete
  /// (free / scope exit); remove it from the signatures.
  kFree = 2,
  /// Burst boundary of the overhead-budget sampling mode: one or more
  /// accesses were dropped immediately before this point.  Consumers must
  /// clear their last-access state so no dependence is attributed across
  /// the unobserved gap — that clearing is what makes every sampled
  /// dependence edge a true edge of the unsampled run (subset contract).
  kBurstMark = 3,
};

/// Event flag bits.
enum AccessFlags : std::uint8_t {
  /// The access happened inside an explicit lock region of the target
  /// (Sec. V, Fig. 4): access and push are atomic, so its timestamp order is
  /// trustworthy.
  kInLockRegion = 1u << 0,
};

/// Nest levels whose carried distances are tracked (see above).
inline constexpr std::size_t kNestIters = 7;

/// Largest value of the 48-bit `addr` and `ts` fields.
inline constexpr std::uint64_t kEventFieldMax = (std::uint64_t{1} << 48) - 1;

/// One instrumented memory access (or lifetime event).
struct AccessEvent {
  std::uint64_t addr : 48 = 0;  ///< byte address of the access
  AccessKind kind = AccessKind::kRead;
  std::uint8_t flags = 0;
  /// Global timestamp (MT targets; 0 for sequential), < 2^48.
  std::uint64_t ts : 48 = 0;
  std::uint16_t tid = 0;  ///< target-program thread id
  std::uint32_t loc = 0;  ///< packed SourceLocation
  std::uint32_t var = 0;  ///< variable-name registry id
  /// Innermost enclosing dynamic loop entry — a NestForest node id
  /// (NestForest::kRoot = not inside any loop).
  std::uint32_t ctx = 0;
  /// Iteration at ctx's depth, or at depth kNestIters for deeper contexts
  /// (0 outside any loop).
  std::uint32_t iter = 0;

  bool is_read() const { return kind == AccessKind::kRead; }
  bool is_write() const { return kind == AccessKind::kWrite; }
  bool is_free() const { return kind == AccessKind::kFree; }
  bool is_burst_mark() const { return kind == AccessKind::kBurstMark; }
  SourceLocation location() const { return SourceLocation::from_packed(loc); }
};

static_assert(sizeof(AccessEvent) == 32);  // two events per cache line

/// Consumer of an instrumentation event stream.  Implemented by the serial
/// profiler, the parallel profiler's producer side, and the trace recorder.
class AccessSink {
 public:
  virtual ~AccessSink() = default;
  virtual void on_access(const AccessEvent& ev) = 0;
  /// Batched delivery — the chunk path shared by live instrumentation
  /// (thread-local EventBuffer flushes) and trace replay.  Sinks with a hot
  /// per-event loop override this so the stream pays one virtual call per
  /// batch instead of one per access.  Events of one batch all originate
  /// from the same target thread, in program order.
  virtual void on_batch(const AccessEvent* events, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) on_access(events[i]);
  }
  /// Run-length-encoded batch: `reps[i]` identical instances of `events[i]`
  /// (reps[i] >= 1), produced by the front-end dedup cache.  Expanding the
  /// runs in order yields exactly the stream on_batch would have carried, so
  /// the default implementation does that and sinks that never look at
  /// per-instance identity (recorders, profilers without a compressed fast
  /// path) need no override.  Profilers override this to keep the runs
  /// compressed through their produce/route stages.
  virtual void on_batch_rle(const AccessEvent* events,
                            const std::uint32_t* reps, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i)
      for (std::uint32_t r = 0; r < reps[i]; ++r) on_access(events[i]);
  }
  /// A target thread left a lock region (Sec. V, Fig. 4): buffered accesses
  /// of that thread must be pushed before the lock is released so that
  /// access and push stay atomic.  No-op for sinks without buffering.
  virtual void on_unlock(std::uint16_t tid) { (void)tid; }
  /// Stream end: flush buffered state.
  virtual void finish() {}
  /// Profiling cost spent inside this sink so far, in nanoseconds of CPU
  /// time (sum of the pipeline stages' cpu_ns for profilers).  The
  /// overhead-budget sampling controller polls this between bursts to
  /// measure the achieved overhead fraction online; sinks without stage
  /// clocks report 0 and the controller falls back to its configured duty.
  virtual std::uint64_t profiling_cost_ns() const { return 0; }
  /// Sampling summary, delivered once at detach when the overhead-budget
  /// mode was active: accesses dropped in skipped units, burst boundaries
  /// emitted, and the controller's measured overhead in parts-per-million.
  virtual void on_sampling_stats(std::uint64_t events_sampled_out,
                                 std::uint64_t bursts,
                                 std::uint64_t overhead_ppm) {
    (void)events_sampled_out;
    (void)bursts;
    (void)overhead_ppm;
  }
};

}  // namespace depprof
