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
// NestForest (trace/nest.hpp) — plus a bounded, root-anchored window of
// iteration counters: iters[i] is the iteration of the enclosing loop at
// nest depth i+1, counted from the *outermost* loop.  A dependence is
// carried by the innermost loop entry common to source and sink when their
// iteration counters differ at that entry's depth.  Root-anchoring is what
// keeps the window sufficient: the common entry's depth never exceeds
// either endpoint's depth, so its counter sits inside both windows whenever
// the common depth is <= kNestIters, regardless of how deep the endpoints
// themselves are.  Deeper common levels (nests beyond kNestIters) degrade
// conservatively to "carried, distance >= 2" — never to a heuristic.
//
// Window invariant: the iterations above an access's own level are those of
// its enclosing entries, fixed when each entry was entered — for every node
// n on ctx's path with 2 <= depth(n) <= kNestIters + 1,
// iters[depth(n) - 2] == NestForest::entry_iter(n).  Every producer that
// keeps a loop stack satisfies it by construction; the file readers (repro
// and trace) derive entry_iter from their events and reject a file whose
// events contradict one another.  Recorded accesses rely on it: a slot keeps
// only its own innermost iteration and recovers ancestor ones from the
// forest (sig/slots.hpp, core/detector.hpp).

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

/// Levels of the root-anchored iteration window carried per access.
inline constexpr std::size_t kNestIters = 7;

/// One instrumented memory access (or lifetime event).
struct AccessEvent {
  std::uint64_t addr = 0;  ///< byte address of the access
  std::uint64_t ts = 0;    ///< global timestamp (MT targets; 0 for sequential)
  std::uint32_t loc = 0;   ///< packed SourceLocation
  std::uint32_t var = 0;   ///< variable-name registry id
  /// Innermost enclosing dynamic loop entry — a NestForest node id
  /// (NestForest::kRoot = not inside any loop).
  std::uint32_t ctx = 0;
  /// Root-anchored iteration counters: iters[i] is the iteration of the
  /// enclosing loop at depth i+1 (outermost = depth 1).  Levels beyond the
  /// context's depth — and beyond kNestIters — are 0.
  std::uint32_t iters[kNestIters] = {};
  std::uint16_t tid = 0;   ///< target-program thread id
  AccessKind kind = AccessKind::kRead;
  std::uint8_t flags = 0;

  bool is_read() const { return kind == AccessKind::kRead; }
  bool is_write() const { return kind == AccessKind::kWrite; }
  bool is_free() const { return kind == AccessKind::kFree; }
  bool is_burst_mark() const { return kind == AccessKind::kBurstMark; }
  SourceLocation location() const { return SourceLocation::from_packed(loc); }
};

static_assert(sizeof(AccessEvent) == 64);  // exactly one cache line

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
