#pragma once
// Instrumentation runtime — the LLVM-pass substitute (see DESIGN.md).
//
// The paper instruments every IR load/store with a call carrying the address
// and source location (Fig. 4).  Here the DP_* macros (macros.hpp) expand to
// calls into this runtime, which assembles full AccessEvents: source
// location, variable name, innermost-loop context, thread id, and (for MT
// targets) a global timestamp, and forwards them to the attached profiler.
//
// The runtime also records runtime control-flow information (Sec. III-A):
// loop entry/exit locations and executed iteration counts, and tracks
// explicit lock regions of MT targets so that an access and its push stay
// atomic (Sec. V, Fig. 4).
//
// When no sink is attached the per-access cost is a single predicted branch,
// so the same workload binary serves as the "native" baseline of the
// slowdown experiments.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/location.hpp"
#include "instrument/dedup.hpp"
#include "trace/call_tree.hpp"
#include "trace/control_flow.hpp"
#include "trace/event.hpp"
#include "trace/event_buffer.hpp"

namespace depprof {

/// Overhead-budget sampling policy for one profiling session (see DESIGN.md
/// "Overhead-budget sampling").  The sampling unit is one iteration of an
/// outermost loop on the recording thread: a profiled unit is observed
/// whole — every inner-loop invocation inside it included — so loop-carried
/// distances stay exact within a burst.  Accesses outside any loop are
/// always profiled.  Disabled entirely in mt_mode (cross-thread gaps would
/// need a global cut, which the per-thread unit cannot provide).
struct SamplingConfig {
  /// Target overhead fraction.  < 1.0 enables the adaptive controller:
  /// profiling cost is measured online from the sink's stage CPU clocks
  /// (AccessSink::profiling_cost_ns) and `skip` is adjusted between bursts
  /// to steer measured overhead toward the target.  >= 1.0 leaves the
  /// schedule fixed.
  double budget = 1.0;
  /// Units profiled per burst (the B of the B-on / K-off cycle).
  unsigned burst = 8;
  /// Units skipped between bursts.  budget >= 1.0 with skip == 0 means
  /// sampling is entirely off: no gate, no markers, byte-identical output.
  unsigned skip = 0;

  bool enabled() const { return skip > 0 || budget < 1.0; }
};

class Runtime {
 public:
  static Runtime& instance();

  /// Attaches the profiler (or trace recorder) receiving events.  `mt_mode`
  /// enables global timestamps for multi-threaded targets.  `dedup` enables
  /// the front-end redundancy-elision cache (instrument/dedup.hpp): exact
  /// repeats of an access are run-length encoded into the outgoing batches
  /// instead of re-buffered.  Ignored in mt_mode, where every event carries
  /// a fresh timestamp the race check depends on.  The depprof CLI wires
  /// this from ProfilerConfig::dedup (default on); the parameter itself
  /// defaults off so recorders and existing harnesses see the verbatim
  /// stream unless they opt in.  `sampling` selects the overhead-budget
  /// burst schedule (also ignored in mt_mode); the default is fully off.
  void attach(AccessSink* sink, bool mt_mode = false, bool dedup = false,
              SamplingConfig sampling = {});

  /// Detaches the sink and calls its finish().  Control-flow data remains
  /// readable until the next attach().
  void detach();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // --- access events (out-of-line slow path of the macros) --------------

  void record(const void* addr, std::size_t size, std::uint32_t file,
              std::uint32_t line, std::uint32_t var, bool is_write);

  /// Variable-lifetime event (Sec. III-B): `size` bytes at `addr` became
  /// obsolete; their signature slots are cleared at word granularity.
  void record_free(const void* addr, std::size_t size);

  // --- control flow ------------------------------------------------------

  /// Loop entry at file:line.  Loops are identified by their entry
  /// location; each dynamic entry is interned as a fresh NestForest node
  /// under the thread's current innermost entry, and the observed
  /// parent->child nesting edge is recorded for the control-flow nest tree.
  void loop_begin(std::uint32_t file, std::uint32_t line);
  /// One iteration boundary of the innermost active loop of this thread.
  /// Ignored (and counted as stray) when the thread's loop stack is empty —
  /// a thread created inside a loop body sees its enclosing markers from
  /// the parent thread only.
  void loop_iter();
  /// Loop exit at file:line for the innermost active loop.  Ignored (and
  /// counted as stray) on an empty per-thread loop stack.
  void loop_end(std::uint32_t file, std::uint32_t line);

  /// Function entry/exit (DP_FUNCTION guard).  Builds the dynamic call tree
  /// consumed by the Sec. VIII framework's execution-tree representation.
  void func_enter(std::uint32_t file, std::uint32_t line, std::uint32_t name_id);
  void func_exit();

  /// Call tree of the current (or last detached) session.
  CallTree call_tree() const;

  // --- lock regions (MT targets, Sec. V) ---------------------------------

  void lock_enter();
  void lock_exit();

  /// Implicit synchronization point (thread create/join, barrier): the
  /// calling thread's buffered accesses are pushed so that accesses ordered
  /// by the synchronization also arrive at the workers in order.  This is
  /// the "implicit synchronization patterns" support the paper sketches at
  /// the end of Sec. V-A.
  void sync_point();

  // --- analysis hints -----------------------------------------------------

  /// Marks file:line as a reduction update (x = x op e).  The paper's LLVM
  /// pass recognises the instruction pattern; at source level the workload
  /// marks the line.  The Sec. VII-A analysis ignores self-carried RAW
  /// dependences on marked lines.
  void mark_reduction(std::uint32_t file, std::uint32_t line);

  /// Packed locations of all marked reduction lines.
  std::vector<std::uint32_t> reduction_lines() const;

  // --- bookkeeping --------------------------------------------------------

  /// Thread id of the calling target thread (assigned on first use; the
  /// first registering thread of an epoch gets id 0).
  std::uint16_t thread_id();

  /// Binds the calling thread to an explicit id for the current epoch.
  /// Workloads with a meaningful thread numbering (e.g. spatial blocks in
  /// water-spatial) call this so that dependence endpoints and the Fig. 9
  /// communication axes reflect that numbering instead of first-touch order.
  void bind_thread_id(std::uint16_t tid);

  /// Control-flow log of the current (or last detached) session.
  ControlFlowLog control_flow() const;

  /// Clears control flow, timestamps, and thread-id assignment.  Must not be
  /// called while a sink is attached.
  void reset();

  /// Test hook: reset() with the next MT timestamp at `next_ts`, so the
  /// 48-bit timestamp bound can be exercised without 2^48 accesses.
  struct StartAt {
    std::uint64_t next_ts;
  };
  void reset(StartAt start);

 private:
  Runtime() = default;

  struct ActiveLoop {
    std::uint32_t loop_id = 0;
    std::uint32_t node = 0;  ///< interned NestForest entry of this execution
    std::uint32_t iter = 0;
  };

  struct ThreadState {
    std::uint64_t epoch = ~0ull;
    std::uint16_t tid = 0;
    int lock_depth = 0;
    bool registered = false;
    std::vector<ActiveLoop> loop_stack;
    /// What record() stamps into AccessEvent::ctx / ::iter, kept in step
    /// with loop_stack by the loop hooks (set_cursor).
    std::uint32_t ctx = 0;
    std::uint32_t iter = 0;
    std::vector<std::uint32_t> call_stack;  // CallTree node indices
    /// Per-thread chunk buffer: events accumulate here and flush through
    /// AccessSink::on_batch — the same chunk path trace replay uses.
    EventBuffer buffer;
    /// Front-end dedup cache over the buffered records.  Invalidated (O(1)
    /// generation bump) at every flush point — buffer flush/discard, loop
    /// begin/iter/end, lock and sync boundaries — and per-word by
    /// record_free for the freed span.
    DedupCache cache;
    // --- overhead-budget sampling (see SamplingConfig) -------------------
    /// Session (attach) these thread-owned fields belong to.  Only the
    /// owning thread writes unit_pos, unit_off, the ctl_* fields and the
    /// dedup cache: it resets them itself at its first hook of a new
    /// session (own_session), because the loop hooks use them outside any
    /// SinkUse window, where attach()/detach() could not order a reset.
    std::uint64_t session = 0;
    unsigned unit_pos = 0;    ///< index of the next unit within the B+K cycle
    bool unit_off = false;    ///< current unit is being skipped
    bool pending_gap = false;  ///< >=1 event dropped since the last kept one
    std::uint64_t sampled_out = 0;  ///< accesses dropped by the gate
    std::uint64_t gaps_closed = 0;  ///< burst markers emitted
    // Adaptive-controller state, sampled at each cycle boundary.
    std::uint64_t ctl_wall_ns = 0;
    std::uint64_t ctl_cost_ns = 0;
    double ctl_ewma = 0.0;  ///< smoothed overhead estimate (0 = no sample yet)
    /// True while the owning thread is inside a record/flush critical
    /// section using the attached sink.  attach()/detach() swap the sink
    /// pointer first and then wait for every registered thread's flag to
    /// clear, so a thread that passed the enabled() check can never reach
    /// the sink (or its own buffer) concurrently with the swap-side flush.
    std::atomic<bool> in_flight{false};
    ~ThreadState();
  };

  /// RAII sink snapshot for the record-side critical sections.  Raises the
  /// thread's in_flight flag, then snapshots the sink exactly once; sink()
  /// is nullptr when the profiler detached after the caller's enabled()
  /// check, in which case the flag is already released and the caller must
  /// bail out without touching its buffer.
  class SinkUse {
   public:
    SinkUse(Runtime& rt, ThreadState& ts) : ts_(&ts) {
      // seq_cst store/load pair with the seq_cst sink swap in attach/detach:
      // either this use sees the swapped pointer, or the swapper sees the
      // raised flag and waits for release().
      ts_->in_flight.store(true, std::memory_order_seq_cst);
      sink_ = rt.sink_.load(std::memory_order_seq_cst);
      if (sink_ == nullptr) release();
    }
    ~SinkUse() { release(); }
    SinkUse(const SinkUse&) = delete;
    SinkUse& operator=(const SinkUse&) = delete;
    AccessSink* sink() const { return sink_; }

   private:
    void release() {
      if (ts_ != nullptr) {
        ts_->in_flight.store(false, std::memory_order_release);
        ts_ = nullptr;
      }
    }
    ThreadState* ts_;
    AccessSink* sink_ = nullptr;
  };

  ThreadState& thread_state();
  void forget_thread(ThreadState& state);
  /// Resets the thread-owned sampling state and dedup cache of `ts` when a
  /// new session began since its last hook (see ThreadState::session).
  void own_session(ThreadState& ts) {
    const std::uint64_t session = session_.load(std::memory_order_acquire);
    if (ts.session != session) start_session(ts, session);
  }
  void start_session(ThreadState& ts, std::uint64_t session);
  /// Points the thread's ctx/iter cursor at the top of its loop stack.
  static void set_cursor(ThreadState& ts);
  /// Next MT timestamp; throws std::length_error once the 48-bit event
  /// field is exhausted rather than wrap.
  std::uint64_t next_timestamp();
  /// Starts the next sampling unit on `ts`: decides whether it is profiled
  /// or skipped, and runs the adaptive controller at each cycle boundary.
  void begin_unit(ThreadState& ts);
  /// Adaptive feedback step: measures the overhead of the finished cycle
  /// from the sink's stage CPU clocks and retunes the skip count.
  void controller_tick(ThreadState& ts, unsigned burst);
  /// Emits the kBurstMark that closes a sampling gap, before the first kept
  /// event after it reaches the buffer.
  void close_gap(ThreadState& ts, AccessSink& sink);
  /// Spins until no registered thread is inside a SinkUse section.  Caller
  /// holds buffers_mu_ and has already swapped sink_, so no new section can
  /// observe the old sink.  Threads inside a section never block on
  /// buffers_mu_ (registration happens before the flag is raised), so the
  /// wait is bounded by one in-flight record per thread.
  void drain_in_flight_locked();

  std::atomic<bool> enabled_{false};
  std::atomic<AccessSink*> sink_{nullptr};
  std::atomic<bool> mt_mode_{false};
  std::atomic<bool> dedup_{false};
  std::atomic<bool> sampling_on_{false};
  std::atomic<bool> adaptive_{false};
  std::atomic<unsigned> sampling_burst_{8};
  std::atomic<unsigned> sampling_skip_{0};  ///< retuned live by the controller
  double budget_target_ = 1.0;  ///< written at attach only
  /// Latest controller overhead estimate, parts per million.
  std::atomic<std::uint64_t> measured_overhead_ppm_{0};
  /// Gate/marker counters of threads that exited mid-session.
  std::atomic<std::uint64_t> exited_sampled_out_{0};
  std::atomic<std::uint64_t> exited_gaps_closed_{0};
  std::atomic<std::uint64_t> timestamp_{1};
  std::atomic<std::uint64_t> epoch_{1};
  /// Bumped by every attach(); see ThreadState::session.
  std::atomic<std::uint64_t> session_{1};
  std::atomic<std::uint16_t> next_tid_{0};

  /// Guards the live-thread registry so attach/detach can discard or flush
  /// every thread's buffered events.
  std::mutex buffers_mu_;
  std::vector<ThreadState*> threads_;

  mutable std::mutex cf_mu_;
  std::unordered_map<std::uint32_t, LoopRecord> loops_;  // keyed by entry loc
  /// Observed nesting edges, keyed by (parent loop id << 32 | child loop id).
  std::unordered_map<std::uint64_t, std::uint64_t> nest_edges_;
  std::uint64_t stray_iters_ = 0;
  std::uint64_t stray_ends_ = 0;
  std::vector<std::uint32_t> reduction_lines_;
  CallTree call_tree_;
};

}  // namespace depprof
