#include "instrument/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/timer.hpp"
#include "trace/nest.hpp"

namespace depprof {

Runtime& Runtime::instance() {
  static Runtime rt;
  return rt;
}

Runtime::ThreadState::~ThreadState() {
  Runtime::instance().forget_thread(*this);
}

Runtime::ThreadState& Runtime::thread_state() {
  thread_local ThreadState state;
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (state.epoch != epoch) {
    state.epoch = epoch;
    state.tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    state.lock_depth = 0;
    state.loop_stack.clear();
    state.ctx = NestForest::kRoot;
    state.iter = 0;
    state.call_stack.clear();
    state.buffer.discard();
    state.cache.invalidate_all();
    state.unit_pos = 0;
    state.unit_off = false;
    state.pending_gap = false;
    state.sampled_out = 0;
    state.gaps_closed = 0;
    state.ctl_wall_ns = 0;
    state.ctl_cost_ns = 0;
    state.ctl_ewma = 0.0;
  }
  if (!state.registered) {
    std::lock_guard lock(buffers_mu_);
    threads_.push_back(&state);
    state.registered = true;
  }
  return state;
}

void Runtime::forget_thread(ThreadState& state) {
  std::lock_guard lock(buffers_mu_);
  // A thread exiting mid-session must not drop its tail of buffered events.
  AccessSink* sink = sink_.load(std::memory_order_acquire);
  if (enabled_.load(std::memory_order_acquire) && sink != nullptr)
    state.buffer.flush(*sink);
  state.cache.invalidate_all();
  // A pending gap dies with the thread: no later event of this thread can
  // be attributed across it, so no closing marker is needed — but the gate
  // counters must survive into the session totals.
  exited_sampled_out_.fetch_add(state.sampled_out, std::memory_order_relaxed);
  exited_gaps_closed_.fetch_add(state.gaps_closed, std::memory_order_relaxed);
  state.sampled_out = 0;
  state.gaps_closed = 0;
  state.unit_pos = 0;
  state.unit_off = false;
  state.pending_gap = false;
  threads_.erase(std::remove(threads_.begin(), threads_.end(), &state),
                 threads_.end());
}

void Runtime::start_session(ThreadState& ts, std::uint64_t session) {
  ts.session = session;
  ts.cache.invalidate_all();
  ts.unit_pos = 0;
  ts.unit_off = false;
  ts.ctl_wall_ns = 0;
  ts.ctl_cost_ns = 0;
  ts.ctl_ewma = 0.0;
}

void Runtime::set_cursor(ThreadState& ts) {
  const std::size_t depth = ts.loop_stack.size();
  if (depth == 0) {
    ts.ctx = NestForest::kRoot;
    ts.iter = 0;
    return;
  }
  ts.ctx = ts.loop_stack.back().node;
  ts.iter = ts.loop_stack[std::min(depth, kNestIters) - 1].iter;
}

std::uint64_t Runtime::next_timestamp() {
  const std::uint64_t t = timestamp_.fetch_add(1, std::memory_order_relaxed);
  if (t > kEventFieldMax)
    throw std::length_error("Runtime: 48-bit event timestamp space exhausted");
  return t;
}

void Runtime::drain_in_flight_locked() {
  for (ThreadState* ts : threads_)
    while (ts->in_flight.load(std::memory_order_seq_cst)) {
    }
}

void Runtime::attach(AccessSink* sink, bool mt_mode, bool dedup,
                     SamplingConfig sampling) {
  {
    // Buffers may still hold events of a previous session whose sink is
    // gone; they must not leak into the new one.  Late record() calls of
    // that session must have finished with their buffers before we discard.
    // Only state that the owner touches inside SinkUse windows is reset
    // here; the rest each thread resets itself (own_session).
    std::lock_guard lock(buffers_mu_);
    drain_in_flight_locked();
    for (ThreadState* ts : threads_) {
      ts->buffer.discard();
      ts->pending_gap = false;
      ts->sampled_out = 0;
      ts->gaps_closed = 0;
    }
  }
  // Before the sink is published: a thread that sees the new sink also
  // sees the new session.
  session_.fetch_add(1, std::memory_order_release);
  mt_mode_.store(mt_mode, std::memory_order_relaxed);
  // In mt_mode every event carries a fresh timestamp, so no two events are
  // ever identical — the cache could only miss.  Keep it off entirely.
  dedup_.store(dedup && !mt_mode, std::memory_order_relaxed);
  // Sampling is sequential-target only: a per-thread unit boundary cannot
  // cut an MT trace consistently across threads.
  const bool sample = sampling.enabled() && !mt_mode;
  sampling_on_.store(sample, std::memory_order_relaxed);
  adaptive_.store(sample && sampling.budget < 1.0, std::memory_order_relaxed);
  sampling_burst_.store(std::max(1u, sampling.burst),
                        std::memory_order_relaxed);
  sampling_skip_.store(sample ? sampling.skip : 0, std::memory_order_relaxed);
  budget_target_ = sampling.budget;
  measured_overhead_ppm_.store(0, std::memory_order_relaxed);
  exited_sampled_out_.store(0, std::memory_order_relaxed);
  exited_gaps_closed_.store(0, std::memory_order_relaxed);
  sink_.store(sink, std::memory_order_seq_cst);
  enabled_.store(sink != nullptr, std::memory_order_release);
}

void Runtime::detach() {
  enabled_.store(false, std::memory_order_release);
  // Swap the sink out first: record() snapshots it exactly once, so after
  // the drain below no target thread can still reach the old sink — a
  // thread that passed the enabled() check either saw the swap (and bailed)
  // or raised its in_flight flag before our load of it.
  AccessSink* sink = sink_.exchange(nullptr, std::memory_order_seq_cst);
  std::uint64_t sampled_out = exited_sampled_out_.load(std::memory_order_relaxed);
  std::uint64_t gaps = exited_gaps_closed_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(buffers_mu_);
    drain_in_flight_locked();
    // The flushed buffers' dedup caches go stale; no record can reach
    // them before the next attach, whose session change resets them.
    for (ThreadState* ts : threads_) {
      if (sink != nullptr) ts->buffer.flush(*sink);
      sampled_out += ts->sampled_out;
      gaps += ts->gaps_closed;
      ts->sampled_out = 0;
      ts->gaps_closed = 0;
      ts->pending_gap = false;
    }
  }
  if (sink != nullptr) {
    if (sampling_on_.load(std::memory_order_relaxed))
      sink->on_sampling_stats(
          sampled_out, gaps,
          measured_overhead_ppm_.load(std::memory_order_relaxed));
    sink->finish();
  }
  sampling_on_.store(false, std::memory_order_relaxed);
  adaptive_.store(false, std::memory_order_relaxed);
}

void Runtime::close_gap(ThreadState& ts, AccessSink& sink) {
  ts.pending_gap = false;
  ts.gaps_closed += 1;
  // The marker precedes the first kept event after any drop — whatever that
  // event is, loop-body or root-level.  Without it the kept event would be
  // detected against store state recorded before the gap, which can emit a
  // dependence the unsampled run attributes to a (dropped) later source —
  // an extra key, breaking the subset contract.
  AccessEvent mark;
  mark.kind = AccessKind::kBurstMark;
  mark.tid = ts.tid;
  if (ts.buffer.add(mark)) ts.buffer.flush(sink);
  // The marker clears all detection state downstream, so no post-gap repeat
  // may merge into a pre-gap buffered record.
  ts.cache.invalidate_all();
}

void Runtime::record(const void* addr, std::size_t size, std::uint32_t file,
                     std::uint32_t line, std::uint32_t var, bool is_write) {
  (void)size;
  ThreadState& ts = thread_state();
  SinkUse use(*this, ts);
  if (use.sink() == nullptr) return;  // detached after the enabled() check
  own_session(ts);
  // The gap counters are reset by attach()/detach() from another thread;
  // inside the SinkUse window their in-flight drain orders those resets
  // against this access.
  if (ts.unit_off && !ts.loop_stack.empty()) {
    // Inside a skipped sampling unit: drop without touching the sink.
    ts.sampled_out += 1;
    ts.pending_gap = true;
    return;
  }
  if (ts.pending_gap) close_gap(ts, *use.sink());
  const auto byte_addr = reinterpret_cast<std::uintptr_t>(addr);
  if (byte_addr > kEventFieldMax)
    throw std::length_error("Runtime: address beyond the 48-bit event field");
  // Assembled in registers and stored once, straight into the buffer's
  // next slot (no staging copy); a dedup hit stores nothing.
  AccessEvent ev;
  ev.addr = byte_addr;
  ev.kind = is_write ? AccessKind::kWrite : AccessKind::kRead;
  ev.flags = ts.lock_depth > 0 ? kInLockRegion : 0;
  ev.ts = mt_mode_.load(std::memory_order_relaxed) ? next_timestamp() : 0;
  ev.tid = ts.tid;
  ev.loc = SourceLocation(file, line).packed();
  ev.var = var;
  ev.ctx = ts.ctx;
  ev.iter = ts.iter;
  if (dedup_.load(std::memory_order_relaxed) && dedup_eligible(ev)) {
    // Front-end redundancy elision: an exact repeat of the most recent
    // buffered access to this word only bumps that record's rep counter.
    const std::uint64_t w = word_addr(ev.addr);
    const std::uint32_t idx = ts.cache.find(w);
    if (idx != DedupCache::kNoIndex &&
        same_access_identity(ts.buffer.at(idx), ev) && ts.buffer.bump_rep(idx))
      return;
    if (ts.buffer.add(ev)) {
      ts.buffer.flush(*use.sink());
      ts.cache.invalidate_all();
    } else {
      ts.cache.put(w, static_cast<std::uint32_t>(ts.buffer.size() - 1));
    }
    return;
  }
  const bool full = ts.buffer.add(ev);
  // Inside a lock region the access and its push must stay atomic (Fig. 4):
  // deliver immediately so no other thread can enter the region and push a
  // conflicting access first.
  if (full || ts.lock_depth > 0) {
    ts.buffer.flush(*use.sink());
    ts.cache.invalidate_all();
  }
}

void Runtime::record_free(const void* addr, std::size_t size) {
  ThreadState& ts = thread_state();
  SinkUse use(*this, ts);
  if (use.sink() == nullptr) return;  // detached after the enabled() check
  own_session(ts);
  if (ts.unit_off && !ts.loop_stack.empty()) {
    // A free inside a skipped unit is dropped like any other event (inside
    // the SinkUse window, as in record()): the burst marker that closes the
    // gap clears strictly more state than the free would have, so the
    // subset contract is unaffected.
    ts.sampled_out += 1;
    ts.pending_gap = true;
    return;
  }
  if (ts.pending_gap) close_gap(ts, *use.sink());
  const auto base = reinterpret_cast<std::uintptr_t>(addr);
  if (size > 0 && base + (size - 1) > kEventFieldMax)
    throw std::length_error("Runtime: address beyond the 48-bit event field");
  // One lifetime event per 4-byte word overlapped by [base, base+size),
  // matching the signature's address granularity (hash_address discards the
  // low two bits).  The span is derived from word(base)..word(base+size-1):
  // an unaligned base straddles one more word than size/4 suggests, and a
  // final word left in the signatures would fabricate dependences when the
  // heap reuses the memory.
  const std::uint64_t first = word_addr(base);
  const std::uint64_t last = word_addr(base + (size > 0 ? size - 1 : 0));
  const bool mt = mt_mode_.load(std::memory_order_relaxed);
  for (std::uint64_t w = first; w <= last; ++w) {
    // Lifetime boundary: a cached access to this word must not absorb a
    // repeat recorded after the heap recycles the memory — the repeat is a
    // fresh INIT, not another instance of the dead variable's access.
    ts.cache.invalidate_word(w);
    AccessEvent ev;
    ev.addr = w << 2;
    ev.kind = AccessKind::kFree;
    ev.tid = ts.tid;
    if (mt) ev.ts = next_timestamp();
    // A free inside a lock region needs the same treatment as an access
    // (Fig. 4): flag it so the parallel producer keeps it on the in-order
    // immediate path, and push before the target can release the lock.
    // Without both, a lock-protected free travels the chunked path while
    // the accesses around it take the immediate one, and another thread's
    // post-free access can reach the detector before the free clears the
    // word — fabricating a dependence on the dead lifetime.
    if (ts.lock_depth > 0) ev.flags |= kInLockRegion;
    if (ts.buffer.add(ev) || ts.lock_depth > 0) {
      ts.buffer.flush(*use.sink());
      ts.cache.invalidate_all();
    }
  }
}

void Runtime::begin_unit(ThreadState& ts) {
  const unsigned burst = sampling_burst_.load(std::memory_order_relaxed);
  // Cycle boundary: the finished B+K cycle is the controller's feedback
  // granularity (adaptive mode retunes the skip count here).
  if (ts.unit_pos == 0 && adaptive_.load(std::memory_order_relaxed))
    controller_tick(ts, burst);
  const unsigned skip = sampling_skip_.load(std::memory_order_relaxed);
  ts.unit_off = ts.unit_pos >= burst;
  ts.unit_pos += 1;
  if (ts.unit_pos >= burst + skip) ts.unit_pos = 0;
}

void Runtime::controller_tick(ThreadState& ts, unsigned burst) {
  AccessSink* sink = sink_.load(std::memory_order_acquire);
  if (sink == nullptr) return;
  const std::uint64_t now = WallTimer::now();
  const std::uint64_t cost = sink->profiling_cost_ns();
  if (ts.ctl_wall_ns != 0 && now > ts.ctl_wall_ns && cost >= ts.ctl_cost_ns) {
    const std::uint64_t dwall = now - ts.ctl_wall_ns;
    const std::uint64_t dcost = cost - ts.ctl_cost_ns;
    if (dwall > dcost) {
      // Overhead of the finished cycle: profiling CPU over everything else
      // (target work + skipped units), o = Δcost / (Δwall − Δcost).
      const double o = static_cast<double>(dcost) /
                       static_cast<double>(dwall - dcost);
      ts.ctl_ewma = ts.ctl_ewma == 0.0 ? o : 0.5 * ts.ctl_ewma + 0.5 * o;
      measured_overhead_ppm_.store(
          static_cast<std::uint64_t>(ts.ctl_ewma * 1e6),
          std::memory_order_relaxed);
      // Overhead scales with the duty cycle d = B/(B+K): steering measured
      // overhead o toward the budget b means d_new = d * b / o, i.e.
      // K_new = B/d_new - B, clamped to a sane skip range.
      const unsigned skip = sampling_skip_.load(std::memory_order_relaxed);
      const double duty =
          static_cast<double>(burst) / static_cast<double>(burst + skip);
      double d_new = ts.ctl_ewma > 1e-12
                         ? duty * budget_target_ / ts.ctl_ewma
                         : 1.0;
      if (d_new > 1.0) d_new = 1.0;
      const double k_raw =
          static_cast<double>(burst) / d_new - static_cast<double>(burst);
      long k_new = std::lround(k_raw);
      if (k_new < 0) k_new = 0;
      if (k_new > 1024) k_new = 1024;
      sampling_skip_.store(static_cast<unsigned>(k_new),
                           std::memory_order_relaxed);
    }
  }
  ts.ctl_wall_ns = now;
  ts.ctl_cost_ns = cost;
}

void Runtime::loop_begin(std::uint32_t file, std::uint32_t line) {
  ThreadState& ts = thread_state();
  own_session(ts);
  ts.cache.invalidate_all();  // dedup never crosses a loop-context change
  // A fresh outermost-loop invocation starts a new sampling unit.
  if (ts.loop_stack.empty() && sampling_on_.load(std::memory_order_relaxed))
    begin_unit(ts);
  const std::uint32_t loc = SourceLocation(file, line).packed();
  const std::uint32_t parent_node =
      ts.loop_stack.empty() ? NestForest::kRoot : ts.loop_stack.back().node;
  const std::uint32_t parent_loop =
      ts.loop_stack.empty() ? 0 : ts.loop_stack.back().loop_id;
  const std::uint32_t parent_iter =
      ts.loop_stack.empty() ? 0 : ts.loop_stack.back().iter;
  const std::uint32_t node = nest_forest().enter(parent_node, loc, parent_iter);
  ts.loop_stack.push_back({loc, node, 0});
  set_cursor(ts);
  std::lock_guard lock(cf_mu_);
  auto [it, inserted] = loops_.try_emplace(loc);
  if (inserted) {
    it->second.loop_id = loc;
    it->second.begin_loc = loc;
  }
  it->second.entries += 1;
  nest_edges_[(static_cast<std::uint64_t>(parent_loop) << 32) | loc] += 1;
}

void Runtime::loop_iter() {
  ThreadState& ts = thread_state();
  own_session(ts);
  ts.cache.invalidate_all();  // dedup never crosses an iteration advance
  if (ts.loop_stack.empty()) {
    // A thread entering mid-loop (MT targets) sees iteration markers of a
    // loop its own stack never opened; advancing nothing is the only safe
    // interpretation.  Counted so the harness can surface the mismatch.
    std::lock_guard lock(cf_mu_);
    stray_iters_ += 1;
    return;
  }
  // An outermost-loop iteration boundary ends one sampling unit and starts
  // the next (inner-loop iterations stay inside the enclosing unit).
  if (ts.loop_stack.size() == 1 &&
      sampling_on_.load(std::memory_order_relaxed))
    begin_unit(ts);
  ts.loop_stack.back().iter += 1;
  set_cursor(ts);
}

void Runtime::loop_end(std::uint32_t file, std::uint32_t line) {
  ThreadState& ts = thread_state();
  own_session(ts);
  ts.cache.invalidate_all();  // dedup never crosses a loop-context change
  if (ts.loop_stack.empty()) {
    // Mid-loop thread (see loop_iter): there is no frame to pop, and
    // popping another loop's frame would corrupt the thread's nest cursor.
    std::lock_guard lock(cf_mu_);
    stray_ends_ += 1;
    return;
  }
  const ActiveLoop top = ts.loop_stack.back();
  ts.loop_stack.pop_back();
  set_cursor(ts);
  // Leaving the outermost loop ends the current sampling unit; code outside
  // any loop is always profiled (the gate additionally requires a nonempty
  // stack, so a stale unit_off could never drop root-level events — this
  // just keeps the flag honest).
  if (ts.loop_stack.empty()) ts.unit_off = false;
  std::lock_guard lock(cf_mu_);
  auto it = loops_.find(top.loop_id);
  if (it != loops_.end()) {
    it->second.end_loc = SourceLocation(file, line).packed();
    it->second.iterations += top.iter;
  }
}

void Runtime::func_enter(std::uint32_t file, std::uint32_t line,
                         std::uint32_t name_id) {
  ThreadState& ts = thread_state();
  const std::uint32_t loc = SourceLocation(file, line).packed();
  std::lock_guard lock(cf_mu_);
  const std::uint32_t parent =
      ts.call_stack.empty() ? CallTree::kRoot : ts.call_stack.back();
  const std::uint32_t node = call_tree_.child_of(parent, loc, name_id);
  call_tree_.node(node).calls += 1;
  ts.call_stack.push_back(node);
}

void Runtime::func_exit() {
  ThreadState& ts = thread_state();
  if (!ts.call_stack.empty()) ts.call_stack.pop_back();
}

CallTree Runtime::call_tree() const {
  std::lock_guard lock(cf_mu_);
  return call_tree_;
}

void Runtime::sync_point() {
  ThreadState& ts = thread_state();
  SinkUse use(*this, ts);
  if (AccessSink* sink = use.sink()) {
    own_session(ts);
    ts.buffer.flush(*sink);
    ts.cache.invalidate_all();
    sink->on_unlock(ts.tid);
  }
}

void Runtime::lock_enter() { thread_state().lock_depth += 1; }

void Runtime::lock_exit() {
  ThreadState& ts = thread_state();
  if (ts.lock_depth > 0) ts.lock_depth -= 1;
  if (ts.lock_depth != 0) return;
  // Push buffered accesses before the target releases the lock (Fig. 4).
  SinkUse use(*this, ts);
  if (AccessSink* sink = use.sink()) {
    own_session(ts);
    ts.buffer.flush(*sink);
    ts.cache.invalidate_all();
    sink->on_unlock(ts.tid);
  }
}

std::uint16_t Runtime::thread_id() { return thread_state().tid; }

void Runtime::bind_thread_id(std::uint16_t tid) {
  ThreadState& ts = thread_state();
  ts.tid = tid;
  // Keep the automatic counter ahead of explicit bindings so later
  // first-touch threads do not collide with them.
  std::uint16_t next = next_tid_.load(std::memory_order_relaxed);
  while (next <= tid &&
         !next_tid_.compare_exchange_weak(next, static_cast<std::uint16_t>(tid + 1),
                                          std::memory_order_relaxed)) {
  }
}

void Runtime::mark_reduction(std::uint32_t file, std::uint32_t line) {
  const std::uint32_t loc = SourceLocation(file, line).packed();
  std::lock_guard lock(cf_mu_);
  if (std::find(reduction_lines_.begin(), reduction_lines_.end(), loc) ==
      reduction_lines_.end())
    reduction_lines_.push_back(loc);
}

std::vector<std::uint32_t> Runtime::reduction_lines() const {
  std::lock_guard lock(cf_mu_);
  return reduction_lines_;
}

ControlFlowLog Runtime::control_flow() const {
  ControlFlowLog log;
  std::lock_guard lock(cf_mu_);
  log.loops.reserve(loops_.size());
  for (const auto& [loc, rec] : loops_) log.loops.push_back(rec);
  std::sort(log.loops.begin(), log.loops.end(),
            [](const LoopRecord& a, const LoopRecord& b) {
              return a.begin_loc < b.begin_loc;
            });
  log.edges.reserve(nest_edges_.size());
  for (const auto& [key, count] : nest_edges_)
    log.edges.push_back({static_cast<std::uint32_t>(key >> 32),
                         static_cast<std::uint32_t>(key), count});
  std::sort(log.edges.begin(), log.edges.end(),
            [](const NestEdge& a, const NestEdge& b) {
              return a.parent_loop != b.parent_loop
                         ? a.parent_loop < b.parent_loop
                         : a.child_loop < b.child_loop;
            });
  log.stray_iters = stray_iters_;
  log.stray_ends = stray_ends_;
  return log;
}

void Runtime::reset() { reset(StartAt{1}); }

void Runtime::reset(StartAt start) {
  std::lock_guard lock(cf_mu_);
  loops_.clear();
  nest_edges_.clear();
  stray_iters_ = 0;
  stray_ends_ = 0;
  reduction_lines_.clear();
  call_tree_.clear();
  timestamp_.store(start.next_ts, std::memory_order_relaxed);
  next_tid_.store(0, std::memory_order_relaxed);
  // The nest forest is deliberately NOT cleared: it is append-only and
  // process-wide, so context ids inside recorded traces stay valid across
  // sessions (trace/nest.hpp).
  epoch_.fetch_add(1, std::memory_order_release);
}

}  // namespace depprof
