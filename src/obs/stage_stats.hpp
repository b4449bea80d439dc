#pragma once
// Per-stage observability counters for the profiler pipeline.
//
// The Fig. 2 pipeline is a chain of stages — produce (chunk batching on the
// target threads), route (address ownership + load balancing), detect (one
// Algorithm 1 instance per worker), merge (folding the worker-local maps
// into the global one).  Each stage instance owns one cache-line-padded
// block of monotonic counters so that the hot path never shares a line with
// another stage and a concurrent snapshot never tears a stage in half.
//
// All mutation is relaxed-atomic: the counters are statistics, not
// synchronization.  Counters only ever increase (high-water marks included),
// so any two snapshots of a live pipeline are ordered component-wise — the
// monotonicity property obs_test asserts.
//
// Clock domains (see common/timer.hpp): busy_ns, idle_ns, parked_ns, and
// block_ns are wall-clock on the owning thread, so busy/idle/parked ratios
// are internally consistent; cpu_ns and idle_cpu_ns are CLOCK_THREAD_CPUTIME
// on the same intervals — cpu_ns feeds the simulated parallel time (it
// excludes preemption and parked sleep), idle_cpu_ns is the CPU a wait
// strategy burned while the stage had no input (the oversubscription metric
// of bench/ablation_waitstrategy).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace depprof::obs {

/// One cache-line-padded block of monotonic counters for a stage instance.
struct alignas(64) StageStats {
  std::atomic<std::uint64_t> events{0};   ///< accesses through the stage
  std::atomic<std::uint64_t> chunks{0};   ///< chunks/batches through the stage
  std::atomic<std::uint64_t> stalls{0};   ///< queue-full push retries
  std::atomic<std::uint64_t> queue_depth_hwm{0};  ///< most chunks ever queued
  std::atomic<std::uint64_t> busy_ns{0};  ///< wall time spent processing input
  std::atomic<std::uint64_t> cpu_ns{0};   ///< thread-CPU time spent processing
  std::atomic<std::uint64_t> idle_ns{0};  ///< wall time spent waiting for input
  std::atomic<std::uint64_t> idle_cpu_ns{0};  ///< thread-CPU burned while waiting
  std::atomic<std::uint64_t> parked_ns{0};  ///< wall time blocked in the OS
  std::atomic<std::uint64_t> parks{0};      ///< blocking episodes (eventcount waits)
  std::atomic<std::uint64_t> block_ns{0};  ///< wall time blocked on backpressure
  std::atomic<std::uint64_t> wakes{0};     ///< wakeups this stage delivered to peers
  std::atomic<std::uint64_t> migrations{0};  ///< addresses rerouted (route stage)
  std::atomic<std::uint64_t> rounds{0};      ///< redistribution rounds (route stage)
  std::atomic<std::uint64_t> prefetches{0};      ///< slot prefetches issued K ahead (detect)
  std::atomic<std::uint64_t> events_deduped{0};  ///< accesses elided as exact repeats (produce)
  std::atomic<std::uint64_t> bytes_on_wire{0};   ///< chunk payload bytes actually queued (produce)
  std::atomic<std::uint64_t> events_sampled_out{0};  ///< accesses dropped by the sampling gate (produce)
  std::atomic<std::uint64_t> bursts{0};              ///< sampling gaps closed by a burst marker (produce)
  std::atomic<std::uint64_t> sampled_overhead_ppm{0};  ///< controller's measured overhead, parts per million (produce, hwm)
  std::atomic<std::uint64_t> races_confirmed{0};       ///< merged keys with a timestamp reversal (produce, published at finish)
  std::atomic<std::uint64_t> races_unconfirmed{0};     ///< cross-thread candidate keys, no reversal (produce, published at finish)
  std::atomic<std::uint64_t> races_lock_suppressed{0}; ///< candidate keys fully inside lock regions (produce, published at finish)
  std::atomic<std::uint64_t> resident_pages{0};        ///< paged-store leaf pages resident (detect, published at finish)
  std::atomic<std::uint64_t> hugepage_fallbacks{0};    ///< huge allocs degraded to operator new (produce, published at finish)

  void add_events(std::uint64_t n) { events.fetch_add(n, std::memory_order_relaxed); }
  void add_chunks(std::uint64_t n) { chunks.fetch_add(n, std::memory_order_relaxed); }
  void add_stalls(std::uint64_t n) { stalls.fetch_add(n, std::memory_order_relaxed); }
  void add_busy_ns(std::uint64_t n) { busy_ns.fetch_add(n, std::memory_order_relaxed); }
  void add_cpu_ns(std::uint64_t n) { cpu_ns.fetch_add(n, std::memory_order_relaxed); }
  void add_idle_ns(std::uint64_t n) { idle_ns.fetch_add(n, std::memory_order_relaxed); }
  void add_idle_cpu_ns(std::uint64_t n) { idle_cpu_ns.fetch_add(n, std::memory_order_relaxed); }
  void add_parked_ns(std::uint64_t n) { parked_ns.fetch_add(n, std::memory_order_relaxed); }
  void add_parks(std::uint64_t n) { parks.fetch_add(n, std::memory_order_relaxed); }
  void add_block_ns(std::uint64_t n) { block_ns.fetch_add(n, std::memory_order_relaxed); }
  void add_wakes(std::uint64_t n) {
    if (n != 0) wakes.fetch_add(n, std::memory_order_relaxed);
  }
  void add_migrations(std::uint64_t n) { migrations.fetch_add(n, std::memory_order_relaxed); }
  void add_rounds(std::uint64_t n) { rounds.fetch_add(n, std::memory_order_relaxed); }
  void add_prefetches(std::uint64_t n) { prefetches.fetch_add(n, std::memory_order_relaxed); }
  void add_events_deduped(std::uint64_t n) { events_deduped.fetch_add(n, std::memory_order_relaxed); }
  void add_bytes_on_wire(std::uint64_t n) { bytes_on_wire.fetch_add(n, std::memory_order_relaxed); }
  void add_events_sampled_out(std::uint64_t n) { events_sampled_out.fetch_add(n, std::memory_order_relaxed); }
  void add_bursts(std::uint64_t n) { bursts.fetch_add(n, std::memory_order_relaxed); }
  void add_races_confirmed(std::uint64_t n) { races_confirmed.fetch_add(n, std::memory_order_relaxed); }
  void add_races_unconfirmed(std::uint64_t n) { races_unconfirmed.fetch_add(n, std::memory_order_relaxed); }
  void add_races_lock_suppressed(std::uint64_t n) { races_lock_suppressed.fetch_add(n, std::memory_order_relaxed); }
  void add_resident_pages(std::uint64_t n) { resident_pages.fetch_add(n, std::memory_order_relaxed); }
  void add_hugepage_fallbacks(std::uint64_t n) { hugepage_fallbacks.fetch_add(n, std::memory_order_relaxed); }

  /// Latches the controller's latest overhead estimate, keeping the counter
  /// monotone (obs_test's snapshot-ordering property) by only raising it.
  void raise_sampled_overhead_ppm(std::uint64_t ppm) {
    std::uint64_t cur = sampled_overhead_ppm.load(std::memory_order_relaxed);
    while (ppm > cur &&
           !sampled_overhead_ppm.compare_exchange_weak(
               cur, ppm, std::memory_order_relaxed)) {
    }
  }

  /// Raises the queue-depth high-water mark to `depth` if it is higher.
  void raise_queue_depth(std::uint64_t depth) {
    std::uint64_t cur = queue_depth_hwm.load(std::memory_order_relaxed);
    while (depth > cur &&
           !queue_depth_hwm.compare_exchange_weak(cur, depth,
                                                  std::memory_order_relaxed)) {
    }
  }
};

static_assert(sizeof(StageStats) == 256,
              "whole cache lines only: no stage shares a line with another");

/// Plain-data copy of one stage's counters at a point in time.
struct StageSnapshot {
  std::string stage;  ///< "produce", "route", "detect[i]", "merge"
  std::uint64_t events = 0;
  std::uint64_t chunks = 0;
  std::uint64_t stalls = 0;
  std::uint64_t queue_depth_hwm = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t idle_cpu_ns = 0;
  std::uint64_t parked_ns = 0;
  std::uint64_t parks = 0;
  std::uint64_t block_ns = 0;
  std::uint64_t wakes = 0;
  std::uint64_t migrations = 0;
  std::uint64_t rounds = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t events_deduped = 0;
  std::uint64_t bytes_on_wire = 0;
  /// Always 0: chunks carry raw events, so no record ever escapes.  Kept
  /// for readers of the snapshot that still derive an escape ratio.
  std::uint64_t pack_escapes = 0;
  std::uint64_t events_sampled_out = 0;
  std::uint64_t bursts = 0;
  std::uint64_t sampled_overhead_ppm = 0;
  std::uint64_t races_confirmed = 0;
  std::uint64_t races_unconfirmed = 0;
  std::uint64_t races_lock_suppressed = 0;
  std::uint64_t resident_pages = 0;
  std::uint64_t hugepage_fallbacks = 0;

  double busy_sec() const { return static_cast<double>(busy_ns) * 1e-9; }
  double cpu_sec() const { return static_cast<double>(cpu_ns) * 1e-9; }
  double idle_sec() const { return static_cast<double>(idle_ns) * 1e-9; }
  double idle_cpu_sec() const { return static_cast<double>(idle_cpu_ns) * 1e-9; }
  double parked_sec() const { return static_cast<double>(parked_ns) * 1e-9; }
  double block_sec() const { return static_cast<double>(block_ns) * 1e-9; }
};

/// Point-in-time copy of every stage of one pipeline.
struct PipelineSnapshot {
  std::vector<StageSnapshot> stages;

  bool empty() const { return stages.empty(); }

  const StageSnapshot* find(const std::string& name) const {
    for (const auto& s : stages)
      if (s.stage == name) return &s;
    return nullptr;
  }

  /// Sum of a counter over the detect stages (per-worker Algorithm 1 runs).
  std::uint64_t detect_events() const {
    std::uint64_t sum = 0;
    for (const auto& s : stages)
      if (s.stage.rfind("detect", 0) == 0) sum += s.events;
    return sum;
  }
};

/// Counter blocks for one pipeline instance: produce, route, one detect
/// block per worker, merge.  The serial profiler is the one-worker special
/// case of the same layout, which is what gives ProfilerStats a single
/// well-defined shape for both profilers.
class PipelineObs {
 public:
  explicit PipelineObs(unsigned workers)
      : workers_(workers ? workers : 1),
        detect_(std::make_unique<StageStats[]>(workers_)) {}

  unsigned workers() const { return workers_; }

  StageStats& produce() { return produce_; }
  StageStats& route() { return route_; }
  StageStats& detect(unsigned worker) { return detect_[worker]; }
  StageStats& merge() { return merge_; }

  /// Sum of thread-CPU time across all stages — the profiler's own cost,
  /// cheap enough to probe from the sampling controller between bursts
  /// (AccessSink::profiling_cost_ns).
  std::uint64_t total_cpu_ns() const {
    std::uint64_t ns = produce_.cpu_ns.load(std::memory_order_relaxed) +
                       route_.cpu_ns.load(std::memory_order_relaxed) +
                       merge_.cpu_ns.load(std::memory_order_relaxed);
    for (unsigned w = 0; w < workers_; ++w)
      ns += detect_[w].cpu_ns.load(std::memory_order_relaxed);
    return ns;
  }

  PipelineSnapshot snapshot() const {
    PipelineSnapshot snap;
    snap.stages.reserve(workers_ + 3);
    snap.stages.push_back(read("produce", produce_));
    snap.stages.push_back(read("route", route_));
    for (unsigned w = 0; w < workers_; ++w)
      snap.stages.push_back(read("detect[" + std::to_string(w) + "]", detect_[w]));
    snap.stages.push_back(read("merge", merge_));
    return snap;
  }

 private:
  static StageSnapshot read(std::string name, const StageStats& s) {
    StageSnapshot out;
    out.stage = std::move(name);
    out.events = s.events.load(std::memory_order_relaxed);
    out.chunks = s.chunks.load(std::memory_order_relaxed);
    out.stalls = s.stalls.load(std::memory_order_relaxed);
    out.queue_depth_hwm = s.queue_depth_hwm.load(std::memory_order_relaxed);
    out.busy_ns = s.busy_ns.load(std::memory_order_relaxed);
    out.cpu_ns = s.cpu_ns.load(std::memory_order_relaxed);
    out.idle_ns = s.idle_ns.load(std::memory_order_relaxed);
    out.idle_cpu_ns = s.idle_cpu_ns.load(std::memory_order_relaxed);
    out.parked_ns = s.parked_ns.load(std::memory_order_relaxed);
    out.parks = s.parks.load(std::memory_order_relaxed);
    out.block_ns = s.block_ns.load(std::memory_order_relaxed);
    out.wakes = s.wakes.load(std::memory_order_relaxed);
    out.migrations = s.migrations.load(std::memory_order_relaxed);
    out.rounds = s.rounds.load(std::memory_order_relaxed);
    out.prefetches = s.prefetches.load(std::memory_order_relaxed);
    out.events_deduped = s.events_deduped.load(std::memory_order_relaxed);
    out.bytes_on_wire = s.bytes_on_wire.load(std::memory_order_relaxed);
    out.events_sampled_out =
        s.events_sampled_out.load(std::memory_order_relaxed);
    out.bursts = s.bursts.load(std::memory_order_relaxed);
    out.sampled_overhead_ppm =
        s.sampled_overhead_ppm.load(std::memory_order_relaxed);
    out.races_confirmed = s.races_confirmed.load(std::memory_order_relaxed);
    out.races_unconfirmed =
        s.races_unconfirmed.load(std::memory_order_relaxed);
    out.races_lock_suppressed =
        s.races_lock_suppressed.load(std::memory_order_relaxed);
    out.resident_pages = s.resident_pages.load(std::memory_order_relaxed);
    out.hugepage_fallbacks =
        s.hugepage_fallbacks.load(std::memory_order_relaxed);
    return out;
  }

  unsigned workers_;
  StageStats produce_;
  StageStats route_;
  std::unique_ptr<StageStats[]> detect_;
  StageStats merge_;
};

}  // namespace depprof::obs
