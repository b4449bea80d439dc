#pragma once
// Profiler configuration and the common profiler interface.
//
// Both the serial profiler (Sec. III) and the parallel pipeline (Sec. IV/V)
// are AccessSinks: the instrumentation runtime (or a trace replay) feeds
// them events; after finish() the merged global dependence map and the run
// statistics are available.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dep.hpp"
#include "obs/stage_stats.hpp"
#include "queue/concurrent_queue.hpp"
#include "queue/wait_strategy.hpp"
#include "sig/signature.hpp"
#include "trace/event.hpp"

namespace depprof {

/// Which access store backs Algorithm 1.
enum class StorageKind {
  kSignature,  ///< fixed-size signature (the paper's design)
  kPerfect,    ///< collision-free baseline (Sec. VI-A)
  kShadow,     ///< multi-level shadow memory baseline (Sec. III-B)
  kHashTable,  ///< chained hash table baseline (Sec. III-B)
  kPacked,     ///< SLAMP-style paged shadow memory, packed 64-bit words
};

const char* storage_kind_name(StorageKind kind);

/// Load-balancing knobs (Sec. IV-A).
struct LoadBalanceConfig {
  bool enabled = false;
  /// Access statistics are updated every 2^sample_shift events (0 = every
  /// access, the paper's configuration).
  unsigned sample_shift = 0;
  /// Evaluate the distribution after this many produced chunks (the paper
  /// re-checks every 50 000 chunks).
  std::size_t eval_interval_chunks = 50'000;
  /// Redistribute when max worker load exceeds this multiple of the mean.
  double imbalance_threshold = 1.25;
  /// How many of the hottest addresses are kept evenly distributed (the
  /// paper balances the top ten).
  unsigned top_k = 10;
  /// Safety cap on redistribution rounds (the paper observes at most 20).
  unsigned max_rounds = 64;
};

struct ProfilerConfig {
  StorageKind storage = StorageKind::kSignature;
  /// Signature slots per signature (each detector has a read and a write
  /// signature of this size).  In the parallel profiler this is per worker;
  /// Fig. 7 uses 6.25e6 slots per thread = 1e8 aggregate over 16 threads.
  std::size_t slots = 1u << 20;
  /// Slot-index function (see sig/signature.hpp); modulo is paper-faithful.
  SigHash sig_hash = SigHash::kModulo;
  /// True for multi-threaded target programs (Sec. V): MtSlot layout,
  /// thread ids in dependence endpoints, timestamp race check.
  bool mt_targets = false;
  /// First-class race mode (Sec. V-B): the run is being profiled *for* its
  /// race report.  Requires mt_targets and forbids sampling — the sampling
  /// subset guarantee covers dependence edges, not race candidates (a
  /// dropped event can hide the reversal that confirms a race), so the
  /// factories refuse the combination (see races_config_ok()).
  bool races = false;

  // Parallel pipeline (ignored by the serial profiler).
  unsigned workers = 8;
  QueueKind queue = QueueKind::kLockFreeSpsc;
  std::size_t chunk_size = 512;          ///< accesses per chunk (<= Chunk capacity)
  std::size_t queue_capacity = 64;       ///< chunks per worker queue
  /// How pipeline threads wait at the three blocking sites (idle workers,
  /// producers facing a full queue, migration-mailbox handoff).  kSpin is
  /// the paper's busy-wait; kPark (default) degrades gracefully when the
  /// host is oversubscribed.  See queue/wait_strategy.hpp.
  WaitKind wait = WaitKind::kPark;
  LoadBalanceConfig load_balance;
  /// Route addresses to workers with the paper's plain modulo (formula 1)
  /// instead of the mixed hash; exercised by the load-balance ablation.
  bool modulo_routing = false;
  /// Front-end redundancy elision: exact repeats of an access (same word,
  /// kind, loc, var, tid, loop context) are run-length encoded before they
  /// enter the profiler (on_batch_rle), so routing handles one record per
  /// run instead of one per instance; runs are expanded back into raw
  /// events when they are staged into chunks or detected, so the queues and
  /// the detect kernel see the full stream.  Map-preserving (see
  /// DESIGN.md "Front-end event reduction"); the flag exists for the
  /// frontend ablation and the depfuzz dedup axis.
  bool dedup = true;
  // Overhead-budget sampling (sequential targets only; see DESIGN.md
  // "Overhead-budget sampling").  The sampling unit is one iteration of an
  // outermost loop: a profiled unit is observed whole, so every inner-loop
  // invocation inside it is profiled end to end and loop-carried distances
  // stay exact within a burst.  Dropped units are bracketed by a
  // kBurstMark event that clears all detection state, which makes the
  // sampled map a provable subset (per non-INIT dependence edge) of the
  // unsampled map.
  /// Target overhead fraction for the adaptive controller: < 1.0 enables
  /// feedback mode (profiling cost measured online from the sink's stage
  /// CPU clocks, the skip count adjusted between bursts).  >= 1.0 with
  /// sampling_skip == 0 means sampling is entirely off — byte-identical
  /// output to an unsampled run.
  double budget = 1.0;
  /// Units profiled per burst (the deterministic B of the B-on / K-off
  /// cycle; also the adaptive controller's burst length).
  unsigned sampling_burst = 8;
  /// Units skipped between bursts.  > 0 selects the deterministic fixed
  /// schedule (budget is then ignored) — the mode the equivalence matrix,
  /// the depfuzz lattice, and bench/sampling sweep.
  unsigned sampling_skip = 0;
  /// Chunks preallocated by the pipeline's pool before the target starts
  /// running (0 = auto: enough for full queues + in-flight + migration).
  /// For sequential targets the pool is *sealed* to this population — an
  /// empty free list blocks for a recycled chunk instead of allocating, so
  /// steady-state profiling never touches the heap the target is mutating
  /// (the root cause of the unpacked cross-attribution flake; see
  /// core/chunk.hpp).  MT targets keep a growable pool, seeded to the same
  /// size.
  std::size_t pool_chunks = 0;
};

/// Post-run statistics.  Both profilers fill every field the same way: the
/// serial profiler is the one-worker case (workers == 1, one busy/events
/// entry, chunks counts delivered batches).  The per-stage `stages` snapshot
/// is the source the scalar fields are derived from (see core/pipeline.hpp).
struct ProfilerStats {
  std::uint64_t events = 0;              ///< accesses processed
  std::uint64_t chunks = 0;              ///< chunks/batches produced
  unsigned workers = 0;                  ///< detect-stage instances
  std::vector<double> worker_busy_sec;   ///< per-worker CPU time spent processing
  std::vector<std::uint64_t> worker_events;  ///< per-worker accesses processed
  double merge_sec = 0.0;                ///< global merge time
  unsigned redistribution_rounds = 0;    ///< load-balancer activity
  std::uint64_t migrated_addresses = 0;
  std::size_t signature_bytes = 0;       ///< aggregate signature footprint
  obs::PipelineSnapshot stages;          ///< per-stage counter snapshot
};

/// Common interface of the serial and parallel profilers.
class IProfiler : public AccessSink {
 public:
  /// Merged global dependences; valid after finish().
  virtual const DepMap& dependences() const = 0;
  /// Moves the merged dependences out (the profiler's map is left empty).
  virtual DepMap take_dependences() = 0;
  virtual ProfilerStats stats() const = 0;
};

/// API-level enforcement of the race-mode preconditions: races needs the MT
/// slot layout (timestamps) and a complete event stream (no sampling).  The
/// profiler factories return nullptr when this is false; the CLI rejects
/// the same combinations with a usage error before ever building a config.
inline bool races_config_ok(const ProfilerConfig& c) {
  if (!c.races) return true;
  const bool sampled = c.budget < 1.0 || c.sampling_skip > 0;
  return c.mt_targets && !sampled;
}

/// Serial profiler (Sec. III): Algorithm 1 on the calling thread.  Its
/// on_access is NOT thread-safe: events must come from a single thread (or
/// a replayed trace).  Multi-threaded targets need the parallel profiler,
/// whose producer side is per-thread.
std::unique_ptr<IProfiler> make_serial_profiler(const ProfilerConfig& config);

/// Parallel profiler (Sec. IV/V): the Fig. 2 pipeline.  Worker threads are
/// spawned on construction and joined by finish().
std::unique_ptr<IProfiler> make_parallel_profiler(const ProfilerConfig& config);

}  // namespace depprof
