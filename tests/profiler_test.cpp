// Integration tests of the serial profiler and the parallel pipeline:
// configuration handling, canonical word granularity, and the central
// soundness property — for sequential targets the parallel profiler
// produces exactly the same dependences as the serial one (Sec. V-A's
// premise), across queue kinds, worker counts, chunk sizes, and with the
// load balancer migrating hot addresses mid-run.

#include <gtest/gtest.h>

#include <tuple>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/hash.hpp"
#include "core/detector.hpp"
#include "core/formatter.hpp"
#include "core/profiler.hpp"
#include "core/store_factory.hpp"
#include "harness/accuracy.hpp"
#include "instrument/dedup.hpp"
#include "oracle/harness.hpp"
#include "queue/queues.hpp"
#include "trace/generators.hpp"
#include "trace/trace.hpp"

namespace depprof {
namespace {

DepMap run_serial(const Trace& t, const ProfilerConfig& cfg) {
  auto p = make_serial_profiler(cfg);
  replay(t, *p);
  return p->take_dependences();
}

DepMap run_parallel(const Trace& t, const ProfilerConfig& cfg) {
  auto p = make_parallel_profiler(cfg);
  replay(t, *p);
  return p->take_dependences();
}

/// Per-event reference: Algorithm 1 one event at a time through
/// DetectorCore::process, on the same events both profilers hand their
/// detect stage.  The profilers always run the batched kernel
/// (process_batch), so this is the map that kernel must reproduce.
DepMap run_per_event(const Trace& t, const ProfilerConfig& cfg) {
  return with_store(cfg, [&]<typename Store>(std::type_identity<Store>) {
    DetectorCore<Store> core(make_store<Store>(cfg), make_store<Store>(cfg));
    DepMap deps;
    for (const AccessEvent& ev : t.events) core.process(ev, deps);
    return deps;
  });
}

bool same_deps(const DepMap& a, const DepMap& b) {
  const AccuracyResult r = compare_deps(a, b);
  return r.false_positives == 0 && r.false_negatives == 0 &&
         a.size() == b.size();
}

ProfilerConfig perfect_cfg() {
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPerfect;
  return cfg;
}

// -------------------------------------------------------------- serial

TEST(SerialProfiler, CountsEvents) {
  GenParams p;
  p.accesses = 1000;
  const Trace t = gen_uniform(p);
  auto prof = make_serial_profiler(perfect_cfg());
  replay(t, *prof);
  EXPECT_EQ(prof->stats().events, 1000u);
}

TEST(SerialProfiler, WordGranularityUnifiesSubWordAccesses) {
  auto prof = make_serial_profiler(perfect_cfg());
  AccessEvent w;
  w.addr = 0x1000;
  w.kind = AccessKind::kWrite;
  w.loc = SourceLocation(1, 10).packed();
  prof->on_access(w);
  AccessEvent r = w;
  r.addr = 0x1002;  // same 4-byte word
  r.kind = AccessKind::kRead;
  r.loc = SourceLocation(1, 20).packed();
  prof->on_access(r);
  prof->finish();
  DepKey k;
  k.type = DepType::kRaw;
  k.sink_loc = SourceLocation(1, 20).packed();
  k.src_loc = SourceLocation(1, 10).packed();
  EXPECT_NE(prof->dependences().find(k), nullptr);
}

TEST(SerialProfiler, AllStorageBackendsRun) {
  GenParams p;
  p.accesses = 5000;
  p.distinct = 500;
  const Trace t = gen_uniform(p);
  for (StorageKind s : {StorageKind::kSignature, StorageKind::kPerfect,
                        StorageKind::kShadow, StorageKind::kHashTable,
                        StorageKind::kPacked}) {
    ProfilerConfig cfg;
    cfg.storage = s;
    cfg.slots = 1u << 16;
    auto prof = make_serial_profiler(cfg);
    replay(t, *prof);
    EXPECT_GT(prof->dependences().size(), 0u) << storage_kind_name(s);
  }
}

TEST(SerialProfiler, ExactBackendsAgree) {
  // Perfect signature, shadow memory, and hash table are all exact: they
  // must produce identical dependence sets on any trace.
  GenParams p;
  p.accesses = 20'000;
  p.distinct = 2'000;
  const Trace t = gen_uniform(p);
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPerfect;
  const DepMap perfect = run_serial(t, cfg);
  cfg.storage = StorageKind::kShadow;
  const DepMap shadow = run_serial(t, cfg);
  cfg.storage = StorageKind::kHashTable;
  const DepMap table = run_serial(t, cfg);
  cfg.storage = StorageKind::kPacked;
  const DepMap packed = run_serial(t, cfg);
  EXPECT_TRUE(same_deps(perfect, shadow));
  EXPECT_TRUE(same_deps(perfect, table));
  EXPECT_TRUE(same_deps(perfect, packed));
}

TEST(SerialProfiler, LargeSignatureMatchesPerfectOnSmallTrace) {
  GenParams p;
  p.accesses = 10'000;
  p.distinct = 1'000;
  const Trace t = gen_uniform(p);
  ProfilerConfig sig;
  sig.storage = StorageKind::kSignature;
  sig.slots = 1u << 22;  // far larger than the footprint: zero collisions
  ProfilerConfig perfect = perfect_cfg();
  EXPECT_TRUE(same_deps(run_serial(t, perfect), run_serial(t, sig)));
}

// ------------------------------------------- serial == parallel (property)

struct EquivCase {
  QueueKind queue;
  unsigned workers;
  std::size_t chunk;
  bool modulo_routing;
};

class SerialParallelEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(SerialParallelEquivalence, IdenticalDependences) {
  const EquivCase c = GetParam();
  GenParams p;
  p.accesses = 60'000;
  p.distinct = 3'000;
  p.write_ratio = 0.4;
  const Trace t = gen_uniform(p);

  ProfilerConfig cfg = perfect_cfg();
  const DepMap serial = run_serial(t, cfg);

  cfg.queue = c.queue;
  cfg.workers = c.workers;
  cfg.chunk_size = c.chunk;
  cfg.modulo_routing = c.modulo_routing;
  const DepMap parallel = run_parallel(t, cfg);

  EXPECT_TRUE(same_deps(serial, parallel))
      << queue_kind_name(c.queue) << " workers=" << c.workers
      << " chunk=" << c.chunk;
  // Instance counts must match too, not only the key sets.
  EXPECT_EQ(serial.instances(), parallel.instances());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SerialParallelEquivalence,
    ::testing::Values(EquivCase{QueueKind::kLockFreeSpsc, 1, 512, false},
                      EquivCase{QueueKind::kLockFreeSpsc, 4, 512, false},
                      EquivCase{QueueKind::kLockFreeSpsc, 8, 64, false},
                      EquivCase{QueueKind::kLockFreeSpsc, 16, 1, false},
                      EquivCase{QueueKind::kLockFreeMpmc, 4, 128, false},
                      EquivCase{QueueKind::kMutex, 4, 512, false},
                      EquivCase{QueueKind::kMutex, 8, 32, true},
                      EquivCase{QueueKind::kLockFreeSpsc, 4, 512, true}));

// Oversubscription axis (ISSUE 7): eight workers plus the producer pinned
// to at most two CPUs, so the kernel preempts pipeline threads mid-hand-off
// constantly — the regime where the cross-attribution flake lived.
TEST(SerialParallelEquivalence, OversubscribedWorkersMatchSerial) {
#if defined(__linux__)
  cpu_set_t saved;
  CPU_ZERO(&saved);
  if (sched_getaffinity(0, sizeof(saved), &saved) != 0)
    GTEST_SKIP() << "sched_getaffinity unavailable";
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  CPU_SET(0, &pinned);
  if (CPU_ISSET(1, &saved)) CPU_SET(1, &pinned);
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0)
    GTEST_SKIP() << "cannot pin CPUs";

  GenParams p;
  p.accesses = 60'000;
  p.distinct = 3'000;
  p.write_ratio = 0.4;
  const Trace t = gen_uniform(p);
  ProfilerConfig cfg = perfect_cfg();
  const DepMap serial = run_serial(t, cfg);
  cfg.workers = 8;
  cfg.chunk_size = 64;
  const DepMap parallel = run_parallel(t, cfg);

  sched_setaffinity(0, sizeof(saved), &saved);  // before any EXPECT fires

  EXPECT_TRUE(same_deps(serial, parallel)) << "workers=8";
  EXPECT_EQ(serial.instances(), parallel.instances());
#else
  GTEST_SKIP() << "CPU affinity is Linux-only";
#endif
}

TEST(ParallelProfiler, EquivalenceOnLoopTrace) {
  GenParams p;
  p.distinct = 500;
  const Trace t = gen_loop(p, /*iters=*/20, /*carried=*/true);
  ProfilerConfig cfg = perfect_cfg();
  const DepMap serial = run_serial(t, cfg);
  cfg.workers = 8;
  const DepMap parallel = run_parallel(t, cfg);
  EXPECT_TRUE(same_deps(serial, parallel));
  // Carried flags survive the pipeline and the merge.
  bool carried_found = false;
  for (const auto& [k, info] : parallel)
    if (k.type == DepType::kRaw && (info.flags & kLoopCarried)) carried_found = true;
  EXPECT_TRUE(carried_found);
}

TEST(ParallelProfiler, EquivalenceWithSignatureStorage) {
  // Signature-based worker state must behave identically whether the
  // address stream is processed by 1 worker or split over 8 — each address
  // is owned by exactly one worker, so its slot history is the same.
  GenParams p;
  p.accesses = 40'000;
  p.distinct = 2'000;
  const Trace t = gen_uniform(p);
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kSignature;
  cfg.slots = 1u << 22;  // collision-free regime
  const DepMap serial = run_serial(t, cfg);
  cfg.workers = 8;
  const DepMap parallel = run_parallel(t, cfg);
  EXPECT_TRUE(same_deps(serial, parallel));
}

// ------------------------------------------------------- load balancing

TEST(ParallelProfiler, LoadBalancerPreservesDependences) {
  // Hot-skewed stream with aggressive rebalancing: migrations must never
  // corrupt per-address signature state (FIFO migrate/adopt protocol).
  GenParams p;
  p.accesses = 300'000;
  p.distinct = 2'000;
  const Trace t = gen_zipf(p, 1.4);

  ProfilerConfig cfg = perfect_cfg();
  const DepMap serial = run_serial(t, cfg);

  cfg.workers = 4;
  cfg.chunk_size = 32;
  cfg.load_balance.enabled = true;
  cfg.load_balance.eval_interval_chunks = 200;
  cfg.load_balance.imbalance_threshold = 1.05;
  cfg.load_balance.top_k = 10;
  cfg.load_balance.max_rounds = 64;

  auto prof = make_parallel_profiler(cfg);
  replay(t, *prof);
  const ProfilerStats st = prof->stats();
  EXPECT_GT(st.migrated_addresses, 0u) << "test must actually exercise migration";
  EXPECT_GT(st.redistribution_rounds, 0u);
  EXPECT_TRUE(same_deps(serial, prof->dependences()));
}

TEST(ParallelProfiler, LoadBalancerRespectsMaxRounds) {
  GenParams p;
  p.accesses = 100'000;
  p.distinct = 500;
  const Trace t = gen_zipf(p, 1.5);
  ProfilerConfig cfg = perfect_cfg();
  cfg.workers = 4;
  cfg.chunk_size = 16;
  cfg.load_balance.enabled = true;
  cfg.load_balance.eval_interval_chunks = 50;
  cfg.load_balance.imbalance_threshold = 1.0;
  cfg.load_balance.max_rounds = 3;
  auto prof = make_parallel_profiler(cfg);
  replay(t, *prof);
  EXPECT_LE(prof->stats().redistribution_rounds, 3u);
}

// ------------------------------------------------------------ statistics

TEST(ParallelProfiler, StatsAccountAllEvents) {
  GenParams p;
  p.accesses = 10'000;
  const Trace t = gen_uniform(p);
  ProfilerConfig cfg = perfect_cfg();
  cfg.workers = 4;
  auto prof = make_parallel_profiler(cfg);
  replay(t, *prof);
  const ProfilerStats st = prof->stats();
  EXPECT_EQ(st.events, 10'000u);
  std::uint64_t worker_sum = 0;
  for (auto e : st.worker_events) worker_sum += e;
  EXPECT_EQ(worker_sum, 10'000u);
  EXPECT_GT(st.chunks, 0u);
  EXPECT_EQ(st.worker_busy_sec.size(), 4u);
}

TEST(SerialProfiler, BatchedKernelCountersTrack) {
  GenParams p;
  p.accesses = 5'000;
  p.distinct = 200;
  const Trace t = gen_uniform(p);
  auto prof = make_serial_profiler(perfect_cfg());
  replay(t, *prof);
  // Hold the stats by value: find() points into its snapshot.
  const ProfilerStats st = prof->stats();
  const obs::StageSnapshot* d = st.stages.find("detect[0]");
  ASSERT_NE(d, nullptr);
  EXPECT_GT(d->chunks, 0u);
  EXPECT_GT(d->prefetches, 0u);
  // K events ahead within each batch: never more prefetches than events.
  EXPECT_LE(d->prefetches, 5'000u);
}

TEST(ParallelProfiler, FinishIsIdempotent) {
  ProfilerConfig cfg = perfect_cfg();
  cfg.workers = 2;
  auto prof = make_parallel_profiler(cfg);
  AccessEvent e;
  e.addr = 0x1000;
  e.kind = AccessKind::kWrite;
  e.loc = SourceLocation(1, 1).packed();
  prof->on_access(e);
  prof->finish();
  prof->finish();  // second finish must be a no-op
  EXPECT_EQ(prof->dependences().size(), 1u);
}

TEST(ParallelProfiler, DestructionWithoutFinishIsSafe) {
  ProfilerConfig cfg = perfect_cfg();
  cfg.workers = 4;
  auto prof = make_parallel_profiler(cfg);
  AccessEvent e;
  e.addr = 0x1000;
  e.kind = AccessKind::kWrite;
  e.loc = SourceLocation(1, 1).packed();
  prof->on_access(e);
  // Dropping the profiler without finish() must join workers, not hang.
}

// ---------------------- all backends × all queues (byte-identical merges)

struct BackendQueueCase {
  StorageKind storage;
  QueueKind queue;
};

class BackendQueueEquivalence
    : public ::testing::TestWithParam<BackendQueueCase> {};

TEST_P(BackendQueueEquivalence, ByteIdenticalMergedMaps) {
  const BackendQueueCase c = GetParam();
  GenParams p;
  p.accesses = 30'000;
  p.distinct = 1'500;
  p.write_ratio = 0.4;
  // Randomize the trace per backend so the matrix does not reuse one stream.
  p.seed = 42 + static_cast<unsigned>(c.storage) * 1337 +
           static_cast<unsigned>(c.queue) * 17;
  const Trace t = gen_uniform(p);

  ProfilerConfig cfg;
  cfg.storage = c.storage;
  // The signature backend only matches serial==parallel in the
  // collision-free regime: the per-worker signatures partition the address
  // set differently than the single serial signature, so collisions (and
  // hence false dependences) would otherwise differ.  The generator's
  // address span is far below this slot count, so modulo indexing is
  // injective for every store.
  cfg.slots = 1u << 18;
  const DepMap serial = run_serial(t, cfg);

  // The batched kernel is a pure reorganization of the detect loop: the
  // serial (batched) run must already reproduce the per-event reference
  // byte for byte before the parallel matrix gets involved.
  EXPECT_EQ(deps_csv(run_per_event(t, cfg)), deps_csv(serial))
      << storage_kind_name(c.storage) << " serial batched != per-event";

  cfg.queue = c.queue;
  cfg.workers = 4;
  cfg.chunk_size = 128;
  // Waiting is not a semantics knob: every wait strategy must reproduce
  // the byte-identical merged map.
  for (WaitKind wait : {WaitKind::kSpin, WaitKind::kYield, WaitKind::kPark}) {
    cfg.wait = wait;
    auto prof = make_parallel_profiler(cfg);
    ASSERT_NE(prof, nullptr) << storage_kind_name(c.storage);
    replay(t, *prof);
    EXPECT_EQ(deps_csv(serial), deps_csv(prof->dependences()))
        << storage_kind_name(c.storage) << " over "
        << queue_kind_name(c.queue) << " wait=" << wait_kind_name(wait);
  }

  // Front-end reduction axis: the deduplicated RLE stream feeding both
  // profilers must reproduce the same merged map (the serial baseline
  // above stays raw, so this asserts dedup is map-preserving per backend
  // and queue).
  const RleStream rle = dedup_stream(t.events.data(), t.events.size());
  cfg.wait = WaitKind::kSpin;
  cfg.dedup = true;
  {
    auto prof = make_serial_profiler(cfg);
    replay_rle(rle, *prof);
    EXPECT_EQ(deps_csv(serial), deps_csv(prof->dependences()))
        << storage_kind_name(c.storage) << " serial dedup";
  }
  auto prof = make_parallel_profiler(cfg);
  ASSERT_NE(prof, nullptr) << storage_kind_name(c.storage);
  replay_rle(rle, *prof);
  EXPECT_EQ(deps_csv(serial), deps_csv(prof->dependences()))
      << storage_kind_name(c.storage) << " over " << queue_kind_name(c.queue)
      << " dedup";
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsAllQueues, BackendQueueEquivalence,
    ::testing::Values(
        BackendQueueCase{StorageKind::kSignature, QueueKind::kLockFreeSpsc},
        BackendQueueCase{StorageKind::kSignature, QueueKind::kLockFreeMpmc},
        BackendQueueCase{StorageKind::kSignature, QueueKind::kMutex},
        BackendQueueCase{StorageKind::kPerfect, QueueKind::kLockFreeSpsc},
        BackendQueueCase{StorageKind::kPerfect, QueueKind::kLockFreeMpmc},
        BackendQueueCase{StorageKind::kPerfect, QueueKind::kMutex},
        BackendQueueCase{StorageKind::kShadow, QueueKind::kLockFreeSpsc},
        BackendQueueCase{StorageKind::kShadow, QueueKind::kLockFreeMpmc},
        BackendQueueCase{StorageKind::kShadow, QueueKind::kMutex},
        BackendQueueCase{StorageKind::kHashTable, QueueKind::kLockFreeSpsc},
        BackendQueueCase{StorageKind::kHashTable, QueueKind::kLockFreeMpmc},
        BackendQueueCase{StorageKind::kHashTable, QueueKind::kMutex},
        BackendQueueCase{StorageKind::kPacked, QueueKind::kLockFreeSpsc},
        BackendQueueCase{StorageKind::kPacked, QueueKind::kLockFreeMpmc},
        BackendQueueCase{StorageKind::kPacked, QueueKind::kMutex}));

// ----------------- sampling axis (ISSUE 8): off / 100% / 50% / 10% duty

class SamplingEquivalence : public ::testing::TestWithParam<StorageKind> {};

TEST_P(SamplingEquivalence, SubsetContractAndSerialParallelIdentity) {
  const StorageKind storage = GetParam();
  GenParams p;
  p.distinct = 400;
  p.seed = 7 + static_cast<unsigned>(storage);
  const Trace t = gen_loop(p, /*iters=*/24, /*carried=*/true);

  ProfilerConfig cfg;
  cfg.storage = storage;
  cfg.slots = 1u << 18;  // collision-free regime for the signature backend
  const DepMap full = run_serial(t, cfg);

  struct Duty {
    unsigned burst, skip;
    const char* name;
  };
  // samp100 keeps every unit (skip = 0): sample_stream is the identity, so
  // the sampled maps must be byte-identical to the unsampled run — the
  // budget=100% no-op guarantee.  The gapped points must satisfy the subset
  // contract instead, and serial == parallel holds at every duty point.
  constexpr Duty kDuties[] = {
      {8, 0, "samp100"}, {4, 4, "samp50"}, {1, 9, "samp10"}};
  for (const Duty& d : kDuties) {
    const Trace sampled = sample_stream(t, d.burst, d.skip);
    const DepMap serial = run_serial(sampled, cfg);
    if (d.skip == 0) {
      EXPECT_EQ(deps_csv(full), deps_csv(serial))
          << storage_kind_name(storage) << ' ' << d.name
          << ": skip=0 must be byte-identical to the unsampled run";
    } else {
      const SubsetReport sub = check_sampled_subset(full, serial);
      EXPECT_TRUE(sub.ok)
          << storage_kind_name(storage) << ' ' << d.name << ": " << sub.detail;
      EXPECT_GT(sub.sampled_edges, 0u)
          << storage_kind_name(storage) << ' ' << d.name
          << ": sampled run kept no evidence at all";
      EXPECT_LE(sub.recall, 1.0);
    }
    ProfilerConfig pcfg = cfg;
    pcfg.workers = 4;
    pcfg.chunk_size = 64;
    const DepMap parallel = run_parallel(sampled, pcfg);
    EXPECT_EQ(deps_csv(serial), deps_csv(parallel))
        << storage_kind_name(storage) << ' ' << d.name
        << ": serial != parallel on the sampled stream";
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SamplingEquivalence,
                         ::testing::Values(StorageKind::kSignature,
                                           StorageKind::kPerfect,
                                           StorageKind::kShadow,
                                           StorageKind::kHashTable,
                                           StorageKind::kPacked));

}  // namespace
}  // namespace depprof
