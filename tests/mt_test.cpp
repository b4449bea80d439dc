// End-to-end tests of multi-threaded target support (Sec. V): thread ids in
// dependence endpoints, cross-thread RAW detection (communication), race
// detection via timestamp reversal on an intentionally racy kernel, and the
// absence of false races under proper lock regions.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "analysis/comm_matrix.hpp"
#include "core/profiler.hpp"
#include "harness/runner.hpp"
#include "instrument/macros.hpp"
#include "instrument/runtime.hpp"
#include "mt/instrumented_mutex.hpp"
#include "mt/race_report.hpp"
#include "oracle/exact_oracle.hpp"
#include "trace/generators.hpp"
#include "workloads/workload.hpp"

DP_FILE("mt_test");

namespace depprof {
namespace {

std::unique_ptr<IProfiler> make_mt_profiler(unsigned workers = 4) {
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPerfect;
  cfg.mt_targets = true;
  cfg.workers = workers;
  cfg.queue = QueueKind::kLockFreeMpmc;
  return make_parallel_profiler(cfg);
}

/// Producer thread writes a shared cell under a lock; consumer reads it
/// under the same lock — a clean producer/consumer pattern.  The consumer
/// starts reading only after the first write, so at least one read sees
/// the producer's value however the two threads are scheduled.
void producer_consumer_kernel(int rounds) {
  double shared = 0.0;
  InstrumentedMutex mu;
  std::atomic<bool> written{false};
  std::thread producer([&] {
    for (int i = 0; i < rounds; ++i) {
      std::lock_guard lock(mu);
      DP_WRITE(shared);
      shared = i;
      written.store(true, std::memory_order_release);
    }
  });
  std::thread consumer([&] {
    while (!written.load(std::memory_order_acquire)) std::this_thread::yield();
    double sink = 0.0;
    for (int i = 0; i < rounds; ++i) {
      std::lock_guard lock(mu);
      DP_READ(shared);
      sink += shared;
    }
    (void)sink;
  });
  producer.join();
  consumer.join();
}

TEST(MtProfiling, CrossThreadRawDetected) {
  auto prof = make_mt_profiler();
  Runtime::instance().reset();
  Runtime::instance().attach(prof.get(), /*mt_mode=*/true);
  producer_consumer_kernel(200);
  Runtime::instance().detach();

  bool cross_raw = false;
  for (const auto& [key, info] : prof->dependences()) {
    if (key.type == DepType::kRaw && (info.flags & kCrossThread)) {
      cross_raw = true;
      EXPECT_NE(key.sink_tid, key.src_tid);
    }
  }
  EXPECT_TRUE(cross_raw);
}

TEST(MtProfiling, NoFalseRacesUnderLockRegions) {
  // Accesses and pushes are atomic inside lock regions (Fig. 4), so the
  // worker must never observe a timestamp reversal.
  auto prof = make_mt_profiler();
  Runtime::instance().reset();
  Runtime::instance().attach(prof.get(), true);
  producer_consumer_kernel(500);
  Runtime::instance().detach();
  const RaceReport report = find_races(prof->dependences());
  EXPECT_EQ(report.confirmed_count(), 0u)
      << format_race_report(report);
}

TEST(MtProfiling, RacyKernelYieldsPotentialRace) {
  // Two threads hammer a shared counter WITHOUT lock regions.  Chunked
  // buffering then decouples access order from push order, and the
  // timestamp check exposes the reversal (Sec. V-B).  The race is real: the
  // unsynchronized counter is exactly what the check is designed to catch.
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPerfect;
  cfg.mt_targets = true;
  cfg.workers = 2;
  cfg.chunk_size = 64;  // buffering without lock-region flushes
  auto prof = make_parallel_profiler(cfg);

  Runtime::instance().reset();
  Runtime::instance().attach(prof.get(), true);
  std::atomic<int> counter{0};
  auto hammer = [&] {
    for (int i = 0; i < 3000; ++i) {
      DP_READ(counter);
      DP_WRITE(counter);
      counter.fetch_add(1, std::memory_order_relaxed);
      // Interleave the two threads even on a single-core host.
      if (i % 16 == 0) std::this_thread::yield();
    }
  };
  std::thread a(hammer), b(hammer);
  a.join();
  b.join();
  Runtime::instance().detach();

  const RaceReport report = find_races(prof->dependences());
  EXPECT_GT(report.confirmed_count(), 0u);
}

TEST(MtProfiling, WaterSpatialShowsNeighbourPattern) {
  const Workload* w = find_workload("water-spatial");
  ASSERT_NE(w, nullptr);
  const unsigned threads = 4;

  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPerfect;
  cfg.mt_targets = true;
  cfg.workers = 4;
  RunOptions opts;
  opts.target_threads = threads;
  opts.parallel_pipeline = true;
  opts.native_reps = 1;
  const RunMeasurement m = profile_workload(*w, cfg, opts);

  const CommMatrix comm = build_comm_matrix(m.deps, threads + 1);
  // Halo exchange: each worker communicates with its ring neighbours.
  std::uint64_t neighbour = 0, non_neighbour = 0;
  for (unsigned p = 1; p <= threads; ++p) {
    for (unsigned c = 1; c <= threads; ++c) {
      if (p == c) continue;
      const unsigned d = (p > c ? p - c : c - p);
      const bool is_neighbour = d == 1 || d == threads - 1;
      (is_neighbour ? neighbour : non_neighbour) += comm.counts[p][c];
    }
  }
  EXPECT_GT(neighbour, 0u);
  EXPECT_GT(neighbour, non_neighbour * 2)
      << "halo traffic must dominate the banded pattern";

  // Properly synchronized kernel: no confirmed races.
  EXPECT_EQ(find_races(m.deps).confirmed_count(), 0u);
}

TEST(MtProfiling, ThreadIdsAppearInDependenceEndpoints) {
  auto prof = make_mt_profiler();
  Runtime::instance().reset();
  Runtime::instance().attach(prof.get(), true);
  producer_consumer_kernel(50);
  Runtime::instance().detach();
  bool nonzero_tid = false;
  for (const auto& [key, info] : prof->dependences()) {
    (void)info;
    if (key.sink_tid != 0 || key.src_tid != 0) nonzero_tid = true;
  }
  EXPECT_TRUE(nonzero_tid);
}

// ----------------------------------------------------- race-report triage
//
// Unit-level pinning of the Sec. V-B triage rules on hand-built maps and
// generator traces — these failed against the original find_races (flag-OR
// confirmation, no lock suppression, misleading unconfirmed line).

DepKey race_key(DepType type, std::uint32_t sink_line, std::uint32_t src_line,
                std::uint16_t sink_tid, std::uint16_t src_tid) {
  DepKey k;
  k.type = type;
  k.sink_loc = SourceLocation(1, sink_line).packed();
  k.src_loc = SourceLocation(1, src_line).packed();
  k.var = 1;
  k.sink_tid = sink_tid;
  k.src_tid = src_tid;
  return k;
}

TEST(RaceTriage, OneReversalAmongManyDoesNotInflateInstances) {
  // 3000 well-ordered cross-thread instances merge with a single reversed
  // one under the same key.  The OR-merged kReversed flag says "a reversal
  // happened"; the finding must quote how often (1), not the key's total
  // merge count (3001).
  DepMap deps;
  const DepKey k = race_key(DepType::kRaw, 20, 10, 2, 1);
  for (int i = 0; i < 3000; ++i) deps.add(k, kCrossThread);
  deps.add(k, kCrossThread | kReversed);

  const RaceReport r = find_races(deps);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_TRUE(r.findings[0].confirmed);
  EXPECT_EQ(r.findings[0].instances, 1u)
      << "one reversal among 3001 merged instances is one reversal";
  EXPECT_EQ(r.findings[0].total, 3001u);
}

TEST(RaceTriage, FullyLockProtectedKeysAreSuppressedNotUnconfirmed) {
  // Mutex-protected churn: every access of the gen_churn MT interleaving is
  // inside a lock region, so every conflicting pair was mutually excluded
  // by the target itself — no key may surface as an unconfirmed candidate.
  GenParams p;
  p.accesses = 4000;
  p.distinct = 32;
  Trace t = gen_churn(p, /*free_ratio=*/0.05, /*threads=*/4);
  const DepMap deps = oracle_dependences(t, /*mt_targets=*/true);

  const RaceReport r = find_races(deps, /*include_unconfirmed=*/true);
  EXPECT_EQ(r.confirmed_count(), 0u) << format_race_report(r);
  EXPECT_TRUE(r.findings.empty())
      << "lock-protected dependences listed as race candidates:\n"
      << format_race_report(r);
  EXPECT_GT(r.suppressed_by_lock, 0u);
  EXPECT_EQ(r.unconfirmed, 0u);
}

TEST(RaceTriage, PartiallyLockedKeysStayUnconfirmed) {
  // One instance outside lock regions is enough to keep the candidate: the
  // suppression must require *every* observed conflict to be excluded.
  DepMap deps;
  const DepKey k = race_key(DepType::kWaw, 30, 31, 2, 1);
  deps.add(k, kCrossThread | kLockProtected);
  deps.add(k, kCrossThread);

  const RaceReport off = find_races(deps);
  EXPECT_TRUE(off.findings.empty());
  EXPECT_EQ(off.unconfirmed, 1u);
  EXPECT_EQ(off.suppressed_by_lock, 0u);

  const RaceReport on = find_races(deps, /*include_unconfirmed=*/true);
  ASSERT_EQ(on.findings.size(), 1u);
  EXPECT_FALSE(on.findings[0].confirmed);
}

TEST(RaceTriage, FormatRendersActualSuppressionState) {
  // One confirmed race plus one unconfirmed candidate, with unconfirmed
  // listing OFF: the header must say the candidate exists but is not
  // listed — the original code printed findings.size() - confirmed_count(),
  // which is always 0 exactly when unconfirmed findings are excluded.
  DepMap deps;
  deps.add(race_key(DepType::kRaw, 20, 10, 2, 1), kCrossThread | kReversed);
  deps.add(race_key(DepType::kWaw, 21, 11, 2, 1), kCrossThread);
  deps.add(race_key(DepType::kRaw, 22, 12, 2, 1),
           kCrossThread | kLockProtected);

  const std::string hidden = format_race_report(find_races(deps));
  EXPECT_NE(hidden.find("1 confirmed"), std::string::npos) << hidden;
  EXPECT_NE(hidden.find("1 unconfirmed"), std::string::npos) << hidden;
  EXPECT_NE(hidden.find("not listed"), std::string::npos) << hidden;
  EXPECT_NE(hidden.find("1 suppressed by lock regions"), std::string::npos)
      << hidden;

  const std::string listed = format_race_report(find_races(deps, true));
  EXPECT_NE(listed.find("1 unconfirmed"), std::string::npos) << listed;
  EXPECT_EQ(listed.find("not listed"), std::string::npos) << listed;
}

TEST(InstrumentedMutexTest, LockableContract) {
  InstrumentedMutex mu;
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
  {
    std::lock_guard lock(mu);
  }
  {
    std::unique_lock lock(mu, std::try_to_lock);
    EXPECT_TRUE(lock.owns_lock());
  }
}

}  // namespace
}  // namespace depprof
