// Tests for the instrumentation runtime and macros: event assembly, loop
// context tracking (entries, iterations, three-level nesting), control-flow
// records, lifetime events, lock regions, thread ids, timestamps, and the
// disabled-runtime fast path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "instrument/macros.hpp"
#include "instrument/runtime.hpp"
#include "trace/nest.hpp"
#include "trace/trace.hpp"

DP_FILE("instrument_test");

namespace depprof {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::instance().reset(); }
  void TearDown() override {
    Runtime::instance().detach();
    Runtime::instance().reset();
  }

  TraceRecorder recorder_;
  Trace& capture() {
    Runtime::instance().detach();
    return recorder_.trace();
  }
};

TEST_F(RuntimeTest, DisabledRuntimeEmitsNothing) {
  int x = 0;
  DP_WRITE(x);
  x = 1;
  DP_READ(x);
  EXPECT_EQ(x, 1);
  Runtime::instance().attach(&recorder_);
  Runtime::instance().detach();
  EXPECT_TRUE(recorder_.trace().events.empty());
}

TEST_F(RuntimeTest, RecordsAddressKindLocationVar) {
  Runtime::instance().attach(&recorder_);
  double value = 0.0;
  DP_WRITE(value);
  value = 1.0;
  DP_READ(value);
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0].addr, reinterpret_cast<std::uintptr_t>(&value));
  EXPECT_TRUE(t.events[0].is_write());
  EXPECT_TRUE(t.events[1].is_read());
  EXPECT_EQ(t.events[0].addr, t.events[1].addr);
  EXPECT_LT(t.events[0].location().line(), t.events[1].location().line());
  EXPECT_EQ(var_registry().name(t.events[0].var), "value");
}

TEST_F(RuntimeTest, LoopContextAttachedToAccesses) {
  Runtime::instance().attach(&recorder_);
  int a = 0;
  DP_LOOP_BEGIN();
  for (int i = 0; i < 3; ++i) {
    DP_LOOP_ITER();
    DP_WRITE(a);
    a = i;
  }
  DP_LOOP_END();
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 3u);
  const std::uint32_t ctx = t.events[0].ctx;
  ASSERT_NE(ctx, NestForest::kRoot);
  EXPECT_NE(nest_forest().loop(ctx), 0u);
  EXPECT_EQ(nest_forest().depth(ctx), 1u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(t.events[i].ctx, ctx) << "one dynamic entry, one context";
    EXPECT_EQ(t.events[i].iter, static_cast<std::uint32_t>(i + 1));
  }
}

TEST_F(RuntimeTest, LoopEntriesAreDistinct) {
  Runtime::instance().attach(&recorder_);
  int a = 0;
  for (int round = 0; round < 2; ++round) {
    DP_LOOP_BEGIN();
    for (int i = 0; i < 2; ++i) {
      DP_LOOP_ITER();
      DP_WRITE(a);
      a = i;
    }
    DP_LOOP_END();
  }
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 4u);
  // Same static loop, but each DP_LOOP_BEGIN interns a fresh forest node:
  // the two rounds are distinguishable dynamic entries.
  EXPECT_EQ(nest_forest().loop(t.events[0].ctx),
            nest_forest().loop(t.events[2].ctx));
  EXPECT_NE(t.events[0].ctx, t.events[2].ctx);
}

TEST_F(RuntimeTest, ThreeLevelNestingRecorded) {
  Runtime::instance().attach(&recorder_);
  int a = 0;
  DP_LOOP_BEGIN();  // outer
  DP_LOOP_ITER();
  {
    DP_LOOP_BEGIN();  // middle
    DP_LOOP_ITER();
    {
      DP_LOOP_BEGIN();  // inner
      DP_LOOP_ITER();
      DP_WRITE(a);
      a = 1;
      DP_LOOP_END();
    }
    DP_LOOP_END();
  }
  DP_LOOP_END();
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 1u);
  const AccessEvent& e = t.events[0];
  const NestForest& forest = nest_forest();
  ASSERT_EQ(forest.depth(e.ctx), 3u);
  const std::uint32_t inner = e.ctx;
  const std::uint32_t middle = forest.parent(inner);
  const std::uint32_t outer = forest.parent(middle);
  EXPECT_EQ(forest.parent(outer), NestForest::kRoot);
  EXPECT_NE(forest.loop(inner), 0u);
  EXPECT_NE(forest.loop(middle), 0u);
  EXPECT_NE(forest.loop(outer), 0u);
  EXPECT_NE(forest.loop(inner), forest.loop(middle));
  EXPECT_NE(forest.loop(middle), forest.loop(outer));
  // One DP_LOOP_ITER at each level: the event's own iteration, and the
  // enclosing ones fixed in the entries below them.
  EXPECT_EQ(e.iter, 1u);
  EXPECT_EQ(forest.entry_iter(inner), 1u);
  EXPECT_EQ(forest.entry_iter(middle), 1u);
}

TEST_F(RuntimeTest, DeepContextsStampTheLastTrackedLevel) {
  // Beyond kNestIters levels an event carries its depth-kNestIters
  // iteration; the window its files carry ends at that level too.
  Runtime::instance().attach(&recorder_);
  int a = 0;
  const std::uint32_t depth = kNestIters + 3;
  for (std::uint32_t d = 1; d <= depth; ++d) {
    DP_LOOP_BEGIN();
    for (std::uint32_t k = 0; k < d; ++k) DP_LOOP_ITER();
  }
  DP_WRITE(a);
  a = 1;
  for (std::uint32_t d = 1; d <= depth; ++d) DP_LOOP_END();
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 1u);
  const AccessEvent& e = t.events[0];
  ASSERT_EQ(nest_forest().depth(e.ctx), depth);
  EXPECT_EQ(e.iter, kNestIters);  // level d iterated d times
  std::uint32_t window[kNestIters];
  nest_forest().window(e.ctx, e.iter, window);
  for (std::uint32_t d = 1; d <= kNestIters; ++d) EXPECT_EQ(window[d - 1], d);
}

TEST_F(RuntimeTest, TimestampsThrowAtTheFortyEightBitBound) {
  // The MT timestamp fills a 48-bit event field: the last value is handed
  // out, the next access throws instead of wrapping to a small timestamp.
  Runtime& rt = Runtime::instance();
  rt.reset(Runtime::StartAt{kEventFieldMax});
  rt.attach(&recorder_, /*mt_mode=*/true);
  int a = 0;
  DP_WRITE(a);
  a = 1;
  EXPECT_THROW(DP_READ(a), std::length_error);
  EXPECT_THROW(DP_FREE(&a, sizeof(a)), std::length_error);
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].ts, kEventFieldMax);
  EXPECT_TRUE(t.events[0].is_write());
}

/// Counts delivered events; keeps no copies.
class CountingSink final : public AccessSink {
 public:
  void on_access(const AccessEvent&) override { ++events; }
  void on_batch(const AccessEvent*, std::size_t count) override {
    events += count;
  }
  void on_batch_rle(const AccessEvent*, const std::uint32_t* reps,
                    std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) events += reps[i];
  }
  std::atomic<std::uint64_t> events{0};
};

TEST_F(RuntimeTest, LoopHooksRunAgainstConcurrentAttachAndDetach) {
  // The loop hooks update the sampling cursor and the dedup cache outside
  // any SinkUse window; attach()/detach() on another thread must not write
  // those fields.  Functionally a smoke test — the TSan job is what sees a
  // data race here.
  CountingSink sink;
  SamplingConfig sampling;
  sampling.burst = 1;
  sampling.skip = 1;
  std::atomic<bool> done{false};
  std::thread target([&] {
    int a = 0;
    for (int round = 0; round < 50'000; ++round) {
      DP_LOOP_BEGIN();
      for (int i = 0; i < 8; ++i) {
        DP_LOOP_ITER();
        DP_WRITE(a);
        a = i;
      }
      DP_LOOP_END();
    }
    done.store(true);
  });
  Runtime& rt = Runtime::instance();
  while (!done.load()) {
    rt.attach(&sink, false, /*dedup=*/true, sampling);
    std::this_thread::yield();
    rt.detach();
  }
  target.join();
  SUCCEED() << sink.events.load() << " events delivered";
}

TEST_F(RuntimeTest, NestEdgesFormLoopTree) {
  Runtime::instance().attach(&recorder_);
  int a = 0;
  DP_LOOP_BEGIN();  // outer
  DP_LOOP_ITER();
  {
    DP_LOOP_BEGIN();  // inner
    DP_LOOP_ITER();
    DP_WRITE(a);
    a = 1;
    DP_LOOP_END();
  }
  DP_LOOP_END();
  Runtime::instance().detach();
  const ControlFlowLog cf = Runtime::instance().control_flow();
  ASSERT_EQ(cf.loops.size(), 2u);
  const std::uint32_t outer_id = cf.loops[0].loop_id;
  const std::uint32_t inner_id = cf.loops[1].loop_id;
  ASSERT_EQ(cf.edges.size(), 2u);
  EXPECT_EQ(cf.children_of(0), std::vector<std::uint32_t>{outer_id});
  EXPECT_EQ(cf.children_of(outer_id), std::vector<std::uint32_t>{inner_id});
  EXPECT_FALSE(cf.has_parent(outer_id));
  EXPECT_TRUE(cf.has_parent(inner_id));
}

TEST_F(RuntimeTest, StrayLoopMarkersAreCountedNotFatal) {
  // DP_LOOP_ITER / DP_LOOP_END on an empty per-thread loop stack (mismatched
  // instrumentation, or a thread entering mid-loop) must be ignored and
  // counted — never pop or advance another frame.
  Runtime::instance().attach(&recorder_);
  int a = 0;
  DP_LOOP_ITER();
  DP_LOOP_END();
  DP_WRITE(a);
  a = 1;
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].ctx, NestForest::kRoot) << "no nest context fabricated";
  const ControlFlowLog cf = Runtime::instance().control_flow();
  EXPECT_EQ(cf.stray_iters, 1u);
  EXPECT_EQ(cf.stray_ends, 1u);
  EXPECT_TRUE(cf.loops.empty());
}

TEST_F(RuntimeTest, ThreadEnteringMidLoopKeepsOwnNestCursor) {
  // An MT target thread that starts inside another thread's loop sees that
  // loop's iteration and end markers without ever having opened a frame.
  // Its accesses stay context-free and the opener's nest is untouched.
  Runtime::instance().attach(&recorder_, /*mt_mode=*/true);
  int a = 0;
  DP_LOOP_BEGIN();
  DP_LOOP_ITER();
  std::thread worker([&] {
    DP_LOOP_ITER();  // stray: this thread never entered the loop
    DP_WRITE(a);
    DP_LOOP_END();  // stray: must not pop the opener's frame
  });
  worker.join();
  DP_WRITE(a);
  a = 1;
  DP_LOOP_END();
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 2u);
  const std::uint16_t main_tid = Runtime::instance().thread_id();
  for (const auto& e : t.events) {
    if (e.tid == main_tid) {
      EXPECT_NE(e.ctx, NestForest::kRoot);
      EXPECT_EQ(e.iter, 1u);
    } else {
      EXPECT_EQ(e.ctx, NestForest::kRoot);
    }
  }
  const ControlFlowLog cf = Runtime::instance().control_flow();
  EXPECT_EQ(cf.stray_iters, 1u);
  EXPECT_EQ(cf.stray_ends, 1u);
  ASSERT_EQ(cf.loops.size(), 1u);
  EXPECT_EQ(cf.loops[0].entries, 1u);
  EXPECT_EQ(cf.loops[0].iterations, 1u);
}

TEST_F(RuntimeTest, ControlFlowLogRecordsLoops) {
  Runtime::instance().attach(&recorder_);
  int a = 0;
  DP_LOOP_BEGIN();
  for (int i = 0; i < 5; ++i) {
    DP_LOOP_ITER();
    DP_WRITE(a);
    a = i;
  }
  DP_LOOP_END();
  Runtime::instance().detach();
  const ControlFlowLog cf = Runtime::instance().control_flow();
  ASSERT_EQ(cf.loops.size(), 1u);
  EXPECT_EQ(cf.loops[0].iterations, 5u);  // the Fig. 1 "END loop 1200" count
  EXPECT_EQ(cf.loops[0].entries, 1u);
  EXPECT_LT(SourceLocation::from_packed(cf.loops[0].begin_loc).line(),
            SourceLocation::from_packed(cf.loops[0].end_loc).line());
}

TEST_F(RuntimeTest, LoopIterationsAccumulateOverEntries) {
  Runtime::instance().attach(&recorder_);
  for (int round = 0; round < 3; ++round) {
    DP_LOOP_BEGIN();
    for (int i = 0; i < 4; ++i) DP_LOOP_ITER();
    DP_LOOP_END();
  }
  Runtime::instance().detach();
  const ControlFlowLog cf = Runtime::instance().control_flow();
  ASSERT_EQ(cf.loops.size(), 1u);
  EXPECT_EQ(cf.loops[0].iterations, 12u);
  EXPECT_EQ(cf.loops[0].entries, 3u);
}

TEST_F(RuntimeTest, FreeEmitsWordGranularLifetimeEvents) {
  Runtime::instance().attach(&recorder_);
  alignas(4) char buf[16];
  DP_FREE(buf, sizeof(buf));
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 4u);  // 16 bytes / 4-byte words
  for (const auto& e : t.events) EXPECT_TRUE(e.is_free());
  EXPECT_EQ(t.events[1].addr - t.events[0].addr, 4u);
}

TEST_F(RuntimeTest, LockRegionFlagsAccesses) {
  Runtime::instance().attach(&recorder_, /*mt_mode=*/true);
  int x = 0;
  DP_WRITE(x);  // outside any lock region
  x = 1;
  DP_LOCK_ENTER();
  DP_WRITE(x);  // inside
  x = 2;
  DP_LOCK_EXIT();
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0].flags & kInLockRegion, 0);
  EXPECT_NE(t.events[1].flags & kInLockRegion, 0);
}

TEST_F(RuntimeTest, TimestampsMonotoneInMtMode) {
  Runtime::instance().attach(&recorder_, /*mt_mode=*/true);
  int x = 0;
  DP_WRITE(x);
  x = 1;
  DP_READ(x);
  DP_READ(x);
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 3u);
  EXPECT_LT(t.events[0].ts, t.events[1].ts);
  EXPECT_LT(t.events[1].ts, t.events[2].ts);
}

TEST_F(RuntimeTest, NoTimestampsInSequentialMode) {
  Runtime::instance().attach(&recorder_, /*mt_mode=*/false);
  int x = 0;
  DP_WRITE(x);
  x = 1;
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].ts, 0u);
}

TEST_F(RuntimeTest, ThreadIdsAssignedPerThread) {
  Runtime::instance().attach(&recorder_, /*mt_mode=*/true);
  int x = 0, y = 0;
  DP_WRITE(x);
  x = 1;
  std::thread worker([&] {
    DP_WRITE(y);
    y = 2;
  });
  worker.join();
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_NE(t.events[0].tid, t.events[1].tid);
}

TEST_F(RuntimeTest, ResetStartsNewEpoch) {
  Runtime::instance().attach(&recorder_, true);
  int x = 0;
  DP_WRITE(x);
  x = 1;
  Runtime::instance().detach();
  const std::uint16_t tid_before = Runtime::instance().thread_id();
  Runtime::instance().reset();
  // After reset the calling thread re-registers and ids restart from 0.
  EXPECT_EQ(Runtime::instance().thread_id(), 0u);
  (void)tid_before;
  EXPECT_TRUE(Runtime::instance().control_flow().loops.empty());
}

TEST_F(RuntimeTest, ReductionLinesRecorded) {
  Runtime::instance().attach(&recorder_);
  double sum = 0.0;
  DP_REDUCTION(); DP_UPDATE(sum); sum += 1.0;
  Runtime::instance().detach();
  const auto lines = Runtime::instance().reduction_lines();
  ASSERT_EQ(lines.size(), 1u);
  // The reduction line matches the update's access line (same source line).
  const Trace& t = recorder_.trace();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(lines[0], t.events[0].loc);
}

TEST_F(RuntimeTest, UpdateEmitsReadThenWrite) {
  Runtime::instance().attach(&recorder_);
  double sum = 1.0;
  DP_UPDATE(sum);
  sum += 1.0;
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_TRUE(t.events[0].is_read());
  EXPECT_TRUE(t.events[1].is_write());
  EXPECT_EQ(t.events[0].addr, t.events[1].addr);
}

// --- lock-region boundary paths (regression + pins) -----------------------

TEST_F(RuntimeTest, LockRegionFreeIsFlaggedAndDeliveredImmediately) {
  // Regression: record_free used to buffer lock-region frees unflagged, so a
  // lock-protected free travelled the chunked path while the accesses around
  // it took the immediate one — another thread's post-free access could reach
  // the detector before the free cleared the word.  The free must be flagged
  // kInLockRegion and pushed before the target can release the lock.
  Runtime::instance().attach(&recorder_, /*mt_mode=*/true);
  alignas(4) char buf[4];
  DP_LOCK_ENTER();
  DP_FREE(buf, sizeof(buf));
  {
    // Still inside the lock region: the free is already at the sink.
    const Trace& t = recorder_.trace();
    ASSERT_EQ(t.events.size(), 1u);
    EXPECT_TRUE(t.events[0].is_free());
    EXPECT_NE(t.events[0].flags & kInLockRegion, 0);
  }
  DP_LOCK_EXIT();
}

TEST_F(RuntimeTest, LockExitFlushesBufferedAccesses) {
  // Pin: leaving the outermost lock region pushes the thread's buffered
  // accesses, so everything ordered before the release also arrives first.
  Runtime::instance().attach(&recorder_, /*mt_mode=*/true);
  int x = 0;
  DP_WRITE(x);  // outside any lock region: buffered
  x = 1;
  EXPECT_TRUE(recorder_.trace().events.empty()) << "expected to stay buffered";
  DP_LOCK_ENTER();
  DP_LOCK_EXIT();
  EXPECT_EQ(recorder_.trace().events.size(), 1u)
      << "lock exit must flush before the target releases the lock";
}

// --- overhead-budget sampling gate ----------------------------------------

/// Minimal sink capturing both the event stream and the detach-time sampling
/// summary (TraceRecorder is final, so the override lives here).
class StatsRecorder : public AccessSink {
 public:
  void on_access(const AccessEvent& ev) override {
    trace_.events.push_back(ev);
  }
  void on_sampling_stats(std::uint64_t events_sampled_out,
                         std::uint64_t bursts,
                         std::uint64_t overhead_ppm) override {
    sampled_out_ = events_sampled_out;
    bursts_ = bursts;
    ppm_ = overhead_ppm;
    reported_ = true;
  }
  Trace trace_;
  std::uint64_t sampled_out_ = 0;
  std::uint64_t bursts_ = 0;
  std::uint64_t ppm_ = 0;
  bool reported_ = false;
};

TEST_F(RuntimeTest, FixedSkipSamplingGatesWholeIterations) {
  SamplingConfig sampling;
  sampling.burst = 1;
  sampling.skip = 1;
  Runtime::instance().attach(&recorder_, false, false, sampling);
  int a = 0;
  DP_LOOP_BEGIN();
  for (int i = 0; i < 4; ++i) {
    DP_LOOP_ITER();
    DP_WRITE(a);
    a = i;
  }
  DP_LOOP_END();
  const Trace& t = capture();
  // B=1/K=1 alternates whole outermost-loop iterations.  The loop entry
  // opens the first (profiled) unit, iteration 1 starts the skipped one, so
  // the kept iterations are 2 and 4 — and each kept event after a gap is
  // preceded by exactly one burst marker.
  ASSERT_EQ(t.events.size(), 4u);
  EXPECT_TRUE(t.events[0].is_burst_mark());
  EXPECT_TRUE(t.events[1].is_write());
  EXPECT_EQ(t.events[1].iter, 2u);
  EXPECT_TRUE(t.events[2].is_burst_mark());
  EXPECT_TRUE(t.events[3].is_write());
  EXPECT_EQ(t.events[3].iter, 4u);
}

TEST_F(RuntimeTest, AccessesOutsideLoopsBypassTheGate) {
  SamplingConfig sampling;
  sampling.burst = 1;
  sampling.skip = 7;
  Runtime::instance().attach(&recorder_, false, false, sampling);
  int a = 0;
  DP_LOOP_BEGIN();
  DP_LOOP_ITER();  // first skipped unit of the cycle
  DP_WRITE(a);     // dropped
  a = 1;
  DP_LOOP_END();
  DP_READ(a);  // outside any loop: always profiled, behind a gap marker
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_TRUE(t.events[0].is_burst_mark());
  EXPECT_TRUE(t.events[1].is_read());
}

TEST_F(RuntimeTest, SamplingDisabledUnderMtMode) {
  // Cross-thread gaps would need a global cut; the per-thread unit cannot
  // provide one, so mt_mode forces the gate off no matter the config.
  SamplingConfig sampling;
  sampling.burst = 1;
  sampling.skip = 9;
  Runtime::instance().attach(&recorder_, /*mt_mode=*/true, false, sampling);
  int a = 0;
  DP_LOOP_BEGIN();
  for (int i = 0; i < 6; ++i) {
    DP_LOOP_ITER();
    DP_WRITE(a);
    a = i;
  }
  DP_LOOP_END();
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 6u);
  for (const auto& e : t.events) EXPECT_FALSE(e.is_burst_mark());
}

TEST_F(RuntimeTest, SamplingOffConfigEmitsNoMarkersOrStats) {
  StatsRecorder sink;
  SamplingConfig sampling;  // budget 1.0, skip 0: entirely off
  Runtime::instance().attach(&sink, false, false, sampling);
  int a = 0;
  DP_LOOP_BEGIN();
  for (int i = 0; i < 4; ++i) {
    DP_LOOP_ITER();
    DP_WRITE(a);
    a = i;
  }
  DP_LOOP_END();
  Runtime::instance().detach();
  EXPECT_EQ(sink.trace_.events.size(), 4u);
  for (const auto& e : sink.trace_.events) EXPECT_FALSE(e.is_burst_mark());
  EXPECT_FALSE(sink.reported_) << "no stats callback when sampling is off";
}

TEST_F(RuntimeTest, SamplingStatsReportedOnDetach) {
  StatsRecorder sink;
  SamplingConfig sampling;
  sampling.burst = 1;
  sampling.skip = 1;
  Runtime::instance().attach(&sink, false, false, sampling);
  int a = 0;
  DP_LOOP_BEGIN();
  for (int i = 0; i < 4; ++i) {
    DP_LOOP_ITER();
    DP_WRITE(a);
    a = i;
  }
  DP_LOOP_END();
  Runtime::instance().detach();
  EXPECT_TRUE(sink.reported_);
  EXPECT_EQ(sink.sampled_out_, 2u);  // the writes of iterations 1 and 3
  EXPECT_EQ(sink.bursts_, 2u);       // one marker per closed gap
  EXPECT_EQ(sink.ppm_, 0u);          // fixed schedule: controller never ran
}

/// Sink whose reported profiling cost is a fixed 3/4 of elapsed wall time —
/// a measured overhead of cost/(wall-cost) = 3, far above any budget — so
/// the adaptive controller must raise the skip count deterministically.
class CostlySink : public AccessSink {
 public:
  CostlySink() : t0_(WallTimer::now()) {}
  void on_access(const AccessEvent&) override {}
  std::uint64_t profiling_cost_ns() const override {
    return (WallTimer::now() - t0_) * 3 / 4;
  }
  void on_sampling_stats(std::uint64_t events_sampled_out,
                         std::uint64_t bursts,
                         std::uint64_t overhead_ppm) override {
    sampled_out_ = events_sampled_out;
    bursts_ = bursts;
    ppm_ = overhead_ppm;
  }
  std::uint64_t sampled_out_ = 0;
  std::uint64_t bursts_ = 0;
  std::uint64_t ppm_ = 0;

 private:
  std::uint64_t t0_;
};

TEST_F(RuntimeTest, AdaptiveControllerThrottlesWhenOverBudget) {
  CostlySink sink;
  SamplingConfig sampling;
  sampling.budget = 0.05;
  sampling.burst = 2;
  Runtime::instance().attach(&sink, false, false, sampling);
  int a = 0;
  for (int round = 0; round < 200; ++round) {
    DP_LOOP_BEGIN();
    for (int i = 0; i < 8; ++i) {
      DP_LOOP_ITER();
      DP_WRITE(a);
      a = i;
    }
    DP_LOOP_END();
  }
  Runtime::instance().detach();
  EXPECT_GT(sink.sampled_out_, 0u) << "controller never raised the skip count";
  EXPECT_GE(sink.bursts_, 1u);
  EXPECT_GT(sink.ppm_, 0u) << "measured overhead never published";
}

}  // namespace
}  // namespace depprof
