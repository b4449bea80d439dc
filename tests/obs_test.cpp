// Tests for the src/obs observability layer: counter semantics, snapshot
// shape, monotonicity of live snapshots, stall accounting under a
// capacity-1 queue, merge-stage population, and the report renderers.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/profiler.hpp"
#include "obs/bench_report.hpp"
#include "obs/report.hpp"
#include "obs/stage_stats.hpp"
#include "trace/event.hpp"

namespace depprof {
namespace {

AccessEvent access(std::uint64_t addr, AccessKind kind, std::uint32_t line) {
  AccessEvent ev;
  ev.addr = addr;
  ev.kind = kind;
  ev.loc = SourceLocation(1, line).packed();
  return ev;
}

/// True when every counter of `later` is >= the matching counter of
/// `earlier` — the component-wise order monotonic counters guarantee.
bool stage_ge(const obs::StageSnapshot& later, const obs::StageSnapshot& earlier) {
  return later.events >= earlier.events && later.chunks >= earlier.chunks &&
         later.stalls >= earlier.stalls &&
         later.queue_depth_hwm >= earlier.queue_depth_hwm &&
         later.busy_ns >= earlier.busy_ns && later.cpu_ns >= earlier.cpu_ns &&
         later.idle_ns >= earlier.idle_ns &&
         later.idle_cpu_ns >= earlier.idle_cpu_ns &&
         later.parked_ns >= earlier.parked_ns && later.parks >= earlier.parks &&
         later.block_ns >= earlier.block_ns && later.wakes >= earlier.wakes &&
         later.migrations >= earlier.migrations &&
         later.rounds >= earlier.rounds &&
         later.resident_pages >= earlier.resident_pages &&
         later.hugepage_fallbacks >= earlier.hugepage_fallbacks;
}

bool snapshot_ge(const obs::PipelineSnapshot& later,
                 const obs::PipelineSnapshot& earlier) {
  for (const auto& s : earlier.stages) {
    const obs::StageSnapshot* l = later.find(s.stage);
    if (l == nullptr || !stage_ge(*l, s)) return false;
  }
  return true;
}

TEST(StageStats, CountersAccumulate) {
  obs::StageStats s;
  s.add_events(3);
  s.add_events(4);
  s.add_chunks(2);
  s.add_stalls(1);
  s.add_busy_ns(10);
  s.add_cpu_ns(8);
  s.add_idle_ns(20);
  s.add_idle_cpu_ns(15);
  s.add_parked_ns(12);
  s.add_parks(2);
  s.add_block_ns(7);
  s.add_wakes(3);
  s.add_wakes(0);  // no-waiter fast path adds nothing
  s.add_migrations(5);
  s.add_rounds(1);
  s.add_resident_pages(6);
  s.add_hugepage_fallbacks(4);
  EXPECT_EQ(s.events.load(), 7u);
  EXPECT_EQ(s.chunks.load(), 2u);
  EXPECT_EQ(s.stalls.load(), 1u);
  EXPECT_EQ(s.busy_ns.load(), 10u);
  EXPECT_EQ(s.cpu_ns.load(), 8u);
  EXPECT_EQ(s.idle_ns.load(), 20u);
  EXPECT_EQ(s.idle_cpu_ns.load(), 15u);
  EXPECT_EQ(s.parked_ns.load(), 12u);
  EXPECT_EQ(s.parks.load(), 2u);
  EXPECT_EQ(s.block_ns.load(), 7u);
  EXPECT_EQ(s.wakes.load(), 3u);
  EXPECT_EQ(s.migrations.load(), 5u);
  EXPECT_EQ(s.rounds.load(), 1u);
  EXPECT_EQ(s.resident_pages.load(), 6u);
  EXPECT_EQ(s.hugepage_fallbacks.load(), 4u);
}

TEST(StageStats, QueueDepthIsHighWaterMark) {
  obs::StageStats s;
  s.raise_queue_depth(5);
  s.raise_queue_depth(3);  // lower: must not regress
  EXPECT_EQ(s.queue_depth_hwm.load(), 5u);
  s.raise_queue_depth(9);
  EXPECT_EQ(s.queue_depth_hwm.load(), 9u);
}

TEST(PipelineObs, SnapshotHasOneBlockPerStage) {
  obs::PipelineObs obs(3);
  obs.produce().add_events(10);
  obs.detect(1).add_events(4);
  obs.merge().add_chunks(3);

  const obs::PipelineSnapshot snap = obs.snapshot();
  ASSERT_EQ(snap.stages.size(), 3u + 3u);  // produce, route, 3x detect, merge
  EXPECT_EQ(snap.stages.front().stage, "produce");
  EXPECT_EQ(snap.stages.back().stage, "merge");
  ASSERT_NE(snap.find("detect[1]"), nullptr);
  EXPECT_EQ(snap.find("detect[1]")->events, 4u);
  EXPECT_EQ(snap.find("produce")->events, 10u);
  EXPECT_EQ(snap.detect_events(), 4u);
  EXPECT_EQ(snap.find("bogus"), nullptr);
}

TEST(PipelineObs, ZeroWorkersClampsToOne) {
  obs::PipelineObs obs(0);
  EXPECT_EQ(obs.workers(), 1u);
  EXPECT_EQ(obs.snapshot().stages.size(), 4u);
}

// Mid-run snapshots of a live parallel pipeline are component-wise <= every
// later snapshot: counters only ever increase.
TEST(PipelineObs, LiveSnapshotsAreMonotonic) {
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kSignature;
  cfg.slots = 1u << 14;
  cfg.workers = 2;
  cfg.chunk_size = 16;
  auto prof = make_parallel_profiler(cfg);
  ASSERT_NE(prof, nullptr);

  std::vector<obs::PipelineSnapshot> snaps;
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t i = 0; i < 2'000; ++i)
      prof->on_access(access(0x1000 + (i % 256) * 8,
                             i % 3 == 0 ? AccessKind::kWrite : AccessKind::kRead,
                             10 + static_cast<std::uint32_t>(i % 7)));
    snaps.push_back(prof->stats().stages);
  }
  prof->finish();
  snaps.push_back(prof->stats().stages);

  for (std::size_t i = 1; i < snaps.size(); ++i)
    EXPECT_TRUE(snapshot_ge(snaps[i], snaps[i - 1])) << "snapshot " << i;

  // Everything produced was eventually detected: after finish() the detect
  // stages have consumed exactly the produced events.
  const obs::PipelineSnapshot& last = snaps.back();
  EXPECT_EQ(last.find("produce")->events, 8'000u);
  EXPECT_EQ(last.detect_events(), 8'000u);
}

// A capacity-1 queue with single-access chunks forces the producer to find
// the queue full, so the produce-stage stall counter must fire.
TEST(PipelineObs, StallCounterFiresUnderTinyQueue) {
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kSignature;
  cfg.slots = 1u << 14;
  cfg.workers = 1;
  cfg.chunk_size = 1;
  cfg.queue_capacity = 1;
  auto prof = make_parallel_profiler(cfg);
  ASSERT_NE(prof, nullptr);

  for (std::uint64_t i = 0; i < 50'000; ++i)
    prof->on_access(access(0x2000 + (i % 64) * 8, AccessKind::kWrite, 11));
  prof->finish();

  const obs::PipelineSnapshot snap = prof->stats().stages;
  const obs::StageSnapshot* produce = snap.find("produce");
  ASSERT_NE(produce, nullptr);
  EXPECT_GT(produce->stalls, 0u);
  EXPECT_GE(produce->queue_depth_hwm, 1u);
  // Every stall runs one bounded-backpressure wait episode, so the producer
  // block time must be visible too.
  EXPECT_GT(produce->block_ns, 0u);
}

// The merge stage is empty while the pipeline runs and is populated by
// finish(): one folded chunk per worker, and the counters survive into
// ProfilerStats for both profilers.
TEST(PipelineObs, MergeStagePopulatedByFinish) {
  for (bool parallel : {false, true}) {
    ProfilerConfig cfg;
    cfg.storage = StorageKind::kSignature;
    cfg.slots = 1u << 14;
    cfg.workers = parallel ? 3 : 0;
    auto prof = parallel ? make_parallel_profiler(cfg) : make_serial_profiler(cfg);
    ASSERT_NE(prof, nullptr);

    for (std::uint64_t i = 0; i < 1'000; ++i) {
      prof->on_access(access(0x3000 + i * 8, AccessKind::kWrite, 21));
      prof->on_access(access(0x3000 + i * 8, AccessKind::kRead, 22));
    }
    const obs::PipelineSnapshot before = prof->stats().stages;
    EXPECT_EQ(before.find("merge")->chunks, 0u);

    prof->finish();
    const ProfilerStats st = prof->stats();
    const obs::StageSnapshot* merge = st.stages.find("merge");
    ASSERT_NE(merge, nullptr);
    EXPECT_EQ(merge->chunks, parallel ? 3u : 1u);
    EXPECT_GT(merge->events, 0u);  // folded dependence records
    EXPECT_EQ(st.workers, parallel ? 3u : 1u);
    EXPECT_EQ(st.events, 2'000u);
  }
}

// Every stage that saw work reports nonzero busy time: produce and route
// are clocked per batch/sub-batch, detect and merge per chunk.  Covers the
// plain and the run-length-encoded batch paths of both profilers.
TEST(PipelineObs, EveryStageWithEventsReportsBusyTime) {
  for (bool parallel : {false, true}) {
    for (bool rle : {false, true}) {
      ProfilerConfig cfg;
      cfg.storage = StorageKind::kSignature;
      cfg.slots = 1u << 14;
      cfg.workers = parallel ? 2 : 0;
      auto prof =
          parallel ? make_parallel_profiler(cfg) : make_serial_profiler(cfg);
      ASSERT_NE(prof, nullptr);

      std::vector<AccessEvent> batch;
      const std::vector<std::uint32_t> reps(512, 2);
      for (std::uint64_t round = 0; round < 40; ++round) {
        batch.clear();
        for (std::uint64_t i = 0; i < reps.size(); ++i)
          batch.push_back(access(0x4000 + ((round * 512 + i) % 4096) * 8,
                                 i % 2 ? AccessKind::kRead : AccessKind::kWrite,
                                 31 + static_cast<std::uint32_t>(i % 2)));
        if (rle)
          prof->on_batch_rle(batch.data(), reps.data(), batch.size());
        else
          prof->on_batch(batch.data(), batch.size());
      }
      prof->finish();

      std::size_t with_events = 0;
      for (const obs::StageSnapshot& st : prof->stats().stages.stages) {
        if (st.events == 0) continue;
        ++with_events;
        EXPECT_GT(st.busy_ns, 0u)
            << st.stage << (parallel ? " parallel" : " serial")
            << (rle ? " rle" : "");
      }
      // produce + detect + merge, plus route on the pipeline.
      EXPECT_GE(with_events, parallel ? 5u : 3u);
    }
  }
}

TEST(Report, RenderersCoverEveryStage) {
  obs::PipelineObs obs(2);
  obs.produce().add_events(12);
  obs.detect(0).add_busy_ns(1'500'000'000);  // 1.5 s
  const obs::PipelineSnapshot snap = obs.snapshot();

  const std::string csv = obs::snapshot_csv(snap);
  EXPECT_NE(csv.find("stage,events,chunks,stalls,queue_depth_hwm,busy_sec"),
            std::string::npos);
  EXPECT_NE(csv.find("produce,12"), std::string::npos);
  EXPECT_NE(csv.find("detect[1]"), std::string::npos);

  const std::string json = obs::snapshot_json(snap);
  EXPECT_NE(json.find("\"stage\":\"produce\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"merge\""), std::string::npos);
  EXPECT_NE(json.find("1.500000"), std::string::npos);
  // Backpressure fields are part of every rendering.
  EXPECT_NE(json.find("\"parked_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"block_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"wakes\""), std::string::npos);
  EXPECT_NE(csv.find("parked_sec"), std::string::npos);
  // Store-residency fields likewise.
  EXPECT_NE(json.find("\"resident_pages\""), std::string::npos);
  EXPECT_NE(json.find("\"hugepage_fallbacks\""), std::string::npos);
  EXPECT_NE(csv.find("resident_pages"), std::string::npos);

  const std::string text = obs::snapshot_text(snap);
  EXPECT_NE(text.find("produce"), std::string::npos);
  EXPECT_NE(text.find("detect[0]"), std::string::npos);
}

TEST(Report, BenchReportEmitsMetricsAndBreakdowns) {
  obs::PipelineObs obs(1);
  obs.produce().add_events(7);

  obs::BenchReport report("obs_selftest");
  report.metric("ratio", 1.75);
  report.stages("serial", obs.snapshot());

  EXPECT_EQ(report.path(), "BENCH_obs_selftest.json");
  const std::string json = report.json();
  EXPECT_NE(json.find("\"bench\":\"obs_selftest\""), std::string::npos);
  EXPECT_NE(json.find("\"ratio\":1.75"), std::string::npos);
  EXPECT_NE(json.find("\"stage_breakdowns\":{\"serial\":"), std::string::npos);
  EXPECT_NE(json.find("\"events\":7"), std::string::npos);
}

}  // namespace
}  // namespace depprof
