// Tests for the trace substrate: containers, statistics, synthetic
// generators, recorder/replay, and binary trace I/O.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "oracle/corpus.hpp"
#include "trace/generators.hpp"
#include "trace/nest.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace depprof {
namespace {

/// One v02 trace-file event record (the layout trace_io.cpp writes), for
/// hand-made files the writer cannot produce.
struct RawEvent {
  std::uint64_t addr = 0;
  std::uint64_t ts = 0;
  std::uint32_t loc = 0;
  std::uint32_t var = 0;
  std::uint32_t ctx = 0;
  std::uint32_t iters[kNestIters] = {};
  std::uint16_t tid = 0;
  std::uint8_t kind = 0;
  std::uint8_t flags = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(RawEvent) == 64);

/// Writes a v02 trace file from file-local nest nodes {parent, loop}
/// (ids 1, 2, ...) and raw event records.
void write_raw_trace(const std::string& path,
                     const std::vector<std::array<std::uint32_t, 2>>& nodes,
                     const std::vector<RawEvent>& events) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char magic[8] = {'D', 'E', 'P', 'T', 'R', 'C', '0', '2'};
  std::fwrite(magic, 1, sizeof(magic), f);
  const std::uint64_t node_count = nodes.size();
  std::fwrite(&node_count, 1, sizeof(node_count), f);
  for (const auto& n : nodes) std::fwrite(n.data(), 1, sizeof(n), f);
  const std::uint64_t count = events.size();
  std::fwrite(&count, 1, sizeof(count), f);
  for (const RawEvent& ev : events) std::fwrite(&ev, 1, sizeof(ev), f);
  std::fclose(f);
}

TEST(Trace, StatisticsMatchGeneratorParams) {
  GenParams p;
  p.accesses = 10'000;
  p.distinct = 500;
  p.write_ratio = 0.3;
  const Trace t = gen_uniform(p);
  EXPECT_EQ(t.size(), 10'000u);
  EXPECT_LE(t.distinct_addresses(), 500u);
  EXPECT_GE(t.distinct_addresses(), 450u);  // nearly all touched
  EXPECT_NEAR(t.write_ratio(), 0.3, 0.05);
}

TEST(Generators, Deterministic) {
  GenParams p;
  p.accesses = 1'000;
  const Trace a = gen_uniform(p);
  const Trace b = gen_uniform(p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events[i].addr, b.events[i].addr);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
  }
}

TEST(Generators, SeedChangesStream) {
  GenParams p;
  p.accesses = 1'000;
  const Trace a = gen_uniform(p);
  p.seed = 99;
  const Trace b = gen_uniform(p);
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    diff += a.events[i].addr != b.events[i].addr ? 1 : 0;
  EXPECT_GT(diff, 100u);
}

TEST(Generators, StridedSweepsLinearly) {
  GenParams p;
  p.accesses = 100;
  p.distinct = 50;
  p.stride = 16;
  const Trace t = gen_strided(p);
  for (std::size_t i = 1; i < 50; ++i)
    EXPECT_EQ(t.events[i].addr - t.events[i - 1].addr, 16u);
  EXPECT_EQ(t.events[50].addr, t.events[0].addr);  // second sweep restarts
}

TEST(Generators, ZipfIsHeavilySkewed) {
  GenParams p;
  p.accesses = 50'000;
  p.distinct = 1'000;
  const Trace t = gen_zipf(p, 1.2);
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (const auto& ev : t.events) ++counts[ev.addr];
  std::uint64_t max_count = 0;
  for (const auto& [addr, c] : counts) max_count = std::max(max_count, c);
  // The hottest address absorbs far more than a uniform share.
  EXPECT_GT(max_count, 50'000u / 1'000u * 10);
}

TEST(Generators, LoopTraceCarriesLoopContext) {
  GenParams p;
  p.distinct = 10;
  const Trace t = gen_loop(p, /*iters=*/3, /*carried=*/true, /*loop_id=*/7);
  ASSERT_EQ(t.size(), 3u * 10u * 2u);
  const NestForest& forest = nest_forest();
  for (const auto& ev : t.events) {
    ASSERT_NE(ev.ctx, NestForest::kRoot);
    EXPECT_EQ(forest.loop(ev.ctx), 7u);
    EXPECT_EQ(forest.depth(ev.ctx), 1u);
  }
  // All events share one dynamic loop entry; iter tracks the iteration.
  EXPECT_EQ(t.events.back().ctx, t.events[0].ctx);
  EXPECT_EQ(t.events[0].iter, 0u);
  EXPECT_EQ(t.events.back().iter, 2u);
}

TEST(Generators, NestTraceBuildsDeepImperfectNests) {
  GenParams p;
  p.seed = 11;
  const Trace t = gen_nest(p, /*depth=*/3, /*width=*/3);
  ASSERT_FALSE(t.events.empty());
  const NestForest& forest = nest_forest();
  std::size_t max_depth = 0;
  std::size_t shallow = 0;  // events stamped above the deepest level
  for (const auto& ev : t.events) {
    ASSERT_LT(ev.ctx, forest.size());
    const std::size_t d = forest.depth(ev.ctx);
    max_depth = std::max(max_depth, d);
    if (d > 0 && d < 3) ++shallow;
  }
  EXPECT_EQ(max_depth, 3u);
  // The nest is imperfect: outer levels issue accesses of their own.
  EXPECT_GT(shallow, 0u);
}

TEST(Generators, ChurnTraceNestStampsAreConsistent) {
  GenParams p;
  p.accesses = 2'000;
  p.seed = 5;
  const Trace t = gen_churn(p, 0.2, /*threads=*/0, /*nest_depth=*/3);
  const NestForest& forest = nest_forest();
  std::size_t distinct_ctx = 0;
  std::uint32_t last_ctx = NestForest::kRoot;
  for (const auto& ev : t.events) {
    if (ev.is_free()) continue;
    ASSERT_NE(ev.ctx, NestForest::kRoot);
    EXPECT_EQ(forest.depth(ev.ctx), 3u);
    if (ev.ctx != last_ctx) {
      ++distinct_ctx;
      last_ctx = ev.ctx;
    }
  }
  // Sibling re-entry of the innermost loop creates fresh contexts mid-trace.
  EXPECT_GT(distinct_ctx, 1u);
}

TEST(Generators, MtTraceHasTimestampsAndThreads) {
  GenParams p;
  p.accesses = 1'000;
  const Trace t = gen_mt_producer_consumer(p, /*threads=*/4, /*shared=*/16);
  std::uint64_t prev_ts = 0;
  bool all_threads[4] = {};
  for (const auto& ev : t.events) {
    EXPECT_GT(ev.ts, prev_ts);
    prev_ts = ev.ts;
    ASSERT_LT(ev.tid, 4u);
    all_threads[ev.tid] = true;
  }
  for (bool seen : all_threads) EXPECT_TRUE(seen);
}

TEST(TraceRecorder, CapturesAndReplays) {
  GenParams p;
  p.accesses = 500;
  const Trace t = gen_uniform(p);
  TraceRecorder rec;
  replay(t, rec);
  ASSERT_EQ(rec.trace().size(), t.size());
  EXPECT_EQ(rec.trace().events[0].addr, t.events[0].addr);
}

TEST(TraceIo, RoundTrip) {
  GenParams p;
  p.accesses = 777;
  const Trace t = gen_zipf(p);
  const std::string path = "/tmp/depprof_trace_test.bin";
  ASSERT_TRUE(write_trace(t, path));
  Trace back;
  ASSERT_TRUE(read_trace(back, path));
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.events[i].addr, t.events[i].addr);
    EXPECT_EQ(back.events[i].loc, t.events[i].loc);
    EXPECT_EQ(back.events[i].kind, t.events[i].kind);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, NestContextsSurviveRoundTrip) {
  // Events stamped with interned nest contexts must come back with the same
  // nest *shape* (loop ids, depths, parent linkage, entry iterations) and
  // iterations even though the reader re-interns fresh forest ids.
  NestForest& forest = nest_forest();
  const std::uint32_t outer = forest.enter(NestForest::kRoot, 40, 0);
  const std::uint32_t in1 = forest.enter(outer, 41, 2);
  const std::uint32_t in2 = forest.enter(outer, 41, 3);  // sibling re-entry
  Trace t;
  AccessEvent ev;
  ev.kind = AccessKind::kWrite;
  ev.addr = 100;
  ev.ctx = in1;
  ev.iter = 5;
  t.events.push_back(ev);
  ev.kind = AccessKind::kRead;
  ev.addr = 100;
  ev.ctx = in2;
  ev.iter = 0;
  t.events.push_back(ev);
  ev.ctx = NestForest::kRoot;  // an event outside any loop
  t.events.push_back(ev);

  const std::string path = "/tmp/depprof_nest_trace_test.bin";
  ASSERT_TRUE(write_trace(t, path));
  Trace back;
  ASSERT_TRUE(read_trace(back, path));
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), 3u);

  const AccessEvent& a = back.events[0];
  const AccessEvent& b = back.events[1];
  EXPECT_EQ(forest.loop(a.ctx), 41u);
  EXPECT_EQ(forest.depth(a.ctx), 2u);
  EXPECT_EQ(forest.loop(forest.parent(a.ctx)), 40u);
  EXPECT_EQ(forest.entry_iter(a.ctx), 2u);
  EXPECT_EQ(a.iter, 5u);
  EXPECT_EQ(forest.entry_iter(b.ctx), 3u);
  EXPECT_EQ(forest.loop(b.ctx), 41u);
  // The two sibling entries stay distinct but share the same parent entry.
  EXPECT_NE(a.ctx, b.ctx);
  EXPECT_EQ(forest.parent(a.ctx), forest.parent(b.ctx));
  EXPECT_EQ(back.events[2].ctx, NestForest::kRoot);
}

TEST(TraceIo, GeneratedNestTraceRoundTripsAttribution) {
  GenParams p;
  p.seed = 3;
  const Trace t = gen_nest(p, /*depth=*/3, /*width=*/3);
  const std::string path = "/tmp/depprof_nest_gen_trace_test.bin";
  ASSERT_TRUE(write_trace(t, path));
  Trace back;
  ASSERT_TRUE(read_trace(back, path));
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), t.size());
  const NestForest& forest = nest_forest();
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Re-interned ids may differ; the per-event nest chain must not.
    std::uint32_t orig = t.events[i].ctx;
    std::uint32_t got = back.events[i].ctx;
    ASSERT_EQ(forest.depth(got), forest.depth(orig));
    while (orig != NestForest::kRoot) {
      EXPECT_EQ(forest.loop(got), forest.loop(orig));
      orig = forest.parent(orig);
      got = forest.parent(got);
    }
    EXPECT_EQ(got, NestForest::kRoot);
    EXPECT_EQ(back.events[i].iter, t.events[i].iter);
    std::uint32_t wa[kNestIters], wb[kNestIters];
    forest.window(t.events[i].ctx, t.events[i].iter, wa);
    forest.window(back.events[i].ctx, back.events[i].iter, wb);
    for (std::size_t d = 0; d < kNestIters; ++d) EXPECT_EQ(wb[d], wa[d]);
  }
}

TEST(TraceIo, RejectsMalformedNestTables) {
  const std::string path = "/tmp/depprof_bad_nest_trace_test.bin";
  const char magic[8] = {'D', 'E', 'P', 'T', 'R', 'C', '0', '2'};
  Trace out;

  // Node table claims more nodes than the file holds.
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(magic, 1, sizeof(magic), f);
    const std::uint64_t node_count = 1'000'000;
    std::fwrite(&node_count, 1, sizeof(node_count), f);
    std::fclose(f);
    EXPECT_FALSE(read_trace(out, path));
  }

  // A node whose parent is itself / a later node (forward reference).
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(magic, 1, sizeof(magic), f);
    const std::uint64_t node_count = 1;
    std::fwrite(&node_count, 1, sizeof(node_count), f);
    const std::uint32_t node[2] = {1, 7};  // parent == own id
    std::fwrite(node, 1, sizeof(node), f);
    const std::uint64_t count = 0;
    std::fwrite(&count, 1, sizeof(count), f);
    std::fclose(f);
    EXPECT_FALSE(read_trace(out, path));
  }

  // An event referencing a context id beyond the declared node table.
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(magic, 1, sizeof(magic), f);
    const std::uint64_t node_count = 1;
    std::fwrite(&node_count, 1, sizeof(node_count), f);
    const std::uint32_t node[2] = {0, 7};
    std::fwrite(node, 1, sizeof(node), f);
    const std::uint64_t count = 1;
    std::fwrite(&count, 1, sizeof(count), f);
    RawEvent ev;
    ev.ctx = 2;  // only node 1 was declared
    std::fwrite(&ev, 1, sizeof(ev), f);
    std::fclose(f);
    EXPECT_FALSE(read_trace(out, path));
  }

  // Address and timestamp beyond the event's 48-bit fields.
  for (const bool ts : {false, true}) {
    RawEvent ev;
    (ts ? ev.ts : ev.addr) = kEventFieldMax + 1;
    write_raw_trace(path, {}, {ev});
    EXPECT_FALSE(read_trace(out, path));
    (ts ? ev.ts : ev.addr) = kEventFieldMax;
    write_raw_trace(path, {}, {ev});
    EXPECT_TRUE(read_trace(out, path));
  }
  std::remove(path.c_str());
}

TEST(TraceIo, DerivesEntryIterationsAndRejectsContradictions) {
  // The nest table carries no entry iterations: the reader takes them from
  // the events, and rejects events of one entry that disagree about it.
  NestForest& forest = nest_forest();
  const std::string path = "/tmp/depprof_entry_iter_trace_test.bin";
  RawEvent ev;
  ev.ctx = 2;  // inner (file-local id 2) under outer (id 1)
  ev.iters[0] = 6;
  ev.iters[1] = 1;
  write_raw_trace(path, {{0, 44}, {1, 45}}, {ev});
  Trace back;
  ASSERT_TRUE(read_trace(back, path));
  EXPECT_EQ(forest.entry_iter(back.events[0].ctx), 6u);
  EXPECT_EQ(forest.entry_iter(forest.parent(back.events[0].ctx)), 0u);
  EXPECT_EQ(back.events[0].iter, 1u);

  RawEvent contradicting = ev;
  contradicting.iters[0] = 7;  // same inner entry, different outer iteration
  write_raw_trace(path, {{0, 44}, {1, 45}}, {ev, contradicting});
  EXPECT_FALSE(read_trace(back, path));
  std::remove(path.c_str());
}

TEST(NestForest, ThrowsInsteadOfWrappingIdsToRoot) {
  // A forest one id short of the 32-bit limit: the last id is handed out,
  // the next enter() throws, and nothing wraps onto the root.
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  NestForest forest(NestForest::StartAt{kMax - 1});
  const std::uint32_t last = forest.enter(NestForest::kRoot, 7, 0);
  EXPECT_EQ(last, kMax - 1);
  EXPECT_EQ(forest.size(), kMax);
  EXPECT_THROW(forest.enter(last, 8, 3), std::length_error);
  EXPECT_EQ(forest.size(), kMax);
  EXPECT_EQ(forest.depth(NestForest::kRoot), 0u);
  EXPECT_EQ(forest.loop(NestForest::kRoot), 0u);
  EXPECT_EQ(forest.loop(last), 7u);
  EXPECT_EQ(forest.depth(last), 1u);
}

/// The stream the committed tests/data/nest10.* files were written from: a
/// ten-deep nest (three iterations per level, the child entered at
/// iteration 1, and depth 9 re-entered at depth 8's iteration 2) with MT
/// fields set, built the way a loop-stack producer stamps events.
Trace ten_deep_nest() {
  struct Level {
    std::uint32_t node;
    std::uint32_t iter;
  };
  std::vector<Level> stack;
  std::uint64_t ts = 0;
  Trace t;
  const auto emit = [&](AccessKind k, std::uint32_t level, std::uint32_t line) {
    AccessEvent ev;
    ev.addr = 0x4000 + level * 16 + (line % 3) * 4;
    ev.kind = k;
    ev.loc = SourceLocation(2, line).packed();
    ev.var = level;
    ev.tid = static_cast<std::uint16_t>(level % 3);
    ev.ts = ++ts;
    ev.flags = (level % 2) != 0 ? kInLockRegion : 0;
    ev.ctx = stack.back().node;
    ev.iter = stack[std::min(stack.size(), kNestIters) - 1].iter;
    t.events.push_back(ev);
  };
  const auto level_fn = [&](auto& self, std::uint32_t level) -> void {
    const std::uint32_t parent =
        stack.empty() ? NestForest::kRoot : stack.back().node;
    const std::uint32_t entry = stack.empty() ? 0 : stack.back().iter;
    stack.push_back({nest_forest().enter(parent, 1000 + level, entry), 0});
    for (std::uint32_t k = 0; k < 3; ++k) {
      emit(AccessKind::kRead, level, 100 + level);
      if (level < 10 && (k == 1 || (level == 8 && k == 2)))
        self(self, level + 1);
      emit(AccessKind::kWrite, level, 200 + level);
      stack.back().iter += 1;
    }
    stack.pop_back();
  };
  level_fn(level_fn, 1);
  AccessEvent free_ev;
  free_ev.addr = 0x4000 + 16;
  free_ev.kind = AccessKind::kFree;
  free_ev.ts = ++ts;
  t.events.push_back(free_ev);
  return t;
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// Events equal field by field, contexts compared by nest shape and entry
/// iterations (readers re-intern fresh forest ids).
void expect_same_events(const Trace& got, const Trace& want) {
  const NestForest& forest = nest_forest();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const AccessEvent& a = got.events[i];
    const AccessEvent& b = want.events[i];
    EXPECT_EQ(a.addr, b.addr) << i;
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.flags, b.flags) << i;
    EXPECT_EQ(a.ts, b.ts) << i;
    EXPECT_EQ(a.tid, b.tid) << i;
    EXPECT_EQ(a.loc, b.loc) << i;
    EXPECT_EQ(a.var, b.var) << i;
    EXPECT_EQ(a.iter, b.iter) << i;
    ASSERT_EQ(forest.depth(a.ctx), forest.depth(b.ctx)) << i;
    for (std::uint32_t x = a.ctx, y = b.ctx; x != NestForest::kRoot;
         x = forest.parent(x), y = forest.parent(y)) {
      EXPECT_EQ(forest.loop(x), forest.loop(y)) << i;
      // Readers derive entry iterations down to depth kNestIters + 1 only.
      if (forest.depth(x) <= kNestIters + 1) {
        EXPECT_EQ(forest.entry_iter(x), forest.entry_iter(y)) << i;
      }
    }
  }
}

TEST(TraceIo, TenDeepNestFilesMatchCommittedBytes) {
  // tests/data/nest10.{trc,repro} were written from this stream by events
  // that carried the iteration window themselves; the writers rebuild the
  // window from the forest and must reproduce those files byte for byte.
  const Trace t = ten_deep_nest();
  const std::string dir = DEPPROF_TEST_DATA_DIR;
  const std::string path = "/tmp/depprof_nest10_test.trc";
  ASSERT_TRUE(write_trace(t, path));
  EXPECT_EQ(file_bytes(path), file_bytes(dir + "/nest10.trc"));
  std::remove(path.c_str());
  ReproCase rc;
  rc.note = "10-deep nest golden";
  rc.trace = t;
  rc.cfg.mt_targets = true;
  EXPECT_EQ(format_repro(rc), file_bytes(dir + "/nest10.repro"));

  // Reading them back gives the same events.
  Trace back;
  ASSERT_TRUE(read_trace(back, dir + "/nest10.trc"));
  expect_same_events(back, t);
  ReproCase parsed;
  std::string err;
  ASSERT_TRUE(read_repro(parsed, dir + "/nest10.repro", &err)) << err;
  expect_same_events(parsed.trace, t);
  EXPECT_EQ(format_repro(parsed), file_bytes(dir + "/nest10.repro"));
}

TEST(TraceIo, RejectsMissingAndMalformedFiles) {
  Trace out;
  EXPECT_FALSE(read_trace(out, "/tmp/depprof_does_not_exist.bin"));
  const std::string path = "/tmp/depprof_garbage.bin";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a trace", f);
  std::fclose(f);
  EXPECT_FALSE(read_trace(out, path));
  EXPECT_TRUE(out.events.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace depprof
