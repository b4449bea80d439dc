// Tests for the differential-oracle harness stack (ISSUE 3): the exact
// reference oracle, the structured dependence diff, the expectation
// classifier and divergence budget, the ddmin shrinker, the repro corpus
// format, and the replay of every committed repro under tests/corpus.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "oracle/corpus.hpp"
#include "oracle/diff.hpp"
#include "oracle/exact_oracle.hpp"
#include "oracle/harness.hpp"
#include "oracle/shrinker.hpp"
#include "trace/generators.hpp"
#include "trace/nest.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace depprof {
namespace {

AccessEvent make_ev(AccessKind kind, std::uint64_t addr, std::uint32_t loc,
                    std::uint32_t var = 1, std::uint16_t tid = 0,
                    std::uint64_t ts = 0) {
  AccessEvent ev;
  ev.kind = kind;
  ev.addr = addr;
  ev.loc = loc;
  ev.var = var;
  ev.tid = tid;
  ev.ts = ts;
  return ev;
}

// --- exact oracle ---------------------------------------------------------

TEST(ExactOracle, BasicDependenceKinds) {
  Trace t;
  t.events.push_back(make_ev(AccessKind::kWrite, 0x100, 11));  // INIT
  t.events.push_back(make_ev(AccessKind::kRead, 0x100, 12));   // RAW 12<-11
  t.events.push_back(make_ev(AccessKind::kWrite, 0x100, 13));  // WAW + WAR
  t.events.push_back(make_ev(AccessKind::kRead, 0x100, 14));   // RAW 14<-13
  t.events.push_back(make_ev(AccessKind::kRead, 0x100, 15));   // RAR: ignored

  const DepMap deps = oracle_dependences(t, false);
  std::size_t init = 0, raw = 0, war = 0, waw = 0;
  for (const auto& [key, info] : deps) {
    switch (key.type) {
      case DepType::kInit: ++init; break;
      case DepType::kRaw: ++raw; break;
      case DepType::kWar: ++war; break;
      case DepType::kWaw: ++waw; break;
    }
  }
  EXPECT_EQ(init, 1u);
  EXPECT_EQ(raw, 3u);  // 12<-11, 14<-13, 15<-13 (distinct sink locations)
  EXPECT_EQ(war, 1u);
  EXPECT_EQ(waw, 1u);
}

TEST(ExactOracle, FreeRestartsLifetime) {
  Trace t;
  t.events.push_back(make_ev(AccessKind::kWrite, 0x100, 11));
  t.events.push_back(make_ev(AccessKind::kFree, 0x100, 0, 0));
  t.events.push_back(make_ev(AccessKind::kWrite, 0x100, 12));  // INIT again

  const DepMap deps = oracle_dependences(t, false);
  for (const auto& [key, info] : deps) EXPECT_NE(key.type, DepType::kWaw);
  EXPECT_EQ(deps.size(), 2u);  // two INITs
}

TEST(ExactOracle, LoopCarriedDistance) {
  const std::uint32_t entry = nest_forest().enter(NestForest::kRoot, 9, 0);
  Trace t;
  for (std::uint32_t i = 0; i < 4; ++i) {
    AccessEvent w = make_ev(AccessKind::kWrite, 0x200, 21);
    w.ctx = entry;
    w.iter = i;
    t.events.push_back(w);
    AccessEvent r = make_ev(AccessKind::kRead, 0x200, 22);
    r.ctx = entry;
    r.iter = i + 1;  // reads the previous iteration's value
    t.events.push_back(r);
  }
  const DepMap deps = oracle_dependences(t, false);
  bool carried_raw = false;
  for (const auto& [key, info] : deps) {
    if (key.type != DepType::kRaw) continue;
    carried_raw = true;
    EXPECT_TRUE(info.flags & kLoopCarried);
    EXPECT_EQ(info.carried_level(), 1u);
    EXPECT_EQ(info.carried_loop(), 9u);
    EXPECT_EQ(info.levels[0].d1, 4u);  // every instance at distance 1
    EXPECT_EQ(info.levels[0].d2p, 0u);
    EXPECT_EQ(info.min_carried_bucket(), 1u);
  }
  EXPECT_TRUE(carried_raw);
}

TEST(ExactOracle, NestedCommonLoopAttribution) {
  // Sink and source in different entries of an inner loop, same iteration
  // gap of the shared outer loop: the dependence is carried by the *outer*
  // loop (level 1), and the inner loop never shows up as carrier.
  NestForest& forest = nest_forest();
  const std::uint32_t outer = forest.enter(NestForest::kRoot, 5, 0);
  const std::uint32_t in1 = forest.enter(outer, 6, 0);
  const std::uint32_t in2 = forest.enter(outer, 6, 2);
  Trace t;
  AccessEvent w = make_ev(AccessKind::kWrite, 0x300, 31);
  w.ctx = in1;  // outer iteration 0 (in1's entry iteration)
  w.iter = 3;   // inner iteration
  t.events.push_back(w);
  AccessEvent r = make_ev(AccessKind::kRead, 0x300, 32);
  r.ctx = in2;  // outer iteration 2
  r.iter = 3;
  t.events.push_back(r);
  const DepMap deps = oracle_dependences(t, false);
  bool found = false;
  for (const auto& [key, info] : deps) {
    if (key.type != DepType::kRaw) continue;
    found = true;
    EXPECT_TRUE(info.flags & kLoopCarried);
    EXPECT_TRUE(info.flags & kCrossLoop);
    EXPECT_EQ(info.carried_level(), 1u);
    EXPECT_EQ(info.carried_loop(), 5u);
    EXPECT_EQ(info.levels[0].d2p, 1u);  // outer distance 2
    EXPECT_EQ(info.levels[1].carried(), 0u);
  }
  EXPECT_TRUE(found);
}

TEST(ExactOracle, MtCrossThreadAndReversed) {
  Trace t;
  t.events.push_back(make_ev(AccessKind::kWrite, 0x300, 31, 1, /*tid=*/0,
                             /*ts=*/50));
  t.events.push_back(make_ev(AccessKind::kRead, 0x300, 32, 1, /*tid=*/1,
                             /*ts=*/10));  // earlier ts: reversed
  const DepMap deps = oracle_dependences(t, true);
  bool found = false;
  for (const auto& [key, info] : deps) {
    if (key.type != DepType::kRaw) continue;
    found = true;
    EXPECT_EQ(key.sink_tid, 1u);
    EXPECT_EQ(key.src_tid, 0u);
    EXPECT_TRUE(info.flags & kCrossThread);
    EXPECT_TRUE(info.flags & kReversed);
  }
  EXPECT_TRUE(found);
}

// --- diff -----------------------------------------------------------------

TEST(DepDiff, CountsMissingExtraMismatch) {
  DepKey init;
  init.sink_loc = 11;
  init.type = DepType::kInit;
  DepKey raw;
  raw.sink_loc = 12;
  raw.src_loc = 11;
  raw.type = DepType::kRaw;

  DepMap expected;
  expected.add(init, 0);
  expected.add(raw, 0);
  DepMap same;
  same.add(init, 0);
  same.add(raw, 0);
  EXPECT_TRUE(diff_deps(expected, same).identical());

  // Double-count one record and invent one key.
  DepMap mutated;
  mutated.add(init, 0);
  mutated.add(raw, 0);
  mutated.add(raw, 0);
  DepKey invented;
  invented.sink_loc = 999;
  invented.type = DepType::kWaw;
  mutated.add(invented, 0);
  const DepDiff d1 = diff_deps(expected, mutated);
  EXPECT_EQ(d1.extra, 1u);
  EXPECT_EQ(d1.mismatched, 1u);
  EXPECT_FALSE(d1.identical());
  EXPECT_FALSE(format_diff(d1, "oracle", "profiler").empty());

  // Drop one key.
  DepMap dropped;
  dropped.add(init, 0);
  const DepDiff d2 = diff_deps(expected, dropped);
  EXPECT_EQ(d2.missing, 1u);
}

// --- harness --------------------------------------------------------------

TEST(Harness, ClassifiesExpectations) {
  GenParams p;
  p.accesses = 500;
  p.distinct = 100;
  const Trace t = gen_uniform(p);

  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPerfect;
  EXPECT_EQ(classify_expectation(cfg, t), Expectation::kExact);

  cfg.storage = StorageKind::kSignature;
  cfg.sig_hash = SigHash::kModulo;
  cfg.slots = 1u << 20;  // span of 100 strided words fits easily
  EXPECT_EQ(classify_expectation(cfg, t), Expectation::kExact);

  cfg.slots = 8;  // span exceeds the slot count: collisions possible
  EXPECT_EQ(classify_expectation(cfg, t), Expectation::kBounded);

  cfg.sig_hash = SigHash::kMix;
  cfg.slots = 1u << 20;  // mixed hash never proves injectivity
  EXPECT_EQ(classify_expectation(cfg, t), Expectation::kBounded);
}

TEST(Harness, ExactCasesHoldAcrossBackends) {
  GenParams p;
  p.accesses = 3000;
  p.distinct = 400;
  const Trace t = gen_churn(p, 0.2);
  for (const StorageKind storage :
       {StorageKind::kPerfect, StorageKind::kShadow, StorageKind::kHashTable,
        StorageKind::kPacked, StorageKind::kSignature}) {
    ProfilerConfig cfg;
    cfg.storage = storage;
    cfg.workers = 3;
    cfg.chunk_size = 16;
    const CaseOutcome outcome = run_case(t, cfg);
    EXPECT_TRUE(outcome.ok) << storage_kind_name(storage) << "\n"
                            << outcome.detail;
  }
}

/// Depth-2 nest whose inner loop is re-entered once per outer iteration:
/// inner entry i starts at outer iteration i (entry_iter = i, or 0 when
/// `force_zero_entry_iter`).  The inner body writes a[j]; the outer body
/// then reads a[0].  Every dependence resolves to the outer loop through a
/// source recorded in an inner entry, so its distance needs the source's
/// outer iteration, which slots recover from the forest's entry_iter.
Trace reentered_inner_trace(bool force_zero_entry_iter) {
  NestForest& forest = nest_forest();
  const std::uint32_t outer = forest.enter(NestForest::kRoot, 70, 0);
  Trace t;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const std::uint32_t inner =
        forest.enter(outer, 71, force_zero_entry_iter ? 0 : i);
    for (std::uint32_t j = 0; j < 3; ++j) {
      AccessEvent w = make_ev(AccessKind::kWrite, 0x500 + 8 * j, 41);
      w.ctx = inner;
      w.iter = j;
      t.events.push_back(w);
    }
    AccessEvent r = make_ev(AccessKind::kRead, 0x500, 42);
    r.ctx = outer;
    r.iter = i;
    t.events.push_back(r);
  }
  return t;
}

TEST(Harness, EntryIterationCarriesAncestorLevelAcrossBackends) {
  Trace t = reentered_inner_trace(false);
  // The same trace through the trace-file reader, which has to derive the
  // entry iterations from the events.
  const std::string path =
      (std::filesystem::temp_directory_path() / "depprof_entry_iter.trc")
          .string();
  ASSERT_TRUE(write_trace(t, path));
  Trace from_file;
  ASSERT_TRUE(read_trace(from_file, path));
  std::filesystem::remove(path);
  const Trace zeroed = reentered_inner_trace(true);
  for (const StorageKind storage :
       {StorageKind::kPerfect, StorageKind::kShadow, StorageKind::kHashTable,
        StorageKind::kPacked, StorageKind::kSignature}) {
    ProfilerConfig cfg;
    cfg.storage = storage;
    cfg.workers = 2;
    cfg.chunk_size = 4;
    for (const Trace* trace : {&t, &from_file}) {
      const CaseOutcome outcome = run_case(*trace, cfg);
      EXPECT_TRUE(outcome.ok) << storage_kind_name(storage) << "\n"
                              << outcome.detail;
    }
    // Forcing entry_iter to 0 describes a different program; the profilers
    // follow the forest exactly as the oracle does.
    EXPECT_TRUE(run_case(zeroed, cfg).ok) << storage_kind_name(storage);
  }
  // The entry iterations are load-bearing: zeroing them changes the
  // outer-level distances.
  EXPECT_FALSE(
      diff_deps(oracle_dependences(t), oracle_dependences(zeroed)).identical());
}

TEST(Harness, BoundedBudgetGrowsWithPredictedFpr) {
  GenParams p;
  p.accesses = 2000;
  p.distinct = 1000;
  const Trace t = gen_uniform(p);
  ProfilerConfig small, large;
  small.slots = 256;
  large.slots = 1u << 20;
  const DivergenceBudget b_small = divergence_budget(small, t, 100);
  const DivergenceBudget b_large = divergence_budget(large, t, 100);
  EXPECT_GT(b_small.fpr, b_large.fpr);
  EXPECT_GE(b_small.max_divergent_keys, b_large.max_divergent_keys);
}

// --- overhead-budget sampling ---------------------------------------------

TEST(Harness, SampleStreamIsIdentityAtSkipZero) {
  GenParams p;
  p.accesses = 2000;
  p.distinct = 128;
  const Trace t = gen_loop(p, 24, true);
  const Trace s = sample_stream(t, 8, 0);
  ASSERT_EQ(s.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(std::memcmp(&s.events[i], &t.events[i], sizeof(AccessEvent)), 0)
        << "event " << i << " diverged";
  }
}

TEST(Harness, SampleStreamDropsIterationsAndClosesGaps) {
  GenParams p;
  p.accesses = 2000;
  p.distinct = 128;
  const Trace t = gen_loop(p, 24, true);
  const Trace s = sample_stream(t, 1, 1);  // 50% duty, burst of one iteration
  ASSERT_LT(s.events.size(), t.events.size());
  // Every marker must directly precede a kept access (gap-close rule), and
  // at 50% duty with >1 outermost iteration at least one gap must close.
  std::size_t markers = 0;
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    if (!s.events[i].is_burst_mark()) continue;
    ++markers;
    ASSERT_LT(i + 1, s.events.size()) << "trailing marker";
    EXPECT_FALSE(s.events[i + 1].is_burst_mark());
  }
  EXPECT_GE(markers, 1u);
}

TEST(Harness, SampledOracleSatisfiesSubsetContract) {
  GenParams p;
  p.accesses = 4000;
  p.distinct = 256;
  for (const Trace& t : {gen_loop(p, 32, true), gen_churn(p, 0.25, 0, 3)}) {
    const DepMap full = oracle_dependences(t, false);
    for (const auto& [burst, skip] : {std::pair{4u, 4u}, std::pair{1u, 9u}}) {
      const Trace s = sample_stream(t, burst, skip);
      const DepMap sampled = oracle_dependences(s, false);
      const SubsetReport rep = check_sampled_subset(full, sampled);
      EXPECT_TRUE(rep.ok) << "burst=" << burst << " skip=" << skip << "\n"
                          << rep.detail;
      EXPECT_LE(rep.recall, 1.0);
      EXPECT_LE(rep.sampled_edges, rep.full_edges);
    }
  }
}

TEST(Harness, SubsetCheckFlagsInventedEvidence) {
  // full: one RAW instance.  sampled-candidate A invents a second instance
  // of the same edge; candidate B invents a brand-new edge.  Both must be
  // flagged — sampling may only lose evidence.
  Trace base;
  base.events.push_back(make_ev(AccessKind::kWrite, 0x100, 1));
  base.events.push_back(make_ev(AccessKind::kRead, 0x100, 2));
  const DepMap full = oracle_dependences(base, false);

  Trace doubled = base;
  doubled.events.push_back(make_ev(AccessKind::kRead, 0x100, 2));
  const SubsetReport count_rep =
      check_sampled_subset(full, oracle_dependences(doubled, false));
  EXPECT_FALSE(count_rep.ok);
  EXPECT_NE(count_rep.detail.find("instance count"), std::string::npos);

  Trace foreign = base;
  foreign.events.push_back(make_ev(AccessKind::kWrite, 0x200, 3));
  foreign.events.push_back(make_ev(AccessKind::kRead, 0x200, 4));
  const SubsetReport absent_rep =
      check_sampled_subset(full, oracle_dependences(foreign, false));
  EXPECT_FALSE(absent_rep.ok);
  EXPECT_NE(absent_rep.detail.find("absent"), std::string::npos);
}

TEST(Harness, SampledCasesHoldAcrossBackends) {
  GenParams p;
  p.accesses = 3000;
  p.distinct = 256;
  const Trace t = gen_loop(p, 32, true);
  for (const StorageKind storage :
       {StorageKind::kPerfect, StorageKind::kShadow, StorageKind::kHashTable,
        StorageKind::kPacked, StorageKind::kSignature}) {
    ProfilerConfig cfg;
    cfg.storage = storage;
    cfg.workers = 3;
    cfg.chunk_size = 16;
    cfg.sampling_burst = 2;
    cfg.sampling_skip = 3;
    const CaseOutcome outcome = run_case(t, cfg);
    EXPECT_TRUE(outcome.ok) << storage_kind_name(storage) << "\n"
                            << outcome.detail;
  }
}

// --- shrinker -------------------------------------------------------------

TEST(Shrinker, MinimizesToThePlantedKernel) {
  // A big trace where the "failure" is the presence of one specific
  // write-read pair; ddmin should strip everything else.
  GenParams p;
  p.accesses = 400;
  p.distinct = 64;
  Trace t = gen_uniform(p);
  t.events.insert(t.events.begin() + 123,
                  make_ev(AccessKind::kWrite, 0xdead0, 77));
  t.events.insert(t.events.begin() + 301,
                  make_ev(AccessKind::kRead, 0xdead0, 78));

  const FailurePredicate planted = [](const Trace& trace,
                                      const ProfilerConfig&) {
    const DepMap deps = oracle_dependences(trace, false);
    for (const auto& [key, info] : deps)
      if (key.type == DepType::kRaw && key.sink_loc == 78 &&
          key.src_loc == 77)
        return true;
    return false;
  };

  ProfilerConfig cfg;
  ShrinkStats st;
  const Trace minimized = shrink_trace(t, cfg, planted, 10'000, &st);
  EXPECT_EQ(minimized.size(), 2u);
  EXPECT_TRUE(planted(minimized, cfg));
  EXPECT_EQ(st.initial_events, 402u);
  EXPECT_EQ(st.final_events, 2u);
  EXPECT_GT(st.evaluations, 0u);
}

TEST(Shrinker, FlattensNestWhenFailureSurvivesIt) {
  // The planted failure is an innermost-carried RAW: write and read share
  // one dynamic entry of the inner loop but sit in different iterations of
  // it.  That survives flattening (same entry stays same entry, the
  // innermost iteration moves to slot 0), so the shrinker must hand back a
  // depth-1 repro.
  NestForest& forest = nest_forest();
  const std::uint32_t outer = forest.enter(NestForest::kRoot, 80, 0);
  const std::uint32_t inner = forest.enter(outer, 81, 2);
  Trace t;
  AccessEvent w = make_ev(AccessKind::kWrite, 0xbeef0, 91);
  w.ctx = inner;  // outer iteration 2
  w.iter = 0;
  AccessEvent r = make_ev(AccessKind::kRead, 0xbeef0, 92);
  r.ctx = inner;
  r.iter = 1;
  t.events.push_back(w);
  t.events.push_back(r);

  const FailurePredicate carried_raw = [](const Trace& trace,
                                          const ProfilerConfig&) {
    const DepMap deps = oracle_dependences(trace, false);
    for (const auto& [key, info] : deps)
      if (key.type == DepType::kRaw && (info.flags & kLoopCarried) != 0 &&
          info.carried_loop() == 81)
        return true;
    return false;
  };

  ProfilerConfig cfg;
  const Trace flat = shrink_trace(t, cfg, carried_raw, 10'000);
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_TRUE(carried_raw(flat, cfg));
  for (const auto& ev : flat.events) {
    EXPECT_EQ(forest.depth(ev.ctx), 1u);
    EXPECT_EQ(forest.loop(ev.ctx), 81u);  // innermost loop kept
    EXPECT_EQ(forest.entry_iter(ev.ctx), 0u);
  }
  // The innermost iteration is kept.
  EXPECT_EQ(flat.events[0].iter, 0u);
  EXPECT_EQ(flat.events[1].iter, 1u);
}

TEST(Shrinker, KeepsNestWhenFlatteningLosesTheFailure) {
  // Here the failure is outer-level attribution: a dependence carried by
  // the *outer* loop of a two-deep nest.  Flattening drops the outer level,
  // so the rung's candidate no longer fails and the nest must be kept.
  NestForest& forest = nest_forest();
  const std::uint32_t outer = forest.enter(NestForest::kRoot, 85, 0);
  const std::uint32_t in1 = forest.enter(outer, 86, 0);
  const std::uint32_t in2 = forest.enter(outer, 86, 1);
  Trace t;
  AccessEvent w = make_ev(AccessKind::kWrite, 0xfeed0, 95);
  w.ctx = in1;  // outer iteration 0
  AccessEvent r = make_ev(AccessKind::kRead, 0xfeed0, 96);
  r.ctx = in2;  // outer iteration 1
  t.events.push_back(w);
  t.events.push_back(r);

  const FailurePredicate outer_carried = [&](const Trace& trace,
                                             const ProfilerConfig&) {
    const DepMap deps = oracle_dependences(trace, false);
    for (const auto& [key, info] : deps)
      if (key.type == DepType::kRaw && info.carried_loop() == 85) return true;
    return false;
  };

  ProfilerConfig cfg;
  const Trace kept = shrink_trace(t, cfg, outer_carried, 10'000);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_TRUE(outer_carried(kept, cfg));
  EXPECT_EQ(forest.depth(kept.events[0].ctx), 2u);
}

TEST(Shrinker, ConfigLadderSimplifiesWhenFailureIsConfigIndependent) {
  ProfilerConfig cfg;
  cfg.workers = 8;
  cfg.chunk_size = 1024;
  cfg.queue = QueueKind::kLockFreeMpmc;
  cfg.wait = WaitKind::kPark;
  cfg.load_balance.enabled = true;
  cfg.modulo_routing = true;
  Trace t;
  t.events.push_back(make_ev(AccessKind::kWrite, 0x100, 11));

  const FailurePredicate always = [](const Trace&, const ProfilerConfig&) {
    return true;
  };
  const ProfilerConfig simple = shrink_config(t, cfg, always);
  EXPECT_EQ(simple.workers, 1u);
  EXPECT_EQ(simple.chunk_size, 1u);
  EXPECT_EQ(simple.queue, QueueKind::kMutex);
  EXPECT_EQ(simple.wait, WaitKind::kSpin);
  EXPECT_FALSE(simple.load_balance.enabled);
  EXPECT_FALSE(simple.modulo_routing);
  // Likewise the front-end reduction layer: a config-independent failure
  // must shrink to a repro with dedup off.
  EXPECT_FALSE(simple.dedup);
}

TEST(Shrinker, KeepsConfigWhenSimplificationLosesTheFailure) {
  ProfilerConfig cfg;
  cfg.workers = 8;
  Trace t;
  t.events.push_back(make_ev(AccessKind::kWrite, 0x100, 11));
  const FailurePredicate needs_workers =
      [](const Trace&, const ProfilerConfig& c) { return c.workers >= 4; };
  const ProfilerConfig kept = shrink_config(t, cfg, needs_workers);
  EXPECT_EQ(kept.workers, 8u);
}

// --- corpus format --------------------------------------------------------

ReproCase sample_repro() {
  ReproCase r;
  r.note = "round-trip sample";
  r.cfg.storage = StorageKind::kShadow;
  r.cfg.slots = 4096;
  r.cfg.sig_hash = SigHash::kMix;
  r.cfg.mt_targets = true;
  r.cfg.workers = 3;
  r.cfg.queue = QueueKind::kLockFreeMpmc;
  r.cfg.wait = WaitKind::kYield;
  r.cfg.chunk_size = 7;
  r.cfg.queue_capacity = 32;
  r.cfg.modulo_routing = true;
  r.cfg.dedup = false;  // non-default: the round trip must keep it
  r.cfg.load_balance.enabled = true;
  r.cfg.load_balance.sample_shift = 2;
  r.cfg.load_balance.eval_interval_chunks = 17;
  r.cfg.load_balance.imbalance_threshold = 1.5;
  r.cfg.load_balance.top_k = 3;
  r.cfg.load_balance.max_rounds = 9;
  r.cfg.budget = 0.5;  // non-default sampling: the file must carry the axes
  r.cfg.sampling_burst = 4;
  r.cfg.sampling_skip = 3;
  AccessEvent ev = make_ev(AccessKind::kWrite, 0xabc0, 41, 2, 1, 99);
  ev.flags = kInLockRegion;
  ev.ctx = nest_forest().enter(NestForest::kRoot, 5, 0);
  ev.iter = 7;
  r.trace.events.push_back(ev);
  r.trace.events.push_back(make_ev(AccessKind::kFree, 0xabc0, 0, 0, 1, 100));
  return r;
}

/// Every ProfilerConfig field the repro grammar carries must survive.
void expect_same_config(const ProfilerConfig& a, const ProfilerConfig& b) {
  EXPECT_EQ(a.storage, b.storage);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.sig_hash, b.sig_hash);
  EXPECT_EQ(a.mt_targets, b.mt_targets);
  EXPECT_EQ(a.workers, b.workers);
  EXPECT_EQ(a.queue, b.queue);
  EXPECT_EQ(a.wait, b.wait);
  EXPECT_EQ(a.chunk_size, b.chunk_size);
  EXPECT_EQ(a.queue_capacity, b.queue_capacity);
  EXPECT_EQ(a.modulo_routing, b.modulo_routing);
  EXPECT_EQ(a.dedup, b.dedup);
  EXPECT_DOUBLE_EQ(a.budget, b.budget);
  EXPECT_EQ(a.sampling_burst, b.sampling_burst);
  EXPECT_EQ(a.sampling_skip, b.sampling_skip);
  EXPECT_EQ(a.races, b.races);
  const LoadBalanceConfig& la = a.load_balance;
  const LoadBalanceConfig& lb = b.load_balance;
  EXPECT_EQ(la.enabled, lb.enabled);
  EXPECT_EQ(la.sample_shift, lb.sample_shift);
  EXPECT_EQ(la.eval_interval_chunks, lb.eval_interval_chunks);
  EXPECT_DOUBLE_EQ(la.imbalance_threshold, lb.imbalance_threshold);
  EXPECT_EQ(la.top_k, lb.top_k);
  EXPECT_EQ(la.max_rounds, lb.max_rounds);
}

/// (loop, entry_iter) of every entry from `ctx` up to the root: the shape
/// a re-interned context must keep (parsing may hand out new node ids).
std::vector<std::pair<std::uint32_t, std::uint32_t>> ctx_shape(
    std::uint32_t ctx) {
  const NestForest& forest = nest_forest();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> shape;
  for (; ctx != NestForest::kRoot; ctx = forest.parent(ctx))
    shape.emplace_back(forest.loop(ctx), forest.entry_iter(ctx));
  return shape;
}

void expect_same_events(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const AccessEvent& x = a.events[i];
    const AccessEvent& y = b.events[i];
    EXPECT_EQ(x.kind, y.kind) << "event " << i;
    EXPECT_EQ(x.addr, y.addr) << "event " << i;
    EXPECT_EQ(x.loc, y.loc) << "event " << i;
    EXPECT_EQ(x.var, y.var) << "event " << i;
    EXPECT_EQ(x.tid, y.tid) << "event " << i;
    EXPECT_EQ(x.ts, y.ts) << "event " << i;
    EXPECT_EQ(x.flags, y.flags) << "event " << i;
    EXPECT_EQ(ctx_shape(x.ctx), ctx_shape(y.ctx)) << "event " << i;
    EXPECT_EQ(x.iter, y.iter) << "event " << i;
  }
}

// A complete v8 config line and lb line; tests edit single keys of them.
const std::string kConfigLine =
    "config storage=perfect slots=16 sighash=modulo mt=0 workers=1 "
    "queue=mutex wait=spin chunk=1 qcap=4 modulo_routing=0 dedup=0 budget=1 "
    "burst=8 skip=0 races=0";
const std::string kLbLine =
    "lb enabled=0 sample_shift=0 interval=50000 threshold=1.25 top_k=10 "
    "max_rounds=64";

/// `line` with the `key=...` token replaced by `token` ("" drops it).
std::string edit_key(const std::string& line, const std::string& key,
                     const std::string& token) {
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return line + " " + token;
  std::size_t end = line.find(' ', at + 1);
  if (end == std::string::npos) end = line.size();
  return line.substr(0, at) + (token.empty() ? "" : " " + token) +
         line.substr(end);
}

/// A v8 repro: version line, config (line 2), lb (line 3), then `body`.
std::string v8(const std::string& body = "",
               const std::string& config = kConfigLine) {
  return "depfuzz-repro v8\n" + config + "\n" + kLbLine + "\n" + body;
}

TEST(Corpus, FormatParseRoundTrip) {
  const ReproCase original = sample_repro();
  const std::string text = format_repro(original);
  EXPECT_EQ(text.rfind("depfuzz-repro v8\n", 0), 0u);
  ReproCase back;
  std::string error;
  ASSERT_TRUE(parse_repro(back, text, &error)) << error;

  EXPECT_EQ(back.note, original.note);
  expect_same_config(back.cfg, original.cfg);
  expect_same_events(back.trace, original.trace);
  const AccessEvent& ev = back.trace.events[0];
  EXPECT_EQ(ev.addr, 0xabc0u);
  EXPECT_EQ(ev.ts, 99u);
  EXPECT_EQ(ev.flags, kInLockRegion);
  // The nest table re-interns on parse: the context is a (possibly new)
  // forest node with the same shape.
  ASSERT_NE(ev.ctx, NestForest::kRoot);
  EXPECT_EQ(nest_forest().loop(ev.ctx), 5u);
  EXPECT_EQ(nest_forest().depth(ev.ctx), 1u);
  EXPECT_EQ(ev.iter, 7u);
  EXPECT_TRUE(back.trace.events[1].is_free());
}

TEST(Corpus, NestDirectivesRebuildChains) {
  const std::string text =
      v8("nest id=1 parent=0 loop=50\n"
         "nest id=2 parent=1 loop=60\n"
         "ev W addr=0x100 loc=11 ctx=2 iters=3,4,0,0,0,0,0\n"
         "ev R addr=0x100 loc=12 ctx=1 iters=3,0,0,0,0,0,0\n");
  ReproCase out;
  std::string error;
  ASSERT_TRUE(parse_repro(out, text, &error)) << error;
  ASSERT_EQ(out.trace.size(), 2u);
  const NestForest& forest = nest_forest();
  const AccessEvent& inner = out.trace.events[0];
  const AccessEvent& outer = out.trace.events[1];
  EXPECT_EQ(forest.loop(inner.ctx), 60u);
  EXPECT_EQ(forest.depth(inner.ctx), 2u);
  EXPECT_EQ(forest.parent(inner.ctx), outer.ctx);
  EXPECT_EQ(forest.loop(outer.ctx), 50u);
  EXPECT_EQ(inner.iter, 4u);
  EXPECT_EQ(forest.entry_iter(inner.ctx), 3u);
}

TEST(Corpus, RejectsMalformedNests) {
  ReproCase out;
  std::string error;
  // Undeclared parent.
  EXPECT_FALSE(parse_repro(out, v8("nest id=2 parent=1 loop=60\n"), &error));
  // Duplicate id.
  EXPECT_FALSE(parse_repro(out,
                           v8("nest id=1 parent=0 loop=50\n"
                              "nest id=1 parent=0 loop=60\n"),
                           &error));
  // Event referencing an undeclared context.
  EXPECT_FALSE(parse_repro(out, v8("ev W addr=0x1 ctx=7\n"), &error));
}

TEST(Corpus, RejectsContradictoryAncestorIterations) {
  // Nest directives do not record entry iterations; the first event under
  // entry 2 fixes its outer iteration at 3, so an event of the same entry
  // claiming outer iteration 5 cannot come from one loop stack.
  ReproCase out;
  std::string error;
  const std::string nest =
      "nest id=1 parent=0 loop=50\n"
      "nest id=2 parent=1 loop=60\n"
      "nest id=3 parent=2 loop=70\n";
  const std::string first = "ev W addr=0x100 loc=11 ctx=2 iters=3,4,0,0,0,0,0\n";
  EXPECT_FALSE(parse_repro(
      out, v8(nest + first + "ev R addr=0x100 loc=12 ctx=2 iters=5,4,0,0,0,0,0\n"),
      &error));
  EXPECT_NE(error.find("line 8"), std::string::npos) << error;
  // The same contradiction reached through a descendant entry.
  EXPECT_FALSE(parse_repro(
      out, v8(nest + first + "ev R addr=0x100 loc=12 ctx=3 iters=1,4,2,0,0,0,0\n"),
      &error));
  EXPECT_NE(error.find("line 8"), std::string::npos) << error;
  // Consistent ancestors parse, and the derived entry iterations land in
  // the forest.
  ASSERT_TRUE(parse_repro(
      out, v8(nest + first + "ev R addr=0x100 loc=12 ctx=3 iters=3,4,2,0,0,0,0\n"),
      &error))
      << error;
  const NestForest& forest = nest_forest();
  EXPECT_EQ(forest.entry_iter(out.trace.events[1].ctx), 4u);
  EXPECT_EQ(forest.entry_iter(out.trace.events[0].ctx), 3u);
}

TEST(Corpus, StrictParserRejectsUnknownInput) {
  ReproCase out;
  std::string error;
  ASSERT_TRUE(parse_repro(out, v8(), &error)) << error;
  EXPECT_FALSE(parse_repro(out, "", &error));
  EXPECT_FALSE(parse_repro(out, "something else\n", &error));
  EXPECT_NE(error.find("line 1: expected version line 'depfuzz-repro v8'"),
            std::string::npos)
      << error;
  // One grammar: every earlier version line is rejected, not upgraded.
  for (int v = 1; v <= 7; ++v) {
    const std::string old = "depfuzz-repro v" + std::to_string(v);
    std::string text = v8();
    text.replace(0, text.find('\n'), old);
    EXPECT_FALSE(parse_repro(out, text, &error)) << old;
    EXPECT_NE(error.find("line 1: expected version line"), std::string::npos)
        << old << ": " << error;
  }
  EXPECT_FALSE(parse_repro(out, v8("frobnicate 1\n"), &error));
  EXPECT_NE(error.find("line 4: unknown directive 'frobnicate'"),
            std::string::npos)
      << error;
  // Unknown config keys — including the retired kernel and chunk-encoding
  // switches, which no longer select anything.
  for (const std::string token : {"bogus_key=1", "pack=1", "pack=0",
                                   "batch=1"}) {
    const std::string cfg = edit_key(kConfigLine, "dedup", "dedup=0 " + token);
    EXPECT_FALSE(parse_repro(out, v8("", cfg), &error)) << token;
    EXPECT_NE(error.find("line 2: bad config token '" + token + "'"),
              std::string::npos)
        << error;
  }
  EXPECT_FALSE(parse_repro(
      out, v8("", edit_key(kConfigLine, "storage", "storage=warehouse")),
      &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(parse_repro(out, v8("ev X addr=0x1\n"), &error));
  EXPECT_NE(error.find("line 4"), std::string::npos) << error;
  // The pre-nest-table (loop, entry, iter) triples are gone too.
  EXPECT_FALSE(
      parse_repro(out, v8("ev W addr=0x1 loops=0:0:0,0:0:0,0:0:0\n"), &error));
  EXPECT_NE(error.find("line 4: bad event token 'loops="), std::string::npos)
      << error;
  // Missing the config or lb line entirely.
  EXPECT_FALSE(parse_repro(out, "depfuzz-repro v8\nnote hi\n", &error));
  EXPECT_NE(error.find("missing config line"), std::string::npos) << error;
  EXPECT_FALSE(
      parse_repro(out, "depfuzz-repro v8\n" + kConfigLine + "\n", &error));
  EXPECT_NE(error.find("missing lb line"), std::string::npos) << error;
}

TEST(Corpus, EveryConfigAndLbKeyIsHardRequired) {
  // A repro that omitted a key would silently replay under whatever the
  // current default is — so every key the writer emits is required.
  ReproCase out;
  std::string error;
  for (const char* key :
       {"storage", "slots", "sighash", "mt", "workers", "queue", "wait",
        "chunk", "qcap", "modulo_routing", "dedup", "budget", "burst", "skip",
        "races"}) {
    EXPECT_FALSE(parse_repro(out, v8("", edit_key(kConfigLine, key, "")),
                             &error))
        << key;
    EXPECT_NE(error.find("line 2: config line missing the " +
                         std::string(key) + "= key"),
              std::string::npos)
        << error;
  }
  for (const char* key : {"enabled", "sample_shift", "interval", "threshold",
                          "top_k", "max_rounds"}) {
    const std::string text = "depfuzz-repro v8\n" + kConfigLine + "\n" +
                             edit_key(kLbLine, key, "") + "\n";
    EXPECT_FALSE(parse_repro(out, text, &error)) << key;
    EXPECT_NE(error.find("line 3: lb line missing the " + std::string(key) +
                         "= key"),
              std::string::npos)
        << error;
  }
}

TEST(Corpus, RaceModeConfigRule) {
  ReproCase out;
  std::string error;
  std::string cfg = edit_key(edit_key(kConfigLine, "mt", "mt=1"), "races",
                             "races=1");
  ASSERT_TRUE(parse_repro(out, v8("", cfg), &error)) << error;
  EXPECT_TRUE(out.cfg.races);
  // The config rule mirrors races_config_ok(): race mode with sampling or
  // a sequential target could never have been recorded, so it must not
  // lint clean.
  EXPECT_FALSE(
      parse_repro(out, v8("", edit_key(cfg, "budget", "budget=0.5")), &error));
  EXPECT_NE(error.find("line 2: races=1"), std::string::npos) << error;
  EXPECT_FALSE(
      parse_repro(out, v8("", edit_key(cfg, "skip", "skip=4")), &error));
  EXPECT_FALSE(parse_repro(out, v8("", edit_key(cfg, "mt", "mt=0")), &error));
  // races=0 carries no preconditions.
  cfg = edit_key(edit_key(kConfigLine, "budget", "budget=0.5"), "skip",
                 "skip=4");
  ASSERT_TRUE(parse_repro(out, v8("", cfg), &error)) << error;
  EXPECT_FALSE(out.cfg.races);
  EXPECT_DOUBLE_EQ(out.cfg.budget, 0.5);
  EXPECT_EQ(out.cfg.sampling_skip, 4u);
}

TEST(Corpus, RaceModeRoundTrips) {
  ReproCase r = sample_repro();
  r.cfg.races = true;
  r.cfg.budget = 1.0;  // race mode forbids sampling...
  r.cfg.sampling_burst = ProfilerConfig().sampling_burst;
  r.cfg.sampling_skip = 0;
  ASSERT_TRUE(r.cfg.mt_targets);  // ...and needs MT targets
  const std::string text = format_repro(r);
  EXPECT_NE(text.find("races=1"), std::string::npos);
  ReproCase back;
  std::string error;
  ASSERT_TRUE(parse_repro(back, text, &error)) << error;
  expect_same_config(back.cfg, r.cfg);
  expect_same_events(back.trace, r.trace);
}

TEST(Corpus, PackedStorageRoundTrips) {
  ReproCase r = sample_repro();
  r.cfg.storage = StorageKind::kPacked;
  const std::string text = format_repro(r);
  EXPECT_NE(text.find("storage=packed"), std::string::npos);
  ReproCase back;
  std::string error;
  ASSERT_TRUE(parse_repro(back, text, &error)) << error;
  EXPECT_EQ(back.cfg.storage, StorageKind::kPacked);
  expect_same_config(back.cfg, r.cfg);
  expect_same_events(back.trace, r.trace);
}

TEST(Corpus, StrictParserRejectsAmbiguousShape) {
  ReproCase out;
  std::string error;
  // A duplicate key within one line would silently last-write-win.
  EXPECT_FALSE(parse_repro(
      out, v8("", kConfigLine + " storage=shadow"), &error));
  EXPECT_NE(error.find("duplicate key 'storage'"), std::string::npos);
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_FALSE(parse_repro(out, v8("ev W addr=0x1 addr=0x2\n"), &error));
  EXPECT_NE(error.find("duplicate key 'addr'"), std::string::npos);
  EXPECT_NE(error.find("line 4"), std::string::npos);
  // A second config (or lb) line would retroactively rewrite the first.
  EXPECT_FALSE(parse_repro(out, v8(kConfigLine + "\n"), &error));
  EXPECT_NE(error.find("line 4: duplicate config line"), std::string::npos)
      << error;
  EXPECT_FALSE(parse_repro(out, v8(kLbLine + "\n"), &error));
  EXPECT_NE(error.find("line 4: duplicate lb line"), std::string::npos)
      << error;
  // Every directive except the provenance note needs the config line first.
  EXPECT_FALSE(parse_repro(
      out, "depfuzz-repro v8\nev W addr=0x1\n" + kConfigLine + "\n", &error));
  EXPECT_NE(error.find("before the config line"), std::string::npos);
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_FALSE(parse_repro(out,
                           "depfuzz-repro v8\nnest id=1 parent=0 loop=5\n" +
                               kConfigLine + "\n",
                           &error));
  EXPECT_NE(error.find("before the config line"), std::string::npos);
  // nest directives must carry parent= and loop= explicitly: a defaulted
  // value would silently re-shape the nest.
  EXPECT_FALSE(parse_repro(out, v8("nest id=1 loop=5\n"), &error));
  EXPECT_NE(error.find("parent="), std::string::npos);
  EXPECT_FALSE(parse_repro(out, v8("nest id=1 parent=0\n"), &error));
  EXPECT_NE(error.find("loop="), std::string::npos);
}

// --- committed corpus replays clean ---------------------------------------

TEST(Corpus, EveryCommittedReproReplaysClean) {
  const std::filesystem::path dir = DEPFUZZ_CORPUS_DIR;
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".repro") continue;
    ++seen;
    ReproCase repro;
    std::string error;
    ASSERT_TRUE(read_repro(repro, entry.path().string(), &error))
        << entry.path() << ": " << error;
    const CaseOutcome outcome = run_case(repro.trace, repro.cfg);
    EXPECT_TRUE(outcome.ok) << entry.path() << " (" << repro.note << ")\n"
                            << outcome.detail;
  }
  EXPECT_GE(seen, 3u);  // the hand-written seeds must stay present
}

TEST(Corpus, EveryCommittedReproRoundTrips) {
  // parse -> format -> parse must give back the same config and events, so
  // a shrunk repro written by depfuzz replays exactly what it was shrunk on.
  const std::filesystem::path dir = DEPFUZZ_CORPUS_DIR;
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".repro") continue;
    ++seen;
    ReproCase first, second;
    std::string error;
    ASSERT_TRUE(read_repro(first, entry.path().string(), &error))
        << entry.path() << ": " << error;
    const std::string text = format_repro(first);
    ASSERT_TRUE(parse_repro(second, text, &error))
        << entry.path() << ": " << error;
    SCOPED_TRACE(entry.path().string());
    EXPECT_EQ(second.note, first.note);
    expect_same_config(second.cfg, first.cfg);
    expect_same_events(second.trace, first.trace);
    EXPECT_EQ(format_repro(second), text);
  }
  EXPECT_GE(seen, 4u);
}

}  // namespace
}  // namespace depprof
