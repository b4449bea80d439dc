// Tests for Algorithm 1 (the dependence detector) and the dependence model:
// RAW/WAR/WAW/INIT construction, RAR suppression, lifetime removal,
// loop-carried attribution over the interned nest contexts (innermost
// common loop + per-level distance buckets), the address-tag gating,
// merging, and migration state transfer.

#include <gtest/gtest.h>

#include <vector>

#include "core/detector.hpp"
#include "oracle/diff.hpp"
#include "oracle/exact_oracle.hpp"
#include "sig/perfect_signature.hpp"
#include "sig/signature.hpp"
#include "trace/nest.hpp"

namespace depprof {
namespace {

/// An access to word unit `unit` (byte address unit * 4): the detector
/// derives units itself, and the stores and migration work on units.
AccessEvent ev(std::uint64_t unit, AccessKind kind, std::uint32_t line,
               std::uint32_t var = 7) {
  AccessEvent e;
  e.addr = unit * 4;
  e.kind = kind;
  e.loc = SourceLocation(1, line).packed();
  e.var = var;
  return e;
}

AccessEvent rd(std::uint64_t addr, std::uint32_t line) {
  return ev(addr, AccessKind::kRead, line);
}
AccessEvent wr(std::uint64_t addr, std::uint32_t line) {
  return ev(addr, AccessKind::kWrite, line);
}
AccessEvent fr(std::uint64_t addr) { return ev(addr, AccessKind::kFree, 0); }

DepKey key(DepType type, std::uint32_t sink_line, std::uint32_t src_line,
           std::uint32_t var = 7) {
  DepKey k;
  k.type = type;
  k.sink_loc = SourceLocation(1, sink_line).packed();
  k.src_loc = src_line ? SourceLocation(1, src_line).packed() : 0;
  k.var = var;
  return k;
}

using PerfectDetector = DetectorCore<PerfectSignature<SeqSlot>>;

PerfectDetector make_perfect() { return PerfectDetector{{}, {}}; }

// ------------------------------------------------------------ Algorithm 1

TEST(Detector, FirstWriteIsInit) {
  auto det = make_perfect();
  DepMap deps;
  det.process(wr(100, 10), deps);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_NE(deps.find(key(DepType::kInit, 10, 0)), nullptr);
}

TEST(Detector, ReadAfterWriteBuildsRaw) {
  auto det = make_perfect();
  DepMap deps;
  det.process(wr(100, 10), deps);
  det.process(rd(100, 20), deps);
  EXPECT_NE(deps.find(key(DepType::kRaw, 20, 10)), nullptr);
}

TEST(Detector, WriteAfterReadBuildsWar) {
  auto det = make_perfect();
  DepMap deps;
  det.process(rd(100, 10), deps);
  det.process(wr(100, 20), deps);
  EXPECT_NE(deps.find(key(DepType::kWar, 20, 10)), nullptr);
}

TEST(Detector, WriteAfterWriteBuildsWaw) {
  auto det = make_perfect();
  DepMap deps;
  det.process(wr(100, 10), deps);
  det.process(wr(100, 20), deps);
  EXPECT_NE(deps.find(key(DepType::kWaw, 20, 10)), nullptr);
}

TEST(Detector, InitAndWarCoexistOnOneSink) {
  // Fig. 1 line 1:65: "{WAR 1:67|temp2} {INIT *}" — a first write that is
  // also the sink of a WAR against an earlier read.
  auto det = make_perfect();
  DepMap deps;
  det.process(rd(100, 67), deps);
  det.process(wr(100, 65), deps);
  EXPECT_NE(deps.find(key(DepType::kInit, 65, 0)), nullptr);
  EXPECT_NE(deps.find(key(DepType::kWar, 65, 67)), nullptr);
}

TEST(Detector, RarIsIgnored) {
  auto det = make_perfect();
  DepMap deps;
  det.process(rd(100, 10), deps);
  det.process(rd(100, 20), deps);
  EXPECT_EQ(deps.size(), 0u);
}

TEST(Detector, ReadWithoutPriorWriteBuildsNothing) {
  auto det = make_perfect();
  DepMap deps;
  det.process(rd(100, 10), deps);
  EXPECT_EQ(deps.size(), 0u);
}

TEST(Detector, RawUsesLatestWrite) {
  auto det = make_perfect();
  DepMap deps;
  det.process(wr(100, 10), deps);
  det.process(wr(100, 11), deps);
  det.process(rd(100, 20), deps);
  EXPECT_NE(deps.find(key(DepType::kRaw, 20, 11)), nullptr);
  EXPECT_EQ(deps.find(key(DepType::kRaw, 20, 10)), nullptr);
}

TEST(Detector, VarNameComesFromSink) {
  auto det = make_perfect();
  DepMap deps;
  det.process(ev(100, AccessKind::kWrite, 10, /*var=*/3), deps);
  det.process(ev(100, AccessKind::kRead, 20, /*var=*/4), deps);
  EXPECT_NE(deps.find(key(DepType::kRaw, 20, 10, /*var=*/4)), nullptr);
}

// ----------------------------------------------------- lifetime analysis

TEST(Detector, FreeRemovesAddressState) {
  auto det = make_perfect();
  DepMap deps;
  det.process(wr(100, 10), deps);
  det.process(fr(100), deps);
  det.process(rd(100, 20), deps);  // re-used memory: no stale RAW
  EXPECT_EQ(deps.find(key(DepType::kRaw, 20, 10)), nullptr);
  det.process(wr(100, 30), deps);  // and the next write is an INIT again
  EXPECT_NE(deps.find(key(DepType::kInit, 30, 0)), nullptr);
}

TEST(Detector, FreeRemovesReadStateToo) {
  auto det = make_perfect();
  DepMap deps;
  det.process(rd(100, 10), deps);
  det.process(fr(100), deps);
  det.process(wr(100, 20), deps);
  EXPECT_EQ(deps.find(key(DepType::kWar, 20, 10)), nullptr);
}

// ------------------------------------------------- loop-nest attribution

/// Stamps `e` with a nest context and the iteration its root-anchored
/// window `iters` gives it; the window must agree with the forest's entry
/// iterations (event.hpp's entry invariant).
AccessEvent with_nest(AccessEvent e, std::uint32_t ctx,
                      std::initializer_list<std::uint32_t> iters) {
  std::uint32_t window[kNestIters] = {};
  std::size_t i = 0;
  for (std::uint32_t v : iters) {
    if (i < kNestIters) window[i] = v;
    ++i;
  }
  e.ctx = ctx;
  e.iter = window_iter(nest_forest().depth(ctx), window);
  std::uint32_t rebuilt[kNestIters];
  nest_forest().window(ctx, e.iter, rebuilt);
  for (std::size_t d = 0; d < kNestIters; ++d)
    EXPECT_EQ(rebuilt[d], window[d]) << "window contradicts entry iterations";
  return e;
}

/// Stamps `e` with a nest context and its own iteration.
AccessEvent in_ctx(AccessEvent e, std::uint32_t ctx, std::uint32_t iter) {
  e.ctx = ctx;
  e.iter = iter;
  return e;
}

/// Runs `events` through the per-event and batched detector and through
/// ExactOracle; all three maps must be identical.  Returns the map.
DepMap expect_matches_oracle(const std::vector<AccessEvent>& events) {
  auto det = make_perfect();
  DepMap deps;
  for (const AccessEvent& e : events) det.process(e, deps);
  auto batched = make_perfect();
  DepMap batch_deps;
  batched.process_batch(events.data(), events.size(), batch_deps);
  Trace t;
  t.events = events;
  const DepMap oracle = oracle_dependences(t);
  EXPECT_TRUE(diff_deps(oracle, deps).identical())
      << format_diff(diff_deps(oracle, deps), "oracle", "detector");
  EXPECT_TRUE(diff_deps(oracle, batch_deps).identical())
      << format_diff(diff_deps(oracle, batch_deps), "oracle", "batch");
  return deps;
}

TEST(Detector, SameIterationIsNotCarried) {
  const std::uint32_t ctx = nest_forest().enter(NestForest::kRoot, 1, 0);
  auto det = make_perfect();
  DepMap deps;
  det.process(with_nest(wr(100, 10), ctx, {5}), deps);
  det.process(with_nest(rd(100, 20), ctx, {5}), deps);
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->flags & kLoopCarried, 0);
  EXPECT_EQ(info->levels[0].loop, 1u);  // attributed, distance 0
  EXPECT_EQ(info->levels[0].d0, 1u);
  EXPECT_EQ(info->levels[0].carried(), 0u);
}

TEST(Detector, DifferentIterationIsCarried) {
  const std::uint32_t ctx = nest_forest().enter(NestForest::kRoot, 1, 0);
  auto det = make_perfect();
  DepMap deps;
  det.process(with_nest(wr(100, 10), ctx, {5}), deps);
  det.process(with_nest(rd(100, 20), ctx, {6}), deps);
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kLoopCarried, 0);
  EXPECT_EQ(info->carried_loop(), 1u);
  EXPECT_EQ(info->carried_level(), 1u);
  EXPECT_EQ(info->levels[0].d1, 1u);
}

TEST(Detector, DifferentEntryOfSameLoopIsNotCarriedByIt) {
  // A loop re-entered from an outer context: same static loop id, same
  // iteration index, different dynamic entries — not carried by that loop.
  NestForest& f = nest_forest();
  const std::uint32_t e1 = f.enter(NestForest::kRoot, 1, 0);
  const std::uint32_t e2 = f.enter(NestForest::kRoot, 1, 0);
  auto det = make_perfect();
  DepMap deps;
  det.process(with_nest(wr(100, 10), e1, {5}), deps);
  det.process(with_nest(rd(100, 20), e2, {5}), deps);
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->flags & kLoopCarried, 0);
  EXPECT_NE(info->flags & kCrossLoop, 0);  // no shared dynamic context
  EXPECT_EQ(info->carried_level(), 0u);
}

TEST(Detector, OuterLoopCarriedThroughParentLevel) {
  // The SP pattern: inner loop re-entered per time step; the dependence is
  // carried by the outer loop (the innermost *common* entry), not the
  // inner one.
  NestForest& f = nest_forest();
  const std::uint32_t outer = f.enter(NestForest::kRoot, 1, 0);
  const std::uint32_t in1 = f.enter(outer, 2, 0);
  const std::uint32_t in2 = f.enter(outer, 2, 1);
  auto det = make_perfect();
  DepMap deps;
  det.process(with_nest(wr(100, 10), in1, {0, 3}), deps);
  det.process(with_nest(rd(100, 20), in2, {1, 3}), deps);
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kLoopCarried, 0);
  EXPECT_EQ(info->carried_loop(), 1u);  // attributed to the outer loop
  EXPECT_EQ(info->carried_level(), 1u);
  EXPECT_EQ(info->levels[0].d1, 1u);  // time-step distance 1
}

TEST(Detector, GrandparentLoopCarriedThroughThirdLevel) {
  // The h264dec pattern: frames > slices > macroblocks; the reference-frame
  // dependence is carried by the grandparent (frame) loop.
  NestForest& f = nest_forest();
  const std::uint32_t frames = f.enter(NestForest::kRoot, 1, 0);
  const std::uint32_t s1 = f.enter(frames, 2, 0);
  const std::uint32_t s2 = f.enter(frames, 2, 1);
  const std::uint32_t m1 = f.enter(s1, 3, 1);
  const std::uint32_t m2 = f.enter(s2, 3, 1);
  auto det = make_perfect();
  DepMap deps;
  det.process(with_nest(wr(100, 10), m1, {0, 1, 2}), deps);
  det.process(with_nest(rd(100, 20), m2, {1, 1, 2}), deps);
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kLoopCarried, 0);
  EXPECT_EQ(info->carried_loop(), 1u);
  EXPECT_EQ(info->carried_level(), 1u);
}

TEST(Detector, InnermostCommonLoopWins) {
  // Both endpoints share the whole nest; the inner iteration differs — the
  // dependence is attributed to the innermost common loop (level 2).
  NestForest& f = nest_forest();
  const std::uint32_t outer = f.enter(NestForest::kRoot, 1, 0);
  const std::uint32_t inner = f.enter(outer, 2, 0);
  auto det = make_perfect();
  DepMap deps;
  det.process(with_nest(wr(100, 10), inner, {0, 3}), deps);
  det.process(with_nest(rd(100, 20), inner, {0, 4}), deps);
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->carried_loop(), 2u);
  EXPECT_EQ(info->carried_level(), 2u);
  EXPECT_EQ(info->levels[1].loop, 2u);
}

TEST(Detector, CarriedDistanceBucketed) {
  // Reads of a[i-4]: every carried instance has iteration distance 4,
  // which lands in the >= 2 bucket.
  const std::uint32_t ctx = nest_forest().enter(NestForest::kRoot, 1, 0);
  auto det = make_perfect();
  DepMap deps;
  for (std::uint32_t i = 0; i < 16; ++i) {
    if (i >= 4) det.process(with_nest(rd(100 + (i - 4), 20), ctx, {i}), deps);
    det.process(with_nest(wr(100 + i, 10), ctx, {i}), deps);
  }
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kLoopCarried, 0);
  EXPECT_EQ(info->levels[0].d0, 0u);
  EXPECT_EQ(info->levels[0].d1, 0u);
  EXPECT_EQ(info->levels[0].d2p, 12u);
  EXPECT_EQ(info->min_carried_bucket(), 2u);
}

TEST(Detector, DistanceBucketsAccumulate) {
  const std::uint32_t ctx = nest_forest().enter(NestForest::kRoot, 1, 0);
  auto det = make_perfect();
  DepMap deps;
  det.process(with_nest(wr(100, 10), ctx, {0}), deps);
  det.process(with_nest(rd(100, 20), ctx, {1}), deps);  // d = 1
  det.process(with_nest(wr(100, 10), ctx, {1}), deps);
  det.process(with_nest(rd(100, 20), ctx, {6}), deps);  // d = 5
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->levels[0].d1, 1u);
  EXPECT_EQ(info->levels[0].d2p, 1u);
  EXPECT_EQ(info->min_carried_bucket(), 1u);
}

TEST(Detector, DeepNestBeyondWindowIsConservativelyCarried) {
  // Common entry deeper than the event's iteration window: the distance is
  // unknown, so the instance lands in the carried >= 2 bucket rather than
  // being guessed independent.
  NestForest& f = nest_forest();
  std::uint32_t ctx = NestForest::kRoot;
  for (std::uint32_t d = 1; d <= kNestIters + 2; ++d) ctx = f.enter(ctx, d, 1);
  auto det = make_perfect();
  DepMap deps;
  det.process(with_nest(wr(100, 10), ctx, {1, 1, 1, 1, 1, 1, 1}), deps);
  det.process(with_nest(rd(100, 20), ctx, {1, 1, 1, 1, 1, 1, 1}), deps);
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kLoopCarried, 0);
  // Level clamps to the last window row; the bucket is ">= 2 / unknown".
  EXPECT_EQ(info->levels[kNestLevels - 1].d2p, 1u);
}

TEST(Detector, EndpointsAtDifferentDepthsUnderDepthThreeLoop) {
  // Common entry at depth 3; the endpoints sit at depths 5, 3 and 4 under
  // different iterations of it.  Each endpoint's depth-3 iteration is its
  // own iteration or an entry iteration read while climbing its path.
  NestForest& f = nest_forest();
  const std::uint32_t l1 = f.enter(NestForest::kRoot, 301, 0);
  const std::uint32_t l2 = f.enter(l1, 302, 1);
  const std::uint32_t l3 = f.enter(l2, 303, 2);
  const std::uint32_t a4 = f.enter(l3, 304, 4);  // at l3 iteration 4
  const std::uint32_t a5 = f.enter(a4, 305, 0);
  const std::uint32_t b4 = f.enter(l3, 306, 7);  // at l3 iteration 7
  const DepMap deps = expect_matches_oracle({
      in_ctx(wr(100, 10), a5, 2),  // depth 5, l3 iteration 4
      in_ctx(rd(100, 20), l3, 6),  // depth 3: RAW distance 2
      in_ctx(wr(100, 30), b4, 1),  // depth 4: WAW 3, WAR 1
      in_ctx(wr(104, 40), a5, 0),  // depth 5, l3 iteration 4
      in_ctx(rd(104, 50), l3, 4),  // same l3 iteration: distance 0
  });
  const auto at_level3 = [&](DepType t, std::uint32_t sink, std::uint32_t src) {
    const DepInfo* info = deps.find(key(t, sink, src));
    EXPECT_NE(info, nullptr);
    EXPECT_EQ(info->levels[2].loop, 303u);
    return info->levels[2];
  };
  EXPECT_EQ(at_level3(DepType::kRaw, 20, 10).d2p, 1u);
  EXPECT_EQ(at_level3(DepType::kWaw, 30, 10).d2p, 1u);
  EXPECT_EQ(at_level3(DepType::kWar, 30, 20).d1, 1u);
  EXPECT_EQ(at_level3(DepType::kRaw, 50, 40).d0, 1u);
}

TEST(Detector, CommonLoopDeeperThanTrackedLevelsMatchesOracle) {
  // Common entry at depth kNestIters + 2, endpoints one level below it and
  // at it: the distance is unknown, conservatively carried, as the oracle
  // says.
  NestForest& f = nest_forest();
  std::uint32_t common = NestForest::kRoot;
  for (std::uint32_t d = 1; d <= kNestIters + 2; ++d)
    common = f.enter(common, 400 + d, 1);
  const std::uint32_t child = f.enter(common, 499, 3);
  const DepMap deps = expect_matches_oracle({
      in_ctx(wr(100, 10), child, 1),
      in_ctx(rd(100, 20), common, 1),
      in_ctx(wr(100, 30), common, 1),
  });
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kLoopCarried, 0);
  EXPECT_EQ(info->levels[kNestLevels - 1].d2p, 1u);
}

TEST(DepMap, MergeCombinesBuckets) {
  DepMap a, b;
  a.add(key(DepType::kRaw, 20, 10), kLoopCarried, {1, 1, 3, true});
  b.add(key(DepType::kRaw, 20, 10), kLoopCarried, {1, 1, 1, true});
  a.merge(b);
  const DepInfo* info = a.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->levels[0].d1, 1u);
  EXPECT_EQ(info->levels[0].d2p, 1u);
  EXPECT_EQ(info->min_carried_bucket(), 1u);
}

TEST(Detector, NoLoopContextNoFlags) {
  auto det = make_perfect();
  DepMap deps;
  det.process(wr(100, 10), deps);
  det.process(rd(100, 20), deps);
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->flags, 0);
}

// --------------------------------------------------------- tag gating

TEST(Detector, CollidingAddressStillBuildsDepButNoCarriedFlag) {
  // Modulo collision: addr and addr + slots share a slot.  The dependence
  // record is built (approximate membership), but the loop-context compare
  // is gated off by the address tag, so no carried flag can be fabricated.
  const std::uint32_t ctx = nest_forest().enter(NestForest::kRoot, 1, 0);
  DetectorCore<Signature<SeqSlot>> det{
      Signature<SeqSlot>(128, SigHash::kModulo),
      Signature<SeqSlot>(128, SigHash::kModulo)};
  DepMap deps;
  det.process(with_nest(wr(5, 10), ctx, {3}), deps);
  det.process(with_nest(rd(5 + 128, 20), ctx, {4}), deps);  // collides
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr) << "false dependence is still reported";
  EXPECT_EQ(info->flags & kLoopCarried, 0) << "but never classified carried";
  EXPECT_EQ(info->carried_level(), 0u) << "and never attributed";
}

TEST(Detector, SameAddressKeepsCarriedFlagUnderSignature) {
  const std::uint32_t ctx = nest_forest().enter(NestForest::kRoot, 1, 0);
  DetectorCore<Signature<SeqSlot>> det{Signature<SeqSlot>(128),
                                       Signature<SeqSlot>(128)};
  DepMap deps;
  det.process(with_nest(wr(5, 10), ctx, {3}), deps);
  det.process(with_nest(rd(5, 20), ctx, {4}), deps);
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kLoopCarried, 0);
}

// ------------------------------------------------------------- MT slots

AccessEvent mt_ev(std::uint64_t addr, AccessKind kind, std::uint32_t line,
                  std::uint16_t tid, std::uint64_t ts) {
  AccessEvent e = ev(addr, kind, line);
  e.tid = tid;
  e.ts = ts;
  return e;
}

TEST(Detector, CrossThreadFlagAndThreadIds) {
  DetectorCore<PerfectSignature<MtSlot>> det{{}, {}};
  DepMap deps;
  det.process(mt_ev(100, AccessKind::kWrite, 10, /*tid=*/1, /*ts=*/1), deps);
  det.process(mt_ev(100, AccessKind::kRead, 20, /*tid=*/2, /*ts=*/2), deps);
  DepKey k = key(DepType::kRaw, 20, 10);
  k.sink_tid = 2;
  k.src_tid = 1;
  const DepInfo* info = deps.find(k);
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kCrossThread, 0);
  EXPECT_EQ(info->flags & kReversed, 0);
}

TEST(Detector, TimestampReversalFlagsPotentialRace) {
  DetectorCore<PerfectSignature<MtSlot>> det{{}, {}};
  DepMap deps;
  // The write reached the worker first but carries a LATER timestamp than
  // the read that follows: access/push atomicity was violated (Sec. V-B).
  det.process(mt_ev(100, AccessKind::kWrite, 10, 1, /*ts=*/9), deps);
  det.process(mt_ev(100, AccessKind::kRead, 20, 2, /*ts=*/5), deps);
  DepKey k = key(DepType::kRaw, 20, 10);
  k.sink_tid = 2;
  k.src_tid = 1;
  const DepInfo* info = deps.find(k);
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kReversed, 0);
}

// ------------------------------------------------------------- migration

TEST(Detector, ExtractAdoptMovesPerAddressState) {
  auto from = make_perfect();
  auto to = make_perfect();
  DepMap deps;
  from.process(wr(100, 10), deps);
  from.process(rd(100, 15), deps);

  auto st = from.extract_state(100);
  EXPECT_TRUE(st.has_read);
  EXPECT_TRUE(st.has_write);
  to.adopt_state(100, st);

  // The new owner continues the history seamlessly: a read builds RAW
  // against the migrated write.
  to.process(rd(100, 20), deps);
  EXPECT_NE(deps.find(key(DepType::kRaw, 20, 10)), nullptr);
  // And the old owner no longer knows the address.
  from.process(rd(100, 30), deps);
  EXPECT_EQ(deps.find(key(DepType::kRaw, 30, 10)), nullptr);
}

// ------------------------------------------------------------- DepMap

TEST(DepMap, MergesIdenticalInstances) {
  DepMap deps;
  const DepKey k = key(DepType::kRaw, 20, 10);
  deps.add(k, 0);
  deps.add(k, kLoopCarried, {3, 1, 1, true});
  deps.add(k, kCrossThread);
  EXPECT_EQ(deps.size(), 1u);
  const DepInfo* info = deps.find(k);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->count, 3u);
  EXPECT_EQ(info->flags, kLoopCarried | kCrossThread);  // flags accumulate
  EXPECT_EQ(info->carried_loop(), 3u);
  EXPECT_EQ(deps.instances(), 3u);
}

TEST(DepMap, MergeCombinesMaps) {
  DepMap a, b;
  a.add(key(DepType::kRaw, 20, 10), 0);
  b.add(key(DepType::kRaw, 20, 10), kLoopCarried, {9, 1, 1, true});
  b.add(key(DepType::kWar, 21, 11), 0);
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.instances(), 3u);
  EXPECT_EQ(a.find(key(DepType::kRaw, 20, 10))->count, 2u);
  EXPECT_NE(a.find(key(DepType::kRaw, 20, 10))->flags & kLoopCarried, 0);
}

TEST(DepMap, SortedIsDeterministic) {
  DepMap deps;
  deps.add(key(DepType::kWar, 30, 10), 0);
  deps.add(key(DepType::kRaw, 20, 10), 0);
  deps.add(key(DepType::kRaw, 20, 5), 0);
  auto sorted = deps.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_LE(sorted[0].first.sink_loc, sorted[1].first.sink_loc);
  EXPECT_LE(sorted[1].first.sink_loc, sorted[2].first.sink_loc);
}

TEST(DepMap, AddManyMatchesRepeatedAdds) {
  DepMap bulk, loop;
  const DepKey k = key(DepType::kRaw, 20, 10);
  bulk.add_many(k, 5);
  for (int i = 0; i < 5; ++i) loop.add(k, 0);
  EXPECT_EQ(bulk.size(), loop.size());
  EXPECT_EQ(bulk.instances(), loop.instances());
  const DepInfo* info = bulk.find(k);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->count, 5u);
  EXPECT_EQ(info->flags, 0u);
  // Unattributed instances touch no level bucket.
  EXPECT_EQ(info->carried_level(), 0u);
  EXPECT_EQ(info->min_carried_bucket(), 0u);
  bulk.add_many(k, 0);  // zero-count bulk add is a no-op
  EXPECT_EQ(bulk.instances(), 5u);
  EXPECT_EQ(bulk.size(), 1u);
}

TEST(DepMap, FoldMatchesReplayedAdds) {
  // fold() is the batched kernel's flush: one pre-aggregated record per key
  // must land exactly as the per-event adds it replaces.
  const DepKey k = key(DepType::kRaw, 20, 10);
  DepMap replayed;
  replayed.add(k, kLoopCarried, {3, 2, 1, true});
  replayed.add(k, kLoopCarried, {3, 2, 9, true});
  replayed.add(k, kCrossThread);

  DepMap folded;
  DepInfo rec;
  // Build the pre-aggregated record exactly as the batched accumulator does.
  apply_dep_instance(rec, kLoopCarried, {3, 2, 1, true});
  apply_dep_instance(rec, kLoopCarried, {3, 2, 9, true});
  apply_dep_instance(rec, kCrossThread, {});
  folded.fold(k, rec);

  EXPECT_EQ(folded.instances(), replayed.instances());
  const DepInfo* a = folded.find(k);
  const DepInfo* b = replayed.find(k);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->count, b->count);
  EXPECT_EQ(a->flags, b->flags);
  for (std::size_t d = 0; d < kNestLevels; ++d) {
    EXPECT_EQ(a->levels[d].loop, b->levels[d].loop) << "level " << d;
    EXPECT_EQ(a->levels[d].d0, b->levels[d].d0) << "level " << d;
    EXPECT_EQ(a->levels[d].d1, b->levels[d].d1) << "level " << d;
    EXPECT_EQ(a->levels[d].d2p, b->levels[d].d2p) << "level " << d;
  }
}

TEST(DepMap, FoldCombinesLevelBuckets) {
  // Folding a record on top of an existing entry must sum the per-level
  // buckets and max-join the loop ids — never overwrite either side.
  const DepKey k = key(DepType::kRaw, 20, 10);
  DepMap deps;
  deps.add(k, kLoopCarried, {3, 1, 5, true});  // level 1, d>=2 bucket
  DepInfo rec;
  apply_dep_instance(rec, kLoopCarried, {7, 1, 1, true});  // level 1, d=1
  apply_dep_instance(rec, 0, {2, 2, 0, true});             // level 2, d=0
  deps.fold(k, rec);
  const DepInfo* info = deps.find(k);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->count, 3u);
  EXPECT_EQ(info->levels[0].loop, 7u);  // max-join of 3 and 7
  EXPECT_EQ(info->levels[0].d1, 1u);
  EXPECT_EQ(info->levels[0].d2p, 1u);
  EXPECT_EQ(info->levels[1].loop, 2u);
  EXPECT_EQ(info->levels[1].d0, 1u);
  EXPECT_EQ(info->min_carried_bucket(), 1u);
}

TEST(DepMap, MergeFromTransfersAndEmptiesSource) {
  DepMap a, b;
  a.add(key(DepType::kRaw, 20, 10), 0);
  b.add(key(DepType::kRaw, 20, 10), kLoopCarried, {9, 1, 1, true});
  b.add(key(DepType::kWar, 21, 11), 0);
  a.merge_from(b);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.instances(), 0u);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.instances(), 3u);
  EXPECT_EQ(a.find(key(DepType::kRaw, 20, 10))->count, 2u);
  EXPECT_NE(a.find(key(DepType::kRaw, 20, 10))->flags & kLoopCarried, 0);
}

TEST(DepMap, MergeFromKeepsMemChargeExact) {
  MemStats::instance().reset();
  DepMap a, b;
  a.add(key(DepType::kRaw, 20, 10), 0);
  const std::int64_t per_entry =
      MemStats::instance().bytes(MemComponent::kDepMaps);
  ASSERT_GT(per_entry, 0);
  b.add(key(DepType::kRaw, 20, 10), 0);  // duplicate: collapses on merge
  b.add(key(DepType::kWar, 21, 11), 0);  // unique: transfers
  ASSERT_EQ(MemStats::instance().bytes(MemComponent::kDepMaps), 3 * per_entry);

  a.merge_from(b);
  // Two live entries remain, and the transfer never allocated a shadow copy:
  // the high-water mark is the pre-merge three entries, not four.
  EXPECT_EQ(MemStats::instance().bytes(MemComponent::kDepMaps), 2 * per_entry);
  EXPECT_EQ(MemStats::instance().peak(MemComponent::kDepMaps), 3 * per_entry);
}

TEST(DepMap, SortedHandlesInitOnlyEntries) {
  // INIT keys have src_loc == 0 (no source statement); sorting must order
  // them by sink without touching the absent source.
  DepMap deps;
  deps.add(key(DepType::kInit, 12, 0), 0);
  deps.add(key(DepType::kInit, 10, 0), 0);
  deps.add(key(DepType::kInit, 11, 0), 0);
  auto sorted = deps.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  for (std::size_t i = 1; i < sorted.size(); ++i)
    EXPECT_LT(sorted[i - 1].first.sink_loc, sorted[i].first.sink_loc);
  for (const auto& [k, info] : sorted) {
    EXPECT_EQ(k.type, DepType::kInit);
    EXPECT_EQ(k.src_loc, 0u);
  }
}

TEST(DepMap, MoveLeavesSourceEmpty) {
  DepMap a;
  a.add(key(DepType::kRaw, 20, 10), 0);
  DepMap b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
  EXPECT_EQ(a.instances(), 0u);
}

TEST(DepMap, ChargesAndReleasesMemory) {
  MemStats::instance().reset();
  {
    DepMap deps;
    deps.add(key(DepType::kRaw, 20, 10), 0);
    EXPECT_GT(MemStats::instance().bytes(MemComponent::kDepMaps), 0);
  }
  EXPECT_EQ(MemStats::instance().bytes(MemComponent::kDepMaps), 0);
}

TEST(DepTypeName, AllNames) {
  EXPECT_STREQ(dep_type_name(DepType::kInit), "INIT");
  EXPECT_STREQ(dep_type_name(DepType::kRaw), "RAW");
  EXPECT_STREQ(dep_type_name(DepType::kWar), "WAR");
  EXPECT_STREQ(dep_type_name(DepType::kWaw), "WAW");
}

}  // namespace
}  // namespace depprof
