// Unit and property tests for the signature substrate: fixed-size
// signature, perfect signature, shadow memory, hash-table recorder, and the
// formula-2 FPR model.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/huge_alloc.hpp"
#include "common/mem_stats.hpp"
#include "common/rng.hpp"
#include "sig/fpr_model.hpp"
#include "sig/hash_table_recorder.hpp"
#include "sig/packed_shadow_store.hpp"
#include "sig/perfect_signature.hpp"
#include "sig/shadow_memory.hpp"
#include "sig/signature.hpp"
#include "sig/slots.hpp"

namespace depprof {
namespace {

SeqSlot slot_at(std::uint32_t line) {
  SeqSlot s;
  s.loc = SourceLocation(1, line).packed();
  return s;
}

// ---------------------------------------------------------------- Signature

TEST(Signature, InsertFindRemove) {
  Signature<SeqSlot> sig(1024);
  EXPECT_EQ(sig.find(42), nullptr);
  sig.insert(42, slot_at(10));
  ASSERT_NE(sig.find(42), nullptr);
  EXPECT_EQ(sig.find(42)->location().line(), 10u);
  EXPECT_EQ(sig.occupied(), 1u);
  sig.remove(42);
  EXPECT_EQ(sig.find(42), nullptr);
  EXPECT_EQ(sig.occupied(), 0u);
}

TEST(Signature, InsertOverwritesSlot) {
  Signature<SeqSlot> sig(1024);
  sig.insert(42, slot_at(10));
  sig.insert(42, slot_at(20));
  EXPECT_EQ(sig.find(42)->location().line(), 20u);
  EXPECT_EQ(sig.occupied(), 1u);
}

TEST(Signature, ModuloCollisionSharesSlot) {
  // Under modulo indexing, addr and addr + slot_count collide by design.
  Signature<SeqSlot> sig(128, SigHash::kModulo);
  sig.insert(5, slot_at(10));
  ASSERT_NE(sig.find(5 + 128), nullptr);  // approximate membership: false hit
  EXPECT_EQ(sig.find(5 + 128)->location().line(), 10u);
}

TEST(Signature, RemoveClearsCollidingResident) {
  // Removal clears whatever occupies the slot — the accepted approximation
  // of the variable-lifetime analysis.
  Signature<SeqSlot> sig(128, SigHash::kModulo);
  sig.insert(5, slot_at(10));
  sig.remove(5 + 128);
  EXPECT_EQ(sig.find(5), nullptr);
}

TEST(Signature, ExtractMovesState) {
  Signature<SeqSlot> sig(1024);
  sig.insert(7, slot_at(33));
  auto st = sig.extract(7);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->location().line(), 33u);
  EXPECT_EQ(sig.find(7), nullptr);
  EXPECT_FALSE(sig.extract(7).has_value());
}

TEST(Signature, IntersectCountsSharedSlots) {
  Signature<SeqSlot> a(256), b(256);
  a.insert(1, slot_at(1));
  b.insert(1, slot_at(2));
  a.insert(9, slot_at(1));
  // Address 1 was inserted into both: disambiguation must count it.
  EXPECT_GE(a.intersect_count(b), 1u);
}

TEST(Signature, ClearResetsEverything) {
  Signature<SeqSlot> sig(64);
  for (std::uint64_t i = 0; i < 50; ++i) sig.insert(i, slot_at(1));
  sig.clear();
  EXPECT_EQ(sig.occupied(), 0u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(sig.find(i), nullptr);
}

TEST(Signature, BytesIsSlotCountTimesSlotSize) {
  Signature<SeqSlot> sig(1000);
  EXPECT_EQ(sig.bytes(), 1000 * sizeof(SeqSlot));
  Signature<MtSlot> mt(1000);
  EXPECT_EQ(mt.bytes(), 1000 * sizeof(MtSlot));
}

TEST(Signature, ZeroSlotCountClampsToOne) {
  Signature<SeqSlot> sig(0);
  EXPECT_EQ(sig.slot_count(), 1u);
  sig.insert(1, slot_at(1));
  EXPECT_NE(sig.find(999), nullptr);  // everything shares the single slot
}

TEST(Signature, MemoryAccountingCharged) {
  MemStats::instance().reset();
  {
    Signature<SeqSlot> sig(1024);
    EXPECT_EQ(MemStats::instance().bytes(MemComponent::kSignatures),
              static_cast<std::int64_t>(1024 * sizeof(SeqSlot)));
  }
  EXPECT_EQ(MemStats::instance().bytes(MemComponent::kSignatures), 0);
}

// Parameterized property: under both index functions, an element inserted
// and not removed is always found (no false negatives of *membership*).
class SignatureHashProperty : public ::testing::TestWithParam<SigHash> {};

TEST_P(SignatureHashProperty, MembershipNeverMissesInsertedElements) {
  Signature<SeqSlot> sig(1u << 14, GetParam());
  Rng rng(5);
  std::set<std::uint64_t> inserted;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t addr = rng.below(1u << 20);
    sig.insert(addr, slot_at(1));
    inserted.insert(addr);
  }
  for (std::uint64_t addr : inserted) EXPECT_NE(sig.find(addr), nullptr);
}

TEST_P(SignatureHashProperty, OccupancyNeverExceedsInsertions) {
  Signature<SeqSlot> sig(1u << 10, GetParam());
  Rng rng(6);
  for (int i = 0; i < 500; ++i) sig.insert(rng(), slot_at(1));
  EXPECT_LE(sig.occupied(), 500u);
  EXPECT_LE(sig.occupied(), sig.slot_count());
}

INSTANTIATE_TEST_SUITE_P(BothHashes, SignatureHashProperty,
                         ::testing::Values(SigHash::kModulo, SigHash::kMix));

// -------------------------------------------------------- PerfectSignature

TEST(PerfectSignature, NeverCollides) {
  PerfectSignature<SeqSlot> sig;
  sig.insert(5, slot_at(10));
  EXPECT_EQ(sig.find(5 + 128), nullptr);
  EXPECT_EQ(sig.find(5 + (1u << 20)), nullptr);
  ASSERT_NE(sig.find(5), nullptr);
}

TEST(PerfectSignature, RemoveIsExact) {
  PerfectSignature<SeqSlot> sig;
  sig.insert(5, slot_at(10));
  sig.insert(6, slot_at(11));
  sig.remove(5);
  EXPECT_EQ(sig.find(5), nullptr);
  ASSERT_NE(sig.find(6), nullptr);
  EXPECT_EQ(sig.occupied(), 1u);
}

TEST(PerfectSignature, ExtractAndBytesGrowWithContent) {
  PerfectSignature<SeqSlot> sig;
  EXPECT_EQ(sig.bytes(), 0u);
  sig.insert(1, slot_at(1));
  EXPECT_GT(sig.bytes(), 0u);
  auto st = sig.extract(1);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(sig.bytes(), 0u);
}

// ------------------------------------------------------------ ShadowMemory

TEST(ShadowMemory, ExactWithinPage) {
  ShadowMemory<SeqSlot> shadow;
  shadow.insert(100, slot_at(10));
  ASSERT_NE(shadow.find(100), nullptr);
  EXPECT_EQ(shadow.find(101), nullptr);
  EXPECT_EQ(shadow.page_count(), 1u);
}

TEST(ShadowMemory, PagesAllocatedOnDemand) {
  ShadowMemory<SeqSlot> shadow;
  shadow.insert(0, slot_at(1));
  shadow.insert(ShadowMemory<SeqSlot>::kPageSlots + 5, slot_at(2));
  EXPECT_EQ(shadow.page_count(), 2u);
  EXPECT_GE(shadow.bytes(),
            2 * ShadowMemory<SeqSlot>::kPageSlots * sizeof(SeqSlot));
}

TEST(ShadowMemory, SparseAddressesBlowUpMemory) {
  // The Sec. III-B problem: widely spread addresses allocate a page each.
  ShadowMemory<SeqSlot> shadow;
  for (std::uint64_t i = 0; i < 64; ++i)
    shadow.insert(i * (ShadowMemory<SeqSlot>::kPageSlots * 4), slot_at(1));
  EXPECT_GE(shadow.page_count(), 32u);
  Signature<SeqSlot> sig(1024);
  EXPECT_GT(shadow.bytes(), sig.bytes() * 10);
}

TEST(ShadowMemory, RemoveAndExtract) {
  ShadowMemory<SeqSlot> shadow;
  shadow.insert(100, slot_at(10));
  auto st = shadow.extract(100);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(shadow.find(100), nullptr);
  shadow.remove(12345);  // removing absent address is a no-op
}

// -------------------------------------------------------- PackedShadowStore

using PackedSeq = PackedShadowStore<SeqSlot>;
using PackedMt = PackedShadowStore<MtSlot>;

TEST(PackedShadowStore, PackUnpackRoundTripsAtFieldBoundaries) {
  // All-ones loc must not bleed into the token half and vice versa.
  constexpr std::uint32_t kMaxLoc = 0xFFFFFFFFu;
  constexpr std::uint32_t kMaxToken = 0xFFFFFFFFu;
  static_assert(PackedSeq::word_loc(PackedSeq::pack_word(kMaxLoc, 0)) ==
                kMaxLoc);
  static_assert(PackedSeq::word_token(PackedSeq::pack_word(kMaxLoc, 0)) == 0u);
  static_assert(PackedSeq::word_loc(PackedSeq::pack_word(0, kMaxToken)) == 0u);
  static_assert(PackedSeq::word_token(PackedSeq::pack_word(0, kMaxToken)) ==
                kMaxToken);
  static_assert(PackedSeq::word_loc(PackedSeq::pack_word(kMaxLoc, kMaxToken)) ==
                kMaxLoc);
  static_assert(
      PackedSeq::word_token(PackedSeq::pack_word(kMaxLoc, kMaxToken)) ==
      kMaxToken);
  // The zero word doubles as the empty sentinel.
  static_assert(PackedSeq::pack_word(0, 0) == 0u);
  // Alternating bit patterns survive both directions (no sign extension).
  constexpr std::uint64_t w = PackedSeq::pack_word(0xAAAAAAAAu, 0x55555555u);
  static_assert(PackedSeq::word_loc(w) == 0xAAAAAAAAu);
  static_assert(PackedSeq::word_token(w) == 0x55555555u);
  SUCCEED();
}

TEST(PackedShadowStore, InsertFindRemove) {
  PackedSeq store;
  EXPECT_EQ(store.find(42), nullptr);
  store.insert(42, slot_at(10));
  ASSERT_NE(store.find(42), nullptr);
  EXPECT_EQ(store.find(42)->location().line(), 10u);
  EXPECT_EQ(store.find(42)->tag, addr_tag(42));  // recomputed, not stored
  EXPECT_EQ(store.occupied(), 1u);
  EXPECT_EQ(store.page_count(), 1u);
  store.remove(42);
  EXPECT_EQ(store.find(42), nullptr);
  EXPECT_EQ(store.occupied(), 0u);
  store.remove(12345);  // removing an absent address is a no-op
}

TEST(PackedShadowStore, MaxLocRoundTripsThroughPage) {
  // The largest packed SourceLocation occupies every loc bit; it must come
  // back intact (and must not read as a token).
  PackedSeq store;
  SeqSlot s;
  s.loc = 0xFFFFFFFFu;
  s.ctx = 7;
  s.iter = 3;
  store.insert(99, s);
  const SeqSlot* got = store.find(99);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->loc, 0xFFFFFFFFu);
  EXPECT_EQ(got->ctx, 7u);
  EXPECT_EQ(got->iter, 3u);
}

TEST(PackedShadowStore, OverwriteReplacesSnapshotWithoutLeakingTokens) {
  PackedSeq store;
  SeqSlot s = slot_at(10);
  s.iter = 1;
  store.insert(42, s);
  s = slot_at(20);
  s.iter = 2;
  store.insert(42, s);
  EXPECT_EQ(store.occupied(), 1u);
  EXPECT_EQ(store.find(42)->location().line(), 20u);
  EXPECT_EQ(store.find(42)->iter, 2u);
  // Only the live snapshot remains interned after the overwrite.
  EXPECT_EQ(store.interned_snapshots(), 1u);
}

TEST(PackedShadowStore, InsertingEmptySlotReadsAsAbsent) {
  // Shadow semantics: writing an empty slot is a removal, so a store that
  // round-trips through extract/adopt behaves identically to ShadowMemory.
  PackedSeq store;
  store.insert(42, slot_at(10));
  store.insert(42, SeqSlot{});
  EXPECT_EQ(store.find(42), nullptr);
  EXPECT_EQ(store.occupied(), 0u);
  EXPECT_EQ(store.interned_snapshots(), 0u);
}

TEST(PackedShadowStore, TokenRecyclingBoundsTheInternTable) {
  // The wrap guard in practice: overwrite churn with ever-fresh snapshots
  // must recycle ids through the free list, not mint unboundedly toward the
  // 2^31 aliasing cliff.  Acquire-before-release means at most two ids are
  // live during one overwrite.
  PackedSeq store;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    SeqSlot s = slot_at(5);
    s.iter = i;  // every insert carries a brand-new snapshot
    store.insert(7, s);
  }
  EXPECT_EQ(store.interned_snapshots(), 1u);
  EXPECT_LE(store.snapshot_high_water(), 2u);
  // Insert/remove churn never overlaps two snapshots at all.
  PackedSeq churn;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    SeqSlot s = slot_at(5);
    s.iter = i;
    churn.insert(7, s);
    churn.remove(7);
  }
  EXPECT_EQ(churn.interned_snapshots(), 0u);
  EXPECT_EQ(churn.snapshot_high_water(), 1u);
}

TEST(PackedShadowStore, MtSidecarKeepsFlagBitsAndFullTimestamp) {
  // All-ones flags and a max timestamp must survive the sidecar round trip
  // without aliasing into each other, the tid, or the packed word — the
  // race check compares full 64-bit timestamps.
  PackedMt store;
  MtSlot s;
  s.loc = 0xFFFFFFFFu;
  s.ctx = 3;
  s.iter = 9;
  s.tid = 0xFFFFFFFFu;
  s.flags = 0xFFFFFFFFu;
  s.ts = ~std::uint64_t{0};
  store.insert(1234, s);
  const MtSlot* got = store.find(1234);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->loc, 0xFFFFFFFFu);
  EXPECT_EQ(got->tid, 0xFFFFFFFFu);
  EXPECT_EQ(got->flags, 0xFFFFFFFFu);
  EXPECT_EQ(got->ts, ~std::uint64_t{0});
  EXPECT_EQ(got->iter, 9u);
  // A sibling word on the same page stays independent.
  MtSlot other;
  other.loc = 1;
  store.insert(1235, other);
  EXPECT_EQ(store.find(1234)->ts, ~std::uint64_t{0});
  EXPECT_EQ(store.find(1235)->ts, 0u);
}

TEST(PackedShadowStore, ExtractMovesState) {
  PackedSeq store;
  store.insert(7, slot_at(33));
  auto st = store.extract(7);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->location().line(), 33u);
  EXPECT_EQ(store.find(7), nullptr);
  EXPECT_FALSE(store.extract(7).has_value());
  EXPECT_EQ(store.interned_snapshots(), 0u);
}

TEST(PackedShadowStore, PagesAllocatedOnTouchOnly) {
  PackedSeq store;
  store.insert(0, slot_at(1));
  store.insert(PackedSeq::kPageWords + 5, slot_at(2));   // second leaf page
  store.insert((std::uint64_t{1} << 40) + 9, slot_at(3));  // far directory
  EXPECT_EQ(store.page_count(), 3u);
  ASSERT_NE(store.find((std::uint64_t{1} << 40) + 9), nullptr);
  EXPECT_EQ(store.find((std::uint64_t{1} << 40) + 8), nullptr);
}

TEST(PackedShadowStore, TeardownReleasesEveryByte) {
  // Page-table teardown must return every charged byte: clear() keeps only
  // the (re-zeroed) root directory, destruction releases that too.
  const std::int64_t base = MemStats::instance().bytes(MemComponent::kStore);
  std::int64_t after_clear = 0;
  {
    PackedSeq store;
    const std::int64_t rooted =
        MemStats::instance().bytes(MemComponent::kStore);
    EXPECT_GT(rooted, base);  // eager root directory
    for (std::uint64_t i = 0; i < 8; ++i)
      store.insert(i * PackedSeq::kPageWords, slot_at(1));
    EXPECT_EQ(store.page_count(), 8u);
    EXPECT_GT(MemStats::instance().bytes(MemComponent::kStore), rooted);
    store.clear();
    after_clear = MemStats::instance().bytes(MemComponent::kStore);
    EXPECT_EQ(after_clear, rooted);  // pages and directories all released
    EXPECT_EQ(store.page_count(), 0u);
    EXPECT_EQ(store.occupied(), 0u);
    // The store stays usable after a reset (burst-mark semantics).
    store.insert(42, slot_at(10));
    ASSERT_NE(store.find(42), nullptr);
  }
  EXPECT_EQ(MemStats::instance().bytes(MemComponent::kStore), base);
}

// ---------------------------------------------------------------- huge_alloc

TEST(HugeAlloc, ForcedFallbackCountsAndStaysUsable) {
  // When mmap/MADV_HUGEPAGE is unavailable the allocator must degrade to
  // operator new, count the degradation, zero the block (matching kernel
  // zero-fill semantics the packed store's empty sentinel relies on), and
  // free it through the right deallocator.
  const std::uint64_t before = huge::fallback_count();
  huge::set_force_fallback(true);
  void* p = huge::alloc(huge::kHugeThreshold);
  huge::set_force_fallback(false);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(huge::fallback_count(), before + 1);
  const auto* bytes = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < huge::kHugeThreshold; i += 4096)
    ASSERT_EQ(bytes[i], 0u) << "fallback block not zeroed at offset " << i;
  huge::free(p, huge::kHugeThreshold);  // must route to the fallback path
  // Sub-threshold blocks never touch mmap and never count as fallbacks.
  const std::uint64_t small_before = huge::fallback_count();
  void* q = huge::alloc_zeroed(4096);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(huge::fallback_count(), small_before);
  huge::free(q, 4096);
}

TEST(HugeAlloc, PackedStoreSurvivesForcedFallback) {
  // The packed store's leaf pages are exactly one huge block each; with the
  // fast path gone it must still behave identically.
  huge::set_force_fallback(true);
  {
    PackedSeq store;
    store.insert(5, slot_at(11));
    store.insert(PackedSeq::kPageWords + 6, slot_at(12));
    ASSERT_NE(store.find(5), nullptr);
    EXPECT_EQ(store.find(5)->location().line(), 11u);
    EXPECT_EQ(store.page_count(), 2u);
  }
  huge::set_force_fallback(false);
}

// ------------------------------------------------------ HashTableRecorder

TEST(HashTableRecorder, ExactMembership) {
  HashTableRecorder<SeqSlot> table(16);  // tiny bucket count forces chains
  for (std::uint64_t i = 0; i < 100; ++i) table.insert(i, slot_at(i % 30 + 1));
  EXPECT_EQ(table.occupied(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_NE(table.find(i), nullptr);
    EXPECT_EQ(table.find(i)->location().line(), i % 30 + 1);
  }
  EXPECT_EQ(table.find(1000), nullptr);
}

TEST(HashTableRecorder, InsertUpdatesInPlace) {
  HashTableRecorder<SeqSlot> table(16);
  table.insert(1, slot_at(10));
  table.insert(1, slot_at(20));
  EXPECT_EQ(table.occupied(), 1u);
  EXPECT_EQ(table.find(1)->location().line(), 20u);
}

TEST(HashTableRecorder, ExtractFromChainMiddle) {
  HashTableRecorder<SeqSlot> table(1);  // single bucket: everything chains
  for (std::uint64_t i = 0; i < 10; ++i) table.insert(i, slot_at(i + 1));
  auto st = table.extract(5);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->location().line(), 6u);
  EXPECT_EQ(table.occupied(), 9u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    if (i == 5)
      EXPECT_EQ(table.find(i), nullptr);
    else
      EXPECT_NE(table.find(i), nullptr);
  }
}

// ---------------------------------------------------------------- FPR model

TEST(FprModel, MatchesClosedFormOnSmallValues) {
  // 1 - (1 - 1/m)^n computed directly.
  EXPECT_NEAR(predicted_fpr(10, 5), 1.0 - std::pow(0.9, 5), 1e-12);
  EXPECT_NEAR(predicted_fpr(100, 100), 1.0 - std::pow(0.99, 100), 1e-12);
}

TEST(FprModel, Monotonicity) {
  // More addresses => higher FPR; more slots => lower FPR.
  EXPECT_LT(predicted_fpr(1000, 10), predicted_fpr(1000, 100));
  EXPECT_GT(predicted_fpr(1000, 100), predicted_fpr(10000, 100));
}

TEST(FprModel, EdgeCases) {
  EXPECT_EQ(predicted_fpr(0, 100), 1.0);
  EXPECT_EQ(predicted_fpr(100, 0), 0.0);
  EXPECT_NEAR(predicted_fpr(1, 1), 1.0, 1e-12);
}

TEST(FprModel, SizingInvertsTheModel) {
  const std::size_t n = 100'000;
  for (double target : {0.3, 0.1, 0.01}) {
    const std::size_t m = slots_for_target_fpr(n, target);
    EXPECT_LE(predicted_fpr(m, n), target + 1e-9);
    // One slot fewer must overshoot (minimality, allowing rounding slack).
    if (m > 2) {
      EXPECT_GT(predicted_fpr(m - 2, n), target - 1e-3);
    }
  }
}

TEST(FprModel, SizingEdgeCases) {
  EXPECT_EQ(slots_for_target_fpr(0, 0.01), 1u);
  EXPECT_EQ(slots_for_target_fpr(100, 1.0), 1u);
}

// Property: measured occupancy after inserting n random addresses tracks
// formula 2 within a small tolerance (the formula-2 bench sweeps widely;
// this pins a few points as a regression test).
class Formula2Property
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(Formula2Property, OccupancyMatchesModel) {
  const auto [m, n] = GetParam();
  Signature<SeqSlot> sig(m);
  Rng rng(99);
  for (std::size_t i = 0; i < n; ++i) sig.insert(rng(), slot_at(1));
  EXPECT_NEAR(sig.load_factor(), predicted_fpr(m, n), 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Points, Formula2Property,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1u << 12, 1u << 10},
                      std::pair<std::size_t, std::size_t>{1u << 12, 1u << 12},
                      std::pair<std::size_t, std::size_t>{1u << 14, 1u << 12},
                      std::pair<std::size_t, std::size_t>{1u << 14, 1u << 15}));

}  // namespace
}  // namespace depprof
