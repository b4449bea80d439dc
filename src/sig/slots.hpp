#pragma once
// Signature slot layouts.
//
// The paper stores, per slot, the source line of the most recent access so
// that the *source* end of a dependence can be reconstructed (Sec. III-B:
// "each slot of the array is three bytes long ... so that the source line
// number ... can be stored in it"; the evaluation uses 4-byte slots).
//
// Our slots additionally record the nest context of the access — the
// interned innermost dynamic loop entry (trace/nest.hpp) and the access's
// iteration at that entry's own level — which is what the Sec. VII-A
// parallelism discovery needs to tell loop-carried from intra-iteration
// dependences at every nest level, and — in the MT layout (Sec. V) — the
// accessing thread id and the global timestamp used for race detection.
// The iterations of enclosing levels are not stored: they are a property of
// the loop entry, not of the access, so the detector reads them from the
// forest's `entry_iter` (event.hpp's entry invariant), for the recorded
// source and the current sink alike.  That keeps the
// sequential slot at 16 bytes and the MT slot at 32 — a small constant, so
// the signature's bounded-memory property is unchanged; only the constant
// differs from the paper's 4 bytes.
//
// Address tag: a hash collision in the paper's line-only slots usually
// produces an *identical* dependence record (same array, same lines), which
// is why measured FPR stays low even at high occupancy.  Our richer slots
// would instead compare loop iterations of two different array elements and
// silently flip a loop-carried verdict.  Each slot therefore carries a
// 4-byte tag of the recorded address; the detector trusts the loop-context
// and timestamp comparisons only when the tag matches.  Membership checks
// and source-line reconstruction ignore the tag, so the approximate-set
// semantics (and Table I's FPR/FNR behaviour) are exactly the paper's.

#include <cstdint>

#include "common/hash.hpp"
#include "common/location.hpp"
#include "trace/event.hpp"

namespace depprof {

/// Tag of a recorded address, gating context comparisons (see above).
constexpr std::uint32_t addr_tag(std::uint64_t addr) {
  return static_cast<std::uint32_t>(hash_address(addr) >> 32);
}

/// Slot contents for sequential-target profiling.
struct SeqSlot {
  std::uint32_t loc = 0;  ///< packed SourceLocation of the last access; 0 = empty
  std::uint32_t tag = 0;  ///< addr_tag of the recorded address
  std::uint32_t ctx = 0;  ///< innermost dynamic loop entry (NestForest id)
  /// The access's AccessEvent::iter: its iteration at ctx's depth, or at
  /// depth kNestIters for deeper contexts.
  std::uint32_t iter = 0;

  bool empty() const { return loc == 0; }
  SourceLocation location() const { return SourceLocation::from_packed(loc); }
};

/// Slot contents for multi-threaded-target profiling (Sec. V).
struct MtSlot {
  std::uint32_t loc = 0;  ///< packed SourceLocation of the last access; 0 = empty
  std::uint32_t tag = 0;  ///< addr_tag of the recorded address
  std::uint32_t ctx = 0;  ///< innermost dynamic loop entry (NestForest id)
  std::uint32_t iter = 0;  ///< iteration at ctx's own depth (see SeqSlot)
  std::uint32_t tid = 0;  ///< target-program thread id of the last access
  /// AccessFlags of the last access (kInLockRegion feeds the Sec. V-B lock
  /// suppression).  Fills the alignment hole before `ts`.
  std::uint32_t flags = 0;
  std::uint64_t ts = 0;  ///< global timestamp of the last access (race check)

  bool empty() const { return loc == 0; }
  SourceLocation location() const { return SourceLocation::from_packed(loc); }
};

static_assert(sizeof(SeqSlot) == 16);
static_assert(sizeof(MtSlot) == 32);

}  // namespace depprof
