#pragma once
// Exact reference profiler for differential testing.
//
// The profiler stack's whole value proposition is that the lossy, lock-free
// pipeline (signatures + chunked queues + migration) produces the *same*
// dependences an exact profiler would, modulo a quantified signature error
// (Sec. VI-A).  This oracle is the other side of that contract: a naive
// per-address last-writer/last-reader map over the raw event stream — no
// signatures, no chunking, no pipeline — implemented independently of
// DetectorCore so that a bug in Algorithm 1, the slot classification, the
// chunk path, or the merge shows up as a divergence instead of being
// replicated on both sides.
//
// Semantics replicated from the paper text (and deliberately not from the
// detector sources): INIT on the first write to a live address; WAW against
// the last write; WAR against the last read (the signature keeps one read
// slot per address, so only the most recent read is a WAR source); RAW
// against the last write; RAR ignored (Sec. III-B); kFree clears the
// address.  Loop-carried classification resolves the two recorded nest
// contexts to their innermost common loop entry — via an ancestor-chain
// scan implemented independently of the detector's lockstep LCA walk (same
// forest data, independently derived answer) — and buckets the carried
// distance per nest level exactly as DepMap does; MT mode adds thread ids
// to the dependence endpoints and flags timestamp reversals (Sec. V-B).

#include <cstdint>
#include <unordered_map>

#include "core/dep.hpp"
#include "trace/event.hpp"
#include "trace/trace.hpp"

namespace depprof {

/// The exact profiler: an AccessSink accumulating the reference DepMap.
class ExactOracle final : public AccessSink {
 public:
  /// `mt_targets` mirrors ProfilerConfig::mt_targets: thread ids land in the
  /// dependence endpoints and timestamp reversals are flagged.
  explicit ExactOracle(bool mt_targets = false) : mt_(mt_targets) {}

  void on_access(const AccessEvent& ev) override;

  const DepMap& dependences() const { return deps_; }
  DepMap take_dependences() { return std::move(deps_); }

 private:
  /// Everything remembered about the most recent read or write of one
  /// address — the exact analogue of a signature slot, without the tag.
  struct LastAccess {
    std::uint32_t loc = 0;
    std::uint16_t tid = 0;
    std::uint8_t flags = 0;  ///< AccessFlags (kInLockRegion) of that access
    std::uint64_t ts = 0;
    std::uint32_t ctx = 0;                 ///< innermost dynamic loop entry
    std::uint32_t iter = 0;                ///< AccessEvent::iter
  };

  static LastAccess remember(const AccessEvent& ev);
  void emit(const AccessEvent& sink, const LastAccess& src, DepType type);

  bool mt_;
  std::unordered_map<std::uint64_t, LastAccess> last_read_;
  std::unordered_map<std::uint64_t, LastAccess> last_write_;
  DepMap deps_;
};

/// Convenience: the exact dependences of a whole trace.
DepMap oracle_dependences(const Trace& trace, bool mt_targets = false);

}  // namespace depprof
