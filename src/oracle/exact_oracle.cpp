#include "oracle/exact_oracle.hpp"

#include <vector>

#include "common/hash.hpp"
#include "trace/nest.hpp"

namespace depprof {
namespace {

/// Independent nest attribution: collect each context's ancestor chain
/// (innermost -> root), then scan for the deepest entry present in both.
/// Deliberately a different algorithm than the detector's lockstep
/// depth-levelled walk — same forest data, independently derived answer —
/// so an off-by-one in either side shows up as a differential divergence.
struct OracleAttr {
  std::uint32_t loop = 0;
  std::uint32_t level = 0;
  std::uint32_t distance = 0;
  bool distance_known = true;
};

OracleAttr oracle_attribute(std::uint32_t src_ctx, std::uint32_t src_iter,
                            std::uint32_t sink_ctx, std::uint32_t sink_iter) {
  OracleAttr r;
  const NestForest& forest = nest_forest();
  // Ancestor chain of the source context, innermost first.
  std::vector<std::uint32_t> chain;
  for (std::uint32_t c = src_ctx; c != NestForest::kRoot;
       c = forest.parent(c))
    chain.push_back(c);
  // Walk the sink's chain outward; the first hit in the source chain is the
  // deepest common entry.  An endpoint's iteration at that entry's level is
  // its own iteration when the entry is its context, else the entry
  // iteration of its chain's node just below (the event.hpp invariant).
  std::uint32_t below = NestForest::kRoot;  // sink chain node under c
  for (std::uint32_t c = sink_ctx; c != NestForest::kRoot;
       below = c, c = forest.parent(c)) {
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (chain[i] != c) continue;
      r.loop = forest.loop(c);
      r.level = forest.depth(c);
      if (r.level <= kNestIters) {
        const std::uint32_t ia =
            i == 0 ? src_iter : forest.entry_iter(chain[i - 1]);
        const std::uint32_t ib =
            c == sink_ctx ? sink_iter : forest.entry_iter(below);
        r.distance = ib > ia ? ib - ia : ia - ib;
      } else {
        r.distance_known = false;
      }
      return r;
    }
  }
  return r;
}

}  // namespace

ExactOracle::LastAccess ExactOracle::remember(const AccessEvent& ev) {
  LastAccess a;
  a.loc = ev.loc;
  a.tid = ev.tid;
  a.flags = ev.flags;
  a.ts = ev.ts;
  a.ctx = ev.ctx;
  a.iter = ev.iter;
  return a;
}

void ExactOracle::emit(const AccessEvent& sink, const LastAccess& src,
                       DepType type) {
  const OracleAttr attr =
      oracle_attribute(src.ctx, src.iter, sink.ctx, sink.iter);
  std::uint8_t flags = 0;
  if (attr.loop != 0 && (!attr.distance_known || attr.distance != 0))
    flags |= kLoopCarried;
  if (src.ctx != sink.ctx && (src.ctx != 0 || sink.ctx != 0))
    flags |= kCrossLoop;
  if (mt_) {
    if (src.tid != sink.tid) flags |= kCrossThread;
    if (src.ts > sink.ts) flags |= kReversed;
    if ((src.flags & kInLockRegion) != 0 &&
        (sink.flags & kInLockRegion) != 0)
      flags |= kLockProtected;
  }
  DepKey k;
  k.sink_loc = sink.loc;
  k.src_loc = src.loc;
  k.var = sink.var;
  k.sink_tid = sink.tid;
  if (mt_) k.src_tid = src.tid;
  k.type = type;
  DepAttribution at;
  at.loop = attr.loop;
  at.level = attr.level;
  at.distance = attr.distance;
  at.distance_known = attr.distance_known;
  deps_.add(k, flags, at);
}

void ExactOracle::on_access(const AccessEvent& ev) {
  if (ev.is_burst_mark()) {
    // Sampling gap: the same clearing rule the detectors apply, derived
    // independently — forget every last access so no dependence spans the
    // unobserved region.
    last_read_.clear();
    last_write_.clear();
    return;
  }
  const std::uint64_t unit = word_addr(ev.addr);
  if (ev.is_free()) {
    last_read_.erase(unit);
    last_write_.erase(unit);
    return;
  }
  if (ev.is_write()) {
    if (auto w = last_write_.find(unit); w != last_write_.end()) {
      emit(ev, w->second, DepType::kWaw);
    } else {
      DepKey k;
      k.sink_loc = ev.loc;
      k.src_loc = 0;
      k.var = ev.var;
      k.sink_tid = ev.tid;
      k.type = DepType::kInit;
      deps_.add(k, 0);
    }
    if (auto r = last_read_.find(unit); r != last_read_.end())
      emit(ev, r->second, DepType::kWar);
    last_write_[unit] = remember(ev);
  } else {
    if (auto w = last_write_.find(unit); w != last_write_.end())
      emit(ev, w->second, DepType::kRaw);
    last_read_[unit] = remember(ev);
  }
}

DepMap oracle_dependences(const Trace& trace, bool mt_targets) {
  ExactOracle oracle(mt_targets);
  for (const AccessEvent& ev : trace.events) oracle.on_access(ev);
  return oracle.take_dependences();
}

}  // namespace depprof
