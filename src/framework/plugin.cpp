#include "framework/plugin.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/comm_matrix.hpp"
#include "analysis/report.hpp"
#include "common/table.hpp"
#include "mt/race_report.hpp"

namespace depprof {
namespace {

/// Dependences hot-deps lists.
constexpr std::size_t kHotDepsTop = 10;

std::string loop_parallelism(const ProgramModel& model) {
  return render_loop_report(model.loop_verdicts(), model.control_flow());
}

std::string comm_matrix(const ProgramModel& model) {
  return format_comm_matrix(build_comm_matrix(model.deps()));
}

std::string race_report(const ProgramModel& model) {
  return format_race_report(find_races(model.deps()));
}

std::string hot_deps(const ProgramModel& model) {
  auto sorted = model.deps().sorted();
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.count > b.second.count;
                   });
  std::ostringstream os;
  const std::size_t n = std::min(kHotDepsTop, sorted.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [key, info] = sorted[i];
    os << dep_type_name(key.type) << ' '
       << SourceLocation::from_packed(key.sink_loc).str() << " <- ";
    if (key.type == DepType::kInit)
      os << '*';
    else
      os << SourceLocation::from_packed(key.src_loc).str();
    os << " (" << var_registry().name(key.var) << ") x" << info.count << '\n';
  }
  return os.str();
}

bool sinks_in(const LoopRecord& loop, const DepKey& key) {
  return loop.contains(SourceLocation::from_packed(key.sink_loc));
}

/// Smallest carried distance bucket among `v`'s blockers that sink inside
/// the body, at the nest level attributed to the loop: 1 = adjacent
/// iterations conflict, 2 = a gap of at least one independent iteration
/// (or unknown for very deep nests), 0 = none.
std::uint32_t lowest_carried_bucket(const LoopVerdict& v, const DepMap& deps) {
  std::uint32_t lowest = 0;
  for (const DepKey& key : v.blockers) {
    if (!sinks_in(v.loop, key)) continue;
    for (const DepLevel& lvl : deps.find(key)->levels) {
      if (lvl.loop != v.loop.loop_id || lvl.carried() == 0) continue;
      const std::uint32_t bucket = lvl.d1 != 0 ? 1 : 2;
      lowest = lowest == 0 ? bucket : std::min(lowest, bucket);
    }
  }
  return lowest;
}

/// Kremlin-flavoured estimate: a loop with no carried RAW can run its
/// iterations concurrently (self-parallelism ~ iteration count); a carried
/// recurrence limits it to the carried dependence distance (d independent
/// consecutive iterations; distance-1 recurrences serialize fully).  Loops
/// are ranked by expected benefit = instrumented work inside the body x
/// (1 - 1/SP) — the savings an ideal parallelization would realize.
std::string self_parallelism(const ProgramModel& model) {
  struct Row {
    LoopRecord loop;
    std::uint64_t work;
    double sp;
    double benefit;
  };
  std::vector<Row> rows;
  for (const LoopVerdict& v : model.loop_verdicts()) {
    // Work accounting is sink-based: every dependence instance whose later
    // access executes inside the body counts as body work.
    std::uint64_t work = 0;
    for (const auto& [key, info] : model.deps())
      if (sinks_in(v.loop, key)) work += info.count;
    const double iters =
        std::max<double>(1.0, static_cast<double>(v.loop.iterations) /
                                  std::max<std::uint64_t>(1, v.loop.entries));
    // Bucketed distances: a d=1 recurrence serializes fully (SP 1); a
    // carried dependence with only d>=2 instances leaves at least one
    // independent iteration between conflicting ones (SP 2).
    const double sp =
        v.parallelizable()
            ? iters
            : std::min(iters,
                       std::max(1.0, static_cast<double>(lowest_carried_bucket(
                                         v, model.deps()))));
    const double w = static_cast<double>(work);
    rows.push_back({v.loop, work, sp, w * (1.0 - 1.0 / std::max(1.0, sp))});
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.benefit > b.benefit;
  });

  TextTable t("self-parallelism (ranked by expected benefit)");
  t.set_header({"loop", "iters/entry", "self-parallelism", "work", "benefit"});
  for (const auto& r : rows) {
    t.add_row({SourceLocation::from_packed(r.loop.begin_loc).str(),
               TextTable::num(static_cast<double>(r.loop.iterations) /
                                  std::max<std::uint64_t>(1, r.loop.entries),
                              0),
               TextTable::num(r.sp, 0), std::to_string(r.work),
               TextTable::num(r.benefit, 0)});
  }
  std::ostringstream os;
  t.print(os);
  return os.str();
}

/// Alchemist-style distance report: for every carried RAW dependence, one
/// row per attributed nest level with the carrying loop and the carry-
/// distance buckets.  A carried dependence whose d=1 bucket is empty leaves
/// a gap of independent iterations — blocking/unrolling (or skewing) may
/// still apply, which is why distance profilers exist.
std::string dep_distance(const ProgramModel& model) {
  TextTable t("carried RAW dependence distances");
  t.set_header({"sink", "source", "var", "loop", "level", "instances", "d=1",
                "d>=2", "note"});
  for (const auto& [key, info] : model.deps().sorted()) {
    if (key.type != DepType::kRaw || (info.flags & kLoopCarried) == 0)
      continue;
    for (std::size_t d = 0; d < kNestLevels; ++d) {
      const DepLevel& lvl = info.levels[d];
      if (lvl.carried() == 0) continue;
      const char* note = lvl.d1 != 0 ? "serializing recurrence"
                                     : "gapped: blocking/unrolling may apply";
      t.add_row({SourceLocation::from_packed(key.sink_loc).str(),
                 SourceLocation::from_packed(key.src_loc).str(),
                 var_registry().name(key.var),
                 SourceLocation::from_packed(lvl.loop).str(),
                 std::to_string(d + 1), std::to_string(info.count),
                 std::to_string(lvl.d1), std::to_string(lvl.d2p), note});
    }
  }
  std::ostringstream os;
  t.print(os);
  return os.str();
}

constexpr Plugin kPlugins[] = {
    {"loop-parallelism",
     "DiscoPoP-style parallelizable-loop discovery (Sec. VII-A)",
     loop_parallelism},
    {"comm-matrix",
     "producer/consumer communication matrix from cross-thread RAW "
     "dependences (Sec. VII-B)",
     comm_matrix},
    {"race-report",
     "potential data races from timestamp reversals (Sec. V-B)", race_report},
    {"hot-deps", "dependences ranked by dynamic instance count", hot_deps},
    {"self-parallelism",
     "Kremlin-style per-loop parallelism estimate and benefit ranking",
     self_parallelism},
    {"dep-distance",
     "carried iteration distances of RAW dependences (Alchemist-style)",
     dep_distance},
};

}  // namespace

std::span<const Plugin> plugins() { return kPlugins; }

const Plugin* find_plugin(std::string_view name) {
  for (const Plugin& p : kPlugins)
    if (name == p.name) return &p;
  return nullptr;
}

}  // namespace depprof
