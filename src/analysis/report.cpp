#include "analysis/report.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace depprof {
namespace {

std::string loc_str(std::uint32_t packed) {
  return SourceLocation::from_packed(packed).str();
}

/// Verdicts indexed by loop id for tree traversal.
using VerdictIndex = std::unordered_map<std::uint32_t, const LoopVerdict*>;

void render_text_node(std::ostringstream& os, const LoopVerdict& v,
                      const ControlFlowLog& cf, const VerdictIndex& index,
                      std::unordered_set<std::uint32_t>& visited, int depth) {
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  os << indent << "loop " << loc_str(v.loop.begin_loc) << "-"
     << loc_str(v.loop.end_loc) << "  iterations=" << v.loop.iterations
     << "  entries=" << v.loop.entries << "  verdict="
     << loop_verdict_name(v.kind) << '\n';
  for (const auto& b : v.blockers)
    os << indent << "  blocked by carried RAW " << loc_str(b.sink_loc)
       << " <- " << loc_str(b.src_loc) << " (" << var_registry().name(b.var)
       << ")\n";
  for (const auto& r : v.reductions)
    os << indent << "  reduction update at " << loc_str(r.sink_loc) << " ("
       << var_registry().name(r.var) << ")\n";
  for (const auto& p : v.privatizable)
    os << indent << "  privatize " << var_registry().name(p.var) << " ("
       << dep_type_name(p.type) << ' ' << loc_str(p.sink_loc) << " <- "
       << loc_str(p.src_loc) << ")\n";
  for (std::uint32_t child : cf.children_of(v.loop.loop_id)) {
    const auto it = index.find(child);
    if (it == index.end() || !visited.insert(child).second) continue;
    render_text_node(os, *it->second, cf, index, visited, depth + 1);
  }
}

void render_json_node(std::ostringstream& os, const LoopVerdict& v,
                      const ControlFlowLog& cf, const VerdictIndex& index,
                      std::unordered_set<std::uint32_t>& visited, int depth) {
  const std::string indent(static_cast<std::size_t>(depth) * 2 + 2, ' ');
  os << indent << "{\"loop\":\"" << loc_str(v.loop.begin_loc) << "\","
     << "\"end\":\"" << loc_str(v.loop.end_loc) << "\","
     << "\"iterations\":" << v.loop.iterations << ","
     << "\"entries\":" << v.loop.entries << ","
     << "\"verdict\":\"" << loop_verdict_name(v.kind) << "\","
     << "\"parallelizable\":" << (v.parallelizable() ? "true" : "false") << ","
     << "\"blockers\":" << v.blockers.size() << ","
     << "\"reductions\":" << v.reductions.size() << ","
     << "\"privatizable\":" << v.privatizable.size() << ","
     << "\"children\":[";
  bool first = true;
  for (std::uint32_t child : cf.children_of(v.loop.loop_id)) {
    const auto it = index.find(child);
    if (it == index.end() || !visited.insert(child).second) continue;
    os << (first ? "\n" : ",\n");
    first = false;
    render_json_node(os, *it->second, cf, index, visited, depth + 1);
  }
  if (!first) os << '\n' << indent;
  os << "]}";
}

void mark_reachable(std::uint32_t id, const ControlFlowLog& cf,
                    std::unordered_set<std::uint32_t>& reachable) {
  if (!reachable.insert(id).second) return;
  for (std::uint32_t child : cf.children_of(id))
    mark_reachable(child, cf, reachable);
}

}  // namespace

std::string render_loop_report(const std::vector<LoopVerdict>& verdicts,
                               const ControlFlowLog& cf,
                               const ReportOptions& opts) {
  VerdictIndex index;
  for (const auto& v : verdicts) index.emplace(v.loop.loop_id, &v);

  // Roots: loops entered at top level, then any verdict the nest edges
  // never reach (e.g. a replayed run with no control-flow log).
  std::vector<const LoopVerdict*> roots;
  std::unordered_set<std::uint32_t> reachable;
  for (std::uint32_t id : cf.children_of(0)) {
    const auto it = index.find(id);
    if (it == index.end() || reachable.count(id)) continue;
    roots.push_back(it->second);
    mark_reachable(id, cf, reachable);
  }
  for (const auto& v : verdicts)
    if (reachable.insert(v.loop.loop_id).second) roots.push_back(&v);

  std::ostringstream os;
  std::unordered_set<std::uint32_t> visited;
  if (opts.json) {
    os << "{\"loops\":[";
    bool first = true;
    for (const LoopVerdict* r : roots) {
      if (!visited.insert(r->loop.loop_id).second) continue;
      os << (first ? "\n" : ",\n");
      first = false;
      render_json_node(os, *r, cf, index, visited, 0);
    }
    if (!first) os << '\n';
    os << "]}\n";
  } else {
    for (const LoopVerdict* r : roots) {
      if (!visited.insert(r->loop.loop_id).second) continue;
      render_text_node(os, *r, cf, index, visited, 0);
    }
  }
  return os.str();
}

ReportCheck check_verdicts(const std::vector<LoopVerdict>& verdicts,
                           const std::vector<LoopTruth>& truth) {
  ReportCheck out;
  out.total = static_cast<unsigned>(truth.size());
  if (verdicts.size() != truth.size()) {
    std::ostringstream os;
    os << "loop count mismatch: profiled " << verdicts.size()
       << ", ground truth lists " << truth.size();
    out.mismatches.push_back(os.str());
  }
  const std::size_t n = std::min(verdicts.size(), truth.size());
  for (std::size_t i = 0; i < n; ++i) {
    const bool found = verdicts[i].parallelizable();
    if (found == truth[i].parallelizable) {
      ++out.matched;
      continue;
    }
    std::ostringstream os;
    os << truth[i].label << " (loop "
       << SourceLocation::from_packed(verdicts[i].loop.begin_loc).str()
       << "): expected "
       << (truth[i].parallelizable ? "parallelizable" : "serial") << ", got "
       << loop_verdict_name(verdicts[i].kind);
    out.mismatches.push_back(os.str());
  }
  return out;
}

}  // namespace depprof
