#include "oracle/corpus.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "queue/queues.hpp"
#include "trace/nest.hpp"

namespace depprof {
namespace {

// The one accepted grammar: any other first line, an earlier version
// included, is a parse error.
constexpr std::string_view kVersionLine = "depfuzz-repro v8";

// Every key the writer emits on the config and lb lines is hard-required
// on read: a repro that omitted one would silently replay under whatever
// the current default happens to be, which is exactly the ambiguity the
// corpus lint exists to reject.
constexpr std::string_view kConfigKeys[] = {
    "storage", "slots", "sighash", "mt", "workers", "queue", "wait", "chunk",
    "qcap", "modulo_routing", "dedup", "budget", "burst", "skip", "races"};
constexpr std::string_view kLbKeys[] = {"enabled", "sample_shift", "interval",
                                        "threshold", "top_k", "max_rounds"};

/// File-scoped nest state threaded through event parsing.  Events hold
/// loader-local context ids until the whole file has parsed: the nest
/// directives do not record entry iterations, so the table is interned only
/// after every event has fixed (or contradicted) them.
struct NestParseState {
  NestTableLoader table;
  /// File nest id -> loader-local id (id 0 preseeded to root).
  std::unordered_map<std::uint32_t, std::uint32_t> id_map{{0, 0}};
};

const char* sig_hash_name(SigHash h) {
  return h == SigHash::kModulo ? "modulo" : "mix";
}

bool parse_storage(std::string_view v, StorageKind& out) {
  if (v == "signature") out = StorageKind::kSignature;
  else if (v == "perfect") out = StorageKind::kPerfect;
  else if (v == "shadow") out = StorageKind::kShadow;
  else if (v == "hashtable") out = StorageKind::kHashTable;
  else if (v == "packed") out = StorageKind::kPacked;
  else return false;
  return true;
}

bool parse_queue(std::string_view v, QueueKind& out) {
  if (v == "lock-free-spsc") out = QueueKind::kLockFreeSpsc;
  else if (v == "lock-free-mpmc") out = QueueKind::kLockFreeMpmc;
  else if (v == "mutex") out = QueueKind::kMutex;
  else return false;
  return true;
}

bool parse_sig_hash(std::string_view v, SigHash& out) {
  if (v == "modulo") out = SigHash::kModulo;
  else if (v == "mix") out = SigHash::kMix;
  else return false;
  return true;
}

bool parse_u64(std::string_view v, std::uint64_t& out) {
  if (v.empty()) return false;
  char* end = nullptr;
  const std::string s(v);
  out = std::strtoull(s.c_str(), &end, 0);  // base 0: accepts 0x...
  return end != nullptr && *end == '\0';
}

bool parse_double(std::string_view v, double& out) {
  if (v.empty()) return false;
  char* end = nullptr;
  const std::string s(v);
  out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool parse_bool(std::string_view v, bool& out) {
  if (v == "0") out = false;
  else if (v == "1") out = true;
  else return false;
  return true;
}

/// Splits one whitespace-separated token into key and value at '='.
bool split_kv(std::string_view token, std::string_view& key,
              std::string_view& value) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0) return false;
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

std::vector<std::string_view> tokens_of(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

bool set_error(std::string* error, std::size_t line_no,
               const std::string& what) {
  if (error != nullptr) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "line %zu: ", line_no);
    *error = buf + what;
  }
  return false;
}

/// Rejects a key seen twice on one directive line: a duplicate would
/// silently last-write-win, which is exactly the ambiguity the corpus lint
/// exists to reject.
bool note_key(std::vector<std::string_view>& seen, std::string_view key,
              std::string& err) {
  if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
    err = "duplicate key '" + std::string(key) + "'";
    return false;
  }
  seen.push_back(key);
  return true;
}

/// Names the first of `required` missing from `seen`, or returns true.
template <std::size_t N>
bool require_keys(const std::vector<std::string_view>& seen,
                  const std::string_view (&required)[N], const char* line,
                  std::string& err) {
  for (const std::string_view key : required) {
    if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
      err = std::string(line) + " line missing the " + std::string(key) +
            "= key";
      return false;
    }
  }
  return true;
}

bool parse_config_line(const std::vector<std::string_view>& toks,
                       ProfilerConfig& cfg, std::string& err) {
  std::vector<std::string_view> keys;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    std::string_view key, value;
    if (!split_kv(toks[i], key, value)) {
      err = "bad config token '" + std::string(toks[i]) + "'";
      return false;
    }
    if (!note_key(keys, key, err)) return false;
    std::uint64_t u = 0;
    bool ok;
    if (key == "storage") ok = parse_storage(value, cfg.storage);
    else if (key == "slots") ok = parse_u64(value, u), cfg.slots = u;
    else if (key == "sighash") ok = parse_sig_hash(value, cfg.sig_hash);
    else if (key == "mt") ok = parse_bool(value, cfg.mt_targets);
    else if (key == "workers")
      ok = parse_u64(value, u), cfg.workers = static_cast<unsigned>(u);
    else if (key == "queue") ok = parse_queue(value, cfg.queue);
    else if (key == "wait") ok = parse_wait_kind(std::string(value).c_str(), cfg.wait);
    else if (key == "chunk") ok = parse_u64(value, u), cfg.chunk_size = u;
    else if (key == "qcap") ok = parse_u64(value, u), cfg.queue_capacity = u;
    else if (key == "modulo_routing") ok = parse_bool(value, cfg.modulo_routing);
    else if (key == "dedup") ok = parse_bool(value, cfg.dedup);
    else if (key == "budget") ok = parse_double(value, cfg.budget);
    else if (key == "burst")
      ok = parse_u64(value, u), cfg.sampling_burst = static_cast<unsigned>(u);
    else if (key == "skip")
      ok = parse_u64(value, u), cfg.sampling_skip = static_cast<unsigned>(u);
    else if (key == "races") ok = parse_bool(value, cfg.races);
    else ok = false;
    if (!ok) {
      err = "bad config token '" + std::string(toks[i]) + "'";
      return false;
    }
  }
  return require_keys(keys, kConfigKeys, "config", err);
}

bool parse_lb_line(const std::vector<std::string_view>& toks,
                   LoadBalanceConfig& lb, std::string& err) {
  std::vector<std::string_view> keys;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    std::string_view key, value;
    if (!split_kv(toks[i], key, value)) {
      err = "bad lb token '" + std::string(toks[i]) + "'";
      return false;
    }
    if (!note_key(keys, key, err)) return false;
    std::uint64_t u = 0;
    double d = 0.0;
    bool ok;
    if (key == "enabled") ok = parse_bool(value, lb.enabled);
    else if (key == "sample_shift")
      ok = parse_u64(value, u), lb.sample_shift = static_cast<unsigned>(u);
    else if (key == "interval")
      ok = parse_u64(value, u), lb.eval_interval_chunks = u;
    else if (key == "threshold")
      ok = parse_double(value, d), lb.imbalance_threshold = d;
    else if (key == "top_k")
      ok = parse_u64(value, u), lb.top_k = static_cast<unsigned>(u);
    else if (key == "max_rounds")
      ok = parse_u64(value, u), lb.max_rounds = static_cast<unsigned>(u);
    else ok = false;
    if (!ok) {
      err = "bad lb token '" + std::string(toks[i]) + "'";
      return false;
    }
  }
  return require_keys(keys, kLbKeys, "lb", err);
}

/// `sched seed=N algo=<name>` directive.
bool parse_sched_line(const std::vector<std::string_view>& toks,
                      ReproCase& repro, std::string& err) {
  std::vector<std::string_view> keys;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    std::string_view key, value;
    if (!split_kv(toks[i], key, value)) {
      err = "bad sched token '" + std::string(toks[i]) + "'";
      return false;
    }
    if (!note_key(keys, key, err)) return false;
    bool ok;
    if (key == "seed") ok = parse_u64(value, repro.sched_seed);
    else if (key == "algo")
      ok = sched::parse_algo(std::string(value).c_str(), repro.sched_algo);
    else ok = false;
    if (!ok) {
      err = "bad sched token '" + std::string(toks[i]) + "'";
      return false;
    }
  }
  repro.sched = true;
  return true;
}

/// `nest id=N parent=P loop=L` directive: declares one dynamic entry.
/// Parents must be declared (or 0) before their children; all three keys
/// are required — a defaulted parent/loop would silently re-shape the nest.
bool parse_nest_line(const std::vector<std::string_view>& toks,
                     NestParseState& nest, std::string& err) {
  std::uint64_t id = 0, parent = 0, loop = 0;
  bool saw_id = false, saw_parent = false, saw_loop = false;
  std::vector<std::string_view> keys;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    std::string_view key, value;
    if (!split_kv(toks[i], key, value)) {
      err = "bad nest token '" + std::string(toks[i]) + "'";
      return false;
    }
    if (!note_key(keys, key, err)) return false;
    bool ok;
    if (key == "id") ok = parse_u64(value, id), saw_id = true;
    else if (key == "parent") ok = parse_u64(value, parent), saw_parent = true;
    else if (key == "loop") ok = parse_u64(value, loop), saw_loop = true;
    else ok = false;
    if (!ok) {
      err = "bad nest token '" + std::string(toks[i]) + "'";
      return false;
    }
  }
  if (!saw_parent || !saw_loop) {
    err = std::string("nest directive missing ") +
          (!saw_parent ? "parent=" : "loop=") + " key";
    return false;
  }
  if (!saw_id || id == 0 || nest.id_map.count(static_cast<std::uint32_t>(id))) {
    err = "bad nest token 'id'";
    return false;
  }
  const auto pit = nest.id_map.find(static_cast<std::uint32_t>(parent));
  if (pit == nest.id_map.end()) {
    err = "bad nest token 'parent'";
    return false;
  }
  nest.id_map[static_cast<std::uint32_t>(id)] =
      nest.table.declare(pit->second, static_cast<std::uint32_t>(loop));
  return true;
}

bool parse_event_line(const std::vector<std::string_view>& toks,
                      AccessEvent& ev, std::uint32_t (&window)[kNestIters],
                      const NestParseState& nest, std::string& err) {
  if (toks.size() < 2) {
    err = "bad event token 'missing event kind'";
    return false;
  }
  if (toks[1] == "R") ev.kind = AccessKind::kRead;
  else if (toks[1] == "W") ev.kind = AccessKind::kWrite;
  else if (toks[1] == "F") ev.kind = AccessKind::kFree;
  else {
    err = "bad event token '" + std::string(toks[1]) + "'";
    return false;
  }
  std::vector<std::string_view> keys;
  for (std::size_t i = 2; i < toks.size(); ++i) {
    std::string_view key, value;
    if (!split_kv(toks[i], key, value)) {
      err = "bad event token '" + std::string(toks[i]) + "'";
      return false;
    }
    if (!note_key(keys, key, err)) return false;
    std::uint64_t u = 0;
    bool ok = true;
    if (key == "addr")
      ok = parse_u64(value, u) && u <= kEventFieldMax, ev.addr = u;
    else if (key == "loc")
      ok = parse_u64(value, u), ev.loc = static_cast<std::uint32_t>(u);
    else if (key == "var")
      ok = parse_u64(value, u), ev.var = static_cast<std::uint32_t>(u);
    else if (key == "tid")
      ok = parse_u64(value, u), ev.tid = static_cast<std::uint16_t>(u);
    else if (key == "ts")
      ok = parse_u64(value, u) && u <= kEventFieldMax, ev.ts = u;
    else if (key == "flags")
      ok = parse_u64(value, u), ev.flags = static_cast<std::uint8_t>(u);
    else if (key == "ctx") {
      ok = parse_u64(value, u);
      if (ok) {
        const auto it = nest.id_map.find(static_cast<std::uint32_t>(u));
        ok = it != nest.id_map.end();
        if (ok) ev.ctx = it->second;
      }
    } else if (key == "iters") {
      const std::string s(value);
      std::size_t idx = 0;
      const char* p = s.c_str();
      char* end = nullptr;
      while (*p != '\0' && idx < kNestIters) {
        window[idx++] = static_cast<std::uint32_t>(std::strtoul(p, &end, 0));
        if (end == p) break;
        p = *end == ',' ? end + 1 : end;
      }
      ok = end != nullptr && *end == '\0';
    } else ok = false;
    if (!ok) {
      err = "bad event token '" + std::string(toks[i]) + "'";
      return false;
    }
  }
  return true;
}

}  // namespace

std::string format_repro(const ReproCase& repro) {
  std::ostringstream os;
  const ProfilerConfig& c = repro.cfg;
  os << kVersionLine << '\n';
  if (!repro.note.empty()) os << "note " << repro.note << '\n';
  os << "config storage=" << storage_kind_name(c.storage)
     << " slots=" << c.slots << " sighash=" << sig_hash_name(c.sig_hash)
     << " mt=" << (c.mt_targets ? 1 : 0) << " workers=" << c.workers
     << " queue=" << queue_kind_name(c.queue)
     << " wait=" << wait_kind_name(c.wait) << " chunk=" << c.chunk_size
     << " qcap=" << c.queue_capacity
     << " modulo_routing=" << (c.modulo_routing ? 1 : 0)
     << " dedup=" << (c.dedup ? 1 : 0) << " budget=" << c.budget
     << " burst=" << c.sampling_burst << " skip=" << c.sampling_skip
     << " races=" << (c.races ? 1 : 0) << '\n';
  const LoadBalanceConfig& lb = c.load_balance;
  os << "lb enabled=" << (lb.enabled ? 1 : 0)
     << " sample_shift=" << lb.sample_shift
     << " interval=" << lb.eval_interval_chunks
     << " threshold=" << lb.imbalance_threshold << " top_k=" << lb.top_k
     << " max_rounds=" << lb.max_rounds << '\n';
  if (repro.sched) {
    os << "sched seed=" << repro.sched_seed
       << " algo=" << sched::algo_name(repro.sched_algo) << '\n';
    for (const sched::ScheduleStep& s : repro.schedule.steps)
      os << "sstep " << s.thread << ' ' << s.site << '\n';
  }
  // Nest table: every forest node reachable from an event context, written
  // ancestors-first (forest ids grow child-after-parent, so ascending
  // forest-id order is a valid declaration order) with dense file-local
  // ids.  Parsing re-interns them, so repros stay self-contained across
  // processes.
  NestForest& forest = nest_forest();
  std::map<std::uint32_t, std::uint32_t> local_id;  // forest id -> file id
  local_id[NestForest::kRoot] = 0;
  for (const AccessEvent& ev : repro.trace.events)
    for (std::uint32_t c = ev.ctx;
         c != NestForest::kRoot && !local_id.count(c); c = forest.parent(c))
      local_id[c] = 1;  // mark; numbered below in ascending order
  std::uint32_t next_id = 1;
  for (auto& [fid, lid] : local_id) {
    if (fid == NestForest::kRoot) continue;
    lid = next_id++;
    os << "nest id=" << lid << " parent=" << local_id[forest.parent(fid)]
       << " loop=" << forest.loop(fid) << '\n';
  }
  static_assert(kNestIters == 7, "update the iters= format below");
  for (const AccessEvent& ev : repro.trace.events) {
    const char kind = ev.is_free() ? 'F' : ev.is_write() ? 'W' : 'R';
    std::uint32_t w[kNestIters];
    forest.window(ev.ctx, ev.iter, w);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ev %c addr=0x%llx loc=%u var=%u tid=%u ts=%llu flags=%u "
                  "ctx=%u iters=%u,%u,%u,%u,%u,%u,%u\n",
                  kind, static_cast<unsigned long long>(ev.addr), ev.loc,
                  ev.var, ev.tid, static_cast<unsigned long long>(ev.ts),
                  ev.flags, local_id[ev.ctx], w[0], w[1], w[2], w[3], w[4],
                  w[5], w[6]);
    os << buf;
  }
  return os.str();
}

bool parse_repro(ReproCase& out, std::string_view text, std::string* error) {
  ReproCase repro;
  bool saw_version = false;
  bool saw_config = false;
  bool saw_lb = false;
  NestParseState nest;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  // Every directive except the provenance note needs the config line first:
  // a directive parsed before the config could be reinterpreted (or a
  // second config could retroactively invalidate it), so ordering is part
  // of the strictness contract rather than a formatting convention.
  auto after_config = [&](const char* directive) {
    return saw_config ||
           set_error(error, line_no,
                     std::string(directive) +
                         " directive before the config line");
  };
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty()) continue;
    if (!saw_version) {
      if (line != kVersionLine)
        return set_error(error, line_no,
                         "expected version line '" + std::string(kVersionLine) +
                             "'");
      saw_version = true;
      continue;
    }
    if (line[0] == '#') continue;
    const std::vector<std::string_view> toks = tokens_of(line);
    if (toks.empty()) continue;
    std::string err;
    if (toks[0] == "note") {
      const std::size_t at = line.find("note ");
      repro.note = at == std::string_view::npos
                       ? ""
                       : std::string(line.substr(at + 5));
    } else if (toks[0] == "config") {
      if (saw_config)
        return set_error(error, line_no, "duplicate config line");
      if (!parse_config_line(toks, repro.cfg, err))
        return set_error(error, line_no, err);
      // Semantic rule, not just grammar: the profiler factories refuse a
      // race-mode config that samples or targets a sequential program, so
      // a repro claiming one could never have been recorded.
      if (!races_config_ok(repro.cfg))
        return set_error(error, line_no,
                         "races=1 requires mt=1 and no sampling "
                         "(budget=1, skip=0)");
      saw_config = true;
    } else if (toks[0] == "lb") {
      if (!after_config("lb")) return false;
      if (saw_lb) return set_error(error, line_no, "duplicate lb line");
      if (!parse_lb_line(toks, repro.cfg.load_balance, err))
        return set_error(error, line_no, err);
      saw_lb = true;
    } else if (toks[0] == "sched") {
      if (!after_config("sched")) return false;
      if (repro.sched)
        return set_error(error, line_no, "duplicate sched line");
      if (!parse_sched_line(toks, repro, err))
        return set_error(error, line_no, err);
    } else if (toks[0] == "sstep") {
      if (!repro.sched)
        return set_error(error, line_no, "sstep before sched directive");
      if (toks.size() != 3)
        return set_error(error, line_no, "sstep wants '<thread> <site>'");
      repro.schedule.steps.push_back(
          {std::string(toks[1]), std::string(toks[2])});
    } else if (toks[0] == "nest") {
      if (!after_config("nest")) return false;
      if (!parse_nest_line(toks, nest, err))
        return set_error(error, line_no, err);
    } else if (toks[0] == "ev") {
      if (!after_config("ev")) return false;
      AccessEvent ev;
      std::uint32_t window[kNestIters] = {};
      if (!parse_event_line(toks, ev, window, nest, err))
        return set_error(error, line_no, err);
      if (!nest.table.observe(ev.ctx, window))
        return set_error(error, line_no,
                         "event iters contradict an earlier event's ancestor "
                         "iterations in the same nest entry");
      ev.iter = window_iter(nest.table.depth(ev.ctx), window);
      repro.trace.events.push_back(ev);
    } else {
      return set_error(error, line_no,
                       "unknown directive '" + std::string(toks[0]) + "'");
    }
  }
  if (!saw_version) return set_error(error, 0, "empty file");
  if (!saw_config) return set_error(error, line_no, "missing config line");
  if (!saw_lb) return set_error(error, line_no, "missing lb line");
  const std::vector<std::uint32_t> forest_id = nest.table.intern();
  for (AccessEvent& ev : repro.trace.events) ev.ctx = forest_id[ev.ctx];
  out = std::move(repro);
  return true;
}

bool write_repro(const ReproCase& repro, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << format_repro(repro);
  return static_cast<bool>(os);
}

bool read_repro(ReproCase& out, const std::string& path, std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse_repro(out, buf.str(), error);
}

}  // namespace depprof
