#include "oracle/corpus.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "queue/queues.hpp"
#include "trace/nest.hpp"

namespace depprof {
namespace {

// v2 added the front-end reduction axes and hard-requires their keys: a
// repro that omits dedup=/pack= would silently replay under whatever the
// current defaults are, which is exactly the ambiguity the corpus lint
// exists to reject.  v1 files predate the axes and replay with both off —
// the semantics they were recorded under.  v3 replaced the three fixed
// (loop, entry, iter) triples per event with interned nest-context ids
// (`nest` directives + ctx=/iters= keys); v1/v2 files still parse, their
// triples re-interned into an equivalent nest chain.
constexpr std::string_view kVersionLineV1 = "depfuzz-repro v1";
constexpr std::string_view kVersionLineV2 = "depfuzz-repro v2";
constexpr std::string_view kVersionLineV3 = "depfuzz-repro v3";
// v4 adds the deterministic-schedule section (`sched` + `sstep` lines);
// v1-v3 files parse with the section absent.
constexpr std::string_view kVersionLineV4 = "depfuzz-repro v4";
// v5 adds the overhead-budget sampling axes and hard-requires their keys
// (budget=/burst=/skip=) for the same reason v2 hard-required dedup=/pack=:
// a repro that omits them would silently replay under whatever the current
// sampling defaults are.  v1-v4 files parse with sampling off.
constexpr std::string_view kVersionLineV5 = "depfuzz-repro v5";
// v6 adds the first-class race mode and hard-requires its key (races=).
// A races=1 config that also samples (budget<1 or skip>0) or profiles a
// sequential target (mt=0) is a parse error, mirroring races_config_ok():
// the profiler factories refuse such configs, so a repro claiming one
// could never have been recorded and must not lint clean.  v1-v5 files
// parse with race mode off.
constexpr std::string_view kVersionLineV6 = "depfuzz-repro v6";
// v7 adds the packed paged exact store (`storage=packed`); the name is an
// unknown storage value below v7 so a repro recorded against the packed
// backend cannot silently replay as a hash-table one under an old grammar.
// A v7 file inherits every v5/v6 hard-required key (budget=/burst=/skip=/
// races=) regardless of whether the run sampled or raced.
constexpr std::string_view kVersionLineV7 = "depfuzz-repro v7";

/// File-scoped nest state threaded through event parsing.  Events hold
/// loader-local context ids until the whole file has parsed: the nest
/// directives do not record entry iterations, so the table is interned only
/// after every event has fixed (or contradicted) them.
struct NestParseState {
  NestTableLoader table;
  /// v3: file nest id -> loader-local id (id 0 preseeded to root).
  std::unordered_map<std::uint32_t, std::uint32_t> id_map{{0, 0}};
  /// v1/v2 compat: (parent local id, loop, entry) -> local id, so the same
  /// dynamic entry named by several events re-interns to one node.
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           std::uint32_t>
      legacy_chain;
};

const char* sig_hash_name(SigHash h) {
  return h == SigHash::kModulo ? "modulo" : "mix";
}

bool parse_storage(std::string_view v, int version, StorageKind& out) {
  if (v == "signature") out = StorageKind::kSignature;
  else if (v == "perfect") out = StorageKind::kPerfect;
  else if (v == "shadow") out = StorageKind::kShadow;
  else if (v == "hashtable") out = StorageKind::kHashTable;
  // v7-only backend; an unknown storage value below v7.
  else if (v == "packed" && version >= 7) out = StorageKind::kPacked;
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

/// Which hard-required config keys the line actually carried (checked
/// against the file's version by the caller).
struct ConfigKeysSeen {
  bool dedup = false;
  bool pack = false;
  bool budget = false;
  bool burst = false;
  bool skip = false;
  bool races = false;
};

bool parse_config_line(const std::vector<std::string_view>& toks, int version,
                       ProfilerConfig& cfg, ConfigKeysSeen& saw,
                       std::string& err) {
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
    if (key == "storage") ok = parse_storage(value, version, cfg.storage);
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
    // Written by every repro since the batched kernel landed; optional on
    // read so older committed corpus files still parse.
    else if (key == "batch") ok = parse_bool(value, cfg.batched_detect);
    // v2-only front-end reduction axes; in a v1 file they are unknown keys
    // (strictness over permissiveness — see the version-line comment).
    else if (key == "dedup" && version >= 2)
      ok = parse_bool(value, cfg.dedup), saw.dedup = true;
    else if (key == "pack" && version >= 2)
      ok = parse_bool(value, cfg.pack), saw.pack = true;
    // v5-only overhead-budget sampling axes; unknown keys below v5.
    else if (key == "budget" && version >= 5)
      ok = parse_double(value, cfg.budget), saw.budget = true;
    else if (key == "burst" && version >= 5)
      ok = parse_u64(value, u), cfg.sampling_burst = static_cast<unsigned>(u),
      saw.burst = true;
    else if (key == "skip" && version >= 5)
      ok = parse_u64(value, u), cfg.sampling_skip = static_cast<unsigned>(u),
      saw.skip = true;
    // v6-only first-class race mode; unknown key below v6.
    else if (key == "races" && version >= 6)
      ok = parse_bool(value, cfg.races), saw.races = true;
    else ok = false;
    if (!ok) {
      err = "bad config token '" + std::string(toks[i]) + "'";
      return false;
    }
  }
  return true;
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
  return true;
}

/// v4 `sched seed=N algo=<name>` directive.
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

/// v3 `nest id=N parent=P loop=L` directive: declares one dynamic entry.
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

/// Re-interns a v1/v2 `loops=` value (three innermost-first (loop, entry,
/// iter) triples, 0 = unused) as a nest chain and stamps ctx/iters.
bool apply_legacy_loops(AccessEvent& ev, std::string_view value,
                        NestParseState& nest) {
  unsigned l[3], e[3], it[3];
  const std::string s(value);
  if (std::sscanf(s.c_str(), "%u:%u:%u,%u:%u:%u,%u:%u:%u", &l[0], &e[0],
                  &it[0], &l[1], &e[1], &it[1], &l[2], &e[2], &it[2]) != 9)
    return false;
  std::uint32_t parent = NestForest::kRoot;
  std::size_t depth = 0;
  for (int i = 2; i >= 0; --i) {  // triples were stored innermost-first
    if (l[i] == 0) continue;
    const auto key = std::make_tuple(parent, l[i], e[i]);
    auto [pos, inserted] = nest.legacy_chain.try_emplace(key, 0);
    if (inserted) pos->second = nest.table.declare(parent, l[i]);
    parent = pos->second;
    if (depth < kNestIters) ev.iters[depth] = it[i];
    ++depth;
  }
  ev.ctx = parent;
  return true;
}

bool parse_event_line(const std::vector<std::string_view>& toks,
                      AccessEvent& ev, int version, NestParseState& nest,
                      std::string& err) {
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
    if (key == "addr") ok = parse_u64(value, ev.addr);
    else if (key == "loc")
      ok = parse_u64(value, u), ev.loc = static_cast<std::uint32_t>(u);
    else if (key == "var")
      ok = parse_u64(value, u), ev.var = static_cast<std::uint32_t>(u);
    else if (key == "tid")
      ok = parse_u64(value, u), ev.tid = static_cast<std::uint16_t>(u);
    else if (key == "ts") ok = parse_u64(value, ev.ts);
    else if (key == "flags")
      ok = parse_u64(value, u), ev.flags = static_cast<std::uint8_t>(u);
    else if (key == "loops" && version <= 2)
      ok = apply_legacy_loops(ev, value, nest);
    else if (key == "ctx" && version >= 3) {
      ok = parse_u64(value, u);
      if (ok) {
        const auto it = nest.id_map.find(static_cast<std::uint32_t>(u));
        ok = it != nest.id_map.end();
        if (ok) ev.ctx = it->second;
      }
    } else if (key == "iters" && version >= 3) {
      const std::string s(value);
      std::size_t idx = 0;
      const char* p = s.c_str();
      char* end = nullptr;
      while (*p != '\0' && idx < kNestIters) {
        ev.iters[idx++] = static_cast<std::uint32_t>(std::strtoul(p, &end, 0));
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
  // Lowest version whose grammar covers the case: the packed backend forces
  // v7, race mode forces v6, sampling axes force v5 (their keys/values are
  // unknown below those versions), a schedule section forces v4, and
  // everything else keeps writing v3 so packed-, race-, schedule- and
  // sampling-free corpus files stay byte-stable across profiler growth.
  const ProfilerConfig defaults;
  const bool sampled = c.budget != defaults.budget ||
                       c.sampling_burst != defaults.sampling_burst ||
                       c.sampling_skip != defaults.sampling_skip;
  const bool packed = c.storage == StorageKind::kPacked;
  os << (packed     ? kVersionLineV7
         : c.races  ? kVersionLineV6
         : sampled  ? kVersionLineV5
         : repro.sched ? kVersionLineV4
                       : kVersionLineV3)
     << '\n';
  if (!repro.note.empty()) os << "note " << repro.note << '\n';
  os << "config storage=" << storage_kind_name(c.storage)
     << " slots=" << c.slots << " sighash=" << sig_hash_name(c.sig_hash)
     << " mt=" << (c.mt_targets ? 1 : 0) << " workers=" << c.workers
     << " queue=" << queue_kind_name(c.queue)
     << " wait=" << wait_kind_name(c.wait) << " chunk=" << c.chunk_size
     << " qcap=" << c.queue_capacity
     << " modulo_routing=" << (c.modulo_routing ? 1 : 0)
     << " batch=" << (c.batched_detect ? 1 : 0)
     << " dedup=" << (c.dedup ? 1 : 0) << " pack=" << (c.pack ? 1 : 0);
  // A v6 file inherits v5's hard-required sampling keys (so race-mode
  // repros carry them even when unsampled), and a v7 file inherits both
  // sets — packed repros always spell out their sampling and race axes.
  if (sampled || c.races || packed)
    os << " budget=" << c.budget << " burst=" << c.sampling_burst
       << " skip=" << c.sampling_skip;
  if (c.races || packed) os << " races=" << (c.races ? 1 : 0);
  os << '\n';
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
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ev %c addr=0x%llx loc=%u var=%u tid=%u ts=%llu flags=%u "
                  "ctx=%u iters=%u,%u,%u,%u,%u,%u,%u\n",
                  kind, static_cast<unsigned long long>(ev.addr), ev.loc,
                  ev.var, ev.tid, static_cast<unsigned long long>(ev.ts),
                  ev.flags, local_id[ev.ctx], ev.iters[0], ev.iters[1],
                  ev.iters[2], ev.iters[3], ev.iters[4], ev.iters[5],
                  ev.iters[6]);
    os << buf;
  }
  return os.str();
}

bool parse_repro(ReproCase& out, std::string_view text, std::string* error) {
  ReproCase repro;
  int version = 0;
  bool saw_config = false;
  bool saw_lb = false;
  ConfigKeysSeen saw;
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
    if (version == 0) {
      if (line == kVersionLineV1) {
        version = 1;
        // v1 predates the front-end reduction axes; such repros were
        // recorded (and minimized) against the raw event path.
        repro.cfg.dedup = false;
        repro.cfg.pack = false;
      } else if (line == kVersionLineV2) {
        version = 2;
      } else if (line == kVersionLineV3) {
        version = 3;
      } else if (line == kVersionLineV4) {
        version = 4;
      } else if (line == kVersionLineV5) {
        version = 5;
      } else if (line == kVersionLineV6) {
        version = 6;
      } else if (line == kVersionLineV7) {
        version = 7;
      } else {
        return set_error(error, line_no,
                         "expected version line '" +
                             std::string(kVersionLineV1) + "' .. '" +
                             std::string(kVersionLineV7) + "'");
      }
      // v1-v4 predate the sampling axes: replay with sampling off, the
      // semantics those repros were recorded under.
      if (version < 5) {
        repro.cfg.budget = 1.0;
        repro.cfg.sampling_skip = 0;
      }
      // v1-v5 predate the race mode: replay with it off.
      if (version < 6) repro.cfg.races = false;
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
      if (!parse_config_line(toks, version, repro.cfg, saw, err))
        return set_error(error, line_no, err);
      if (version >= 2 && (!saw.dedup || !saw.pack))
        return set_error(error, line_no,
                         "v2 config requires dedup= and pack= keys");
      if (version >= 5 && (!saw.budget || !saw.burst || !saw.skip))
        return set_error(error, line_no,
                         "v5 config requires budget=, burst= and skip= keys");
      if (version >= 6 && !saw.races)
        return set_error(error, line_no, "v6 config requires the races= key");
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
      if (version < 4)
        return set_error(error, line_no, "sched directive requires v4");
      if (!after_config("sched")) return false;
      if (repro.sched)
        return set_error(error, line_no, "duplicate sched line");
      if (!parse_sched_line(toks, repro, err))
        return set_error(error, line_no, err);
    } else if (toks[0] == "sstep") {
      if (version < 4)
        return set_error(error, line_no, "sstep directive requires v4");
      if (!repro.sched)
        return set_error(error, line_no, "sstep before sched directive");
      if (toks.size() != 3)
        return set_error(error, line_no, "sstep wants '<thread> <site>'");
      repro.schedule.steps.push_back(
          {std::string(toks[1]), std::string(toks[2])});
    } else if (toks[0] == "nest") {
      if (version < 3)
        return set_error(error, line_no, "nest directive requires v3");
      if (!after_config("nest")) return false;
      if (!parse_nest_line(toks, nest, err))
        return set_error(error, line_no, err);
    } else if (toks[0] == "ev") {
      if (!after_config("ev")) return false;
      AccessEvent ev;
      if (!parse_event_line(toks, ev, version, nest, err))
        return set_error(error, line_no, err);
      if (!nest.table.observe(ev.ctx, ev.iters))
        return set_error(error, line_no,
                         "event iters contradict an earlier event's ancestor "
                         "iterations in the same nest entry");
      repro.trace.events.push_back(ev);
    } else {
      return set_error(error, line_no,
                       "unknown directive '" + std::string(toks[0]) + "'");
    }
  }
  if (version == 0) return set_error(error, 0, "empty file");
  if (!saw_config) return set_error(error, line_no, "missing config line");
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
