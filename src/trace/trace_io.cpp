#include "trace/trace_io.hpp"

#include <cstring>
#include <fstream>
#include <map>
#include <vector>

#include "trace/nest.hpp"

namespace depprof {
namespace {

// v02: events carry interned nest-context ids, which are process-local, so
// the file embeds a nest node table (file-local ids, parents before
// children) and the reader re-interns it.  v01 files predate the context
// model: their fixed-size records embed ids from a dead forest, so they are
// rejected rather than silently misattributed.  The table does not record
// entry iterations: the reader derives them from the events' iteration
// windows (NestTableLoader) and rejects a file whose events contradict one
// another.
constexpr char kMagic[8] = {'D', 'E', 'P', 'T', 'R', 'C', '0', '2'};

/// One serialized event: 64 bytes with the root-anchored iteration window
/// (NestForest::window) in place of the in-memory event's single `iter`.
struct WireEvent {
  std::uint64_t addr = 0;
  std::uint64_t ts = 0;
  std::uint32_t loc = 0;
  std::uint32_t var = 0;
  std::uint32_t ctx = 0;  ///< file-local nest id
  std::uint32_t iters[kNestIters] = {};
  std::uint16_t tid = 0;
  std::uint8_t kind = 0;
  std::uint8_t flags = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(WireEvent) == 64);

/// One serialized nest node: file-local parent id + static loop id.  The
/// file-local id of a node is its index + 1 (0 = root, never written).
struct WireNestNode {
  std::uint32_t parent = 0;
  std::uint32_t loop = 0;
};

}  // namespace

bool write_trace(const Trace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  os.write(kMagic, sizeof(kMagic));

  // Collect every forest node reachable from an event context.  Ascending
  // forest-id order is a valid parents-first declaration order (forest ids
  // grow child-after-parent), so a std::map doubles as the emit order.
  NestForest& forest = nest_forest();
  std::map<std::uint32_t, std::uint32_t> local_id;  // forest id -> file id
  local_id[NestForest::kRoot] = 0;
  for (const AccessEvent& ev : trace.events)
    for (std::uint32_t c = ev.ctx;
         c != NestForest::kRoot && !local_id.count(c); c = forest.parent(c))
      local_id[c] = 1;  // mark; numbered below
  std::vector<WireNestNode> nodes;
  nodes.reserve(local_id.size() - 1);
  for (auto& [fid, lid] : local_id) {
    if (fid == NestForest::kRoot) continue;
    lid = static_cast<std::uint32_t>(nodes.size() + 1);
    nodes.push_back({local_id[forest.parent(fid)], forest.loop(fid)});
  }
  const std::uint64_t node_count = nodes.size();
  os.write(reinterpret_cast<const char*>(&node_count), sizeof(node_count));
  os.write(reinterpret_cast<const char*>(nodes.data()),
           static_cast<std::streamsize>(node_count * sizeof(WireNestNode)));

  const std::uint64_t count = trace.events.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  // Events are written with the context id translated to its file-local id
  // so the file is self-contained across processes.
  for (const AccessEvent& ev : trace.events) {
    WireEvent w;
    w.addr = ev.addr;
    w.ts = ev.ts;
    w.loc = ev.loc;
    w.var = ev.var;
    w.ctx = local_id[ev.ctx];
    forest.window(ev.ctx, ev.iter, w.iters);
    w.tid = ev.tid;
    w.kind = static_cast<std::uint8_t>(ev.kind);
    w.flags = ev.flags;
    os.write(reinterpret_cast<const char*>(&w), sizeof(w));
  }
  return static_cast<bool>(os);
}

bool read_trace(Trace& out, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  is.seekg(0, std::ios::end);
  const std::streamoff end = is.tellg();
  is.seekg(0, std::ios::beg);
  if (!is || end < 0) return false;
  const auto file_size = static_cast<std::uint64_t>(end);
  char magic[8];
  is.read(magic, sizeof(magic));
  // Rejects v01 files along with garbage: their fixed-size records embed
  // context ids of a forest that no longer exists, and replaying them would
  // misattribute every nest.
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return false;

  // All counts below are untrusted: the payload a count claims must be
  // present in the file before anything is allocated for it.
  std::uint64_t remaining = file_size - sizeof(kMagic);
  std::uint64_t node_count = 0;
  if (remaining < sizeof(node_count)) return false;
  is.read(reinterpret_cast<char*>(&node_count), sizeof(node_count));
  remaining -= sizeof(node_count);
  if (!is || node_count > remaining / sizeof(WireNestNode)) return false;
  std::vector<WireNestNode> nodes(node_count);
  is.read(reinterpret_cast<char*>(nodes.data()),
          static_cast<std::streamsize>(node_count * sizeof(WireNestNode)));
  remaining -= node_count * sizeof(WireNestNode);
  if (!is) return false;

  // File-local ids are positional (index + 1) and parents must precede
  // children, i.e. parent < own id.
  NestTableLoader table;
  for (std::uint64_t i = 0; i < node_count; ++i) {
    if (nodes[i].parent > i) return false;  // forward/self reference
    table.declare(nodes[i].parent, nodes[i].loop);
  }

  std::uint64_t count = 0;
  if (remaining < sizeof(count)) return false;
  is.read(reinterpret_cast<char*>(&count), sizeof(count));
  remaining -= sizeof(count);
  if (!is || count > remaining / sizeof(WireEvent)) return false;
  std::vector<WireEvent> wire(count);
  is.read(reinterpret_cast<char*>(wire.data()),
          static_cast<std::streamsize>(count * sizeof(WireEvent)));
  if (!is) return false;
  Trace t;
  t.events.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const WireEvent& w = wire[i];
    if (w.ctx > node_count) return false;  // dangling context reference
    // Beyond the in-memory event's 48-bit fields.
    if (w.addr > kEventFieldMax || w.ts > kEventFieldMax) return false;
    if (!table.observe(w.ctx, w.iters)) return false;  // contradiction
    AccessEvent& ev = t.events[i];
    ev.addr = w.addr;
    ev.ts = w.ts;
    ev.loc = w.loc;
    ev.var = w.var;
    ev.ctx = w.ctx;
    ev.iter = window_iter(table.depth(w.ctx), w.iters);
    ev.tid = w.tid;
    ev.kind = static_cast<AccessKind>(w.kind);
    ev.flags = w.flags;
  }
  // Re-intern only a fully validated table, with the derived entry_iters.
  const std::vector<std::uint32_t> id_map = table.intern();
  for (AccessEvent& ev : t.events) ev.ctx = id_map[ev.ctx];
  out = std::move(t);
  return true;
}

}  // namespace depprof
