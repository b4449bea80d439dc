#include "trace/nest.hpp"

#include <limits>
#include <new>
#include <stdexcept>

#include "trace/event.hpp"

namespace depprof {

NestForest::NestForest() : NestForest(StartAt{1}) {}

NestForest::NestForest(StartAt start) {
  chunk_ = new std::atomic<Node*>[kMaxChunks];
  for (std::uint32_t i = 0; i < kMaxChunks; ++i)
    chunk_[i].store(nullptr, std::memory_order_relaxed);
  // Intern the root eagerly so node(kRoot) is always valid.
  Node* first = new Node[kChunkNodes];
  first[0] = Node{};
  chunk_[0].store(first, std::memory_order_release);
  size_.store(start.next_id > kRoot ? start.next_id : 1,
              std::memory_order_release);
}

NestForest::~NestForest() {
  for (std::uint32_t i = 0; i < kMaxChunks; ++i)
    delete[] chunk_[i].load(std::memory_order_relaxed);
  delete[] chunk_;
}

std::uint32_t NestForest::enter(std::uint32_t parent, std::uint32_t loop,
                                std::uint32_t entry_iter) {
  std::lock_guard lock(mu_);
  const std::uint32_t id = size_.load(std::memory_order_relaxed);
  // size() is a u32, so the last id it can publish is 2^32 - 2; interning
  // one more would wrap the size to 0 and hand out kRoot again.
  if (id == std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("NestForest: loop-entry id space exhausted");
  const std::uint32_t c = id >> kChunkShift;
  Node* nodes = chunk_[c].load(std::memory_order_relaxed);
  if (nodes == nullptr) {
    nodes = new Node[kChunkNodes];
    chunk_[c].store(nodes, std::memory_order_release);
  }
  Node& n = nodes[id & (kChunkNodes - 1)];
  n.parent = parent < id ? parent : kRoot;  // parents precede children
  n.loop = loop;
  n.depth = node(n.parent).depth + 1;
  n.entry_iter = n.parent == kRoot ? 0 : entry_iter;
  // Publish after the node is fully written: readers gate on size().
  size_.store(id + 1, std::memory_order_release);
  return id;
}

NestForest& nest_forest() {
  static NestForest* forest = new NestForest();  // never destroyed (see hpp)
  return *forest;
}

std::uint32_t NestTableLoader::declare(std::uint32_t parent,
                                       std::uint32_t loop) {
  Local n;
  n.parent = parent < nodes_.size() ? parent : 0;
  n.loop = loop;
  n.depth = nodes_[n.parent].depth + 1;
  nodes_.push_back(n);
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void NestForest::window(std::uint32_t ctx, std::uint32_t iter,
                        std::uint32_t (&out)[kNestIters]) const {
  for (std::uint32_t& it : out) it = 0;
  const std::uint32_t d = depth(ctx);
  if (d == 0) return;
  const std::uint32_t top = d < kNestIters ? d : kNestIters;
  out[top - 1] = iter;
  // Every node at depth 2..top on the path fixes its parent level's
  // iteration; nodes deeper than `top` lie below the window.
  for (std::uint32_t c = ctx; depth(c) >= 2; c = parent(c)) {
    const Node& n = node(c);
    if (n.depth <= top) out[n.depth - 2] = n.entry_iter;
  }
}

bool NestTableLoader::observe(std::uint32_t ctx,
                              const std::uint32_t (&window)[kNestIters]) {
  for (std::uint32_t c = ctx; c < nodes_.size() && nodes_[c].depth >= 2;
       c = nodes_[c].parent) {
    Local& n = nodes_[c];
    if (n.depth > kNestIters + 1) continue;  // parent level beyond the window
    const std::uint32_t it = window[n.depth - 2];
    if (!n.fixed) {
      n.entry_iter = it;
      n.fixed = true;
    } else if (n.entry_iter != it) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint32_t> NestTableLoader::intern() const {
  NestForest& forest = nest_forest();
  std::vector<std::uint32_t> id_map(nodes_.size(), NestForest::kRoot);
  for (std::size_t i = 1; i < nodes_.size(); ++i)
    id_map[i] = forest.enter(id_map[nodes_[i].parent], nodes_[i].loop,
                             nodes_[i].entry_iter);
  return id_map;
}

}  // namespace depprof
