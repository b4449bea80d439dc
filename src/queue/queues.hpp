#pragma once
// Umbrella header: all queue implementations plus the factory.

#include <memory>

#include "queue/concurrent_queue.hpp"
#include "queue/mpmc_queue.hpp"
#include "queue/mutex_queue.hpp"
#include "queue/spsc_queue.hpp"

namespace depprof {

template <typename T>
std::unique_ptr<ConcurrentQueue<T>> make_queue(QueueKind kind,
                                               bool multi_producer,
                                               std::size_t capacity) {
  if (kind == QueueKind::kMutex)
    return std::make_unique<MutexQueue<T>>(capacity);
  if (multi_producer) return std::make_unique<MpmcQueue<T>>(capacity);
  return std::make_unique<SpscQueue<T>>(capacity);
}

}  // namespace depprof
