#pragma once
// Thread-local event chunk buffer — the producer half of the batched event
// path.
//
// The instrumentation runtime stores each AccessEvent once, straight into
// the calling thread's EventBuffer, and flushes it through
// AccessSink::on_batch
// when the buffer fills, at lock-region boundaries (Fig. 4: access and push
// must stay atomic), at implicit synchronization points, and at detach.
// Trace replay streams its recorded events through the same on_batch entry
// point via replay_batched(), so live instrumentation and replay exercise
// one code path into the profilers.

#include <array>
#include <cstddef>

#include "trace/event.hpp"

namespace depprof {

class EventBuffer {
 public:
  /// Events buffered per thread before a flush (8 KiB per thread).
  static constexpr std::size_t kCapacity = 256;

  /// Appends one event; returns true when the buffer is full and must be
  /// flushed before the next add().
  bool add(const AccessEvent& ev) {
    events_[count_] = ev;
    reps_[count_] = 1;
    ++count_;
    return count_ == kCapacity;
  }

  /// Records one more identical instance of buffered record `index` (the
  /// dedup cache's run-length path).  False when the run's rep counter is
  /// saturated and the caller must append the event as a fresh record.
  bool bump_rep(std::size_t index) {
    if (reps_[index] == ~0u) return false;
    reps_[index] += 1;
    any_reps_ = true;
    return true;
  }

  /// The buffered record at `index` (dedup identity comparison).
  const AccessEvent& at(std::size_t index) const { return events_[index]; }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Delivers the buffered events as one batch and empties the buffer.
  /// Run-length-compressed buffers go through on_batch_rle; untouched ones
  /// keep the plain on_batch path.
  void flush(AccessSink& sink) {
    if (count_ == 0) return;
    if (any_reps_)
      sink.on_batch_rle(events_.data(), reps_.data(), count_);
    else
      sink.on_batch(events_.data(), count_);
    count_ = 0;
    any_reps_ = false;
  }

  /// Drops buffered events without delivering them (stale events of a
  /// previous profiling session).
  void discard() {
    count_ = 0;
    any_reps_ = false;
  }

 private:
  std::array<AccessEvent, kCapacity> events_;
  std::array<std::uint32_t, kCapacity> reps_;
  std::size_t count_ = 0;
  bool any_reps_ = false;
};

/// Streams a contiguous event range through `sink` in EventBuffer-sized
/// batches — the same chunk granularity the live instrumentation produces.
inline void deliver_batched(const AccessEvent* events, std::size_t count,
                            AccessSink& sink) {
  for (std::size_t off = 0; off < count; off += EventBuffer::kCapacity) {
    const std::size_t n = count - off < EventBuffer::kCapacity
                              ? count - off
                              : EventBuffer::kCapacity;
    sink.on_batch(events + off, n);
  }
}

}  // namespace depprof
