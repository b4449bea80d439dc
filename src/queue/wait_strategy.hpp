#pragma once
// Wait strategies for the pipeline's blocking sites (ISSUE 2; cf. Inspector's
// adaptive waiting, Thalheim et al.).
//
// The Fig. 2 pipeline has three places where a thread must wait for a peer:
// an idle worker waiting for chunks, a producer waiting for space in a full
// worker queue, and a worker waiting for the migration mailbox to be
// published.  The paper's lock-free design busy-waits at all three, which is
// optimal when every pipeline thread owns a core but burns whole cores —
// and distorts every busy/idle measurement — as soon as the machine is
// oversubscribed.  `wait_until` bounds that burn with a three-phase policy:
//
//   kSpin  — pure busy-wait (pause instructions only); the paper's behaviour.
//   kPark  — bounded spin, bounded yield, then block on an EventCount until
//            a peer publishes work (default; degrades gracefully under load).
//
// Parking requires wake hooks: whoever makes the awaited condition true must
// notify the site's EventCount afterwards.  EventCount::notify_all is a
// single atomic load when nobody is parked, so the hooks cost nothing on the
// hot path.  A bounded park timeout backstops the protocol: a (theoretical)
// missed wakeup degrades to a late poll, never to a deadlock — the property
// the CI stress test enforces under TSan.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <thread>

#include "sched/sched.hpp"

namespace depprof {

/// How a pipeline thread waits when it cannot make progress.
enum class WaitKind {
  kSpin,  ///< unbounded busy-wait (the paper's configuration)
  kPark,  ///< spin, yield, then sleep on an eventcount until notified
};

inline const char* wait_kind_name(WaitKind kind) {
  switch (kind) {
    case WaitKind::kSpin: return "spin";
    case WaitKind::kPark: return "park";
  }
  return "?";
}

/// Parses a --wait flag value; returns false on unknown names.
inline bool parse_wait_kind(std::string_view v, WaitKind& out) {
  if (v == "spin") out = WaitKind::kSpin;
  else if (v == "park") out = WaitKind::kPark;
  else return false;
  return true;
}

/// One polite busy-wait iteration (PAUSE on x86, YIELD on arm).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Eventcount: the parking primitive behind WaitKind::kPark.
///
/// Waiter protocol:  key = prepare_wait(); if (poll()) cancel_wait();
///                   else wait(key);      // then re-poll
/// Notifier protocol: publish the condition, then notify_all().
///
/// prepare_wait/notify_all pair seq_cst fences so that either the notifier
/// observes the registered waiter (and bumps the epoch under the mutex, which
/// the blocked side re-checks under the same mutex — no lost wakeup) or the
/// waiter's re-poll observes the published condition.  wait() additionally
/// bounds each sleep, so even a missed wakeup only delays the next poll.
class EventCount {
 public:
  std::uint32_t prepare_wait() {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_seq_cst);
  }

  void cancel_wait() { waiters_.fetch_sub(1, std::memory_order_release); }

  /// Blocks until the epoch moves past `key` (or the backstop timeout).
  void wait(std::uint32_t key) {
    std::unique_lock lock(mu_);
    cv_.wait_for(lock, kParkBackstop, [&] {
      return epoch_.load(std::memory_order_relaxed) != key;
    });
    lock.unlock();
    waiters_.fetch_sub(1, std::memory_order_release);
  }

  /// Wakes every parked waiter.  Returns 1 when waiters were present (a
  /// delivered wake, for the obs counters), 0 for the free fast path.
  std::uint64_t notify_all() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) == 0) return 0;
    {
      std::lock_guard lock(mu_);
      epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_all();
    return 1;
  }

 private:
  static constexpr std::chrono::milliseconds kParkBackstop{10};

  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// Wake hooks of one bounded queue: consumers park on (and producers
/// notify) `not_empty`; blocked producers park on (and consumers notify)
/// `not_full`.  Padded so the two sides never share a cache line.
struct QueueGates {
  alignas(64) EventCount not_empty;
  alignas(64) EventCount not_full;
};

/// What one wait episode did — folded into the stage's obs counters.
struct WaitCounters {
  std::uint64_t yields = 0;     ///< sched_yield calls
  std::uint64_t parks = 0;      ///< times the thread blocked in the OS
  std::uint64_t parked_ns = 0;  ///< wall time spent blocked
};

/// Polls per round of the spin and of the yield phase of wait_until.
inline constexpr int kWaitSpinPolls = 256;
inline constexpr int kWaitYieldPolls = 16;

/// Blocks until poll() returns true: kSpin spins forever, kPark escalates
/// spin → yield → park.  `poll` must be safe to call repeatedly and is the only
/// way the wait exits; with kPark the peer that makes poll() true must
/// notify `ec` afterwards.  A kPark round polls kWaitSpinPolls +
/// kWaitYieldPolls times, registers with `ec`, polls once more, then blocks.
template <typename Poll>
WaitCounters wait_until(WaitKind kind, EventCount& ec, Poll&& poll) {
  WaitCounters out;
  if (sched::active()) {
    // Under deterministic scheduling the wait IS a schedule point: spinning
    // while serialized would livelock (the peer that makes poll() true can
    // never be granted a turn), and parking would stall the controller.
    // Each failed poll yields one step to the controller instead.
    while (!poll()) sched::point("wait.poll");
    return out;
  }
  for (;;) {
    for (int i = 0; i < kWaitSpinPolls; ++i) {
      if (poll()) return out;
      cpu_relax();
    }
    if (kind == WaitKind::kSpin) continue;
    for (int i = 0; i < kWaitYieldPolls; ++i) {
      if (poll()) return out;
      std::this_thread::yield();
      ++out.yields;
    }
    const std::uint32_t key = ec.prepare_wait();
    if (poll()) {
      ec.cancel_wait();
      return out;
    }
    const auto t0 = std::chrono::steady_clock::now();
    ec.wait(key);
    out.parked_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    ++out.parks;
  }
}

}  // namespace depprof
