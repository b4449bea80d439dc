// Queue ablation (Sec. IV / Fig. 5 inset):
//   * micro — per-operation cost of the lock-free SPSC ring, the lock-free
//     MPMC queue, and the mutex queue, single-threaded and with a
//     producer/consumer thread pair;
//   * end-to-end — one representative workload through the parallel
//     pipeline with each queue kind, reporting simulated slowdown.
//
// Paper comparison point: the lock-free design is 1.6x (NAS) / 1.3x
// (Starbench) faster than the lock-based one.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <thread>

#include "harness/runner.hpp"
#include "obs/bench_report.hpp"
#include "queue/queues.hpp"
#include "workloads/workload.hpp"

using namespace depprof;

namespace {

void pour_and_drain(benchmark::State& state, QueueKind kind, bool mp) {
  auto q = make_queue<std::uint64_t>(kind, mp, 1024);
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 1024; ++i) benchmark::DoNotOptimize(q->try_push(i));
    std::uint64_t v;
    while (q->try_pop(v)) benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}

BENCHMARK_CAPTURE(pour_and_drain, spsc, QueueKind::kLockFree, false);
BENCHMARK_CAPTURE(pour_and_drain, mpmc, QueueKind::kLockFree, true);
BENCHMARK_CAPTURE(pour_and_drain, mutex, QueueKind::kMutex, false);

void threaded_transfer(benchmark::State& state, QueueKind kind, bool mp) {
  constexpr std::uint64_t kItems = 50'000;
  for (auto _ : state) {
    auto q = make_queue<std::uint64_t>(kind, mp, 256);
    std::thread consumer([&] {
      std::uint64_t got = 0, v = 0;
      while (got < kItems) {
        if (q->try_pop(v))
          ++got;
        else
          std::this_thread::yield();
      }
      benchmark::DoNotOptimize(v);
    });
    for (std::uint64_t i = 0; i < kItems; ++i)
      while (!q->try_push(i)) std::this_thread::yield();
    consumer.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kItems));
}

BENCHMARK_CAPTURE(threaded_transfer, spsc, QueueKind::kLockFree, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(threaded_transfer, mpmc, QueueKind::kLockFree, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(threaded_transfer, mutex, QueueKind::kMutex, false)
    ->Unit(benchmark::kMillisecond);

/// End-to-end: the Fig. 5 lock-based vs lock-free comparison on one NAS
/// analogue, sweeping the chunk size.  Queue costs are per *chunk*, so the
/// lock-based penalty is largest at chunk=1 (one queue operation per
/// access, the regime where the paper's 1.3-1.6x gap lives) and is
/// amortized away by larger chunks.
void end_to_end(obs::BenchReport& report) {
  const Workload* w = find_workload("cg");
  if (w == nullptr) return;
  std::printf("\nEnd-to-end pipeline on '%s' (8 workers), sim slowdown:\n",
              w->name.c_str());
  std::printf("  %-10s %-12s %-15s %s\n", "chunk", "mutex", "lock-free",
              "mutex/lock-free");
  for (std::size_t chunk : {std::size_t{1}, std::size_t{16}, std::size_t{512}}) {
    double sim[2] = {};
    int idx = 0;
    for (QueueKind kind : {QueueKind::kMutex, QueueKind::kLockFree}) {
      ProfilerConfig cfg;
      cfg.storage = StorageKind::kSignature;
      cfg.slots = 1u << 17;
      cfg.workers = 8;
      cfg.queue = kind;
      cfg.chunk_size = chunk;
      RunOptions opts;
      opts.parallel_pipeline = true;
      opts.native_reps = 2;
      const RunMeasurement m = profile_workload(*w, cfg, opts);
      sim[idx] = m.simulated_slowdown();
      const char* qname = idx == 0 ? "mutex" : "spsc";
      report.stages(std::string(qname) + "_chunk" + std::to_string(chunk),
                    m.stats.stages);
      ++idx;
    }
    report.metric("mutex_over_lockfree_chunk" + std::to_string(chunk),
                  sim[1] > 0 ? sim[0] / sim[1] : 0.0);
    std::printf("  %-10zu %-12.1f %-15.1f %.2fx\n", chunk, sim[0], sim[1],
                sim[1] > 0 ? sim[0] / sim[1] : 0.0);
  }
  std::printf(
      "\nPaper reference: lock-free queues gave 1.6x (NAS) / 1.3x "
      "(Starbench) over the lock-based design.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  obs::BenchReport report("ablation_queue");
  end_to_end(report);
  report.write();
  return 0;
}
