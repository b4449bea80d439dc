// Wait-strategy ablation (ISSUE 2 tentpole):
//   How should pipeline threads wait at the three blocking sites (idle
//   workers, producers facing a full queue, the migration mailbox)?
//
// The paper's pipeline busy-waits (spin) — free when every thread owns a
// core, ruinous when the host is oversubscribed: spinning workers burn the
// CPU the producer needs.  This harness replays one fixed trace through the
// parallel pipeline, sweeping wait strategy x worker count (kReps
// interleaved runs per point; the median-throughput run is reported), and
// reports
//   * wall time and events/s (throughput),
//   * worker idle CPU seconds (cycles burned while waiting — the cost spin
//     pays and park avoids),
//   * parked seconds, producer block seconds, and wake counts (the
//     backpressure counters of obs::StageStats).
//
// Expected shape: with few workers (cores free) park is within ~10% of
// spin's throughput; oversubscribed, park slashes idle CPU burn relative to
// spin.  BENCH_ablation_waitstrategy.json carries the metrics and per-stage
// breakdowns.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "core/profiler.hpp"
#include "obs/bench_report.hpp"
#include "queue/wait_strategy.hpp"
#include "trace/generators.hpp"
#include "trace/trace.hpp"

using namespace depprof;

namespace {

struct RunResult {
  double wall_sec = 0.0;
  double events_per_sec = 0.0;
  double idle_cpu_sec = 0.0;   ///< summed over detect stages
  double parked_sec = 0.0;     ///< summed over all stages
  double block_sec = 0.0;      ///< producer wait on full queues + mailbox
  std::uint64_t wakes = 0;
  obs::PipelineSnapshot stages;
};

RunResult run_once(const Trace& t, WaitKind wait, unsigned workers) {
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kSignature;
  cfg.slots = 1u << 17;
  cfg.workers = workers;
  cfg.chunk_size = 64;   // small chunks keep the queues busy
  cfg.queue_capacity = 8;
  cfg.wait = wait;
  auto prof = make_parallel_profiler(cfg);

  WallTimer timer;
  replay(t, *prof);
  RunResult r;
  r.wall_sec = timer.elapsed();
  r.events_per_sec =
      r.wall_sec > 0 ? static_cast<double>(t.events.size()) / r.wall_sec : 0.0;

  r.stages = prof->stats().stages;
  for (const auto& s : r.stages.stages) {
    if (s.stage.rfind("detect", 0) == 0) r.idle_cpu_sec += s.idle_cpu_sec();
    r.parked_sec += s.parked_sec();
    r.block_sec += s.block_sec();
    r.wakes += s.wakes;
  }
  return r;
}

/// The run of median throughput among a point's (odd count of) runs.
RunResult median_run(std::vector<RunResult> runs) {
  const auto mid = runs.begin() + static_cast<std::ptrdiff_t>(runs.size() / 2);
  std::nth_element(runs.begin(), mid, runs.end(),
                   [](const RunResult& a, const RunResult& b) {
                     return a.events_per_sec < b.events_per_sec;
                   });
  return *mid;
}

}  // namespace

int main() {
  GenParams p;
  p.accesses = 500'000;
  p.distinct = 10'000;
  const Trace t = gen_zipf(p, 1.2);

  const unsigned hw = std::thread::hardware_concurrency();
  // `few` leaves cores free next to the producer; `many` oversubscribes the
  // host so the waiting strategy decides who gets the cores.  Floor of 16
  // keeps the contrast on small (incl. single-core) hosts.
  const unsigned few = 2;
  const unsigned many = hw > 8 ? 2 * hw : 16;

  obs::BenchReport report("ablation_waitstrategy");
  report.metric("hardware_concurrency", static_cast<double>(hw));

  std::printf("Wait-strategy ablation: %zu events, workers in {%u, %u}\n\n",
              t.events.size(), few, many);
  std::printf("  %-8s %-8s %-10s %-12s %-11s %-10s %-10s %s\n", "workers",
              "wait", "wall_s", "events/s", "idlecpu_s", "parked_s", "block_s",
              "wakes");

  constexpr WaitKind kWaits[] = {WaitKind::kSpin, WaitKind::kPark};
  constexpr int kReps = 5;
  report.metric("reps", kReps);
  // Median-throughput run per point, [few|many][spin|park].
  RunResult med[2][2];
  int idx = 0;
  for (unsigned workers : {few, many}) {
    // Interleave the strategies run by run so host drift hits both alike.
    std::vector<RunResult> runs[2];
    for (int rep = 0; rep < kReps; ++rep)
      for (int k = 0; k < 2; ++k)
        runs[k].push_back(run_once(t, kWaits[k], workers));
    for (int k = 0; k < 2; ++k) {
      const RunResult& r = med[idx][k] = median_run(std::move(runs[k]));
      const char* wait = wait_kind_name(kWaits[k]);
      std::printf("  %-8u %-8s %-10.3f %-12.3e %-11.3f %-10.3f %-10.3f %llu\n",
                  workers, wait, r.wall_sec, r.events_per_sec,
                  r.idle_cpu_sec, r.parked_sec, r.block_sec,
                  static_cast<unsigned long long>(r.wakes));
      const std::string tag =
          std::string(wait) + "_w" + std::to_string(workers);
      report.metric(tag + "_wall_sec", r.wall_sec);
      report.metric(tag + "_events_per_sec", r.events_per_sec);
      report.metric(tag + "_idle_cpu_sec", r.idle_cpu_sec);
      report.metric(tag + "_parked_sec", r.parked_sec);
      report.metric(tag + "_block_sec", r.block_sec);
      report.metric(tag + "_wakes", static_cast<double>(r.wakes));
      report.stages(tag, r.stages);
    }
    ++idx;
  }

  // Headline ratios: throughput parity when cores are free, idle-CPU
  // savings when oversubscribed.
  const double spin_eps = med[0][0].events_per_sec;
  const double spin_idle = med[1][0].idle_cpu_sec;
  const double parity =
      spin_eps > 0 ? med[0][1].events_per_sec / spin_eps : 0.0;
  const double idle_cut =
      spin_idle > 0 ? med[1][1].idle_cpu_sec / spin_idle : 0.0;
  report.metric("park_over_spin_throughput_free_cores", parity);
  report.metric("park_over_spin_idle_cpu_oversubscribed", idle_cut);
  std::printf(
      "\npark/spin throughput with free cores (%u workers): %.2fx\n"
      "park/spin idle CPU burn oversubscribed (%u workers): %.2fx\n",
      few, parity, many, idle_cut);

  report.write();
  return 0;
}
