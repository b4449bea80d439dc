// Fig. 6: slowdown of the profiler on *parallel* Starbench analogues
// (pthread version, 4 target threads), with 8 and 16 profiling threads.
//
// As in the paper, native execution time of a parallel benchmark is the
// accumulated per-thread time (on our single-core host, wall time already
// is that accumulation).  Both the simulated multi-core slowdown and the
// measured wall slowdown are reported (see fig5 and DESIGN.md).  Paper
// comparison points: 346x (8T) and 261x (16T) on average.
//
// Usage: fig6_slowdown_par [--scale N] [--target-threads N]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/runner.hpp"
#include "obs/bench_report.hpp"
#include "workloads/workload.hpp"

using namespace depprof;

int main(int argc, char** argv) {
  int scale = 1;
  unsigned target_threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
      scale = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--target-threads") == 0 && i + 1 < argc)
      target_threads = static_cast<unsigned>(std::atoi(argv[++i]));
  }

  TextTable table("Fig. 6 — profiler slowdown on parallel Starbench targets (" +
                  std::to_string(target_threads) + " target threads)");
  table.set_header({"program", "native_ms", "8T(sim)", "16T(sim)", "8T(wall)",
                    "16T(wall)"});

  StatAccumulator avg8, avg16;
  const unsigned worker_counts[2] = {8, 16};
  obs::BenchReport report("fig6_slowdown_par");
  obs::PipelineSnapshot last_stages[2];

  for (const Workload* w : workloads_in_suite("starbench")) {
    if (!w->run_parallel) continue;
    double sim[2] = {}, wall[2] = {}, native_ms = 0.0;
    for (int c = 0; c < 2; ++c) {
      ProfilerConfig cfg;
      cfg.storage = StorageKind::kSignature;
      cfg.slots = 1u << 17;
      cfg.mt_targets = true;
      cfg.workers = worker_counts[c];

      RunOptions opts;
      opts.scale = scale;
      opts.target_threads = target_threads;
      opts.parallel_pipeline = true;
      opts.native_reps = 3;

      const RunMeasurement m = profile_workload(*w, cfg, opts);
      native_ms = m.native_sec * 1e3;
      sim[c] = m.simulated_slowdown();
      wall[c] = m.slowdown();
      last_stages[c] = m.stats.stages;
    }
    avg8.add(sim[0]);
    avg16.add(sim[1]);
    table.add_row({w->name, TextTable::num(native_ms, 3),
                   TextTable::num(sim[0], 1), TextTable::num(sim[1], 1),
                   TextTable::num(wall[0], 1), TextTable::num(wall[1], 1)});
  }
  table.add_row({"average", "-", TextTable::num(avg8.mean(), 1),
                 TextTable::num(avg16.mean(), 1), "-", "-"});

  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nCSV:\n%s", table.csv().c_str());
  std::printf(
      "\nPaper reference (Fig. 6): average 346x with 8 profiling threads, "
      "261x with 16; MT profiling costs more than sequential profiling "
      "(Fig. 5) because of added contention.\n");

  report.metric("avg_sim_8T", avg8.mean());
  report.metric("avg_sim_16T", avg16.mean());
  if (!last_stages[0].empty()) report.stages("8T_mpmc", last_stages[0]);
  if (!last_stages[1].empty()) report.stages("16T_mpmc", last_stages[1]);
  report.write();
  return 0;
}
