// Fig. 5: slowdown of the profiler on sequential NAS and Starbench
// analogues: serial profiler, lock-based parallel (8 workers), lock-free
// parallel (8 workers), lock-free parallel (16 workers), plus per-suite
// averages.
//
// Single-core host note: real wall-clock cannot show parallel speedup here,
// so each parallel configuration reports BOTH the measured wall slowdown
// ("wall") and the simulated multi-core slowdown ("sim") reconstructed from
// per-thread CPU times (see DESIGN.md).  The paper's comparison points are
// serial 190x, 8T lock-based > 8T lock-free ~97-101x, 16T lock-free
// ~78-93x.
//
// Usage: fig5_slowdown_seq [--scale N] [--suite nas|starbench|all]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/runner.hpp"
#include "obs/bench_report.hpp"
#include "workloads/workload.hpp"

using namespace depprof;

namespace {

struct ConfigPoint {
  const char* label;
  bool parallel;
  unsigned workers;
  QueueKind queue;
};

}  // namespace

int main(int argc, char** argv) {
  int scale = 1;
  std::string suite = "all";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
      scale = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--suite") == 0 && i + 1 < argc)
      suite = argv[++i];
  }

  const ConfigPoint points[] = {
      {"serial", false, 0, QueueKind::kLockFree},
      {"8T_lock-based", true, 8, QueueKind::kMutex},
      {"8T_lock-free", true, 8, QueueKind::kLockFree},
      {"16T_lock-free", true, 16, QueueKind::kLockFree},
  };

  TextTable table("Fig. 5 — profiler slowdown on sequential targets (x native)");
  table.set_header({"program", "suite", "native_ms", "serial", "8T_lock-based(sim)",
                    "8T_lock-free(sim)", "16T_lock-free(sim)",
                    "8T_lock-based(wall)", "8T_lock-free(wall)",
                    "16T_lock-free(wall)"});

  StatAccumulator suite_avg[2][4];  // [nas|starbench][config]
  obs::BenchReport report("fig5_slowdown_seq");
  obs::PipelineSnapshot last_stages[4];  // last profiled workload, per config

  for (const Workload& wl : all_workloads()) {
    const Workload* w = &wl;
    if (w->suite != "nas" && w->suite != "starbench") continue;
    if (suite != "all" && w->suite != suite) continue;

    double sim[4] = {}, wall[4] = {}, native_ms = 0.0;
    for (int c = 0; c < 4; ++c) {
      const ConfigPoint& p = points[c];
      ProfilerConfig cfg;
      cfg.storage = StorageKind::kSignature;
      cfg.slots = p.parallel ? (1u << 17) : (1u << 20);
      cfg.workers = p.workers;
      cfg.queue = p.queue;

      RunOptions opts;
      opts.scale = scale;
      opts.parallel_pipeline = p.parallel;
      opts.native_reps = 3;

      const RunMeasurement m = profile_workload(*w, cfg, opts);
      native_ms = m.native_sec * 1e3;
      wall[c] = m.slowdown();
      sim[c] = p.parallel ? m.simulated_slowdown() : m.slowdown();
      const int s = w->suite == "nas" ? 0 : 1;
      suite_avg[s][c].add(sim[c]);
      last_stages[c] = m.stats.stages;
    }

    table.add_row({w->name, w->suite, TextTable::num(native_ms, 3),
                   TextTable::num(sim[0], 1), TextTable::num(sim[1], 1),
                   TextTable::num(sim[2], 1), TextTable::num(sim[3], 1),
                   TextTable::num(wall[1], 1), TextTable::num(wall[2], 1),
                   TextTable::num(wall[3], 1)});
  }

  const char* suites[2] = {"NAS-average", "Starbench-average"};
  for (int s = 0; s < 2; ++s) {
    if (suite_avg[s][0].count() == 0) continue;
    table.add_row({suites[s], "-", "-", TextTable::num(suite_avg[s][0].mean(), 1),
                   TextTable::num(suite_avg[s][1].mean(), 1),
                   TextTable::num(suite_avg[s][2].mean(), 1),
                   TextTable::num(suite_avg[s][3].mean(), 1), "-", "-", "-"});
  }

  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nCSV:\n%s", table.csv().c_str());
  std::printf(
      "\nPaper reference (Fig. 5): serial ~190x; 8T lock-free ~97x (NAS) / "
      "~101x (Starbench); 16T lock-free ~78x / ~93x; lock-based ~1.3-1.6x "
      "slower than lock-free.\n");

  const char* suite_keys[2] = {"nas", "starbench"};
  for (int s = 0; s < 2; ++s)
    for (int c = 0; c < 4; ++c)
      if (suite_avg[s][c].count() > 0)
        report.metric(std::string(suite_keys[s]) + "_avg_sim_" + points[c].label,
                      suite_avg[s][c].mean());
  for (int c = 0; c < 4; ++c)
    if (!last_stages[c].empty()) report.stages(points[c].label, last_stages[c]);
  report.write();
  return 0;
}
