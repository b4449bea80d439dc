// Parallelism discovery (Sec. VII-A): profile a workload, feed the
// dependences and control-flow information to the DiscoPoP-style loop
// analysis, and print per-loop verdicts with the blocking dependences.
//
//   $ ./discover_parallelism [workload] [--slots N]
//
// Default workload: cg (mixed parallel and sequential loops).

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "analysis/loop_parallelism.hpp"
#include "analysis/report.hpp"
#include "core/formatter.hpp"
#include "harness/runner.hpp"
#include "instrument/runtime.hpp"
#include "workloads/workload.hpp"

int main(int argc, char** argv) {
  using namespace depprof;

  const char* name = "cg";
  std::size_t slots = 1u << 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--slots") == 0 && i + 1 < argc)
      slots = static_cast<std::size_t>(std::atoll(argv[++i]));
    else
      name = argv[i];
  }

  const Workload* w = find_workload(name);
  if (w == nullptr || !w->run) {
    std::fprintf(stderr, "unknown workload '%s'; available:\n", name);
    for (const auto& wl : all_workloads())
      std::fprintf(stderr, "  %s\n", wl.name.c_str());
    return 1;
  }

  // Profile with a signature-based serial profiler.
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kSignature;
  cfg.slots = slots;
  RunOptions opts;
  opts.native_reps = 1;
  const RunMeasurement m = profile_workload(*w, cfg, opts);

  std::printf("== %s: %llu accesses, %zu merged dependences ==\n\n",
              w->name.c_str(), static_cast<unsigned long long>(m.stats.events),
              m.deps.size());

  // Run the loop-parallelism analysis.
  LoopAnalysisOptions aopts;
  aopts.reduction_lines = Runtime::instance().reduction_lines();
  const auto verdicts = analyze_loops(m.deps, m.control_flow, aopts);
  std::fputs(render_loop_report(verdicts, m.control_flow).c_str(), stdout);

  // Compare against the workload's ground truth if available.
  if (verdicts.size() == w->loops.size()) {
    std::printf("\nground truth (OpenMP annotations of the analogue):\n");
    unsigned agree = 0;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      const bool ok = verdicts[i].parallelizable() == w->loops[i].parallelizable;
      agree += ok ? 1 : 0;
      std::printf("  %-12s expected %-18s -> %s\n", w->loops[i].label,
                  w->loops[i].parallelizable ? "parallelizable" : "sequential",
                  ok ? "agrees" : "DISAGREES");
    }
    std::printf("%u/%zu verdicts agree\n", agree, verdicts.size());
  }
  return 0;
}
