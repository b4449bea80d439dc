// Tour of the Sec. VIII program-analysis framework: profile an instrumented
// program with function markers, build the ProgramModel, and walk its
// representations — call tree, loop verdicts, dependence graph (with DOT
// export), and the plugin table.
//
//   $ ./framework_tour

#include <cstdio>
#include <vector>

#include "analysis/report.hpp"
#include "core/profiler.hpp"
#include "framework/plugin.hpp"
#include "framework/program_model.hpp"
#include "instrument/macros.hpp"
#include "instrument/runtime.hpp"

DP_FILE("framework_tour");

namespace {

using namespace depprof;

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  DP_FUNCTION("dot");
  double sum = 0.0;
  DP_LOOP_BEGIN();
  for (std::size_t i = 0; i < a.size(); ++i) {
    DP_LOOP_ITER();
    DP_READ(a[i]);
    DP_READ(b[i]);
    DP_REDUCTION(); DP_UPDATE(sum); sum += a[i] * b[i];
  }
  DP_LOOP_END();
  return sum;
}

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  DP_FUNCTION("axpy");
  DP_LOOP_BEGIN();
  for (std::size_t i = 0; i < x.size(); ++i) {
    DP_LOOP_ITER();
    DP_READ(x[i]);
    DP_UPDATE(y[i]);
    y[i] += alpha * x[i];
  }
  DP_LOOP_END();
}

double solve(std::vector<double>& x, std::vector<double>& r) {
  DP_FUNCTION("solve");
  double residual = 0.0;
  DP_LOOP_BEGIN();
  for (int it = 0; it < 4; ++it) {
    DP_LOOP_ITER();
    const double rr = dot(r, r);
    axpy(0.1 * rr / (1.0 + rr), r, x);
    DP_READ(residual);
    DP_WRITE(residual);
    residual = rr;  // convergence state: the carried dependence
  }
  DP_LOOP_END();
  return residual;
}

}  // namespace

int main() {
  // Profile an instrumented mini-solver.
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kSignature;
  cfg.slots = 1u << 18;
  auto profiler = make_serial_profiler(cfg);
  Runtime::instance().reset();
  Runtime::instance().attach(profiler.get());
  std::vector<double> x(256, 0.0), r(256, 1.0);
  const double res = solve(x, r);
  Runtime::instance().detach();
  std::printf("solver residual: %f\n\n", res);

  // Build the model; every representation derives from the one profiled run.
  const ProgramModel model = ProgramModel::from_run(*profiler);

  std::printf("== call tree ==\n%s\n", model.call_tree().render().c_str());
  std::printf("== loop verdicts ==\n%s\n",
              render_loop_report(model.loop_verdicts(), model.control_flow())
                  .c_str());

  const DepGraph& graph = model.dep_graph();
  std::printf("== dependence graph: %zu nodes, %zu edges, RAW cycle: %s ==\n\n",
              graph.nodes().size(), graph.edge_count(),
              graph.has_raw_cycle() ? "yes" : "no");
  std::printf("DOT (render with `dot -Tsvg`):\n%s\n", graph.to_dot().c_str());

  std::printf("== plugins ==\n");
  for (const Plugin& plugin : plugins()) {
    std::printf("\n-- %s: %s --\n%s", plugin.name, plugin.description,
                plugin.run(model).c_str());
  }
  return 0;
}
