#include "framework/program_model.hpp"

#include "instrument/runtime.hpp"

namespace depprof {

ProgramModel ProgramModel::from_run(IProfiler& profiler) {
  Runtime& rt = Runtime::instance();
  return ProgramModel(profiler.take_dependences(), rt.control_flow(),
                      rt.call_tree(), rt.reduction_lines(), profiler.stats());
}

const DepGraph& ProgramModel::dep_graph() const {
  if (!dep_graph_) dep_graph_ = std::make_unique<DepGraph>(deps_);
  return *dep_graph_;
}

std::vector<LoopVerdict> ProgramModel::loop_verdicts() const {
  LoopAnalysisOptions opts;
  opts.reduction_lines = reduction_lines_;
  return analyze_loops(deps_, cf_, opts);
}

}  // namespace depprof
