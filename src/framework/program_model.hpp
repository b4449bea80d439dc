#pragma once
// Program model — the Sec. VIII integrated-framework data hub.
//
// "An integrated program-analysis framework with APIs to retrieve
// dependence information is already in development.  The framework
// reorganizes profiled data into multiple representations, including
// dynamic execution tree, call tree, dependence graph, loop table, etc.,
// and a dependence-based program analysis can be implemented as a plugin."
//
// ProgramModel bundles one profiled run's outputs (merged dependences,
// control-flow log, call tree, reduction hints, run statistics) and derives
// the framework representations from them: the dependence graph, and the
// per-loop verdicts of the Sec. VII-A analysis that stand in for the loop
// table.  The plugin table (plugin.hpp) runs analyses over the model.

#include <memory>
#include <vector>

#include "analysis/loop_parallelism.hpp"
#include "core/dep.hpp"
#include "core/profiler.hpp"
#include "framework/dep_graph.hpp"
#include "trace/call_tree.hpp"
#include "trace/control_flow.hpp"

namespace depprof {

class ProgramModel {
 public:
  ProgramModel() = default;
  ProgramModel(DepMap deps, ControlFlowLog cf, CallTree calls,
               std::vector<std::uint32_t> reduction_lines,
               ProfilerStats stats = {})
      : deps_(std::move(deps)),
        cf_(std::move(cf)),
        calls_(std::move(calls)),
        reduction_lines_(std::move(reduction_lines)),
        stats_(stats) {}

  /// Builds a model from the currently attached/last detached Runtime
  /// session and a finished profiler.
  static ProgramModel from_run(IProfiler& profiler);

  // -- raw representations -------------------------------------------------
  const DepMap& deps() const { return deps_; }
  const ControlFlowLog& control_flow() const { return cf_; }
  const CallTree& call_tree() const { return calls_; }
  const std::vector<std::uint32_t>& reduction_lines() const {
    return reduction_lines_;
  }
  const ProfilerStats& stats() const { return stats_; }

  // -- derived representations -------------------------------------------
  /// Built on first access, then cached.
  const DepGraph& dep_graph() const;
  /// One verdict per loop (analyze_loops with the run's reduction hints).
  std::vector<LoopVerdict> loop_verdicts() const;

 private:
  DepMap deps_;
  ControlFlowLog cf_;
  CallTree calls_;
  std::vector<std::uint32_t> reduction_lines_;
  ProfilerStats stats_;

  mutable std::unique_ptr<DepGraph> dep_graph_;
};

}  // namespace depprof
