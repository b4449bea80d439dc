#pragma once
// Parallelism report — the `depprof report` subcommand's rendering layer.
//
// Turns the loop-parallelism verdicts (loop_parallelism.hpp) into a
// consumable report: a text tree that indents every loop under its
// enclosing loop (using the run's recorded nest edges), or a JSON document
// with the same nesting for tooling.  A ground-truth checker scores the
// verdicts against a workload's OpenMP annotations (Table II style), which
// is what CI's report smoke asserts.

#include <string>
#include <vector>

#include "analysis/loop_parallelism.hpp"
#include "workloads/workload.hpp"

namespace depprof {

struct ReportOptions {
  bool json = false;
};

/// Renders the verdicts over the run's loop-nest tree.  Loops entered at
/// top level form the roots; a loop reached from several parents (nest DAG)
/// is printed under its first parent only.  Loops with no verdict (never
/// profiled) are skipped; verdicts whose loop never appears in the tree are
/// appended at top level so nothing is silently dropped.
std::string render_loop_report(const std::vector<LoopVerdict>& verdicts,
                               const ControlFlowLog& cf,
                               const ReportOptions& opts = {});

struct ReportCheck {
  unsigned matched = 0;
  unsigned total = 0;
  /// One line per disagreement (or per count mismatch).
  std::vector<std::string> mismatches;

  bool ok() const { return mismatches.empty(); }
};

/// Scores verdicts against ground truth, index-aligned with the verdict
/// order (ascending begin location — the order Workload::loops is declared
/// in).  A loop counts as found parallelizable unless its verdict is
/// serial — reduction-suspect loops are parallelizable after the reduction
/// rewrite, matching Table II.
ReportCheck check_verdicts(const std::vector<LoopVerdict>& verdicts,
                           const std::vector<LoopTruth>& truth);

}  // namespace depprof
