#pragma once
// Analysis plugins (Sec. VIII): "a dependence-based program analysis can be
// implemented as a plugin".
//
// A plugin is a named function from the ProgramModel to a textual report.
// The built-ins re-package the Sec. VII analyses and add two parallelism-
// metric passes, listed in `depprof plugins` order:
//
//   loop-parallelism    — Sec. VII-A verdicts as the report tree
//                         (render_loop_report)
//   comm-matrix         — Sec. VII-B producer/consumer matrix
//   race-report         — Sec. V-B potential data races
//   hot-deps            — the top dependences by dynamic instance count
//   self-parallelism    — Kremlin-flavoured per-loop parallelism estimate
//                         (iterations vs carried recurrences), ranking loops
//                         by expected parallelization benefit
//   dep-distance        — Alchemist-style carried-distance report: for each
//                         loop-carried RAW, the min/max iteration distance
//                         and the blocking it implies

#include <span>
#include <string>
#include <string_view>

#include "framework/program_model.hpp"

namespace depprof {

struct Plugin {
  const char* name;
  const char* description;
  /// Runs the analysis over the model and returns a human-readable report.
  std::string (*run)(const ProgramModel& model);
};

/// The built-in plugins, in listing order.
std::span<const Plugin> plugins();

/// The plugin called `name`; nullptr if there is none.
const Plugin* find_plugin(std::string_view name);

}  // namespace depprof
