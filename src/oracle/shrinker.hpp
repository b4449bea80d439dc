#pragma once
// Delta-debugging minimizer for failing differential cases.
//
// When the harness flags a (trace, config) mismatch, the raw repro is
// typically tens of thousands of events under an eight-worker pipeline —
// useless for debugging.  The shrinker reduces it on two axes while the
// failure keeps reproducing:
//
//   * trace minimization: classic ddmin over the event list — try dropping
//     ever-smaller chunks, restart the granularity ladder after every
//     successful reduction, stop when no single event can be removed (or
//     the evaluation budget runs out); a final rung tries flattening the
//     loop nest (every event rewritten onto a depth-1 entry of its
//     innermost loop) so repros that do not need the nest say so;
//   * config simplification: a fixed ladder of "simpler" settings (fewer
//     workers, chunk size 1, mutex queue, spin wait, load balancer off,
//     dedup off, perfect store, sampling off),
//     each kept only if the shrunk trace still fails under it;
//   * schedule minimization (repros with a sched section): first try
//     dropping the recorded schedule entirely — a failure that reproduces
//     free-running did not need the interleaving and the repro should say
//     so — then truncate the schedule from the back (replay past the last
//     recorded step continues unscheduled, so every prefix is a valid
//     schedule).
//
// The predicate re-runs the real profilers, so every evaluation costs a
// pipeline spin-up; the budget caps worst-case shrink time.  Parallel-only
// failures can be schedule-dependent — that is exactly what the schedule
// section of a repro pins down; for flaky cases without one the caller may
// still wrap its predicate with retries.

#include <cstddef>
#include <functional>

#include "core/profiler.hpp"
#include "sched/sched.hpp"
#include "trace/trace.hpp"

namespace depprof {

/// Returns true when (trace, cfg) still reproduces the failure.
using FailurePredicate =
    std::function<bool(const Trace&, const ProfilerConfig&)>;

struct ShrinkStats {
  std::size_t evaluations = 0;
  std::size_t initial_events = 0;
  std::size_t final_events = 0;
};

/// ddmin over the event list.  Returns the smallest still-failing trace
/// found within `max_evals` predicate evaluations.
Trace shrink_trace(Trace failing, const ProfilerConfig& cfg,
                   const FailurePredicate& still_fails, std::size_t max_evals,
                   ShrinkStats* stats = nullptr);

/// Config-simplification ladder.  Returns the simplest configuration that
/// still fails on `trace`.
ProfilerConfig shrink_config(const Trace& trace, ProfilerConfig cfg,
                             const FailurePredicate& still_fails,
                             ShrinkStats* stats = nullptr);

/// Extended predicate for interleaving-dependent cases: `schedule` is the
/// recorded interleaving to replay, nullptr means run free (no controller).
using SchedFailurePredicate = std::function<bool(
    const Trace&, const ProfilerConfig&, const sched::ScheduleTrace*)>;

/// Schedule-minimization rung for repros with a sched section.  Tries
/// dropping the schedule outright, then binary-truncates it from the back
/// while the failure keeps reproducing under replay.  Returns the smallest still-failing schedule
/// (empty with *dropped == true when the failure is not
/// schedule-dependent).
sched::ScheduleTrace shrink_schedule(const Trace& trace,
                                     const ProfilerConfig& cfg,
                                     sched::ScheduleTrace schedule,
                                     const SchedFailurePredicate& still_fails,
                                     ShrinkStats* stats = nullptr,
                                     bool* dropped = nullptr);

}  // namespace depprof
