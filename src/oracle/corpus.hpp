#pragma once
// On-disk repro format for differential-harness findings.
//
// A repro is one minimized (trace, config) pair in a line-oriented text
// format so it diffs and reviews like source.  Every repro committed under
// tests/corpus/ is replayed by the corpus regression test on each CI run,
// turning yesterday's fuzz finding into tomorrow's regression gate.
//
//   depfuzz-repro v9
//   # free-form provenance comment
//   note <one-line description>
//   config storage=perfect slots=1048576 sighash=modulo mt=1 workers=4
//          ... queue=lock-free wait=park chunk=7 qcap=64 modulo_routing=0
//          ... dedup=1 budget=1 burst=8 skip=0 races=1
//   lb enabled=1 sample_shift=0 interval=200 threshold=1.25 top_k=10
//          ... max_rounds=64
//   sched seed=7 algo=pct
//   sstep w0 queue.pop
//   sstep main produce.stage
//   nest id=1 parent=0 loop=16777276
//   nest id=2 parent=1 loop=16777280
//   ev W addr=0x2000 loc=16777226 var=0 tid=0 ts=0 flags=0
//          ... ctx=2 iters=3,1,0,0,0,0,0
//
// (`config` and `lb` are single lines; they are wrapped here for the
// comment only.)  `ev` kinds are R / W / F.  The strict parser rejects,
// with the offending line number: any version line but `depfuzz-repro v9`,
// unknown directives or keys, duplicate keys within a line, a config or
// lb line missing any of its keys, a missing or duplicate config/lb line,
// a duplicate sched line, and any directive other than `note` appearing
// before the config line — the corpus lint relies on strictness, so a
// typo in a committed repro fails CI instead of silently replaying
// something else.  races=1 combined with sampling (budget<1 or skip>0) or
// a sequential target (mt=0) is rejected too, mirroring
// races_config_ok(): the profiler factories refuse such configs, so a
// repro claiming one could never have been recorded.
//
// The optional `sched` directive (exploration seed and algorithm) plus
// zero or more `sstep <thread> <site>` lines record the interleaving the
// failing run took; the controller (src/sched/) replays it verbatim when
// the repro is re-run.  The loop-nest context is carried as interned
// `nest` directives (file-local ids, parents declared before children)
// referenced by each event's ctx= key, plus the root-anchored iteration
// window iters=; parsing re-interns the table into the process nest
// forest.
//
// MT repros replay order-faithfully from a single thread: the parallel
// pipeline stages events by producing thread, not by event tid, so a
// one-thread replay of a mixed-tid stream delivers the recorded
// cross-thread order regardless of lock-region flags.

#include <string>
#include <string_view>

#include "core/profiler.hpp"
#include "sched/sched.hpp"
#include "trace/trace.hpp"

namespace depprof {

/// One parsed/parseable repro case.
struct ReproCase {
  std::string note;  ///< one-line provenance ("" allowed)
  ProfilerConfig cfg;
  Trace trace;
  /// Deterministic-schedule section.  When sched is true the case is
  /// replayed under the schedule controller: `schedule` non-empty replays
  /// that exact interleaving, empty re-explores from (sched_seed,
  /// sched_algo).
  bool sched = false;
  std::uint64_t sched_seed = 1;
  sched::Algo sched_algo = sched::Algo::kRandomWalk;
  sched::ScheduleTrace schedule;
};

/// Renders `repro` in the v9 grammar above (the sched section is present
/// only when the case carries one).
std::string format_repro(const ReproCase& repro);

/// Strict parser: returns false and sets `error` (when non-null, prefixed
/// with the offending line number) on any version line but v9, unknown
/// directive, unknown or duplicate key, malformed value, missing key,
/// duplicate config/lb/sched line, directive before the config line, or
/// missing section.
bool parse_repro(ReproCase& out, std::string_view text,
                 std::string* error = nullptr);

/// File round-trip helpers.
bool write_repro(const ReproCase& repro, const std::string& path);
bool read_repro(ReproCase& out, const std::string& path,
                std::string* error = nullptr);

}  // namespace depprof
