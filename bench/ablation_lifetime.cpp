// Variable-lifetime ablation (Sec. III-B): "addresses that become obsolete
// after deallocating the corresponding variable are removed from
// signatures" — the optimization that stops memory *reuse* from fabricating
// dependences between unrelated variables.
//
// Two experiments:
//  1. a synthetic allocator-reuse scenario where every loop iteration
//     obtains a scratch buffer at the same address: without lifetime events
//     the stale write-signature entries fabricate carried RAW dependences
//     between independent iterations;
//  2. the workloads that emit DP_FREE (kmeans), replayed with and without
//     their lifetime events, measured as FPR against a perfect baseline
//     that honours the frees.

#include <cstdio>
#include <sstream>

#include "common/table.hpp"
#include "core/profiler.hpp"
#include "trace/nest.hpp"
#include "harness/accuracy.hpp"
#include "harness/runner.hpp"
#include "obs/bench_report.hpp"
#include "trace/trace.hpp"
#include "workloads/workload.hpp"

using namespace depprof;

namespace {

/// Trace of a loop that re-uses one scratch buffer per iteration: each
/// iteration writes *part* of the buffer (line 11), reads all of it
/// (line 12), then frees it.  Iterations are independent: reads of words
/// this iteration did not write target freshly (re)allocated memory.
/// Without lifetime events the stale signature entries of the previous
/// iteration survive and fabricate loop-carried RAW/WAR/WAW dependences.
Trace scratch_reuse_trace(std::size_t iters, std::size_t buf_words,
                          bool with_frees) {
  Trace t;
  const std::uint32_t ctx = nest_forest().enter(NestForest::kRoot, 1, 0);
  for (std::size_t it = 0; it < iters; ++it) {
    for (std::size_t w = 0; w < buf_words; ++w) {
      AccessEvent ev;
      ev.addr = 0x5000 + w * 4;  // same scratch address every iteration
      ev.ctx = ctx;
      ev.iter = static_cast<std::uint32_t>(it);
      if ((w + it) % 2 == 0) {  // partial initialization
        ev.kind = AccessKind::kWrite;
        ev.loc = SourceLocation(1, 11).packed();
        t.events.push_back(ev);
      }
      ev.kind = AccessKind::kRead;
      ev.loc = SourceLocation(1, 12).packed();
      t.events.push_back(ev);
    }
    if (with_frees) {
      for (std::size_t w = 0; w < buf_words; ++w) {
        AccessEvent ev;
        ev.addr = 0x5000 + w * 4;
        ev.kind = AccessKind::kFree;
        t.events.push_back(ev);
      }
    }
  }
  return t;
}

std::size_t carried_count(const DepMap& deps, DepType type) {
  std::size_t n = 0;
  for (const auto& [key, info] : deps)
    if (key.type == type && (info.flags & kLoopCarried)) ++n;
  return n;
}

DepMap run_trace(const Trace& t, StorageKind storage,
                 obs::PipelineSnapshot* stages = nullptr) {
  ProfilerConfig cfg;
  cfg.storage = storage;
  cfg.slots = 1u << 16;
  auto prof = make_serial_profiler(cfg);
  replay(t, *prof);
  if (stages != nullptr) *stages = prof->stats().stages;
  return prof->take_dependences();
}

Trace strip_frees(const Trace& t) {
  Trace out;
  for (const auto& ev : t.events)
    if (!ev.is_free()) out.events.push_back(ev);
  return out;
}

}  // namespace

int main() {
  obs::BenchReport report("ablation_lifetime");

  // -- 1. synthetic scratch reuse ----------------------------------------
  std::printf("Scratch-buffer reuse (64 iterations, one freed buffer):\n");
  for (bool frees : {true, false}) {
    const Trace t = scratch_reuse_trace(64, 16, frees);
    obs::PipelineSnapshot stages;
    const DepMap deps = run_trace(t, StorageKind::kSignature, &stages);
    report.metric(frees ? "carried_raw_with_frees" : "carried_raw_without_frees",
                  static_cast<double>(carried_count(deps, DepType::kRaw)));
    report.stages(frees ? "lifetime_on" : "lifetime_off", stages);
    std::printf(
        "  lifetime events %-3s -> %zu merged deps; carried RAW/WAR/WAW = "
        "%zu/%zu/%zu (%s)\n",
        frees ? "on" : "off", deps.size(),
        carried_count(deps, DepType::kRaw), carried_count(deps, DepType::kWar),
        carried_count(deps, DepType::kWaw),
        frees ? "iterations correctly independent"
              : "FABRICATED recurrences between independent iterations");
  }

  // -- 2. real workloads with DP_FREE -------------------------------------
  TextTable table("\nLifetime events on instrumented workloads (signature vs "
                  "free-honouring perfect baseline)");
  table.set_header({"workload", "free events", "FPR w/ lifetime",
                    "FPR w/o lifetime", "extra deps w/o"});
  for (const char* name : {"kmeans"}) {
    const Workload* w = find_workload(name);
    if (w == nullptr) continue;
    const Trace full = record_workload(*w);
    std::size_t frees = 0;
    for (const auto& ev : full.events) frees += ev.is_free() ? 1 : 0;

    const DepMap baseline = run_trace(full, StorageKind::kPerfect);
    const DepMap with_lifetime = run_trace(full, StorageKind::kSignature);
    const DepMap without = run_trace(strip_frees(full), StorageKind::kSignature);

    const AccuracyResult acc_with = compare_deps(baseline, with_lifetime);
    const AccuracyResult acc_without = compare_deps(baseline, without);
    report.metric(std::string(name) + "_fpr_with_lifetime",
                  acc_with.fpr_percent());
    report.metric(std::string(name) + "_fpr_without_lifetime",
                  acc_without.fpr_percent());
    table.add_row({name, std::to_string(frees),
                   TextTable::num(acc_with.fpr_percent()),
                   TextTable::num(acc_without.fpr_percent()),
                   std::to_string(acc_without.false_positives)});
  }
  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf(
      "\nPaper reference (Sec. III-B): removing obsolete addresses from the "
      "signatures lowers the probability of building incorrect dependences; "
      "single-hash (non-Bloom) signatures exist precisely to allow this "
      "removal.\n");
  report.write();
  return 0;
}
