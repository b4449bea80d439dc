// hotpath — the batched prefetching detect kernel every profiler runs,
// measured as raw detect throughput (events per thread-CPU second) per
// storage backend against the per-event reference (DetectorCore::process,
// one event at a time).
//
// The primary stream simulates what a profiler actually sees (Sec. VI's
// merge-factor observation: ~1e5 dynamic instances per static dependence):
// a program running loop phase after loop phase, each phase a small fixed
// set of source lines re-executed thousands of times.  The accumulated
// dependence map grows large (tens of thousands of keys, cache-cold), while
// the *instantaneous* key set of any batch stays tiny — the regime where
// the batched kernel's per-batch record aggregation replaces one cold map
// probe per record with an L1 table hit.  A uniform-random stream with
// per-event random locations is reported as a disclosed adversarial
// secondary: it has no key repetition for aggregation to collapse, so the
// batched kernel only breaks even there.
//
// The two must be observationally identical — every run is cross-checked
// with oracle::diff_deps before a ratio is reported.
//
// Usage: hotpath [--events N] [--reps R] [--slots N] [--working-set N]
//                [--hist-words N] [--smoke]
//   --smoke   small stream + assertion that the batched kernel is no slower
//             than the per-event kernel beyond a generous noise margin on
//             every backend (exit 1 otherwise); used as a tier-1 ctest.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/detector.hpp"
#include "core/serial_profiler.hpp"
#include "sig/hash_table_recorder.hpp"
#include "sig/shadow_memory.hpp"
#include "trace/nest.hpp"
#include "obs/bench_report.hpp"
#include "oracle/diff.hpp"
#include "trace/event.hpp"

using namespace depprof;

namespace {

/// Iterations per simulated loop phase — each phase gets a fresh loop id,
/// dynamic entry, and source-line block for its dense accesses, so the
/// global dependence map accumulates keys phase after phase while the
/// *instantaneous* key set stays a dozen entries.
constexpr std::size_t kPhaseIters = 100;
/// Ring size of the reduction-style array `c` — sets the carried iteration
/// distance of its RAW/WAW dependences.
constexpr std::size_t kRing = 64;
/// Default histogram table size in words.  Sized so the table's signature
/// slots (16 bytes per slot per signature, 16 MiB for the read/write pair)
/// overflow the last-level cache — the sparse bucket probes are
/// genuine memory-latency stalls for the per-event kernel, while staying
/// within reach of the prefetched-stream bandwidth of one core.
constexpr std::size_t kHistWords = std::size_t{1} << 19;
/// Body accesses per simulated loop iteration.
constexpr std::size_t kBodyLines = 8;

/// Loop-phase stream modelled on the two access patterns of real hot loops:
/// dense streaming over per-phase arrays, and sparse indirect updates into
/// one long-lived table (histogram / hash-join style, `h[idx[i]] += ...`).
/// Iteration j of phase p executes (r1/r2 pseudo-random buckets):
///
///   line 1: read  a[j-1]   -> RAW  carried, distance 1
///   line 2: write a[j]     -> INIT
///   line 3: read  a[j]     -> RAW  intra-iteration
///   line 4: read  h[r1]    -> RAW  vs an earlier random iteration
///   line 5: write h[r1]    -> WAW + WAR vs line 4 (or INIT, cold bucket)
///   line 6: read  h[r2]    -> RAW
///   line 7: write h[r2]    -> WAW + WAR (or INIT)
///   line 8: write c[j%R]   -> WAW  carried, distance kRing
///
/// ~9 dependence records per iteration.  The dense lines (1-3, 8) use
/// phase-local locations (the map grows); the histogram lines use fixed
/// locations (their keys repeat for the whole run).  The histogram's
/// signature slots are cold — the regime the batched kernel's prefetches
/// target — while its dependence keys are hot — the regime its record
/// aggregation targets.
std::vector<AccessEvent> make_loop_stream(std::size_t events,
                                          std::size_t hist_words) {
  std::vector<AccessEvent> out;
  out.reserve(events);
  // Array bases in word units, spread so a/h/c do not collide in a
  // power-of-two signature.
  constexpr std::uint64_t kABase = 1'000'003;
  constexpr std::uint64_t kHBase = 150'000'017;
  constexpr std::uint64_t kCBase = 99'000'041;
  std::size_t phase = 0, j = 0, iter = 0;
  // One top-level dynamic entry per phase, interned on first use.
  std::vector<std::uint32_t> phase_ctx;
  auto push = [&](std::uint64_t unit, AccessKind kind, std::uint32_t loc,
                  std::uint32_t var) {
    AccessEvent ev;
    ev.addr = unit * 4;
    ev.kind = kind;
    ev.loc = loc;
    ev.var = var;
    while (phase_ctx.size() <= phase)
      phase_ctx.push_back(nest_forest().enter(
          NestForest::kRoot, static_cast<std::uint32_t>(phase_ctx.size()) + 1,
          0));
    ev.ctx = phase_ctx[phase];
    ev.iter = static_cast<std::uint32_t>(j) + 1;
    out.push_back(ev);
  };
  while (out.size() + kBodyLines <= events) {
    const std::uint32_t block = static_cast<std::uint32_t>(phase) * 4 + 100;
    const std::uint64_t a = kABase + iter;
    const std::uint64_t h1 = kHBase + mix64(2 * iter) % hist_words;
    const std::uint64_t h2 = kHBase + mix64(2 * iter + 1) % hist_words;
    const std::uint64_t c = kCBase + (j % kRing);
    push(a - (iter > 0 ? 1 : 0), AccessKind::kRead, block + 0, 1);
    push(a, AccessKind::kWrite, block + 1, 1);
    push(a, AccessKind::kRead, block + 2, 1);
    push(h1, AccessKind::kRead, 4, 2);
    push(h1, AccessKind::kWrite, 5, 2);
    push(h2, AccessKind::kRead, 6, 2);
    push(h2, AccessKind::kWrite, 7, 2);
    push(c, AccessKind::kWrite, block + 3, 3);
    ++iter;
    if (++j == kPhaseIters) {
      j = 0;
      ++phase;
    }
  }
  while (out.size() < events) out.push_back(out.back());
  return out;
}

/// Adversarial stream: word-granular addresses spread over `working_set`
/// units by a mixing hash (cache-hostile order) and a *random* location per
/// event, so dependence keys almost never repeat within a batch and the
/// batched kernel's record aggregation has nothing to collapse.
std::vector<AccessEvent> make_uniform_stream(std::size_t events,
                                             std::size_t working_set) {
  std::vector<AccessEvent> out(events);
  for (std::size_t i = 0; i < events; ++i) {
    const std::uint64_t r = mix64(0x9e3779b97f4a7c15ull + i);
    AccessEvent& ev = out[i];
    ev.addr = 0x10000000ull + (r % working_set) * 4;
    ev.kind = (r >> 32) % 2 == 0 ? AccessKind::kWrite : AccessKind::kRead;
    ev.loc = static_cast<std::uint32_t>(1 + ((r >> 40) % 61));
    ev.var = 1;
  }
  return out;
}

struct KernelRun {
  double best_eps = 0;      ///< detect-stage throughput (the kernel itself)
  double best_e2e_eps = 0;  ///< whole-replay throughput (batched only)
  DepMap deps;
  obs::PipelineSnapshot stages;
};

/// One timed serial-profiler run (batched kernel).  The primary metric is
/// *detect-stage* throughput — events over the stage's own thread-CPU time,
/// which covers exactly the code the per-event reference replaces and, on
/// a loaded host, excludes preemption that would otherwise land on one side
/// of the ratio at random.  Whole-replay throughput (wall clock) is kept as
/// a context metric: it adds the profiler's hand-off and the merge.
/// Best-of-reps for both.
template <typename Store>
void batched_rep(const ProfilerConfig& cfg,
                 const std::vector<AccessEvent>& stream, bool last,
                 KernelRun& result) {
  constexpr std::size_t kFeed = 4096;
  auto profiler = make_serial_profiler_over<Store>(cfg);
  WallTimer t;
  for (std::size_t i = 0; i < stream.size(); i += kFeed)
    profiler->on_batch(stream.data() + i, std::min(kFeed, stream.size() - i));
  profiler->finish();
  const double e2e_eps = static_cast<double>(stream.size()) / t.elapsed();
  obs::PipelineSnapshot snap = profiler->stats().stages;
  double detect_sec = 0;
  for (const auto& s : snap.stages)
    if (s.stage.rfind("detect", 0) == 0) detect_sec += s.cpu_sec();
  const double eps = detect_sec > 0
                         ? static_cast<double>(stream.size()) / detect_sec
                         : e2e_eps;
  if (eps > result.best_eps) result.best_eps = eps;
  if (e2e_eps > result.best_e2e_eps) result.best_e2e_eps = e2e_eps;
  if (last) {
    result.stages = std::move(snap);
    result.deps = profiler->take_dependences();
  }
}

/// One timed per-event reference run: DetectorCore::process over the
/// stream, timed in thread-CPU time around that loop alone — the code
/// region the batched run's detect-stage CPU time covers.
template <typename Store>
void per_event_rep(const ProfilerConfig& cfg,
                   const std::vector<AccessEvent>& units, bool last,
                   KernelRun& result) {
  DetectorCore<Store> core(make_store<Store>(cfg), make_store<Store>(cfg));
  DepMap deps;
  ThreadCpuTimer t;
  for (const AccessEvent& ev : units) core.process(ev, deps);
  const double eps = static_cast<double>(units.size()) / t.elapsed();
  if (eps > result.best_eps) result.best_eps = eps;
  if (last) result.deps = std::move(deps);
}

/// Interleaved A/B measurement of both kernels on one backend+stream, with
/// the byte-identity cross-check.  Returns false (and prints) on divergence.
template <typename Store>
bool measure(const std::string& name, const ProfilerConfig& cfg,
             const std::vector<AccessEvent>& stream, int reps,
             KernelRun& per_event, KernelRun& batched) {
  // Interleave the kernels rep by rep so drift on a noisy host (thermal,
  // neighbours) hits both sides equally; best-of-reps per kernel.
  for (int rep = 0; rep < reps; ++rep) {
    per_event_rep<Store>(cfg, stream, rep == reps - 1, per_event);
    batched_rep<Store>(cfg, stream, rep == reps - 1, batched);
  }
  // The kernels differ only in prefetching, batching, and record
  // aggregation — the maps must be identical or the "ratio" compares
  // different work.
  const DepDiff diff = diff_deps(per_event.deps, batched.deps);
  if (!diff.identical()) {
    std::fprintf(stderr, "FAIL: %s: batched kernel diverges:\n%s",
                 name.c_str(),
                 format_diff(diff, "per-event", "batched").c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t events = 4'000'000;
  // Uniform-stream sizing: 16M distinct words against 8M slots of 16-byte
  // SeqSlots (128 MiB per signature) busts even a large server LLC, so its
  // slot probes are genuine memory-latency stalls.
  std::size_t working_set = std::size_t{1} << 24;  // words
  std::size_t slots = std::size_t{1} << 23;
  std::size_t hist_words = kHistWords;
  int reps = 3;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--events" && i + 1 < argc)
      events = static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (arg == "--working-set" && i + 1 < argc)
      working_set = static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (arg == "--slots" && i + 1 < argc)
      slots = static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (arg == "--hist-words" && i + 1 < argc)
      hist_words = static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (arg == "--reps" && i + 1 < argc)
      reps = std::atoi(argv[++i]);
    else if (arg == "--smoke")
      smoke = true;
  }
  if (smoke) {
    events = 240'000;
    working_set = std::size_t{1} << 19;
    slots = std::size_t{1} << 18;
    hist_words = std::size_t{1} << 16;
    reps = 2;
  }

  const std::vector<AccessEvent> loop_stream =
      make_loop_stream(events, hist_words);
  const std::vector<AccessEvent> uniform_stream =
      make_uniform_stream(events / 2, working_set);

  TextTable table("Detect hot path — batched kernel vs per-event reference, "
                  "detect-stage events/sec (" +
                  std::to_string(events) + " loop-phase events)");
  table.set_header({"backend", "per-event ev/s", "batched ev/s", "ratio"});
  obs::BenchReport report("hotpath");
  report.metric("events", static_cast<double>(events));
  report.metric("phase_iters", static_cast<double>(kPhaseIters));
  report.metric("hist_words", static_cast<double>(hist_words));
  report.metric("working_set_words", static_cast<double>(working_set));

  bool ok = true;
  // The three live stores plus the Sec. III-B baselines, each built
  // directly over its store type.
  auto run_backend = [&]<typename Store>(const std::string& name) {
    ProfilerConfig cfg;
    cfg.slots = slots;

    KernelRun per_event, batched;
    if (!measure<Store>(name, cfg, loop_stream, reps, per_event, batched)) {
      ok = false;
      return;
    }

    const double ratio = batched.best_eps / per_event.best_eps;
    table.add_row({name, TextTable::num(per_event.best_eps),
                   TextTable::num(batched.best_eps), TextTable::num(ratio)});
    report.metric(name + "_perevent_eps", per_event.best_eps);
    report.metric(name + "_batched_eps", batched.best_eps);
    report.metric(name + "_ratio", ratio);
    report.metric(name + "_batched_e2e_eps", batched.best_e2e_eps);
    report.stages(name + "/batched", batched.stages);

    // Smoke gate: batched must not regress beyond noise.  The margin is
    // generous because CI hosts are single-core and noisy; the committed
    // full-size run is where the >=1.3x signature-backend win is asserted.
    if (smoke && ratio < 0.7) {
      std::fprintf(stderr, "FAIL: %s: batched kernel %.2fx per-event "
                   "(below the 0.7 noise floor)\n", name.c_str(), ratio);
      ok = false;
    }
  };
  run_backend.operator()<Signature<SeqSlot>>("signature");
  run_backend.operator()<PerfectSignature<SeqSlot>>("perfect");
  run_backend.operator()<ShadowMemory<SeqSlot>>("shadow");
  run_backend.operator()<HashTableRecorder<SeqSlot>>("hashtable");
  run_backend.operator()<PackedShadowStore<SeqSlot>>("packed");

  // Adversarial secondary (signature backend only): random locations defeat
  // record aggregation, so this reports the batched kernel's bounded
  // worst-case overhead rather than a win.
  {
    ProfilerConfig cfg;
    cfg.slots = slots;
    KernelRun per_event, batched;
    if (!measure<Signature<SeqSlot>>("signature (uniform)", cfg,
                                     uniform_stream, reps, per_event,
                                     batched)) {
      ok = false;
    } else {
      const double ratio = batched.best_eps / per_event.best_eps;
      table.add_row({"signature (uniform)", TextTable::num(per_event.best_eps),
                     TextTable::num(batched.best_eps), TextTable::num(ratio)});
      report.metric("signature_uniform_perevent_eps", per_event.best_eps);
      report.metric("signature_uniform_batched_eps", batched.best_eps);
      report.metric("signature_uniform_ratio", ratio);
      report.metric("signature_uniform_batched_e2e_eps", batched.best_e2e_eps);
      if (smoke && ratio < 0.7) {
        std::fprintf(stderr, "FAIL: signature (uniform): batched kernel "
                     "%.2fx per-event (below the 0.7 noise floor)\n", ratio);
        ok = false;
      }
    }
  }

  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nCSV:\n%s", table.csv().c_str());
  report.write();
  return ok ? 0 : 1;
}
