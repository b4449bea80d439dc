// End-to-end profiling benchmark.
//
// Runs one named workload — a fixed list of bundled programs — through the
// profiler's public entry points as repeated passes.  A pass is one
// profiling session per program, plus interleaved native (detached) runs of
// the same programs.  Every layer is timed from outside, around the calls
// into it; the counters the profiler already publishes (ProfilerStats,
// MemStats, Runtime::control_flow(), getrusage) are read as they are.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--smoke]
//   perfbench --describe
//
// With --trace 0 the end-to-end metrics are printed; with --trace 1 the
// per-layer metrics, computed from spans recorded around each layer call
// (written as Chrome trace-event JSON to --trace-out).  The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.
// --smoke runs every program at scale 1 (structural checks only).
// perfbench/NOTES.md defines every metric and lists known defects.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/loop_parallelism.hpp"
#include "analysis/report.hpp"
#include "common/location.hpp"
#include "common/mem_stats.hpp"
#include "common/rng.hpp"
#include "core/profiler.hpp"
#include "framework/program_model.hpp"
#include "instrument/runtime.hpp"
#include "mt/race_report.hpp"
#include "oracle/diff.hpp"
#include "oracle/exact_oracle.hpp"
#include "oracle/harness.hpp"
#include "trace/trace.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace depprof;

// --- workloads --------------------------------------------------------------

struct Program {
  const char* name;
  int scale;
};

struct Spec {
  const char* name;
  /// One line: programs, scales, threads, store, and why the workload exists.
  /// BENCHMARK.json carries the same string (the smoke test compares them).
  const char* why;
  std::vector<Program> programs;
  bool pipeline;            ///< Fig. 2 pipeline instead of the serial profiler
  unsigned target_threads;  ///< 0 = sequential kernel (Workload::run)
  unsigned workers;         ///< detect workers (1 for the serial profiler)
  StorageKind storage;
  bool races;
};

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = {
      {"seq-serial",
       "cg x2, is x3, ft x2 under the serial profiler (1 thread), signature "
       "1Mi slots, dedup on: instrumentation + Algorithm 1 only; dedup hits "
       "~0%, so its cost shows",
       {{"cg", 2}, {"is", 3}, {"ft", 2}},
       false, 0, 1, StorageKind::kSignature, false},
      {"seq-pipeline",
       "cg x2, kmeans x2, ray-rot x4 under the Fig. 2 pipeline, 2 workers + "
       "producer, signature 1Mi slots/worker, dedup on: produce/route/queue/"
       "wire/detect and pipeline set-up",
       {{"cg", 2}, {"kmeans", 2}, {"ray-rot", 4}},
       true, 0, 2, StorageKind::kSignature, false},
      {"mt-races",
       "pthread water-spatial x32, kmeans x4, taskgraph-racy x8; 2 target "
       "threads + 1 worker, races mode, packed exact store: MT timestamps, "
       "lock regions, race report",
       {{"water-spatial", 32}, {"kmeans", 4}, {"taskgraph-racy", 8}},
       true, 2, 1, StorageKind::kPacked, true},
  };
  return all;
}

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : specs())
    if (name == s.name) return &s;
  return nullptr;
}

ProfilerConfig config_of(const Spec& spec) {
  ProfilerConfig cfg;
  cfg.storage = spec.storage;
  cfg.slots = 1u << 20;
  cfg.workers = spec.workers;
  cfg.mt_targets = spec.target_threads > 0;
  cfg.races = spec.races;
  cfg.dedup = true;
  return cfg;
}

/// Threads doing work at once: the target's threads plus the detect workers
/// of the pipeline (the serial profiler runs on the target's thread).
unsigned planned_threads(const Spec& spec) {
  const unsigned target = std::max(1u, spec.target_threads);
  return target + (spec.pipeline ? spec.workers : 0);
}

// --- clocks and spans -------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double sec(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Resident set size of the process right now (/proc/self/statm), or 0.
std::int64_t current_rss_bytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<std::int64_t>(resident) * sysconf(_SC_PAGESIZE)
                : 0;
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// One timed interval around a layer call.  Spans of one session share an
/// id; `parent` indexes the enclosing span (-1 for a root).
struct Span {
  const char* name;
  const char* program;
  std::uint64_t id;
  int parent;
  std::int64_t start;
  std::int64_t end;
};

/// In-memory span log, written out once as Chrome trace-event JSON.
class Tracer {
 public:
  bool on = false;

  int add(const char* name, const char* program, std::uint64_t id, int parent,
          std::int64_t start, std::int64_t end) {
    spans_.push_back({name, program, id, parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Duration and self time (duration minus child spans) summed per name.
  std::map<std::string, std::pair<double, double>> totals() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    std::map<std::string, std::pair<double, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int64_t dur = spans_[i].end - spans_[i].start;
      auto& t = out[spans_[i].name];
      t.first += sec(dur);
      t.second += sec(dur - child[i]);
    }
    return out;
  }

  bool write_chrome(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start;
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"program\":\"%s\","
                   "\"id\":%llu,\"parent\":%d}}",
                   i ? "," : "", s.name, (s.start - base) * 1e-3,
                   (s.end - s.start) * 1e-3, s.program,
                   static_cast<unsigned long long>(s.id), s.parent);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// --- sinks and sessions -----------------------------------------------------

/// Thread-safe sink that only counts what the instrumentation delivers: the
/// "null profiler" isolating the instrumentation layer's own cost.
class CountingSink final : public AccessSink {
 public:
  void on_access(const AccessEvent&) override {
    events.fetch_add(1, std::memory_order_relaxed);
    records.fetch_add(1, std::memory_order_relaxed);
  }
  void on_batch(const AccessEvent*, std::size_t count) override {
    events.fetch_add(count, std::memory_order_relaxed);
    records.fetch_add(count, std::memory_order_relaxed);
  }
  void on_batch_rle(const AccessEvent*, const std::uint32_t* reps,
                    std::size_t count) override {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < count; ++i) n += reps[i];
    events.fetch_add(n, std::memory_order_relaxed);
    records.fetch_add(count, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> events{0};
  std::atomic<std::uint64_t> records{0};
};

constexpr unsigned kComponents = static_cast<unsigned>(MemComponent::kCount);

/// Phases of a profiling session, each timed around its layer call only.
enum Phase { kSetup, kRun, kFinish, kAnalysis, kTeardown, kPhases };
constexpr const char* kPhaseNames[kPhases] = {"setup", "run", "finish",
                                              "analysis", "teardown"};

/// One profiling session: construction through destruction of a profiler.
/// The benchmark's own bookkeeping between the phases (fault counters,
/// output checks, stats copies) is inside `wall` but outside every phase —
/// the ledger's unattributed remainder.
struct Session {
  std::size_t program = 0;
  int pass = 0;
  const char* failure = nullptr;  ///< first failed output check, if any
  std::int64_t start = 0, end = 0;
  std::int64_t phase[kPhases][2] = {};
  std::int64_t race[2] = {};
  long setup_minflt = 0;
  long run_minflt = 0;
  ProfilerStats stats;
  std::int64_t peak_bytes = 0;
  std::int64_t rss_bytes = 0;  ///< process RSS when the run phase ends
  std::int64_t component_peak[kComponents] = {};
  std::uint64_t loop_entries = 0;
  std::uint64_t confirmed = 0, unconfirmed = 0, suppressed = 0;
  std::uint64_t injected = 0, injected_found = 0;

  bool ok() const { return failure == nullptr; }
  double wall() const { return sec(end - start); }
  double setup() const { return sec(phase[kSetup][1] - phase[kSetup][0]); }
};

/// Per-program results of the once-per-run replay checks.
struct ReplayResult {
  bool ok = true;
  std::string detail;
  std::uint64_t events = 0;
  std::size_t divergent_keys = 0;
  std::vector<double> serial_s;
  std::vector<double> parallel_s;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First quartile, interpolated between the two nearest samples.
double lower_quartile(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = 0.25 * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v[i];
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

/// The highest percentile with at least ten samples beyond it (the maximum
/// when there are fewer than eleven samples).
struct Tail {
  double value = 0.0;
  double pct = 100.0;
  std::size_t samples = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t i = v.size() > 10 ? v.size() - 11 : v.size() - 1;
  t.value = v[i];
  t.pct = 100.0 * static_cast<double>(i + 1) / static_cast<double>(v.size());
  return t;
}

double mib(std::int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

class Bench {
 public:
  Bench(const Spec& spec, std::uint64_t seed, bool smoke)
      : spec_(spec), cfg_(config_of(spec)), seed_(seed) {
    for (const Program& p : spec.programs) {
      const Workload* w = find_workload(p.name);
      if (w == nullptr || (spec.target_threads > 0 && !w->run_parallel)) {
        std::fprintf(stderr, "perfbench: program '%s' unavailable\n", p.name);
        std::exit(2);
      }
      programs_.push_back(w);
      scales_.push_back(smoke ? 1 : p.scale);
    }
    reference_.resize(programs_.size());
    native_s_.resize(programs_.size());
  }

  Tracer tracer;

  /// Warm-up pass (discarded), then timed passes until `seconds` elapse.
  /// In trace mode every other pass records spans and null-sink runs join
  /// each pass; the untraced passes there give the tracing overhead.
  void run_passes(double seconds) {
    Runtime::instance().reset();
    for (std::size_t i = 0; i < programs_.size(); ++i)
      reference_[i] = invoke(i);
    run_pass(-1, false);
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    int pass = 0;
    while (pass < kMinPasses || now_ns() < deadline) {
      const bool traced = tracer.on && pass % 2 == 0;
      run_pass(pass, traced);
      traced_passes_ += traced ? 1 : 0;
      ++pass;
    }
    passes_ = pass;
    max_rss_bytes_ = MemStats::process_max_rss();
  }

  /// Once per program, outside the timed sessions: record the stream, run
  /// the exact oracle over it, replay it into the serial and the parallel
  /// profiler, and hold each replayed map to the oracle contract.
  void run_checks(int reps) {
    for (std::size_t i = 0; i < programs_.size(); ++i) {
      replays_.push_back(check_program(i, reps));
      const ReplayResult& r = replays_.back();
      if (!r.ok)
        std::fprintf(stderr, "perfbench: replay check failed for %s: %s\n",
                     programs_[i]->name.c_str(), r.detail.c_str());
    }
  }

  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer() const;

  std::size_t attempted() const { return sessions_.size(); }
  std::size_t failed() const {
    std::size_t n = 0;
    for (const Session& s : sessions_)
      n += (!s.ok() || !replays_.at(s.program).ok) ? 1 : 0;
    return n;
  }
  bool correct() const {
    return failed() == 0 && native_mismatches_ == 0 && race_recall() == 1.0;
  }
  std::uint64_t native_mismatches() const { return native_mismatches_; }

  double race_recall() const {
    std::uint64_t injected = 0, found = 0;
    for (const Session& s : sessions_) {
      injected += s.injected;
      found += s.injected_found;
    }
    return injected ? static_cast<double>(found) / static_cast<double>(injected)
                    : 1.0;
  }

 private:
  static constexpr int kMinPasses = 3;
  static constexpr int kNativeReps = 3;

  const char* name(std::size_t i) const { return programs_[i]->name.c_str(); }

  std::uint64_t invoke(std::size_t i) const {
    const Workload& w = *programs_[i];
    return spec_.target_threads > 0
               ? w.run_parallel(scales_[i], spec_.target_threads).checksum
               : w.run(scales_[i]).checksum;
  }

  /// Program order and native/profiled order of one pass, both from the seed.
  void run_pass(int pass, bool traced) {
    const std::uint64_t salt = static_cast<std::uint64_t>(pass + 1);
    Rng rng(seed_ * 0x9E3779B97F4A7C15ull + salt);
    std::vector<std::size_t> order(programs_.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    const bool native_first = ((seed_ + salt) & 1) == 0;
    for (std::size_t idx : order) {
      if (native_first) run_natives(idx, pass, traced);
      Session s = run_session(idx);
      s.pass = pass;
      if (!native_first) run_natives(idx, pass, traced);
      if (tracer.on) run_null(idx, pass, traced);
      if (pass < 0) continue;  // warm-up
      if (!s.ok())
        std::fprintf(stderr, "perfbench: %s session failed: %s\n", name(idx),
                     s.failure);
      if (traced) record_session_spans(s);
      (traced ? traced_ : untraced_).push_back(sessions_.size());
      sessions_.push_back(std::move(s));
    }
  }

  void run_natives(std::size_t idx, int pass, bool traced) {
    for (int r = 0; r < kNativeReps; ++r) {
      Runtime::instance().reset();
      const std::int64_t t0 = now_ns();
      const std::uint64_t checksum = invoke(idx);
      const std::int64_t t1 = now_ns();
      if (checksum != reference_[idx]) ++native_mismatches_;
      if (pass < 0) continue;
      native_s_[idx].push_back(sec(t1 - t0));
      if (traced) tracer.add("native", name(idx), next_id_++, -1, t0, t1);
    }
  }

  void run_null(std::size_t idx, int pass, bool traced) {
    Runtime& rt = Runtime::instance();
    CountingSink sink;
    rt.reset();
    const std::int64_t t0 = now_ns();
    rt.attach(&sink, cfg_.mt_targets, cfg_.dedup);
    (void)invoke(idx);
    rt.detach();
    const std::int64_t t1 = now_ns();
    if (pass < 0 || !traced) return;
    tracer.add("null_run", name(idx), next_id_++, -1, t0, t1);
    null_s_ += sec(t1 - t0);
    null_native_s_ += median(native_s_[idx]);
    null_events_ += sink.events.load();
    null_records_ += sink.records.load();
  }

  Session run_session(std::size_t idx) {
    const Workload& w = *programs_[idx];
    Runtime& rt = Runtime::instance();
    Session s;
    s.program = idx;
    rt.reset();
    MemStats::instance().reset();
    auto begin = [&](Phase p) { s.phase[p][0] = now_ns(); };
    auto end = [&](Phase p) { s.phase[p][1] = now_ns(); };

    const long f0 = minor_faults();
    s.start = now_ns();
    begin(kSetup);
    std::unique_ptr<IProfiler> profiler = spec_.pipeline
                                              ? make_parallel_profiler(cfg_)
                                              : make_serial_profiler(cfg_);
    rt.attach(profiler.get(), cfg_.mt_targets, cfg_.dedup);
    end(kSetup);
    const long f1 = minor_faults();
    begin(kRun);
    const std::uint64_t checksum = invoke(idx);
    end(kRun);
    s.setup_minflt = f1 - f0;
    s.run_minflt = minor_faults() - f1;
    s.rss_bytes = current_rss_bytes();
    if (checksum != reference_[idx]) s.failure = "checksum differs from native";
    begin(kFinish);
    rt.detach();
    end(kFinish);

    begin(kAnalysis);
    std::optional<ProgramModel> model = ProgramModel::from_run(*profiler);
    LoopAnalysisOptions opts;
    opts.reduction_lines = model->reduction_lines();
    std::optional<std::vector<LoopVerdict>> verdicts =
        analyze_loops(model->deps(), model->control_flow(), opts);
    std::optional<std::string> report =
        render_loop_report(*verdicts, model->control_flow());
    std::optional<RaceReport> races;
    if (spec_.races) {
      s.race[0] = now_ns();
      races = find_races(model->deps());
      s.race[1] = now_ns();
    }
    end(kAnalysis);

    if (races) grade_races(w, *races, s);
    s.stats = model->stats();
    for (const LoopRecord& l : model->control_flow().loops)
      s.loop_entries += l.entries;

    begin(kTeardown);
    profiler.reset();
    model.reset();
    verdicts.reset();
    report.reset();
    races.reset();
    end(kTeardown);
    s.end = now_ns();

    const MemStats& mem = MemStats::instance();
    s.peak_bytes = mem.peak();
    for (unsigned c = 0; c < kComponents; ++c)
      s.component_peak[c] = mem.peak(static_cast<MemComponent>(c));
    return s;
  }

  /// taskgraph-racy must confirm every injected race by variable name; the
  /// race-free programs must confirm none.
  static void grade_races(const Workload& w, const RaceReport& report,
                          Session& s) {
    std::set<std::string> confirmed;
    for (const RaceFinding& f : report.findings)
      if (f.confirmed) confirmed.insert(var_registry().name(f.dep.var));
    s.confirmed = report.confirmed_count();
    s.unconfirmed = report.unconfirmed;
    s.suppressed = report.suppressed_by_lock;
    s.injected = w.races.size();
    for (const char* name : w.races) s.injected_found += confirmed.count(name);
    if (w.races.empty() ? s.confirmed != 0 : s.injected_found != s.injected)
      s.failure = w.races.empty() ? "race-free program confirmed a race"
                                  : "injected race not confirmed";
  }

  void record_session_spans(const Session& s) {
    const std::uint64_t id = next_id_++;
    const char* program = name(s.program);
    const int root = tracer.add("session", program, id, -1, s.start, s.end);
    for (int p = 0; p < kPhases; ++p) {
      const int span = tracer.add(kPhaseNames[p], program, id, root,
                                  s.phase[p][0], s.phase[p][1]);
      if (p == kAnalysis && spec_.races)
        tracer.add("race_report", program, id, span, s.race[0], s.race[1]);
    }
  }

  /// The oracle contract on a replayed map: exact stores (and signatures
  /// that cannot collide on this trace) must equal the oracle; finite
  /// signatures must stay within the formula-2 divergence budget.
  static bool within_contract(const ProfilerConfig& cfg, const Trace& trace,
                              const DepMap& oracle, const DepMap& actual,
                              std::size_t* divergent, std::string* detail) {
    const DepDiff diff = diff_deps(oracle, actual);
    *divergent = diff.divergent_keys();
    if (classify_expectation(cfg, trace) == Expectation::kExact) {
      if (diff.identical()) return true;
      *detail = format_diff(diff, "oracle", "replay");
      return false;
    }
    const DivergenceBudget budget =
        divergence_budget(cfg, trace, oracle.size());
    if (diff.divergent_keys() <= budget.max_divergent_keys) return true;
    *detail = "divergent keys " + std::to_string(diff.divergent_keys()) +
              " over budget " + std::to_string(budget.max_divergent_keys);
    return false;
  }

  ReplayResult check_program(std::size_t idx, int reps) {
    ReplayResult r;
    Runtime& rt = Runtime::instance();
    const std::uint64_t id = next_id_++;
    Trace trace;
    {
      TraceRecorder recorder;
      rt.reset();
      const std::int64_t t0 = now_ns();
      rt.attach(&recorder, cfg_.mt_targets);
      const bool same = invoke(idx) == reference_[idx];
      rt.detach();
      if (tracer.on) tracer.add("record", name(idx), id, -1, t0, now_ns());
      trace = std::move(recorder.trace());
      if (!same) {
        r.ok = false;
        r.detail = "recorded run checksum differs from native";
      }
    }
    r.events = trace.size();
    std::int64_t t0 = now_ns();
    const DepMap oracle = oracle_dependences(trace, cfg_.mt_targets);
    if (tracer.on) tracer.add("oracle", name(idx), id, -1, t0, now_ns());

    ProfilerConfig pcfg = cfg_;
    pcfg.workers = std::max(1u, spec_.workers);
    for (int rep = 0; rep < reps; ++rep) {
      for (int side = 0; side < 2; ++side) {
        const ProfilerConfig& c = side == 0 ? cfg_ : pcfg;
        std::unique_ptr<IProfiler> p =
            side == 0 ? make_serial_profiler(c) : make_parallel_profiler(c);
        t0 = now_ns();
        replay(trace, *p);
        const std::int64_t t1 = now_ns();
        if (tracer.on)
          tracer.add(side == 0 ? "replay.serial" : "replay.parallel",
                     name(idx), id, -1, t0, t1);
        (side == 0 ? r.serial_s : r.parallel_s).push_back(sec(t1 - t0));
        if (rep > 0) continue;
        std::size_t divergent = 0;
        std::string detail;
        if (!within_contract(c, trace, oracle, p->dependences(), &divergent,
                             &detail)) {
          r.ok = false;
          r.detail += std::string(side == 0 ? "serial: " : "parallel: ") +
                      detail;
        }
        if (side == 0) r.divergent_keys = divergent;
      }
    }
    return r;
  }

  const Spec& spec_;
  const ProfilerConfig cfg_;
  const std::uint64_t seed_;
  std::vector<const Workload*> programs_;
  std::vector<int> scales_;
  std::vector<std::uint64_t> reference_;  ///< native checksum per program
  std::vector<std::vector<double>> native_s_;  ///< per program
  std::vector<Session> sessions_;
  std::vector<std::size_t> traced_, untraced_;  ///< indices into sessions_
  std::vector<ReplayResult> replays_;
  int passes_ = 0;
  int traced_passes_ = 0;
  std::int64_t max_rss_bytes_ = 0;
  std::uint64_t native_mismatches_ = 0;
  std::uint64_t next_id_ = 1;
  double null_s_ = 0.0, null_native_s_ = 0.0;
  std::uint64_t null_events_ = 0, null_records_ = 0;

  /// Per-pass values of `f` summed over the pass's sessions in `which`.
  template <typename F>
  std::vector<double> per_pass(const std::vector<std::size_t>& which,
                               F f) const {
    std::map<int, double> by_pass;
    for (std::size_t i : which) by_pass[sessions_[i].pass] += f(sessions_[i]);
    std::vector<double> out;
    for (const auto& [pass, v] : by_pass) out.push_back(v);
    return out;
  }

  /// Largest per-program floor (minimum over its sessions) of a per-session
  /// byte count, in MiB.  On the packed store a session's footprint also
  /// depends on how many 2 MiB leaves the target's data happens to straddle,
  /// which changes from session to session with the allocator's state; the
  /// floor is the footprint without that layout luck (NOTES.md).
  double largest_floor(std::int64_t Session::*bytes) const {
    double largest = 0.0;
    for (std::size_t p = 0; p < programs_.size(); ++p) {
      double floor = 0.0;
      bool first = true;
      for (const Session& s : sessions_)
        if (s.program == p) {
          floor = first ? mib(s.*bytes) : std::min(floor, mib(s.*bytes));
          first = false;
        }
      largest = std::max(largest, floor);
    }
    return largest;
  }

  std::vector<std::size_t> all_sessions() const {
    std::vector<std::size_t> all(sessions_.size());
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
};

std::vector<Metric> Bench::end_to_end() const {
  std::vector<Metric> m;
  const std::vector<std::size_t> all = all_sessions();
  // Lower quartiles, not medians: a busy host only ever adds time, and it
  // adds relatively more to the few-millisecond native runs than to the
  // sessions, so on a busy host the median ratio drops.  The lower quartile
  // of each keeps the runs the host left alone (NOTES.md, Noise).
  double log_sum = 0.0;
  for (std::size_t p = 0; p < programs_.size(); ++p) {
    std::vector<double> walls;
    for (const Session& s : sessions_)
      if (s.program == p) walls.push_back(s.wall());
    log_sum += std::log(lower_quartile(walls) / lower_quartile(native_s_[p]));
  }
  m.push_back({"slowdown", std::exp(log_sum / programs_.size()), "x",
               "geomean over programs of session / native, lower quartiles"});
  const std::vector<double> pass_setup =
      per_pass(all, [](const Session& s) { return s.setup(); });
  m.push_back({"setup_s", median(pass_setup), "s",
               "median per-pass construction + attach, " +
                   std::to_string(pass_setup.size()) + " passes"});
  m.push_back({"peak_mem_mb", largest_floor(&Session::peak_bytes), "MiB",
               "MemStats session peak, min per program, max over programs"});
  m.push_back({"rss_mb", largest_floor(&Session::rss_bytes), "MiB",
               "RSS at end of run phase, min per program, max over programs"});
  return m;
}

std::vector<Metric> Bench::per_layer() const {
  std::vector<Metric> m;
  const auto totals = tracer.totals();
  const double P = std::max(1, traced_passes_);
  auto span_mean = [&](const char* name, bool self = false) {
    const auto it = totals.find(name);
    if (it == totals.end()) return 0.0;
    return (self ? it->second.second : it->second.first) / P;
  };
  // Sum of `f` over traced sessions, per traced pass.
  auto mean = [&](auto f) {
    double sum = 0.0;
    for (std::size_t i : traced_) sum += f(sessions_[i]);
    return sum / P;
  };
  auto stage_sum = [](const Session& s, auto pred, auto field) {
    double v = 0.0;
    for (const auto& st : s.stats.stages.stages)
      if (pred(st.stage)) v += static_cast<double>(st.*field);
    return v;
  };
  auto is = [](const char* name) {
    return [name](const std::string& stage) { return stage == name; };
  };
  auto is_detect = [](const std::string& stage) {
    return stage.rfind("detect", 0) == 0;
  };
  auto any = [](const std::string&) { return true; };
  using SS = obs::StageSnapshot;

  // session wall time as a user waits for it, over every pass of the run
  // (unbounded: it moves with the host's speed, which `slowdown` cancels)
  const std::vector<double> walls =
      per_pass(all_sessions(), [](const Session& s) { return s.wall(); });
  m.push_back({"profile_s", median(walls), "s",
               "median per-pass session wall, " +
                   std::to_string(walls.size()) + " passes"});
  const Tail tail = tail_of(walls);
  char note[96];
  std::snprintf(note, sizeof note, "p%.1f of %zu passes (10+ beyond)",
                tail.pct, tail.samples);
  m.push_back({"profile_s_tail", tail.value, "s", note});

  // workloads + instrument (null-sink runs)
  double native = 0.0;
  for (const std::vector<double>& v : native_s_) native += median(v);
  m.push_back({"workloads.native_s", native, "s",
               "sum over programs of median native wall"});
  m.push_back({"instrument.null_run_s", null_s_ / P, "s",
               "counting-sink run, per pass"});
  m.push_back({"instrument.self_s", (null_s_ - null_native_s_) / P, "s",
               "null run - native, per pass"});
  m.push_back({"instrument.events", null_events_ / P, "count",
               "instances delivered, per pass"});
  m.push_back({"instrument.records", null_records_ / P, "count",
               "batch records (RLE runs), per pass"});
  m.push_back({"instrument.dedup_ratio",
               null_events_ ? 1.0 - static_cast<double>(null_records_) /
                                        static_cast<double>(null_events_)
                            : 0.0,
               "ratio", "instances elided by the dedup cache"});
  m.push_back({"trace.loop_entries",
               mean([](const Session& s) { return double(s.loop_entries); }),
               "count", "sum of LoopRecord::entries, per pass"});

  // core session ledger (span totals per traced pass)
  const double session = span_mean("session");
  m.push_back({"core.session_s", session, "s", "session span, per pass"});
  m.push_back({"core.setup_s", span_mean("setup"), "s", "construct + attach"});
  m.push_back({"core.run_s", span_mean("run"), "s", "instrumented run"});
  m.push_back({"core.finish_s", span_mean("finish"), "s",
               "detach: drain + join + merge"});
  m.push_back({"analysis.s", span_mean("analysis"), "s",
               "from_run + analyze_loops + render (+ race report)"});
  m.push_back({"core.teardown_s", span_mean("teardown"), "s",
               "profiler and model destruction"});
  m.push_back({"core.unattributed_s", span_mean("session", true), "s",
               "session wall not covered by a phase span"});
  m.push_back({"core.setup_minflt",
               mean([](const Session& s) { return double(s.setup_minflt); }),
               "count", "minor faults in setup, per pass"});
  m.push_back({"core.run_minflt",
               mean([](const Session& s) { return double(s.run_minflt); }),
               "count", "minor faults in run, per pass"});

  // sig + pipeline replays (once per program per run)
  double serial = 0.0, parallel = 0.0, events = 0.0, divergent = 0.0;
  for (const ReplayResult& r : replays_) {
    serial += median(r.serial_s);
    parallel += median(r.parallel_s);
    events += static_cast<double>(r.events);
    divergent += static_cast<double>(r.divergent_keys);
  }
  m.push_back({"sig.replay_s", serial, "s", "recorded pass into serial"});
  m.push_back({"sig.replay_events_per_s", serial > 0 ? events / serial : 0.0,
               "1/s", "replayed events per second, serial"});
  double sig_bytes = 0.0, pages = 0.0;
  for (std::size_t i : traced_) {
    const Session& s = sessions_[i];
    sig_bytes = std::max(sig_bytes, double(s.stats.signature_bytes));
    pages = std::max(pages, stage_sum(s, is_detect, &SS::resident_pages));
  }
  m.push_back({"sig.bytes", sig_bytes, "B", "aggregate signature footprint"});
  m.push_back({"sig.divergent_keys", divergent, "count",
               "serial replay vs ExactOracle, per pass"});
  m.push_back({"sig.resident_pages", pages, "count",
               "packed-store leaf pages, max session"});
  m.push_back({"pipeline.replay_s", parallel, "s",
               "recorded pass into the parallel profiler"});
  m.push_back({"pipeline.replay_speedup",
               parallel > 0 ? serial / parallel : 0.0, "x",
               "sig.replay_s / pipeline.replay_s"});

  auto stage_mean = [&](auto pred, auto field, double scale = 1.0) {
    return mean([&](const Session& s) {
      return stage_sum(s, pred, field) * scale;
    });
  };
  m.push_back({"produce.busy_s", stage_mean(is("produce"), &SS::busy_ns, 1e-9),
               "s", "as published (0 = not instrumented)"});
  m.push_back({"route.busy_s", stage_mean(is("route"), &SS::busy_ns, 1e-9),
               "s", "as published (0 = not instrumented)"});
  m.push_back({"detect.busy_max_s", mean([&](const Session& s) {
                 double mx = 0.0;
                 for (const auto& st : s.stats.stages.stages)
                   if (is_detect(st.stage)) mx = std::max(mx, st.busy_sec());
                 return mx;
               }),
               "s", "busiest worker, per pass"});
  m.push_back({"detect.busy_sum_s", stage_mean(is_detect, &SS::busy_ns, 1e-9),
               "s", "all workers, per pass"});
  m.push_back({"detect.idle_s", stage_mean(is_detect, &SS::idle_ns, 1e-9), "s",
               "workers waiting for input, per pass"});
  m.push_back({"detect.parked_s", stage_mean(is_detect, &SS::parked_ns, 1e-9),
               "s", "workers blocked in the OS, per pass"});
  double max_ev = 0.0, mean_ev = 0.0;
  for (std::size_t i : traced_) {
    const auto& ev = sessions_[i].stats.worker_events;
    if (ev.empty()) continue;
    max_ev += static_cast<double>(*std::max_element(ev.begin(), ev.end()));
    mean_ev += std::accumulate(ev.begin(), ev.end(), 0.0) / ev.size();
  }
  m.push_back({"detect.imbalance", mean_ev > 0 ? max_ev / mean_ev : 0.0,
               "ratio", "max / mean worker events"});
  m.push_back({"produce.block_s",
               stage_mean(is("produce"), &SS::block_ns, 1e-9), "s",
               "producer blocked on backpressure, per pass"});
  m.push_back({"queue.stalls", stage_mean(any, &SS::stalls), "count",
               "queue-full push retries, per pass"});
  double hwm = 0.0;
  for (std::size_t i : traced_)
    hwm = std::max(hwm, stage_sum(sessions_[i], any, &SS::queue_depth_hwm));
  m.push_back({"queue.depth_hwm", hwm, "count", "chunks queued, max session"});
  const double wire = stage_mean(is("produce"), &SS::bytes_on_wire);
  const double produced = stage_mean(is("produce"), &SS::events);
  const double deduped = stage_mean(is("produce"), &SS::events_deduped);
  const double escapes = stage_mean(is("produce"), &SS::pack_escapes);
  m.push_back({"wire.bytes_per_event", produced > 0 ? wire / produced : 0.0,
               "B/event", "queued payload per produced instance"});
  m.push_back({"wire.escape_ratio",
               produced > deduped ? escapes / (produced - deduped) : 0.0,
               "ratio", "escaped wire records / records produced"});
  m.push_back({"merge.s",
               mean([](const Session& s) { return s.stats.merge_sec; }), "s",
               "global merge, per pass"});
  m.push_back({"ledger.zero_busy_stages", mean([](const Session& s) {
                 double n = 0.0;
                 for (const auto& st : s.stats.stages.stages)
                   n += (st.events > 0 && st.busy_ns == 0) ? 1.0 : 0.0;
                 return n;
               }),
               "count", "stages with events but busy = 0, per pass"});

  // mt
  m.push_back({"mt.race_report_s", span_mean("race_report"), "s",
               "find_races, per pass"});
  m.push_back({"mt.confirmed",
               mean([](const Session& s) { return double(s.confirmed); }),
               "count", "confirmed race keys, per pass"});
  m.push_back({"mt.unconfirmed",
               mean([](const Session& s) { return double(s.unconfirmed); }),
               "count", "unconfirmed candidate keys, per pass"});
  m.push_back({"mt.lock_suppressed",
               mean([](const Session& s) { return double(s.suppressed); }),
               "count", "lock-protected candidate keys, per pass"});
  m.push_back({"mt.race_recall", race_recall(), "ratio",
               "injected races confirmed by name (1 when none injected)"});

  // memory
  auto comp = [&](MemComponent c) {
    double mx = 0.0;
    for (std::size_t i : traced_)
      mx = std::max(
          mx, mib(sessions_[i].component_peak[static_cast<unsigned>(c)]));
    return mx;
  };
  m.push_back({"mem.signatures_mb", comp(MemComponent::kSignatures), "MiB",
               "component peak, max session"});
  m.push_back({"mem.queues_mb", comp(MemComponent::kQueues), "MiB",
               "component peak, max session"});
  m.push_back({"mem.depmaps_mb", comp(MemComponent::kDepMaps), "MiB",
               "component peak, max session"});
  m.push_back({"mem.store_mb", comp(MemComponent::kStore), "MiB",
               "component peak, max session"});

  // benchmark bookkeeping
  auto pass_wall = [&](const std::vector<std::size_t>& which) {
    return median(per_pass(which, [](const Session& s) { return s.wall(); }));
  };
  m.push_back({"bench.trace_overhead",
               pass_wall(traced_) - pass_wall(untraced_), "s",
               "median traced - untraced pass wall"});
  m.push_back({"bench.failed_ratio",
               attempted() ? double(failed()) / double(attempted()) : 0.0,
               "ratio", "sessions whose output check failed"});
  m.push_back({"bench.passes", double(passes_), "count", "timed passes"});
  m.push_back({"bench.max_rss_mb", mib(max_rss_bytes_), "MiB",
               "getrusage max RSS over warm-up and timed passes"});
  m.push_back({"bench.threads", double(planned_threads(spec_)), "count",
               "target threads + detect workers"});
  return m;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-26s %16.9g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void describe() {
  std::printf("[");
  for (std::size_t i = 0; i < specs().size(); ++i) {
    const Spec& s = specs()[i];
    std::printf("%s\n{\"name\":\"%s\",\"why\":\"%s\",\"programs\":[",
                i ? "," : "", s.name, json_escape(s.why).c_str());
    for (std::size_t p = 0; p < s.programs.size(); ++p)
      std::printf("%s{\"name\":\"%s\",\"scale\":%d}", p ? "," : "",
                  s.programs[p].name, s.programs[p].scale);
    std::printf("],\"profiler\":\"%s\",\"target_threads\":%u,\"workers\":%u,"
                "\"threads\":%u,\"store\":\"%s\",\"races\":%s}",
                s.pipeline ? "parallel" : "serial", s.target_threads,
                s.workers, planned_threads(s), storage_kind_name(s.storage),
                s.races ? "true" : "false");
  }
  std::printf("\n]\n");
}

int usage() {
  std::fputs(
      "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
      "[--trace-out FILE] [--smoke]\n       perfbench --describe\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--describe") {
      describe();
      return 0;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (val == nullptr) {
      return usage();
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-out") {
      trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  const Spec* spec = find_spec(workload);
  if (spec == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    if (spec == nullptr)
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return usage();
  }

  Bench bench(*spec, seed, smoke);
  bench.tracer.on = trace == 1;
  bench.run_passes(seconds);
  bench.run_checks(trace == 1 ? 3 : 1);

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n", spec->name,
              static_cast<unsigned long long>(seed), seconds, trace,
              smoke ? " smoke" : "");
  std::printf("  %s\n", spec->why);
  const std::vector<Metric> metrics =
      trace == 1 ? bench.per_layer() : bench.end_to_end();
  print_metrics(metrics);
  std::printf("  sessions=%zu failed=%zu native_mismatches=%llu\n",
              bench.attempted(), bench.failed(),
              static_cast<unsigned long long>(bench.native_mismatches()));
  if (trace == 1 && !trace_out.empty() &&
      !bench.tracer.write_chrome(trace_out))
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());

  // A value that is not a finite number is a benchmark defect: it is written
  // as 0 to keep the line valid JSON, and the run is marked incorrect.
  bool finite = true;
  std::string values;
  for (const Metric& m : metrics) {
    char buf[32];
    finite = finite && std::isfinite(m.value);
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    values += (values.empty() ? "\"" : ", \"") + m.name +
              "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              bench.correct() && finite ? "true" : "false", bench.attempted(),
              bench.failed(), values.c_str());
  return 0;
}
