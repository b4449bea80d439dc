// Storage ablation (Sec. III-B):
//   * time — "the hash table approach is about 1.5-3.7x slower than our
//     approach": identical access streams through Algorithm 1 backed by the
//     fixed-size signature, the chained hash table, the multi-level shadow
//     memory, and the perfect signature; google-benchmark measures ns/access.
//   * space — shadow memory's blow-up on sparse, widely spread address sets
//     vs the signature's fixed footprint.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "core/detector.hpp"
#include "core/serial_profiler.hpp"
#include "obs/bench_report.hpp"
#include "sig/hash_table_recorder.hpp"
#include "sig/packed_shadow_store.hpp"
#include "sig/perfect_signature.hpp"
#include "sig/shadow_memory.hpp"
#include "sig/signature.hpp"
#include "trace/generators.hpp"
#include "trace/trace.hpp"

using namespace depprof;

namespace {

Trace shared_trace() {
  GenParams p;
  p.accesses = 200'000;
  p.distinct = 40'000;
  p.write_ratio = 0.35;
  return gen_uniform(p);
}

/// Steady-state per-access cost: structures are built and warmed once (the
/// paper's comparison concerns the instrumentation fast path over billions
/// of accesses, not one-time construction).
template <typename Store>
void run_detector(benchmark::State& state, Store make_read(), Store make_write()) {
  const Trace t = shared_trace();
  DetectorCore<Store> det(make_read(), make_write());
  DepMap deps;
  for (const auto& ev : t.events) det.process(ev, deps);  // warm-up pass
  for (auto _ : state) {
    for (const auto& ev : t.events) det.process(ev, deps);
    benchmark::DoNotOptimize(deps.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.events.size()));
}

void BM_Signature(benchmark::State& state) {
  run_detector<Signature<SeqSlot>>(
      state, +[] { return Signature<SeqSlot>(1u << 18); },
      +[] { return Signature<SeqSlot>(1u << 18); });
}
BENCHMARK(BM_Signature);

void BM_HashTable(benchmark::State& state) {
  run_detector<HashTableRecorder<SeqSlot>>(
      state, +[] { return HashTableRecorder<SeqSlot>(1u << 14); },
      +[] { return HashTableRecorder<SeqSlot>(1u << 14); });
}
BENCHMARK(BM_HashTable);

void BM_ShadowMemory(benchmark::State& state) {
  run_detector<ShadowMemory<SeqSlot>>(
      state, +[] { return ShadowMemory<SeqSlot>(); },
      +[] { return ShadowMemory<SeqSlot>(); });
}
BENCHMARK(BM_ShadowMemory);

void BM_PerfectSignature(benchmark::State& state) {
  run_detector<PerfectSignature<SeqSlot>>(
      state, +[] { return PerfectSignature<SeqSlot>(); },
      +[] { return PerfectSignature<SeqSlot>(); });
}
BENCHMARK(BM_PerfectSignature);

void BM_PackedShadowStore(benchmark::State& state) {
  run_detector<PackedShadowStore<SeqSlot>>(
      state, +[] { return PackedShadowStore<SeqSlot>(); },
      +[] { return PackedShadowStore<SeqSlot>(); });
}
BENCHMARK(BM_PackedShadowStore);

/// Space comparison on a sparse, widely spread address set: the shadow
/// memory allocates a page per touched region while the signature stays
/// fixed.
void space_comparison() {
  // One shadow page covers 2^16 word units; with addresses one page apart,
  // every address costs a full page (65536 slots for 1 resident) while the
  // signature stays at its fixed footprint.  256 addresses already cost the
  // shadow memory ~0.7 GiB — the Sec. III-B ">16 GB on small programs"
  // effect, scaled to stay allocatable here.
  constexpr std::size_t kAddrs = 256;
  constexpr std::uint64_t kSpread =
      ShadowMemory<SeqSlot>::kPageSlots * 4;  // bytes: one page per address

  Signature<SeqSlot> sig(1u << 18);
  ShadowMemory<SeqSlot> shadow;
  HashTableRecorder<SeqSlot> table(1u << 14);
  PackedShadowStore<SeqSlot> packed;
  SeqSlot s;
  s.loc = SourceLocation(1, 1).packed();
  for (std::size_t i = 0; i < kAddrs; ++i) {
    const std::uint64_t addr = 0x10000 + i * kSpread;
    sig.insert(addr, s);
    shadow.insert(addr, s);
    table.insert(addr, s);
    packed.insert(addr, s);
  }
  std::printf("\nSpace on %zu sparse addresses (spread %llu B apart):\n", kAddrs,
              static_cast<unsigned long long>(kSpread));
  std::printf("  signature     : %10.2f MiB (fixed)\n",
              static_cast<double>(sig.bytes()) / 1048576.0);
  std::printf("  shadow memory : %10.2f MiB (%zu pages)\n",
              static_cast<double>(shadow.bytes()) / 1048576.0,
              shadow.page_count());
  std::printf("  hash table    : %10.2f MiB\n",
              static_cast<double>(table.bytes()) / 1048576.0);
  std::printf("  packed paged  : %10.2f MiB (%zu x 2 MiB pages; 8 B/word "
              "amortizes only on dense sets)\n",
              static_cast<double>(packed.bytes()) / 1048576.0,
              packed.page_count());
  std::printf(
      "\nPaper reference: signatures bound memory where shadow memory can "
      "exceed 16 GB on small programs; hash tables are exact but 1.5-3.7x "
      "slower per access.\n");
}

/// One backend's steady-state detector for the machine report: built and
/// warmed once (the run_detector discipline), then timed one pass at a time.
template <typename Store>
class TimedDetector {
 public:
  TimedDetector(const Trace& t, Store read, Store write)
      : t_(&t), det_(std::move(read), std::move(write)) {
    for (const auto& ev : t.events) det_.process(ev, deps_);  // warm-up pass
  }
  /// ns/access of one more pass over the trace.
  double sample() {
    const std::uint64_t t0 = WallTimer::now();
    for (const auto& ev : t_->events) det_.process(ev, deps_);
    const std::uint64_t t1 = WallTimer::now();
    benchmark::DoNotOptimize(deps_.size());
    return static_cast<double>(t1 - t0) /
           static_cast<double>(t_->events.size());
  }

 private:
  const Trace* t_;
  DetectorCore<Store> det_;
  DepMap deps_;
};

/// Linear-interpolated quantile q of `v` (sorted in place).
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Median and interquartile range of a sample set.
struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};
Spread spread(std::vector<double> v) {
  const double q1 = quantile(v, 0.25);
  const double q3 = quantile(v, 0.75);
  return {quantile(v, 0.5), q3 - q1};
}

/// Stage counters of one serial-profiler replay over store type `Store`.
template <typename Store>
obs::PipelineSnapshot replay_stages(const Trace& t) {
  ProfilerConfig cfg;
  cfg.slots = 1u << 18;
  auto prof = make_serial_profiler_over<Store>(cfg);
  replay(t, *prof);
  return prof->stats().stages;
}

void machine_report() {
  obs::BenchReport report("ablation_storage");
  const Trace t = shared_trace();

  // Repeated, interleaved samples: each round times one pass of every
  // backend, so host drift lands on all of them alike, and the ratios are
  // taken per round (paired) before their median.
  TimedDetector<Signature<SeqSlot>> sig(t, Signature<SeqSlot>(1u << 18),
                                        Signature<SeqSlot>(1u << 18));
  TimedDetector<HashTableRecorder<SeqSlot>> table(
      t, HashTableRecorder<SeqSlot>(1u << 14),
      HashTableRecorder<SeqSlot>(1u << 14));
  TimedDetector<ShadowMemory<SeqSlot>> shadow(t, ShadowMemory<SeqSlot>(),
                                              ShadowMemory<SeqSlot>());
  TimedDetector<PerfectSignature<SeqSlot>> perfect(
      t, PerfectSignature<SeqSlot>(), PerfectSignature<SeqSlot>());
  TimedDetector<PackedShadowStore<SeqSlot>> packed(
      t, PackedShadowStore<SeqSlot>(), PackedShadowStore<SeqSlot>());
  constexpr int kSamples = 15;
  std::vector<double> sig_ns, table_ns, shadow_ns, perfect_ns, packed_ns;
  std::vector<double> table_over_sig, table_over_packed;
  for (int i = 0; i < kSamples; ++i) {
    sig_ns.push_back(sig.sample());
    table_ns.push_back(table.sample());
    shadow_ns.push_back(shadow.sample());
    perfect_ns.push_back(perfect.sample());
    packed_ns.push_back(packed.sample());
    table_over_sig.push_back(table_ns.back() / sig_ns.back());
    table_over_packed.push_back(table_ns.back() / packed_ns.back());
  }
  report.metric("samples", kSamples);
  const auto put = [&](const std::string& name, std::vector<double>& v) {
    const Spread sp = spread(v);
    report.metric(name, sp.median);
    report.metric(name + "_iqr", sp.iqr);
    return sp;
  };
  put("signature_ns_per_access", sig_ns);
  put("hashtable_ns_per_access", table_ns);
  put("shadow_ns_per_access", shadow_ns);
  put("perfect_ns_per_access", perfect_ns);
  put("packed_ns_per_access", packed_ns);
  const Spread ratio = put("hashtable_over_signature", table_over_sig);
  put("hashtable_over_packed", table_over_packed);
  std::printf("\nSteady-state hash-table/signature per-access ratio: %.2fx "
              "(median of %d paired samples, IQR %.2f; paper band "
              "1.5-3.7x)\n",
              ratio.median, kSamples, ratio.iqr);

  report.stages("serial_signature", replay_stages<Signature<SeqSlot>>(t));
  report.stages("serial_hashtable",
                replay_stages<HashTableRecorder<SeqSlot>>(t));
  report.stages("serial_shadow", replay_stages<ShadowMemory<SeqSlot>>(t));
  report.stages("serial_perfect",
                replay_stages<PerfectSignature<SeqSlot>>(t));
  report.stages("serial_packed", replay_stages<PackedShadowStore<SeqSlot>>(t));
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  space_comparison();
  machine_report();
  return 0;
}
