// Robustness-layer benchmarks: what the chaos machinery costs when it is
// NOT failing anything. Reported scalars (BenchReport JSON via
// $QP_BENCH_JSON):
//   fault_point_disarmed_ns — one disarmed QP_FAULT_POINT (the tax every
//                             production call path pays; a few ns)
//   fault_point_armed_other_ns — an armed hub evaluating a site with no
//                             rule (the chaos-run fast path)
//   breaker_recover_ms      — wall-clock from "disk healed" to the first
//                             acknowledged mutation (backoff + half-open
//                             probe + recovery checkpoint)
//   scrub_pass_ms           — one synchronous scrub pass over the
//                             populated store (committed snapshot + WAL
//                             re-verify + every profile's invariants);
//                             divide by the cadence for the duty cycle
//   scrub_off_records_per_s / scrub_on_records_per_s / scrub_tax_pct —
//                             steady-state mutation throughput with the
//                             background scrubber off vs on a 1s
//                             cadence (already ~100x more aggressive
//                             than an operational scrubber), compaction
//                             bounding the WAL as in production; the
//                             tax is the median over alternating window
//                             pairs and must stay under ~2%.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/storage/fault_injection.h"
#include "qp/util/fault_hub.h"

namespace qp {
namespace storage {
namespace {

bench::BenchReport& Report() {
  static auto* report = new bench::BenchReport("fault_recovery");
  return *report;
}

double NsPerCall(const char* site, size_t calls) {
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < calls; ++i) {
    benchmark::DoNotOptimize(FaultHub::Global()->Check(site));
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(calls);
}

/// The overhead every production call path pays for carrying a fault
/// site: disarmed (one relaxed atomic load) and armed-but-no-rule (the
/// per-site lookup a chaos run imposes on untargeted sites).
void BM_FaultPointOverhead(benchmark::State& state) {
  FaultHub::Global()->Reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FaultHub::Global()->Check("bench.site"));
  }
  state.SetItemsProcessed(state.iterations());

  constexpr size_t kCalls = 1 << 20;
  Report().AddScalar("fault_point_disarmed_ns",
                     NsPerCall("bench.site", kCalls));
  FaultRule rule;
  rule.fire_on_nth = 1;  // A rule on a DIFFERENT site.
  FaultHub::Global()->SetRule("bench.other", rule);
  FaultHub::Global()->Arm(1);
  Report().AddScalar("fault_point_armed_other_ns",
                     NsPerCall("bench.site", kCalls));
  FaultHub::Global()->Reset();
}
BENCHMARK(BM_FaultPointOverhead);

/// Time-to-recover: trip the breaker on a dead disk, heal the disk, and
/// measure the wall-clock until the store acknowledges a mutation again
/// — the backoff wait, the half-open probe's recovery checkpoint, and
/// the probe write itself.
void BM_BreakerTimeToRecover(benchmark::State& state) {
  Schema schema = MovieSchema();
  const UserProfile julie = JulieProfile();
  const UserProfile rob = RobProfile();
  double total_ms = 0.0;
  size_t recoveries = 0;
  for (auto _ : state) {
    state.PauseTiming();
    FaultInjectingFileSystem fs;
    StorageOptions options;
    options.dir = "db";
    options.fs = &fs;
    options.compact_threshold_bytes = 0;
    options.breaker_threshold = 2;
    options.breaker_backoff = std::chrono::milliseconds(1);
    auto store_or = DurableProfileStore::Open(&schema, options);
    if (!store_or.ok()) {
      state.SkipWithError("open failed");
      return;
    }
    auto store = std::move(store_or).value();
    if (!store->Put("julie", julie).ok()) {
      state.SkipWithError("seed put failed");
      return;
    }
    fs.SetSyncFailure(true);
    while (!store->storage_stats().breaker_open) {
      (void)store->Put("rob", rob);
    }
    state.ResumeTiming();

    fs.SetSyncFailure(false);  // The disk heals; the clock starts.
    auto start = std::chrono::steady_clock::now();
    while (!store->Put("rob", rob).ok()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    auto elapsed = std::chrono::steady_clock::now() - start;
    total_ms += std::chrono::duration<double, std::milli>(elapsed).count();
    ++recoveries;
    // The store's registry saw exactly this trip-and-heal cycle.
    const StorageStats stats = store->storage_stats();
    if (stats.breaker_trips < 1 || stats.breaker_recoveries != 1) {
      state.SkipWithError("breaker cycle missing from the store's counters");
      return;
    }
  }
  if (recoveries > 0) {
    state.counters["recover_ms"] = total_ms / static_cast<double>(recoveries);
    Report().AddScalar("breaker_recover_ms",
                       total_ms / static_cast<double>(recoveries));
  }
}
BENCHMARK(BM_BreakerTimeToRecover)->Iterations(5)->Unit(benchmark::kMillisecond);

/// Steady-state scrub tax: mutation throughput over a populated store
/// scrubbing every second — a cadence ~100x more aggressive than an
/// operational scrubber — against an identical store with the scrubber
/// off, both with compaction bounding the WAL exactly as in production
/// (an unbounded WAL would charge the scrubber for re-verifying an
/// ever-growing log no deployment ever has). The scrubber re-reads the
/// committed generation under the meta mutex only — mutators append
/// under stripe locks — so the tax is scrub CPU plus brief checkpoint
/// interference, not a stall.
///
/// Both stores live in one run and are timed in alternating short
/// windows (order swapped every pair), so host drift lands on both arms
/// of a pair alike and cancels out of its ratio; the median pair ratio
/// is the estimate, so a window disturbed by an outside burst perturbs
/// one sample, not the result.
void BM_ScrubSteadyStateOverhead(benchmark::State& state) {
  Schema schema = MovieSchema();
  const UserProfile julie = JulieProfile();
  FaultInjectingFileSystem fs;
  auto open = [&](const std::string& dir, bool scrub_on) {
    StorageOptions options;
    options.dir = dir;
    options.fs = &fs;
    if (scrub_on) options.scrub_interval = std::chrono::milliseconds(1000);
    std::unique_ptr<DurableProfileStore> store;
    auto store_or = DurableProfileStore::Open(&schema, options);
    if (!store_or.ok()) return store;
    store = std::move(store_or).value();
    for (int i = 0; i < 256; ++i) {
      if (!store->Put("user" + std::to_string(i), julie).ok()) return store;
    }
    return store;
  };
  std::unique_ptr<DurableProfileStore> off = open("off", false);
  std::unique_ptr<DurableProfileStore> on = open("on", true);
  if (off == nullptr || on == nullptr || off->size() != 256 ||
      on->size() != 256) {
    state.SkipWithError("store setup failed");
    return;
  }
  // Price one synchronous pass over the populated store while we have
  // it: snapshot + WAL re-verify + all 256 profiles' invariants.
  (void)off->Checkpoint();
  constexpr int kPasses = 8;
  auto scrub_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kPasses; ++i) (void)off->ScrubOnce();
  const double pass_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - scrub_start)
                             .count() /
                         kPasses;
  state.counters["scrub_pass_ms"] = pass_ms;
  Report().AddScalar("scrub_pass_ms", pass_ms);

  constexpr int kWindowPuts = 1024;  // ~10 ms per window.
  size_t ops = 0;
  auto window = [&](DurableProfileStore* store) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kWindowPuts; ++i, ++ops) {
      benchmark::DoNotOptimize(
          store->Put("user" + std::to_string(ops % 256), julie));
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  double off_seconds = 0.0, on_seconds = 0.0;
  std::vector<double> ratios;  // Scrub-on throughput over scrub-off.
  for (auto _ : state) {
    double off_s, on_s;
    if (ratios.size() % 2 == 0) {
      off_s = window(off.get());
      on_s = window(on.get());
    } else {
      on_s = window(on.get());
      off_s = window(off.get());
    }
    off_seconds += off_s;
    on_seconds += on_s;
    ratios.push_back(off_s / std::max(on_s, 1e-9));
  }
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  const double tax = 100.0 * (1.0 - ratios[ratios.size() / 2]);
  const double arm_puts = static_cast<double>(ops) / 2.0;
  state.SetItemsProcessed(static_cast<int64_t>(ops));
  state.counters["scrub_tax_pct"] = tax;
  Report().AddScalar("scrub_off_records_per_s",
                     arm_puts / std::max(off_seconds, 1e-9));
  Report().AddScalar("scrub_on_records_per_s",
                     arm_puts / std::max(on_seconds, 1e-9));
  Report().AddScalar("scrub_passes",
                     static_cast<double>(on->storage_stats().scrubs));
  Report().AddScalar("scrub_tax_pct", tax);
}
// 200 window pairs (~4 s of puts per arm) span several scrub cycles so
// the on-arm actually pays for passes; a fixed count wins over
// --benchmark_min_time.
BENCHMARK(BM_ScrubSteadyStateOverhead)
    ->Iterations(200)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace storage
}  // namespace qp

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return qp::storage::Report().Write() ? 0 : 1;
}
