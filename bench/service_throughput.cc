// Service-layer throughput: batch personalization QPS as a function of
// worker count, on a generated movie database with randomized profiles
// and workload queries. Reported counters:
//   qps        — personalization requests completed per second
//   speedup_x  — QPS relative to the measured 1-worker baseline
//   hw_threads — std::thread::hardware_concurrency() (scaling past it is
//                not physically possible; on a 1-core container every
//                worker count collapses to ~1x)
// Run with --benchmark_counters_tabular=true for a readable table.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "qp/data/movie_db.h"
#include "qp/data/workload.h"
#include "qp/obs/slo.h"
#include "qp/obs/trace.h"
#include "qp/pref/profile_generator.h"
#include "qp/service/service.h"
#include "qp/util/random.h"

namespace qp {
namespace {

bench::BenchReport& Report() {
  static auto* report = new bench::BenchReport("service_throughput");
  return *report;
}

constexpr size_t kUsers = 16;
constexpr size_t kQueries = 8;

const Database& SharedDb() {
  static Database* db = [] {
    MovieDbConfig config;
    config.num_movies = 2000;
    config.num_actors = 800;
    config.num_directors = 150;
    config.num_theatres = 20;
    auto generated = GenerateMovieDatabase(config);
    return new Database(std::move(generated).value());
  }();
  return *db;
}

std::vector<UserProfile> SharedProfiles() {
  static std::vector<UserProfile>* profiles = [] {
    auto pools = MovieCandidatePools(SharedDb());
    ProfileGenerator generator(&SharedDb().schema(),
                               std::move(pools).value());
    Rng rng(7);
    ProfileGeneratorOptions options;
    options.num_selections = 40;
    auto* result = new std::vector<UserProfile>;
    for (size_t u = 0; u < kUsers; ++u) {
      result->push_back(generator.Generate(options, &rng).value());
    }
    return result;
  }();
  return *profiles;
}

std::vector<PersonalizationRequest> SharedRequests() {
  static std::vector<PersonalizationRequest>* requests = [] {
    WorkloadGenerator workload(&SharedDb(), 31);
    auto queries = workload.RandomQueries(kQueries).value();
    auto* result = new std::vector<PersonalizationRequest>;
    for (size_t u = 0; u < kUsers; ++u) {
      for (const SelectQuery& query : queries) {
        PersonalizationRequest request;
        request.user_id = "user" + std::to_string(u);
        request.query = query;
        request.options.criterion = InterestCriterion::TopCount(4);
        result->push_back(std::move(request));
      }
    }
    return result;
  }();
  return *requests;
}

std::unique_ptr<PersonalizationService> MakeService(size_t workers,
                                                    bool enable_cache) {
  ServiceOptions options;
  options.num_workers = workers;
  options.cache_capacity = enable_cache ? 4096 : 0;
  auto service =
      std::make_unique<PersonalizationService>(&SharedDb(), options);
  for (size_t u = 0; u < kUsers; ++u) {
    auto status =
        service->profiles().Put("user" + std::to_string(u),
                                SharedProfiles()[u]);
    if (!status.ok()) return nullptr;
  }
  return service;
}

/// Wall-clock QPS over `reps` batches, measured outside the benchmark
/// state so it can also produce the 1-worker baseline.
double MeasureQps(PersonalizationService& service, int reps) {
  const auto& requests = SharedRequests();
  size_t completed = 0;
  auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    completed += service.PersonalizeBatchAndWait(requests).size();
  }
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return seconds > 0 ? static_cast<double>(completed) / seconds : 0;
}

/// One measured 1-worker QPS per cache mode, so speedup_x for every
/// worker count is relative to the same serial baseline.
double BaselineQps(bool enable_cache) {
  static double with_cache = 0;
  static double without_cache = 0;
  double& slot = enable_cache ? with_cache : without_cache;
  if (slot == 0) {
    auto service = MakeService(1, enable_cache);
    if (service != nullptr) {
      MeasureQps(*service, 1);  // Warm up indexes and allocator.
      slot = MeasureQps(*service, 3);
    }
  }
  return slot;
}

void BM_PersonalizeBatch(benchmark::State& state) {
  size_t workers = static_cast<size_t>(state.range(0));
  bool enable_cache = state.range(1) != 0;
  double baseline = BaselineQps(enable_cache);
  auto service = MakeService(workers, enable_cache);
  if (service == nullptr) {
    state.SkipWithError("profile setup failed");
    return;
  }
  const auto& requests = SharedRequests();
  size_t completed = 0;
  double seconds = 0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    completed += service->PersonalizeBatchAndWait(requests).size();
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  }
  double qps =
      seconds > 0 ? static_cast<double>(completed) / seconds : 0;
  state.counters["qps"] = qps;
  state.counters["speedup_x"] = baseline > 0 ? qps / baseline : 1.0;
  state.counters["hw_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());

  std::string label = "w" + std::to_string(workers) +
                      (enable_cache ? "_cache" : "_nocache");
  Report().AddScalar("qps/" + label, qps);
  Report().AddScalar("speedup_x/" + label,
                     baseline > 0 ? qps / baseline : 1.0);
  // Per-phase latency percentiles from the service's own registry — the
  // perf-trajectory numbers tests/ci.sh snapshots across PRs.
  obs::MetricsRegistry* metrics = service->metrics();
  Report().AddHistogram("qp_service_request_seconds/" + label,
                        metrics->histogram("qp_service_request_seconds")
                            ->Snapshot());
  Report().AddHistogram("qp_service_selection_seconds/" + label,
                        metrics->histogram("qp_service_selection_seconds")
                            ->Snapshot());
  Report().AddHistogram("qp_service_execution_seconds/" + label,
                        metrics->histogram("qp_service_execution_seconds")
                            ->Snapshot());
}
BENCHMARK(BM_PersonalizeBatch)
    ->ArgNames({"workers", "cache"})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// The tracing tax with a sink that discards everything: each iteration
/// runs the same batch twice, tracing detached then attached to a
/// NullTraceSink (spans are recorded and the trace is built, then
/// dropped). overhead_pct is the relative wall-time increase — the
/// acceptance bar is < 2%.
void BM_TraceNullSinkOverhead(benchmark::State& state) {
  auto service = MakeService(2, /*enable_cache=*/true);
  if (service == nullptr) {
    state.SkipWithError("profile setup failed");
    return;
  }
  const auto& requests = SharedRequests();
  service->PersonalizeBatchAndWait(requests);  // Warm up.
  obs::NullTraceSink null_sink;
  double seconds_off = 0, seconds_on = 0;
  for (auto _ : state) {
    service->set_trace_sink(nullptr);
    auto start = std::chrono::steady_clock::now();
    service->PersonalizeBatchAndWait(requests);
    seconds_off += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    service->set_trace_sink(&null_sink);
    start = std::chrono::steady_clock::now();
    service->PersonalizeBatchAndWait(requests);
    seconds_on += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  }
  service->set_trace_sink(nullptr);
  double overhead_pct =
      seconds_off > 0 ? (seconds_on - seconds_off) / seconds_off * 100.0
                      : 0.0;
  state.counters["overhead_pct"] = overhead_pct;
  Report().AddScalar("trace_null_sink_overhead_pct", overhead_pct);
}
BENCHMARK(BM_TraceNullSinkOverhead)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The production configuration's tax: a sink attached but only 1% of
/// requests head-sampled, against the same service with tracing fully
/// detached. The 99% unsampled majority pays only the head coin flip
/// plus the tail-rule bookkeeping, so the relative wall-time increase
/// (sampled_trace_tax_pct) must stay under the 3% regression ceiling —
/// that bound is what makes always-on sampled tracing shippable.
void BM_SampledTraceOverhead(benchmark::State& state) {
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 4096;
  options.sampling.head_rate = 0.01;
  auto service =
      std::make_unique<PersonalizationService>(&SharedDb(), options);
  for (size_t u = 0; u < kUsers; ++u) {
    auto status = service->profiles().Put("user" + std::to_string(u),
                                          SharedProfiles()[u]);
    if (!status.ok()) {
      state.SkipWithError("profile setup failed");
      return;
    }
  }
  const auto& requests = SharedRequests();
  service->PersonalizeBatchAndWait(requests);  // Warm up.
  obs::NullTraceSink null_sink;
  // Batch wall times are heavy-tailed (one slow execution is ~70x the
  // median request), so a sums ratio over a handful of alternations
  // drowns a sub-1% effect in noise. Instead: alternate the sink per
  // small chunk (order swapped every chunk so neither mode always runs
  // into a warmer machine), giving one tightly-paired ratio per
  // iteration, and report the median ratio — outlier batches perturb
  // individual samples, not the estimate.
  constexpr size_t kChunk = 64;
  std::vector<std::vector<PersonalizationRequest>> chunks;
  for (size_t begin = 0; begin < requests.size(); begin += kChunk) {
    const size_t end = std::min(begin + kChunk, requests.size());
    chunks.emplace_back(requests.begin() + begin, requests.begin() + end);
  }
  auto timed = [&](const std::vector<PersonalizationRequest>& chunk,
                   obs::TraceSink* sink) {
    service->set_trace_sink(sink);
    auto start = std::chrono::steady_clock::now();
    service->PersonalizeBatchAndWait(chunk);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::vector<double> ratios;
  for (auto _ : state) {
    for (size_t c = 0; c < chunks.size(); ++c) {
      double seconds_off, seconds_on;
      if (c % 2 == 0) {
        seconds_off = timed(chunks[c], nullptr);
        seconds_on = timed(chunks[c], &null_sink);
      } else {
        seconds_on = timed(chunks[c], &null_sink);
        seconds_off = timed(chunks[c], nullptr);
      }
      if (seconds_off > 0) ratios.push_back(seconds_on / seconds_off);
    }
  }
  service->set_trace_sink(nullptr);
  double tax_pct = 0.0;
  if (!ratios.empty()) {
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                     ratios.end());
    tax_pct = (ratios[ratios.size() / 2] - 1.0) * 100.0;
  }
  state.counters["tax_pct"] = tax_pct;
  state.counters["head_rate"] = options.sampling.head_rate;
  Report().AddScalar("sampled_trace_tax_pct", tax_pct);
  // The rolling SLO gauges over everything this benchmark just pushed
  // through the service — snapshotted into the report so the perf
  // trajectory also tracks objective attainment, not just speed.
  obs::SloSnapshot slo = service->SloStatus();
  Report().AddScalar("slo_availability", slo.availability);
  Report().AddScalar("slo_latency_attainment", slo.latency_attainment);
  Report().AddScalar("slo_availability_burn_rate",
                     slo.availability_burn_rate);
  Report().AddScalar("slo_latency_burn_rate", slo.latency_burn_rate);
}
BENCHMARK(BM_SampledTraceOverhead)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace qp

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return qp::Report().Write() ? 0 : 1;
}
