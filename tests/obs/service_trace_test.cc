// End-to-end observability: a request through the PersonalizationService
// produces a trace whose spans and counters agree with the response's
// own stats, the registry's counters agree with the service's work, and
// DumpMetrics round-trips through independent JSON and Prometheus
// parsers. Also pins the minimal traces of requests that never ran
// (shed, expired, degraded-by-queue-pressure).

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "obs_test_parsers.h"
#include "qp/data/paper_example.h"
#include "qp/obs/trace.h"
#include "qp/service/service.h"

namespace qp {
namespace {

using ::qp::testing_util::JsonParser;
using ::qp::testing_util::JsonValue;
using ::qp::testing_util::ParsePrometheusText;
using ::qp::testing_util::PrometheusMetrics;

/// Collects every delivered trace (thread-safe, unlike LastTraceSink it
/// keeps them all) so batch tests can reconcile traces against stats.
class VectorTraceSink : public obs::TraceSink {
 public:
  void Consume(obs::RequestTrace trace) override {
    std::lock_guard<std::mutex> lock(mutex_);
    traces_.push_back(std::move(trace));
  }

  std::vector<obs::RequestTrace> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(traces_);
  }

 private:
  std::mutex mutex_;
  std::vector<obs::RequestTrace> traces_;
};

class ServiceTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    QP_ASSERT_OK_AND_ASSIGN(Database db, BuildPaperDatabase());
    db_ = std::make_unique<Database>(std::move(db));
  }

  PersonalizationRequest JulieRequest() {
    PersonalizationRequest request;
    request.user_id = "julie";
    request.query = TonightQuery();
    request.options.criterion = InterestCriterion::TopCount(3);
    return request;
  }

  std::unique_ptr<Database> db_;
};

std::vector<std::string> RootSpanNames(const obs::RequestTrace& trace) {
  std::vector<std::string> names;
  for (const obs::TraceSpan& span : trace.spans()) {
    if (span.depth == 0) names.push_back(span.name);
  }
  return names;
}

TEST_F(ServiceTraceTest, FullRequestTraceMatchesResponse) {
  PersonalizationService service(db_.get(), ServiceOptions{.num_workers = 1});
  QP_ASSERT_OK(service.profiles().Put("julie", JulieProfile()));
  obs::LastTraceSink sink;
  service.set_trace_sink(&sink);

  PersonalizationResponse response = service.PersonalizeOne(JulieRequest());
  QP_ASSERT_OK(response.status);
  EXPECT_EQ(response.disposition, RequestDisposition::kFull);
  ASSERT_EQ(response.outcome.selected.size(), 3u);

  std::shared_ptr<const obs::RequestTrace> trace = sink.last();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->disposition(), "full");
  EXPECT_EQ(trace->stopped_phase(), "");

  // The pipeline's phases appear as root spans, in pipeline order.
  EXPECT_EQ(RootSpanNames(*trace),
            (std::vector<std::string>{"profile_lookup", "cache_lookup",
                                      "preference_selection", "integration",
                                      "execution"}));
  for (const obs::TraceSpan& span : trace->spans()) {
    EXPECT_GE(span.duration_millis, 0.0) << span.name;
    EXPECT_GE(span.start_millis, 0.0) << span.name;
    EXPECT_LE(span.start_millis + span.duration_millis,
              trace->total_millis() + 1e-6)
        << span.name;
  }

  const obs::TraceSpan* profile = trace->FindSpan("profile_lookup");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->counter("found"), 1u);

  const obs::TraceSpan* cache = trace->FindSpan("cache_lookup");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->counter("hit"), 0u);

  // The selection span's counters are exactly the run's SelectionStats.
  const obs::TraceSpan* selection = trace->FindSpan("preference_selection");
  ASSERT_NE(selection, nullptr);
  const SelectionStats& stats = response.outcome.selection_stats;
  EXPECT_EQ(selection->counter("selected"), 3u);
  EXPECT_EQ(selection->counter("paths_pushed"), stats.paths_pushed);
  EXPECT_EQ(selection->counter("paths_popped"), stats.paths_popped);
  EXPECT_EQ(selection->counter("pruned_cycle"), stats.pruned_cycle);
  EXPECT_EQ(selection->counter("pruned_conflict"), stats.pruned_conflict);
  EXPECT_EQ(selection->counter("pruned_criterion"), stats.pruned_criterion);
  EXPECT_EQ(selection->counter("max_queue_size"), stats.max_queue_size);
  EXPECT_EQ(selection->counter("degraded"), 0u);
  EXPECT_GT(stats.paths_pushed, 0u) << "paper example must explore paths";

  const obs::TraceSpan* integration = trace->FindSpan("integration");
  ASSERT_NE(integration, nullptr);
  EXPECT_EQ(integration->counter("selected"), 3u);

  // MQ execution produces per-part child spans under "execution".
  const obs::TraceSpan* execution = trace->FindSpan("execution");
  ASSERT_NE(execution, nullptr);
  const obs::TraceSpan* part = trace->FindSpan("part");
  ASSERT_NE(part, nullptr) << "MQ execution must trace its parts";
  EXPECT_GT(part->depth, execution->depth);

  // Second, identical request: served from the selection cache — the
  // trace shows the hit and no selection span.
  PersonalizationResponse second = service.PersonalizeOne(JulieRequest());
  QP_ASSERT_OK(second.status);
  EXPECT_TRUE(second.cache_hit);
  std::shared_ptr<const obs::RequestTrace> warm = sink.last();
  ASSERT_NE(warm, nullptr);
  ASSERT_NE(warm, trace);
  const obs::TraceSpan* warm_cache = warm->FindSpan("cache_lookup");
  ASSERT_NE(warm_cache, nullptr);
  EXPECT_EQ(warm_cache->counter("hit"), 1u);
  EXPECT_EQ(warm->FindSpan("preference_selection"), nullptr);

  service.set_trace_sink(nullptr);

  // DumpMetrics reflects both requests, in both export formats, each
  // verified through an independent parser (the acceptance round-trip).
  std::string json = service.DumpMetrics(obs::ExportFormat::kJson);
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  auto counter_value = [&](const char* name) {
    const JsonValue* value = counters->Find(name);
    return value != nullptr ? value->number : -1.0;
  };
  EXPECT_EQ(counter_value("qp_service_requests_total"), 2.0);
  EXPECT_EQ(counter_value("qp_service_cache_hits_total"), 1.0);
  EXPECT_EQ(counter_value("qp_service_cache_misses_total"), 1.0);
  EXPECT_EQ(counter_value("qp_selection_cache_insertions_total"), 1.0);
  // Dispositions are counted once, in the labeled family only.
  EXPECT_EQ(counter_value("qp_service_full_total"), -1.0);
  auto disposition_value = [&](const char* disposition) {
    const JsonValue* labeled = root.Find("labeled");
    const JsonValue* family =
        labeled == nullptr ? nullptr : labeled->Find("counters");
    family = family == nullptr
                 ? nullptr
                 : family->Find("qp_service_requests_by_disposition_total");
    if (family == nullptr) return -1.0;
    for (const JsonValue& sample : family->array) {
      const JsonValue* labels = sample.Find("labels");
      const JsonValue* value = labels == nullptr ? nullptr
                                                 : labels->Find("disposition");
      if (value != nullptr && value->str == disposition) {
        return sample.Find("value")->number;
      }
    }
    return -1.0;
  };
  EXPECT_EQ(disposition_value("full"), 2.0);
  EXPECT_EQ(disposition_value("error"), 0.0);
  const JsonValue* gauges = root.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* cache_entries = gauges->Find("qp_selection_cache_entries");
  ASSERT_NE(cache_entries, nullptr) << "DumpMetrics samples cache size";
  EXPECT_EQ(cache_entries->number, 1.0);
  const JsonValue* histograms = root.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* latency = histograms->Find("qp_service_request_seconds");
  ASSERT_NE(latency, nullptr);
  const JsonValue* count = latency->Find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->number, 2.0);

  PrometheusMetrics prom;
  ASSERT_TRUE(
      ParsePrometheusText(service.DumpMetrics(obs::ExportFormat::kPrometheus),
                          &prom));
  EXPECT_EQ(prom.samples["qp_service_requests_total"], 2.0);
  EXPECT_EQ(prom.samples["qp_service_cache_hits_total"], 1.0);
  EXPECT_EQ(prom.samples["qp_service_request_seconds_count"], 2.0);
  EXPECT_EQ(prom.types["qp_service_requests_total"], "counter");
  EXPECT_EQ(prom.types["qp_service_request_seconds"], "histogram");
  // The executor published into the same registry.
  EXPECT_GT(prom.samples["qp_exec_disjuncts_total"], 0.0);
}

TEST_F(ServiceTraceTest, DeadlineExpiredBeforeStartDeliversMinimalTrace) {
  PersonalizationService service(db_.get(), ServiceOptions{.num_workers = 1});
  QP_ASSERT_OK(service.profiles().Put("julie", JulieProfile()));
  obs::LastTraceSink sink;
  service.set_trace_sink(&sink);

  PersonalizationRequest request = JulieRequest();
  request.deadline_ms = 1e-6;  // Expired by the time admission checks it.
  PersonalizationResponse response = service.PersonalizeOne(request);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.disposition, RequestDisposition::kDeadlineExceeded);

  std::shared_ptr<const obs::RequestTrace> trace = sink.last();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->disposition(), "deadline_exceeded");
  EXPECT_EQ(trace->stopped_phase(), "admission");
  EXPECT_TRUE(trace->spans().empty()) << "nothing ran";

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.full, 0u);
  service.set_trace_sink(nullptr);
}

TEST_F(ServiceTraceTest, ErrorTraceRecordsStoppedPhase) {
  PersonalizationService service(db_.get(), ServiceOptions{.num_workers = 1});
  obs::LastTraceSink sink;
  service.set_trace_sink(&sink);

  // No profile stored: the pipeline dies in the profile lookup.
  PersonalizationResponse response = service.PersonalizeOne(JulieRequest());
  EXPECT_FALSE(response.status.ok());

  std::shared_ptr<const obs::RequestTrace> trace = sink.last();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->disposition(), "error");
  EXPECT_EQ(trace->stopped_phase(), "profile_lookup");
  const obs::TraceSpan* profile = trace->FindSpan("profile_lookup");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->counter("found"), 0u);
  EXPECT_EQ(service.stats().errors, 1u);
  service.set_trace_sink(nullptr);
}

TEST_F(ServiceTraceTest, OverloadedBatchTracesReconcileWithStats) {
  // One worker, a one-deep queue bound with the degradation ladder on:
  // a 32-request batch must shed some requests at admission and step K
  // down for queued ones. Counts are scheduling-dependent; what must
  // hold exactly is trace/stats reconciliation and the accounting
  // identity.
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 2;
  options.degrade_queue_depth = 1;
  options.cache_capacity = 0;  // Every request pays full selection cost.
  PersonalizationService service(db_.get(), options);
  QP_ASSERT_OK(service.profiles().Put("julie", JulieProfile()));
  auto sink = std::make_unique<VectorTraceSink>();
  service.set_trace_sink(sink.get());

  constexpr size_t kBatch = 32;
  constexpr int kMaxRounds = 20;
  uint64_t submitted = 0;
  // Overload outcomes are scheduling-dependent on a loaded machine, so
  // batches repeat until both a shed and a degraded request have been
  // observed (virtually always the first round).
  for (int round = 0; round < kMaxRounds; ++round) {
    std::vector<PersonalizationRequest> requests(kBatch, JulieRequest());
    std::vector<PersonalizationResponse> responses =
        service.PersonalizeBatchAndWait(std::move(requests));
    ASSERT_EQ(responses.size(), kBatch);
    submitted += kBatch;
    ServiceStats stats = service.stats();
    if (stats.shed > 0 && stats.degraded > 0) break;
  }

  service.set_trace_sink(nullptr);
  std::vector<obs::RequestTrace> traces = sink->Take();
  ServiceStats stats = service.stats();

  // Accounting identity at quiescence, and one trace per request.
  EXPECT_EQ(stats.requests, submitted);
  EXPECT_EQ(stats.full + stats.degraded + stats.shed +
                stats.deadline_exceeded + stats.errors,
            stats.requests);
  EXPECT_EQ(traces.size(), submitted);

  uint64_t full = 0, degraded = 0, shed = 0;
  for (const obs::RequestTrace& trace : traces) {
    if (trace.disposition() == "full") {
      ++full;
      EXPECT_NE(trace.FindSpan("execution"), nullptr);
    } else if (trace.disposition() == "degraded") {
      ++degraded;
      // K stepped down under queue pressure before the pipeline ran.
      EXPECT_EQ(trace.stopped_phase(), "admission");
      EXPECT_NE(trace.FindSpan("preference_selection"), nullptr);
    } else if (trace.disposition() == "shed") {
      ++shed;
      EXPECT_EQ(trace.stopped_phase(), "admission");
      EXPECT_TRUE(trace.spans().empty());
    } else {
      ADD_FAILURE() << "unexpected disposition " << trace.disposition();
    }
  }
  EXPECT_EQ(full, stats.full);
  EXPECT_EQ(degraded, stats.degraded);
  EXPECT_EQ(shed, stats.shed);
  EXPECT_GT(shed, 0u);
  EXPECT_GT(degraded, 0u);
}

TEST_F(ServiceTraceTest, ExternalRegistryIsShared) {
  // Two services publishing into one externally owned registry: the
  // fleet-aggregation mode. Counters accumulate across both.
  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  PersonalizationService first(db_.get(), options);
  PersonalizationService second(db_.get(), options);
  QP_ASSERT_OK(first.profiles().Put("julie", JulieProfile()));
  QP_ASSERT_OK(second.profiles().Put("julie", JulieProfile()));

  QP_ASSERT_OK(first.PersonalizeOne(JulieRequest()).status);
  QP_ASSERT_OK(second.PersonalizeOne(JulieRequest()).status);

  EXPECT_EQ(first.metrics(), &registry);
  EXPECT_EQ(second.metrics(), &registry);
  EXPECT_EQ(registry.counter("qp_service_requests_total")->Value(), 2u);
  // Each service's stats() view still reads the shared registry.
  EXPECT_EQ(first.stats().requests, 2u);
}

}  // namespace
}  // namespace qp
