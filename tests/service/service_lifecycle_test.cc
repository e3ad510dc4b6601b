// Request lifecycle under load: admission control (shedding past the
// queue bound, or by a stopped pool), per-request deadlines (exceeded in queue vs
// degraded mid-run), the degradation ladder (K stepped down under queue
// pressure), and the disposition accounting that ties it all together —
// every response is exactly one of full / degraded / shed /
// deadline_exceeded, and the stats counters agree with the responses.
// Run under -DQP_SANITIZE=thread to prove the admission path is race-free.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/data/workload.h"
#include "qp/pref/profile_generator.h"
#include "qp/obs/trace.h"
#include "qp/service/service.h"
#include "qp/util/fault_hub.h"

namespace qp {
namespace {

class ServiceLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MovieDbConfig config;
    config.num_movies = 300;
    config.num_actors = 150;
    config.num_directors = 40;
    config.num_theatres = 8;
    config.num_days = 4;
    config.seed = 20040308;
    QP_ASSERT_OK_AND_ASSIGN(Database db, GenerateMovieDatabase(config));
    db_ = std::make_unique<Database>(std::move(db));
    QP_ASSERT_OK_AND_ASSIGN(auto pools, MovieCandidatePools(*db_));
    generator_ =
        std::make_unique<ProfileGenerator>(&db_->schema(), std::move(pools));
  }

  UserProfile MakeProfile(uint64_t seed) {
    Rng rng(seed);
    ProfileGeneratorOptions options;
    options.num_selections = 30;
    auto profile = generator_->Generate(options, &rng);
    EXPECT_TRUE(profile.ok()) << profile.status();
    return std::move(profile).value();
  }

  std::vector<PersonalizationRequest> MakeRequests(size_t count,
                                                   uint64_t seed) {
    WorkloadGenerator workload(db_.get(), seed);
    auto queries = workload.RandomQueries(count);
    EXPECT_TRUE(queries.ok());
    std::vector<PersonalizationRequest> requests;
    for (size_t i = 0; i < count; ++i) {
      PersonalizationRequest request;
      request.user_id = "julie";
      request.query = (*queries)[i % queries->size()];
      request.options.criterion = InterestCriterion::TopCount(8);
      requests.push_back(std::move(request));
    }
    return requests;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ProfileGenerator> generator_;
};

/// Counts responses per disposition and checks per-disposition status
/// invariants: shed => Unavailable, deadline_exceeded => DeadlineExceeded
/// (both without results); full/degraded => Ok here (all requests in
/// these tests are valid).
std::map<RequestDisposition, size_t> Account(
    const std::vector<PersonalizationResponse>& responses) {
  std::map<RequestDisposition, size_t> counts;
  for (const PersonalizationResponse& response : responses) {
    ++counts[response.disposition];
    switch (response.disposition) {
      case RequestDisposition::kShed:
        EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
        EXPECT_EQ(response.results.num_rows(), 0u);
        EXPECT_TRUE(response.outcome.selected.empty());
        break;
      case RequestDisposition::kDeadlineExceeded:
        EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
        EXPECT_EQ(response.results.num_rows(), 0u);
        EXPECT_TRUE(response.outcome.selected.empty());
        break;
      case RequestDisposition::kFull:
      case RequestDisposition::kDegraded:
        EXPECT_TRUE(response.status.ok()) << response.status;
        break;
    }
  }
  return counts;
}

TEST_F(ServiceLifecycleTest, DispositionNamesAreStable) {
  EXPECT_STREQ(ToString(RequestDisposition::kFull), "full");
  EXPECT_STREQ(ToString(RequestDisposition::kDegraded), "degraded");
  EXPECT_STREQ(ToString(RequestDisposition::kShed), "shed");
  EXPECT_STREQ(ToString(RequestDisposition::kDeadlineExceeded),
               "deadline_exceeded");
}

TEST_F(ServiceLifecycleTest, UnboundedServiceNeverSheds) {
  ServiceOptions options;
  options.num_workers = 2;
  PersonalizationService service(db_.get(), options);
  QP_ASSERT_OK(service.profiles().Put("julie", MakeProfile(1)));

  auto responses = service.PersonalizeBatchAndWait(MakeRequests(16, 7));
  auto counts = Account(responses);
  EXPECT_EQ(counts[RequestDisposition::kFull], 16u);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.degraded, 0u);
}

TEST_F(ServiceLifecycleTest, AdmissionControlShedsPastTheBound) {
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 2;
  PersonalizationService service(db_.get(), options);
  QP_ASSERT_OK(service.profiles().Put("julie", MakeProfile(1)));

  constexpr size_t kBatch = 24;
  auto responses = service.PersonalizeBatchAndWait(MakeRequests(kBatch, 11));
  auto counts = Account(responses);

  // Submission is far faster than personalization, so with one worker
  // and a queue of two, most of the batch must be rejected at admission.
  EXPECT_GE(counts[RequestDisposition::kShed], kBatch / 2)
      << "admission control admitted nearly everything";
  // Admitted requests all completed normally (no deadlines configured).
  EXPECT_EQ(counts[RequestDisposition::kShed] +
                counts[RequestDisposition::kFull] +
                counts[RequestDisposition::kDegraded],
            kBatch);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kBatch);
  EXPECT_EQ(stats.shed, counts[RequestDisposition::kShed]);
  EXPECT_LE(stats.max_queue_depth, options.max_queue_depth);

  // The service is healthy after the storm: a fresh request completes.
  auto calm = service.PersonalizeBatchAndWait(MakeRequests(1, 13));
  EXPECT_EQ(calm[0].disposition, RequestDisposition::kFull);
}

TEST_F(ServiceLifecycleTest, PoolRefusalShedsUnderTheCallersTrace) {
  // A pool that refuses the task (shutting down, here an armed
  // "pool.submit") sheds the request through the same refusal path as an
  // admission bound, and its minimal trace joins the caller's trace.
  ServiceOptions options;
  options.num_workers = 1;
  PersonalizationService service(db_.get(), options);
  QP_ASSERT_OK(service.profiles().Put("julie", MakeProfile(1)));
  obs::FragmentTraceSink sink;
  service.set_trace_sink(&sink);

  std::vector<PersonalizationRequest> requests = MakeRequests(1, 17);
  requests[0].trace_context.trace_id = 0x5eed;
  requests[0].trace_context.parent_span_id = 0xa11;
  requests[0].trace_context.sampled = true;
  std::vector<PersonalizationResponse> responses;
  {
    ScopedFaultInjection chaos(7);
    FaultRule rule;
    rule.fire_every = 1;
    FaultHub::Global()->SetRule("pool.submit", rule);
    responses = service.PersonalizeBatchAndWait(std::move(requests));
  }
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].disposition, RequestDisposition::kShed);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.stats().shed, 1u);

  EXPECT_EQ(sink.TraceIds(), std::vector<uint64_t>{0x5eed});
  auto fragments = sink.Fragments(0x5eed);
  ASSERT_EQ(fragments.size(), 1u);
  EXPECT_EQ(fragments[0]->disposition(), "shed");
  EXPECT_EQ(fragments[0]->stopped_phase(), "admission");
  EXPECT_EQ(fragments[0]->root_parent_span_id(), 0xa11u);
}

TEST_F(ServiceLifecycleTest, ExpiredBudgetResolvesWithoutRunning) {
  ServiceOptions options;
  options.num_workers = 2;
  PersonalizationService service(db_.get(), options);
  QP_ASSERT_OK(service.profiles().Put("julie", MakeProfile(1)));

  PersonalizationRequest request = MakeRequests(1, 19)[0];
  request.deadline_ms = 1e-7;  // Expired by the time anything looks.
  PersonalizationResponse response = service.PersonalizeOne(request);
  EXPECT_EQ(response.disposition, RequestDisposition::kDeadlineExceeded);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response.results.num_rows(), 0u);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  // The pipeline never ran: no selection or execution time was spent.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.cache_bypasses, 0u);
}

TEST_F(ServiceLifecycleTest, ContextLatencyBudgetActsAsDeadline) {
  ServiceOptions options;
  options.num_workers = 1;
  PersonalizationService service(db_.get(), options);
  QP_ASSERT_OK(service.profiles().Put("julie", MakeProfile(1)));

  // No explicit deadline_ms: the context's desired response time is the
  // budget. An absurdly tight one expires before the run starts.
  PersonalizationRequest request = MakeRequests(1, 23)[0];
  QueryContext context;
  context.device = QueryContext::Device::kPhone;
  context.max_latency_ms = 1e-7;
  request.context = context;
  PersonalizationResponse response = service.PersonalizeOne(request);
  EXPECT_EQ(response.disposition, RequestDisposition::kDeadlineExceeded);

  // A relaxed context runs fully, with the phone's derived K (at most 3
  // preferences selected).
  context.max_latency_ms = 60000.0;
  request.context = context;
  response = service.PersonalizeOne(request);
  EXPECT_EQ(response.disposition, RequestDisposition::kFull);
  EXPECT_TRUE(response.status.ok()) << response.status;
  EXPECT_LE(response.outcome.selected.size(), 3u);
}

TEST_F(ServiceLifecycleTest, QueuePressureStepsKDown) {
  // One worker, degradation watermark at depth 1: while the worker chews
  // a request, everything queued behind it runs with K halved (8 -> 4).
  QP_ASSERT_OK_AND_ASSIGN(Database paper_db, BuildPaperDatabase());
  ServiceOptions options;
  options.num_workers = 1;
  options.degrade_queue_depth = 1;
  options.cache_capacity = 0;  // Every request runs a real selection.
  PersonalizationService service(&paper_db, options);
  QP_ASSERT_OK(service.profiles().Put("julie", JulieProfile()));

  constexpr size_t kBatch = 12;
  std::vector<PersonalizationRequest> requests;
  for (size_t i = 0; i < kBatch; ++i) {
    PersonalizationRequest request;
    request.user_id = "julie";
    request.query = TonightQuery();
    request.options.criterion = InterestCriterion::TopCount(8);
    requests.push_back(std::move(request));
  }
  auto responses = service.PersonalizeBatchAndWait(requests);
  auto counts = Account(responses);

  // Julie has 9 related preferences, so a full run selects exactly 8 and
  // a stepped-down run at most 4 — the two modes are distinguishable.
  size_t degraded = 0;
  for (const PersonalizationResponse& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status;
    if (response.disposition == RequestDisposition::kDegraded) {
      ++degraded;
      EXPECT_LE(response.outcome.selected.size(), 4u);
    } else {
      EXPECT_EQ(response.outcome.selected.size(), 8u);
    }
  }
  // The worker cannot outrun the submit loop for the whole batch: at
  // least one request must have seen a backlog and stepped down.
  EXPECT_GE(degraded, 1u);
  EXPECT_EQ(counts[RequestDisposition::kDegraded], degraded);
  EXPECT_EQ(service.stats().degraded, degraded);
}

TEST_F(ServiceLifecycleTest, OverloadAccountingAcceptance) {
  // The acceptance scenario: batch of 4x-plus the worker count, tight
  // deadlines on half the requests, a small queue bound. Every response
  // must land in exactly one disposition bucket, the queue must never
  // exceed its bound, and no past-deadline request may produce a full
  // answer.
  ServiceOptions options;
  options.num_workers = 2;
  options.max_queue_depth = 4;
  options.degrade_queue_depth = 2;
  PersonalizationService service(db_.get(), options);
  QP_ASSERT_OK(service.profiles().Put("julie", MakeProfile(1)));
  QP_ASSERT_OK(service.profiles().Put("rob", MakeProfile(2)));

  constexpr size_t kBatch = 40;  // 20x the worker count.
  std::vector<PersonalizationRequest> requests = MakeRequests(kBatch, 29);
  for (size_t i = 0; i < kBatch; ++i) {
    requests[i].user_id = (i % 2 == 0) ? "julie" : "rob";
    if (i % 2 == 1) {
      requests[i].deadline_ms = 1e-6;  // Expired before any work starts.
    }
  }

  auto responses = service.PersonalizeBatchAndWait(requests);
  ASSERT_EQ(responses.size(), kBatch);
  auto counts = Account(responses);

  // Exhaustive accounting: the four buckets partition the batch.
  EXPECT_EQ(counts[RequestDisposition::kFull] +
                counts[RequestDisposition::kDegraded] +
                counts[RequestDisposition::kShed] +
                counts[RequestDisposition::kDeadlineExceeded],
            kBatch);

  // No past-deadline request ran the full pipeline: each tight-deadline
  // request was shed at admission, expired in the queue, or (at most)
  // stopped cooperatively mid-run — never disposition full.
  for (size_t i = 1; i < kBatch; i += 2) {
    EXPECT_NE(responses[i].disposition, RequestDisposition::kFull)
        << "request " << i << " ignored its expired deadline";
  }

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kBatch);
  EXPECT_EQ(stats.shed, counts[RequestDisposition::kShed]);
  EXPECT_EQ(stats.deadline_exceeded,
            counts[RequestDisposition::kDeadlineExceeded]);
  EXPECT_EQ(stats.degraded, counts[RequestDisposition::kDegraded]);
  EXPECT_EQ(stats.errors, 0u);
  // The sampled backlog never exceeded the admission bound.
  EXPECT_LE(stats.max_queue_depth, options.max_queue_depth);

  // The sum rule documented on ServiceStats: full completions are the
  // remainder.
  EXPECT_EQ(stats.requests - stats.errors - stats.shed -
                stats.deadline_exceeded - stats.degraded,
            counts[RequestDisposition::kFull]);
}

TEST_F(ServiceLifecycleTest, RepeatedOverloadRoundsStayAccounted) {
  // Several rounds against the same service: counters accumulate and the
  // accounting identity holds at every step (catches lost decrements in
  // the admission counters — a leak would eventually shed everything).
  ServiceOptions options;
  options.num_workers = 2;
  options.max_queue_depth = 3;
  PersonalizationService service(db_.get(), options);
  QP_ASSERT_OK(service.profiles().Put("julie", MakeProfile(1)));

  size_t total = 0;
  for (int round = 0; round < 4; ++round) {
    constexpr size_t kBatch = 16;
    auto responses =
        service.PersonalizeBatchAndWait(MakeRequests(kBatch, 31 + round));
    Account(responses);
    total += kBatch;

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, total);
    EXPECT_LE(stats.max_queue_depth, options.max_queue_depth);
  }
  // After the storms, admission slots must all have been released: a
  // full batch of fresh requests is admitted and completes.
  auto calm = service.PersonalizeBatchAndWait(MakeRequests(3, 97));
  for (const PersonalizationResponse& response : calm) {
    EXPECT_TRUE(response.disposition == RequestDisposition::kFull ||
                response.disposition == RequestDisposition::kDegraded)
        << ToString(response.disposition);
  }
}

}  // namespace
}  // namespace qp
