// End-to-end cluster tracing: one request through the sharded front end
// must produce ONE connected span tree — a single trace_id shared by the
// router fragment and the shard fragment, the router span parenting the
// shard span, and the pipeline spans (selection, execution, storage)
// hanging underneath. Also: head sampling at the router edge (rate 0
// traces nothing; tail rules resurrect shed requests), and batch fan-out
// producing one router fragment per request.

#include <memory>
#include <string>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/workload.h"
#include "qp/obs/trace.h"
#include "qp/pref/profile_generator.h"
#include "qp/shard/sharded_service.h"
#include "qp/storage/fault_injection.h"

namespace qp {
namespace shard {
namespace {

class ClusterTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MovieDbConfig config;
    config.num_movies = 200;
    config.num_actors = 100;
    config.num_directors = 30;
    config.num_theatres = 6;
    config.num_days = 3;
    config.seed = 20040308;
    QP_ASSERT_OK_AND_ASSIGN(Database db, GenerateMovieDatabase(config));
    db_ = std::make_unique<Database>(std::move(db));
    QP_ASSERT_OK_AND_ASSIGN(auto pools, MovieCandidatePools(*db_));
    generator_ = std::make_unique<ProfileGenerator>(&db_->schema(),
                                                    std::move(pools));
  }

  ShardedOptions Options(size_t num_shards) {
    ShardedOptions options;
    options.num_shards = num_shards;
    options.dir = "cluster";
    options.service.num_workers = 2;
    options.service.storage.fs = &fs_;
    options.service.storage.compact_threshold_bytes = 0;
    return options;
  }

  std::unique_ptr<ShardedPersonalizationService> MustOpen(
      ShardedOptions options) {
    auto sharded_or =
        ShardedPersonalizationService::Open(db_.get(), std::move(options));
    EXPECT_TRUE(sharded_or.ok()) << sharded_or.status();
    return sharded_or.ok() ? std::move(sharded_or).value() : nullptr;
  }

  UserProfile MakeProfile(uint64_t seed) {
    Rng rng(seed);
    ProfileGeneratorOptions options;
    options.num_selections = 20;
    auto profile = generator_->Generate(options, &rng);
    EXPECT_TRUE(profile.ok()) << profile.status();
    return std::move(profile).value();
  }

  PersonalizationRequest Request(const std::string& user_id,
                                 const SelectQuery& query) {
    PersonalizationRequest request;
    request.user_id = user_id;
    request.query = query;
    request.options.criterion = InterestCriterion::TopCount(4);
    return request;
  }

  SelectQuery AnyQuery() {
    WorkloadGenerator workload(db_.get(), 9);
    auto queries = workload.RandomQueries(1);
    EXPECT_TRUE(queries.ok()) << queries.status();
    return std::move(queries).value()[0];
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ProfileGenerator> generator_;
  storage::FaultInjectingFileSystem fs_;
};

/// Finds the span named `name` across every fragment; returns the
/// owning fragment too.
const obs::TraceSpan* FindSpan(
    const std::vector<std::shared_ptr<const obs::RequestTrace>>& fragments,
    std::string_view name,
    const obs::RequestTrace** owner = nullptr) {
  for (const auto& fragment : fragments) {
    if (const obs::TraceSpan* span = fragment->FindSpan(name)) {
      if (owner != nullptr) *owner = fragment.get();
      return span;
    }
  }
  return nullptr;
}

TEST_F(ClusterTraceTest, OneRequestYieldsOneConnectedSpanTree) {
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  obs::FragmentTraceSink sink;
  sharded->set_trace_sink(&sink);
  QP_ASSERT_OK(sharded->PutProfile("julie", MakeProfile(1)));

  PersonalizationResponse response =
      sharded->Personalize(Request("julie", AnyQuery()));
  QP_ASSERT_OK(response.status);

  // Exactly one trace, in >= 2 fragments (router + shard).
  std::vector<uint64_t> trace_ids = sink.TraceIds();
  ASSERT_EQ(trace_ids.size(), 1u);
  auto fragments = sink.Fragments(trace_ids[0]);
  ASSERT_GE(fragments.size(), 2u);
  for (const auto& fragment : fragments) {
    EXPECT_EQ(fragment->trace_id(), trace_ids[0]);
  }

  // The router span is the root of the whole tree...
  const obs::RequestTrace* router_fragment = nullptr;
  const obs::TraceSpan* router_span =
      FindSpan(fragments, "router", &router_fragment);
  ASSERT_NE(router_span, nullptr);
  ASSERT_NE(router_fragment, nullptr);
  EXPECT_EQ(router_fragment->root_parent_span_id(), 0u);
  EXPECT_EQ(router_span->parent_span_id, 0u);
  EXPECT_EQ(router_span->counter("shard"), sharded->ShardFor("julie"));

  // ...the shard fragment hangs under the router span...
  const obs::RequestTrace* shard_fragment = nullptr;
  const obs::TraceSpan* shard_span =
      FindSpan(fragments, "shard", &shard_fragment);
  ASSERT_NE(shard_span, nullptr);
  ASSERT_NE(shard_fragment, nullptr);
  EXPECT_NE(shard_fragment, router_fragment);
  EXPECT_EQ(shard_fragment->root_parent_span_id(), router_span->span_id);
  EXPECT_EQ(shard_span->parent_span_id, router_span->span_id);
  EXPECT_EQ(shard_span->counter("id"), sharded->ShardFor("julie"));

  // ...and the pipeline spans live inside the shard fragment, nested
  // under the shard span (selection / execution / storage lookups).
  for (const char* name :
       {"profile_lookup", "preference_selection", "integration"}) {
    const obs::TraceSpan* span = shard_fragment->FindSpan(name);
    ASSERT_NE(span, nullptr) << name;
    EXPECT_GT(span->depth, shard_span->depth) << name;
  }
}

TEST_F(ClusterTraceTest, ZeroHeadRateTracesNothing) {
  ShardedOptions options = Options(2);
  options.service.sampling.head_rate = 0.0;
  // Eight full, fault-free requests, too few to set the rolling p99 the
  // slow rule compares against: the tail rule keeps none of them.
  auto sharded = MustOpen(std::move(options));
  ASSERT_NE(sharded, nullptr);
  obs::FragmentTraceSink sink;
  sharded->set_trace_sink(&sink);
  QP_ASSERT_OK(sharded->PutProfile("julie", MakeProfile(1)));

  for (int i = 0; i < 8; ++i) {
    QP_ASSERT_OK(sharded->Personalize(Request("julie", AnyQuery())).status);
  }
  EXPECT_TRUE(sink.TraceIds().empty());
}

TEST_F(ClusterTraceTest, BatchFanOutSharesNothingAcrossRequests) {
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  obs::FragmentTraceSink sink(128);
  sharded->set_trace_sink(&sink);
  SelectQuery query = AnyQuery();
  std::vector<PersonalizationRequest> requests;
  for (int i = 0; i < 6; ++i) {
    std::string user = "user" + std::to_string(i);
    QP_ASSERT_OK(sharded->PutProfile(user, MakeProfile(i + 1)));
    requests.push_back(Request(user, query));
  }
  auto responses = sharded->PersonalizeBatchAndWait(std::move(requests));
  ASSERT_EQ(responses.size(), 6u);
  for (const auto& response : responses) QP_ASSERT_OK(response.status);

  // One distinct trace per request, each a connected router+shard tree.
  std::vector<uint64_t> trace_ids = sink.TraceIds();
  EXPECT_EQ(trace_ids.size(), 6u);
  for (uint64_t trace_id : trace_ids) {
    auto fragments = sink.Fragments(trace_id);
    ASSERT_GE(fragments.size(), 2u) << std::hex << trace_id;
    const obs::TraceSpan* router_span = FindSpan(fragments, "router");
    const obs::TraceSpan* shard_span = FindSpan(fragments, "shard");
    ASSERT_NE(router_span, nullptr);
    ASSERT_NE(shard_span, nullptr);
    EXPECT_EQ(shard_span->parent_span_id, router_span->span_id);
  }
}

TEST_F(ClusterTraceTest, BatchRouterSpanCarriesShardAndPartition) {
  // A head-sampled request routed through the batch path gets the same
  // router span as the single path: its shard and its partition.
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  obs::FragmentTraceSink sink;
  sharded->set_trace_sink(&sink);
  QP_ASSERT_OK(sharded->PutProfile("julie", MakeProfile(1)));
  std::vector<PersonalizationRequest> requests;
  requests.push_back(Request("julie", AnyQuery()));
  auto responses = sharded->PersonalizeBatchAndWait(std::move(requests));
  ASSERT_EQ(responses.size(), 1u);
  QP_ASSERT_OK(responses[0].status);

  std::vector<uint64_t> trace_ids = sink.TraceIds();
  ASSERT_EQ(trace_ids.size(), 1u);
  const obs::TraceSpan* router_span =
      FindSpan(sink.Fragments(trace_ids[0]), "router");
  ASSERT_NE(router_span, nullptr);
  EXPECT_EQ(router_span->counter("shard"), sharded->ShardFor("julie"));
  ASSERT_TRUE(router_span->has_counter("partition"));
  EXPECT_EQ(router_span->counter("partition"),
            sharded->PartitionFor("julie"));
}

TEST_F(ClusterTraceTest, UnsampledRequestsStillServe) {
  // head_rate 0 with a sink attached must not perturb results: the
  // response matches an untraced cluster's row for row.
  SelectQuery query = AnyQuery();
  UserProfile profile = MakeProfile(1);

  ShardedOptions untraced = Options(2);
  untraced.dir = "cluster-untraced";
  auto baseline = MustOpen(std::move(untraced));
  ASSERT_NE(baseline, nullptr);
  QP_ASSERT_OK(baseline->PutProfile("julie", profile));
  PersonalizationResponse expected =
      baseline->Personalize(Request("julie", query));
  QP_ASSERT_OK(expected.status);

  ShardedOptions traced = Options(2);
  traced.service.sampling.head_rate = 0.0;
  auto sharded = MustOpen(std::move(traced));
  ASSERT_NE(sharded, nullptr);
  obs::FragmentTraceSink sink;
  sharded->set_trace_sink(&sink);
  QP_ASSERT_OK(sharded->PutProfile("julie", profile));
  PersonalizationResponse response =
      sharded->Personalize(Request("julie", query));
  QP_ASSERT_OK(response.status);
  EXPECT_EQ(response.results.num_rows(), expected.results.num_rows());
  EXPECT_TRUE(sink.TraceIds().empty());
}

}  // namespace
}  // namespace shard
}  // namespace qp
