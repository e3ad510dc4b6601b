// Regression tests for ExecutorStats attribution: `disjuncts` must
// count one unit per conjunctive block *per part*, and repeated /
// recursive executions must accumulate linearly. The "execution" trace
// span and the service's qp_exec_* series must report the same deltas as
// the caller's stats struct.

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/core/personalizer.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/obs/metrics.h"
#include "qp/obs/trace.h"
#include "qp/query/sql_parser.h"
#include "qp/service/service.h"

namespace qp {
namespace {

PersonalizationOutcome PaperOutcome() {
  Schema schema = MovieSchema();
  auto graph = PersonalizationGraph::Build(&schema, JulieProfile());
  EXPECT_TRUE(graph.ok());
  Personalizer personalizer(&*graph);
  PersonalizationOptions options;
  options.criterion = InterestCriterion::TopCount(3);
  options.integration.min_satisfied = 2;
  auto outcome = personalizer.Personalize(TonightQuery(), options);
  EXPECT_TRUE(outcome.ok());
  return std::move(outcome).value();
}

TEST(ExecutorStatsAttributionTest, DisjunctCountIsStrategyIndependent) {
  auto db = BuildPaperDatabase();
  ASSERT_TRUE(db.ok());
  PersonalizationOutcome outcome = PaperOutcome();
  ASSERT_TRUE(outcome.mq.has_value());
  const size_t parts = outcome.mq->parts().size();
  ASSERT_GT(parts, 1u);

  // Every part is one conjunctive block, run as the SELECT it is: exactly
  // one disjunct per part.
  Executor executor(&*db);
  ExecutorStats stats;
  ASSERT_TRUE(executor.Execute(*outcome.mq, &stats).ok());
  EXPECT_EQ(stats.disjuncts, parts);
}

TEST(ExecutorStatsAttributionTest, SinglePartCompoundCountsOneDisjunct) {
  auto db = BuildPaperDatabase();
  ASSERT_TRUE(db.ok());
  CompoundQuery compound;
  SelectQuery part = TonightQuery();
  part.set_distinct(true);
  compound.AddPart(std::move(part), 0.9);

  Executor executor(&*db);
  ExecutorStats stats;
  ASSERT_TRUE(executor.Execute(compound, &stats).ok());
  EXPECT_EQ(stats.disjuncts, 1u);
}

TEST(ExecutorStatsAttributionTest, RepeatedExecutionAccumulatesLinearly) {
  auto db = BuildPaperDatabase();
  ASSERT_TRUE(db.ok());
  PersonalizationOutcome outcome = PaperOutcome();
  ASSERT_TRUE(outcome.mq.has_value());

  Executor executor(&*db);
  ExecutorStats once;
  ASSERT_TRUE(executor.Execute(*outcome.mq, &once).ok());
  ASSERT_GT(once.disjuncts, 0u);
  ASSERT_GT(once.bindings, 0u);

  // A second run into the same struct must add exactly the same deltas —
  // no double-counting between the public wrapper and the recursive
  // frames it delegates to.
  ExecutorStats twice = once;
  ASSERT_TRUE(executor.Execute(*outcome.mq, &twice).ok());
  EXPECT_EQ(twice.disjuncts, 2 * once.disjuncts);
  EXPECT_EQ(twice.bindings, 2 * once.bindings);
  EXPECT_EQ(twice.raw_rows, 2 * once.raw_rows);
}

TEST(ExecutorStatsAttributionTest, CountModelIsPinnedOnThePaperMq) {
  // Exact counts for the Julie MQ (K = 3, L = 2). exec.bindings_per_exec
  // and the benchmark's other work counts read these, so a change to
  // where or what the executor counts shows here first.
  auto db = BuildPaperDatabase();
  ASSERT_TRUE(db.ok());
  PersonalizationOutcome outcome = PaperOutcome();
  ASSERT_TRUE(outcome.mq.has_value());

  Executor executor(&*db);
  ExecutorStats stats;
  ASSERT_TRUE(executor.Execute(*outcome.mq, &stats).ok());
  EXPECT_EQ(stats.disjuncts, 3u);
  EXPECT_EQ(stats.bindings, 26u);
  EXPECT_EQ(stats.raw_rows, 8u);
}

TEST(ExecutorStatsAttributionTest, SemiStepCountsTheRowsItKeeps) {
  // Movie 5 has two genres. GN is neither projected nor under a near
  // condition and is joined through one atom, so the DISTINCT form
  // semi-joins it: the join step keeps MV's one row once (bindings 1 + 1,
  // raw_rows 1). The bag form must keep each genre's copy of the row
  // (bindings 1 + 2, raw_rows 2).
  auto db = BuildPaperDatabase();
  ASSERT_TRUE(db.ok());
  struct Expected {
    const char* sql;
    size_t bindings, raw_rows, rows;
  };
  for (const Expected& want :
       {Expected{"select distinct MV.title from MOVIE MV, GENRE GN where "
                 "MV.mid=GN.mid and MV.mid=5",
                 2, 1, 1},
        Expected{"select MV.title from MOVIE MV, GENRE GN where "
                 "MV.mid=GN.mid and MV.mid=5",
                 3, 2, 2}}) {
    auto query = ParseSelectQuery(want.sql);
    ASSERT_TRUE(query.ok()) << want.sql << ": " << query.status();
    Executor executor(&*db);
    ExecutorStats stats;
    auto result = executor.Execute(*query, &stats);
    ASSERT_TRUE(result.ok()) << want.sql << ": " << result.status();
    EXPECT_EQ(stats.disjuncts, 1u) << want.sql;
    EXPECT_EQ(stats.bindings, want.bindings) << want.sql;
    EXPECT_EQ(stats.raw_rows, want.raw_rows) << want.sql;
    EXPECT_EQ(result->num_rows(), want.rows) << want.sql;
  }
}

TEST(ExecutorStatsAttributionTest, RegistryAndTraceMirrorStatsDeltas) {
  auto db = BuildPaperDatabase();
  ASSERT_TRUE(db.ok());
  PersonalizationOutcome outcome = PaperOutcome();
  ASSERT_TRUE(outcome.mq.has_value());

  obs::RequestTrace trace;
  Executor executor(&*db);
  executor.set_trace(&trace);
  ExecutorStats stats;
  ASSERT_TRUE(executor.Execute(*outcome.mq, &stats).ok());
  const obs::TraceSpan* span = trace.FindSpan("execution");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->counter("disjuncts"), stats.disjuncts);
  EXPECT_EQ(span->counter("bindings"), stats.bindings);
  // One "part" child span per MQ part.
  size_t part_spans = 0;
  for (const obs::TraceSpan& s : trace.spans()) {
    if (s.name == "part") ++part_spans;
  }
  EXPECT_EQ(part_spans, outcome.mq->parts().size());

  // The service adds each executed request's stats to its qp_exec_*
  // series, which accumulate across requests just like the struct does.
  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  PersonalizationService service(&*db, options);
  QP_ASSERT_OK(service.profiles().Put("julie", JulieProfile()));
  PersonalizationRequest request;
  request.user_id = "julie";
  request.query = TonightQuery();
  request.options.criterion = InterestCriterion::TopCount(3);
  request.options.integration.min_satisfied = 2;
  for (const PersonalizationResponse& response :
       service.PersonalizeBatchAndWait({request, request})) {
    QP_ASSERT_OK(response.status);
    ASSERT_TRUE(response.outcome.mq.has_value());
  }
  EXPECT_EQ(registry.counter("qp_exec_disjuncts_total")->Value(),
            2 * stats.disjuncts);
  EXPECT_EQ(registry.counter("qp_exec_bindings_total")->Value(),
            2 * stats.bindings);
  EXPECT_EQ(registry.counter("qp_exec_raw_rows_total")->Value(),
            2 * stats.raw_rows);
}

}  // namespace
}  // namespace qp
