#include "qp/core/integration.h"

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/core/conflict.h"
#include "qp/core/selection.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/data/workload.h"
#include "qp/exec/executor.h"
#include "qp/query/sql_parser.h"
#include "qp/query/sql_writer.h"

namespace qp {
namespace {

using testing_util::SameRows;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = MovieSchema();
    auto graph = PersonalizationGraph::Build(&schema_, JulieProfile());
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<PersonalizationGraph>(std::move(graph).value());
    selector_ = std::make_unique<PreferenceSelector>(graph_.get());
    auto db = BuildPaperDatabase();
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<Database>(std::move(db).value());
  }

  std::vector<PreferencePath> TopK(size_t k) {
    auto selected =
        selector_->Select(TonightQuery(), InterestCriterion::TopCount(k));
    EXPECT_TRUE(selected.ok()) << selected.status();
    return std::move(selected).value();
  }

  Schema schema_;
  std::unique_ptr<PersonalizationGraph> graph_;
  std::unique_ptr<PreferenceSelector> selector_;
  std::unique_ptr<Database> db_;
  PreferenceIntegrator integrator_;
};

TEST_F(IntegrationTest, SqStructureForPaperExample) {
  IntegrationParams params;
  params.min_satisfied = 2;  // L = 2 of the top K = 3, M = 0.
  auto sq = integrator_.BuildSingleQuery(TonightQuery(), TopK(3), params);
  ASSERT_TRUE(sq.ok()) << sq.status();

  EXPECT_TRUE(sq->distinct());
  QP_EXPECT_OK(sq->Validate(schema_));
  // Original MV, PL plus GENRE, DIRECTED, DIRECTOR, CAST, ACTOR.
  EXPECT_EQ(sq->from().size(), 7u);
  // Where: original 2 atoms AND an OR of C(3,2)=3 conjunctions.
  ASSERT_EQ(sq->where()->kind(), ConditionNode::Kind::kAnd);
  const auto& top = sq->where()->children();
  ASSERT_EQ(top.back()->kind(), ConditionNode::Kind::kOr);
  EXPECT_EQ(top.back()->children().size(), 3u);
}

TEST_F(IntegrationTest, SqExecutesToPaperResult) {
  IntegrationParams params;
  params.min_satisfied = 2;
  auto sq = integrator_.BuildSingleQuery(TonightQuery(), TopK(3), params);
  ASSERT_TRUE(sq.ok());
  Executor executor(db_.get());
  auto result = executor.Execute(*sq);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_rows(), 3u);
  EXPECT_TRUE(result->Contains({Value::Str("The Quiet Comedy")}));
  EXPECT_TRUE(result->Contains({Value::Str("Night Chase")}));
  EXPECT_TRUE(result->Contains({Value::Str("Dream Theatre")}));
}

TEST_F(IntegrationTest, MqStructureForPaperExample) {
  IntegrationParams params;
  params.min_satisfied = 2;
  auto mq = integrator_.BuildMultipleQueries(TonightQuery(), TopK(3), params);
  ASSERT_TRUE(mq.ok()) << mq.status();
  QP_EXPECT_OK(mq->Validate(schema_));

  ASSERT_EQ(mq->parts().size(), 3u);  // K - M partial queries.
  EXPECT_NEAR(mq->parts()[0].degree, 0.81, 1e-12);
  EXPECT_NEAR(mq->parts()[1].degree, 0.8, 1e-12);
  EXPECT_NEAR(mq->parts()[2].degree, 0.72, 1e-12);
  for (const CompoundPart& part : mq->parts()) {
    EXPECT_TRUE(part.query.distinct());
    // Original query vars plus this preference's chain only.
    EXPECT_GE(part.query.from().size(), 3u);
    EXPECT_LE(part.query.from().size(), 4u);
  }
  EXPECT_EQ(mq->having().kind, HavingClause::Kind::kCountAtLeast);
  EXPECT_EQ(mq->having().min_count, 2u);
  EXPECT_TRUE(mq->order_by_degree());
}

TEST_F(IntegrationTest, MqExecutesToPaperResultRanked) {
  IntegrationParams params;
  params.min_satisfied = 2;
  auto mq = integrator_.BuildMultipleQueries(TonightQuery(), TopK(3), params);
  ASSERT_TRUE(mq.ok());
  Executor executor(db_.get());
  auto result = executor.Execute(*mq);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->num_rows(), 3u);
  // Ranked: Quiet Comedy satisfies all three preferences.
  EXPECT_EQ(result->row(0)[0], Value::Str("The Quiet Comedy"));
  EXPECT_EQ(result->counts()[0], 3u);
}

TEST_F(IntegrationTest, SqAndMqReturnSameRows) {
  for (size_t k : {1u, 2u, 3u, 5u}) {
    std::vector<PreferencePath> prefs = TopK(k);
    for (size_t l = 1; l <= prefs.size(); ++l) {
      IntegrationParams params;
      params.min_satisfied = l;
      auto sq = integrator_.BuildSingleQuery(TonightQuery(), prefs, params);
      auto mq =
          integrator_.BuildMultipleQueries(TonightQuery(), prefs, params);
      ASSERT_TRUE(sq.ok()) << sq.status();
      ASSERT_TRUE(mq.ok()) << mq.status();
      Executor executor(db_.get());
      auto sq_result = executor.Execute(*sq);
      auto mq_result = executor.Execute(*mq);
      ASSERT_TRUE(sq_result.ok());
      ASSERT_TRUE(mq_result.ok());
      EXPECT_TRUE(SameRows(sq_result->rows(), mq_result->rows()))
          << "K=" << k << " L=" << l << "\nSQ: " << ToSql(*sq);
    }
  }
}

TEST_F(IntegrationTest, MandatoryPreferencesRestrictEveryResult) {
  std::vector<PreferencePath> prefs = TopK(3);
  IntegrationParams params;
  params.mandatory_count = 1;  // comedy is mandatory.
  params.min_satisfied = 1;
  auto mq = integrator_.BuildMultipleQueries(TonightQuery(), prefs, params);
  ASSERT_TRUE(mq.ok()) << mq.status();
  EXPECT_EQ(mq->parts().size(), 2u);  // K - M.
  Executor executor(db_.get());
  auto result = executor.Execute(*mq);
  ASSERT_TRUE(result.ok());
  // Comedies satisfying >= 1 of {lynch, kidman}: Quiet Comedy (both),
  // Dream Theatre (kidman). Night Chase is not a comedy.
  EXPECT_EQ(result->num_rows(), 2u);
  EXPECT_FALSE(result->Contains({Value::Str("Night Chase")}));
}

TEST_F(IntegrationTest, MandatoryOnlyDegenerate) {
  std::vector<PreferencePath> prefs = TopK(2);
  IntegrationParams params;
  params.mandatory_count = 2;
  params.min_satisfied = 0;
  auto mq = integrator_.BuildMultipleQueries(TonightQuery(), prefs, params);
  ASSERT_TRUE(mq.ok()) << mq.status();
  ASSERT_EQ(mq->parts().size(), 1u);
  Executor executor(db_.get());
  auto result = executor.Execute(*mq);
  ASSERT_TRUE(result.ok());
  // Comedy AND D. Lynch: only The Quiet Comedy.
  EXPECT_EQ(result->num_rows(), 1u);
  EXPECT_TRUE(result->Contains({Value::Str("The Quiet Comedy")}));
}

TEST_F(IntegrationTest, ParameterValidation) {
  std::vector<PreferencePath> prefs = TopK(3);
  IntegrationParams params;
  params.mandatory_count = 4;  // M > K.
  EXPECT_EQ(integrator_.BuildSingleQuery(TonightQuery(), prefs, params)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  params.mandatory_count = 0;
  params.min_satisfied = 4;  // L > K - M.
  EXPECT_EQ(integrator_.BuildMultipleQueries(TonightQuery(), prefs, params)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IntegrationTest, MinDegreeOnlyInMq) {
  std::vector<PreferencePath> prefs = TopK(3);
  IntegrationParams params;
  params.min_degree = 0.75;
  EXPECT_EQ(integrator_.BuildSingleQuery(TonightQuery(), prefs, params)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto mq = integrator_.BuildMultipleQueries(TonightQuery(), prefs, params);
  ASSERT_TRUE(mq.ok()) << mq.status();
  EXPECT_EQ(mq->having().kind, HavingClause::Kind::kDegreeAbove);
  Executor executor(db_.get());
  auto result = executor.Execute(*mq);
  ASSERT_TRUE(result.ok());
  for (double degree : result->degrees()) {
    EXPECT_GT(degree, 0.75);
  }
}

TEST_F(IntegrationTest, EmptyPreferencesPassThrough) {
  IntegrationParams params;
  auto sq = integrator_.BuildSingleQuery(TonightQuery(), {}, params);
  ASSERT_TRUE(sq.ok());
  EXPECT_EQ(ToSql(*sq), ToSql(TonightQuery()));
  auto mq = integrator_.BuildMultipleQueries(TonightQuery(), {}, params);
  ASSERT_TRUE(mq.ok());
  EXPECT_EQ(mq->parts().size(), 1u);
  EXPECT_EQ(mq->having().kind, HavingClause::Kind::kNone);
}

TEST_F(IntegrationTest, SqCombinationCapEnforced) {
  std::vector<PreferencePath> prefs = TopK(9);
  ASSERT_GE(prefs.size(), 8u);
  IntegrationParams params;
  params.min_satisfied = 4;
  params.max_combinations = 10;  // C(9, 4) = 126 > 10.
  EXPECT_EQ(integrator_.BuildSingleQuery(TonightQuery(), prefs, params)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

// --- Tuple variable allocation rules (Section 6) ---

class VariableAllocationTest : public ::testing::Test {
 protected:
  void SetUp() override { schema_ = MovieSchema(); }

  /// Builds a profile with the given selection preferences (plus both
  /// directions of all joins at degree 1 so paths exist).
  PersonalizationGraph Graph(const std::vector<AtomicPreference>& prefs) {
    UserProfile profile;
    for (const SchemaJoin& join : schema_.joins()) {
      (void)profile.Add(AtomicPreference::Join(join.left, join.right, 1.0));
      (void)profile.Add(AtomicPreference::Join(join.right, join.left, 1.0));
    }
    for (const AtomicPreference& p : prefs) {
      (void)profile.Add(p);
    }
    auto graph = PersonalizationGraph::Build(&schema_, profile);
    EXPECT_TRUE(graph.ok()) << graph.status();
    return std::move(graph).value();
  }

  SelectQuery PlaysQuery() {
    auto q = ParseSelectQuery(
        "select PL.date from PLAY PL where PL.date='2/7/2003'");
    return std::move(q).value();
  }

  Schema schema_;
  PreferenceIntegrator integrator_;
};

TEST_F(VariableAllocationTest, ToOneChainsShareVariables) {
  // Two preferences through PLAY -> THEATRE (to-one): name and region.
  // The THEATRE variable must be shared (one extra variable, not two).
  PersonalizationGraph graph = Graph({
      AtomicPreference::Selection({"THEATRE", "region"},
                                  Value::Str("downtown"), 0.9),
      AtomicPreference::Selection({"THEATRE", "name"}, Value::Str("Odeon"),
                                  0.8),
  });
  PreferenceSelector selector(&graph);
  auto prefs =
      selector.Select(PlaysQuery(), InterestCriterion::TopCount(2));
  ASSERT_TRUE(prefs.ok());
  ASSERT_EQ(prefs->size(), 2u);

  IntegrationParams params;
  params.min_satisfied = 2;
  auto sq = integrator_.BuildSingleQuery(PlaysQuery(), *prefs, params);
  ASSERT_TRUE(sq.ok()) << sq.status();
  // PL + one shared THEATRE variable.
  EXPECT_EQ(sq->from().size(), 2u) << ToSql(*sq);
}

TEST_F(VariableAllocationTest, ToManyChainsGetFreshVariables) {
  // Two genre preferences through MOVIE -> GENRE (to-many): conjunction
  // must use two different GENRE variables (the "I. Rossellini and
  // A. Hopkins both star" case).
  PersonalizationGraph graph = Graph({
      AtomicPreference::Selection({"GENRE", "genre"}, Value::Str("comedy"),
                                  0.9),
      AtomicPreference::Selection({"GENRE", "genre"},
                                  Value::Str("thriller"), 0.8),
  });
  auto query = ParseSelectQuery("select MV.title from MOVIE MV where "
                                "MV.year=2000");
  ASSERT_TRUE(query.ok());
  PreferenceSelector selector(&graph);
  auto prefs = selector.Select(*query, InterestCriterion::TopCount(2));
  ASSERT_TRUE(prefs.ok());
  ASSERT_EQ(prefs->size(), 2u);

  IntegrationParams params;
  params.min_satisfied = 2;
  auto sq = integrator_.BuildSingleQuery(*query, *prefs, params);
  ASSERT_TRUE(sq.ok()) << sq.status();
  // MV + two distinct GENRE variables.
  EXPECT_EQ(sq->from().size(), 3u) << ToSql(*sq);
  QP_EXPECT_OK(sq->Validate(schema_));
}

TEST_F(VariableAllocationTest, ConflictingPairCannotBeConjoined) {
  // downtown vs uptown through the to-one PLAY -> THEATRE chain: L=2 has
  // no conflict-free combination.
  PersonalizationGraph graph = Graph({
      AtomicPreference::Selection({"THEATRE", "region"},
                                  Value::Str("downtown"), 0.9),
      AtomicPreference::Selection({"THEATRE", "region"},
                                  Value::Str("uptown"), 0.8),
  });
  PreferenceSelector selector(&graph);
  auto prefs =
      selector.Select(PlaysQuery(), InterestCriterion::TopCount(2));
  ASSERT_TRUE(prefs.ok());
  ASSERT_EQ(prefs->size(), 2u);

  IntegrationParams params;
  params.min_satisfied = 2;
  EXPECT_EQ(integrator_.BuildSingleQuery(PlaysQuery(), *prefs, params)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  // With L=1 the disjunction keeps them apart and integration succeeds.
  params.min_satisfied = 1;
  auto sq = integrator_.BuildSingleQuery(PlaysQuery(), *prefs, params);
  ASSERT_TRUE(sq.ok()) << sq.status();
}

TEST_F(VariableAllocationTest, ConflictingMandatoryFails) {
  PersonalizationGraph graph = Graph({
      AtomicPreference::Selection({"THEATRE", "region"},
                                  Value::Str("downtown"), 0.9),
      AtomicPreference::Selection({"THEATRE", "region"},
                                  Value::Str("uptown"), 0.8),
  });
  PreferenceSelector selector(&graph);
  auto prefs =
      selector.Select(PlaysQuery(), InterestCriterion::TopCount(2));
  ASSERT_TRUE(prefs.ok());
  IntegrationParams params;
  params.mandatory_count = 2;
  params.min_satisfied = 0;
  EXPECT_EQ(integrator_.BuildMultipleQueries(PlaysQuery(), *prefs, params)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// --- SQ == MQ equivalence on random inputs ---

class SqMqEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqMqEquivalenceTest, SameRowsOnRandomWorkload) {
  Schema schema = MovieSchema();
  MovieDbConfig config;
  config.num_movies = 60;
  config.num_actors = 30;
  config.num_directors = 12;
  config.num_theatres = 6;
  config.seed = GetParam();
  auto db = GenerateMovieDatabase(config);
  ASSERT_TRUE(db.ok());
  auto pools = MovieCandidatePools(*db);
  ASSERT_TRUE(pools.ok());
  ProfileGenerator profiles(&schema, std::move(pools).value());
  WorkloadGenerator workload(&*db, GetParam() + 5);
  Rng rng(GetParam() * 3 + 1);
  Executor executor(&*db);
  PreferenceIntegrator integrator;

  for (int trial = 0; trial < 6; ++trial) {
    ProfileGeneratorOptions options;
    options.num_selections = 15 + rng.Below(25);
    auto profile = profiles.Generate(options, &rng);
    ASSERT_TRUE(profile.ok());
    auto graph = PersonalizationGraph::Build(&schema, *profile);
    ASSERT_TRUE(graph.ok());
    PreferenceSelector selector(&*graph);
    auto query = workload.RandomQuery();
    ASSERT_TRUE(query.ok());

    size_t k = 2 + rng.Below(6);
    auto prefs = selector.Select(*query, InterestCriterion::TopCount(k));
    ASSERT_TRUE(prefs.ok());
    if (prefs->empty()) continue;
    // SQ and MQ are only strictly equivalent for conflict-free
    // selections: SQ drops conflicting combinations outright, while MQ's
    // count(*) can still reach L through different anchor tuples of the
    // same projected row. Conflict behaviour is covered by the targeted
    // tests above; restrict the property to the conflict-free case.
    bool has_conflict = false;
    for (size_t i = 0; i < prefs->size() && !has_conflict; ++i) {
      for (size_t j = i + 1; j < prefs->size(); ++j) {
        if (ConflictDetector::Conflicting((*prefs)[i], (*prefs)[j])) {
          has_conflict = true;
          break;
        }
      }
    }
    if (has_conflict) continue;
    size_t l = 1 + rng.Below(prefs->size());

    IntegrationParams params;
    params.min_satisfied = l;
    auto sq = integrator.BuildSingleQuery(*query, *prefs, params);
    auto mq = integrator.BuildMultipleQueries(*query, *prefs, params);
    if (!sq.ok()) {
      // Conflicting preferences can make L unsatisfiable; MQ still
      // builds but returns no rows for the conflicting combos — skip.
      ASSERT_EQ(sq.status().code(), StatusCode::kFailedPrecondition);
      continue;
    }
    ASSERT_TRUE(mq.ok()) << mq.status();

    auto sq_result = executor.Execute(*sq);
    auto mq_result = executor.Execute(*mq);
    ASSERT_TRUE(sq_result.ok()) << sq_result.status();
    ASSERT_TRUE(mq_result.ok()) << mq_result.status();
    EXPECT_TRUE(SameRows(sq_result->rows(), mq_result->rows()))
        << "trial " << trial << " K=" << prefs->size() << " L=" << l
        << "\nSQ: " << ToSql(*sq) << "\nMQ: " << ToSql(*mq);
    // And the SQ answer is the one the brute-force oracle reads off the
    // query's definition.
    EXPECT_EQ(testing_util::ExactString(*sq_result),
              testing_util::ExactString(
                  testing_util::ReferenceExecute(*db, *sq)))
        << "trial " << trial << "\nSQ: " << ToSql(*sq);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqMqEquivalenceTest,
                         ::testing::Values(61, 62, 63, 64));

}  // namespace
}  // namespace qp
