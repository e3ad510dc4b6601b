// Tests for the soft-preference (proximity) extension: preferences like
// "movies from around 2002" expressed as near(MOVIE.year, 2002, width),
// whose per-row satisfaction scales the estimated degree of interest.

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/core/personalizer.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/query/sql_parser.h"
#include "qp/query/sql_writer.h"

namespace qp {
namespace {

TEST(NearConditionTest, SatisfactionDecaysLinearly) {
  AtomicCondition near =
      AtomicCondition::Near("MV", "year", Value::Int(2000), 10.0);
  EXPECT_DOUBLE_EQ(near.Satisfaction(Value::Int(2000)), 1.0);
  EXPECT_DOUBLE_EQ(near.Satisfaction(Value::Int(2005)), 0.5);
  EXPECT_DOUBLE_EQ(near.Satisfaction(Value::Int(1995)), 0.5);
  EXPECT_DOUBLE_EQ(near.Satisfaction(Value::Int(2010)), 0.0);
  EXPECT_DOUBLE_EQ(near.Satisfaction(Value::Int(2020)), 0.0);
  EXPECT_DOUBLE_EQ(near.Satisfaction(Value::Real(2001.0)), 0.9);
  EXPECT_DOUBLE_EQ(near.Satisfaction(Value::Null()), 0.0);
  EXPECT_DOUBLE_EQ(near.Satisfaction(Value::Str("2000")), 0.0);
}

TEST(NearConditionTest, SqlRenderingAndEquality) {
  AtomicCondition a =
      AtomicCondition::Near("MV", "year", Value::Int(1994), 5.0);
  EXPECT_EQ(a.ToSql(), "near(MV.year, 1994, 5)");
  EXPECT_TRUE(a.is_near());
  EXPECT_FALSE(a.is_selection());
  EXPECT_EQ(a.ReferencedVars(), (std::vector<std::string>{"MV"}));
  EXPECT_EQ(a, AtomicCondition::Near("MV", "year", Value::Int(1994), 5.0));
  EXPECT_NE(a, AtomicCondition::Near("MV", "year", Value::Int(1994), 6.0));
  EXPECT_NE(a, AtomicCondition::Selection("MV", "year", Value::Int(1994)));
}

TEST(NearConditionTest, ParserRoundTrip) {
  auto query = ParseSelectQuery(
      "select MV.title from MOVIE MV where near(MV.year, 1994, 5)");
  ASSERT_TRUE(query.ok()) << query.status();
  QP_EXPECT_OK(query->Validate(MovieSchema()));
  std::string sql = ToSql(*query);
  EXPECT_NE(sql.find("near(MV.year, 1994, 5)"), std::string::npos) << sql;
  auto reparsed = ParseSelectQuery(sql);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(ToSql(*reparsed), sql);
}

TEST(NearConditionTest, ValidationRules) {
  Schema schema = MovieSchema();
  auto on_string = ParseSelectQuery(
      "select MV.title from MOVIE MV where near(MV.title, 3, 1)");
  ASSERT_TRUE(on_string.ok());
  EXPECT_FALSE(on_string->Validate(schema).ok());
}

TEST(NearConditionTest, ExecutorFiltersAndRanksByCloseness) {
  auto db = BuildPaperDatabase();
  ASSERT_TRUE(db.ok());
  Executor executor(&*db);
  // Paper DB years: 2002, 2001, 2003, 2003, 2000, 1999.
  auto query = ParseSelectQuery(
      "select distinct MV.title, MV.year from MOVIE MV where "
      "near(MV.year, 2002, 3)");
  ASSERT_TRUE(query.ok());
  auto result = executor.Execute(*query);
  ASSERT_TRUE(result.ok()) << result.status();
  // Matching years: 2000..2003 inclusive-exclusive bounds: 2000 (1/3),
  // 2001 (2/3), 2002 (1), 2003 (2/3) -> 5 movies (1999 excluded).
  EXPECT_EQ(result->num_rows(), 5u);
  ASSERT_TRUE(result->has_satisfactions());
  for (size_t i = 0; i < result->num_rows(); ++i) {
    int64_t year = result->row(i)[1].as_int();
    double expected = 1.0 - std::abs(static_cast<double>(year - 2002)) / 3.0;
    EXPECT_NEAR(result->satisfaction(i), expected, 1e-12) << year;
  }
}

TEST(SoftPreferenceTest, ProfileEntryRoundTrip) {
  UserProfile profile;
  QP_ASSERT_OK(profile.Add(AtomicPreference::NearSelection(
      {"MOVIE", "year"}, Value::Int(2002), 4.0, 0.8)));
  EXPECT_EQ(profile.Serialize(), "[ near(MOVIE.year, 2002, 4), 0.8 ]\n");
  auto reparsed = UserProfile::Parse(profile.Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  ASSERT_EQ(reparsed->size(), 1u);
  const AtomicPreference& p = reparsed->preferences()[0];
  EXPECT_TRUE(p.is_near());
  EXPECT_EQ(p.value(), Value::Int(2002));
  EXPECT_DOUBLE_EQ(p.width(), 4.0);
  EXPECT_DOUBLE_EQ(p.doi(), 0.8);
  QP_EXPECT_OK(reparsed->Validate(MovieSchema()));
}

TEST(SoftPreferenceTest, ValidationRejectsBadNearPreferences) {
  Schema schema = MovieSchema();
  UserProfile non_numeric;
  QP_ASSERT_OK(non_numeric.Add(AtomicPreference::NearSelection(
      {"MOVIE", "title"}, Value::Int(3), 1.0, 0.5)));
  EXPECT_FALSE(non_numeric.Validate(schema).ok());

  UserProfile bad_width;
  QP_ASSERT_OK(bad_width.Add(AtomicPreference::NearSelection(
      {"MOVIE", "year"}, Value::Int(2000), 0.0, 0.5)));
  EXPECT_FALSE(bad_width.Validate(schema).ok());
}

class SoftPersonalizationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = MovieSchema();
    auto db = BuildPaperDatabase();
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<Database>(std::move(db).value());
  }

  /// Join skeleton + one soft year preference around 2002.
  UserProfile SoftProfile(double doi = 0.8, double width = 4.0) {
    UserProfile profile;
    for (const SchemaJoin& join : schema_.joins()) {
      (void)profile.Add(AtomicPreference::Join(join.left, join.right, 1.0));
      (void)profile.Add(AtomicPreference::Join(join.right, join.left, 1.0));
    }
    (void)profile.Add(AtomicPreference::NearSelection(
        {"MOVIE", "year"}, Value::Int(2002), width, doi));
    return profile;
  }

  Schema schema_;
  std::unique_ptr<Database> db_;
};

TEST_F(SoftPersonalizationTest, SoftPreferenceSelectedAndIntegrated) {
  UserProfile profile = SoftProfile();
  auto graph = PersonalizationGraph::Build(&schema_, profile);
  ASSERT_TRUE(graph.ok()) << graph.status();
  Personalizer personalizer(&*graph);

  PersonalizationOptions options;
  options.criterion = InterestCriterion::TopCount(1);
  options.integration.min_satisfied = 1;

  PersonalizationOutcome outcome;
  auto result = personalizer.PersonalizeAndExecute(TonightQuery(), options,
                                                   *db_, &outcome);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(outcome.selected.size(), 1u);
  EXPECT_NE(outcome.selected[0].ConditionString().find("near(MOVIE.year"),
            std::string::npos);
  // The rewritten SQL carries the near condition.
  std::string sql = ToSql(*outcome.mq);
  EXPECT_NE(sql.find("near(MV.year, 2002, 4)"), std::string::npos) << sql;

  // Years within (1998, 2006): all six movies... 1999 has sat 0.25; the
  // ranking must be ordered by closeness to 2002.
  ASSERT_GE(result->num_rows(), 3u);
  int64_t previous_distance = -1;
  (void)previous_distance;
  for (size_t i = 1; i < result->num_rows(); ++i) {
    EXPECT_GE(result->degrees()[i - 1], result->degrees()[i]);
  }
  // Top row is a 2002 movie with full degree 0.8.
  EXPECT_NEAR(result->degrees()[0], 0.8, 1e-12);
}

TEST_F(SoftPersonalizationTest, DegreeScalesWithDistance) {
  UserProfile profile = SoftProfile(/*doi=*/1.0, /*width=*/4.0);
  auto graph = PersonalizationGraph::Build(&schema_, profile);
  ASSERT_TRUE(graph.ok());
  Personalizer personalizer(&*graph);
  PersonalizationOptions options;
  options.criterion = InterestCriterion::TopCount(1);
  options.integration.min_satisfied = 1;
  auto result =
      personalizer.PersonalizeAndExecute(TonightQuery(), options, *db_);
  ASSERT_TRUE(result.ok());
  // Expected degrees: |year-2002| of {0:1, 1:0.75, 2:0.5, 3:0.25}.
  for (size_t i = 0; i < result->num_rows(); ++i) {
    double d = result->degrees()[i];
    EXPECT_TRUE(std::abs(d - 1.0) < 1e-9 || std::abs(d - 0.75) < 1e-9 ||
                std::abs(d - 0.5) < 1e-9 || std::abs(d - 0.25) < 1e-9)
        << d;
  }
}

TEST_F(SoftPersonalizationTest, MqSoftDegreesMatchTheOracle) {
  UserProfile profile = SoftProfile();
  // A second preference so the compound has two parts, one of them soft.
  (void)profile.Add(AtomicPreference::Selection(
      {"GENRE", "genre"}, Value::Str("comedy"), 0.7));
  auto graph = PersonalizationGraph::Build(&schema_, profile);
  ASSERT_TRUE(graph.ok());
  Personalizer personalizer(&*graph);
  PersonalizationOptions options;
  options.criterion = InterestCriterion::TopCount(2);
  options.integration.min_satisfied = 1;
  auto outcome = personalizer.Personalize(TonightQuery(), options);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->mq.has_value());
  ASSERT_EQ(outcome->mq->parts().size(), 2u);

  Executor executor(db_.get());
  auto result = executor.Execute(*outcome->mq);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->num_rows(), 0u);
  EXPECT_EQ(testing_util::ExactString(*result),
            testing_util::ExactString(
                testing_util::ReferenceExecute(*db_, *outcome->mq)));
}

TEST_F(SoftPersonalizationTest, SoftPreferenceWorksInSqForm) {
  // Unlike dislikes, positive soft preferences are expressible in SQ: the
  // near condition simply joins the complex qualification (results are
  // unranked, as SQ results always are).
  UserProfile profile = SoftProfile();
  (void)profile.Add(AtomicPreference::Selection(
      {"GENRE", "genre"}, Value::Str("comedy"), 0.7));
  auto graph = PersonalizationGraph::Build(&schema_, profile);
  ASSERT_TRUE(graph.ok());
  Personalizer personalizer(&*graph);
  PersonalizationOptions options;
  options.criterion = InterestCriterion::TopCount(2);
  options.integration.min_satisfied = 1;
  options.approach = IntegrationApproach::kSingleQuery;
  PersonalizationOutcome outcome;
  auto sq_result = personalizer.PersonalizeAndExecute(TonightQuery(), options,
                                                      *db_, &outcome);
  ASSERT_TRUE(sq_result.ok()) << sq_result.status();
  ASSERT_TRUE(outcome.sq.has_value());

  options.approach = IntegrationApproach::kMultipleQueries;
  auto mq_result =
      personalizer.PersonalizeAndExecute(TonightQuery(), options, *db_);
  ASSERT_TRUE(mq_result.ok());
  EXPECT_TRUE(
      testing_util::SameRows(sq_result->rows(), mq_result->rows()));
}

TEST_F(SoftPersonalizationTest, SoftNegativePreferenceDemotes) {
  // Dislike of films from around 1999 as a *soft* dislike.
  UserProfile profile = SoftProfile();
  (void)profile.Add(AtomicPreference::NearSelection(
      {"MOVIE", "year"}, Value::Int(1999), 3.0, -0.9));
  auto graph = PersonalizationGraph::Build(&schema_, profile);
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_EQ(graph->num_negative_selection_edges(), 1u);
  Personalizer personalizer(&*graph);
  PersonalizationOptions options;
  options.criterion = InterestCriterion::TopCount(1);
  options.integration.min_satisfied = 1;
  options.max_negative = 3;
  auto result =
      personalizer.PersonalizeAndExecute(TonightQuery(), options, *db_);
  ASSERT_TRUE(result.ok()) << result.status();
  // 'Dream Theatre' (1999) satisfies the dislike fully and sinks to the
  // bottom of the ranked list.
  ASSERT_GE(result->num_rows(), 2u);
  EXPECT_EQ(result->row(result->num_rows() - 1)[0],
            Value::Str("Dream Theatre"));
}

}  // namespace
}  // namespace qp
