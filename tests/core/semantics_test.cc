#include "qp/core/semantics.h"

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/core/personalizer.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/query/sql_parser.h"

namespace qp {
namespace {

TEST(AssociationFilterTest, ReflexiveAndSymmetric) {
  SemanticFilter filter;
  EXPECT_TRUE(filter.Associated(Value::Str("x"), Value::Str("x")));
  EXPECT_FALSE(filter.Associated(Value::Str("x"), Value::Str("y")));
  filter.AddAssociation(Value::Str("x"), Value::Str("y"));
  EXPECT_TRUE(filter.Associated(Value::Str("x"), Value::Str("y")));
  EXPECT_TRUE(filter.Associated(Value::Str("y"), Value::Str("x")));
  EXPECT_FALSE(filter.Associated(Value::Str("y"), Value::Str("z")));
}

class SemanticSelectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = MovieSchema();
    auto graph = PersonalizationGraph::Build(&schema_, JulieProfile());
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<PersonalizationGraph>(std::move(graph).value());
    selector_ = std::make_unique<PreferenceSelector>(graph_.get());
    // The paper's example: W. Allen is semantically related to comedies;
    // (M. Tarkowski would be semantically conflicting — he is simply not
    // associated, so the filter drops him.)
    filter_.AddAssociation(Value::Str("comedy"), Value::Str("W. Allen"));
    filter_.AddAssociation(Value::Str("comedy"), Value::Str("D. Lynch"));
  }

  SelectQuery ComedyQuery() {
    auto q = ParseSelectQuery(
        "select MV.title from MOVIE MV, GENRE GN where MV.mid=GN.mid and "
        "GN.genre='comedy'");
    return std::move(q).value();
  }

  Schema schema_;
  std::unique_ptr<PersonalizationGraph> graph_;
  std::unique_ptr<PreferenceSelector> selector_;
  SemanticFilter filter_;
};

TEST_F(SemanticSelectionTest, FilterNarrowsSelection) {
  // Without the filter, Julie's actors and directors are all related to a
  // comedy query; with it, only the associated directors survive.
  auto unfiltered =
      selector_->Select(ComedyQuery(), InterestCriterion::TopCount(50));
  ASSERT_TRUE(unfiltered.ok());
  SelectionStats stats;
  auto filtered = selector_->Select(
      ComedyQuery(), InterestCriterion::TopCount(50), &stats, &filter_);
  ASSERT_TRUE(filtered.ok());

  EXPECT_LT(filtered->size(), unfiltered->size());
  EXPECT_GT(stats.pruned_semantic, 0u);
  for (const PreferencePath& path : *filtered) {
    const Value& value = path.selection()->value;
    EXPECT_TRUE(value == Value::Str("W. Allen") ||
                value == Value::Str("D. Lynch") ||
                value == Value::Str("comedy"))
        << path.ToString();
  }
}

TEST_F(SemanticSelectionTest, SemanticOutputIsSubsetOfSyntactic) {
  // The paper's containment claim: semantically related preferences are a
  // subset of the syntactically related ones.
  auto syntactic =
      selector_->Select(ComedyQuery(), InterestCriterion::TopCount(100));
  auto semantic = selector_->Select(
      ComedyQuery(), InterestCriterion::TopCount(100), nullptr, &filter_);
  ASSERT_TRUE(syntactic.ok());
  ASSERT_TRUE(semantic.ok());
  for (const PreferencePath& path : *semantic) {
    bool found = false;
    for (const PreferencePath& other : *syntactic) {
      if (path.SameShape(other)) found = true;
    }
    EXPECT_TRUE(found) << path.ToString();
  }
}

TEST_F(SemanticSelectionTest, QueriesWithoutLiteralsAreUnconstrained) {
  auto query = ParseSelectQuery(
      "select MV.title from MOVIE MV, PLAY PL where MV.mid=PL.mid");
  ASSERT_TRUE(query.ok());
  auto filtered = selector_->Select(
      *query, InterestCriterion::TopCount(100), nullptr, &filter_);
  auto unfiltered =
      selector_->Select(*query, InterestCriterion::TopCount(100));
  ASSERT_TRUE(filtered.ok());
  ASSERT_TRUE(unfiltered.ok());
  EXPECT_EQ(filtered->size(), unfiltered->size());
}

TEST_F(SemanticSelectionTest, AgreesWithBruteForceUnderFilter) {
  for (size_t k : {1u, 2u, 5u, 20u}) {
    auto fast = selector_->Select(
        ComedyQuery(), InterestCriterion::TopCount(k), nullptr, &filter_);
    auto slow = selector_->SelectBruteForce(
        ComedyQuery(), InterestCriterion::TopCount(k), nullptr, &filter_);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    ASSERT_EQ(fast->size(), slow->size()) << "K=" << k;
    for (size_t i = 0; i < fast->size(); ++i) {
      EXPECT_TRUE((*fast)[i].SameShape((*slow)[i])) << "K=" << k;
    }
  }
}

TEST_F(SemanticSelectionTest, EndToEndThroughPersonalizer) {
  auto db = BuildPaperDatabase();
  ASSERT_TRUE(db.ok());
  Personalizer personalizer(graph_.get());
  PersonalizationOptions options;
  options.criterion = InterestCriterion::TopCount(3);
  options.integration.min_satisfied = 1;
  options.semantic_filter = &filter_;
  PersonalizationOutcome outcome;
  auto result = personalizer.PersonalizeAndExecute(ComedyQuery(), options,
                                                   *db, &outcome);
  ASSERT_TRUE(result.ok()) << result.status();
  for (const PreferencePath& path : outcome.selected) {
    EXPECT_NE(path.selection()->value, Value::Str("N. Kidman"))
        << "unassociated actress selected";
  }
}

}  // namespace
}  // namespace qp
