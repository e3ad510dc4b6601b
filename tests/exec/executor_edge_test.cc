// Edge-case and failure-injection tests for the executor beyond the main
// suites: unusual qualifications, oracle cross-checks, and annotation
// plumbing.

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/exec/executor.h"
#include "qp/query/sql_parser.h"

namespace qp {
namespace {

using testing_util::SameRows;

class ExecutorEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = BuildPaperDatabase();
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<Database>(std::move(db).value());
    executor_ = std::make_unique<Executor>(db_.get());
  }

  SelectQuery Parse(const std::string& sql) {
    auto q = ParseSelectQuery(sql);
    EXPECT_TRUE(q.ok()) << q.status();
    return std::move(q).value();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorEdgeTest, SelfJoinWithTwoVariables) {
  // Two variables over ACTOR: pairs of distinct actors in the same movie.
  auto result = executor_->Execute(Parse(
      "select A1.name, A2.name from ACTOR A1, ACTOR A2, CAST C1, CAST C2 "
      "where C1.aid=A1.aid and C2.aid=A2.aid and C1.mid=C2.mid and "
      "A1.name='N. Kidman' and A2.name='A. Hopkins'"));
  ASSERT_TRUE(result.ok()) << result.status();
  // They co-star only in 'The Quiet Comedy' (movie 0).
  EXPECT_EQ(result->num_rows(), 1u);
}

TEST_F(ExecutorEdgeTest, ProjectionOnlyVariableStillJoins) {
  // GN appears only in the projection of the distinct query: it must not
  // be dropped from the disjunct's variable subset.
  auto result = executor_->Execute(Parse(
      "select distinct GN.genre from MOVIE MV, GENRE GN where "
      "MV.mid=GN.mid and MV.year=2003"));
  ASSERT_TRUE(result.ok());
  // 2003 movies: Night Chase (thriller), Space Odyssey (sci-fi).
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST_F(ExecutorEdgeTest, RedundantDuplicateAtomsAreHarmless) {
  auto a = executor_->Execute(Parse(
      "select MV.title from MOVIE MV where MV.year=2003 and MV.year=2003"));
  auto b = executor_->Execute(
      Parse("select MV.title from MOVIE MV where MV.year=2003"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(SameRows(a->rows(), b->rows()));
}

TEST_F(ExecutorEdgeTest, OrAcrossDifferentVariables) {
  auto result = executor_->Execute(Parse(
      "select distinct MV.title from MOVIE MV, GENRE GN, DIRECTED DD, "
      "DIRECTOR DI where MV.mid=GN.mid and MV.mid=DD.mid and "
      "DD.did=DI.did and (GN.genre='sci-fi' or DI.name='W. Allen')"));
  ASSERT_TRUE(result.ok()) << result.status();
  // sci-fi: Space Odyssey; W. Allen: Laugh Lines, Dream Theatre.
  EXPECT_EQ(result->num_rows(), 3u);
}

TEST_F(ExecutorEdgeTest, NestedLoopCompoundMatchesHashJoin) {
  // The oracle evaluates each part by nested loops over every row.
  CompoundQuery compound;
  SelectQuery part1 = Parse(
      "select distinct MV.title from MOVIE MV, GENRE GN where "
      "MV.mid=GN.mid and GN.genre='comedy'");
  part1.set_distinct(true);
  SelectQuery part2 = Parse(
      "select distinct MV.title from MOVIE MV, CAST CA, ACTOR AC where "
      "MV.mid=CA.mid and CA.aid=AC.aid and AC.name='N. Kidman'");
  part2.set_distinct(true);
  compound.AddPart(part1, 0.8);
  compound.AddPart(part2, 0.7);
  compound.set_having(HavingClause::CountAtLeast(1));
  compound.set_order_by_degree(true);

  auto result = executor_->Execute(compound);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(testing_util::ExactString(*result),
            testing_util::ExactString(
                testing_util::ReferenceExecute(*db_, compound)));
}

TEST_F(ExecutorEdgeTest, NearCombinedWithEqualityOnSameVariable) {
  auto result = executor_->Execute(Parse(
      "select distinct MV.title from MOVIE MV, GENRE GN where "
      "MV.mid=GN.mid and GN.genre='comedy' and near(MV.year, 2002, 2)"));
  ASSERT_TRUE(result.ok()) << result.status();
  // Comedies: 2002 (Quiet Comedy, sat 1), 2001 (Laugh Lines, 0.5),
  // 1999 (Dream Theatre, out of range).
  EXPECT_EQ(result->num_rows(), 2u);
  ASSERT_TRUE(result->has_satisfactions());
}

TEST_F(ExecutorEdgeTest, NearInDisjunction) {
  SelectQuery query = Parse(
      "select distinct MV.title from MOVIE MV where "
      "near(MV.year, 1999, 1) or MV.year=2003");
  auto result = executor_->Execute(query);
  ASSERT_TRUE(result.ok()) << result.status();
  // 1999: Dream Theatre; 2003: Night Chase, Space Odyssey.
  EXPECT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(testing_util::ExactString(*result),
            testing_util::ExactString(
                testing_util::ReferenceExecute(*db_, query)));
}

TEST_F(ExecutorEdgeTest, TruncateAnnotatedResult) {
  CompoundQuery compound;
  SelectQuery part = Parse("select distinct MV.title from MOVIE MV");
  part.set_distinct(true);
  compound.AddPart(part, 0.5);
  compound.set_order_by_degree(true);
  auto result = executor_->Execute(compound);
  ASSERT_TRUE(result.ok());
  size_t before = result->num_rows();
  ASSERT_GT(before, 2u);
  result->Truncate(2);
  EXPECT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->degrees().size(), 2u);
  EXPECT_EQ(result->counts().size(), 2u);
  result->Truncate(10);  // No-op when already smaller.
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST_F(ExecutorEdgeTest, ExclusionArityMismatchRejected) {
  CompoundQuery compound;
  SelectQuery part = Parse("select distinct MV.title from MOVIE MV");
  part.set_distinct(true);
  compound.AddPart(part, 0.5);
  SelectQuery exclusion =
      Parse("select MV.title, MV.year from MOVIE MV where MV.year=1999");
  compound.AddExclusion(exclusion);
  EXPECT_FALSE(executor_->Execute(compound).ok());
}

TEST_F(ExecutorEdgeTest, PartProjectionColumnMismatchRejected) {
  // Parts are grouped by value, so every part must project the same table
  // column at each position, resolved through its own aliases.
  SelectQuery titles = Parse("select distinct MV.title from MOVIE MV");
  SelectQuery renamed = Parse("select distinct M2.title from MOVIE M2");
  SelectQuery other_column = Parse(
      "select distinct MV.year from MOVIE MV where MV.year=1999");
  SelectQuery other_table = Parse(
      "select distinct AC.name from MOVIE MV, CAST CA, ACTOR AC where "
      "MV.mid=CA.mid and CA.aid=AC.aid");

  CompoundQuery same;
  same.AddPart(titles, 0.5);
  same.AddPart(renamed, 0.4);
  EXPECT_TRUE(executor_->Execute(same).ok());

  for (const SelectQuery* mismatch : {&other_column, &other_table}) {
    CompoundQuery compound;
    compound.AddPart(titles, 0.5);
    compound.AddPart(*mismatch, 0.4);
    auto result = executor_->Execute(compound);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(ExecutorEdgeTest, StringIndexLookupWithDates) {
  auto result = executor_->Execute(Parse(
      "select PL.mid from PLAY PL where PL.date='3/7/2003'"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1u);
}

}  // namespace
}  // namespace qp
