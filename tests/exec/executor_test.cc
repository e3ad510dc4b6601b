#include "qp/exec/executor.h"

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/data/workload.h"
#include "qp/query/sql_parser.h"

namespace qp {
namespace {

using testing_util::ExactString;
using testing_util::ReferenceExecute;

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = BuildPaperDatabase();
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::make_unique<Database>(std::move(db).value());
    executor_ = std::make_unique<Executor>(db_.get());
  }

  ResultSet Run(const std::string& sql) {
    auto query = ParseSelectQuery(sql);
    EXPECT_TRUE(query.ok()) << query.status();
    auto result = executor_->Execute(*query);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result).value();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorTest, SimpleScan) {
  ResultSet r = Run("select MV.title from MOVIE MV");
  EXPECT_EQ(r.num_rows(), 6u);
  EXPECT_EQ(r.columns(), (std::vector<std::string>{"MV.title"}));
}

TEST_F(ExecutorTest, SelectionFilters) {
  ResultSet r = Run("select MV.title from MOVIE MV where MV.year=2003");
  EXPECT_EQ(r.num_rows(), 2u);
  EXPECT_TRUE(r.Contains({Value::Str("Night Chase")}));
  EXPECT_TRUE(r.Contains({Value::Str("Space Odyssey")}));
}

TEST_F(ExecutorTest, SelectionNoMatches) {
  ResultSet r = Run("select MV.title from MOVIE MV where MV.year=1900");
  EXPECT_EQ(r.num_rows(), 0u);
}

TEST_F(ExecutorTest, ContradictorySelectionsYieldNothing) {
  ResultSet r = Run(
      "select MV.title from MOVIE MV where MV.year=2003 and MV.year=2001");
  EXPECT_EQ(r.num_rows(), 0u);
}

TEST_F(ExecutorTest, JoinTwoTables) {
  ResultSet r = Run(
      "select MV.title from MOVIE MV, GENRE GN where MV.mid=GN.mid and "
      "GN.genre='comedy'");
  EXPECT_EQ(r.num_rows(), 3u);
  EXPECT_TRUE(r.Contains({Value::Str("The Quiet Comedy")}));
  EXPECT_TRUE(r.Contains({Value::Str("Laugh Lines")}));
  EXPECT_TRUE(r.Contains({Value::Str("Dream Theatre")}));
}

TEST_F(ExecutorTest, TonightQueryMatchesPaper) {
  auto result = executor_->Execute(TonightQuery());
  ASSERT_TRUE(result.ok());
  // All six movies play on 2/7/2003.
  EXPECT_EQ(result->num_rows(), 6u);
}

TEST_F(ExecutorTest, ThreeWayJoinChain) {
  ResultSet r = Run(
      "select MV.title from MOVIE MV, CAST CA, ACTOR AC where "
      "MV.mid=CA.mid and CA.aid=AC.aid and AC.name='N. Kidman'");
  EXPECT_EQ(r.num_rows(), 3u);
  EXPECT_TRUE(r.Contains({Value::Str("The Quiet Comedy")}));
  EXPECT_TRUE(r.Contains({Value::Str("Night Chase")}));
  EXPECT_TRUE(r.Contains({Value::Str("Dream Theatre")}));
}

TEST_F(ExecutorTest, DistinctCollapsesDuplicates) {
  // Dream Theatre has two genres; without distinct it appears twice.
  ResultSet plain = Run(
      "select MV.title from MOVIE MV, GENRE GN where MV.mid=GN.mid and "
      "MV.mid=5");
  EXPECT_EQ(plain.num_rows(), 2u);
  ResultSet distinct = Run(
      "select distinct MV.title from MOVIE MV, GENRE GN where "
      "MV.mid=GN.mid and MV.mid=5");
  EXPECT_EQ(distinct.num_rows(), 1u);
}

TEST_F(ExecutorTest, DisjunctionOfSelections) {
  ResultSet r = Run(
      "select distinct MV.title from MOVIE MV, GENRE GN where "
      "MV.mid=GN.mid and (GN.genre='sci-fi' or GN.genre='thriller')");
  EXPECT_EQ(r.num_rows(), 2u);
  EXPECT_TRUE(r.Contains({Value::Str("Night Chase")}));
  EXPECT_TRUE(r.Contains({Value::Str("Space Odyssey")}));
}

TEST_F(ExecutorTest, JuliePersonalizedSqExample) {
  // The SQ query of Section 6 (adapted degrees): comedies by D. Lynch or
  // with N. Kidman etc. — here the L=2-of-3 disjunction.
  ResultSet r = Run(
      "select distinct MV.title from MOVIE MV, PLAY PL, GENRE GN, CAST CA,"
      " ACTOR AC, DIRECTED DD, DIRECTOR DI where MV.mid=PL.mid and "
      "PL.date='2/7/2003' and ((MV.mid=GN.mid and GN.genre='comedy' and "
      "MV.mid=CA.mid and CA.aid=AC.aid and AC.name='N. Kidman') or "
      "(MV.mid=CA.mid and CA.aid=AC.aid and AC.name='N. Kidman' and "
      "MV.mid=DD.mid and DD.did=DI.did and DI.name='D. Lynch') or "
      "(MV.mid=GN.mid and GN.genre='comedy' and MV.mid=DD.mid and "
      "DD.did=DI.did and DI.name='D. Lynch'))");
  EXPECT_EQ(r.num_rows(), 3u);
  EXPECT_TRUE(r.Contains({Value::Str("The Quiet Comedy")}));
  EXPECT_TRUE(r.Contains({Value::Str("Night Chase")}));
  EXPECT_TRUE(r.Contains({Value::Str("Dream Theatre")}));
}

TEST_F(ExecutorTest, CrossProductWhenDisconnected) {
  ResultSet r = Run(
      "select AC.name, DI.name from ACTOR AC, DIRECTOR DI where "
      "AC.name='N. Kidman'");
  EXPECT_EQ(r.num_rows(), 4u);  // 1 actor x 4 directors.
}

TEST_F(ExecutorTest, EmptyTableEmptiesProduct) {
  Database db(MovieSchema());  // All tables empty.
  QP_ASSERT_OK(db.Insert("MOVIE", {Value::Int(1), Value::Str("Only Movie"),
                                   Value::Int(2000)}));
  Executor ex(&db);
  auto q = ParseSelectQuery(
      "select MV.title from MOVIE MV, PLAY PL where MV.mid=PL.mid");
  auto r = ex.Execute(*q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0u);
}

TEST_F(ExecutorTest, InvalidQueryRejected) {
  auto q = ParseSelectQuery("select MV.title from MOVIE MV where MV.zz=1");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(executor_->Execute(*q).ok());
}

TEST_F(ExecutorTest, StatsPopulated) {
  ExecutorStats stats;
  auto q = ParseSelectQuery(
      "select MV.title from MOVIE MV, GENRE GN where MV.mid=GN.mid");
  auto r = executor_->Execute(*q, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.disjuncts, 1u);
  EXPECT_GT(stats.bindings, 0u);
}

TEST_F(ExecutorTest, NestedLoopAgreesWithHashJoin) {
  // The oracle joins by nested loops over every row; the executor probes
  // the key indexes.
  auto q = ParseSelectQuery(
      "select distinct MV.title from MOVIE MV, CAST CA, ACTOR AC where "
      "MV.mid=CA.mid and CA.aid=AC.aid and AC.name='N. Kidman'");
  auto hash = executor_->Execute(*q);
  ASSERT_TRUE(hash.ok());
  EXPECT_EQ(ExactString(*hash), ExactString(ReferenceExecute(*db_, *q)));
}

TEST_F(ExecutorTest, AgainstReferenceOnHandQueries) {
  const char* queries[] = {
      "select MV.title from MOVIE MV",
      "select MV.title from MOVIE MV where MV.year=2003",
      "select distinct MV.title from MOVIE MV, GENRE GN where "
      "MV.mid=GN.mid",
      "select MV.title from MOVIE MV, GENRE GN where MV.mid=GN.mid and "
      "GN.genre='comedy'",
      "select distinct MV.title from MOVIE MV, PLAY PL, THEATRE TH where "
      "MV.mid=PL.mid and PL.tid=TH.tid and TH.region='downtown'",
      "select MV.title from MOVIE MV, PLAY PL where MV.mid=PL.mid and "
      "(PL.date='2/7/2003' or PL.date='3/7/2003')",
  };
  for (const char* sql : queries) {
    auto q = ParseSelectQuery(sql);
    ASSERT_TRUE(q.ok()) << sql;
    auto got = executor_->Execute(*q);
    ASSERT_TRUE(got.ok()) << got.status() << "\n" << sql;
    EXPECT_EQ(ExactString(*got), ExactString(ReferenceExecute(*db_, *q)))
        << sql;
  }
}

// Property: executor output equals the brute-force oracle's on random
// workload queries over a small generated database.
class ExecutorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorPropertyTest, MatchesReferenceOnRandomQueries) {
  MovieDbConfig config;
  config.num_movies = 30;
  config.num_actors = 15;
  config.num_directors = 8;
  config.num_theatres = 4;
  config.num_days = 3;
  config.plays_per_theatre_per_day = 2;
  config.seed = GetParam();
  auto db = GenerateMovieDatabase(config);
  ASSERT_TRUE(db.ok()) << db.status();
  Executor executor(&*db);
  WorkloadGenerator workload(&*db, GetParam() * 31 + 7);

  for (int i = 0; i < 15; ++i) {
    auto query = workload.RandomQuery();
    ASSERT_TRUE(query.ok()) << query.status();
    auto got = executor.Execute(*query);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(ExactString(*got), ExactString(ReferenceExecute(*db, *query)))
        << "seed=" << GetParam() << " query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace qp
