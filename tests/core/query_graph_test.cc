#include "qp/core/query_graph.h"

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/query/sql_parser.h"

namespace qp {
namespace {

class QueryGraphTest : public ::testing::Test {
 protected:
  void SetUp() override { schema_ = MovieSchema(); }

  QueryGraph Build(const std::string& sql) {
    auto query = ParseSelectQuery(sql);
    EXPECT_TRUE(query.ok()) << query.status();
    auto graph = QueryGraph::Build(*query, schema_);
    EXPECT_TRUE(graph.ok()) << graph.status();
    return std::move(graph).value();
  }

  TableId Table(const std::string& name) {
    return *schema_.FindTableId(name);
  }
  size_t Var(const QueryGraph& g, const std::string& alias) {
    return *g.FindVariable(alias);
  }
  uint32_t Column(const std::string& table, const std::string& column) {
    return schema_.ResolveAttribute({table, column})->column;
  }
  JoinId Join(const AttributeRef& from, const AttributeRef& to) {
    return *schema_.FindJoinId(*schema_.ResolveAttribute(from),
                               *schema_.ResolveAttribute(to));
  }

  Schema schema_;
};

TEST_F(QueryGraphTest, VariablesAndTables) {
  QueryGraph g = Build(
      "select MV.title from MOVIE MV, PLAY PL where MV.mid=PL.mid");
  EXPECT_EQ(g.variables().size(), 2u);
  EXPECT_EQ(g.TableOf(Var(g, "MV")), Table("MOVIE"));
  EXPECT_EQ(g.TableOf(Var(g, "PL")), Table("PLAY"));
  EXPECT_TRUE(g.UsesTable(Table("MOVIE")));
  EXPECT_TRUE(g.UsesTable(Table("PLAY")));
  EXPECT_FALSE(g.UsesTable(Table("GENRE")));
  EXPECT_FALSE(g.FindVariable("ZZ").has_value());
}

TEST_F(QueryGraphTest, SelectionsPerVariable) {
  QueryGraph g = Build(
      "select MV.title from MOVIE MV, PLAY PL where MV.mid=PL.mid and "
      "PL.date='2/7/2003' and MV.year=1999");
  ASSERT_EQ(g.SelectionsOn(Var(g, "PL")).size(), 1u);
  EXPECT_EQ(g.SelectionsOn(Var(g, "PL"))[0].column, Column("PLAY", "date"));
  EXPECT_EQ(g.SelectionsOn(Var(g, "PL"))[0].value, Value::Str("2/7/2003"));
  ASSERT_EQ(g.SelectionsOn(Var(g, "MV")).size(), 1u);
  EXPECT_EQ(g.SelectionsOn(Var(g, "MV"))[0].column, Column("MOVIE", "year"));
}

TEST_F(QueryGraphTest, NearConditionsAreNotEqualitySelections) {
  // A soft condition admits a neighbourhood, so it fixes no value a
  // preference could conflict with; the graph still builds.
  QueryGraph g = Build(
      "select MV.title from MOVIE MV where near(MV.year, 1994, 5) and "
      "MV.title='Heat'");
  ASSERT_EQ(g.SelectionsOn(Var(g, "MV")).size(), 1u);
  EXPECT_EQ(g.SelectionsOn(Var(g, "MV"))[0].column, Column("MOVIE", "title"));
}

TEST_F(QueryGraphTest, FollowJoinBothDirections) {
  QueryGraph g = Build(
      "select MV.title from MOVIE MV, PLAY PL where MV.mid=PL.mid");
  // From MV following MOVIE.mid=PLAY.mid reaches PL...
  auto to_pl =
      g.FollowJoin(Var(g, "MV"), Join({"MOVIE", "mid"}, {"PLAY", "mid"}));
  ASSERT_TRUE(to_pl.has_value());
  EXPECT_EQ(*to_pl, Var(g, "PL"));
  // ...and the reverse direction reaches MV, regardless of the atom's
  // left/right orientation in the SQL text.
  auto to_mv =
      g.FollowJoin(Var(g, "PL"), Join({"PLAY", "mid"}, {"MOVIE", "mid"}));
  ASSERT_TRUE(to_mv.has_value());
  EXPECT_EQ(*to_mv, Var(g, "MV"));
  // The direction must match the side the walk starts on.
  EXPECT_FALSE(
      g.FollowJoin(Var(g, "MV"), Join({"PLAY", "mid"}, {"MOVIE", "mid"}))
          .has_value());
}

TEST_F(QueryGraphTest, FollowJoinMissing) {
  QueryGraph g = Build(
      "select MV.title from MOVIE MV, PLAY PL where MV.mid=PL.mid");
  EXPECT_FALSE(
      g.FollowJoin(Var(g, "MV"), Join({"MOVIE", "mid"}, {"GENRE", "mid"}))
          .has_value());
  EXPECT_FALSE(
      g.FollowJoin(Var(g, "PL"), Join({"PLAY", "tid"}, {"THEATRE", "tid"}))
          .has_value());
}

TEST_F(QueryGraphTest, ReplicatedRelations) {
  QueryGraph g = Build(
      "select A1.name from ACTOR A1, ACTOR A2 where A1.name='x' and "
      "A2.name='y'");
  EXPECT_EQ(g.variables().size(), 2u);
  EXPECT_TRUE(g.UsesTable(Table("ACTOR")));
  EXPECT_EQ(g.SelectionsOn(Var(g, "A1")).size(), 1u);
  EXPECT_EQ(g.SelectionsOn(Var(g, "A2")).size(), 1u);
}

TEST_F(QueryGraphTest, InvalidQueryRejected) {
  auto query = ParseSelectQuery("select MV.title from MOVIE MV where "
                                "MV.nope=1");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(QueryGraph::Build(*query, schema_).ok());
}

TEST_F(QueryGraphTest, NoWhereClause) {
  QueryGraph g = Build("select MV.title from MOVIE MV");
  EXPECT_TRUE(g.SelectionsOn(Var(g, "MV")).empty());
  EXPECT_TRUE(g.UsesTable(Table("MOVIE")));
}

}  // namespace
}  // namespace qp
