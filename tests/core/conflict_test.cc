#include "qp/core/conflict.h"

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/query/sql_parser.h"

namespace qp {
namespace {

class ConflictTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = MovieSchema();
    auto graph = PersonalizationGraph::Build(&schema_, JulieProfile());
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<PersonalizationGraph>(std::move(graph).value());
  }

  QueryGraph Build(const std::string& sql) {
    auto query = ParseSelectQuery(sql);
    EXPECT_TRUE(query.ok()) << query.status();
    auto graph = QueryGraph::Build(*query, schema_);
    EXPECT_TRUE(graph.ok()) << graph.status();
    return std::move(graph).value();
  }

  const JoinEdge& Join(const std::string& from, const std::string& to) {
    for (const JoinEdge& e : graph_->JoinsFrom(from)) {
      if (e.to.table == to) return e;
    }
    static JoinEdge dummy;
    ADD_FAILURE() << "join " << from << "->" << to;
    return dummy;
  }

  SelectionEdge Sel(const std::string& table, const std::string& column,
                    const std::string& value, double doi = 0.5) {
    SelectionEdge edge{{table, column}, Value::Str(value), doi};
    edge.attribute_id = schema_.ResolveAttribute(edge.attribute).value();
    return edge;
  }

  Schema schema_;
  std::unique_ptr<PersonalizationGraph> graph_;
};

TEST_F(ConflictTest, DirectSelectionConflict) {
  // The paper's example: query asks uptown, preference says downtown.
  QueryGraph qg =
      Build("select TH.name from THEATRE TH where TH.region='uptown'");
  PreferencePath path("TH", "THEATRE");
  path = path.ExtendedBy(Sel("THEATRE", "region", "downtown"));
  EXPECT_TRUE(ConflictDetector::ConflictsWithQuery(path, qg));
}

TEST_F(ConflictTest, SameValueIsNotAConflict) {
  QueryGraph qg =
      Build("select TH.name from THEATRE TH where TH.region='downtown'");
  PreferencePath path("TH", "THEATRE");
  path = path.ExtendedBy(Sel("THEATRE", "region", "downtown"));
  EXPECT_FALSE(ConflictDetector::ConflictsWithQuery(path, qg));
}

TEST_F(ConflictTest, DifferentAttributeNoConflict) {
  QueryGraph qg =
      Build("select TH.name from THEATRE TH where TH.name='Odeon'");
  PreferencePath path("TH", "THEATRE");
  path = path.ExtendedBy(Sel("THEATRE", "region", "downtown"));
  EXPECT_FALSE(ConflictDetector::ConflictsWithQuery(path, qg));
}

TEST_F(ConflictTest, ConflictThroughToOneChain) {
  // Query pins the theatre's region through PLAY -> THEATRE (to-one);
  // a preference for another region through the same chain conflicts.
  QueryGraph qg = Build(
      "select PL.date from PLAY PL, THEATRE TH where PL.tid=TH.tid and "
      "TH.region='uptown'");
  PreferencePath path("PL", "PLAY");
  path = path.ExtendedBy(Join("PLAY", "THEATRE"));
  path = path.ExtendedBy(Sel("THEATRE", "region", "downtown"));
  ASSERT_TRUE(path.AllJoinsToOne());
  EXPECT_TRUE(ConflictDetector::ConflictsWithQuery(path, qg));
}

TEST_F(ConflictTest, NoConflictThroughToManyChain) {
  // MOVIE -> GENRE is to-many: a movie can have several genres, so a
  // genre preference never conflicts with a genre condition in the query.
  QueryGraph qg = Build(
      "select MV.title from MOVIE MV, GENRE GN where MV.mid=GN.mid and "
      "GN.genre='thriller'");
  PreferencePath path("MV", "MOVIE");
  path = path.ExtendedBy(Join("MOVIE", "GENRE"));
  path = path.ExtendedBy(Sel("GENRE", "genre", "comedy"));
  ASSERT_FALSE(path.AllJoinsToOne());
  EXPECT_FALSE(ConflictDetector::ConflictsWithQuery(path, qg));
}

TEST_F(ConflictTest, NoConflictWhenQueryLacksTheChain) {
  // The query never joins THEATRE, so the preference binds a fresh chain.
  QueryGraph qg = Build(
      "select PL.date from PLAY PL where PL.date='2/7/2003'");
  PreferencePath path("PL", "PLAY");
  path = path.ExtendedBy(Join("PLAY", "THEATRE"));
  path = path.ExtendedBy(Sel("THEATRE", "region", "downtown"));
  EXPECT_FALSE(ConflictDetector::ConflictsWithQuery(path, qg));
}

TEST_F(ConflictTest, JoinOnlyPathNeverConflicts) {
  QueryGraph qg =
      Build("select TH.name from THEATRE TH where TH.region='uptown'");
  PreferencePath path("TH", "THEATRE");
  path = path.ExtendedBy(Join("THEATRE", "PLAY"));
  EXPECT_FALSE(ConflictDetector::ConflictsWithQuery(path, qg));
}

TEST_F(ConflictTest, PairwiseConflictSameAttribute) {
  PreferencePath a("TH", "THEATRE");
  a = a.ExtendedBy(Sel("THEATRE", "region", "downtown"));
  PreferencePath b("TH", "THEATRE");
  b = b.ExtendedBy(Sel("THEATRE", "region", "uptown"));
  EXPECT_TRUE(ConflictDetector::Conflicting(a, b));
  EXPECT_TRUE(ConflictDetector::Conflicting(b, a));
  EXPECT_FALSE(ConflictDetector::Conflicting(a, a));  // Same value.
}

TEST_F(ConflictTest, PairwiseNoConflictAcrossAnchors) {
  PreferencePath a("T1", "THEATRE");
  a = a.ExtendedBy(Sel("THEATRE", "region", "downtown"));
  PreferencePath b("T2", "THEATRE");
  b = b.ExtendedBy(Sel("THEATRE", "region", "uptown"));
  EXPECT_FALSE(ConflictDetector::Conflicting(a, b));
}

TEST_F(ConflictTest, PairwiseNoConflictThroughToMany) {
  // Two genre preferences via MOVIE -> GENRE (to-many) can both hold.
  PreferencePath a("MV", "MOVIE");
  a = a.ExtendedBy(Join("MOVIE", "GENRE"));
  a = a.ExtendedBy(Sel("GENRE", "genre", "comedy"));
  PreferencePath b("MV", "MOVIE");
  b = b.ExtendedBy(Join("MOVIE", "GENRE"));
  b = b.ExtendedBy(Sel("GENRE", "genre", "thriller"));
  EXPECT_FALSE(ConflictDetector::Conflicting(a, b));
}

TEST_F(ConflictTest, PairwiseConflictThroughToOneChain) {
  // Two different regions through PLAY -> THEATRE (to-one) conflict.
  PreferencePath a("PL", "PLAY");
  a = a.ExtendedBy(Join("PLAY", "THEATRE"));
  a = a.ExtendedBy(Sel("THEATRE", "region", "downtown"));
  PreferencePath b("PL", "PLAY");
  b = b.ExtendedBy(Join("PLAY", "THEATRE"));
  b = b.ExtendedBy(Sel("THEATRE", "region", "uptown"));
  EXPECT_TRUE(ConflictDetector::Conflicting(a, b));
}

TEST_F(ConflictTest, PairwiseDifferentAttributesNoConflict) {
  PreferencePath a("PL", "PLAY");
  a = a.ExtendedBy(Join("PLAY", "THEATRE"));
  a = a.ExtendedBy(Sel("THEATRE", "region", "downtown"));
  PreferencePath b("PL", "PLAY");
  b = b.ExtendedBy(Join("PLAY", "THEATRE"));
  b = b.ExtendedBy(Sel("THEATRE", "name", "Odeon"));
  EXPECT_FALSE(ConflictDetector::Conflicting(a, b));
}

}  // namespace
}  // namespace qp
