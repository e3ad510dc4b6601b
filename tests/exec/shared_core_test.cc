// Oracle cases for MQ compounds, in the shapes that stress grouping each
// part's rows as they are produced. Every part repeats an unselective base
// query and adds one preference, as PreferenceIntegrator builds them, and
// the preferences span the selectivities a cost-based plan would treat
// differently: no more selective than the base, more selective than the
// base through a join chain, and a single row. Further cases pin the
// grouping rules: a DISTINCT part adds to a group once, with the best
// satisfaction among its rows there in whatever order they arrive; a bag
// part adds once per row; a dislike part subtracts. Every answer must
// equal testing_util::ReferenceExecute's bit for bit. (The suite keeps
// the name of the shared-core MQ planner it first tested.)

#include <string>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/core/personalizer.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/data/workload.h"
#include "qp/pref/doi.h"
#include "qp/query/sql_parser.h"

namespace qp {
namespace {

using testing_util::ExactString;
using testing_util::ReferenceExecute;

/// Executes `query` and requires the oracle's answer exactly.
ResultSet CheckAgainstOracle(const Database& db, const CompoundQuery& query,
                             const std::string& label) {
  Executor executor(&db);
  auto result = executor.Execute(query);
  EXPECT_TRUE(result.ok()) << label << ": " << result.status();
  if (!result.ok()) return ResultSet();
  EXPECT_EQ(ExactString(*result), ExactString(ReferenceExecute(db, query)))
      << label;
  return std::move(result).value();
}

/// A compound of one part per SQL text, with the given degrees.
CompoundQuery Compound(const std::vector<std::string>& parts,
                       const std::vector<double>& degrees,
                       HavingClause having) {
  CompoundQuery compound;
  for (size_t i = 0; i < parts.size(); ++i) {
    auto part = ParseSelectQuery(parts[i]);
    EXPECT_TRUE(part.ok()) << parts[i] << ": " << part.status();
    compound.AddPart(std::move(part).value(), degrees[i]);
  }
  compound.set_having(having);
  compound.set_order_by_degree(true);
  return compound;
}

/// The row of `result` whose first cell is `title`, or -1.
int RowOf(const ResultSet& result, const std::string& title) {
  for (size_t i = 0; i < result.num_rows(); ++i) {
    if (result.row(i)[0] == Value::Str(title)) return static_cast<int>(i);
  }
  return -1;
}

TEST(MqGroupingTest, PaperMqMatchesTheOracle) {
  Schema schema = MovieSchema();
  auto db = BuildPaperDatabase();
  ASSERT_TRUE(db.ok());
  auto graph = PersonalizationGraph::Build(&schema, JulieProfile());
  ASSERT_TRUE(graph.ok());
  Personalizer personalizer(&*graph);
  for (size_t l : {1, 2, 3}) {
    PersonalizationOptions options;
    options.criterion = InterestCriterion::TopCount(3);
    options.integration.min_satisfied = l;
    auto outcome = personalizer.Personalize(TonightQuery(), options);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->mq.has_value());
    CheckAgainstOracle(*db, *outcome->mq, "Julie L=" + std::to_string(l));
  }
}

TEST(MqGroupingTest, PreferenceSelectivitiesMatchTheOracle) {
  MovieDbConfig config;
  config.num_movies = 80;
  config.num_actors = 35;
  config.num_directors = 12;
  config.num_theatres = 6;
  config.seed = 71;
  auto db = GenerateMovieDatabase(config);
  ASSERT_TRUE(db.ok());
  db->WarmIndexes();
  // The base joins every movie to each of its screenings. Its
  // preferences: a selection on a base variable and a popular genre (no
  // more selective than the base), a less common genre and a director
  // chain (more selective), and one actor or one year (a few rows).
  const std::string base =
      "select distinct MV.title from MOVIE MV, PLAY PL";
  const std::string join = " where MV.mid=PL.mid and ";
  const std::vector<std::string> parts = {
      base + join + "PL.date='2003-07-02'",
      base + ", GENRE GN" + join + "MV.mid=GN.mid and GN.genre='comedy'",
      base + ", GENRE GN" + join + "MV.mid=GN.mid and GN.genre='war'",
      base + ", DIRECTED DD, DIRECTOR DR" + join +
          "MV.mid=DD.mid and DD.did=DR.did and DR.name='Director #2'",
      base + ", CAST CA, ACTOR AC" + join +
          "MV.mid=CA.mid and CA.aid=AC.aid and AC.name='Actor #5'",
      base + join + "MV.year=1980",
  };
  const std::vector<double> degrees = {0.9, 0.8, 0.7, 0.6, 0.5, 0.4};
  for (size_t l = 1; l <= 3; ++l) {
    const ResultSet result =
        CheckAgainstOracle(*db, Compound(parts, degrees,
                                         HavingClause::CountAtLeast(l)),
                           "count >= " + std::to_string(l));
    if (l == 1) {
      EXPECT_GT(result.num_rows(), 10u);
    }
  }
  CheckAgainstOracle(*db,
                     Compound(parts, degrees, HavingClause::DegreeAbove(0.85)),
                     "degree > 0.85");
}

TEST(MqGroupingTest, DistinctPartKeepsItsBestSatisfaction) {
  auto db = BuildPaperDatabase();
  ASSERT_TRUE(db.ok());
  // Dream Theatre (movie 5) casts actors 0 and 3, in that order. MOVIE
  // (6 rows) is bound before CAST (9) and CAST is probed through its mid
  // postings, so the first part meets Dream Theatre's worse binding first
  // (aid 0: 0.25, then aid 3: 1) and the second its better one first
  // (aid 0: 1, then aid 3: 0.25). Each adds its degree times 1 once.
  const std::string cast =
      "select distinct MV.title from MOVIE MV, CAST CA where "
      "MV.mid=CA.mid and ";
  const ResultSet result = CheckAgainstOracle(
      *db,
      Compound({cast + "near(CA.aid, 3, 4)", cast + "near(CA.aid, 0, 4)"},
               {0.8, 0.6}, HavingClause::CountAtLeast(1)),
      "best satisfaction");
  const int dream = RowOf(result, "Dream Theatre");
  ASSERT_GE(dream, 0);
  EXPECT_EQ(result.counts()[dream], 2u);
  ConjunctiveAccumulator both;
  both.Add(0.8);
  both.Add(0.6);
  EXPECT_EQ(result.degrees()[dream], both.Degree());
}

TEST(MqGroupingTest, BagAndDislikePartsMatchTheOracle) {
  auto db = BuildPaperDatabase();
  ASSERT_TRUE(db.ok());
  // Dream Theatre has two genres: the bag part adds it twice, the DISTINCT
  // part once. The dislike part penalizes W. Allen's films (Laugh Lines
  // and Dream Theatre), and the EXCEPT block drops Night Chase.
  const std::string genre =
      "select MV.title from MOVIE MV, GENRE GN where MV.mid=GN.mid";
  const std::vector<std::string> parts = {
      genre + " and (GN.genre='comedy' or GN.genre='adventure')",
      "select distinct MV.title from MOVIE MV, PLAY PL where "
      "MV.mid=PL.mid and PL.tid=1",
      "select distinct MV.title from MOVIE MV, DIRECTED DD, DIRECTOR DR "
      "where MV.mid=DD.mid and DD.did=DR.did and DR.name='W. Allen'",
      genre,
  };
  const std::vector<double> degrees = {0.7, 0.9, -0.5, 0.3};
  const ResultSet ranked = CheckAgainstOracle(
      *db, Compound(parts, degrees, HavingClause::CountAtLeast(2)),
      "bag and dislike");
  const int dream = RowOf(ranked, "Dream Theatre");
  ASSERT_GE(dream, 0);
  // Two comedy/adventure rows, one tid-1 screening, two genre rows.
  EXPECT_EQ(ranked.counts()[dream], 5u);

  CompoundQuery excepted =
      Compound(parts, degrees, HavingClause::DegreeAbove(0.0));
  auto exclusion = ParseSelectQuery(
      "select MV.title from MOVIE MV where MV.title='Night Chase'");
  ASSERT_TRUE(exclusion.ok());
  excepted.AddExclusion(std::move(exclusion).value());
  const ResultSet vetoed = CheckAgainstOracle(*db, excepted, "except");
  EXPECT_LT(RowOf(vetoed, "Night Chase"), 0);

  // Bag parts alone, and a single DISTINCT part.
  CheckAgainstOracle(*db, Compound({genre, genre}, {0.9, 0.8},
                                   HavingClause::CountAtLeast(1)),
                     "bag parts");
  const ResultSet single = CheckAgainstOracle(
      *db,
      Compound({"select distinct MV.title from MOVIE MV, PLAY PL where "
                "MV.mid=PL.mid and PL.date='2/7/2003'"},
               {0.9}, HavingClause::CountAtLeast(1)),
      "single part");
  EXPECT_EQ(single.num_rows(), 6u);
}

class MqGroupingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MqGroupingPropertyTest, RandomWorkloadMatchesTheOracle) {
  Schema schema = MovieSchema();
  MovieDbConfig config;
  config.num_movies = 80;
  config.num_actors = 35;
  config.num_directors = 12;
  config.num_theatres = 6;
  config.seed = GetParam();
  auto db = GenerateMovieDatabase(config);
  ASSERT_TRUE(db.ok());
  auto pools = MovieCandidatePools(*db);
  ASSERT_TRUE(pools.ok());
  ProfileGenerator profiles(&schema, std::move(pools).value());
  WorkloadGenerator workload(&*db, GetParam() * 3 + 11);
  Rng rng(GetParam());

  for (int trial = 0; trial < 8; ++trial) {
    ProfileGeneratorOptions options;
    options.num_selections = 25;
    options.near_fraction = trial % 2 == 0 ? 0.3 : 0.0;
    auto profile = profiles.Generate(options, &rng);
    ASSERT_TRUE(profile.ok());
    auto graph = PersonalizationGraph::Build(&schema, *profile);
    ASSERT_TRUE(graph.ok());
    Personalizer personalizer(&*graph);
    auto query = workload.RandomQuery();
    ASSERT_TRUE(query.ok());

    PersonalizationOptions popts;
    popts.criterion = InterestCriterion::TopCount(1 + rng.Below(8));
    popts.integration.min_satisfied = 1;
    popts.max_negative = 2;  // Penalty parts among the positive ones.
    auto outcome = personalizer.Personalize(*query, popts);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_TRUE(outcome->mq.has_value());
    CheckAgainstOracle(*db, *outcome->mq, "trial " + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MqGroupingPropertyTest,
                         ::testing::Values(71, 72, 73, 74));

}  // namespace
}  // namespace qp
