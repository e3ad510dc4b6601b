// Checks the executor against its brute-force oracle,
// testing_util::ReferenceExecute. Hundreds of seeded trials draw a random
// profile, a random SPJ query and random K/L/near/negative knobs,
// personalize it as SQ and as MQ, execute it, and require the oracle's
// answer exactly: rows, row order, counts, the truncated flag, and
// degrees and satisfactions bit for bit (ExactString prints doubles as
// %a). The oracle shares no index, key code, join order, grouping or
// HAVING code with the executor, so a bug in any of them shows.
// Further trials check the truncation contract under mid-flight
// cancellation, and that an armed `exec.disjunct` chaos fault yields
// either the injected error or the oracle's answer.
//
// A hand-built database covers the key codings the movie database never
// reaches, and the semi-joined (existential) tuple variables of DISTINCT
// selects and MQ parts next to the bag and near-condition forms that must
// keep the expanding join.
//
// Every trial prints "[diff] trial N seed=S" before running, so a
// failure names its exact replay. QP_EXEC_TRIALS overrides the trial
// count (CI's sanitizer stage lowers it; the default of 800 randomized
// trials yields well over 1000 comparisons on its own — most trials
// compare both an SQ and an MQ plan — plus the K/L grid, cancellation
// and chaos sweeps on top).

#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/core/personalizer.h"
#include "qp/data/movie_db.h"
#include "qp/data/workload.h"
#include "qp/exec/executor.h"
#include "qp/graph/personalization_graph.h"
#include "qp/pref/profile_generator.h"
#include "qp/query/sql_parser.h"
#include "qp/util/deadline.h"
#include "qp/util/fault_hub.h"
#include "qp/util/random.h"

namespace qp {
namespace {

size_t TrialsFromEnv(size_t fallback) {
  const char* env = std::getenv("QP_EXEC_TRIALS");
  if (env == nullptr || *env == '\0') return fallback;
  long parsed = std::strtol(env, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

/// Multiset containment: every row of `part` appears in `whole` at least
/// as many times.
bool SubMultiset(const std::vector<Row>& part, const std::vector<Row>& whole) {
  std::unordered_map<Row, int, RowHash, RowEq> counts;
  for (const Row& row : whole) ++counts[row];
  for (const Row& row : part) {
    if (--counts[row] < 0) return false;
  }
  return true;
}

/// Shared fixture state: a small but join-rich database (every relation
/// populated) reused across trials — regenerating it per trial would
/// dominate the suite's runtime without adding coverage, since the
/// randomness that matters (profiles, queries, K/L) is per-trial.
class ExecDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MovieDbConfig config;
    config.num_movies = 120;
    config.num_actors = 80;
    config.num_directors = 25;
    config.num_theatres = 6;
    config.num_regions = 4;
    config.num_genres = 8;
    config.num_days = 4;
    config.plays_per_theatre_per_day = 2;
    config.seed = 20260809;
    auto db = GenerateMovieDatabase(config);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = new Database(std::move(db).value());
    schema_ = new Schema(MovieSchema());
    auto pools = MovieCandidatePools(*db_);
    ASSERT_TRUE(pools.ok()) << pools.status();
    pools_ = new std::vector<CandidatePool>(std::move(pools).value());
  }

  static void TearDownTestSuite() {
    delete pools_;
    pools_ = nullptr;
    delete schema_;
    schema_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  /// One random personalization setup drawn from `seed`: profile, query
  /// and options. Returns false when this seed's profile/query draw is
  /// degenerate (generator could not satisfy the request) — the trial is
  /// skipped, which the caller counts.
  struct Trial {
    SelectQuery query;
    PersonalizationOptions options;
    std::unique_ptr<PersonalizationGraph> graph;
  };
  static bool DrawTrial(uint64_t seed, Trial* out) {
    Rng rng(seed);
    ProfileGeneratorOptions profile_options;
    profile_options.num_selections = 10 + rng.Below(30);
    profile_options.near_fraction = rng.Below(3) == 0 ? 0.3 : 0.0;
    profile_options.negative_fraction = rng.Below(4) == 0 ? 0.2 : 0.0;
    ProfileGenerator generator(schema_, *pools_);
    auto profile = generator.Generate(profile_options, &rng);
    if (!profile.ok()) return false;
    auto graph = PersonalizationGraph::Build(schema_, *profile);
    if (!graph.ok()) return false;

    WorkloadGenerator workload(db_, rng.Next());
    auto query = workload.RandomQuery();
    if (!query.ok()) return false;

    PersonalizationOptions options;
    const size_t k = 1 + rng.Below(6);
    options.criterion = InterestCriterion::TopCount(k);
    options.integration.mandatory_count = rng.Below(2);
    options.integration.min_satisfied = 1 + rng.Below(3);
    if (rng.Below(4) == 0) options.max_negative = 1 + rng.Below(2);

    out->query = std::move(query).value();
    out->options = options;
    out->graph = std::make_unique<PersonalizationGraph>(
        std::move(graph).value());
    return true;
  }

  /// Executes `query`, optionally under a cancel token.
  template <typename Query>
  static Result<ResultSet> Run(const Query& query,
                               const CancelToken* cancel = nullptr) {
    Executor executor(db_);
    executor.set_cancel_token(cancel);
    return executor.Execute(query);
  }

  /// Checks the executor against the oracle for one personalized query
  /// (both SQ and MQ where produced). Adds the number of comparisons made
  /// to *comparisons (0 when personalization failed for this draw).
  static void CheckTrial(const Trial& trial, uint64_t seed,
                         size_t* comparisons) {
    Personalizer personalizer(trial.graph.get());
    for (IntegrationApproach approach :
         {IntegrationApproach::kSingleQuery,
          IntegrationApproach::kMultipleQueries}) {
      PersonalizationOptions options = trial.options;
      options.approach = approach;
      if (options.max_negative > 0 &&
          approach == IntegrationApproach::kSingleQuery) {
        options.max_negative = 0;  // Dislikes require MQ.
      }
      auto outcome = personalizer.Personalize(trial.query, options);
      if (!outcome.ok()) continue;  // Degenerate draw (e.g. C(K-M,L) cap).

      const bool sq = outcome->sq.has_value();
      Result<ResultSet> result = sq ? Run(*outcome->sq) : Run(*outcome->mq);
      ASSERT_TRUE(result.ok()) << "seed=" << seed << ": " << result.status();
      const ResultSet expected =
          sq ? testing_util::ReferenceExecute(*db_, *outcome->sq)
             : testing_util::ReferenceExecute(*db_, *outcome->mq);
      EXPECT_EQ(testing_util::ExactString(*result),
                testing_util::ExactString(expected))
          << "seed=" << seed << " approach=" << (sq ? "SQ" : "MQ");
      ++*comparisons;
    }
  }

  static Database* db_;
  static Schema* schema_;
  static std::vector<CandidatePool>* pools_;
};

Database* ExecDifferentialTest::db_ = nullptr;
Schema* ExecDifferentialTest::schema_ = nullptr;
std::vector<CandidatePool>* ExecDifferentialTest::pools_ = nullptr;

TEST_F(ExecDifferentialTest, RandomizedPersonalizedQueriesMatchTheOracle) {
  const size_t trials = TrialsFromEnv(800);
  size_t comparisons = 0;
  for (size_t n = 0; n < trials; ++n) {
    const uint64_t seed = 0x5EED0000ULL + n;
    if ((n % 100) == 0) {
      std::printf("[diff] trial %zu/%zu seed=%llu (%zu comparisons so far)\n",
                  n, trials, static_cast<unsigned long long>(seed),
                  comparisons);
    }
    Trial trial;
    if (!DrawTrial(seed, &trial)) continue;
    CheckTrial(trial, seed, &comparisons);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      std::printf("[diff] FAILED at trial %zu seed=%llu\n", n,
                  static_cast<unsigned long long>(seed));
      return;
    }
  }
  std::printf("[diff] %zu trials -> %zu oracle comparisons\n", trials,
              comparisons);
  // The suite is meaningless if the generator mostly produced degenerate
  // draws; demand that the overwhelming majority personalized + executed,
  // and that the headline >= 1000-comparison bar is met.
  EXPECT_GE(comparisons, trials);
  if (trials >= 800) {
    EXPECT_GE(comparisons, 1000u);
  }
}

TEST_F(ExecDifferentialTest, KAndLSweepMatchesTheOracle) {
  // Deterministic K/L grid over one profile/query draw per cell — the
  // paper's fig8/fig9 axes, checked against the oracle.
  const size_t trials = TrialsFromEnv(800);
  const size_t per_cell = std::max<size_t>(1, trials / 60);
  size_t comparisons = 0;
  for (size_t k = 1; k <= 6; ++k) {
    for (size_t l = 1; l <= 3; ++l) {
      for (size_t rep = 0; rep < per_cell; ++rep) {
        const uint64_t seed = 0xF16000ULL + k * 1000 + l * 100 + rep;
        Trial trial;
        if (!DrawTrial(seed, &trial)) continue;
        trial.options.criterion = InterestCriterion::TopCount(k);
        trial.options.integration.min_satisfied = l;
        CheckTrial(trial, seed, &comparisons);
        if (HasFatalFailure() || HasNonfatalFailure()) {
          std::printf("[diff] FAILED at K=%zu L=%zu seed=%llu\n", k, l,
                      static_cast<unsigned long long>(seed));
          return;
        }
      }
    }
  }
  std::printf("[diff] K/L sweep -> %zu oracle comparisons\n",
              comparisons);
  EXPECT_GT(comparisons, 0u);
}

TEST_F(ExecDifferentialTest, CancellationCutsAreSubMultisetsOfTheOracle) {
  // Under a poll budget the executor stops wherever the budget runs out:
  // every produced row must still be a genuine answer (a sub-multiset of
  // the oracle's), and a run the budget did not cut must be the oracle's
  // answer exactly.
  const size_t trials = std::max<size_t>(20, TrialsFromEnv(800) / 12);
  size_t checked = 0;
  for (size_t n = 0; n < trials; ++n) {
    const uint64_t seed = 0xCA7C0DEULL + n;
    Trial trial;
    if (!DrawTrial(seed, &trial)) continue;
    Personalizer personalizer(trial.graph.get());
    PersonalizationOptions options = trial.options;
    options.approach = IntegrationApproach::kSingleQuery;
    options.max_negative = 0;
    auto outcome = personalizer.Personalize(trial.query, options);
    if (!outcome.ok() || !outcome->sq.has_value()) continue;

    const ResultSet full = testing_util::ReferenceExecute(*db_, *outcome->sq);
    for (int64_t budget : {0, 1, 3, 7, 19, 53, 211}) {
      CancelToken token;
      token.set_poll_budget(budget);
      auto cut = Run(*outcome->sq, &token);
      ASSERT_TRUE(cut.ok()) << "seed=" << seed << " budget=" << budget;
      EXPECT_TRUE(SubMultiset(cut->rows(), full.rows()))
          << "seed=" << seed << " budget=" << budget;
      if (!cut->truncated()) {
        EXPECT_EQ(testing_util::ExactString(*cut),
                  testing_util::ExactString(full))
            << "seed=" << seed << " budget=" << budget;
      }
    }
    ++checked;
    if (HasFatalFailure() || HasNonfatalFailure()) {
      std::printf("[diff] FAILED cancellation at seed=%llu\n",
                  static_cast<unsigned long long>(seed));
      return;
    }
  }
  std::printf("[diff] cancellation sweep over %zu personalized queries\n",
              checked);
  EXPECT_GT(checked, 0u);
}

TEST_F(ExecDifferentialTest, ChaosFaultYieldsTheErrorOrTheOracleAnswer) {
  // Arm the exec.disjunct fault site to fire once, on the Nth disjunct
  // the executor builds. A run the fault hit must return the injected
  // error; a run that built fewer than N disjuncts must return the
  // oracle's answer.
#ifdef QP_FAULTS_DISABLED
  GTEST_SKIP() << "fault injection compiled out";
#endif
  const size_t trials = std::max<size_t>(20, TrialsFromEnv(800) / 12);
  size_t checked = 0;
  for (size_t n = 0; n < trials; ++n) {
    const uint64_t seed = 0xC4A05ULL + n;
    Trial trial;
    if (!DrawTrial(seed, &trial)) continue;
    Personalizer personalizer(trial.graph.get());
    PersonalizationOptions options = trial.options;
    options.approach = IntegrationApproach::kMultipleQueries;
    auto outcome = personalizer.Personalize(trial.query, options);
    if (!outcome.ok() || !outcome->mq.has_value()) continue;

    const std::string expected =
        testing_util::ExactString(
            testing_util::ReferenceExecute(*db_, *outcome->mq));
    for (uint64_t nth : {1u, 2u, 3u}) {
      ScopedFaultInjection injection(seed);
      FaultRule rule;
      rule.fire_on_nth = nth;
      rule.max_fires = 1;
      rule.mode = FaultMode::kError;
      FaultHub::Global()->SetRule("exec.disjunct", rule);
      auto result = Run(*outcome->mq);
      if (FaultHub::Global()->fires("exec.disjunct") > 0) {
        ASSERT_FALSE(result.ok()) << "seed=" << seed << " nth=" << nth;
        EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
            << "seed=" << seed << " nth=" << nth;
        EXPECT_EQ(result.status().message(),
                  "injected fault at exec.disjunct")
            << "seed=" << seed << " nth=" << nth;
      } else {
        ASSERT_TRUE(result.ok()) << "seed=" << seed << " nth=" << nth;
        EXPECT_EQ(testing_util::ExactString(*result), expected)
            << "seed=" << seed << " nth=" << nth;
      }
    }
    ++checked;
    if (HasFatalFailure() || HasNonfatalFailure()) {
      std::printf("[diff] FAILED chaos at seed=%llu\n",
                  static_cast<unsigned long long>(seed));
      return;
    }
  }
  std::printf("[diff] chaos sweep over %zu personalized queries\n", checked);
  EXPECT_GT(checked, 0u);
}

/// A hand-built database whose join keys the movie database never has:
/// a sparse int64 key and a NULL-bearing int64 key (both coded through a
/// dictionary), a string key, and dense int64 keys with different ranges
/// (coded arithmetically, offset apart, partly out of each other's range).
/// ITEM.score is a double column holding 0.0, -0.0 (stored as 0.0), NULLs
/// and repeats, projected by the coded-grouping queries below.
Database KeyShapesDatabase() {
  Schema schema;
  const DataType i64 = DataType::kInt64;
  const DataType f64 = DataType::kDouble;
  const DataType str = DataType::kString;
  EXPECT_TRUE(schema
                  .AddTable(TableSchema("ITEM",
                                        {{"id", i64},
                                         {"tag", str},
                                         {"ref", i64},
                                         {"slot", i64},
                                         {"score", f64}},
                                        {"id"}))
                  .ok());
  EXPECT_TRUE(schema
                  .AddTable(TableSchema("LINK",
                                        {{"item", i64},
                                         {"tag", str},
                                         {"ref", i64},
                                         {"slot", i64},
                                         {"note", str}},
                                        {}))
                  .ok());
  Database db(std::move(schema));
  const Value null = Value::Null();
  auto I = [](int64_t v) { return Value::Int(v); };
  auto D = [](double v) { return Value::Real(v); };
  auto S = [](const char* v) { return Value::Str(v); };
  // ITEM.id is sparse, ITEM.ref carries NULLs, ITEM.slot spans [10, 19].
  const std::vector<Row> items = {
      {I(0), S("a"), I(1), I(10), D(0.0)},
      {I(1000003), S("b"), null, I(11), D(-0.0)},
      {I(2000006), S("a"), I(2), I(12), null},
      {I(-3000009), S("c"), null, I(13), D(2.5)},
      {I(9000027), S(""), I(1), I(14), D(0.0)},
      {I(4000012), S("b"), I(3), I(15), null},
      {I(5000015), S("d"), I(2), I(16), D(2.5)},
      {I(6000018), S("a"), null, I(19), D(-0.0)},
  };
  // LINK.item holds ITEM ids, ids no ITEM has and one ITEM.slot value
  // (12); LINK.slot spans
  // [14, 25], so part of it falls outside ITEM.slot's range.
  const std::vector<Row> links = {
      {I(0), S("a"), I(1), I(14), S("x")},
      {I(1000003), S("b"), null, I(15), S("y")},
      {I(1000003), S("c"), I(2), I(16), S("x")},
      {I(12), S("a"), null, I(25), S("z")},
      {I(2000006), S(""), I(3), I(19), S("x")},
      {I(-3000009), S("d"), null, I(14), S("y")},
      {I(9000027), S("zz"), I(1), I(20), S("x")},
      {I(6000018), S("a"), I(9), I(17), S("z")},
      {I(123456789), S("b"), I(2), I(21), S("y")},
      {I(0), S("a"), null, I(15), S("x")},
  };
  for (const Row& row : items) EXPECT_TRUE(db.Insert("ITEM", row).ok());
  for (const Row& row : links) EXPECT_TRUE(db.Insert("LINK", row).ok());
  return db;
}

/// Executes `query` on `db` and requires the oracle's answer exactly.
template <typename Query>
ResultSet CheckAgainstOracle(const Database& db, const Query& query,
                             const std::string& label) {
  Executor executor(&db);
  auto result = executor.Execute(query);
  EXPECT_TRUE(result.ok()) << label << ": " << result.status();
  if (!result.ok()) return ResultSet();
  EXPECT_EQ(testing_util::ExactString(*result),
            testing_util::ExactString(
                testing_util::ReferenceExecute(db, query)))
      << label;
  return std::move(result).value();
}

TEST(ExecDifferentialKeyShapesTest, EveryKeyCodingMatchesTheOracle) {
  Database db = KeyShapesDatabase();
  db.WarmIndexes();
  for (const char* table : {"ITEM", "LINK"}) {
    // The premise of the suite: which columns code which way.
    const Table* t = *db.GetTable(table);
    EXPECT_FALSE(t->Keys(0).arithmetic()) << table << " sparse key";
    EXPECT_FALSE(t->Keys(2).arithmetic()) << table << " NULL-bearing key";
    EXPECT_TRUE(t->Keys(3).arithmetic()) << table << " dense key";
  }
  const std::vector<std::string> selects = {
      // Sparse int key: the probe falls back to one Lookup per row.
      "select I.tag, L.note from ITEM I, LINK L where I.id=L.item",
      // String key, with a selection on a value no row holds.
      "select I.id, L.note from ITEM I, LINK L where I.tag=L.tag",
      "select I.id from ITEM I, LINK L where I.tag=L.tag and L.note='w'",
      // NULL-bearing key: NULL cells equal each other in this engine.
      "select I.id, L.item from ITEM I, LINK L where I.ref=L.ref",
      // Dense keys, offset apart: the code-to-code probe.
      "select I.id, L.note from ITEM I, LINK L where I.slot=L.slot",
      // Dense source, sparse target: the fallback probe again.
      "select I.id, L.note from ITEM I, LINK L where I.slot=L.item",
      // Second join atoms become join filters (cells compared).
      "select I.id, L.note from ITEM I, LINK L where I.id=L.item and "
      "I.slot=L.slot",
      "select I.id, L.note from ITEM I, LINK L where I.slot=L.slot and "
      "I.ref=L.ref",
      "select I.id, L.note from ITEM I, LINK L where I.ref=L.ref and "
      "I.tag=L.tag",
      // Three variables, mixed keys, selections on each coding.
      "select distinct I.id, J.tag from ITEM I, LINK L, ITEM J where "
      "I.id=L.item and L.ref=J.ref and J.tag='a'",
      "select I.tag, J.id from ITEM I, LINK L, ITEM J where I.slot=L.slot "
      "and L.tag=J.tag and L.note='x'",
      "select I.id from ITEM I, LINK L where I.id=L.item and "
      "(I.tag='a' or L.ref=2 or L.item=12)",
      // DISTINCT on codes: the NULL-bearing int column and the double
      // column, alone and together, each output reached through several
      // bindings of the to-many joins (ids 0 and 1000003 have two links).
      "select distinct I.ref from ITEM I, LINK L where I.id=L.item",
      "select distinct I.score from ITEM I, LINK L where I.tag=L.tag",
      "select distinct I.ref, I.score from ITEM I, LINK L where "
      "I.slot=L.slot or I.tag=L.tag",
      "select distinct L.note, I.score from ITEM I, LINK L where "
      "I.id=L.item",
      // Zeros entered as 0.0 and -0.0 sort as one value.
      "select I.score from ITEM I, LINK L where I.id=L.item and "
      "(L.note='x' or I.tag='a')",
  };
  for (const std::string& sql : selects) {
    auto query = ParseSelectQuery(sql);
    ASSERT_TRUE(query.ok()) << sql << ": " << query.status();
    CheckAgainstOracle(db, *query, sql);
  }
  // An MQ-shaped compound whose parts share the sparse-key join and add
  // preferences on the other codings.
  CompoundQuery compound;
  const char* parts[] = {
      "select distinct I.id from ITEM I, LINK L where I.id=L.item and "
      "I.tag='a'",
      "select distinct I.id from ITEM I, LINK L where I.id=L.item and "
      "L.ref=2",
      "select distinct I.id from ITEM I, LINK L, ITEM J where "
      "I.id=L.item and L.slot=J.slot and J.tag='b'",
      "select distinct I.id from ITEM I, LINK L where I.id=L.item and "
      "L.tag=I.tag",
  };
  double degree = 0.9;
  for (const char* sql : parts) {
    auto part = ParseSelectQuery(sql);
    ASSERT_TRUE(part.ok()) << sql << ": " << part.status();
    compound.AddPart(std::move(part).value(), degree);
    degree -= 0.1;
  }
  compound.set_having(HavingClause::CountAtLeast(1));
  compound.set_order_by_degree(true);
  ResultSet ranked = CheckAgainstOracle(db, compound, "compound");
  EXPECT_GT(ranked.num_rows(), 0u);

  // An MQ-shaped compound grouped on two coded columns, the
  // NULL-bearing int and the double, with a near part among its parts and
  // one very selective part (I.tag='c' holds one row of ITEM's eight).
  const char* grouped_parts[] = {
      "select distinct I.ref, I.score from ITEM I, LINK L where "
      "I.id=L.item and L.note='x'",
      "select distinct I.ref, I.score from ITEM I, LINK L where "
      "I.id=L.item and I.tag='a'",
      "select distinct I.ref, I.score from ITEM I, LINK L, ITEM J where "
      "I.id=L.item and L.slot=J.slot and J.tag='b'",
      "select distinct I.ref, I.score from ITEM I, LINK L where "
      "I.id=L.item and near(I.slot, 12, 3)",
      "select distinct I.ref, I.score from ITEM I, LINK L where "
      "I.id=L.item and I.tag='c'",
  };
  auto grouped = [&](HavingClause having, bool with_exclusion) {
    CompoundQuery q;
    double d = 0.9;
    for (const char* sql : grouped_parts) {
      auto part = ParseSelectQuery(sql);
      EXPECT_TRUE(part.ok()) << sql << ": " << part.status();
      q.AddPart(std::move(part).value(), d);
      d -= 0.15;
    }
    if (with_exclusion) {
      auto exclusion = ParseSelectQuery(
          "select I.ref, I.score from ITEM I where I.tag='b'");
      EXPECT_TRUE(exclusion.ok()) << exclusion.status();
      q.AddExclusion(std::move(exclusion).value());
    }
    q.set_having(having);
    q.set_order_by_degree(true);
    return q;
  };
  const ResultSet at_least_two = CheckAgainstOracle(
      db, grouped(HavingClause::CountAtLeast(2), false), "grouped count >= 2");
  EXPECT_GT(at_least_two.num_rows(), 0u);
  const ResultSet none = CheckAgainstOracle(
      db, grouped(HavingClause::CountAtLeast(6), false), "grouped count >= 6");
  EXPECT_EQ(none.num_rows(), 0u);
  const ResultSet all = CheckAgainstOracle(
      db, grouped(HavingClause::CountAtLeast(1), false), "grouped");
  const ResultSet excepted = CheckAgainstOracle(
      db, grouped(HavingClause::CountAtLeast(1), true), "grouped except");
  EXPECT_LT(excepted.num_rows(), all.num_rows());
}

TEST(ExecDifferentialKeyShapesTest, ExistentialVariablesMatchTheOracle) {
  Database db = KeyShapesDatabase();
  db.WarmIndexes();
  // In each select the projected ITEM slot is at most as costly as the
  // LINK leaf, so it is materialized first and the leaf is joined into.
  const std::vector<std::string> selects = {
      // Bag SELECTs with an unprojected to-many leaf: ids 0 and 1000003
      // have two links each, and each link is a row of the answer.
      "select I.id from ITEM I, LINK L where I.id=L.item",
      "select I.tag from ITEM I, LINK L where I.slot=L.slot",
      "select I.id from ITEM I, LINK L where I.id=L.item and I.tag='a' "
      "and L.tag='a'",
      // DISTINCT SELECTs whose existential leaf carries selections: on
      // the dictionary probe (6000018's one link is noted 'z'), the
      // arithmetic probe (4000012's links are noted 'x' and 'y'), and two
      // selections at once (9000027's one link is tagged 'zz').
      "select distinct I.id from ITEM I, LINK L where I.id=L.item and "
      "I.tag='a' and L.note='x'",
      "select distinct I.id from ITEM I, LINK L where I.slot=L.slot and "
      "I.tag='b' and L.note='z'",
      "select distinct I.id from ITEM I, LINK L where I.slot=L.slot and "
      "I.tag='b' and L.note='y'",
      "select distinct I.tag from ITEM I, LINK L where I.id=L.item and "
      "I.ref=1 and L.note='x' and L.tag='a'",
      // Existential leaves without selections.
      "select distinct I.tag from ITEM I, LINK L where I.slot=L.slot",
      "select distinct I.id, I.score from ITEM I, LINK L where "
      "I.ref=L.ref",
      // A near condition keeps the leaf needed: each answer row keeps
      // its best match's satisfaction.
      "select distinct I.id from ITEM I, LINK L where I.id=L.item and "
      "near(L.slot, 15, 2)",
      "select distinct I.tag from ITEM I, LINK L where I.slot=L.slot and "
      "near(L.slot, 16, 3)",
      // A second join atom to a bound slot keeps the expanding join.
      "select distinct I.id from ITEM I, LINK L where I.id=L.item and "
      "I.tag=L.tag",
      "select distinct I.tag from ITEM I, LINK L where I.slot=L.slot and "
      "I.ref=L.ref",
  };
  for (const std::string& sql : selects) {
    auto query = ParseSelectQuery(sql);
    ASSERT_TRUE(query.ok()) << sql << ": " << query.status();
    CheckAgainstOracle(db, *query, sql);
  }

  // An MQ compound whose shared join (I, L on I.id=L.item) holds L as an
  // existential to-many variable in every part: no part projects it,
  // none has a near condition on it, and no other atom references it.
  // The preferences are selective (I.tag='c', 1 row; J.tag='b', 2 rows,
  // through a second ITEM variable) or not (I.tag='a', the near part).
  CompoundQuery compound;
  const char* parts[] = {
      "select distinct I.id from ITEM I, LINK L where I.id=L.item and "
      "I.tag='a'",
      "select distinct I.id from ITEM I, LINK L where I.id=L.item and "
      "I.tag='c'",
      "select distinct I.id from ITEM I, LINK L, ITEM J where "
      "I.id=L.item and I.slot=J.slot and J.tag='b'",
      "select distinct I.id from ITEM I, LINK L where I.id=L.item and "
      "near(I.slot, 14, 3)",
  };
  double degree = 0.9;
  for (const char* sql : parts) {
    auto part = ParseSelectQuery(sql);
    ASSERT_TRUE(part.ok()) << sql << ": " << part.status();
    compound.AddPart(std::move(part).value(), degree);
    degree -= 0.2;
  }
  compound.set_having(HavingClause::CountAtLeast(1));
  compound.set_order_by_degree(true);
  ResultSet ranked = CheckAgainstOracle(db, compound, "compound");
  EXPECT_GT(ranked.num_rows(), 0u);

  // A shared join no part reads: each part projects ITEM.id through its
  // own alias and no other atom touches I or L, so the join only asserts
  // that some linked item exists (6 of the 8 do).
  CompoundQuery unread;
  for (const char* sql :
       {"select distinct A.id from ITEM A, ITEM I, LINK L where "
        "I.id=L.item and A.tag='a'",
        "select distinct C.id from ITEM C, ITEM I, LINK L where "
        "I.id=L.item"}) {
    auto part = ParseSelectQuery(sql);
    ASSERT_TRUE(part.ok()) << sql << ": " << part.status();
    unread.AddPart(std::move(part).value(), 0.7);
  }
  unread.set_having(HavingClause::CountAtLeast(1));
  ResultSet all_items = CheckAgainstOracle(db, unread, "unread join");
  EXPECT_EQ(all_items.num_rows(), 8u);
}

}  // namespace
}  // namespace qp
