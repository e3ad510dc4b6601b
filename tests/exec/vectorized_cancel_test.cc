// Cancellation and chaos inside the vectorized batch loop.
// executor_cancel_test runs on the paper's database, whose tables hold
// fewer rows than the row loops' poll stride, so its cuts land between
// join steps. Here a generated database is large enough that a cut also
// lands inside a join or filter step: at every poll budget the truncated
// result must be a sub-multiset of the oracle's answer (a stopped step
// discards its in-flight batch, so only fully-joined rows surface), and
// an untruncated run must equal the oracle's answer exactly. A chaos case
// arms the exec.disjunct fault site and drives it through the batch loop.

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/exec/executor.h"
#include "qp/query/sql_parser.h"
#include "qp/util/deadline.h"
#include "qp/util/fault_hub.h"

namespace qp {
namespace {

bool SubMultiset(const std::vector<Row>& part, const std::vector<Row>& whole) {
  std::unordered_map<Row, int, RowHash, RowEq> counts;
  for (const Row& row : whole) ++counts[row];
  for (const Row& row : part) {
    if (--counts[row] < 0) return false;
  }
  return true;
}

class VectorizedCancelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MovieDbConfig config;
    config.num_movies = 300;
    config.num_actors = 120;
    config.num_directors = 30;
    config.num_theatres = 4;
    config.num_days = 3;
    config.seed = 20261017;
    auto db = GenerateMovieDatabase(config);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::make_unique<Database>(std::move(db).value());
  }

  SelectQuery Parse(const std::string& sql) {
    auto query = ParseSelectQuery(sql);
    EXPECT_TRUE(query.ok()) << query.status();
    return std::move(query).value();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(VectorizedCancelTest, EveryCutInsideABatchStepIsASubMultiset) {
  const std::string genre = GenreName(0);
  const std::vector<std::string> sqls = {
      // One join step over every MOVIE x GENRE pair, bag semantics.
      "select MV.title, GN.genre from MOVIE MV, GENRE GN where "
      "MV.mid=GN.mid",
      // Two DNF conjuncts under DISTINCT: a cut can land in either.
      "select distinct MV.title from MOVIE MV, GENRE GN where "
      "MV.mid=GN.mid and (GN.genre='" + genre + "' or MV.year=1990)",
      // Two join steps, the second one to-many.
      "select MV.title, CA.role from MOVIE MV, GENRE GN, CAST CA where "
      "MV.mid=GN.mid and MV.mid=CA.mid and GN.genre='" + genre + "'",
  };
  size_t partial_cuts = 0;  // Truncated runs that still kept rows.
  for (const std::string& sql : sqls) {
    SCOPED_TRACE(sql);
    SelectQuery query = Parse(sql);
    const ResultSet full = testing_util::ReferenceExecute(*db_, query);
    ASSERT_GT(full.num_rows(), 0u);

    size_t truncated_cuts = 0;
    bool saw_full = false;
    for (int64_t budget = 0; budget < 5000 && !saw_full; ++budget) {
      CancelToken token;
      token.set_poll_budget(budget);
      Executor executor(db_.get());
      executor.set_cancel_token(&token);
      auto cut = executor.Execute(query);
      ASSERT_TRUE(cut.ok()) << "budget " << budget;
      ASSERT_TRUE(SubMultiset(cut->rows(), full.rows()))
          << "budget " << budget << " produced a row the oracle did not";
      if (cut->truncated()) {
        ++truncated_cuts;
        if (cut->num_rows() > 0) ++partial_cuts;
      } else {
        EXPECT_EQ(testing_util::ExactString(*cut),
                  testing_util::ExactString(full))
            << "budget " << budget;
        saw_full = true;
      }
    }
    EXPECT_TRUE(saw_full) << "no budget large enough to finish the run";
    EXPECT_GT(truncated_cuts, 0u);
    std::printf("[cancel] %zu cut points: %s\n", truncated_cuts, sql.c_str());
  }
  EXPECT_GT(partial_cuts, 0u) << "no cut kept the rows produced before it";
}

TEST_F(VectorizedCancelTest, ChaosFaultSurfacesThroughBatchLoop) {
  // exec.disjunct armed in error mode: the fault fires inside
  // BuildConjunct before the batch loop runs a single step, and must
  // surface as the injected error.
  SelectQuery query = Parse(
      "select MV.title from MOVIE MV, GENRE GN where MV.mid=GN.mid");

  {
    ScopedFaultInjection chaos(11);
    FaultRule rule;
    rule.fire_on_nth = 1;
    rule.max_fires = 1;
    rule.mode = FaultMode::kError;
    FaultHub::Global()->SetRule("exec.disjunct", rule);
    Executor executor(db_.get());
    auto result = executor.Execute(query);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(FaultHub::Global()->fires("exec.disjunct"), 1u);
  }

  // Disarmed again: the same executor path runs clean.
  Executor executor(db_.get());
  auto result = executor.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->truncated());
}

}  // namespace
}  // namespace qp
