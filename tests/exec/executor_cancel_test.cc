// Cooperative cancellation in the executor's row loops: a tripped token
// stops production and yields a partial ResultSet flagged truncated().
// Every row of a truncated SelectQuery result must be a genuine answer
// (a sub-multiset of the full result). Compound results may additionally
// under-apply dislike vetoes, so their rows are checked only against the
// oracle of a dislike-free compound.

#include <memory>
#include <unordered_map>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/core/personalizer.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/exec/executor.h"
#include "qp/query/sql_parser.h"
#include "qp/util/deadline.h"

namespace qp {
namespace {

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

class ExecutorCancelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = BuildPaperDatabase();
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

TEST_F(ExecutorCancelTest, UntrippedTokenChangesNothing) {
  SelectQuery query = Parse(
      "select MV.title from MOVIE MV, GENRE GN where MV.mid=GN.mid");
  Executor plain(db_.get());
  auto baseline = plain.Execute(query);
  ASSERT_TRUE(baseline.ok());
  EXPECT_FALSE(baseline->truncated());

  CancelToken token(Deadline::AfterMillis(60000));
  Executor cancellable(db_.get());
  cancellable.set_cancel_token(&token);
  auto result = cancellable.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->truncated());
  EXPECT_EQ(result->DebugString(1000), baseline->DebugString(1000));
}

TEST_F(ExecutorCancelTest, PreCancelledSelectIsEmptyAndTruncated) {
  CancelToken token;
  token.Cancel();
  Executor executor(db_.get());
  executor.set_cancel_token(&token);
  auto result = executor.Execute(Parse("select MV.title from MOVIE MV"));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->truncated());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST_F(ExecutorCancelTest, EveryCutIsASubMultisetOfTheFullAnswer) {
  // A disjunctive query (two DNF conjuncts) over a join, so cancellation
  // can land inside a conjunct, between conjuncts, or after both.
  SelectQuery query = Parse(
      "select MV.title from MOVIE MV, GENRE GN where MV.mid=GN.mid and "
      "(GN.genre='comedy' or MV.year=2003)");
  Executor plain(db_.get());
  auto full = plain.Execute(query);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->num_rows(), 0u);

  bool saw_truncated = false;
  bool saw_full = false;
  for (int64_t budget = 0; budget < 400 && !saw_full; ++budget) {
    CancelToken token;
    token.set_poll_budget(budget);
    Executor executor(db_.get());
    executor.set_cancel_token(&token);
    auto cut = executor.Execute(query);
    ASSERT_TRUE(cut.ok()) << "budget " << budget;
    EXPECT_TRUE(SubMultiset(cut->rows(), full->rows()))
        << "budget " << budget << " produced a row the full run did not";
    if (cut->truncated()) {
      saw_truncated = true;
    } else {
      EXPECT_EQ(cut->num_rows(), full->num_rows()) << "budget " << budget;
      saw_full = true;
    }
  }
  EXPECT_TRUE(saw_truncated);
  EXPECT_TRUE(saw_full) << "no budget large enough to finish the run";
}

TEST_F(ExecutorCancelTest, CompoundQueryHonoursTheToken) {
  // Build the paper example's MQ compound via the personalizer, then
  // execute it under a sweep of poll budgets.
  Schema schema = MovieSchema();
  auto graph = PersonalizationGraph::Build(&schema, JulieProfile());
  ASSERT_TRUE(graph.ok());
  Personalizer personalizer(&*graph);
  PersonalizationOptions options;
  options.criterion = InterestCriterion::TopCount(3);
  auto outcome = personalizer.Personalize(TonightQuery(), options);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->mq.has_value());

  Executor plain(db_.get());
  auto full = plain.Execute(*outcome->mq);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->truncated());

  // Pre-cancelled: nothing runs, flag set.
  CancelToken cancelled;
  cancelled.Cancel();
  Executor executor(db_.get());
  executor.set_cancel_token(&cancelled);
  auto stopped = executor.Execute(*outcome->mq);
  ASSERT_TRUE(stopped.ok());
  EXPECT_TRUE(stopped->truncated());
  EXPECT_EQ(stopped->num_rows(), 0u);

  bool saw_full = false;
  for (int64_t budget = 0; budget < 600 && !saw_full; ++budget) {
    CancelToken token;
    token.set_poll_budget(budget);
    Executor bounded(db_.get());
    bounded.set_cancel_token(&token);
    auto cut = bounded.Execute(*outcome->mq);
    ASSERT_TRUE(cut.ok()) << "budget " << budget;
    if (!cut->truncated()) {
      // An untruncated run must be the complete answer.
      EXPECT_EQ(cut->DebugString(1000), full->DebugString(1000))
          << "budget " << budget;
      saw_full = true;
    } else {
      EXPECT_LE(cut->num_rows(), full->num_rows()) << "budget " << budget;
    }
  }
  EXPECT_TRUE(saw_full) << "no budget large enough to finish the run";
}

TEST_F(ExecutorCancelTest, MqTruncatesToOracleRows) {
  Schema schema = MovieSchema();
  auto graph = PersonalizationGraph::Build(&schema, JulieProfile());
  ASSERT_TRUE(graph.ok());
  Personalizer personalizer(&*graph);
  PersonalizationOptions options;
  options.criterion = InterestCriterion::TopCount(3);
  auto outcome = personalizer.Personalize(TonightQuery(), options);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->mq.has_value());

  // Uncut, the MQ is the oracle's answer. Cut after five polls it is
  // flagged truncated, and (Julie has no dislikes to under-apply and
  // HAVING count(*) >= 1 holds for any group a part reached) each of its
  // rows is one of the oracle's.
  const ResultSet full = testing_util::ReferenceExecute(*db_, *outcome->mq);
  Executor uncut(db_.get());
  auto whole = uncut.Execute(*outcome->mq);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(testing_util::ExactString(*whole),
            testing_util::ExactString(full));

  CancelToken token;
  token.set_poll_budget(5);
  Executor executor(db_.get());
  executor.set_cancel_token(&token);
  auto cut = executor.Execute(*outcome->mq);
  ASSERT_TRUE(cut.ok());
  EXPECT_TRUE(cut->truncated());
  EXPECT_LT(cut->num_rows(), full.num_rows());
  EXPECT_TRUE(SubMultiset(cut->rows(), full.rows()));
}

}  // namespace
}  // namespace qp
