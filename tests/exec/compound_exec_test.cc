#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/paper_example.h"
#include "qp/exec/executor.h"
#include "qp/query/sql_parser.h"

namespace qp {
namespace {

class CompoundExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = BuildPaperDatabase();
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::make_unique<Database>(std::move(db).value());
    executor_ = std::make_unique<Executor>(db_.get());
  }

  /// Tonight's movies filtered by one extra condition, as an MQ part.
  SelectQuery Part(const std::string& extra_tables,
                   const std::string& extra_cond) {
    std::string sql =
        "select distinct MV.title from MOVIE MV, PLAY PL" + extra_tables +
        " where MV.mid=PL.mid and PL.date='2/7/2003'" + extra_cond;
    auto q = ParseSelectQuery(sql);
    EXPECT_TRUE(q.ok()) << q.status() << " " << sql;
    return std::move(q).value();
  }

  SelectQuery ComedyPart() {
    return Part(", GENRE GN", " and MV.mid=GN.mid and GN.genre='comedy'");
  }
  SelectQuery LynchPart() {
    return Part(", DIRECTED DD, DIRECTOR DI",
                " and MV.mid=DD.mid and DD.did=DI.did and "
                "DI.name='D. Lynch'");
  }
  SelectQuery KidmanPart() {
    return Part(", CAST CA, ACTOR AC",
                " and MV.mid=CA.mid and CA.aid=AC.aid and "
                "AC.name='N. Kidman'");
  }

  /// Executes `c` and checks the answer against the brute-force oracle:
  /// rows, order, counts and degrees bit for bit.
  Result<ResultSet> Run(const CompoundQuery& c) {
    auto result = executor_->Execute(c);
    if (result.ok()) {
      EXPECT_EQ(testing_util::ExactString(*result),
                testing_util::ExactString(
                    testing_util::ReferenceExecute(*db_, c)));
    }
    return result;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(CompoundExecTest, UnionAllCountsParts) {
  CompoundQuery c;
  c.AddPart(ComedyPart(), 0.81);
  c.AddPart(LynchPart(), 0.8);
  c.AddPart(KidmanPart(), 0.72);
  c.set_having(HavingClause::None());

  auto r = Run(c);
  ASSERT_TRUE(r.ok()) << r.status();
  // Union over {comedy: 0,1,5} {lynch: 0,2} {kidman: 0,2,5} = movies
  // 0,1,2,5.
  EXPECT_EQ(r->num_rows(), 4u);
  ASSERT_TRUE(r->has_ranking());
}

TEST_F(CompoundExecTest, HavingCountAtLeastTwo) {
  // The paper's Julie example: at least 2 of the top 3 preferences.
  CompoundQuery c;
  c.AddPart(ComedyPart(), 0.81);
  c.AddPart(LynchPart(), 0.8);
  c.AddPart(KidmanPart(), 0.72);
  c.set_having(HavingClause::CountAtLeast(2));

  auto r = Run(c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 3u);
  EXPECT_TRUE(r->Contains({Value::Str("The Quiet Comedy")}));   // All 3.
  EXPECT_TRUE(r->Contains({Value::Str("Night Chase")}));        // Lynch+Kidman.
  EXPECT_TRUE(r->Contains({Value::Str("Dream Theatre")}));      // Comedy+Kidman.
  EXPECT_FALSE(r->Contains({Value::Str("Laugh Lines")}));       // Comedy only.
}

TEST_F(CompoundExecTest, CountsAreSatisfiedPreferenceCounts) {
  CompoundQuery c;
  c.AddPart(ComedyPart(), 0.81);
  c.AddPart(LynchPart(), 0.8);
  c.AddPart(KidmanPart(), 0.72);
  c.set_having(HavingClause::CountAtLeast(1));
  c.set_order_by_degree(true);

  auto r = Run(c);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 4u);
  // Ranked by combined degree: The Quiet Comedy satisfies all three.
  EXPECT_EQ(r->row(0)[0], Value::Str("The Quiet Comedy"));
  EXPECT_EQ(r->counts()[0], 3u);
  // Combined degree: 1-(1-.81)(1-.8)(1-.72) = 0.989...
  EXPECT_NEAR(r->degrees()[0], 1 - 0.19 * 0.2 * 0.28, 1e-9);
}

TEST_F(CompoundExecTest, RankingOrderIsNonIncreasing) {
  CompoundQuery c;
  c.AddPart(ComedyPart(), 0.81);
  c.AddPart(LynchPart(), 0.8);
  c.AddPart(KidmanPart(), 0.72);
  c.set_having(HavingClause::None());
  c.set_order_by_degree(true);

  auto r = Run(c);
  ASSERT_TRUE(r.ok());
  for (size_t i = 1; i < r->num_rows(); ++i) {
    EXPECT_GE(r->degrees()[i - 1], r->degrees()[i]);
  }
}

TEST_F(CompoundExecTest, HavingDegreeAbove) {
  CompoundQuery c;
  c.AddPart(ComedyPart(), 0.81);
  c.AddPart(LynchPart(), 0.8);
  c.AddPart(KidmanPart(), 0.72);
  c.set_having(HavingClause::DegreeAbove(0.9));
  c.set_order_by_degree(true);

  auto r = Run(c);
  ASSERT_TRUE(r.ok());
  // Degrees: QuietComedy 0.98936, DreamTheatre 1-(.19*.28)=0.9468,
  // NightChase 1-(.2*.28)=0.944, LaughLines 0.81.
  EXPECT_EQ(r->num_rows(), 3u);
  EXPECT_FALSE(r->Contains({Value::Str("Laugh Lines")}));
}

TEST_F(CompoundExecTest, SinglePartDegenerate) {
  CompoundQuery c;
  c.AddPart(ComedyPart(), 0.81);
  c.set_having(HavingClause::CountAtLeast(1));
  auto r = Run(c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 3u);
  for (size_t i = 0; i < r->num_rows(); ++i) {
    EXPECT_EQ(r->counts()[i], 1u);
    EXPECT_NEAR(r->degrees()[i], 0.81, 1e-9);
  }
}

TEST_F(CompoundExecTest, HavingCountZeroKeepsEverything) {
  CompoundQuery c;
  c.AddPart(ComedyPart(), 0.81);
  c.AddPart(KidmanPart(), 0.72);
  c.set_having(HavingClause::CountAtLeast(0));
  auto r = Run(c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 4u);
}

TEST_F(CompoundExecTest, ImpossibleCountYieldsNothing) {
  CompoundQuery c;
  c.AddPart(ComedyPart(), 0.81);
  c.set_having(HavingClause::CountAtLeast(5));
  auto r = Run(c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0u);
}

TEST_F(CompoundExecTest, ValidationErrorsPropagate) {
  CompoundQuery c;
  EXPECT_FALSE(executor_->Execute(c).ok());  // No parts.
}

}  // namespace
}  // namespace qp
