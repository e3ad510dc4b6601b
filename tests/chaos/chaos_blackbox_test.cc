// Flight-recorder forensics under chaos: after a trial with an armed
// migrate.* fault schedule, the in-memory blackbox must hold the whole
// story — the fired fault (site + call index), the breaker transition
// the disk outage caused, the migration phase transitions, and the
// summary of an affected request's trace — so a failed chaos trial can
// be diagnosed from the recorder dump alone.

#include <memory>
#include <string>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/workload.h"
#include "qp/obs/flight_recorder.h"
#include "qp/obs/trace.h"
#include "qp/pref/profile_generator.h"
#include "qp/shard/sharded_service.h"
#include "qp/storage/fault_injection.h"
#include "qp/util/fault_hub.h"

namespace qp {
namespace shard {
namespace {

class ChaosBlackboxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MovieDbConfig config;
    config.num_movies = 200;
    config.num_actors = 100;
    config.num_directors = 30;
    config.num_theatres = 6;
    config.num_days = 3;
    config.seed = 20040308;
    QP_ASSERT_OK_AND_ASSIGN(Database db, GenerateMovieDatabase(config));
    db_ = std::make_unique<Database>(std::move(db));
    QP_ASSERT_OK_AND_ASSIGN(auto pools, MovieCandidatePools(*db_));
    generator_ = std::make_unique<ProfileGenerator>(&db_->schema(),
                                                    std::move(pools));
    obs::FlightRecorder::Global()->Clear();
  }

  void TearDown() override {
    FaultHub::Global()->Reset();
    obs::FlightRecorder::Global()->Clear();
  }

  ShardedOptions Options(size_t num_shards) {
    ShardedOptions options;
    options.num_shards = num_shards;
    options.dir = "cluster";
    options.service.num_workers = 2;
    options.service.storage.fs = &fs_;
    options.service.storage.compact_threshold_bytes = 0;
    // Fail-fast breaker so a dead disk trips it in two mutations.
    options.service.storage.breaker_threshold = 2;
    options.migration.max_attempts = 3;
    return options;
  }

  std::unique_ptr<ShardedPersonalizationService> MustOpen(
      ShardedOptions options) {
    auto sharded_or =
        ShardedPersonalizationService::Open(db_.get(), std::move(options));
    EXPECT_TRUE(sharded_or.ok()) << sharded_or.status();
    return sharded_or.ok() ? std::move(sharded_or).value() : nullptr;
  }

  UserProfile MakeProfile(uint64_t seed) {
    Rng rng(seed);
    ProfileGeneratorOptions options;
    options.num_selections = 20;
    auto profile = generator_->Generate(options, &rng);
    EXPECT_TRUE(profile.ok()) << profile.status();
    return std::move(profile).value();
  }

  PersonalizationRequest Request(const std::string& user_id,
                                 const SelectQuery& query) {
    PersonalizationRequest request;
    request.user_id = user_id;
    request.query = query;
    request.options.criterion = InterestCriterion::TopCount(4);
    return request;
  }

  SelectQuery AnyQuery() {
    WorkloadGenerator workload(db_.get(), 9);
    auto queries = workload.RandomQueries(1);
    EXPECT_TRUE(queries.ok()) << queries.status();
    return std::move(queries).value()[0];
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ProfileGenerator> generator_;
  storage::FaultInjectingFileSystem fs_;
};

bool HasEvent(const std::vector<obs::FlightEvent>& events,
              obs::FlightEventType type,
              std::string_view what_prefix = "") {
  for (const obs::FlightEvent& event : events) {
    if (event.type != type) continue;
    if (event.what_view().substr(0, what_prefix.size()) == what_prefix) {
      return true;
    }
  }
  return false;
}

TEST_F(ChaosBlackboxTest, MigrateChaosLeavesFullEvidenceInTheRecorder) {
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  obs::FragmentTraceSink sink(128);
  sharded->set_trace_sink(&sink);
  for (int i = 0; i < 4; ++i) {
    QP_ASSERT_OK(sharded->PutProfile("user" + std::to_string(i),
                                     MakeProfile(i + 1)));
  }
  obs::FlightRecorder::Global()->Clear();

  // Armed migrate.* schedule: the first three copy calls fail — enough
  // to exhaust one copy step's retry budget (max_attempts = 3), so the
  // first partition aborts and Reshard reports it. The re-run converges
  // with the fault budget spent.
  FaultRule rule;
  rule.fire_every = 1;
  rule.max_fires = 3;
  FaultHub::Global()->SetRule("migrate.copy", rule);
  FaultHub::Global()->Arm(0xB1ACB0);
  EXPECT_FALSE(sharded->Reshard(3).ok());
  ASSERT_GE(FaultHub::Global()->fires("migrate.copy"), 3u);
  QP_ASSERT_OK(sharded->Reshard(3));

  // A request served while the schedule is armed: its trace summary is
  // the "affected request" evidence.
  PersonalizationResponse response =
      sharded->Personalize(Request("user0", AnyQuery()));
  QP_ASSERT_OK(response.status);
  std::vector<uint64_t> trace_ids = sink.TraceIds();
  ASSERT_FALSE(trace_ids.empty());
  const uint64_t affected = trace_ids.back();

  // Disk dies: two failed mutations to one shard trip its breaker.
  fs_.SetSyncFailure(true);
  EXPECT_FALSE(sharded->PutProfile("user0", MakeProfile(9)).ok());
  EXPECT_FALSE(sharded->PutProfile("user0", MakeProfile(9)).ok());
  fs_.SetSyncFailure(false);

  std::vector<obs::FlightEvent> events =
      obs::FlightRecorder::Global()->Dump();
  std::string json = obs::FlightRecorder::ToJson(events);

  // The fired migrate fault, with its site name and call index.
  EXPECT_TRUE(HasEvent(events, obs::FlightEventType::kFaultFired,
                       "migrate."))
      << json;
  // The migration's phase transitions (including the abort + retry).
  EXPECT_TRUE(HasEvent(events, obs::FlightEventType::kMigrationPhase,
                       "copying"))
      << json;
  EXPECT_TRUE(HasEvent(events, obs::FlightEventType::kMigrationPhase,
                       "aborted"))
      << json;
  EXPECT_TRUE(HasEvent(events, obs::FlightEventType::kMigrationPhase,
                       "migrated"))
      << json;
  // The breaker transition the dead disk caused.
  EXPECT_TRUE(
      HasEvent(events, obs::FlightEventType::kBreakerTransition))
      << json;
  // The affected request's trace summary, linked by trace id.
  bool summary_found = false;
  for (const obs::FlightEvent& event : events) {
    if (event.type == obs::FlightEventType::kTraceSummary &&
        event.trace_id == affected) {
      summary_found = true;
    }
  }
  EXPECT_TRUE(summary_found) << json;
}

TEST_F(ChaosBlackboxTest, RecorderDumpIsParseableJson) {
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  QP_ASSERT_OK(sharded->PutProfile("user0", MakeProfile(1)));
  QP_ASSERT_OK(sharded->Reshard(3));
  std::string json = obs::FlightRecorder::ToJson(
      obs::FlightRecorder::Global()->Dump());
  // Structural sanity of the artifact chaos suites attach on failure.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"migration_phase\""), std::string::npos);
}

}  // namespace
}  // namespace shard
}  // namespace qp
