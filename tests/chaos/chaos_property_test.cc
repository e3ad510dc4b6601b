// Deterministic chaos property suite: seeded random fault schedules
// (FaultHub::ArmRandom over every known site) run against a live durable
// PersonalizationService under concurrent traffic and mutations. Each
// trial asserts the robustness contract end to end:
//
//   - no crash, no hang: every future resolves, every Status is clean;
//   - golden-user answers are never silently wrong: full responses match
//     the fault-free baseline exactly, degraded ones are exact prefixes
//     of its selection;
//   - the accounting identity holds at quiescence:
//       requests == full + degraded + shed + deadline_exceeded + errors;
//   - recovery converges once faults stop: the breaker closes, the
//     scrubber reports the store clean, nothing stays quarantined;
//   - zero lost acknowledged mutations: the final store state equals the
//     shadow of every acknowledged Put/Remove, including across a
//     close-and-reopen of the storage directory.
//
// Trial count comes from $QP_CHAOS_TRIALS (default 25; CI runs >= 200
// across the sanitizer builds). Every trial prints its seed first, so a
// failure — even a hang killed by the ctest timeout — names the exact
// seed to replay.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/core/personalizer.h"
#include "qp/data/movie_db.h"
#include "qp/data/workload.h"
#include "qp/pref/profile_generator.h"
#include "qp/service/service.h"
#include "qp/storage/fault_injection.h"
#include "qp/storage/record.h"
#include "qp/util/fault_hub.h"
#include "qp/util/random.h"

namespace qp {
namespace {

int TrialCount() {
  const char* env = std::getenv("QP_CHAOS_TRIALS");
  if (env == nullptr) return 25;
  int trials = std::atoi(env);
  return trials > 0 ? trials : 25;
}

class ChaosPropertyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MovieDbConfig config;
    config.num_movies = 120;
    config.num_actors = 60;
    config.num_directors = 20;
    config.num_theatres = 6;
    config.num_days = 3;
    config.seed = 20040308;
    auto db = GenerateMovieDatabase(config);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = new Database(std::move(db).value());
    auto pools = MovieCandidatePools(*db_);
    ASSERT_TRUE(pools.ok()) << pools.status();
    generator_ = new ProfileGenerator(&db_->schema(), std::move(pools).value());

    WorkloadGenerator workload(db_, 77);
    auto queries = workload.RandomQueries(6);
    ASSERT_TRUE(queries.ok()) << queries.status();
    queries_ = new std::vector<SelectQuery>(std::move(queries).value());

    golden_ = new UserProfile(MakeProfile(4242, 24));
    auto graph = PersonalizationGraph::Build(&db_->schema(), *golden_);
    ASSERT_TRUE(graph.ok()) << graph.status();
    golden_graph_ = new PersonalizationGraph(std::move(graph).value());

    // Fault-free baselines for the golden user, one per query: the
    // selection (for the prefix property) and the executed rows (for
    // exact-match of full answers). Computed before any chaos arms.
    baselines_ = new std::vector<Baseline>();
    Personalizer personalizer(golden_graph_);
    for (const SelectQuery& query : *queries_) {
      Baseline baseline;
      auto outcome = personalizer.Personalize(query, RequestOptions());
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      baseline.selected = outcome.value().selected;
      auto rows =
          personalizer.PersonalizeAndExecute(query, RequestOptions(), *db_);
      ASSERT_TRUE(rows.ok()) << rows.status();
      baseline.personalized_rows = rows.value().rows();
      baselines_->push_back(std::move(baseline));
    }
  }

  static void TearDownTestSuite() {
    delete baselines_;
    delete golden_graph_;
    delete golden_;
    delete queries_;
    delete generator_;
    delete db_;
    baselines_ = nullptr;
    golden_graph_ = nullptr;
    golden_ = nullptr;
    queries_ = nullptr;
    generator_ = nullptr;
    db_ = nullptr;
  }

  struct Baseline {
    std::vector<PreferencePath> selected;
    std::vector<Row> personalized_rows;
  };

  static PersonalizationOptions RequestOptions() {
    PersonalizationOptions options;
    options.criterion = InterestCriterion::TopCount(4);
    return options;
  }

  static UserProfile MakeProfile(uint64_t seed, size_t num_selections) {
    Rng rng(seed);
    ProfileGeneratorOptions options;
    options.num_selections = num_selections;
    auto profile = generator_->Generate(options, &rng);
    EXPECT_TRUE(profile.ok()) << profile.status();
    return profile.ok() ? std::move(profile).value() : UserProfile();
  }

  static PersonalizationRequest GoldenRequest(size_t query_index,
                                              bool execute) {
    PersonalizationRequest request;
    request.user_id = "golden";
    request.query = (*queries_)[query_index % queries_->size()];
    request.options = RequestOptions();
    request.execute = execute;
    return request;
  }

  /// `cut` must agree element-by-element with a prefix of `full`.
  static void AssertSelectionPrefix(const std::vector<PreferencePath>& cut,
                                    const std::vector<PreferencePath>& full) {
    ASSERT_LE(cut.size(), full.size());
    for (size_t i = 0; i < cut.size(); ++i) {
      EXPECT_DOUBLE_EQ(cut[i].doi(), full[i].doi()) << "position " << i;
      EXPECT_TRUE(cut[i].SameShape(full[i])) << "position " << i;
    }
  }

  /// Every clean golden-user response must be right: a full answer
  /// matches the fault-free baseline bit for bit; a degraded one (the
  /// quarantine bypass serves the raw query) carries the raw query as SQ
  /// and an empty selection — which is trivially a prefix. Either way
  /// the selection-prefix property holds.
  static void CheckGoldenResponse(const PersonalizationRequest& request,
                                  const PersonalizationResponse& response,
                                  size_t query_index) {
    if (!response.status.ok()) return;  // Injected errors are clean fails.
    const Baseline& baseline = (*baselines_)[query_index % baselines_->size()];
    AssertSelectionPrefix(response.outcome.selected, baseline.selected);
    if (response.disposition == RequestDisposition::kFull) {
      ASSERT_EQ(response.outcome.selected.size(), baseline.selected.size());
      if (request.execute) {
        EXPECT_TRUE(testing_util::SameRows(response.results.rows(),
                                           baseline.personalized_rows))
            << "full answer diverged from the fault-free baseline";
      }
    }
  }

  static Database* db_;
  static ProfileGenerator* generator_;
  static std::vector<SelectQuery>* queries_;
  static UserProfile* golden_;
  static PersonalizationGraph* golden_graph_;
  static std::vector<Baseline>* baselines_;
};

Database* ChaosPropertyTest::db_ = nullptr;
ProfileGenerator* ChaosPropertyTest::generator_ = nullptr;
std::vector<SelectQuery>* ChaosPropertyTest::queries_ = nullptr;
UserProfile* ChaosPropertyTest::golden_ = nullptr;
PersonalizationGraph* ChaosPropertyTest::golden_graph_ = nullptr;
std::vector<ChaosPropertyTest::Baseline>* ChaosPropertyTest::baselines_ =
    nullptr;

TEST_F(ChaosPropertyTest, SeededTrialsSurviveRandomFaultSchedules) {
  const int trials = TrialCount();
  const uint64_t base_seed = 0x9e04;
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = base_seed + trial;
    // Printed eagerly so even a hang killed by the ctest timeout names
    // the seed to replay.
    std::fprintf(stderr, "[chaos] trial %d seed=%llu\n", trial,
                 static_cast<unsigned long long>(seed));
    SCOPED_TRACE("chaos seed=" + std::to_string(seed));

    storage::FaultInjectingFileSystem fs;
    ServiceOptions options;
    options.num_workers = 2;
    options.cache_capacity = 64;
    options.storage.dir = "db";
    options.storage.fs = &fs;
    options.storage.compact_threshold_bytes = 0;
    options.storage.breaker_threshold = 2;
    options.storage.breaker_backoff = std::chrono::milliseconds(1);
    options.storage.breaker_backoff_max = std::chrono::milliseconds(20);
    options.storage.scrub_interval = std::chrono::milliseconds(2);
    auto service_or = PersonalizationService::OpenDurable(db_, options);
    ASSERT_TRUE(service_or.ok()) << service_or.status();
    auto service = std::move(service_or).value();

    // Seed the store before arming: the golden user (never mutated — the
    // correctness oracle) plus a working set the mutator thread churns.
    std::map<std::string, UserProfile> shadow;  // Acknowledged truth.
    QP_ASSERT_OK(service->profiles().Put("golden", *golden_));
    for (int u = 0; u < 4; ++u) {
      std::string user = "u" + std::to_string(u);
      UserProfile profile = MakeProfile(seed * 31 + u, 8);
      QP_ASSERT_OK(service->profiles().Put(user, profile));
      shadow[user] = std::move(profile);
    }

    FaultHub::Global()->ArmRandom(seed, FaultHub::KnownSites());

    // Chaos rounds: concurrent PersonalizeBatch + profile mutations
    // while every subsystem's fault sites fire per the seeded schedule.
    Rng mutation_rng(seed ^ 0xabcdef);
    std::mutex shadow_mutex;
    for (int round = 0; round < 3; ++round) {
      std::vector<PersonalizationRequest> requests;
      for (int i = 0; i < 6; ++i) {
        if (i % 3 == 0) {
          requests.push_back(GoldenRequest(round * 6 + i, /*execute=*/true));
        } else {
          PersonalizationRequest request;
          request.user_id =
              i % 3 == 1 ? "u" + std::to_string(i % 4) : "nobody";
          request.query = (*queries_)[(round * 6 + i) % queries_->size()];
          request.options = RequestOptions();
          request.execute = false;
          requests.push_back(std::move(request));
        }
      }
      std::thread mutator([&] {
        for (int m = 0; m < 4; ++m) {
          std::string user = "u" + std::to_string(mutation_rng.Below(4));
          if (mutation_rng.Below(5) == 0) {
            if (service->profiles().Remove(user).ok()) {
              std::lock_guard<std::mutex> lock(shadow_mutex);
              shadow.erase(user);
            }
          } else {
            UserProfile profile =
                MakeProfile(seed * 977 + round * 17 + m, 6);
            if (service->profiles().Put(user, profile).ok()) {
              std::lock_guard<std::mutex> lock(shadow_mutex);
              shadow[user] = std::move(profile);
            }
          }
        }
      });
      std::vector<PersonalizationResponse> responses =
          service->PersonalizeBatchAndWait(requests);
      mutator.join();
      ASSERT_EQ(responses.size(), requests.size());
      for (size_t i = 0; i < responses.size(); ++i) {
        if (requests[i].user_id == "golden") {
          CheckGoldenResponse(requests[i], responses[i], round * 6 + i);
        } else if (requests[i].user_id == "nobody") {
          EXPECT_FALSE(responses[i].status.ok());
        }
      }
      if (::testing::Test::HasFailure()) break;
    }

    // Heal: stop injecting and drive mutations until the breaker's
    // half-open probe closes it again (bounded, so a lost recovery shows
    // up as a failure rather than a hang).
    FaultHub::Global()->Reset();
    bool recovered = false;
    UserProfile heal_profile = MakeProfile(seed * 131 + 7, 4);
    for (int attempt = 0; attempt < 2000; ++attempt) {
      if (service->profiles().Put("u0", heal_profile).ok()) {
        std::lock_guard<std::mutex> lock(shadow_mutex);
        shadow["u0"] = heal_profile;
        recovered = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(recovered) << "store never became writable after faults "
                              "stopped (breaker failed to close)";
    EXPECT_FALSE(service->stats().storage.breaker_open);

    // Scrub converges to clean: no corruption findings, no quarantine.
    storage::ScrubReport report;
    QP_ASSERT_OK(service->profiles().ScrubOnce(&report));
    QP_ASSERT_OK(service->profiles().ScrubOnce(&report));
    EXPECT_EQ(report.disk_corruptions, 0u);
    EXPECT_EQ(report.invariant_violations, 0u);
    EXPECT_EQ(service->stats().storage.quarantined_profiles, 0u);

    // Accounting identity at quiescence.
    ServiceStats stats = service->stats();
    EXPECT_EQ(stats.requests, stats.full + stats.degraded + stats.shed +
                                  stats.deadline_exceeded + stats.errors)
        << "requests=" << stats.requests << " full=" << stats.full
        << " degraded=" << stats.degraded << " shed=" << stats.shed
        << " deadline=" << stats.deadline_exceeded
        << " errors=" << stats.errors;

    // Zero lost acknowledged mutations: the live store matches the
    // shadow exactly...
    EXPECT_EQ(service->profiles().size(), shadow.size() + 1);
    for (const auto& [user, profile] : shadow) {
      auto snapshot = service->profiles().Get(user);
      ASSERT_TRUE(snapshot.ok()) << "acknowledged user " << user << " lost";
      EXPECT_TRUE(storage::ProfilesEqual(*snapshot.value().profile, profile))
          << "acknowledged state of " << user << " diverged";
    }

    // ...and so does a close-and-reopen of the directory. The checkpoint
    // first rotates out any WAL residue of *unacknowledged* appends
    // (failed mutations must not resurrect on replay).
    QP_ASSERT_OK(service->profiles().Checkpoint());
    service.reset();
    auto reopened_or =
        storage::DurableProfileStore::Open(&db_->schema(), options.storage);
    ASSERT_TRUE(reopened_or.ok()) << reopened_or.status();
    auto reopened = std::move(reopened_or).value();
    EXPECT_EQ(reopened->size(), shadow.size() + 1);
    for (const auto& [user, profile] : shadow) {
      auto snapshot = reopened->Get(user);
      ASSERT_TRUE(snapshot.ok()) << "user " << user << " lost on reopen";
      EXPECT_TRUE(storage::ProfilesEqual(*snapshot.value().profile, profile));
    }
    auto golden_snapshot = reopened->Get("golden");
    ASSERT_TRUE(golden_snapshot.ok());
    EXPECT_TRUE(
        storage::ProfilesEqual(*golden_snapshot.value().profile, *golden_));

    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr, "[chaos] FAILED at seed=%llu\n",
                   static_cast<unsigned long long>(seed));
      testing_util::DumpFlightRecorderSnapshot("chaos");
      return;
    }
  }
}

/// Reproducibility: the same seed must produce the same fault schedule,
/// the same per-request dispositions and the same final store state.
/// Driven sequentially (batches of one, one worker, no background
/// threads) because concurrent scheduling legitimately reorders which
/// *request* meets which fault — determinism is per (seed, call index),
/// not per wall-clock interleaving.
TEST_F(ChaosPropertyTest, SameSeedSameDispositionsSameFinalState) {
  struct RunRecord {
    std::vector<std::pair<int, int>> dispositions;  // (status code, dispo).
    std::vector<std::pair<std::string, uint64_t>> fires;  // site -> count.
    std::map<std::string, std::string> final_state;
  };
  auto run = [&](uint64_t seed) {
    RunRecord record;
    storage::FaultInjectingFileSystem fs;
    ServiceOptions options;
    options.num_workers = 1;
    options.cache_capacity = 16;
    options.storage.dir = "db";
    options.storage.fs = &fs;
    options.storage.compact_threshold_bytes = 0;
    options.storage.breaker_threshold = 2;
    // One-way breaker + no scrub thread: no timing-dependent transitions.
    options.storage.breaker_backoff = std::chrono::milliseconds(0);
    options.storage.scrub_interval = std::chrono::milliseconds(0);
    auto service_or = PersonalizationService::OpenDurable(db_, options);
    EXPECT_TRUE(service_or.ok()) << service_or.status();
    if (!service_or.ok()) return record;
    auto service = std::move(service_or).value();
    EXPECT_TRUE(service->profiles().Put("golden", *golden_).ok());
    EXPECT_TRUE(
        service->profiles().Put("u0", MakeProfile(seed * 31, 8)).ok());

    FaultHub::Global()->ArmRandom(seed, FaultHub::KnownSites());
    for (int i = 0; i < 24; ++i) {
      PersonalizationRequest request =
          GoldenRequest(i, /*execute=*/i % 2 == 0);
      PersonalizationResponse response = service->PersonalizeOne(request);
      record.dispositions.emplace_back(
          static_cast<int>(response.status.code()),
          static_cast<int>(response.disposition));
      if (i % 4 == 3) {
        // Interleave a deterministic mutation between requests; whether
        // it is acknowledged is itself part of the recorded schedule.
        (void)service->profiles().Put("u0", MakeProfile(seed * 77 + i, 6));
      }
    }
    for (const std::string& site : FaultHub::KnownSites()) {
      record.fires.emplace_back(site, FaultHub::Global()->fires(site));
    }
    FaultHub::Global()->Reset();
    for (const auto& [user, snapshot] : service->profiles().All()) {
      record.final_state[user] = snapshot.profile->Serialize();
    }
    return record;
  };

  RunRecord first = run(0xfeed);
  RunRecord second = run(0xfeed);
  EXPECT_EQ(first.dispositions, second.dispositions);
  EXPECT_EQ(first.fires, second.fires);
  EXPECT_EQ(first.final_state, second.final_state);

  RunRecord other = run(0xbeef);
  EXPECT_NE(first.fires, other.fires)
      << "different seeds produced identical fault schedules";
}

}  // namespace
}  // namespace qp
