// Shard chaos suite: seeded kill/recover schedules and router fault
// injection against a live sharded cluster under concurrent traffic and
// mutations. The contract per trial:
//
//   - survivors serve at full fidelity while other shards are down: a
//     golden user on a never-killed shard always gets a clean answer;
//   - requests touching a dead shard are shed with Status::Unavailable —
//     never a wrong answer, never a crash, never a hang;
//   - zero lost acknowledged mutations: after recovering every shard,
//     the cluster state equals the shadow of every acknowledged
//     Put/Remove — and so does a full close-and-reopen of the cluster
//     directory tree.
//
// Trial count comes from $QP_SHARD_CHAOS_TRIALS (default 8). Every trial
// prints its seed first so a failure names the exact replay.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/workload.h"
#include "qp/pref/profile_generator.h"
#include "qp/shard/sharded_service.h"
#include "qp/storage/fault_injection.h"
#include "qp/storage/record.h"
#include "qp/util/fault_hub.h"
#include "qp/util/random.h"

namespace qp {
namespace shard {
namespace {

int TrialCount() {
  const char* env = std::getenv("QP_SHARD_CHAOS_TRIALS");
  if (env == nullptr) return 8;
  int trials = std::atoi(env);
  return trials > 0 ? trials : 8;
}

class ShardChaosTest : public ::testing::Test {
 protected:
  static constexpr size_t kShards = 3;

  void SetUp() override {
    MovieDbConfig config;
    config.num_movies = 120;
    config.num_actors = 60;
    config.num_directors = 20;
    config.num_theatres = 6;
    config.num_days = 3;
    config.seed = 20040308;
    QP_ASSERT_OK_AND_ASSIGN(Database db, GenerateMovieDatabase(config));
    db_ = std::make_unique<Database>(std::move(db));
    QP_ASSERT_OK_AND_ASSIGN(auto pools, MovieCandidatePools(*db_));
    generator_ = std::make_unique<ProfileGenerator>(&db_->schema(),
                                                    std::move(pools));
    WorkloadGenerator workload(db_.get(), 77);
    QP_ASSERT_OK_AND_ASSIGN(queries_, workload.RandomQueries(4));
  }

  ShardedOptions Options(storage::FaultInjectingFileSystem* fs) {
    ShardedOptions options;
    options.num_shards = kShards;
    options.dir = "cluster";
    options.service.num_workers = 2;
    options.service.storage.fs = fs;
    options.service.storage.compact_threshold_bytes = 0;
    // Small hot budget: cold loads (the "shard.load" site) happen under
    // real traffic, not just in targeted unit tests.
    options.service.storage.hot_capacity = 3;
    return options;
  }

  UserProfile MakeProfile(uint64_t seed) {
    Rng rng(seed);
    ProfileGeneratorOptions options;
    options.num_selections = 8;
    auto profile = generator_->Generate(options, &rng);
    EXPECT_TRUE(profile.ok()) << profile.status();
    return profile.ok() ? std::move(profile).value() : UserProfile();
  }

  PersonalizationRequest Request(const std::string& user_id,
                                 size_t query_index) {
    PersonalizationRequest request;
    request.user_id = user_id;
    request.query = queries_[query_index % queries_.size()];
    request.options.criterion = InterestCriterion::TopCount(4);
    request.execute = false;
    return request;
  }

  /// First "<prefix><i>" user id that hashes to `shard`.
  static std::string UserOnShard(const ShardedPersonalizationService& sharded,
                                 const std::string& prefix, size_t shard) {
    for (size_t i = 0; i < 10000; ++i) {
      std::string user_id = prefix + std::to_string(i);
      if (sharded.ShardFor(user_id) == shard) return user_id;
    }
    ADD_FAILURE() << "no " << prefix << "* user hashed to shard " << shard;
    return prefix;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ProfileGenerator> generator_;
  std::vector<SelectQuery> queries_;
};

TEST_F(ShardChaosTest, KillRecoverSchedulesLoseNoAcknowledgedMutation) {
  const int trials = TrialCount();
  const uint64_t base_seed = 0x54a2d;
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = base_seed + trial;
    std::fprintf(stderr, "[shard-chaos] trial %d seed=%llu\n", trial,
                 static_cast<unsigned long long>(seed));
    SCOPED_TRACE("shard-chaos seed=" + std::to_string(seed));

    storage::FaultInjectingFileSystem fs;
    auto sharded_or =
        ShardedPersonalizationService::Open(db_.get(), Options(&fs));
    ASSERT_TRUE(sharded_or.ok()) << sharded_or.status();
    auto sharded = std::move(sharded_or).value();

    // Shard 0 is never killed; the golden user living there (outside the
    // mutator's u* namespace, so never mutated) must get a clean full
    // answer on every single request of the trial.
    const std::string golden = UserOnShard(*sharded, "golden", 0);
    std::map<std::string, UserProfile> shadow;  // Acknowledged truth.
    {
      UserProfile profile = MakeProfile(seed);
      QP_ASSERT_OK(sharded->PutProfile(golden, profile));
      shadow[golden] = std::move(profile);
    }
    for (size_t i = 0; i < 12; ++i) {
      std::string user = "u" + std::to_string(i);
      UserProfile profile = MakeProfile(seed * 31 + i + 1);
      QP_ASSERT_OK(sharded->PutProfile(user, profile));
      shadow[user] = std::move(profile);
    }

    Rng chaos_rng(seed ^ 0x5eed);
    std::mutex shadow_mutex;
    for (int round = 0; round < 3; ++round) {
      // The kill schedule for this round: a random non-zero subset of
      // the killable shards goes down mid-traffic.
      std::thread killer([&] {
        int kills = 1 + static_cast<int>(chaos_rng.Below(2));
        for (int k = 0; k < kills; ++k) {
          size_t victim = 1 + chaos_rng.Below(kShards - 1);
          EXPECT_TRUE(sharded->KillShard(victim).ok());
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });

      // Mutations race the kills; only acknowledged ones enter the
      // shadow. A shed mutation (shard already down) is a clean refusal.
      Rng mutation_rng(seed * 977 + round);
      std::thread mutator([&] {
        for (int m = 0; m < 10; ++m) {
          std::string user = "u" + std::to_string(mutation_rng.Below(12));
          if (mutation_rng.Below(5) == 0) {
            Status removed = sharded->RemoveProfile(user);
            if (removed.ok()) {
              std::lock_guard<std::mutex> lock(shadow_mutex);
              shadow.erase(user);
            } else {
              // Dead shard (shed) or an earlier Remove won (NotFound).
              EXPECT_TRUE(removed.code() == StatusCode::kUnavailable ||
                          removed.code() == StatusCode::kNotFound)
                  << removed.message();
            }
          } else {
            UserProfile profile =
                MakeProfile(seed * 131 + round * 17 + m);
            Status put = sharded->PutProfile(user, profile);
            if (put.ok()) {
              std::lock_guard<std::mutex> lock(shadow_mutex);
              shadow[user] = std::move(profile);
            } else {
              EXPECT_EQ(put.code(), StatusCode::kUnavailable)
                  << put.message();
            }
          }
        }
      });

      // Traffic over every user, golden included, while shards die.
      std::vector<PersonalizationRequest> requests;
      for (int i = 0; i < 16; ++i) {
        if (i % 4 == 0) {
          requests.push_back(Request(golden, round * 16 + i));
        } else {
          requests.push_back(
              Request("u" + std::to_string(i % 12), round * 16 + i));
        }
      }
      std::vector<PersonalizationResponse> responses =
          sharded->PersonalizeBatchAndWait(requests);
      killer.join();
      mutator.join();

      ASSERT_EQ(responses.size(), requests.size());
      for (size_t i = 0; i < responses.size(); ++i) {
        if (requests[i].user_id == golden) {
          // The never-killed shard serves at full fidelity throughout.
          ASSERT_TRUE(responses[i].status.ok())
              << "golden user failed during chaos: " << responses[i].status;
          EXPECT_EQ(responses[i].disposition, RequestDisposition::kFull);
        } else if (!responses[i].status.ok()) {
          // Requests that met a dead shard shed cleanly; a removed user
          // is a clean NotFound. Nothing else is acceptable.
          EXPECT_TRUE(
              responses[i].status.code() == StatusCode::kUnavailable ||
              responses[i].status.code() == StatusCode::kNotFound)
              << responses[i].status;
          if (responses[i].status.code() == StatusCode::kUnavailable) {
            EXPECT_EQ(responses[i].disposition, RequestDisposition::kShed);
          }
        }
      }

      // Heal every shard before the next round; recovery replays each
      // dead shard's WAL with no mutations in flight on it.
      for (size_t s = 0; s < kShards; ++s) {
        QP_ASSERT_OK(sharded->RecoverShard(s));
      }
      ASSERT_EQ(sharded->alive_shards(), kShards);
      if (::testing::Test::HasFailure()) break;
    }
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr, "[shard-chaos] FAILED at seed=%llu\n",
                   static_cast<unsigned long long>(seed));
      return;
    }

    // Zero lost acknowledged mutations: the live cluster equals the
    // shadow exactly...
    size_t population = 0;
    for (size_t s = 0; s < kShards; ++s) {
      population += sharded->Shard(s)->profiles().size();
    }
    EXPECT_EQ(population, shadow.size());
    for (const auto& [user, profile] : shadow) {
      auto snapshot = sharded->GetProfile(user);
      ASSERT_TRUE(snapshot.ok())
          << "acknowledged user " << user << " lost: " << snapshot.status();
      EXPECT_TRUE(storage::ProfilesEqual(*snapshot.value().profile, profile))
          << "acknowledged state of " << user << " diverged";
    }

    // ...and so does a cold restart of the whole cluster from disk.
    sharded.reset();
    auto reopened_or =
        ShardedPersonalizationService::Open(db_.get(), Options(&fs));
    ASSERT_TRUE(reopened_or.ok()) << reopened_or.status();
    auto reopened = std::move(reopened_or).value();
    for (const auto& [user, profile] : shadow) {
      auto snapshot = reopened->GetProfile(user);
      ASSERT_TRUE(snapshot.ok()) << "user " << user << " lost on reopen";
      EXPECT_TRUE(storage::ProfilesEqual(*snapshot.value().profile, profile));
    }
  }
}

TEST_F(ShardChaosTest, RouterFaultSchedulesShedCleanlyAndHeal) {
  const int trials = TrialCount();
  const uint64_t base_seed = 0xf0a17;
  const std::vector<std::string> shard_sites = {"shard.route", "shard.load"};
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = base_seed + trial;
    std::fprintf(stderr, "[shard-chaos] route trial %d seed=%llu\n", trial,
                 static_cast<unsigned long long>(seed));
    SCOPED_TRACE("route-chaos seed=" + std::to_string(seed));

    storage::FaultInjectingFileSystem fs;
    auto sharded_or =
        ShardedPersonalizationService::Open(db_.get(), Options(&fs));
    ASSERT_TRUE(sharded_or.ok()) << sharded_or.status();
    auto sharded = std::move(sharded_or).value();

    std::map<std::string, UserProfile> shadow;
    for (size_t i = 0; i < 10; ++i) {
      std::string user = "u" + std::to_string(i);
      UserProfile profile = MakeProfile(seed * 31 + i);
      QP_ASSERT_OK(sharded->PutProfile(user, profile));
      shadow[user] = std::move(profile);
    }

    // Read-only traffic under a random shard.route/shard.load schedule:
    // every response resolves, failures are injected ones, nothing is
    // silently wrong (execute=false responses are checked by the cache
    // equivalence tests; here the property is crash-freedom + healing).
    FaultHub::Global()->ArmRandom(seed, shard_sites);
    for (int round = 0; round < 4; ++round) {
      std::vector<PersonalizationRequest> requests;
      for (int i = 0; i < 12; ++i) {
        requests.push_back(
            Request("u" + std::to_string(i % 10), round * 12 + i));
      }
      std::vector<PersonalizationResponse> responses =
          sharded->PersonalizeBatchAndWait(requests);
      ASSERT_EQ(responses.size(), requests.size());
    }
    const uint64_t route_fires = FaultHub::Global()->fires("shard.route");
    const uint64_t load_fires = FaultHub::Global()->fires("shard.load");
    FaultHub::Global()->Reset();

    // Faults gone: every user personalizes cleanly and no acknowledged
    // profile was disturbed by the injected load/route failures.
    for (size_t i = 0; i < 10; ++i) {
      std::string user = "u" + std::to_string(i);
      PersonalizationResponse response =
          sharded->Personalize(Request(user, i));
      ASSERT_TRUE(response.status.ok())
          << user << " after heal: " << response.status;
      auto snapshot = sharded->GetProfile(user);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status();
      EXPECT_TRUE(
          storage::ProfilesEqual(*snapshot.value().profile, shadow[user]));
    }
    std::fprintf(stderr,
                 "[shard-chaos] seed=%llu route_fires=%llu load_fires=%llu\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(route_fires),
                 static_cast<unsigned long long>(load_fires));
  }
}

}  // namespace
}  // namespace shard
}  // namespace qp
