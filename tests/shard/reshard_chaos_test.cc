// Reshard chaos suite: live N->M resharding under armed migrate.* /
// shard.route fault schedules, concurrent mutating traffic, and shard
// kills landing mid-migration. The contract per trial, whatever the
// Reshard() call itself returned:
//
//   - zero lost acknowledged mutations: a cold reopen of the cluster
//     directory serves exactly the shadow of every acknowledged
//     Put/Remove — nothing lost, nothing resurrected, nothing doubled;
//   - exactly one owner per user: the per-shard resident sets are
//     pairwise disjoint and their union is the shadow, every user on
//     the shard the (recovered) routing table names;
//   - the routing version only ever moves forward, live and across the
//     reopen.
//
// Fault sites are restricted to the migration machine plus the router
// (the WAL itself stays healthy), so "acknowledged" is unambiguous:
// every mutation either acked and must survive, or failed cleanly and
// must not exist.
//
// Trial count comes from $QP_RESHARD_TRIALS (default 6). Every trial
// prints its seed first so a failure names the exact replay.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
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
  const char* env = std::getenv("QP_RESHARD_TRIALS");
  if (env == nullptr) return 6;
  int trials = std::atoi(env);
  return trials > 0 ? trials : 6;
}

/// The armed sites: the whole migration state machine plus the router.
/// Deliberately NOT the storage sites — a healthy WAL keeps the
/// acknowledged set exact, which is what the strict post-reopen
/// equality below depends on.
const std::vector<std::string> kChaosSites = {
    "migrate.copy", "migrate.tail", "migrate.apply", "migrate.cutover",
    "migrate.journal", "shard.route"};

class ReshardChaosTest : public ::testing::Test {
 protected:
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
  }

  ShardedOptions Options(storage::FaultInjectingFileSystem* fs,
                         size_t num_workers = 2) {
    ShardedOptions options;
    options.num_shards = 2;
    options.num_partitions = 16;
    options.dir = "cluster";
    options.service.num_workers = num_workers;
    options.service.storage.fs = fs;
    options.service.storage.compact_threshold_bytes = 0;
    options.migration.backoff = std::chrono::milliseconds(0);
    options.migration.backoff_max = std::chrono::milliseconds(1);
    options.migration.max_attempts = 3;
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

  std::unique_ptr<Database> db_;
  std::unique_ptr<ProfileGenerator> generator_;
};

TEST_F(ReshardChaosTest, ReshardUnderFaultsKillsAndTrafficLosesNothing) {
  const int trials = TrialCount();
  const uint64_t base_seed = 0x4e5a4d;
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = base_seed + trial;
    std::fprintf(stderr, "[reshard-chaos] trial %d seed=%llu\n", trial,
                 static_cast<unsigned long long>(seed));
    SCOPED_TRACE("reshard-chaos seed=" + std::to_string(seed));

    storage::FaultInjectingFileSystem fs;
    auto sharded_or =
        ShardedPersonalizationService::Open(db_.get(), Options(&fs));
    ASSERT_TRUE(sharded_or.ok()) << sharded_or.status();
    auto sharded = std::move(sharded_or).value();

    std::map<std::string, UserProfile> shadow;
    for (size_t i = 0; i < 16; ++i) {
      std::string user = "u" + std::to_string(i);
      UserProfile profile = MakeProfile(seed * 31 + i);
      QP_ASSERT_OK(sharded->PutProfile(user, profile));
      shadow[user] = std::move(profile);
    }
    const uint64_t version_start = sharded->routing_version();

    Rng plan_rng(seed ^ 0x9e37);
    const size_t target_shards = 1 + plan_rng.Below(4);  // 1..4

    FaultHub::Global()->ArmRandom(seed, kChaosSites);

    // Monotonicity is sampled continuously by the mutator below.
    std::atomic<uint64_t> max_version{version_start};
    std::atomic<bool> done{false};

    // Kills land mid-migration; every victim is recovered so the
    // migrator's retries can eventually see a live shard again. The
    // shard count moves under our feet (a shrink retires slots), so a
    // kill/recover landing on a just-retired index is a clean refusal,
    // not a test failure.
    std::thread chaos([&] {
      Rng chaos_rng(seed ^ 0x5eed);
      for (int k = 0; k < 3 && !done.load(std::memory_order_relaxed); ++k) {
        size_t victim = chaos_rng.Below(4);
        if (!sharded->KillShard(victim).ok()) continue;  // Retired slot.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        (void)sharded->RecoverShard(victim);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

    // Mutations race the whole migration; only acks enter the shadow.
    std::mutex shadow_mutex;
    std::thread mutator([&] {
      Rng mutation_rng(seed * 977 + 7);
      for (int m = 0; m < 60; ++m) {
        uint64_t version = sharded->routing_version();
        uint64_t seen = max_version.load(std::memory_order_relaxed);
        EXPECT_GE(version, seen) << "routing version went backwards";
        while (version > seen &&
               !max_version.compare_exchange_weak(
                   seen, version, std::memory_order_relaxed)) {
        }

        std::string user = "u" + std::to_string(mutation_rng.Below(16));
        if (mutation_rng.Below(6) == 0) {
          Status removed = sharded->RemoveProfile(user);
          if (removed.ok()) {
            std::lock_guard<std::mutex> lock(shadow_mutex);
            shadow.erase(user);
          } else {
            EXPECT_TRUE(removed.code() == StatusCode::kUnavailable ||
                        removed.code() == StatusCode::kNotFound)
                << removed.message();
          }
        } else {
          UserProfile profile = MakeProfile(seed * 131 + m);
          Status put = sharded->PutProfile(user, profile);
          if (put.ok()) {
            std::lock_guard<std::mutex> lock(shadow_mutex);
            shadow[user] = std::move(profile);
          } else {
            EXPECT_EQ(put.code(), StatusCode::kUnavailable) << put.message();
          }
        }
      }
    });

    // The reshard itself may fail under this schedule (faults exhaust
    // retries, a killed shard outlives the backoff budget) — that must
    // be a clean, invariant-preserving failure, never corruption.
    Status resharded = sharded->Reshard(target_shards);
    done.store(true, std::memory_order_relaxed);
    mutator.join();
    chaos.join();
    std::fprintf(
        stderr, "[reshard-chaos] seed=%llu target=%zu reshard=%s\n",
        static_cast<unsigned long long>(seed), target_shards,
        resharded.ok() ? "ok" : resharded.message().c_str());

    FaultHub::Global()->Reset();
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      QP_ASSERT_OK(sharded->RecoverShard(s));
    }

    // Live: every acknowledged profile serves through the router,
    // bit-identical, and the version never regressed.
    EXPECT_GE(sharded->routing_version(),
              max_version.load(std::memory_order_relaxed));
    for (const auto& [user, profile] : shadow) {
      auto snapshot = sharded->GetProfile(user);
      ASSERT_TRUE(snapshot.ok())
          << "acknowledged user " << user << " lost live: "
          << snapshot.status();
      EXPECT_TRUE(storage::ProfilesEqual(*snapshot.value().profile, profile))
          << "acknowledged state of " << user << " diverged live";
    }
    const uint64_t version_live = sharded->routing_version();

    // Cold restart: reopen resolves any journaled in-flight migration,
    // after which the strict invariants hold — exact shadow equality
    // and exactly one owner per user.
    sharded.reset();
    auto reopened_or =
        ShardedPersonalizationService::Open(db_.get(), Options(&fs));
    ASSERT_TRUE(reopened_or.ok()) << reopened_or.status();
    auto reopened = std::move(reopened_or).value();
    EXPECT_GE(reopened->routing_version(), version_live);

    for (const auto& [user, profile] : shadow) {
      auto snapshot = reopened->GetProfile(user);
      ASSERT_TRUE(snapshot.ok())
          << "acknowledged user " << user << " lost on reopen: "
          << snapshot.status();
      EXPECT_TRUE(storage::ProfilesEqual(*snapshot.value().profile, profile))
          << "acknowledged state of " << user << " diverged on reopen";
    }
    std::set<std::string> resident;
    for (size_t s = 0; s < reopened->num_shards(); ++s) {
      auto service = reopened->Shard(s);
      ASSERT_NE(service, nullptr) << "shard " << s;
      for (const std::string& user : service->profiles().Users()) {
        EXPECT_TRUE(resident.insert(user).second)
            << user << " resident on two shards after reopen";
        EXPECT_EQ(reopened->ShardFor(user), s)
            << user << " resident off its owner shard";
      }
    }
    std::set<std::string> expected;
    for (const auto& [user, profile] : shadow) expected.insert(user);
    EXPECT_EQ(resident, expected)
        << "resident set != acknowledged set after reopen";

    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr, "[reshard-chaos] FAILED at seed=%llu\n",
                   static_cast<unsigned long long>(seed));
      testing_util::DumpFlightRecorderSnapshot("reshard-chaos");
      return;
    }
  }
}

TEST_F(ReshardChaosTest, SameSeedSameMigrationSameFinalState) {
  // Determinism pins the replay story: a single-threaded reshard under
  // an armed schedule fires the same faults at the same call indices,
  // takes the same abort/commit decisions, and lands the same final
  // state on both runs.
  struct RunRecord {
    StatusCode reshard_code = StatusCode::kOk;
    std::map<std::string, uint64_t> fires;
    uint64_t migrated = 0;
    uint64_t aborted = 0;
    uint64_t version = 0;
    std::vector<uint32_t> owner;
    std::map<std::string, std::string> final_state;
  };
  auto run = [&](uint64_t seed) {
    RunRecord record;
    storage::FaultInjectingFileSystem fs;
    auto sharded_or = ShardedPersonalizationService::Open(
        db_.get(), Options(&fs, /*num_workers=*/1));
    EXPECT_TRUE(sharded_or.ok()) << sharded_or.status();
    if (!sharded_or.ok()) return record;
    auto sharded = std::move(sharded_or).value();
    for (size_t i = 0; i < 12; ++i) {
      UserProfile profile = MakeProfile(seed * 31 + i);
      EXPECT_TRUE(
          sharded->PutProfile("u" + std::to_string(i), profile).ok());
    }

    FaultHub::Global()->ArmRandom(seed, kChaosSites);
    record.reshard_code = sharded->Reshard(3).code();
    for (const std::string& site : kChaosSites) {
      record.fires[site] = FaultHub::Global()->fires(site);
    }
    FaultHub::Global()->Reset();

    MigrationStats migration = sharded->migration_stats();
    record.migrated = migration.partitions_migrated;
    record.aborted = migration.partitions_aborted;
    RoutingTable table = sharded->routing();
    record.version = table.version;
    record.owner = table.owner;
    for (size_t i = 0; i < 12; ++i) {
      std::string user = "u" + std::to_string(i);
      auto snapshot = sharded->GetProfile(user);
      if (snapshot.ok()) {
        record.final_state[user] = snapshot.value().profile->Serialize();
      }
    }
    return record;
  };

  RunRecord first = run(0x4e5af);
  RunRecord second = run(0x4e5af);
  EXPECT_EQ(first.reshard_code, second.reshard_code);
  EXPECT_EQ(first.fires, second.fires);
  EXPECT_EQ(first.migrated, second.migrated);
  EXPECT_EQ(first.aborted, second.aborted);
  EXPECT_EQ(first.version, second.version);
  EXPECT_EQ(first.owner, second.owner);
  EXPECT_EQ(first.final_state, second.final_state);
  ASSERT_EQ(first.final_state.size(), 12u);
}

}  // namespace
}  // namespace shard
}  // namespace qp
