// Live-resharding functional tests: grow and shrink preserve every
// acknowledged profile with exactly one owner per user, the persisted
// routing table outlives (and overrides) stale open options, a faulted
// cutover aborts cleanly and converges on retry, journaled migrations
// resolve both ways after a crash, a shrink resolves a leftover journal
// entry before it retires the shard it names, a grow drops a stale copy
// its target already held, a put in flight at the copy watermark is
// neither skipped by the tail nor missing from the copy, a mutator
// racing the drain-and-cutover barrier loses no ack, and a grow's copy
// leaves the sources' hot sets resident.

#include <algorithm>
#include <atomic>
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
#include "qp/storage/durable_profile_store.h"
#include "qp/storage/fault_injection.h"
#include "qp/storage/record.h"
#include "qp/util/fault_hub.h"

namespace qp {
namespace shard {
namespace {

class ReshardTest : public ::testing::Test {
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

  ShardedOptions Options(size_t num_shards, size_t num_partitions = 16) {
    ShardedOptions options;
    options.num_shards = num_shards;
    options.num_partitions = num_partitions;
    options.dir = "cluster";
    options.service.num_workers = 2;
    options.service.storage.fs = &fs_;
    options.service.storage.compact_threshold_bytes = 0;
    options.migration.backoff = std::chrono::milliseconds(0);
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
    options.num_selections = 8;
    auto profile = generator_->Generate(options, &rng);
    EXPECT_TRUE(profile.ok()) << profile.status();
    return profile.ok() ? std::move(profile).value() : UserProfile();
  }

  /// Populates `count` users and returns the acknowledged shadow.
  std::map<std::string, UserProfile> Populate(
      ShardedPersonalizationService* sharded, size_t count, uint64_t seed) {
    std::map<std::string, UserProfile> shadow;
    for (size_t i = 0; i < count; ++i) {
      std::string user = "u" + std::to_string(i);
      UserProfile profile = MakeProfile(seed + i);
      EXPECT_TRUE(sharded->PutProfile(user, profile).ok());
      shadow[user] = std::move(profile);
    }
    return shadow;
  }

  /// The zero-loss + one-owner check: every shadow user reads back equal
  /// through the router, and the union of per-shard resident sets is
  /// exactly the shadow keys with no user on two shards.
  void ExpectExactlyShadow(ShardedPersonalizationService* sharded,
                           const std::map<std::string, UserProfile>& shadow) {
    for (const auto& [user, profile] : shadow) {
      auto snapshot = sharded->GetProfile(user);
      ASSERT_TRUE(snapshot.ok())
          << "acknowledged user " << user << " lost: " << snapshot.status();
      EXPECT_TRUE(storage::ProfilesEqual(*snapshot.value().profile, profile))
          << "acknowledged state of " << user << " diverged";
    }
    std::set<std::string> resident;
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      auto service = sharded->Shard(s);
      ASSERT_NE(service, nullptr) << "shard " << s;
      for (const std::string& user : service->profiles().Users()) {
        EXPECT_TRUE(resident.insert(user).second)
            << user << " resident on two shards";
        EXPECT_EQ(sharded->ShardFor(user), s)
            << user << " resident off its owner shard";
      }
    }
    std::set<std::string> expected;
    for (const auto& [user, profile] : shadow) expected.insert(user);
    EXPECT_EQ(resident, expected);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ProfileGenerator> generator_;
  storage::FaultInjectingFileSystem fs_;
};

TEST_F(ReshardTest, GrowPreservesEveryUserWithExactlyOneOwner) {
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  auto shadow = Populate(sharded.get(), 24, 1000);
  const uint64_t version_before = sharded->routing_version();

  QP_ASSERT_OK(sharded->Reshard(4));

  EXPECT_EQ(sharded->num_shards(), 4u);
  EXPECT_GT(sharded->routing_version(), version_before);
  // 16 partitions over 4 shards: perfectly balanced, 8 partitions moved.
  std::vector<size_t> counts = sharded->routing().PartitionCounts();
  ASSERT_EQ(counts.size(), 4u);
  for (size_t s = 0; s < 4; ++s) EXPECT_EQ(counts[s], 4u) << "shard " << s;
  MigrationStats migration = sharded->migration_stats();
  EXPECT_EQ(migration.partitions_migrated, 8u);
  EXPECT_EQ(migration.partitions_aborted, 0u);
  EXPECT_EQ(migration.active, 0u);
  ExpectExactlyShadow(sharded.get(), shadow);

  // Resharding to the current count converges as a no-op.
  QP_ASSERT_OK(sharded->Reshard(4));
  EXPECT_EQ(sharded->migration_stats().partitions_migrated, 8u);
}

TEST_F(ReshardTest, GrowLeavesTheSourcesHotSetsResident) {
  ShardedOptions options = Options(2);
  options.service.storage.hot_capacity = 8;
  auto sharded = MustOpen(std::move(options));
  ASSERT_NE(sharded, nullptr);
  auto shadow = Populate(sharded.get(), 400, 6000);
  for (size_t s = 0; s < 2; ++s) {
    QP_ASSERT_OK(sharded->Shard(s)->profiles().Checkpoint());
  }
  auto cold_loads = [&] {
    uint64_t total = 0;
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      total += sharded->Shard(s)->profiles().tier_stats().cold_loads;
    }
    return total;
  };

  // Read 8 users of partitions the grow leaves in place hot, 4 per shard.
  const RoutingTable before = sharded->routing();
  QP_ASSERT_OK_AND_ASSIGN(RoutingTable plan, PlanReshard(before, 4));
  std::vector<std::string> hot;
  std::vector<size_t> per_shard(2, 0);
  for (const auto& [user, profile] : shadow) {
    const size_t partition = sharded->PartitionFor(user);
    const uint32_t owner = before.owner[partition];
    if (plan.owner[partition] != owner || per_shard[owner] == 4) continue;
    ++per_shard[owner];
    hot.push_back(user);
  }
  ASSERT_EQ(hot.size(), 8u);
  for (const std::string& user : hot) {
    QP_ASSERT_OK(sharded->GetProfile(user).status());
  }
  const uint64_t loads_hot = cold_loads();
  for (const std::string& user : hot) {
    QP_ASSERT_OK(sharded->GetProfile(user).status());
  }
  ASSERT_EQ(cold_loads(), loads_hot) << "the 8 users did not stay resident";

  // The copy reads some 200 users of the moving partitions; none of them
  // may be paged in on its source and push the 8 out.
  QP_ASSERT_OK(sharded->Reshard(4));
  ASSERT_GT(sharded->migration_stats().users_copied, 100u);
  const uint64_t loads_after = cold_loads();
  for (const std::string& user : hot) {
    auto snapshot = sharded->GetProfile(user);
    QP_ASSERT_OK(snapshot.status());
    EXPECT_TRUE(
        storage::ProfilesEqual(*snapshot.value().profile, shadow.at(user)));
  }
  EXPECT_EQ(cold_loads(), loads_after)
      << "a reshard evicted hot users of partitions that did not move";
  ExpectExactlyShadow(sharded.get(), shadow);
}

TEST_F(ReshardTest, ShrinkDrainsRetiredShardsAndTearsThemDown) {
  auto sharded = MustOpen(Options(4));
  ASSERT_NE(sharded, nullptr);
  auto shadow = Populate(sharded.get(), 24, 2000);

  QP_ASSERT_OK(sharded->Reshard(2));

  EXPECT_EQ(sharded->num_shards(), 2u);
  std::vector<size_t> counts = sharded->routing().PartitionCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 8u);
  EXPECT_EQ(counts[1], 8u);
  ExpectExactlyShadow(sharded.get(), shadow);

  // And back up: the retired directories are re-opened and re-populated
  // purely through migration.
  QP_ASSERT_OK(sharded->Reshard(3));
  EXPECT_EQ(sharded->num_shards(), 3u);
  ExpectExactlyShadow(sharded.get(), shadow);
}

TEST_F(ReshardTest, ReopenAfterReshardRoutingFileWinsOverStaleOptions) {
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  auto shadow = Populate(sharded.get(), 16, 3000);
  QP_ASSERT_OK(sharded->Reshard(4));
  const uint64_t version = sharded->routing_version();
  sharded.reset();

  // Reopening with the stale fresh-cluster seed (2 shards): the
  // persisted ROUTING file is the truth.
  auto reopened = MustOpen(Options(2));
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->num_shards(), 4u);
  EXPECT_GE(reopened->routing_version(), version);
  ExpectExactlyShadow(reopened.get(), shadow);
}

TEST_F(ReshardTest, CutoverFaultAbortsCleanlyAndRetryConverges) {
  ShardedOptions options = Options(2);
  options.migration.max_attempts = 2;
  auto sharded = MustOpen(std::move(options));
  ASSERT_NE(sharded, nullptr);
  auto shadow = Populate(sharded.get(), 16, 4000);

  {
    ScopedFaultInjection chaos(11);
    FaultRule rule;
    rule.fire_every = 1;
    FaultHub::Global()->SetRule("migrate.cutover", rule);
    Status failed = sharded->Reshard(4);
    EXPECT_FALSE(failed.ok());
  }

  // Every migration aborted at its commit point: routing never flipped,
  // every user still serves from its source shard, nothing was lost —
  // and no partition is left mid-flight.
  MigrationStats aborted = sharded->migration_stats();
  EXPECT_EQ(aborted.partitions_migrated, 0u);
  EXPECT_EQ(aborted.partitions_aborted, 8u);
  EXPECT_EQ(aborted.active, 0u);
  EXPECT_GE(aborted.retries, 8u);
  ExpectExactlyShadow(sharded.get(), shadow);

  // Disarmed, the same reshard converges: already-correct partitions
  // no-op, the aborted ones migrate.
  QP_ASSERT_OK(sharded->Reshard(4));
  EXPECT_EQ(sharded->num_shards(), 4u);
  EXPECT_EQ(sharded->migration_stats().partitions_migrated, 8u);
  ExpectExactlyShadow(sharded.get(), shadow);
}

TEST_F(ReshardTest, TailApplyFaultRetriesWithoutLosingAckedMutations) {
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  auto shadow = Populate(sharded.get(), 24, 9000);

  // One transient target-side failure on the first tail-replayed record:
  // the retry must re-apply that record, not resume past it.
  ScopedFaultInjection chaos(17);
  FaultRule rule;
  rule.fire_on_nth = 1;
  rule.max_fires = 1;
  FaultHub::Global()->SetRule("migrate.apply", rule);

  // The mutator only *creates* users, each with a single acknowledged
  // write landing past the copy watermark: a tail record the retry
  // skips is that user lost outright, never masked by a later write.
  std::mutex shadow_mutex;
  std::atomic<bool> done{false};
  std::thread mutator([&] {
    uint64_t k = 0;
    while (!done.load(std::memory_order_relaxed)) {
      std::string user = "tail-m" + std::to_string(k);
      UserProfile profile = MakeProfile(9100 + k);
      Status put = sharded->PutProfile(user, profile);
      ASSERT_TRUE(put.ok()) << put;  // No error faults armed on the ack path.
      std::lock_guard<std::mutex> lock(shadow_mutex);
      shadow[user] = std::move(profile);
      ++k;
    }
  });

  // Reshard back and forth until a tail round actually hit the fault
  // (ctest's timeout is the backstop; in practice the first pass fires).
  size_t next = 4;
  while (FaultHub::Global()->fires("migrate.apply") == 0) {
    QP_ASSERT_OK(sharded->Reshard(next));
    next = next == 4 ? 2 : 4;
  }
  done.store(true, std::memory_order_relaxed);
  mutator.join();

  EXPECT_GE(FaultHub::Global()->fires("migrate.apply"), 1u);
  ExpectExactlyShadow(sharded.get(), shadow);
}

TEST_F(ReshardTest, CopyRestartAfterWalRotationDropsPartialCopy) {
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  auto shadow = Populate(sharded.get(), 24, 10000);

  // Every tail round stalls at entry, holding each migration in its
  // tail phase long enough for the remove + checkpoint below to land
  // between the copy pass and the next tail read.
  ScopedFaultInjection chaos(19);
  FaultRule stall;
  stall.fire_every = 1;
  stall.mode = FaultMode::kDelay;
  stall.delay = std::chrono::microseconds(50000);
  FaultHub::Global()->SetRule("migrate.tail", stall);

  // Each pass: pick a victim whose partition the plan moves, reshard in
  // the background, wait for the copy pass to land the victim on the
  // target, then remove the victim (acknowledged by the source) and
  // checkpoint the source so the WAL tail — carrying the remove —
  // rotates away. The migration's next tail read gets OutOfRange and
  // must restart its copy from scratch; resuming over the partial copy
  // would resurrect the deleted victim after cutover. The stall above
  // makes the window land in practice on the first pass; if scheduling
  // starved it, reshard back and try again (ctest timeout backstop).
  size_t grow = 4;
  while (sharded->migration_stats().copy_restarts == 0) {
    RoutingTable current = sharded->routing();
    auto plan_or = PlanReshard(current, grow);
    QP_ASSERT_OK(plan_or.status());
    std::string victim;
    for (const auto& [user, profile] : shadow) {
      const size_t p = sharded->PartitionFor(user);
      if (plan_or.value().owner[p] != current.owner[p]) {
        victim = user;
        break;
      }
    }
    ASSERT_FALSE(victim.empty());
    const size_t victim_partition = sharded->PartitionFor(victim);
    const uint32_t source = current.owner[victim_partition];
    const uint32_t target = plan_or.value().owner[victim_partition];

    std::thread resharder([&, grow] {
      Status resharded = sharded->Reshard(grow);
      EXPECT_TRUE(resharded.ok()) << resharded;
    });
    for (;;) {
      auto target_svc = sharded->Shard(target);
      if (target_svc != nullptr && target_svc->profiles().Get(victim).ok()) {
        break;
      }
      std::this_thread::yield();
    }
    QP_ASSERT_OK(sharded->RemoveProfile(victim));
    shadow.erase(victim);
    QP_ASSERT_OK(sharded->Shard(source)->profiles().Checkpoint());
    resharder.join();
    grow = grow == 4 ? 2 : 4;
  }

  EXPECT_GE(sharded->migration_stats().copy_restarts, 1u);
  ExpectExactlyShadow(sharded.get(), shadow);
}

TEST_F(ReshardTest, JournalResolutionDropsUncommittedPartialCopy) {
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  auto shadow = Populate(sharded.get(), 8, 5000);
  const std::string user = "u0";
  const uint32_t partition =
      static_cast<uint32_t>(sharded->PartitionFor(user));
  const uint32_t source = static_cast<uint32_t>(sharded->ShardFor(user));
  const uint32_t target = 1 - source;
  sharded.reset();

  // Simulate a crash mid-copy: the target shard holds a partial copy of
  // the user, the journal records the in-flight migration, but ROUTING
  // was never flipped — the cutover did not commit.
  {
    storage::StorageOptions store_options;
    store_options.dir = "cluster/shard-" + std::to_string(target);
    store_options.fs = &fs_;
    store_options.compact_threshold_bytes = 0;
    QP_ASSERT_OK_AND_ASSIGN(
        auto store, storage::DurableProfileStore::Open(&db_->schema(),
                                                       store_options));
    QP_ASSERT_OK(store->Put(user, shadow[user]));
  }
  QP_ASSERT_OK(WriteMigrationJournal(&fs_, "cluster",
                                     {{partition, source, target}}));

  // Reopen: the migration never happened. The partial copy is dropped,
  // the journal is cleared, the source still owns and serves the user.
  auto reopened = MustOpen(Options(2));
  ASSERT_NE(reopened, nullptr);
  EXPECT_FALSE(fs_.Exists("cluster/MIGRATION"));
  EXPECT_EQ(reopened->ShardFor(user), source);
  ExpectExactlyShadow(reopened.get(), shadow);
}

TEST_F(ReshardTest, JournalResolutionFinishesCommittedCutover) {
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  auto shadow = Populate(sharded.get(), 8, 6000);
  const std::string user = "u0";
  const uint32_t partition =
      static_cast<uint32_t>(sharded->PartitionFor(user));
  const uint32_t source = static_cast<uint32_t>(sharded->ShardFor(user));
  const uint32_t target = 1 - source;
  // Collect everyone sharing the user's partition: the owner flip moves
  // them all together.
  std::vector<std::string> comoving;
  for (const auto& [id, profile] : shadow) {
    if (sharded->PartitionFor(id) == partition) comoving.push_back(id);
  }
  sharded.reset();

  // Simulate a crash between cutover commit and source cleanup: the
  // target holds the full partition copy, ROUTING has the flipped owner
  // persisted, the journal entry is still there, and the source still
  // holds its stale copies.
  {
    storage::StorageOptions store_options;
    store_options.dir = "cluster/shard-" + std::to_string(target);
    store_options.fs = &fs_;
    store_options.compact_threshold_bytes = 0;
    QP_ASSERT_OK_AND_ASSIGN(
        auto store, storage::DurableProfileStore::Open(&db_->schema(),
                                                       store_options));
    for (const std::string& id : comoving) {
      QP_ASSERT_OK(store->Put(id, shadow[id]));
    }
  }
  QP_ASSERT_OK_AND_ASSIGN(RoutingTable table,
                          ReadRoutingTable(&fs_, "cluster"));
  table.owner[partition] = target;
  ++table.version;
  QP_ASSERT_OK(WriteRoutingTable(&fs_, "cluster", table));
  QP_ASSERT_OK(WriteMigrationJournal(&fs_, "cluster",
                                     {{partition, source, target}}));

  // Reopen: the cutover committed, so resolution finishes the cleanup —
  // the stale source copies vanish, the journal clears, the target
  // serves the whole partition.
  auto reopened = MustOpen(Options(2));
  ASSERT_NE(reopened, nullptr);
  EXPECT_FALSE(fs_.Exists("cluster/MIGRATION"));
  EXPECT_EQ(reopened->ShardFor(user), target);
  ExpectExactlyShadow(reopened.get(), shadow);
}

TEST_F(ReshardTest, GrowDropsAStaleCopyItsTargetAlreadyHeld) {
  auto sharded = MustOpen(Options(2));
  ASSERT_NE(sharded, nullptr);
  auto shadow = Populate(sharded.get(), 16, 11000);
  QP_ASSERT_OK_AND_ASSIGN(RoutingTable plan,
                          PlanReshard(sharded->routing(), 3));
  // A user nobody ever acknowledged, in a partition the grow hands to
  // the new shard 2.
  std::string ghost;
  for (int k = 0; ghost.empty(); ++k) {
    std::string candidate = "ghost" + std::to_string(k);
    if (plan.owner[sharded->PartitionFor(candidate)] == 2) ghost = candidate;
  }
  sharded.reset();

  // shard-2's directory already holds a copy of the ghost: what an
  // aborted migration whose target cleanup failed, or a retired shard
  // that a later grow reopens, leaves behind.
  {
    storage::StorageOptions store_options;
    store_options.dir = "cluster/shard-2";
    store_options.fs = &fs_;
    store_options.compact_threshold_bytes = 0;
    QP_ASSERT_OK_AND_ASSIGN(
        auto store, storage::DurableProfileStore::Open(&db_->schema(),
                                                       store_options));
    QP_ASSERT_OK(store->Put(ghost, MakeProfile(11999)));
  }

  // The grow copies the ghost's partition onto shard 2 over the stale
  // copy: only what the source held may survive the cutover.
  auto reopened = MustOpen(Options(2));
  ASSERT_NE(reopened, nullptr);
  QP_ASSERT_OK(reopened->Reshard(3));
  EXPECT_EQ(reopened->ShardFor(ghost), 2u);
  auto served = reopened->GetProfile(ghost);
  EXPECT_EQ(served.status().code(), StatusCode::kNotFound)
      << "served the never-acknowledged " << ghost;
  ExpectExactlyShadow(reopened.get(), shadow);
}

TEST_F(ReshardTest, ShrinkResolvesALeftoverJournalEntryBeforeRetiring) {
  ShardedOptions options = Options(3);
  options.migration.max_attempts = 1;
  auto sharded = MustOpen(std::move(options));
  ASSERT_NE(sharded, nullptr);
  auto shadow = Populate(sharded.get(), 24, 12000);

  {
    // Call 1 is the first migration's JournalAdd, call 2 its
    // JournalRemove: that migration commits and cleans its source, then
    // fails to clear its entry, which names the retiring shard 2. It
    // still reports success, so the shrink goes on to retire shard 2.
    ScopedFaultInjection chaos(29);
    FaultRule rule;
    rule.fire_on_nth = 2;
    rule.max_fires = 1;
    FaultHub::Global()->SetRule("migrate.journal", rule);
    QP_ASSERT_OK(sharded->Reshard(2));
    EXPECT_EQ(FaultHub::Global()->fires("migrate.journal"), 1u);
  }
  EXPECT_EQ(sharded->num_shards(), 2u);
  EXPECT_FALSE(fs_.Exists("cluster/MIGRATION"));
  ExpectExactlyShadow(sharded.get(), shadow);
  sharded.reset();

  // No journal entry outlived the shard it named, so the reopen has
  // nothing to resolve against a retired shard.
  auto reopened = MustOpen(Options(3));
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->num_shards(), 2u);
  ExpectExactlyShadow(reopened.get(), shadow);
}

TEST_F(ReshardTest, CopyCapturesAMutationInFlightAtItsWatermark) {
  auto sharded = MustOpen(Options(4));
  ASSERT_NE(sharded, nullptr);
  auto shadow = Populate(sharded.get(), 16, 13000);
  // A user of the first partition the shrink moves: its copy phase
  // starts at once, with no shard to open first.
  RoutingTable current = sharded->routing();
  QP_ASSERT_OK_AND_ASSIGN(RoutingTable plan, PlanReshard(current, 2));
  uint32_t first_moved = 0;
  while (plan.owner[first_moved] == current.owner[first_moved]) {
    ++first_moved;
  }
  std::string user;
  for (const auto& [id, profile] : shadow) {
    if (sharded->PartitionFor(id) == first_moved) user = id;
  }
  ASSERT_FALSE(user.empty());

  // The first WAL sync stalls: the put below holds its sequence number,
  // in the source's log, while its profile is not yet in memory. A copy
  // watermark taken at that moment counts the record, so the tail skips
  // it, and a copy that reads the old profile loses an acknowledged put.
  ScopedFaultInjection chaos(31);
  FaultRule stall;
  stall.fire_on_nth = 1;
  stall.max_fires = 1;
  stall.mode = FaultMode::kDelay;
  stall.delay = std::chrono::microseconds(50000);
  FaultHub::Global()->SetRule("wal.sync", stall);
  UserProfile fresh = MakeProfile(13999);
  std::thread writer([&] { QP_ASSERT_OK(sharded->PutProfile(user, fresh)); });
  while (FaultHub::Global()->calls("wal.sync") == 0) {
    std::this_thread::yield();
  }
  Status resharded = sharded->Reshard(2);
  writer.join();
  QP_ASSERT_OK(resharded);
  shadow[user] = std::move(fresh);
  ExpectExactlyShadow(sharded.get(), shadow);
}

TEST_F(ReshardTest, MutatorRacingTheCutoverBarrierLosesNoAck) {
  auto sharded = MustOpen(Options(2, /*num_partitions=*/8));
  ASSERT_NE(sharded, nullptr);
  auto shadow = Populate(sharded.get(), 12, 7000);

  // Every tail round — the tail phase's and the final drain's under the
  // barrier — stalls at entry, so the mutator below overlaps each
  // migrating partition's copy, tail and barrier: a mutation the source
  // acknowledges before the barrier reaches the target through the
  // tail, and one that waits at the barrier lands on the new owner.
  ScopedFaultInjection chaos(23);
  FaultRule stall;
  stall.fire_every = 1;
  stall.mode = FaultMode::kDelay;
  stall.delay = std::chrono::microseconds(5000);
  FaultHub::Global()->SetRule("migrate.tail", stall);

  std::mutex shadow_mutex;
  std::atomic<bool> done{false};
  std::thread mutator([&] {
    uint64_t round = 0;
    while (!done.load(std::memory_order_relaxed)) {
      for (size_t i = 0; i < 12; ++i) {
        std::string user = "u" + std::to_string(i);
        UserProfile profile = MakeProfile(8000 + round * 31 + i);
        Status put = sharded->PutProfile(user, profile);
        ASSERT_TRUE(put.ok()) << put;  // Only delays armed: every ack lands.
        std::lock_guard<std::mutex> lock(shadow_mutex);
        shadow[user] = std::move(profile);
      }
      ++round;
    }
  });

  Status resharded = sharded->Reshard(4);
  done.store(true, std::memory_order_relaxed);
  mutator.join();
  QP_ASSERT_OK(resharded);

  EXPECT_GE(sharded->migration_stats().tail_records, 1u);
  ExpectExactlyShadow(sharded.get(), shadow);
}

}  // namespace
}  // namespace shard
}  // namespace qp
