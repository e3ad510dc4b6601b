// Tiered hot/cold DurableProfileStore tests: bounded residency under a
// hot budget, cold loads that reproduce evicted state byte-identically,
// upsert/remove of cold users, checkpoint merges of hot + cold entries,
// WAL-overlay recovery, the same tier without a budget, and the
// "shard.load" fault site.

#include <string>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/obs/metrics.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/storage/fault_injection.h"
#include "qp/storage/record.h"
#include "qp/util/fault_hub.h"

namespace qp {
namespace storage {
namespace {

class TieredStoreTest : public ::testing::Test {
 protected:
  TieredStoreTest() : schema_(MovieSchema()) {}

  StorageOptions Options(size_t hot_capacity) {
    StorageOptions options;
    options.dir = "db";
    options.fs = &fs_;
    options.compact_threshold_bytes = 0;
    options.hot_capacity = hot_capacity;
    options.metrics = &metrics_;
    return options;
  }

  uint64_t CounterValue(const char* name) {
    return metrics_.counter(name)->Value();
  }

  std::unique_ptr<DurableProfileStore> MustOpen(StorageOptions options) {
    auto store_or = DurableProfileStore::Open(&schema_, std::move(options));
    EXPECT_TRUE(store_or.ok()) << store_or.status();
    return store_or.ok() ? std::move(store_or).value() : nullptr;
  }

  /// Alternates the two paper fixtures so neighboring users never
  /// serialize to the same bytes.
  UserProfile ProfileFor(size_t index) {
    return index % 2 == 0 ? JulieProfile() : RobProfile();
  }

  static std::string UserId(size_t index) {
    return "user" + std::to_string(index);
  }

  Schema schema_;
  FaultInjectingFileSystem fs_;
  obs::MetricsRegistry metrics_;
};

TEST_F(TieredStoreTest, ResidencyIsBoundedByHotCapacity) {
  constexpr size_t kUsers = 10;
  constexpr size_t kCapacity = 3;
  auto store = MustOpen(Options(kCapacity));
  ASSERT_NE(store, nullptr);
  for (size_t i = 0; i < kUsers; ++i) {
    QP_ASSERT_OK(store->Put(UserId(i), ProfileFor(i)));
    EXPECT_LE(store->tier_stats().hot_resident, kCapacity);
  }
  TierStats stats = store->tier_stats();
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.hot_capacity, kCapacity);
  EXPECT_EQ(stats.hot_resident + stats.cold_users, kUsers);
  EXPECT_GE(stats.evictions, kUsers - kCapacity);
  EXPECT_EQ(store->size(), kUsers);

  // Every user — resident or cold — reads back equal to what was put,
  // and the budget holds throughout.
  for (size_t i = 0; i < kUsers; ++i) {
    auto snapshot = store->Get(UserId(i));
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    EXPECT_TRUE(ProfilesEqual(*snapshot->profile, ProfileFor(i)));
    EXPECT_LE(store->tier_stats().hot_resident, kCapacity);
  }
  stats = store->tier_stats();
  EXPECT_GT(stats.cold_loads, 0u);
  // TierStats reads its counts back from the qp_tier_* series.
  EXPECT_EQ(stats.hot_hits, CounterValue("qp_tier_hot_hits_total"));
  EXPECT_EQ(stats.cold_loads, CounterValue("qp_tier_cold_loads_total"));
  EXPECT_EQ(stats.evictions, CounterValue("qp_tier_evictions_total"));
  EXPECT_EQ(stats.load_failures, CounterValue("qp_tier_load_failures_total"));
}

TEST_F(TieredStoreTest, ColdReloadIsByteIdentical) {
  auto store = MustOpen(Options(1));
  ASSERT_NE(store, nullptr);
  const std::string julie_bytes = JulieProfile().Serialize();
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  QP_ASSERT_OK(store->Put("rob", RobProfile()));  // Evicts julie.
  EXPECT_EQ(store->tier_stats().hot_resident, 1u);

  // Reload from the WAL overlay (no snapshot yet).
  auto reloaded = store->Get("julie");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->profile->Serialize(), julie_bytes);
  EXPECT_TRUE(ProfilesEqual(*reloaded->profile, JulieProfile()));

  // Now through a checkpointed snapshot body ("rob" is hot, "julie"
  // went cold again when rob's reload evicted her).
  auto rob = store->Get("rob");
  ASSERT_TRUE(rob.ok()) << rob.status();
  QP_ASSERT_OK(store->Checkpoint());
  // And once more through the raw-byte-copy checkpoint path: a second
  // checkpoint copies the cold, overlay-free entry verbatim.
  QP_ASSERT_OK(store->Put("rob", RobProfile()));
  QP_ASSERT_OK(store->Checkpoint());
  reloaded = store->Get("julie");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->profile->Serialize(), julie_bytes);
}

TEST_F(TieredStoreTest, ReloadCarriesLargerEpoch) {
  auto store = MustOpen(Options(1));
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  auto before = store->Get("julie");
  ASSERT_TRUE(before.ok());
  QP_ASSERT_OK(store->Put("rob", RobProfile()));  // Evicts julie.
  auto after = store->Get("julie");               // Cold reload.
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->epoch, before->epoch);
}

TEST_F(TieredStoreTest, UpsertOfColdUserMergesEvictedState) {
  auto store = MustOpen(Options(1));
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  QP_ASSERT_OK(store->Put("rob", RobProfile()));  // Evicts julie.

  // Upsert one of Rob's preferences onto cold Julie: the result must be
  // Julie's full evicted profile plus the addition, not the addition
  // over an empty profile.
  const size_t julie_size = JulieProfile().preferences().size();
  std::vector<AtomicPreference> extra = {RobProfile().preferences().front()};
  QP_ASSERT_OK(store->Upsert("julie", extra));
  auto merged = store->Get("julie");
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_GT(merged->profile->preferences().size(), julie_size - 1);
  UserProfile expected = JulieProfile();
  expected.AddOrUpdate(extra.front());
  EXPECT_TRUE(ProfilesEqual(*merged->profile, expected));
}

TEST_F(TieredStoreTest, RemoveOfColdUserSticksAcrossReopen) {
  {
    auto store = MustOpen(Options(1));
    ASSERT_NE(store, nullptr);
    QP_ASSERT_OK(store->Put("julie", JulieProfile()));
    QP_ASSERT_OK(store->Put("rob", RobProfile()));  // Evicts julie.
    QP_ASSERT_OK(store->Remove("julie"));           // Cold remove.
    EXPECT_EQ(store->Get("julie").status().code(), StatusCode::kNotFound);
    EXPECT_EQ(store->size(), 1u);
    QP_ASSERT_OK(store->Close());
  }
  auto reopened = MustOpen(Options(1));
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->size(), 1u);
  EXPECT_EQ(reopened->Get("julie").status().code(), StatusCode::kNotFound);
  auto rob = reopened->Get("rob");
  ASSERT_TRUE(rob.ok()) << rob.status();
  EXPECT_TRUE(ProfilesEqual(*rob->profile, RobProfile()));
}

TEST_F(TieredStoreTest, RecoveryIndexesSnapshotWithoutMaterializing) {
  constexpr size_t kUsers = 8;
  {
    auto store = MustOpen(Options(2));
    ASSERT_NE(store, nullptr);
    for (size_t i = 0; i < kUsers; ++i) {
      QP_ASSERT_OK(store->Put(UserId(i), ProfileFor(i)));
    }
    QP_ASSERT_OK(store->Checkpoint());
    // Two post-checkpoint mutations land in the WAL overlay.
    QP_ASSERT_OK(store->Remove(UserId(0)));
    QP_ASSERT_OK(store->Put(UserId(1), RobProfile()));
    QP_ASSERT_OK(store->Close());
  }
  auto reopened = MustOpen(Options(2));
  ASSERT_NE(reopened, nullptr);
  // Nothing is resident after a tiered recovery; the population is known.
  TierStats stats = reopened->tier_stats();
  EXPECT_EQ(stats.hot_resident, 0u);
  EXPECT_EQ(reopened->size(), kUsers - 1);
  EXPECT_EQ(reopened->Get(UserId(0)).status().code(), StatusCode::kNotFound);
  auto overlaid = reopened->Get(UserId(1));
  ASSERT_TRUE(overlaid.ok()) << overlaid.status();
  EXPECT_TRUE(ProfilesEqual(*overlaid->profile, RobProfile()));
  for (size_t i = 2; i < kUsers; ++i) {
    auto snapshot = reopened->Get(UserId(i));
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    EXPECT_TRUE(ProfilesEqual(*snapshot->profile, ProfileFor(i)));
  }
}

TEST_F(TieredStoreTest, CheckpointMergeReopensWithoutABudget) {
  constexpr size_t kUsers = 6;
  {
    auto store = MustOpen(Options(2));
    ASSERT_NE(store, nullptr);
    for (size_t i = 0; i < kUsers; ++i) {
      QP_ASSERT_OK(store->Put(UserId(i), ProfileFor(i)));
    }
    // The merge has all three entry kinds: hot users, cold users with
    // empty overlays (after this checkpoint), and — after the upsert —
    // a cold user with a non-empty overlay for the second checkpoint.
    QP_ASSERT_OK(store->Checkpoint());
    std::vector<AtomicPreference> extra = {RobProfile().preferences().front()};
    const uint64_t loads_before = store->tier_stats().cold_loads;
    QP_ASSERT_OK(store->Upsert(UserId(0), extra));
    // The upsert merged over cold user 0: a cold load, timed like any
    // other, so load_millis and the histogram count it too.
    const TierStats after_upsert = store->tier_stats();
    EXPECT_EQ(after_upsert.cold_loads, loads_before + 1);
    EXPECT_EQ(metrics_.histogram("qp_tier_load_seconds")->Snapshot().count,
              after_upsert.cold_loads);
    QP_ASSERT_OK(store->Get(UserId(3)).status());
    QP_ASSERT_OK(store->Checkpoint());
    QP_ASSERT_OK(store->Close());
  }
  // A reopen without a budget pages every user of the merged snapshot
  // in: each must be present and equal to its logical state.
  auto plain = MustOpen(Options(0));
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(plain->size(), kUsers);
  UserProfile expected0 = ProfileFor(0);
  expected0.AddOrUpdate(RobProfile().preferences().front());
  auto user0 = plain->Get(UserId(0));
  ASSERT_TRUE(user0.ok()) << user0.status();
  EXPECT_TRUE(ProfilesEqual(*user0->profile, expected0));
  for (size_t i = 1; i < kUsers; ++i) {
    auto snapshot = plain->Get(UserId(i));
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    EXPECT_TRUE(ProfilesEqual(*snapshot->profile, ProfileFor(i)));
  }
}

TEST_F(TieredStoreTest, NoBudgetStoreStartsColdAndNeverEvicts) {
  // hot_capacity = 0 is the same tier without a budget: recovery indexes
  // the snapshot, each profile pages in on its first Get and then stays.
  constexpr size_t kUsers = 6;
  {
    auto store = MustOpen(Options(0));
    ASSERT_NE(store, nullptr);
    for (size_t i = 0; i < kUsers; ++i) {
      QP_ASSERT_OK(store->Put(UserId(i), ProfileFor(i)));
    }
    QP_ASSERT_OK(store->Checkpoint());
    QP_ASSERT_OK(store->Close());
  }
  auto store = MustOpen(Options(0));
  ASSERT_NE(store, nullptr);
  TierStats stats = store->tier_stats();
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.hot_capacity, 0u);
  EXPECT_EQ(stats.hot_resident, 0u);
  EXPECT_EQ(stats.cold_users, kUsers);

  // Each first Get is one cold load; a second Get of the user is a hit.
  const uint64_t loads = CounterValue("qp_tier_cold_loads_total");
  constexpr size_t kPagedIn = kUsers / 2;
  for (size_t i = 0; i < kPagedIn; ++i) {
    QP_ASSERT_OK(store->Get(UserId(i)).status());
    EXPECT_EQ(CounterValue("qp_tier_cold_loads_total"), loads + i + 1);
    QP_ASSERT_OK(store->Get(UserId(i)).status());
    EXPECT_EQ(CounterValue("qp_tier_cold_loads_total"), loads + i + 1);
  }
  stats = store->tier_stats();
  EXPECT_EQ(stats.hot_resident, kPagedIn);
  EXPECT_EQ(stats.cold_users, kUsers - kPagedIn);

  // A checkpoint while the rest are still cold encodes the hot users,
  // copies the cold bodies and adds a new user; the reopen reproduces
  // every profile exactly.
  QP_ASSERT_OK(store->Put(UserId(kUsers), ProfileFor(kUsers)));
  QP_ASSERT_OK(store->Checkpoint());
  QP_ASSERT_OK(store->Close());
  store = MustOpen(Options(0));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->tier_stats().cold_users, kUsers + 1);
  for (size_t i = 0; i <= kUsers; ++i) {
    auto snapshot = store->Get(UserId(i));
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    EXPECT_EQ(snapshot->profile->Serialize(), ProfileFor(i).Serialize());
  }
  EXPECT_EQ(store->tier_stats().hot_resident, kUsers + 1);
  EXPECT_EQ(CounterValue("qp_tier_evictions_total"), 0u);
}

TEST_F(TieredStoreTest, AllPagesEveryUserThroughTheBudget) {
  constexpr size_t kUsers = 7;
  auto store = MustOpen(Options(2));
  ASSERT_NE(store, nullptr);
  for (size_t i = 0; i < kUsers; ++i) {
    QP_ASSERT_OK(store->Put(UserId(i), ProfileFor(i)));
  }
  auto all = store->All();
  ASSERT_EQ(all.size(), kUsers);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].first, all[i].first);  // Sorted, no duplicates.
  }
  for (const auto& [user_id, snapshot] : all) {
    ASSERT_NE(snapshot.profile, nullptr);
    EXPECT_FALSE(snapshot.profile->preferences().empty());
  }
  EXPECT_LE(store->tier_stats().hot_resident, 2u);
}

TEST_F(TieredStoreTest, ShardLoadFaultSiteFailsColdLoads) {
  auto store = MustOpen(Options(1));
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  QP_ASSERT_OK(store->Put("rob", RobProfile()));  // Evicts julie.

  {
    ScopedFaultInjection chaos(42);
    FaultRule rule;
    rule.fire_every = 1;  // Every cold load fails.
    FaultHub::Global()->SetRule("shard.load", rule);
    auto blocked = store->Get("julie");
    EXPECT_FALSE(blocked.ok());
    EXPECT_GE(store->tier_stats().load_failures, 1u);
    // Hot reads are unaffected while loads fail.
    auto rob = store->Get("rob");
    ASSERT_TRUE(rob.ok()) << rob.status();
  }
  // Disarmed again: the cold load heals with no residue.
  auto healed = store->Get("julie");
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_TRUE(ProfilesEqual(*healed->profile, JulieProfile()));
}

TEST_F(TieredStoreTest, HotCapacityRequiresDirectory) {
  // An in-memory store ignores hot_capacity (nothing to page from).
  DurableProfileStore store(&schema_);
  EXPECT_FALSE(store.tier_stats().enabled);
}

}  // namespace
}  // namespace storage
}  // namespace qp
