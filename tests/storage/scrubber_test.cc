// The background integrity scrubber: re-verifies the committed
// generation on disk (snapshot CRC, WAL frame CRCs) and the in-memory
// profile invariants, quarantines profiles that fail, and repairs them
// from durable truth (snapshot body + logged overlay, the cold-load
// plan).

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/obs/metrics.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/storage/fault_injection.h"
#include "qp/storage/record.h"
#include "qp/storage/scrub.h"
#include "qp/storage/snapshot.h"
#include "qp/util/clock.h"
#include "qp/util/file.h"
#include "qp/util/status.h"

namespace qp {
namespace storage {
namespace {

/// A profile that passes no schema validation: its preference names a
/// relation the movie schema does not have.
UserProfile BogusProfile() {
  UserProfile profile;
  profile.AddOrUpdate(AtomicPreference::Selection(
      AttributeRef{"NO_SUCH_TABLE", "attr"}, Value::Str("x"), 0.5));
  return profile;
}

class ScrubberTest : public ::testing::Test {
 protected:
  ScrubberTest() : schema_(MovieSchema()) {}

  StorageOptions Options() {
    StorageOptions options;
    options.dir = "db";
    options.fs = &fs_;
    options.compact_threshold_bytes = 0;
    options.metrics = &metrics_;
    return options;
  }

  std::unique_ptr<DurableProfileStore> MustOpen(StorageOptions options) {
    auto store_or = DurableProfileStore::Open(&schema_, std::move(options));
    EXPECT_TRUE(store_or.ok()) << store_or.status();
    return store_or.ok() ? std::move(store_or).value() : nullptr;
  }

  /// Checkpoints julie and rob and reopens the store: both users are
  /// cold, and the snapshot holds the only copy of each profile.
  std::unique_ptr<DurableProfileStore> ReopenCold() {
    {
      auto store = MustOpen(Options());
      if (store == nullptr) return nullptr;
      EXPECT_TRUE(store->Put("julie", JulieProfile()).ok());
      EXPECT_TRUE(store->Put("rob", RobProfile()).ok());
      EXPECT_TRUE(store->Checkpoint().ok());
      EXPECT_TRUE(store->Close().ok());
    }
    return MustOpen(Options());
  }

  /// Flips the low mantissa bit of `user_id`'s last degree in the
  /// committed snapshot: the body still decodes, to a profile that user
  /// never had.
  void FlipLastDegreeBit(const std::string& user_id) {
    auto manifest = ReadManifest(&fs_, "db");
    ASSERT_TRUE(manifest.ok()) << manifest.status();
    const std::string path = JoinPath("db", manifest->snapshot_file);
    auto entries = IndexSnapshot(&fs_, path, manifest->snapshot_bytes,
                                 manifest->snapshot_crc);
    ASSERT_TRUE(entries.ok()) << entries.status();
    for (const SnapshotEntry& entry : *entries) {
      if (entry.user_id != user_id) continue;
      QP_ASSERT_OK(fs_.FlipBit(path, entry.offset + entry.length - 8, 0));
      return;
    }
    FAIL() << user_id << " has no snapshot entry";
  }

  Schema schema_;
  FaultInjectingFileSystem fs_;
  obs::MetricsRegistry metrics_;
};

TEST(CheckProfileInvariantsTest, AcceptsValidProfileWithMatchingGraph) {
  Schema schema = MovieSchema();
  UserProfile julie = JulieProfile();
  QP_ASSERT_OK_AND_ASSIGN(PersonalizationGraph graph,
                          PersonalizationGraph::Build(&schema, julie));
  QP_ASSERT_OK(CheckProfileInvariants(schema, julie, &graph));
}

TEST(CheckProfileInvariantsTest, RejectsSchemaViolations) {
  Schema schema = MovieSchema();
  EXPECT_FALSE(CheckProfileInvariants(schema, BogusProfile(), nullptr).ok());
}

TEST(CheckProfileInvariantsTest, RejectsDegreesAddRefuses) {
  // AddOrUpdate checks no degree, so these profiles can exist in memory;
  // the memory pass flags each through UserProfile::Validate, the check
  // that makes a store refuse them.
  Schema schema = MovieSchema();
  const std::vector<AtomicPreference> refused = {
      AtomicPreference::Selection({"GENRE", "genre"}, Value::Str("noir"), 0.0),
      AtomicPreference::Selection({"GENRE", "genre"}, Value::Str("noir"), 1.5),
      AtomicPreference::Selection({"GENRE", "genre"}, Value::Str("noir"),
                                  std::numeric_limits<double>::quiet_NaN()),
      AtomicPreference::Join({"PLAY", "mid"}, {"MOVIE", "mid"}, -0.5),
  };
  for (const AtomicPreference& pref : refused) {
    UserProfile profile = JulieProfile();
    profile.AddOrUpdate(pref);
    EXPECT_EQ(CheckProfileInvariants(schema, profile, nullptr).code(),
              StatusCode::kInvalidArgument)
        << pref.ToString();
  }
}

TEST(CheckProfileInvariantsTest, RejectsGraphOutOfSyncWithProfile) {
  Schema schema = MovieSchema();
  UserProfile julie = JulieProfile();
  QP_ASSERT_OK_AND_ASSIGN(PersonalizationGraph julie_graph,
                          PersonalizationGraph::Build(&schema, julie));
  // A valid profile paired with another profile's graph: every edge is
  // individually fine, but the counts no longer mirror the profile.
  UserProfile grown = julie;
  grown.AddOrUpdate(AtomicPreference::Selection(
      AttributeRef{"GENRE", "genre"}, Value::Str("noir"), 0.15));
  Status status = CheckProfileInvariants(schema, grown, &julie_graph);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("out of sync"), std::string::npos);
}

TEST_F(ScrubberTest, CleanStorePassesScrub) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  QP_ASSERT_OK(store->Put("rob", RobProfile()));

  ScrubReport report;
  QP_ASSERT_OK(store->ScrubOnce(&report));
  EXPECT_TRUE(report.snapshot_verified);
  EXPECT_EQ(report.wal_frames_verified, 2u);
  EXPECT_EQ(report.disk_corruptions, 0u);
  EXPECT_EQ(report.invariant_violations, 0u);
  EXPECT_TRUE(report.corrupt_users.empty());

  StorageStats stats = store->storage_stats();
  EXPECT_EQ(stats.scrubs, 1u);
  EXPECT_EQ(stats.scrub_corruptions, 0u);
  EXPECT_EQ(stats.quarantined_profiles, 0u);
  EXPECT_TRUE(stats.last_scrub_error.empty());
  EXPECT_EQ(metrics_.counter("qp_storage_scrubs_total")->Value(), 1u);
}

TEST_F(ScrubberTest, InMemoryCorruptionIsQuarantinedAndRepaired) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  QP_ASSERT_OK(store->Put("rob", RobProfile()));

  store->CorruptInMemoryForTest("julie", BogusProfile());

  ScrubReport report;
  QP_ASSERT_OK(store->ScrubOnce(&report));
  EXPECT_EQ(report.invariant_violations, 1u);
  ASSERT_EQ(report.corrupt_users.size(), 1u);
  EXPECT_EQ(report.corrupt_users[0], "julie");
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(report.repair_failures, 0u);

  // Auto-repair rebuilt julie from durable truth and lifted the
  // quarantine; rob was never touched.
  EXPECT_FALSE(store->IsQuarantined("julie"));
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot julie, store->Get("julie"));
  EXPECT_TRUE(ProfilesEqual(*julie.profile, JulieProfile()));

  StorageStats stats = store->storage_stats();
  EXPECT_EQ(stats.scrub_corruptions, 1u);
  EXPECT_EQ(stats.repairs, 1u);
  EXPECT_EQ(stats.quarantined_profiles, 0u);
  EXPECT_EQ(metrics_.counter("qp_storage_repairs_total")->Value(), 1u);

  // The next pass is clean: the damage does not re-register.
  QP_ASSERT_OK(store->ScrubOnce(&report));
  EXPECT_EQ(report.invariant_violations, 0u);
}

TEST_F(ScrubberTest, WithoutAutoRepairCorruptProfilesStayQuarantined) {
  StorageOptions options = Options();
  options.scrub_auto_repair = false;
  auto store = MustOpen(std::move(options));
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  store->CorruptInMemoryForTest("julie", BogusProfile());

  ScrubReport report;
  QP_ASSERT_OK(store->ScrubOnce(&report));
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_TRUE(store->IsQuarantined("julie"));
  EXPECT_EQ(store->QuarantinedUsers(), std::vector<std::string>{"julie"});
  EXPECT_EQ(store->storage_stats().quarantined_profiles, 1u);
  EXPECT_EQ(metrics_.gauge("qp_storage_quarantined_profiles")->Value(), 1.0);

  // A fresh (valid) Put heals the profile; the next pass releases it.
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  QP_ASSERT_OK(store->ScrubOnce(&report));
  EXPECT_FALSE(store->IsQuarantined("julie"));
  EXPECT_EQ(metrics_.gauge("qp_storage_quarantined_profiles")->Value(), 0.0);
}

TEST_F(ScrubberTest, ExplicitRepairUserRestoresDurableTruth) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  store->CorruptInMemoryForTest("julie", BogusProfile());
  QP_ASSERT_OK(store->RepairUser("julie"));
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot julie, store->Get("julie"));
  EXPECT_TRUE(ProfilesEqual(*julie.profile, JulieProfile()));

  // A user whose durable truth is "absent" is repaired by removal.
  store->CorruptInMemoryForTest("ghost", BogusProfile());
  QP_ASSERT_OK(store->RepairUser("ghost"));
  EXPECT_FALSE(store->Get("ghost").ok());

  // A user whose truth is a snapshot base plus a logged overlay: the
  // repair replays rob's upsert over his checkpointed body.
  AtomicPreference extra = AtomicPreference::Selection(
      AttributeRef{"GENRE", "genre"}, Value::Str("western"), 0.25);
  UserProfile expected_rob = RobProfile();
  expected_rob.AddOrUpdate(extra);
  QP_ASSERT_OK(store->Put("rob", RobProfile()));
  QP_ASSERT_OK(store->Checkpoint());
  QP_ASSERT_OK(store->Upsert("rob", {extra}));
  store->CorruptInMemoryForTest("rob", BogusProfile());
  QP_ASSERT_OK(store->RepairUser("rob"));
  EXPECT_FALSE(store->IsQuarantined("rob"));
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot rob, store->Get("rob"));
  EXPECT_TRUE(ProfilesEqual(*rob.profile, expected_rob));
}

TEST_F(ScrubberTest, SnapshotBitFlipIsDetectedAndRepaired) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  QP_ASSERT_OK(store->Put("rob", RobProfile()));
  QP_ASSERT_OK(store->Checkpoint());
  const uint64_t seqno = store->storage_stats().last_appended_seqno;

  QP_ASSERT_OK(
      fs_.FlipBit(JoinPath("db", SnapshotFileName(seqno)), 20, 3));

  ScrubReport report;
  QP_ASSERT_OK(store->ScrubOnce(&report));
  EXPECT_FALSE(report.snapshot_verified);
  EXPECT_GE(report.disk_corruptions, 1u);
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_FALSE(report.first_error.empty());
  EXPECT_FALSE(store->storage_stats().last_scrub_error.empty());

  // The repair rewrote the committed generation from the (intact)
  // in-memory state: the next pass is clean and a reopen sees everything.
  QP_ASSERT_OK(store->ScrubOnce(&report));
  EXPECT_EQ(report.disk_corruptions, 0u);
  EXPECT_TRUE(report.snapshot_verified);
  QP_ASSERT_OK(store->Close());
  store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), 2u);
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot julie, store->Get("julie"));
  EXPECT_TRUE(ProfilesEqual(*julie.profile, JulieProfile()));
}

TEST_F(ScrubberTest, ColdBodyDamageStaysWithItsUserThroughACheckpoint) {
  auto store = ReopenCold();
  ASSERT_NE(store, nullptr);
  FlipLastDegreeBit("julie");

  // The checkpoint copies julie's rotted body under the checksum it was
  // written with, not a fresh one: the new generation is sound as a
  // file, and julie's body still fails its own check.
  QP_ASSERT_OK(store->Put("ann", RobProfile()));  // Something to checkpoint.
  QP_ASSERT_OK(store->Checkpoint());
  EXPECT_EQ(store->Get("julie").status().code(), StatusCode::kParseError);
  EXPECT_EQ(store->tier_stats().load_failures, 1u);
  QP_ASSERT_OK(store->Close());

  // Confined to julie: the store opens, everyone else is served, and
  // every pass reports her body without rewriting what it cannot mend.
  store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->Get("julie").status().code(), StatusCode::kParseError);
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot rob, store->Get("rob"));
  EXPECT_TRUE(ProfilesEqual(*rob.profile, RobProfile()));
  QP_ASSERT_OK(store->Get("ann").status());
  for (int pass = 0; pass < 2; ++pass) {
    ScrubReport report;
    QP_ASSERT_OK(store->ScrubOnce(&report));
    EXPECT_FALSE(report.snapshot_verified);
    EXPECT_EQ(report.disk_corruptions, 1u);
    EXPECT_EQ(report.corrupt_users, std::vector<std::string>{"julie"});
    EXPECT_EQ(report.repaired, 0u);
    EXPECT_EQ(report.repair_failures, 0u);
  }

  // A Put replaces julie's profile, so her rotted body is dead weight:
  // the next pass rewrites the generation without it.
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  ScrubReport report;
  QP_ASSERT_OK(store->ScrubOnce(&report));
  EXPECT_EQ(report.repaired, 1u);
  QP_ASSERT_OK(store->ScrubOnce(&report));
  EXPECT_TRUE(report.snapshot_verified);
  EXPECT_EQ(report.disk_corruptions, 0u);
  QP_ASSERT_OK(store->Close());
  store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot julie, store->Get("julie"));
  EXPECT_TRUE(ProfilesEqual(*julie.profile, JulieProfile()));
}

TEST_F(ScrubberTest, RepairRewritesTheGenerationAroundADamagedColdBody) {
  auto store = ReopenCold();
  ASSERT_NE(store, nullptr);
  FlipLastDegreeBit("julie");

  // The file fails its CRC, so the pass repairs: rob's body comes over
  // intact and julie's under its old checksum.
  ScrubReport report;
  QP_ASSERT_OK(store->ScrubOnce(&report));
  EXPECT_FALSE(report.snapshot_verified);
  EXPECT_EQ(report.repaired, 1u);
  // The next pass finds only julie's body, and does not repair again.
  QP_ASSERT_OK(store->ScrubOnce(&report));
  EXPECT_EQ(report.corrupt_users, std::vector<std::string>{"julie"});
  EXPECT_EQ(report.repaired, 0u);
  QP_ASSERT_OK(store->Close());

  store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->Get("julie").status().code(), StatusCode::kParseError);
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot rob, store->Get("rob"));
  EXPECT_TRUE(ProfilesEqual(*rob.profile, RobProfile()));
}

TEST_F(ScrubberTest, DamageToAResidentBodyIsRepairedWhileOthersAreCold) {
  auto store = ReopenCold();
  ASSERT_NE(store, nullptr);
  // julie pages in before her body rots; rob stays cold throughout.
  QP_ASSERT_OK(store->Get("julie").status());
  FlipLastDegreeBit("julie");
  ScrubReport report;
  QP_ASSERT_OK(store->ScrubOnce(&report));
  EXPECT_FALSE(report.snapshot_verified);
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(store->tier_stats().cold_loads, 1u);  // julie's, not rob's.
  QP_ASSERT_OK(store->Close());

  store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot julie, store->Get("julie"));
  EXPECT_TRUE(ProfilesEqual(*julie.profile, JulieProfile()));
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot rob, store->Get("rob"));
  EXPECT_TRUE(ProfilesEqual(*rob.profile, RobProfile()));
}

TEST_F(ScrubberTest, MidLogWalBitFlipIsDetectedAndRepaired) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  QP_ASSERT_OK(store->Put("rob", RobProfile()));
  QP_ASSERT_OK(store->Put("kim", UserProfile()));

  // Damage the first record's payload: later frames stay valid, so this
  // reads as mid-log corruption, not a torn tail.
  QP_ASSERT_OK(fs_.FlipBit(JoinPath("db", WalFileName(1)), 30, 5));

  ScrubReport report;
  QP_ASSERT_OK(store->ScrubOnce(&report));
  EXPECT_GE(report.disk_corruptions, 1u);
  EXPECT_EQ(report.repaired, 1u);

  // In-memory state was never damaged; the rotation preserved it all.
  QP_ASSERT_OK(store->ScrubOnce(&report));
  EXPECT_EQ(report.disk_corruptions, 0u);
  QP_ASSERT_OK(store->Close());
  store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), 3u);
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot rob, store->Get("rob"));
  EXPECT_TRUE(ProfilesEqual(*rob.profile, RobProfile()));
}

TEST_F(ScrubberTest, BackgroundScrubberFindsDamageOnItsOwn) {
  FakeClock clock;
  StorageOptions options = Options();
  options.scrub_interval = std::chrono::milliseconds(5);
  options.clock = &clock;
  auto store = MustOpen(std::move(options));
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  store->CorruptInMemoryForTest("julie", BogusProfile());

  // No explicit ScrubOnce: the cadence thread must detect and repair.
  // Its interval waits consult the injected clock, so the test advances
  // fake time instead of sleeping; the yield gives the scrub thread a
  // chance to run between advances (ctest's timeout is the backstop).
  // A pass counts its repairs before it counts itself and the
  // corruptions it found, so wait until the whole pass is counted.
  for (;;) {
    StorageStats stats = store->storage_stats();
    if (stats.repairs > 0 && stats.scrubs > 0 &&
        stats.scrub_corruptions > 0 && stats.quarantined_profiles == 0) {
      break;
    }
    clock.Advance(std::chrono::milliseconds(5));
    std::this_thread::yield();
  }
  StorageStats stats = store->storage_stats();
  EXPECT_GT(stats.scrubs, 0u);
  EXPECT_GE(stats.scrub_corruptions, 1u);
  EXPECT_GT(stats.repairs, 0u);
  EXPECT_EQ(stats.quarantined_profiles, 0u);
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot julie, store->Get("julie"));
  EXPECT_TRUE(ProfilesEqual(*julie.profile, JulieProfile()));
  QP_ASSERT_OK(store->Close());  // Clean shutdown with the thread running.
}

TEST_F(ScrubberTest, ScrubWorksOnInMemoryStore) {
  // A pass-through store (no directory) still checks memory invariants.
  DurableProfileStore store(&schema_);
  QP_ASSERT_OK(store.Put("julie", JulieProfile()));
  store.CorruptInMemoryForTest("julie", BogusProfile());
  ScrubReport report;
  QP_ASSERT_OK(store.ScrubOnce(&report));
  EXPECT_EQ(report.invariant_violations, 1u);
  // No durable truth to repair from: the profile stays quarantined.
  EXPECT_TRUE(store.IsQuarantined("julie"));
}

}  // namespace
}  // namespace storage
}  // namespace qp
