// Half-open circuit-breaker recovery: a store tripped read-only by
// persistent fsync failures heals itself once the disk recovers — after
// the backoff, the next mutation runs a recovery probe (snapshot of the
// acknowledged state + a fresh WAL generation) and, on success, the
// breaker closes and the store is writable again with zero lost
// acknowledged mutations.

#include <chrono>
#include <memory>
#include <string>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/obs/metrics.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/storage/fault_injection.h"
#include "qp/storage/record.h"
#include "qp/storage/snapshot.h"
#include "qp/util/clock.h"
#include "qp/util/file.h"
#include "qp/util/status.h"

namespace qp {
namespace storage {
namespace {

class BreakerRecoveryTest : public ::testing::Test {
 protected:
  BreakerRecoveryTest() : schema_(MovieSchema()) {}

  StorageOptions Options() {
    StorageOptions options;
    options.dir = "db";
    options.fs = &fs_;
    options.compact_threshold_bytes = 0;
    options.breaker_threshold = 2;
    options.breaker_backoff = std::chrono::milliseconds(1);
    options.breaker_backoff_max = std::chrono::milliseconds(50);
    options.clock = &clock_;
    options.metrics = &metrics_;
    return options;
  }

  std::unique_ptr<DurableProfileStore> MustOpen(StorageOptions options) {
    auto store_or = DurableProfileStore::Open(&schema_, std::move(options));
    EXPECT_TRUE(store_or.ok()) << store_or.status();
    return store_or.ok() ? std::move(store_or).value() : nullptr;
  }

  /// Fails mutations until the breaker trips (threshold 2).
  void TripBreaker(DurableProfileStore* store) {
    fs_.SetSyncFailure(true);
    for (int i = 0; i < 2; ++i) {
      Status status = store->Put("victim", RobProfile());
      ASSERT_FALSE(status.ok());
    }
    ASSERT_TRUE(store->storage_stats().breaker_open);
  }

  /// The breaker consults the injected clock, so "waiting" out the
  /// backoff is a deterministic advance — no wall-clock sleeps.
  void WaitBackoff() { clock_.Advance(std::chrono::milliseconds(5)); }

  Schema schema_;
  FakeClock clock_;
  FaultInjectingFileSystem fs_;
  obs::MetricsRegistry metrics_;
};

TEST_F(BreakerRecoveryTest, HealedDiskClosesBreakerOnNextMutation) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  TripBreaker(store.get());

  // Disk heals; after the backoff the next mutation is admitted as a
  // probe, recovers the store, and itself succeeds.
  fs_.SetSyncFailure(false);
  WaitBackoff();
  QP_ASSERT_OK(store->Put("rob", RobProfile()));

  StorageStats stats = store->storage_stats();
  EXPECT_FALSE(stats.breaker_open);
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breaker_probes, 1u);
  EXPECT_EQ(stats.breaker_recoveries, 1u);

  // The observability contract the old one-way breaker broke: the gauge
  // returns to 0 when the breaker closes, and trips is a true counter.
  // The stats above are this registry's series, read back.
  EXPECT_EQ(metrics_.gauge("qp_storage_breaker_open")->Value(), 0.0);
  EXPECT_EQ(metrics_.counter("qp_storage_breaker_trips_total")->Value(), 1u);
  EXPECT_EQ(metrics_.counter("qp_storage_breaker_probes_total")->Value(), 1u);
  EXPECT_EQ(
      metrics_.counter("qp_storage_breaker_recoveries_total")->Value(), 1u);

  // Writable again for every mutator.
  QP_ASSERT_OK(store->Upsert(
      "julie", {AtomicPreference::Selection(AttributeRef{"GENRE", "genre"},
                                            Value::Str("western"), 0.25)}));
}

TEST_F(BreakerRecoveryTest, ProbeCarriesADamagedColdBodyAndRecovers) {
  {
    auto store = MustOpen(Options());
    ASSERT_NE(store, nullptr);
    QP_ASSERT_OK(store->Put("julie", JulieProfile()));
    QP_ASSERT_OK(store->Put("rob", RobProfile()));
    QP_ASSERT_OK(store->Checkpoint());
    QP_ASSERT_OK(store->Close());
  }
  auto store = MustOpen(Options());  // julie and rob are cold.
  ASSERT_NE(store, nullptr);
  // julie's body rots on disk: the snapshot is her only copy.
  QP_ASSERT_OK_AND_ASSIGN(Manifest manifest, ReadManifest(&fs_, "db"));
  const std::string path = JoinPath("db", manifest.snapshot_file);
  QP_ASSERT_OK_AND_ASSIGN(
      auto entries, IndexSnapshot(&fs_, path, manifest.snapshot_bytes,
                                  manifest.snapshot_crc));
  ASSERT_EQ(entries[0].user_id, "julie");
  QP_ASSERT_OK(
      fs_.FlipBit(path, entries[0].offset + entries[0].length - 8, 0));

  // The probe's checkpoint carries julie's body over under its old
  // checksum instead of failing on it, so the store heals.
  TripBreaker(store.get());
  fs_.SetSyncFailure(false);
  WaitBackoff();
  QP_ASSERT_OK(store->Put("ann", RobProfile()));
  EXPECT_FALSE(store->storage_stats().breaker_open);
  EXPECT_EQ(store->Get("julie").status().code(), StatusCode::kParseError);
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot rob, store->Get("rob"));
  EXPECT_TRUE(ProfilesEqual(*rob.profile, RobProfile()));
}

TEST_F(BreakerRecoveryTest, NoAcknowledgedMutationIsLostAcrossRecovery) {
  {
    auto store = MustOpen(Options());
    ASSERT_NE(store, nullptr);
    QP_ASSERT_OK(store->Put("julie", JulieProfile()));
    TripBreaker(store.get());
    fs_.SetSyncFailure(false);
    WaitBackoff();
    QP_ASSERT_OK(store->Put("rob", RobProfile()));
    QP_ASSERT_OK(store->Close());
  }
  // Everything acknowledged — before the trip and after the recovery —
  // survives a crash-reopen; the failed "victim" writes do not resurface.
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), 2u);
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot julie, store->Get("julie"));
  EXPECT_TRUE(ProfilesEqual(*julie.profile, JulieProfile()));
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot rob, store->Get("rob"));
  EXPECT_TRUE(ProfilesEqual(*rob.profile, RobProfile()));
  EXPECT_FALSE(store->Get("victim").ok());
}

TEST_F(BreakerRecoveryTest, FailedProbeReopensWithDoubledBackoff) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  TripBreaker(store.get());
  const uint64_t backoff_after_trip =
      store->storage_stats().breaker_backoff_ms;

  // Disk still dead: the probe itself fails, the breaker re-opens and
  // the backoff doubles — the store does not hammer a dead disk.
  WaitBackoff();
  Status probe = store->Put("rob", RobProfile());
  EXPECT_FALSE(probe.ok());

  StorageStats stats = store->storage_stats();
  EXPECT_TRUE(stats.breaker_open);
  EXPECT_EQ(stats.breaker_trips, 2u);  // Original trip + failed probe.
  EXPECT_EQ(stats.breaker_probes, 1u);
  EXPECT_EQ(stats.breaker_recoveries, 0u);
  EXPECT_GT(stats.breaker_backoff_ms, backoff_after_trip);

  // Second round: heal, wait out the doubled backoff, recover.
  fs_.SetSyncFailure(false);
  clock_.Advance(std::chrono::milliseconds(stats.breaker_backoff_ms + 5));
  QP_ASSERT_OK(store->Put("rob", RobProfile()));
  stats = store->storage_stats();
  EXPECT_FALSE(stats.breaker_open);
  EXPECT_EQ(stats.breaker_recoveries, 1u);
  EXPECT_EQ(metrics_.counter("qp_storage_breaker_trips_total")->Value(), 2u);
  EXPECT_EQ(metrics_.gauge("qp_storage_breaker_open")->Value(), 0.0);
}

TEST_F(BreakerRecoveryTest, BackoffIsCappedAtConfiguredMax) {
  StorageOptions options = Options();
  options.breaker_backoff = std::chrono::milliseconds(4);
  options.breaker_backoff_max = std::chrono::milliseconds(10);
  auto store = MustOpen(std::move(options));
  ASSERT_NE(store, nullptr);
  TripBreaker(store.get());

  // Repeated failed probes double 4 -> 8 -> 10 (capped), never beyond.
  for (int round = 0; round < 4; ++round) {
    clock_.Advance(std::chrono::milliseconds(
        store->storage_stats().breaker_backoff_ms + 5));
    EXPECT_FALSE(store->Put("rob", RobProfile()).ok());
    EXPECT_LE(store->storage_stats().breaker_backoff_ms, 10u);
  }
  EXPECT_EQ(store->storage_stats().breaker_backoff_ms, 10u);
}

TEST_F(BreakerRecoveryTest, ZeroBackoffRestoresOneWayBreaker) {
  StorageOptions options = Options();
  options.breaker_backoff = std::chrono::milliseconds(0);
  auto store = MustOpen(std::move(options));
  ASSERT_NE(store, nullptr);
  TripBreaker(store.get());
  fs_.SetSyncFailure(false);
  clock_.Advance(std::chrono::milliseconds(10));

  // Even with a healthy disk the store stays read-only: backoff 0 means
  // "never probe" (the pre-half-open contract, kept for operators who
  // want a tripped store inspected before it writes again).
  EXPECT_EQ(store->Put("rob", RobProfile()).code(), StatusCode::kUnavailable);
  StorageStats stats = store->storage_stats();
  EXPECT_TRUE(stats.breaker_open);
  EXPECT_EQ(stats.breaker_probes, 0u);
}

TEST_F(BreakerRecoveryTest, RecoveryRotatesToAFreshWalGeneration) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  const uint64_t seqno_before =
      store->storage_stats().last_appended_seqno;
  TripBreaker(store.get());
  fs_.SetSyncFailure(false);
  WaitBackoff();
  QP_ASSERT_OK(store->Put("rob", RobProfile()));

  // The probe checkpointed: a fresh generation (snapshot + new WAL)
  // replaced the one whose writer had latched the sync error.
  StorageStats stats = store->storage_stats();
  EXPECT_GE(stats.checkpoints, 1u);
  EXPECT_GT(stats.last_appended_seqno, seqno_before);
  EXPECT_EQ(stats.last_appended_seqno, stats.last_synced_seqno);
}

}  // namespace
}  // namespace storage
}  // namespace qp
