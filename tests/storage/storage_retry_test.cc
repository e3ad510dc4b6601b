// Storage resilience under fsync failures: a failed fsync is never
// retried. After one, the kernel may already have marked the unwritten
// pages clean and report the error only once, so a retry can return
// success with the records not on disk. The mutation fails and the WAL's
// error goes sticky; the circuit breaker trips at its threshold, turning
// the store read-only while reads keep serving the in-memory state, and
// its half-open probe rewrites the acknowledged state into a fresh
// generation.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/obs/metrics.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/storage/fault_injection.h"
#include "qp/storage/wal.h"
#include "qp/util/clock.h"
#include "qp/util/status.h"

namespace qp {
namespace storage {
namespace {

TEST(WalSyncFailureTest, FailedFsyncIsNeverRetriedAndGoesSticky) {
  FaultInjectingFileSystem fs;
  obs::MetricsRegistry metrics;
  auto file = fs.NewWritableFile("wal-1.log", /*truncate=*/true);
  ASSERT_TRUE(file.ok()) << file.status();
  WalOptions options;
  options.metrics = &metrics;
  WalWriter writer(std::move(file).value(), /*first_seqno=*/1, options);

  fs.FailNextSyncs(1);  // One transient failure; the disk heals after it.
  uint64_t seqno = 0;
  EXPECT_FALSE(writer.Append("payload", &seqno).ok());
  // Sticky: the writer refuses further work although the next fsync
  // would succeed, and no fsync was retried behind the failed one.
  EXPECT_FALSE(writer.Append("again", &seqno).ok());
  EXPECT_FALSE(writer.Sync().ok());
  EXPECT_EQ(writer.last_synced_seqno(), 0u);
  EXPECT_EQ(fs.num_syncs(), 0u);
  EXPECT_EQ(metrics.counter("qp_wal_fsyncs_total")->Value(), 0u);
}

class StorageBreakerTest : public ::testing::Test {
 protected:
  StorageBreakerTest() : schema_(MovieSchema()) {}

  StorageOptions Options() {
    StorageOptions options;
    options.dir = "db";
    options.fs = &fs_;
    options.compact_threshold_bytes = 0;
    options.breaker_backoff = std::chrono::milliseconds(1);
    // The breaker's backoff runs on this clock: it stays open until a
    // test advances it.
    options.clock = &clock_;
    return options;
  }

  std::unique_ptr<DurableProfileStore> MustOpen(StorageOptions options) {
    auto store_or = DurableProfileStore::Open(&schema_, std::move(options));
    EXPECT_TRUE(store_or.ok()) << store_or.status();
    return store_or.ok() ? std::move(store_or).value() : nullptr;
  }

  Schema schema_;
  FakeClock clock_;
  FaultInjectingFileSystem fs_;
};

TEST_F(StorageBreakerTest,
       TransientFsyncFailureFailsTheMutationAndTheProbeHeals) {
  const std::vector<AtomicPreference> western = {AtomicPreference::Selection(
      AttributeRef{"GENRE", "genre"}, Value::Str("western"), 0.25)};
  {
    auto store = MustOpen(Options());
    ASSERT_NE(store, nullptr);
    QP_ASSERT_OK(store->Put("julie", JulieProfile()));

    // One fsync fails, once. The upsert whose record it was meant to make
    // durable fails, and so does every mutation after it (the WAL's
    // error is sticky) until the breaker trips at its threshold.
    fs_.FailNextSyncs(1);
    for (int attempt = 0; attempt < 3; ++attempt) {
      EXPECT_FALSE(store->Upsert("julie", western).ok()) << attempt;
    }
    StorageStats stats = store->storage_stats();
    EXPECT_EQ(stats.mutation_failures, 3u);
    EXPECT_TRUE(stats.breaker_open);
    // Nothing failed is visible: julie is still her acknowledged self.
    QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot julie, store->Get("julie"));
    EXPECT_TRUE(ProfilesEqual(*julie.profile, JulieProfile()));

    // After the backoff the next mutation runs the half-open probe, which
    // rewrites the acknowledged state into a fresh generation, and then
    // succeeds itself.
    clock_.Advance(std::chrono::milliseconds(5));
    QP_ASSERT_OK(store->Put("rob", RobProfile()));
    stats = store->storage_stats();
    EXPECT_FALSE(stats.breaker_open);
    EXPECT_EQ(stats.breaker_recoveries, 1u);
    QP_ASSERT_OK(store->Close());
  }

  // A reopen holds exactly the acknowledged profiles. The failed upsert's
  // bytes reached the old log before its fsync failed; they must not
  // come back.
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), 2u);
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot julie, store->Get("julie"));
  EXPECT_TRUE(ProfilesEqual(*julie.profile, JulieProfile()));
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot rob, store->Get("rob"));
  EXPECT_TRUE(ProfilesEqual(*rob.profile, RobProfile()));
}

TEST_F(StorageBreakerTest, PersistentFailureTripsTheBreakerReadsKeepServing) {
  StorageOptions options = Options();
  options.breaker_threshold = 3;
  auto store = MustOpen(std::move(options));
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));

  // The disk dies for good: every fsync fails.
  fs_.SetSyncFailure(true);
  for (int attempt = 0; attempt < 3; ++attempt) {
    Status status = store->Put("rob", RobProfile());
    ASSERT_FALSE(status.ok()) << "attempt " << attempt;
    EXPECT_NE(status.code(), StatusCode::kUnavailable)
        << "breaker tripped before the threshold, attempt " << attempt;
  }

  // Threshold reached: mutations now fail fast with Unavailable, without
  // touching the dead WAL.
  Status shed = store->Upsert("julie", {AtomicPreference::Selection(
                                  AttributeRef{"GENRE", "genre"},
                                  Value::Str("western"), 0.25)});
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(store->Remove("julie").code(), StatusCode::kUnavailable);

  // Reads are unaffected: the pre-failure state keeps serving.
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot julie, store->Get("julie"));
  EXPECT_TRUE(ProfilesEqual(*julie.profile, JulieProfile()));
  EXPECT_EQ(store->size(), 1u);

  StorageStats stats = store->storage_stats();
  EXPECT_EQ(stats.mutation_failures, 3u);
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_TRUE(stats.breaker_open);
}

TEST_F(StorageBreakerTest, ZeroThresholdDisablesTheBreaker) {
  StorageOptions options = Options();
  options.breaker_threshold = 0;
  auto store = MustOpen(std::move(options));
  ASSERT_NE(store, nullptr);

  fs_.SetSyncFailure(true);
  for (int attempt = 0; attempt < 10; ++attempt) {
    Status status = store->Put("julie", JulieProfile());
    ASSERT_FALSE(status.ok());
    // Never Unavailable: the caller keeps seeing the WAL's sticky error.
    EXPECT_NE(status.code(), StatusCode::kUnavailable);
  }
  StorageStats stats = store->storage_stats();
  EXPECT_EQ(stats.breaker_trips, 0u);
  EXPECT_FALSE(stats.breaker_open);
  EXPECT_EQ(stats.mutation_failures, 10u);
}

}  // namespace
}  // namespace storage
}  // namespace qp
