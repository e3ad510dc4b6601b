// Storage resilience under fsync failures: transient failures are
// retried with bounded backoff (no data loss, no duplicated frames);
// persistent failures trip the circuit breaker, turning the store
// read-only while reads keep serving the in-memory state.

#include <memory>
#include <string>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/obs/metrics.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/storage/fault_injection.h"
#include "qp/storage/wal.h"
#include "qp/util/status.h"

namespace qp {
namespace storage {
namespace {

class WalRetryTest : public ::testing::Test {
 protected:
  std::unique_ptr<WalWriter> NewWriter(WalOptions options) {
    auto file = fs_.NewWritableFile("wal-1.log", /*truncate=*/true);
    EXPECT_TRUE(file.ok());
    options.metrics = &metrics_;
    return std::make_unique<WalWriter>(std::move(file).value(),
                                       /*first_seqno=*/1, options);
  }

  uint64_t SyncRetries() {
    return metrics_.counter("qp_wal_sync_retries_total")->Value();
  }

  FaultInjectingFileSystem fs_;
  obs::MetricsRegistry metrics_;
};

TEST_F(WalRetryTest, TransientSyncFailureIsRetriedToSuccess) {
  WalOptions options;
  options.max_sync_retries = 5;
  options.retry_backoff = std::chrono::milliseconds(0);
  auto writer = NewWriter(options);

  fs_.FailNextSyncs(2);
  uint64_t seqno = 0;
  QP_ASSERT_OK(writer->Append("payload", &seqno));
  EXPECT_EQ(seqno, 1u);
  EXPECT_EQ(writer->last_synced_seqno(), 1u);
  EXPECT_EQ(SyncRetries(), 2u);

  // The writer is healthy afterwards: further appends need no retries.
  QP_ASSERT_OK(writer->Append("more", &seqno));
  EXPECT_EQ(SyncRetries(), 2u);
  QP_ASSERT_OK(writer->Close());

  // The log holds each record exactly once (a retried fsync must never
  // re-append bytes).
  QP_ASSERT_OK_AND_ASSIGN(std::string data, fs_.ReadFile("wal-1.log"));
  WalReader reader(data, 1);
  WalRecord record;
  bool has_record = false;
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  ASSERT_TRUE(has_record);
  EXPECT_EQ(record.payload, "payload");
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  ASSERT_TRUE(has_record);
  EXPECT_EQ(record.payload, "more");
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  EXPECT_FALSE(has_record);
  EXPECT_EQ(reader.torn_bytes(), 0u);
}

TEST_F(WalRetryTest, RetriesExhaustedBecomesStickyError) {
  WalOptions options;
  options.max_sync_retries = 2;
  options.retry_backoff = std::chrono::milliseconds(0);
  auto writer = NewWriter(options);

  fs_.FailNextSyncs(10);  // More failures than the retry budget.
  uint64_t seqno = 0;
  EXPECT_FALSE(writer->Append("payload", &seqno).ok());
  EXPECT_EQ(SyncRetries(), 2u);
  // Sticky: the writer refuses further work even though the filesystem
  // has recovered by now.
  EXPECT_FALSE(writer->Append("again", &seqno).ok());
}

TEST_F(WalRetryTest, ZeroRetriesPreservesHistoricalBehaviour) {
  auto writer = NewWriter(WalOptions{});
  fs_.FailNextSyncs(1);
  uint64_t seqno = 0;
  EXPECT_FALSE(writer->Append("payload", &seqno).ok());
  EXPECT_EQ(SyncRetries(), 0u);
}

class StorageBreakerTest : public ::testing::Test {
 protected:
  StorageBreakerTest() : schema_(MovieSchema()) {}

  StorageOptions Options() {
    StorageOptions options;
    options.dir = "db";
    options.fs = &fs_;
    options.compact_threshold_bytes = 0;
    options.wal.max_sync_retries = 3;
    options.wal.retry_backoff = std::chrono::milliseconds(0);
    return options;
  }

  std::unique_ptr<DurableProfileStore> MustOpen(StorageOptions options) {
    auto store_or = DurableProfileStore::Open(&schema_, std::move(options));
    EXPECT_TRUE(store_or.ok()) << store_or.status();
    return store_or.ok() ? std::move(store_or).value() : nullptr;
  }

  Schema schema_;
  FaultInjectingFileSystem fs_;
};

TEST_F(StorageBreakerTest, TransientFsyncFailuresAreAbsorbedWithoutDataLoss) {
  {
    auto store = MustOpen(Options());
    ASSERT_NE(store, nullptr);
    fs_.FailNextSyncs(2);
    QP_ASSERT_OK(store->Put("julie", JulieProfile()));
    QP_ASSERT_OK(store->Put("rob", RobProfile()));

    StorageStats stats = store->storage_stats();
    EXPECT_EQ(stats.sync_retries, 2u);
    EXPECT_EQ(stats.mutation_failures, 0u);
    EXPECT_EQ(stats.breaker_trips, 0u);
    EXPECT_FALSE(stats.breaker_open);
    QP_ASSERT_OK(store->Close());
  }

  // Both profiles survive a reopen: the retried fsync really made the
  // records durable.
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), 2u);
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot julie, store->Get("julie"));
  EXPECT_TRUE(ProfilesEqual(*julie.profile, JulieProfile()));
}

TEST_F(StorageBreakerTest, PersistentFailureTripsTheBreakerReadsKeepServing) {
  StorageOptions options = Options();
  options.breaker_threshold = 3;
  auto store = MustOpen(std::move(options));
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));

  // The disk dies for good: every fsync (and its retries) fails.
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
  EXPECT_GT(stats.sync_retries, 0u);  // The first failure was retried.
}

TEST_F(StorageBreakerTest, ZeroThresholdDisablesTheBreaker) {
  StorageOptions options = Options();
  options.breaker_threshold = 0;
  options.wal.max_sync_retries = 0;
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
