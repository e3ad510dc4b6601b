// WalWriter/WalReader tests: frame layout, sequence-number discipline,
// fsync policies and group commit, and the torn-tail vs mid-log-corruption
// distinction recovery relies on.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/obs/metrics.h"
#include "qp/storage/coding.h"
#include "qp/storage/fault_injection.h"
#include "qp/storage/wal.h"
#include "qp/util/crc32c.h"

namespace qp {
namespace storage {
namespace {

class WalTest : public ::testing::Test {
 protected:
  std::unique_ptr<WritableFile> NewFile(const std::string& name) {
    auto file_or = fs_.NewWritableFile(name, /*truncate=*/true);
    EXPECT_TRUE(file_or.ok()) << file_or.status();
    return std::move(file_or).value();
  }

  std::string Contents(const std::string& name) {
    auto content_or = fs_.ReadFile(name);
    EXPECT_TRUE(content_or.ok()) << content_or.status();
    return content_or.ok() ? std::move(content_or).value() : std::string();
  }

  FaultInjectingFileSystem fs_;
};

TEST_F(WalTest, FrameLayout) {
  std::string frame;
  EncodeWalRecord(7, "abc", &frame);
  // [size u32][masked crc(size) u32][masked crc(body) u32][seqno u64][payload].
  ASSERT_EQ(frame.size(), 4 + 4 + 4 + 8 + 3);
  Decoder dec(frame);
  uint32_t body_size = 0;
  uint32_t size_crc = 0;
  uint32_t body_crc = 0;
  ASSERT_TRUE(dec.GetFixed32(&body_size));
  ASSERT_TRUE(dec.GetFixed32(&size_crc));
  ASSERT_TRUE(dec.GetFixed32(&body_crc));
  EXPECT_EQ(body_size, 8u + 3u);
  EXPECT_EQ(crc32c::Unmask(size_crc),
            crc32c::Value(std::string_view(frame).substr(0, 4)));
  std::string_view body = frame;
  body.remove_prefix(12);
  EXPECT_EQ(crc32c::Unmask(body_crc), crc32c::Value(body));
  uint64_t seqno = 0;
  ASSERT_TRUE(dec.GetFixed64(&seqno));
  EXPECT_EQ(seqno, 7u);
}

TEST_F(WalTest, AppendAndReadBack) {
  WalWriter writer(NewFile("wal"), /*first_seqno=*/1);
  std::vector<std::string> payloads = {"alpha", "", "gamma", "delta"};
  for (size_t i = 0; i < payloads.size(); ++i) {
    uint64_t seqno = 0;
    QP_ASSERT_OK(writer.Append(payloads[i], &seqno));
    EXPECT_EQ(seqno, i + 1);
  }
  EXPECT_EQ(writer.last_appended_seqno(), 4u);
  EXPECT_EQ(writer.last_synced_seqno(), 4u);  // kEveryRecord default.
  QP_ASSERT_OK(writer.Close());

  std::string log = Contents("wal");
  WalReader reader(log, /*expected_first_seqno=*/1);
  for (size_t i = 0; i < payloads.size(); ++i) {
    WalRecord record;
    bool has_record = false;
    QP_ASSERT_OK(reader.Next(&record, &has_record));
    ASSERT_TRUE(has_record) << "record " << i;
    EXPECT_EQ(record.seqno, i + 1);
    EXPECT_EQ(record.payload, payloads[i]);
  }
  WalRecord record;
  bool has_record = true;
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  EXPECT_FALSE(has_record);
  EXPECT_EQ(reader.valid_bytes(), log.size());
  EXPECT_EQ(reader.torn_bytes(), 0u);
}

TEST_F(WalTest, FirstSeqnoAnchorsTheSequence) {
  WalWriter writer(NewFile("wal"), /*first_seqno=*/42);
  uint64_t seqno = 0;
  QP_ASSERT_OK(writer.Append("x", &seqno));
  EXPECT_EQ(seqno, 42u);
  QP_ASSERT_OK(writer.Close());

  // A reader expecting a different start refuses the log: a stale
  // segment can never be replayed against the wrong base state.
  std::string log = Contents("wal");
  WalReader reader(log, /*expected_first_seqno=*/1);
  WalRecord record;
  bool has_record = false;
  EXPECT_FALSE(reader.Next(&record, &has_record).ok());
}

TEST_F(WalTest, SeqnoGapMidLogIsCorruption) {
  std::string log;
  EncodeWalRecord(1, "a", &log);
  EncodeWalRecord(3, "b", &log);  // Gap: 2 is missing.
  WalReader reader(log, 1);
  WalRecord record;
  bool has_record = false;
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  ASSERT_TRUE(has_record);
  EXPECT_FALSE(reader.Next(&record, &has_record).ok());
}

TEST_F(WalTest, TornTailIsSilentlyTruncated) {
  std::string log;
  EncodeWalRecord(1, "first", &log);
  EncodeWalRecord(2, "second", &log);
  std::string full = log;
  EncodeWalRecord(3, "third", &log);

  // Cut anywhere strictly inside the final frame: the reader must stop
  // after record 2 with OK and report the dangling bytes as torn.
  for (size_t cut = full.size() + 1; cut < log.size(); ++cut) {
    std::string torn = log.substr(0, cut);
    WalReader reader(torn, 1);
    WalRecord record;
    bool has_record = false;
    QP_ASSERT_OK(reader.Next(&record, &has_record));
    ASSERT_TRUE(has_record);
    EXPECT_EQ(record.seqno, 1u);
    QP_ASSERT_OK(reader.Next(&record, &has_record));
    ASSERT_TRUE(has_record);
    EXPECT_EQ(record.seqno, 2u);
    QP_ASSERT_OK(reader.Next(&record, &has_record));
    EXPECT_FALSE(has_record);
    EXPECT_EQ(reader.valid_bytes(), full.size()) << "cut at " << cut;
    EXPECT_EQ(reader.torn_bytes(), cut - full.size()) << "cut at " << cut;
  }
}

TEST_F(WalTest, CorruptFinalRecordCountsAsTorn) {
  // A bad checksum on the very last record is indistinguishable from a
  // partially persisted append, so it ends the log cleanly.
  std::string log;
  EncodeWalRecord(1, "first", &log);
  size_t first_size = log.size();
  EncodeWalRecord(2, "second", &log);
  log[log.size() - 1] = static_cast<char>(log.back() ^ 0x01);

  WalReader reader(log, 1);
  WalRecord record;
  bool has_record = false;
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  ASSERT_TRUE(has_record);
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  EXPECT_FALSE(has_record);
  EXPECT_EQ(reader.valid_bytes(), first_size);
  EXPECT_EQ(reader.torn_bytes(), log.size() - first_size);
}

TEST_F(WalTest, CorruptRecordMidLogIsAnError) {
  std::string log;
  EncodeWalRecord(1, "first", &log);
  size_t first_size = log.size();
  EncodeWalRecord(2, "second", &log);
  EncodeWalRecord(3, "third", &log);

  // Flip one payload bit of record 2 — valid data follows, so this is
  // real corruption, not a torn tail.
  log[first_size + 12 + 8] =
      static_cast<char>(log[first_size + 12 + 8] ^ 0x40);
  WalReader reader(log, 1);
  WalRecord record;
  bool has_record = false;
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  ASSERT_TRUE(has_record);
  Status status = reader.Next(&record, &has_record);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}

TEST_F(WalTest, FlippedLengthFieldMidLogIsCorruptionNotTorn) {
  std::string log;
  EncodeWalRecord(1, "first", &log);
  size_t first_size = log.size();
  EncodeWalRecord(2, "second", &log);
  EncodeWalRecord(3, "third", &log);

  // Flip a bit in record 2's length field. Its header checksum fails,
  // and record 3 still verifies after it, so truncating here would
  // silently lose a valid record — the reader must refuse instead.
  log[first_size] = static_cast<char>(log[first_size] ^ 0x80);
  WalReader reader(log, 1);
  WalRecord record;
  bool has_record = false;
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  ASSERT_TRUE(has_record);
  Status status = reader.Next(&record, &has_record);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}

TEST_F(WalTest, FlippedLengthFieldOnFinalRecordIsTorn) {
  std::string log;
  EncodeWalRecord(1, "first", &log);
  size_t first_size = log.size();
  EncodeWalRecord(2, "second", &log);

  // Same flip, but nothing valid follows: indistinguishable from the
  // garbage prefix of a torn append, so the log ends cleanly.
  log[first_size] = static_cast<char>(log[first_size] ^ 0x80);
  WalReader reader(log, 1);
  WalRecord record;
  bool has_record = false;
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  ASSERT_TRUE(has_record);
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  EXPECT_FALSE(has_record);
  EXPECT_EQ(reader.valid_bytes(), first_size);
  EXPECT_EQ(reader.torn_bytes(), log.size() - first_size);
}

TEST_F(WalTest, SyncPolicyNeverDefersDurability) {
  obs::MetricsRegistry metrics;
  WalOptions options;
  options.fsync = FsyncPolicy::kNever;
  options.metrics = &metrics;
  WalWriter writer(NewFile("wal"), 1, options);
  obs::Counter* fsyncs = metrics.counter("qp_wal_fsyncs_total");
  uint64_t seqno = 0;
  QP_ASSERT_OK(writer.Append("a", &seqno));
  QP_ASSERT_OK(writer.Append("b", &seqno));
  EXPECT_EQ(writer.last_appended_seqno(), 2u);
  EXPECT_EQ(writer.last_synced_seqno(), 0u);
  EXPECT_EQ(fsyncs->Value(), 0u);
  EXPECT_EQ(metrics.counter("qp_wal_records_appended_total")->Value(), 2u);

  QP_ASSERT_OK(writer.Sync());
  EXPECT_EQ(writer.last_synced_seqno(), 2u);
  EXPECT_GE(fsyncs->Value(), 1u);
  EXPECT_EQ(metrics.histogram("qp_wal_sync_seconds")->Snapshot().count,
            fsyncs->Value());
  QP_ASSERT_OK(writer.Close());
}

TEST_F(WalTest, UnsyncedRecordsVanishInACrash) {
  WalOptions options;
  options.fsync = FsyncPolicy::kNever;
  WalWriter writer(NewFile("wal"), 1, options);
  uint64_t seqno = 0;
  QP_ASSERT_OK(writer.Append("kept", &seqno));
  QP_ASSERT_OK(writer.Sync());
  QP_ASSERT_OK(writer.Append("lost", &seqno));

  fs_.CrashKeepingUnsynced();  // OS survived: both records present.
  {
    std::string all = Contents("wal");
    WalReader reader_all(all, 1);
    WalRecord record;
    bool has_record = false;
    QP_ASSERT_OK(reader_all.Next(&record, &has_record));
    ASSERT_TRUE(has_record);
    QP_ASSERT_OK(reader_all.Next(&record, &has_record));
    EXPECT_TRUE(has_record);
  }

  Rng rng(7);
  fs_.Crash(&rng);  // Machine died: only the synced prefix is promised.
  std::string log = Contents("wal");
  WalReader reader(log, 1);
  WalRecord record;
  bool has_record = false;
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  ASSERT_TRUE(has_record);
  EXPECT_EQ(record.payload, "kept");
  // The unsynced record may survive wholly, partially (torn, dropped)
  // or not at all — but never corrupts the log.
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  if (has_record) {
    EXPECT_EQ(record.payload, "lost");
  }
}

TEST_F(WalTest, AppendErrorsAreSticky) {
  WalWriter writer(NewFile("wal"), 1);
  uint64_t seqno = 0;
  QP_ASSERT_OK(writer.Append("ok", &seqno));

  fs_.InjectShortWrite("wal", /*keep_bytes=*/3);
  EXPECT_FALSE(writer.Append("fails", &seqno).ok());
  // The writer cannot know how much of the failed record persisted, so
  // everything after the first failure is refused too.
  EXPECT_FALSE(writer.Append("refused", &seqno).ok());
  EXPECT_FALSE(writer.Sync().ok());

  // The surviving prefix is record 1 plus a torn fragment of record 2 —
  // exactly what recovery truncates.
  std::string log = Contents("wal");
  WalReader reader(log, 1);
  WalRecord record;
  bool has_record = false;
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  ASSERT_TRUE(has_record);
  EXPECT_EQ(record.payload, "ok");
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  EXPECT_FALSE(has_record);
  EXPECT_EQ(reader.torn_bytes(), 3u);
}

TEST_F(WalTest, FsyncFailureIsSticky) {
  WalWriter writer(NewFile("wal"), 1);
  uint64_t seqno = 0;
  QP_ASSERT_OK(writer.Append("before", &seqno));
  fs_.SetSyncFailure(true);
  EXPECT_FALSE(writer.Append("during", &seqno).ok());
  fs_.SetSyncFailure(false);
  EXPECT_FALSE(writer.Append("after", &seqno).ok());
}

TEST_F(WalTest, GroupCommitPreservesEveryRecord) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  obs::MetricsRegistry metrics;
  WalOptions options;
  options.metrics = &metrics;
  WalWriter writer(NewFile("wal"), 1, options);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t seqno = 0;
        std::string payload =
            "t" + std::to_string(t) + ":" + std::to_string(i);
        if (!writer.Append(payload, &seqno).ok() || seqno == 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(writer.last_appended_seqno(),
            static_cast<uint64_t>(kThreads * kPerThread));
  // Every Append under kEveryRecord returns only after its record is
  // durable; with 8 writers racing, one fsync should regularly cover
  // several records. The hard guarantee is <= one fsync per record.
  EXPECT_EQ(writer.last_synced_seqno(), writer.last_appended_seqno());
  EXPECT_LE(metrics.counter("qp_wal_fsyncs_total")->Value(),
            static_cast<uint64_t>(kThreads * kPerThread));
  QP_ASSERT_OK(writer.Close());

  // The log replays to exactly the set of appended payloads, densely
  // numbered 1..N.
  std::string log = Contents("wal");
  WalReader reader(log, 1);
  std::vector<std::string> seen;
  for (;;) {
    WalRecord record;
    bool has_record = false;
    QP_ASSERT_OK(reader.Next(&record, &has_record));
    if (!has_record) break;
    EXPECT_EQ(record.seqno, seen.size() + 1);
    seen.emplace_back(record.payload);
  }
  ASSERT_EQ(seen.size(), static_cast<size_t>(kThreads * kPerThread));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST_F(WalTest, EmptyLogReadsCleanly) {
  WalReader reader("", 1);
  WalRecord record;
  bool has_record = true;
  QP_ASSERT_OK(reader.Next(&record, &has_record));
  EXPECT_FALSE(has_record);
  EXPECT_EQ(reader.valid_bytes(), 0u);
  EXPECT_EQ(reader.torn_bytes(), 0u);
}

TEST_F(WalTest, PolicyNames) {
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kEveryRecord), "every_record");
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kNever), "never");
}

}  // namespace
}  // namespace storage
}  // namespace qp
