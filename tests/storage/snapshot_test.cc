// Snapshot + manifest tests: atomic manifest commit, snapshot round-trip
// through the binary profile codec, checksum/size verification against
// the manifest before a single profile is decoded, and the refusal of
// another format version by name.

#include <memory>
#include <string>
#include <utility>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/storage/fault_injection.h"
#include "qp/storage/record.h"
#include "qp/storage/snapshot.h"
#include "qp/util/crc32c.h"

namespace qp {
namespace storage {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() { QP_EXPECT_OK(fs_.CreateDir("db")); }

  FaultInjectingFileSystem fs_;
};

TEST_F(SnapshotTest, FileNamesSortBySeqno) {
  EXPECT_EQ(SnapshotFileName(7), "snapshot-00000000000000000007.qps");
  EXPECT_EQ(WalFileName(123), "wal-00000000000000000123.log");
  // Zero padding keeps lexicographic order == numeric order.
  EXPECT_LT(SnapshotFileName(9), SnapshotFileName(10));
  EXPECT_LT(WalFileName(99), WalFileName(100));
}

TEST_F(SnapshotTest, ManifestRoundTrip) {
  Manifest manifest;
  manifest.seqno = 42;
  manifest.snapshot_file = SnapshotFileName(42);
  manifest.snapshot_bytes = 1234;
  manifest.snapshot_crc = 0xdeadbeef;
  manifest.wal_file = WalFileName(43);
  QP_ASSERT_OK(WriteManifest(&fs_, "db", manifest));

  QP_ASSERT_OK_AND_ASSIGN(Manifest read, ReadManifest(&fs_, "db"));
  EXPECT_EQ(read.seqno, 42u);
  EXPECT_EQ(read.snapshot_file, manifest.snapshot_file);
  EXPECT_EQ(read.snapshot_bytes, 1234u);
  EXPECT_EQ(read.snapshot_crc, 0xdeadbeefu);
  EXPECT_EQ(read.wal_file, manifest.wal_file);

  // No temp file left behind: the write is temp + rename.
  EXPECT_FALSE(fs_.Exists("db/MANIFEST.tmp"));
}

TEST_F(SnapshotTest, FreshManifestOmitsSnapshotLine) {
  Manifest manifest;
  manifest.seqno = 0;
  manifest.wal_file = WalFileName(1);
  QP_ASSERT_OK(WriteManifest(&fs_, "db", manifest));
  QP_ASSERT_OK_AND_ASSIGN(Manifest read, ReadManifest(&fs_, "db"));
  EXPECT_EQ(read.seqno, 0u);
  EXPECT_TRUE(read.snapshot_file.empty());
  EXPECT_EQ(read.wal_file, WalFileName(1));
}

TEST_F(SnapshotTest, MissingManifestIsNotFound) {
  EXPECT_EQ(ReadManifest(&fs_, "db").status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotTest, GarbledManifestIsParseError) {
  Manifest manifest;
  manifest.seqno = 1;
  manifest.wal_file = WalFileName(2);
  QP_ASSERT_OK(WriteManifest(&fs_, "db", manifest));
  QP_ASSERT_OK(fs_.FlipBit("db/MANIFEST", 0, 3));  // Damage the header.
  EXPECT_EQ(ReadManifest(&fs_, "db").status().code(), StatusCode::kParseError);
}

TEST_F(SnapshotTest, SignedManifestNumbersAreRejected) {
  // strtoull would wrap "-1" to 2^64-1; the parser must refuse signs
  // rather than accept a garbage seqno as a huge value.
  auto write_manifest = [&](const std::string& content) {
    auto file_or = fs_.NewWritableFile("db/MANIFEST", /*truncate=*/true);
    QP_ASSERT_OK(file_or.status());
    QP_ASSERT_OK((*file_or)->Append(content));
    QP_ASSERT_OK((*file_or)->Close());
  };
  write_manifest("qp-manifest v1\nseqno -1\nwal " + WalFileName(1) + "\n");
  EXPECT_EQ(ReadManifest(&fs_, "db").status().code(), StatusCode::kParseError);
  write_manifest("qp-manifest v1\nseqno +3\nwal " + WalFileName(1) + "\n");
  EXPECT_EQ(ReadManifest(&fs_, "db").status().code(), StatusCode::kParseError);
  write_manifest("qp-manifest v1\nseqno 99999999999999999999999\nwal " +
                 WalFileName(1) + "\n");  // Overflows uint64.
  EXPECT_EQ(ReadManifest(&fs_, "db").status().code(), StatusCode::kParseError);
  write_manifest("qp-manifest v1\nseqno 3\nwal " + WalFileName(1) + "\n");
  QP_ASSERT_OK(ReadManifest(&fs_, "db").status());
}

TEST_F(SnapshotTest, ManifestOverwriteIsAtomic) {
  Manifest first;
  first.seqno = 1;
  first.wal_file = WalFileName(2);
  QP_ASSERT_OK(WriteManifest(&fs_, "db", first));

  Manifest second;
  second.seqno = 9;
  second.snapshot_file = SnapshotFileName(9);
  second.snapshot_bytes = 77;
  second.snapshot_crc = 0x1234;
  second.wal_file = WalFileName(10);
  QP_ASSERT_OK(WriteManifest(&fs_, "db", second));

  QP_ASSERT_OK_AND_ASSIGN(Manifest read, ReadManifest(&fs_, "db"));
  EXPECT_EQ(read.seqno, 9u);
  EXPECT_EQ(read.wal_file, WalFileName(10));
}

TEST_F(SnapshotTest, SnapshotRoundTrip) {
  SnapshotUsers users;
  users.emplace_back("julie",
                     std::make_shared<const UserProfile>(JulieProfile()));
  users.emplace_back("rob", std::make_shared<const UserProfile>(RobProfile()));
  // Pathological ids the framing must carry: empty, spaces, newline.
  users.emplace_back("", std::make_shared<const UserProfile>(UserProfile()));
  users.emplace_back("user with\nnewline",
                     std::make_shared<const UserProfile>(JulieProfile()));

  uint64_t bytes = 0;
  uint32_t crc = 0;
  QP_ASSERT_OK(WriteSnapshot(&fs_, "db/snap", users, &bytes, &crc));
  EXPECT_GT(bytes, 0u);

  QP_ASSERT_OK_AND_ASSIGN(auto loaded,
                          LoadSnapshot(&fs_, "db/snap", bytes, crc));
  ASSERT_EQ(loaded.size(), users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(loaded[i].first, users[i].first) << "user " << i;
    EXPECT_TRUE(ProfilesEqual(loaded[i].second, *users[i].second))
        << "user " << i;
  }
}

TEST_F(SnapshotTest, EmptySnapshotRoundTrip) {
  uint64_t bytes = 0;
  uint32_t crc = 0;
  QP_ASSERT_OK(WriteSnapshot(&fs_, "db/snap", {}, &bytes, &crc));
  QP_ASSERT_OK_AND_ASSIGN(auto loaded,
                          LoadSnapshot(&fs_, "db/snap", bytes, crc));
  EXPECT_TRUE(loaded.empty());
}

TEST_F(SnapshotTest, BitFlipAnywhereRejectsTheWholeSnapshot) {
  SnapshotUsers users;
  users.emplace_back("julie",
                     std::make_shared<const UserProfile>(JulieProfile()));
  uint64_t bytes = 0;
  uint32_t crc = 0;
  QP_ASSERT_OK(WriteSnapshot(&fs_, "db/snap", users, &bytes, &crc));

  for (size_t offset = 0; offset < bytes; offset += 17) {
    QP_ASSERT_OK(fs_.FlipBit("db/snap", offset, 2));
    auto loaded = LoadSnapshot(&fs_, "db/snap", bytes, crc);
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << "flip at " << offset;
    QP_ASSERT_OK(fs_.FlipBit("db/snap", offset, 2));  // Restore.
  }
  // Restored content loads again.
  QP_ASSERT_OK(LoadSnapshot(&fs_, "db/snap", bytes, crc).status());
}

TEST_F(SnapshotTest, SizeMismatchIsRejectedBeforeParsing) {
  SnapshotUsers users;
  users.emplace_back("julie",
                     std::make_shared<const UserProfile>(JulieProfile()));
  uint64_t bytes = 0;
  uint32_t crc = 0;
  QP_ASSERT_OK(WriteSnapshot(&fs_, "db/snap", users, &bytes, &crc));
  auto loaded = LoadSnapshot(&fs_, "db/snap", bytes + 1, crc);
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(SnapshotTest, VersionOneSnapshotIsRefusedByName) {
  // A v1 snapshot (text bodies) with a valid size and checksum: its
  // header names a format this build does not read.
  const std::string body = "[ GENRE.genre='comedy', 1 ]\n";
  const std::string v1 = "qp-snapshot v1\ncount 1\nuser 5 " +
                         std::to_string(body.size()) + "\njulie\n" + body;
  QP_ASSERT_OK(WriteFileAtomic(&fs_, "db/snap", v1));
  const uint32_t crc = crc32c::Value(v1);
  auto loaded = LoadSnapshot(&fs_, "db/snap", v1.size(), crc);
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("qp-snapshot v1"),
            std::string::npos)
      << loaded.status();
  EXPECT_EQ(IndexSnapshot(&fs_, "db/snap", v1.size(), crc).status().code(),
            StatusCode::kParseError);

  // Open fails the same way, untiered and tiered.
  Manifest manifest;
  manifest.seqno = 1;
  manifest.snapshot_file = "snap";
  manifest.snapshot_bytes = v1.size();
  manifest.snapshot_crc = crc;
  manifest.wal_file = WalFileName(2);
  QP_ASSERT_OK(WriteManifest(&fs_, "db", manifest));
  Schema schema = MovieSchema();
  for (size_t hot_capacity : {size_t{0}, size_t{1}}) {
    StorageOptions options;
    options.dir = "db";
    options.fs = &fs_;
    options.background_compaction = false;
    options.hot_capacity = hot_capacity;
    auto store = DurableProfileStore::Open(&schema, options);
    EXPECT_EQ(store.status().code(), StatusCode::kParseError)
        << "hot_capacity " << hot_capacity;
    EXPECT_NE(store.status().message().find("qp-snapshot v1"),
              std::string::npos)
        << store.status();
  }
}

TEST_F(SnapshotTest, MissingSnapshotFileIsNotFound) {
  auto loaded = LoadSnapshot(&fs_, "db/absent", 10, 0);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace storage
}  // namespace qp
