// Snapshot + manifest tests: atomic manifest commit, snapshot round-trip
// through the binary profile codec, checksum/size verification against
// the manifest before a single profile is decoded, the per-entry body
// checksum, and the refusal of another format version by name.

#include <string>
#include <utility>
#include <vector>

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

using Users = std::vector<std::pair<std::string, UserProfile>>;

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() { QP_EXPECT_OK(fs_.CreateDir("db")); }

  /// Writes `users` through SnapshotWriter, the way a checkpoint does.
  Status Write(const Users& users, uint64_t* bytes, uint32_t* crc) {
    SnapshotWriter writer(&fs_);
    QP_RETURN_IF_ERROR(writer.Open("db/snap", users.size()));
    for (const auto& [user_id, profile] : users) {
      std::string body;
      EncodeProfile(profile, &body);
      QP_RETURN_IF_ERROR(writer.Add(user_id, body));
    }
    return writer.Finish(bytes, crc);
  }

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
  Users users;
  users.emplace_back("julie", JulieProfile());
  users.emplace_back("rob", RobProfile());
  // Pathological ids the framing must carry: empty, spaces, newline.
  users.emplace_back("", UserProfile());
  users.emplace_back("user with\nnewline", JulieProfile());

  uint64_t bytes = 0;
  uint32_t crc = 0;
  QP_ASSERT_OK(Write(users, &bytes, &crc));
  EXPECT_GT(bytes, 0u);

  QP_ASSERT_OK_AND_ASSIGN(auto loaded,
                          LoadSnapshot(&fs_, "db/snap", bytes, crc));
  ASSERT_EQ(loaded.size(), users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(loaded[i].user_id, users[i].first) << "user " << i;
    ASSERT_TRUE(loaded[i].profile.ok()) << loaded[i].profile.status();
    EXPECT_TRUE(ProfilesEqual(*loaded[i].profile, users[i].second))
        << "user " << i;
  }
}

TEST_F(SnapshotTest, EmptySnapshotRoundTrip) {
  uint64_t bytes = 0;
  uint32_t crc = 0;
  QP_ASSERT_OK(Write({}, &bytes, &crc));
  QP_ASSERT_OK_AND_ASSIGN(auto loaded,
                          LoadSnapshot(&fs_, "db/snap", bytes, crc));
  EXPECT_TRUE(loaded.empty());
}

TEST_F(SnapshotTest, BitFlipAnywhereRejectsTheWholeSnapshot) {
  uint64_t bytes = 0;
  uint32_t crc = 0;
  QP_ASSERT_OK(Write({{"julie", JulieProfile()}}, &bytes, &crc));

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
  uint64_t bytes = 0;
  uint32_t crc = 0;
  QP_ASSERT_OK(Write({{"julie", JulieProfile()}}, &bytes, &crc));
  auto loaded = LoadSnapshot(&fs_, "db/snap", bytes + 1, crc);
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(SnapshotTest, EntryChecksumCoversEachBodyOnItsOwn) {
  uint64_t bytes = 0;
  uint32_t crc = 0;
  QP_ASSERT_OK(Write({{"julie", JulieProfile()}, {"rob", RobProfile()}},
                     &bytes, &crc));
  QP_ASSERT_OK_AND_ASSIGN(auto entries,
                          IndexSnapshot(&fs_, "db/snap", bytes, crc));
  ASSERT_EQ(entries.size(), 2u);
  std::vector<std::string> bodies;
  for (const SnapshotEntry& entry : entries) {
    QP_ASSERT_OK_AND_ASSIGN(
        std::string body,
        fs_.ReadFileRange("db/snap", entry.offset, entry.length));
    QP_EXPECT_OK(VerifyEntryBody(entry, body));
    bodies.push_back(std::move(body));
  }
  // Any flipped bit of julie's body fails her check, names her, and
  // leaves rob's body as good as it was.
  for (size_t bit = 0; bit < bodies[0].size() * 8; bit += 5) {
    std::string damaged = bodies[0];
    damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1 << (bit % 8)));
    Status status = VerifyEntryBody(entries[0], damaged);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << "bit " << bit;
    EXPECT_NE(status.message().find("julie"), std::string::npos) << status;
  }
  EXPECT_EQ(VerifyEntryBody(entries[0], bodies[0] + "x").code(),
            StatusCode::kParseError);
  QP_EXPECT_OK(VerifyEntryBody(entries[1], bodies[1]));
}

TEST_F(SnapshotTest, LoadFailsOnlyTheEntryWhoseBodyFailsItsChecksum) {
  uint64_t bytes = 0;
  uint32_t crc = 0;
  QP_ASSERT_OK(Write({{"julie", JulieProfile()}, {"rob", RobProfile()}},
                     &bytes, &crc));
  QP_ASSERT_OK_AND_ASSIGN(std::string content, fs_.ReadFile("db/snap"));
  // Rewrite julie's checksum field and re-seal the file: the file CRC
  // passes, julie's entry does not.
  const size_t header = content.find("user 5 ");
  ASSERT_NE(header, std::string::npos);
  const size_t field = content.find('\n', header) - 8;
  content[field] = content[field] == '0' ? '1' : '0';
  QP_ASSERT_OK(WriteFileAtomic(&fs_, "db/snap", content));
  QP_ASSERT_OK_AND_ASSIGN(
      auto loaded,
      LoadSnapshot(&fs_, "db/snap", content.size(), crc32c::Value(content)));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].user_id, "julie");
  EXPECT_EQ(loaded[0].profile.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded[0].profile.status().message().find("julie"),
            std::string::npos)
      << loaded[0].profile.status();
  ASSERT_TRUE(loaded[1].profile.ok()) << loaded[1].profile.status();
  EXPECT_TRUE(ProfilesEqual(*loaded[1].profile, RobProfile()));
}

TEST_F(SnapshotTest, CopiedBodyKeepsTheChecksumItWasWrittenWith) {
  uint64_t bytes = 0;
  uint32_t crc = 0;
  QP_ASSERT_OK(Write({{"julie", JulieProfile()}}, &bytes, &crc));
  QP_ASSERT_OK_AND_ASSIGN(auto entries,
                          IndexSnapshot(&fs_, "db/snap", bytes, crc));
  ASSERT_EQ(entries.size(), 1u);
  QP_ASSERT_OK_AND_ASSIGN(
      std::string body,
      fs_.ReadFileRange("db/snap", entries[0].offset, entries[0].length));
  body.back() = static_cast<char>(body.back() ^ 1);  // Rotted since.

  // Copied under its old checksum, the rotted body still fails its check
  // in a file whose own CRC is sound. Add would have computed a fresh
  // checksum over the rotted bytes and sealed them.
  SnapshotWriter writer(&fs_);
  QP_ASSERT_OK(writer.Open("db/copy", 1));
  QP_ASSERT_OK(writer.AddCopy(entries[0], body));
  QP_ASSERT_OK(writer.Finish(&bytes, &crc));
  const std::vector<SnapshotEntry> copied = writer.TakeEntries();
  ASSERT_EQ(copied.size(), 1u);
  EXPECT_EQ(copied[0].crc, entries[0].crc);
  QP_ASSERT_OK_AND_ASSIGN(auto loaded,
                          LoadSnapshot(&fs_, "db/copy", bytes, crc));
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].profile.status().code(), StatusCode::kParseError);
}

TEST_F(SnapshotTest, OlderSnapshotVersionsAreRefusedByName) {
  // A v1 snapshot (text bodies) and a v2 one (no entry checksums), each
  // with a valid size and checksum: the header names a format this
  // build does not read.
  std::string binary;
  EncodeProfile(JulieProfile(), &binary);
  const std::string text = "[ GENRE.genre='comedy', 1 ]\n";
  for (const auto& [version, body] :
       {std::pair<std::string, std::string>{"qp-snapshot v1", text},
        std::pair<std::string, std::string>{"qp-snapshot v2", binary}}) {
    const std::string old = version + "\ncount 1\nuser 5 " +
                            std::to_string(body.size()) + "\njulie\n" + body;
    QP_ASSERT_OK(WriteFileAtomic(&fs_, "db/snap", old));
    const uint32_t crc = crc32c::Value(old);
    auto loaded = LoadSnapshot(&fs_, "db/snap", old.size(), crc);
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << version;
    EXPECT_NE(loaded.status().message().find(version), std::string::npos)
        << loaded.status();
    EXPECT_EQ(IndexSnapshot(&fs_, "db/snap", old.size(), crc).status().code(),
              StatusCode::kParseError)
        << version;

    // Open fails the same way, with and without a hot budget.
    Manifest manifest;
    manifest.seqno = 1;
    manifest.snapshot_file = "snap";
    manifest.snapshot_bytes = old.size();
    manifest.snapshot_crc = crc;
    manifest.wal_file = WalFileName(2);
    QP_ASSERT_OK(WriteManifest(&fs_, "db", manifest));
    Schema schema = MovieSchema();
    for (size_t hot_capacity : {size_t{0}, size_t{1}}) {
      StorageOptions options;
      options.dir = "db";
      options.fs = &fs_;
      options.compact_threshold_bytes = 0;
      options.hot_capacity = hot_capacity;
      auto store = DurableProfileStore::Open(&schema, options);
      EXPECT_EQ(store.status().code(), StatusCode::kParseError)
          << version << ", hot_capacity " << hot_capacity;
      EXPECT_NE(store.status().message().find(version), std::string::npos)
          << store.status();
    }
  }
}

TEST_F(SnapshotTest, MissingSnapshotFileIsNotFound) {
  auto loaded = LoadSnapshot(&fs_, "db/absent", 10, 0);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace storage
}  // namespace qp
