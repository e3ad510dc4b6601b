// Bit-flip robustness property: for EVERY single-bit flip in a recorded
// WAL segment and in a snapshot file, opening the store must return a
// clean Status — never crash, never hang, never serve a silently-wrong
// state. A flipped WAL yields at worst a valid *prefix* of the recorded
// mutations (the CRC-framed log cuts at the damage); a flipped snapshot
// must fail the open outright (full-file CRC). CI runs this suite under
// ASan+UBSan, where any out-of-bounds parse of damaged bytes aborts.

#include <memory>
#include <string>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/storage/fault_injection.h"
#include "qp/storage/record.h"
#include "qp/storage/snapshot.h"
#include "qp/util/file.h"
#include "qp/util/status.h"

namespace qp {
namespace storage {
namespace {

/// The golden directory image: every file a storage dir can hold, byte
/// for byte, so each trial can rebuild a pristine filesystem and damage
/// exactly one bit.
struct DirImage {
  std::string manifest;
  std::string snapshot_name;  // Empty when no snapshot exists.
  std::string snapshot;
  std::string wal_name;
  std::string wal;
};

class BitflipRobustnessTest : public ::testing::Test {
 protected:
  BitflipRobustnessTest() : schema_(MovieSchema()) {}

  StorageOptions Options(FileSystem* fs) {
    StorageOptions options;
    options.dir = "db";
    options.fs = fs;
    options.compact_threshold_bytes = 0;
    return options;
  }

  /// Records a golden directory: three Puts of distinct users (and, when
  /// `with_snapshot`, a checkpoint before the last two).
  DirImage RecordGolden(bool with_snapshot) {
    FaultInjectingFileSystem fs;
    {
      auto store_or = DurableProfileStore::Open(&schema_, Options(&fs));
      EXPECT_TRUE(store_or.ok()) << store_or.status();
      auto store = std::move(store_or).value();
      EXPECT_TRUE(store->Put("u1", JulieProfile()).ok());
      if (with_snapshot) {
        EXPECT_TRUE(store->Checkpoint().ok());
      }
      EXPECT_TRUE(store->Put("u2", RobProfile()).ok());
      EXPECT_TRUE(store->Put("u3", SmallProfile()).ok());
      EXPECT_TRUE(store->Close().ok());
    }
    DirImage image;
    auto manifest_or = ReadManifest(&fs, "db");
    EXPECT_TRUE(manifest_or.ok()) << manifest_or.status();
    const Manifest manifest = std::move(manifest_or).value();
    image.manifest = MustRead(&fs, JoinPath("db", kManifestName));
    image.wal_name = manifest.wal_file;
    image.wal = MustRead(&fs, JoinPath("db", manifest.wal_file));
    if (!manifest.snapshot_file.empty()) {
      image.snapshot_name = manifest.snapshot_file;
      image.snapshot = MustRead(&fs, JoinPath("db", manifest.snapshot_file));
    }
    return image;
  }

  UserProfile SmallProfile() {
    UserProfile profile;
    profile.AddOrUpdate(AtomicPreference::Selection(
        AttributeRef{"GENRE", "genre"}, Value::Str("noir"), 0.4));
    return profile;
  }

  static std::string MustRead(FileSystem* fs, const std::string& path) {
    auto data = fs->ReadFile(path);
    EXPECT_TRUE(data.ok()) << path << ": " << data.status();
    return data.ok() ? std::move(data).value() : std::string();
  }

  static void WriteAll(FileSystem* fs, const std::string& path,
                       const std::string& data) {
    auto file_or = fs->NewWritableFile(path, /*truncate=*/true);
    ASSERT_TRUE(file_or.ok()) << file_or.status();
    auto file = std::move(file_or).value();
    ASSERT_TRUE(file->Append(data).ok());
    ASSERT_TRUE(file->Sync().ok());
    ASSERT_TRUE(file->Close().ok());
  }

  /// Builds a filesystem holding `image` with one bit of one file flipped.
  void BuildDamaged(FileSystem* fs, const DirImage& image,
                    const std::string& damaged_file, size_t bit) {
    ASSERT_TRUE(fs->CreateDir("db").ok());
    auto with_flip = [&](const std::string& name, const std::string& data) {
      std::string bytes = data;
      if (name == damaged_file) bytes[bit / 8] ^= char(1u << (bit % 8));
      WriteAll(fs, JoinPath("db", name), bytes);
    };
    with_flip(kManifestName, image.manifest);
    with_flip(image.wal_name, image.wal);
    if (!image.snapshot_name.empty()) {
      with_flip(image.snapshot_name, image.snapshot);
    }
  }

  /// True when the open store's contents are a prefix of the recorded
  /// mutation sequence: u1, then u2, then u3, each with its exact profile.
  bool IsExactPrefix(DurableProfileStore* store) {
    const std::vector<std::pair<std::string, UserProfile>> sequence = {
        {"u1", JulieProfile()}, {"u2", RobProfile()}, {"u3", SmallProfile()}};
    size_t present = 0;
    for (const auto& [user, profile] : sequence) {
      auto snapshot = store->Get(user);
      if (!snapshot.ok()) break;
      if (!ProfilesEqual(*snapshot.value().profile, profile)) return false;
      ++present;
    }
    // Nothing past the prefix may exist.
    for (size_t i = present; i < sequence.size(); ++i) {
      if (store->Get(sequence[i].first).ok()) return false;
    }
    return store->size() == present;
  }

  Schema schema_;
};

TEST_F(BitflipRobustnessTest, EveryWalBitFlipYieldsCleanPrefixOrError) {
  const DirImage image = RecordGolden(/*with_snapshot=*/false);
  ASSERT_GT(image.wal.size(), 0u);
  size_t opened_ok = 0;
  size_t rejected = 0;
  for (size_t bit = 0; bit < image.wal.size() * 8; ++bit) {
    FaultInjectingFileSystem fs;
    BuildDamaged(&fs, image, image.wal_name, bit);
    if (::testing::Test::HasFatalFailure()) return;
    auto store_or = DurableProfileStore::Open(&schema_, Options(&fs));
    if (!store_or.ok()) {
      ++rejected;  // A clean error is an acceptable outcome.
      continue;
    }
    ++opened_ok;
    auto store = std::move(store_or).value();
    EXPECT_TRUE(IsExactPrefix(store.get()))
        << "silently wrong state after flipping bit " << bit;
    if (::testing::Test::HasNonfatalFailure()) return;  // One repro is enough.
  }
  // Sanity: both outcomes occur (tail flips truncate, mid-log flips
  // reject), and the undamaged image opens with everything.
  EXPECT_GT(opened_ok, 0u);
  EXPECT_GT(rejected, 0u);
  FaultInjectingFileSystem fs;
  BuildDamaged(&fs, image, /*damaged_file=*/"", 0);
  auto store_or = DurableProfileStore::Open(&schema_, Options(&fs));
  ASSERT_TRUE(store_or.ok()) << store_or.status();
  EXPECT_EQ(std::move(store_or).value()->size(), 3u);
}

TEST_F(BitflipRobustnessTest, EverySnapshotBitFlipFailsTheOpenCleanly) {
  const DirImage image = RecordGolden(/*with_snapshot=*/true);
  ASSERT_FALSE(image.snapshot_name.empty());
  ASSERT_GT(image.snapshot.size(), 0u);
  for (size_t bit = 0; bit < image.snapshot.size() * 8; ++bit) {
    FaultInjectingFileSystem fs;
    BuildDamaged(&fs, image, image.snapshot_name, bit);
    if (::testing::Test::HasFatalFailure()) return;
    auto store_or = DurableProfileStore::Open(&schema_, Options(&fs));
    // The snapshot is covered end to end by the manifest's CRC: any
    // damage must fail the open — serving a half-true snapshot is the
    // one outcome durability can never allow.
    EXPECT_FALSE(store_or.ok()) << "bit " << bit << " went undetected";
    if (::testing::Test::HasNonfatalFailure()) return;
  }
}

TEST_F(BitflipRobustnessTest, EveryManifestBitFlipReturnsCleanly) {
  const DirImage image = RecordGolden(/*with_snapshot=*/true);
  for (size_t bit = 0; bit < image.manifest.size() * 8; ++bit) {
    FaultInjectingFileSystem fs;
    BuildDamaged(&fs, image, std::string(kManifestName), bit);
    if (::testing::Test::HasFatalFailure()) return;
    // The manifest is tiny and structured; a flip may redirect to a
    // missing file, break a field, or (rarely) survive parsing. The
    // property is purely "no crash, no hang, a Status either way" — and
    // if the open succeeds, the state must still be the full recording
    // or an exact prefix of it.
    auto store_or = DurableProfileStore::Open(&schema_, Options(&fs));
    if (store_or.ok()) {
      auto store = std::move(store_or).value();
      EXPECT_TRUE(IsExactPrefix(store.get()))
          << "silently wrong state after flipping manifest bit " << bit;
      if (::testing::Test::HasNonfatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace storage
}  // namespace qp
