// Randomized crash-recovery property suite — the durability subsystem's
// acceptance test. Hundreds of independent trials each run a random
// mutation sequence against a DurableProfileStore over the fault-
// injecting filesystem, kill it at a random point (torn writes, lost
// unsynced tails, failed fsyncs), recover, and check the contract:
//
//   the recovered state equals the reference state after some prefix
//   R of the logged mutations, with R >= the last synced seqno at the
//   moment of the crash; a torn final record is truncated silently;
//   a corrupted record in the *middle* of the log fails the open.
//
// The reference is an independent in-test replica of the mutation
// semantics (plain std::map, no shared code with the store). It checks
// the store's one mutation path in all three shapes: every trial's
// durable store, with a hot budget that evicts (two profiles hot out of
// five users) in one trial in three and without one otherwise, and an
// in-memory store fed the same mutations, which skips the crash step.
//
// Run under -DQP_SANITIZE=address / thread via tests/run_sanitized.sh to
// also prove memory- and race-safety of the recovery paths.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/storage/fault_injection.h"
#include "qp/storage/record.h"
#include "qp/storage/snapshot.h"
#include "qp/storage/wal.h"
#include "qp/util/random.h"

namespace qp {
namespace storage {
namespace {

using ReferenceState = std::map<std::string, UserProfile>;

// Degrees on a dyadic grid round-trip bit-exactly through the snapshot's
// text profile format (see record_fuzz_test), so reference comparison
// can demand exact equality.
double GridDoi(Rng* rng) {
  return static_cast<double>(1 + rng->Below(16)) / 16.0;
}

AtomicPreference RandomGridPreference(Rng* rng) {
  switch (rng->Below(4)) {
    case 0:
      return AtomicPreference::Selection(
          AttributeRef{"GENRE", "genre"},
          Value::Str("g" + std::to_string(rng->Below(8))), GridDoi(rng));
    case 1:
      return AtomicPreference::Selection(
          AttributeRef{"MOVIE", "year"},
          Value::Int(static_cast<int64_t>(1990 + rng->Below(20))),
          GridDoi(rng));
    case 2:
      return AtomicPreference::Join(AttributeRef{"PLAY", "mid"},
                                    AttributeRef{"MOVIE", "mid"},
                                    GridDoi(rng));
    default:
      return AtomicPreference::NearSelection(
          AttributeRef{"MOVIE", "year"},
          Value::Int(static_cast<int64_t>(1995 + rng->Below(10))),
          /*width=*/static_cast<double>(1 + rng->Below(8)), GridDoi(rng));
  }
}

UserProfile RandomGridProfile(Rng* rng) {
  UserProfile profile;
  size_t n = 1 + rng->Below(4);
  for (size_t i = 0; i < n; ++i) {
    profile.AddOrUpdate(RandomGridPreference(rng));
  }
  return profile;
}

bool StatesEqual(const ReferenceState& reference,
                 const std::vector<std::pair<std::string, ProfileSnapshot>>&
                     recovered) {
  if (reference.size() != recovered.size()) return false;
  for (const auto& [user_id, snapshot] : recovered) {
    auto it = reference.find(user_id);
    if (it == reference.end()) return false;
    if (!ProfilesEqual(*snapshot.profile, it->second)) return false;
  }
  return true;
}

class CrashRecoveryPropertyTest : public ::testing::Test {
 protected:
  // One full trial; returns false (after ADD_FAILURE) on contract
  // violation so the caller can abort early with the seed in hand.
  bool RunTrial(uint64_t seed) {
    Rng rng(seed);
    FaultInjectingFileSystem fs;
    Schema schema = MovieSchema();

    StorageOptions options;
    options.dir = "db";
    options.fs = &fs;
    options.compact_threshold_bytes = 0;  // Only explicit checkpoints.
    options.wal.fsync =
        rng.Below(2) == 0 ? FsyncPolicy::kEveryRecord : FsyncPolicy::kNever;
    // Every durable store runs the tier; the split separates a budget
    // that evicts (a third of the seeds) from no budget at all.
    if (seed % 3 == 0) options.hot_capacity = 2;
    DurableProfileStore memory(&schema);

    auto store_or = DurableProfileStore::Open(&schema, options);
    if (!store_or.ok()) {
      ADD_FAILURE() << "seed " << seed << ": open failed: "
                    << store_or.status();
      return false;
    }
    auto store = std::move(store_or).value();

    // states[i] == reference after the i-th logged mutation; seqnos are
    // dense from 1, so states[i] is the state a recovery to seqno i must
    // reproduce.
    std::vector<ReferenceState> states;
    states.push_back({});
    ReferenceState current;
    const std::vector<std::string> users = {"u0", "u1", "u2", "u3", "u4"};

    size_t num_ops = 1 + rng.Below(25);
    for (size_t op = 0; op < num_ops; ++op) {
      const std::string& user = users[rng.Below(users.size())];
      uint64_t action = rng.Below(10);
      if (action < 5) {
        UserProfile profile = RandomGridProfile(&rng);
        Status status = store->Put(user, profile);
        if (status.ok()) status = memory.Put(user, profile);
        if (!status.ok()) {
          ADD_FAILURE() << "seed " << seed << ": put failed: " << status;
          return false;
        }
        current[user] = std::move(profile);
        states.push_back(current);
      } else if (action < 8) {
        std::vector<AtomicPreference> prefs;
        size_t n = 1 + rng.Below(2);
        for (size_t i = 0; i < n; ++i) {
          prefs.push_back(RandomGridPreference(&rng));
        }
        Status status = store->Upsert(user, prefs);
        if (status.ok()) status = memory.Upsert(user, prefs);
        if (!status.ok()) {
          ADD_FAILURE() << "seed " << seed << ": upsert failed: " << status;
          return false;
        }
        UserProfile& merged = current[user];
        for (const AtomicPreference& pref : prefs) merged.AddOrUpdate(pref);
        states.push_back(current);
      } else {
        Status status = store->Remove(user);
        if (memory.Remove(user).code() != status.code()) {
          ADD_FAILURE() << "seed " << seed << ": in-memory remove disagrees";
          return false;
        }
        if (status.ok()) {
          current.erase(user);
          states.push_back(current);
        } else if (status.code() != StatusCode::kNotFound) {
          ADD_FAILURE() << "seed " << seed << ": remove failed: " << status;
          return false;
        }
        // NotFound: nothing was logged, the reference does not advance.
      }

      if (rng.Below(10) == 0) {
        Status status = store->Sync();
        if (!status.ok()) {
          ADD_FAILURE() << "seed " << seed << ": sync failed: " << status;
          return false;
        }
      }
      if (rng.Below(12) == 0) {
        Status status = store->Checkpoint();
        if (!status.ok()) {
          ADD_FAILURE() << "seed " << seed << ": checkpoint failed: "
                        << status;
          return false;
        }
      }
    }

    if (!StatesEqual(current, memory.All())) {
      ADD_FAILURE() << "seed " << seed << ": in-memory store diverged";
      return false;
    }

    // Optionally end the run with an injected I/O fault: a short write
    // (torn append) or a failing fsync. Both leave the writer in its
    // sticky-error state; the already-acknowledged prefix must survive.
    // A mutation refused because of the fault was never acknowledged,
    // but its record may still be complete in the (unsynced) file — a
    // recovery that replays it is correct too, so it lands in
    // `unacked_tail` rather than `states`.
    std::vector<ReferenceState> unacked_tail;
    uint64_t fault = rng.Below(8);
    if (fault <= 1) {
      if (fault == 0) {
        // Arms the *initial* segment name; if a checkpoint renamed the
        // live segment the injection is simply never consumed and the
        // put below succeeds like any other.
        fs.InjectShortWrite(JoinPath("db", WalFileName(1)), rng.Below(12));
      } else {
        fs.SetSyncFailure(true);
      }
      UserProfile profile = RandomGridProfile(&rng);
      Status status = store->Put("u0", profile);
      fs.SetSyncFailure(false);
      if (status.ok()) {
        current["u0"] = std::move(profile);
        states.push_back(current);
      } else if (fault == 1) {
        // Failed fsync: the frame reached the file intact before the
        // sync failed, so recovery may serve it.
        ReferenceState extra = current;
        extra["u0"] = std::move(profile);
        unacked_tail.push_back(std::move(extra));
      }
      // fault == 0 with a consumed injection leaves only a torn
      // fragment, which recovery must drop — nothing to record.
    }

    const uint64_t synced_floor = store->storage_stats().last_synced_seqno;
    const uint64_t total = states.size() - 1;
    const uint64_t max_r = total + unacked_tail.size();

    // Die. Clean close, machine crash with torn tails, or process crash
    // with the page cache surviving.
    uint64_t death = rng.Below(3);
    bool clean = death == 0;
    if (clean) {
      Status status = store->Close();
      // A clean close after an injected fault may legitimately report
      // the sticky error; the directory must still recover.
      if (!status.ok() && fault > 1) {
        ADD_FAILURE() << "seed " << seed << ": close failed: " << status;
        return false;
      }
    } else if (death == 1) {
      fs.Crash(&rng);
    } else {
      fs.CrashKeepingUnsynced();
    }
    store.reset();  // Destructor must cope with the dead filesystem.

    // Recover.
    auto recovered_or = DurableProfileStore::Open(&schema, options);
    if (!recovered_or.ok()) {
      ADD_FAILURE() << "seed " << seed
                    << ": recovery failed: " << recovered_or.status();
      return false;
    }
    auto recovered = std::move(recovered_or).value();
    auto recovered_state = recovered->All();

    // Pin down the exact recovery point R: the next append gets R + 1.
    Status probe = recovered->Put("probe", RandomGridProfile(&rng));
    if (!probe.ok()) {
      ADD_FAILURE() << "seed " << seed
                    << ": recovered store rejects writes: " << probe;
      return false;
    }
    const uint64_t r = recovered->storage_stats().last_appended_seqno - 1;

    if (r < synced_floor || r > max_r) {
      ADD_FAILURE() << "seed " << seed << ": recovered to seqno " << r
                    << ", outside [synced=" << synced_floor
                    << ", max=" << max_r << "]";
      return false;
    }
    if (clean && fault > 1 && r != total) {
      ADD_FAILURE() << "seed " << seed << ": clean close lost records ("
                    << r << " of " << total << ")";
      return false;
    }
    const ReferenceState& expected =
        r <= total ? states[r] : unacked_tail[r - total - 1];
    if (!StatesEqual(expected, recovered_state)) {
      ADD_FAILURE() << "seed " << seed << ": recovered state at seqno " << r
                    << " does not match the reference ("
                    << recovered_state.size() << " users vs "
                    << expected.size() << ")";
      return false;
    }
    return true;
  }
};

TEST_F(CrashRecoveryPropertyTest, FiveHundredTwentyRandomCrashes) {
  for (uint64_t seed = 1; seed <= 520; ++seed) {
    if (!RunTrial(seed)) {
      FAIL() << "crash-recovery contract violated at seed " << seed;
    }
  }
}

TEST_F(CrashRecoveryPropertyTest, MidLogBitFlipsFailTheOpen) {
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed * 7919);
    FaultInjectingFileSystem fs;
    Schema schema = MovieSchema();
    StorageOptions options;
    options.dir = "db";
    options.fs = &fs;
    options.compact_threshold_bytes = 0;

    size_t num_records = 2 + rng.Below(10);
    {
      auto store_or = DurableProfileStore::Open(&schema, options);
      ASSERT_TRUE(store_or.ok()) << store_or.status();
      for (size_t i = 0; i < num_records; ++i) {
        QP_ASSERT_OK((*store_or)->Put("u" + std::to_string(i % 4),
                                      RandomGridProfile(&rng)));
      }
      QP_ASSERT_OK((*store_or)->Close());
    }

    // Frame boundaries, via the reader itself.
    const std::string wal_path = JoinPath("db", WalFileName(1));
    QP_ASSERT_OK_AND_ASSIGN(std::string log, fs.ReadFile(wal_path));
    std::vector<size_t> frame_ends;
    WalReader reader(log, 1);
    for (;;) {
      WalRecord record;
      bool has_record = false;
      QP_ASSERT_OK(reader.Next(&record, &has_record));
      if (!has_record) break;
      frame_ends.push_back(reader.valid_bytes());
    }
    ASSERT_EQ(frame_ends.size(), num_records);

    // Flip one bit inside the *body* of a non-final record (the frame
    // header's length field is uncovered by the CRC — the standard
    // limitation of length-prefixed logs). Valid records follow, so the
    // open must refuse to serve a store with a hole in its history.
    size_t victim = rng.Below(num_records - 1);
    size_t begin = (victim == 0 ? 0 : frame_ends[victim - 1]) + 8;
    size_t offset = begin + rng.Below(frame_ends[victim] - begin);
    QP_ASSERT_OK(fs.FlipBit(wal_path, offset, static_cast<int>(rng.Below(8))));

    auto reopened = DurableProfileStore::Open(&schema, options);
    ASSERT_FALSE(reopened.ok()) << "seed " << seed << ": bit flip at "
                                << offset << " went undetected";
    EXPECT_EQ(reopened.status().code(), StatusCode::kParseError)
        << "seed " << seed;
  }
}

TEST_F(CrashRecoveryPropertyTest, FinalRecordBitFlipsAreTruncated) {
  // Damage to the very last record is indistinguishable from a torn
  // append, so recovery drops that record and serves the prefix.
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    Rng rng(seed * 104729);
    FaultInjectingFileSystem fs;
    Schema schema = MovieSchema();
    StorageOptions options;
    options.dir = "db";
    options.fs = &fs;
    options.compact_threshold_bytes = 0;

    size_t num_records = 2 + rng.Below(6);
    std::vector<ReferenceState> states;
    states.push_back({});
    ReferenceState current;
    {
      auto store_or = DurableProfileStore::Open(&schema, options);
      ASSERT_TRUE(store_or.ok()) << store_or.status();
      for (size_t i = 0; i < num_records; ++i) {
        std::string user = "u" + std::to_string(i % 3);
        UserProfile profile = RandomGridProfile(&rng);
        QP_ASSERT_OK((*store_or)->Put(user, profile));
        current[user] = std::move(profile);
        states.push_back(current);
      }
      QP_ASSERT_OK((*store_or)->Close());
    }

    const std::string wal_path = JoinPath("db", WalFileName(1));
    QP_ASSERT_OK_AND_ASSIGN(std::string log, fs.ReadFile(wal_path));
    std::vector<size_t> frame_ends;
    WalReader reader(log, 1);
    for (;;) {
      WalRecord record;
      bool has_record = false;
      QP_ASSERT_OK(reader.Next(&record, &has_record));
      if (!has_record) break;
      frame_ends.push_back(reader.valid_bytes());
    }
    ASSERT_EQ(frame_ends.size(), num_records);

    size_t begin = frame_ends[num_records - 2] + 8;
    size_t offset = begin + rng.Below(frame_ends.back() - begin);
    QP_ASSERT_OK(fs.FlipBit(wal_path, offset, static_cast<int>(rng.Below(8))));

    auto reopened = DurableProfileStore::Open(&schema, options);
    ASSERT_TRUE(reopened.ok()) << "seed " << seed << ": "
                               << reopened.status();
    EXPECT_GT((*reopened)->storage_stats().torn_bytes_truncated, 0u)
        << "seed " << seed;
    EXPECT_TRUE(StatesEqual(states[num_records - 1], (*reopened)->All()))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace storage
}  // namespace qp
