// DurableProfileStore tests: write-through logging, recovery across
// reopen, checkpointing, torn-tail truncation, mid-log corruption
// detection, Remove/epoch semantics and concurrent mutators (run under
// -DQP_SANITIZE=thread to prove data-race freedom).

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/graph/personalization_graph.h"
#include "qp/service/service.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/storage/fault_injection.h"
#include "qp/storage/record.h"
#include "qp/storage/snapshot.h"

namespace qp {
namespace storage {
namespace {

class DurableStoreTest : public ::testing::Test {
 protected:
  DurableStoreTest() : schema_(MovieSchema()) {}

  StorageOptions Options() {
    StorageOptions options;
    options.dir = "db";
    options.fs = &fs_;
    options.compact_threshold_bytes = 0;
    return options;
  }

  std::unique_ptr<DurableProfileStore> MustOpen(StorageOptions options) {
    auto store_or = DurableProfileStore::Open(&schema_, std::move(options));
    EXPECT_TRUE(store_or.ok()) << store_or.status();
    return store_or.ok() ? std::move(store_or).value() : nullptr;
  }

  std::string WalPath(uint64_t first_seqno) {
    return JoinPath("db", WalFileName(first_seqno));
  }

  Schema schema_;
  FaultInjectingFileSystem fs_;
};

TEST_F(DurableStoreTest, InMemoryPassThrough) {
  DurableProfileStore store(&schema_);
  EXPECT_FALSE(store.durable());
  QP_ASSERT_OK(store.Put("julie", JulieProfile()));
  QP_ASSERT_OK(store.Remove("julie"));
  EXPECT_EQ(store.Remove("julie").code(), StatusCode::kNotFound);
  EXPECT_FALSE(store.Checkpoint().ok());  // Nothing to checkpoint into.
  QP_ASSERT_OK(store.Sync());

  StorageStats stats = store.storage_stats();
  EXPECT_FALSE(stats.durable);
  EXPECT_EQ(stats.records_appended, 0u);
}

TEST_F(DurableStoreTest, FreshDirectoryIsInitialized) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(store->durable());
  EXPECT_TRUE(fs_.Exists("db/MANIFEST"));
  EXPECT_TRUE(fs_.Exists(WalPath(1)));
  EXPECT_EQ(store->size(), 0u);

  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  QP_ASSERT_OK(store->Put("rob", RobProfile()));
  StorageStats stats = store->storage_stats();
  EXPECT_TRUE(stats.durable);
  EXPECT_EQ(stats.records_appended, 2u);
  EXPECT_EQ(stats.last_appended_seqno, 2u);
  EXPECT_EQ(stats.last_synced_seqno, 2u);  // kEveryRecord default.
  EXPECT_GT(stats.wal_segment_bytes, 0u);
}

TEST_F(DurableStoreTest, ReopenRecoversAllMutationKinds) {
  UserProfile expected_julie = JulieProfile();
  AtomicPreference extra = AtomicPreference::Selection(
      AttributeRef{"GENRE", "genre"}, Value::Str("western"), 0.25);
  expected_julie.AddOrUpdate(extra);

  {
    auto store = MustOpen(Options());
    ASSERT_NE(store, nullptr);
    QP_ASSERT_OK(store->Put("julie", JulieProfile()));
    QP_ASSERT_OK(store->Put("rob", RobProfile()));
    QP_ASSERT_OK(store->Upsert("julie", {extra}));
    QP_ASSERT_OK(store->Remove("rob"));
    QP_ASSERT_OK(store->Close());
  }

  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), 1u);
  EXPECT_FALSE(store->Get("rob").ok());
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot julie, store->Get("julie"));
  EXPECT_TRUE(ProfilesEqual(*julie.profile, expected_julie));

  StorageStats stats = store->storage_stats();
  EXPECT_EQ(stats.records_replayed, 4u);
  EXPECT_EQ(stats.snapshot_users_loaded, 0u);
  EXPECT_EQ(stats.torn_bytes_truncated, 0u);
  EXPECT_GE(stats.recovery_millis, 0.0);

  // The recovered store continues the sequence instead of reusing it.
  QP_ASSERT_OK(store->Put("alice", RobProfile()));
  EXPECT_EQ(store->storage_stats().last_appended_seqno, 5u);
}

TEST_F(DurableStoreTest, CheckpointTruncatesTheWal) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  QP_ASSERT_OK(store->Put("rob", RobProfile()));
  EXPECT_GT(store->storage_stats().wal_segment_bytes, 0u);

  QP_ASSERT_OK(store->Checkpoint());
  StorageStats stats = store->storage_stats();
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_EQ(stats.wal_segment_bytes, 0u);  // Fresh segment.
  // Old generation files are gone, new ones exist.
  EXPECT_FALSE(fs_.Exists(WalPath(1)));
  EXPECT_TRUE(fs_.Exists(WalPath(3)));
  EXPECT_TRUE(fs_.Exists(JoinPath("db", SnapshotFileName(2))));

  // A second checkpoint with nothing new is a no-op.
  QP_ASSERT_OK(store->Checkpoint());
  EXPECT_EQ(store->storage_stats().checkpoints, 1u);

  QP_ASSERT_OK(store->Put("alice", JulieProfile()));
  QP_ASSERT_OK(store->Close());

  // Recovery = snapshot + WAL tail.
  auto reopened = MustOpen(Options());
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->size(), 3u);
  StorageStats recovered = reopened->storage_stats();
  EXPECT_EQ(recovered.snapshot_users_loaded, 2u);
  EXPECT_EQ(recovered.records_replayed, 1u);
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot julie, reopened->Get("julie"));
  EXPECT_TRUE(ProfilesEqual(*julie.profile, JulieProfile()));
}

TEST_F(DurableStoreTest, TornFinalRecordIsSilentlyTruncated) {
  {
    auto store = MustOpen(Options());
    ASSERT_NE(store, nullptr);
    QP_ASSERT_OK(store->Put("julie", JulieProfile()));
    // The next append persists only 5 bytes — a crash mid-write. The
    // writer reports the failure and refuses further appends.
    fs_.InjectShortWrite(WalPath(1), 5);
    EXPECT_FALSE(store->Put("rob", RobProfile()).ok());
    EXPECT_FALSE(store->Put("again", RobProfile()).ok());
  }

  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), 1u);
  QP_ASSERT_OK(store->Get("julie").status());
  StorageStats stats = store->storage_stats();
  EXPECT_EQ(stats.records_replayed, 1u);
  EXPECT_EQ(stats.torn_bytes_truncated, 5u);

  // Recovery rewrote the segment without the torn fragment, so a second
  // recovery is clean.
  QP_ASSERT_OK(store->Put("rob", RobProfile()));
  QP_ASSERT_OK(store->Close());
  auto again = MustOpen(Options());
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->size(), 2u);
  EXPECT_EQ(again->storage_stats().torn_bytes_truncated, 0u);
}

TEST_F(DurableStoreTest, FailedRecoveryNeverLosesDurableRecords) {
  {
    auto store = MustOpen(Options());
    ASSERT_NE(store, nullptr);
    QP_ASSERT_OK(store->Put("julie", JulieProfile()));
    QP_ASSERT_OK(store->Put("rob", RobProfile()));
    QP_ASSERT_OK(store->Close());
  }
  // A torn tail whose garbage made it to the platter before the crash.
  {
    auto file_or = fs_.NewWritableFile(WalPath(1), /*truncate=*/false);
    QP_ASSERT_OK(file_or.status());
    QP_ASSERT_OK((*file_or)->Append("torn"));
    QP_ASSERT_OK((*file_or)->Sync());
    QP_ASSERT_OK((*file_or)->Close());
  }
  QP_ASSERT_OK_AND_ASSIGN(size_t synced_before, fs_.SyncedSize(WalPath(1)));
  QP_ASSERT_OK_AND_ASSIGN(std::string content_before,
                          fs_.ReadFile(WalPath(1)));

  // Recovery drops the torn tail via temp file + rename; with fsync
  // failing, the open fails *without* having touched the segment — the
  // durable copy of every acknowledged record survives for a retry.
  fs_.SetSyncFailure(true);
  EXPECT_FALSE(DurableProfileStore::Open(&schema_, Options()).ok());
  QP_ASSERT_OK_AND_ASSIGN(size_t synced_after, fs_.SyncedSize(WalPath(1)));
  EXPECT_EQ(synced_after, synced_before);
  QP_ASSERT_OK_AND_ASSIGN(std::string content_after,
                          fs_.ReadFile(WalPath(1)));
  EXPECT_EQ(content_after, content_before);

  fs_.SetSyncFailure(false);
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(store->storage_stats().torn_bytes_truncated, 4u);
}

TEST_F(DurableStoreTest, CheckpointFailureIsRecordedAndClears) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  QP_ASSERT_OK(store->Put("rob", RobProfile()));

  // The snapshot write fails (disk full, say); the WAL is untouched, so
  // the store keeps serving and logging on the old generation, and the
  // failure is visible in the stats instead of vanishing.
  fs_.InjectShortWrite(JoinPath("db", SnapshotFileName(2)), 0);
  EXPECT_FALSE(store->Checkpoint().ok());
  StorageStats stats = store->storage_stats();
  EXPECT_EQ(stats.checkpoints, 0u);
  EXPECT_EQ(stats.failed_checkpoints, 1u);
  EXPECT_FALSE(stats.last_checkpoint_error.empty());

  // Still writable, and the next successful checkpoint clears the error.
  QP_ASSERT_OK(store->Put("alice", JulieProfile()));
  QP_ASSERT_OK(store->Checkpoint());
  stats = store->storage_stats();
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_EQ(stats.failed_checkpoints, 1u);
  EXPECT_TRUE(stats.last_checkpoint_error.empty());
}

TEST_F(DurableStoreTest, MidLogCorruptionFailsTheOpen) {
  {
    auto store = MustOpen(Options());
    ASSERT_NE(store, nullptr);
    QP_ASSERT_OK(store->Put("julie", JulieProfile()));
    QP_ASSERT_OK(store->Put("rob", RobProfile()));
    QP_ASSERT_OK(store->Close());
  }
  // Flip a bit inside record 1's body (offset 12 = start of its seqno).
  // Valid data follows, so this is corruption, not a torn tail.
  QP_ASSERT_OK(fs_.FlipBit(WalPath(1), 12, 0));

  auto store_or = DurableProfileStore::Open(&schema_, Options());
  ASSERT_FALSE(store_or.ok());
  EXPECT_EQ(store_or.status().code(), StatusCode::kParseError);
}

TEST_F(DurableStoreTest, CorruptSnapshotFailsTheOpen) {
  {
    auto store = MustOpen(Options());
    ASSERT_NE(store, nullptr);
    QP_ASSERT_OK(store->Put("julie", JulieProfile()));
    QP_ASSERT_OK(store->Checkpoint());
    QP_ASSERT_OK(store->Close());
  }
  QP_ASSERT_OK(fs_.FlipBit(JoinPath("db", SnapshotFileName(1)), 20, 4));
  auto store_or = DurableProfileStore::Open(&schema_, Options());
  ASSERT_FALSE(store_or.ok());
  EXPECT_EQ(store_or.status().code(), StatusCode::kParseError);
}

TEST_F(DurableStoreTest, RemoveSemantics) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->Remove("ghost").code(), StatusCode::kNotFound);
  // A failed remove must not pollute the log.
  EXPECT_EQ(store->storage_stats().records_appended, 0u);

  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  QP_ASSERT_OK(store->Remove("julie"));
  EXPECT_EQ(store->Remove("julie").code(), StatusCode::kNotFound);
  EXPECT_EQ(store->storage_stats().records_appended, 2u);
}

TEST_F(DurableStoreTest, RemoveThenReinsertNeverReusesAnEpoch) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot before, store->Get("julie"));
  QP_ASSERT_OK(store->Remove("julie"));
  QP_ASSERT_OK(store->Put("julie", RobProfile()));
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot after, store->Get("julie"));
  EXPECT_GT(after.epoch, before.epoch);
}

TEST_F(DurableStoreTest, ValidationHappensBeforeLogging) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);

  UserProfile bad;
  QP_ASSERT_OK(bad.Add(AtomicPreference::Selection(
      AttributeRef{"NO_SUCH_TABLE", "x"}, Value::Str("y"), 0.5)));
  EXPECT_FALSE(store->Put("u", bad).ok());
  EXPECT_FALSE(store
                   ->Upsert("u", {AtomicPreference::Selection(
                                     AttributeRef{"NO_SUCH_TABLE", "x"},
                                     Value::Str("y"), 0.5)})
                   .ok());
  // The rejected mutations never reached the WAL.
  EXPECT_EQ(store->storage_stats().records_appended, 0u);
  QP_ASSERT_OK(store->Close());

  auto reopened = MustOpen(Options());
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->size(), 0u);
}

TEST_F(DurableStoreTest, CloseBlocksMutationsButNotReads) {
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK(store->Put("julie", JulieProfile()));
  QP_ASSERT_OK(store->Close());
  QP_ASSERT_OK(store->Close());  // Idempotent.
  EXPECT_FALSE(store->Put("rob", RobProfile()).ok());
  EXPECT_FALSE(store->Sync().ok());
  QP_ASSERT_OK(store->Get("julie").status());  // Reads keep working.
}

TEST_F(DurableStoreTest, UnsyncedMutationsMayVanishUnderPolicyNever) {
  StorageOptions options = Options();
  options.wal.fsync = FsyncPolicy::kNever;
  {
    auto store = MustOpen(options);
    ASSERT_NE(store, nullptr);
    QP_ASSERT_OK(store->Put("julie", JulieProfile()));
    QP_ASSERT_OK(store->Sync());  // julie is durable.
    QP_ASSERT_OK(store->Put("rob", RobProfile()));  // rob is not.
    EXPECT_EQ(store->storage_stats().last_synced_seqno, 1u);
    Rng rng(3);
    fs_.Crash(&rng);  // No Close: the process just died.
  }

  auto store = MustOpen(options);
  ASSERT_NE(store, nullptr);
  // julie must have survived; rob may or may not have (his record was
  // never synced), but recovery itself must succeed.
  QP_ASSERT_OK(store->Get("julie").status());
  EXPECT_GE(store->storage_stats().records_replayed, 1u);
}

TEST_F(DurableStoreTest, BackgroundCompactionKicksInPastTheThreshold) {
  StorageOptions options = Options();
  options.compact_threshold_bytes = 256;  // Tiny: every few puts compact.
  auto store = MustOpen(options);
  ASSERT_NE(store, nullptr);

  for (int i = 0; i < 20; ++i) {
    QP_ASSERT_OK(store->Put("user" + std::to_string(i), JulieProfile()));
  }
  // The compactor runs asynchronously; give it a bounded moment.
  for (int wait = 0; wait < 2000; ++wait) {
    if (store->storage_stats().checkpoints > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(store->storage_stats().checkpoints, 0u);
  QP_ASSERT_OK(store->Close());

  auto reopened = MustOpen(options);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->size(), 20u);
}

TEST_F(DurableStoreTest, ConcurrentMutatorsThenRecovery) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 60;
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      store->All();
      store->Get("t0-u1");
      store->storage_stats();
    }
  });

  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Each thread owns a disjoint user set, so log order per user is
      // well defined and the final state is deterministic.
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string user = "t" + std::to_string(t) + "-u" +
                           std::to_string(i % 5);
        Status status;
        switch (i % 3) {
          case 0:
            status = store->Put(user, JulieProfile());
            break;
          case 1:
            status = store->Upsert(
                user, {AtomicPreference::Selection(
                          AttributeRef{"GENRE", "genre"},
                          Value::Str("g" + std::to_string(i)), 0.5)});
            break;
          default:
            status = store->Remove(user);
            if (status.code() == StatusCode::kNotFound) status = Status::Ok();
            break;
        }
        if (!status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(failures.load(), 0);

  // Snapshot the final in-memory state, recover, and compare.
  std::map<std::string, UserProfile> expected;
  for (auto& [user_id, snapshot] : store->All()) {
    expected.emplace(user_id, *snapshot.profile);
  }
  QP_ASSERT_OK(store->Close());

  auto recovered = MustOpen(Options());
  ASSERT_NE(recovered, nullptr);
  auto all = recovered->All();
  ASSERT_EQ(all.size(), expected.size());
  for (auto& [user_id, snapshot] : all) {
    auto it = expected.find(user_id);
    ASSERT_NE(it, expected.end()) << user_id;
    EXPECT_TRUE(ProfilesEqual(*snapshot.profile, it->second)) << user_id;
  }
}

TEST_F(DurableStoreTest, TypedLiteralsSurviveCheckpointAndReopen) {
  // A negative int literal and an integral double on a DOUBLE column:
  // every acknowledged profile must reopen type-exactly and build its
  // graph, through a cold load of a checkpointed body with and without a
  // hot budget alike.
  Schema schema;
  QP_ASSERT_OK(schema.AddTable(TableSchema(
      "T", {{"a", DataType::kInt64}, {"b", DataType::kDouble}}, {})));
  UserProfile typed;
  QP_ASSERT_OK(typed.Add(
      AtomicPreference::Selection({"T", "a"}, Value::Int(-5), 0.5)));
  QP_ASSERT_OK(typed.Add(
      AtomicPreference::Selection({"T", "b"}, Value::Real(7.0), -0.75)));
  UserProfile other;
  QP_ASSERT_OK(other.Add(
      AtomicPreference::Selection({"T", "b"}, Value::Real(-0.0), 0.25)));

  for (size_t hot_capacity : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE("hot_capacity " + std::to_string(hot_capacity));
    FaultInjectingFileSystem fs;
    StorageOptions options;
    options.dir = "db";
    options.fs = &fs;
    options.compact_threshold_bytes = 0;
    options.hot_capacity = hot_capacity;
    {
      auto store_or = DurableProfileStore::Open(&schema, options);
      QP_ASSERT_OK(store_or.status());
      auto store = std::move(store_or).value();
      QP_ASSERT_OK(store->Put("typed", typed));
      QP_ASSERT_OK(store->Put("other", other));  // Budget 1: "typed" is cold.
      QP_ASSERT_OK(store->Checkpoint());
      QP_ASSERT_OK(store->Close());
    }
    auto store_or = DurableProfileStore::Open(&schema, options);
    QP_ASSERT_OK(store_or.status());
    auto store = std::move(store_or).value();
    for (const auto& [user, expected] :
         {std::pair<const char*, const UserProfile*>{"typed", &typed},
          {"other", &other}}) {
      auto snapshot = store->Get(user);
      ASSERT_TRUE(snapshot.ok()) << user << ": " << snapshot.status();
      EXPECT_TRUE(ProfilesEqual(*snapshot->profile, *expected)) << user;
      QP_EXPECT_OK(
          PersonalizationGraph::Build(&schema, *snapshot->profile).status());
    }
  }
}

TEST_F(DurableStoreTest, UpsertRefusesDegreesAReloadRefuses) {
  // Each of these would be acknowledged and checkpointed, after which no
  // reopen could load the profile: the store refuses it before the WAL.
  auto near = [](Value target, double width) {
    return AtomicPreference::NearSelection({"MOVIE", "year"},
                                           std::move(target), width, 0.5);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<AtomicPreference> refused = {
      AtomicPreference::Selection({"GENRE", "genre"}, Value::Str("noir"), 0.0),
      AtomicPreference::Selection({"GENRE", "genre"}, Value::Str("noir"), 1.5),
      AtomicPreference::Selection({"GENRE", "genre"}, Value::Str("noir"),
                                  -3.0),
      AtomicPreference::Selection({"GENRE", "genre"}, Value::Str("noir"),
                                  std::numeric_limits<double>::quiet_NaN()),
      AtomicPreference::Join({"PLAY", "mid"}, {"MOVIE", "mid"}, -0.5),
      near(Value::Real(kInf), 5.0),
      near(Value::Real(std::numeric_limits<double>::quiet_NaN()), 5.0),
      near(Value::Int(2000), kInf),
  };
  {
    auto store = MustOpen(Options());
    ASSERT_NE(store, nullptr);
    QP_ASSERT_OK(store->Put("julie", JulieProfile()));
    for (const AtomicPreference& pref : refused) {
      EXPECT_EQ(store->Upsert("julie", {pref}).code(),
                StatusCode::kInvalidArgument)
          << pref.ToString();
      EXPECT_EQ(store->Upsert("newcomer", {pref}).code(),
                StatusCode::kInvalidArgument)
          << pref.ToString();
    }
    EXPECT_EQ(store->storage_stats().records_appended, 1u);
    QP_ASSERT_OK(store->Checkpoint());
    QP_ASSERT_OK(store->Close());
  }
  auto store = MustOpen(Options());
  ASSERT_NE(store, nullptr);
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot julie, store->Get("julie"));
  EXPECT_TRUE(ProfilesEqual(*julie.profile, JulieProfile()));
  EXPECT_FALSE(store->Get("newcomer").ok());
}

TEST_F(DurableStoreTest, ServiceIntegration) {
  QP_ASSERT_OK_AND_ASSIGN(Database db, BuildPaperDatabase());

  ServiceOptions options;
  options.num_workers = 2;
  options.storage.dir = "db";
  options.storage.fs = &fs_;
  options.storage.compact_threshold_bytes = 0;
  {
    QP_ASSERT_OK_AND_ASSIGN(auto service,
                            PersonalizationService::OpenDurable(&db, options));
    QP_ASSERT_OK(service->profiles().Put("julie", JulieProfile()));

    PersonalizationRequest request;
    request.user_id = "julie";
    request.query = TonightQuery();
    PersonalizationResponse response = service->PersonalizeOne(request);
    QP_ASSERT_OK(response.status);

    ServiceStats stats = service->stats();
    EXPECT_TRUE(stats.storage.durable);
    EXPECT_EQ(stats.storage.records_appended, 1u);
    QP_ASSERT_OK(service->profiles().Close());
  }

  // A new service over the same directory serves the recovered profile.
  QP_ASSERT_OK_AND_ASSIGN(auto service,
                          PersonalizationService::OpenDurable(&db, options));
  EXPECT_EQ(service->profiles().size(), 1u);
  PersonalizationRequest request;
  request.user_id = "julie";
  request.query = TonightQuery();
  PersonalizationResponse response = service->PersonalizeOne(request);
  QP_ASSERT_OK(response.status);
  EXPECT_EQ(service->stats().storage.records_replayed, 1u);

  // An in-memory service reports a non-durable store.
  PersonalizationService memory_service(&db);
  EXPECT_FALSE(memory_service.stats().storage.durable);
}

TEST_F(DurableStoreTest, OpenDurableRequiresADirectory) {
  QP_ASSERT_OK_AND_ASSIGN(Database db, BuildPaperDatabase());
  ServiceOptions options;  // storage.dir left empty.
  auto service_or = PersonalizationService::OpenDurable(&db, options);
  EXPECT_EQ(service_or.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace storage
}  // namespace qp
