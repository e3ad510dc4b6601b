// In-memory profile store tests (DurableProfileStore without a storage
// directory): put/get/remove semantics, epoch monotonicity, and the
// snapshot-isolation guarantee — concurrent mutation plus selection
// never observes a half-updated profile (run under -DQP_SANITIZE=thread
// to also prove data-race freedom). The concurrent cases drive the same
// stripe path a durable store's mutations take, minus the WAL append.

#include <atomic>
#include <thread>
#include <vector>

#include "common/test_util.h"
#include "gtest/gtest.h"
#include "qp/core/selection.h"
#include "qp/data/movie_db.h"
#include "qp/data/paper_example.h"
#include "qp/storage/durable_profile_store.h"

namespace qp {
namespace {

class ProfileStoreTest : public ::testing::Test {
 protected:
  ProfileStoreTest() : schema_(MovieSchema()) {}
  Schema schema_;
};

TEST_F(ProfileStoreTest, PutGetRemove) {
  storage::DurableProfileStore store(&schema_);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.Get("julie").ok());

  QP_ASSERT_OK(store.Put("julie", JulieProfile()));
  QP_ASSERT_OK(store.Put("rob", RobProfile()));
  EXPECT_EQ(store.size(), 2u);

  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot snapshot, store.Get("julie"));
  EXPECT_EQ(snapshot.profile->size(), JulieProfile().size());
  EXPECT_GT(snapshot.graph->num_selection_edges(), 0u);

  QP_ASSERT_OK(store.Remove("julie"));
  EXPECT_EQ(store.Remove("julie").code(), StatusCode::kNotFound);
  EXPECT_FALSE(store.Get("julie").ok());
  EXPECT_EQ(store.size(), 1u);

  // The snapshot taken before the removal stays fully usable.
  EXPECT_EQ(snapshot.profile->size(), JulieProfile().size());
}

TEST_F(ProfileStoreTest, InvalidProfileIsRejected) {
  storage::DurableProfileStore store(&schema_);
  UserProfile bad;
  QP_ASSERT_OK(bad.Add(AtomicPreference::Selection(
      AttributeRef{"NO_SUCH_TABLE", "x"}, Value::Str("y"), 0.5)));
  EXPECT_FALSE(store.Put("u", std::move(bad)).ok());
  EXPECT_FALSE(store.Get("u").ok());
}

TEST_F(ProfileStoreTest, EpochBumpsOnEveryMutation) {
  storage::DurableProfileStore store(&schema_);
  QP_ASSERT_OK(store.Put("julie", JulieProfile()));
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot first, store.Get("julie"));

  QP_ASSERT_OK(store.Put("julie", JulieProfile()));
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot second, store.Get("julie"));
  EXPECT_GT(second.epoch, first.epoch);

  // Upsert mutates too.
  AtomicPreference extra = AtomicPreference::Selection(
      AttributeRef{"GENRE", "genre"}, Value::Str("drama"), 0.4);
  QP_ASSERT_OK(store.Upsert("julie", {extra}));
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot third, store.Get("julie"));
  EXPECT_GT(third.epoch, second.epoch);
  EXPECT_EQ(third.profile->size(), second.profile->size() + 1);
}

TEST_F(ProfileStoreTest, RemoveThenReinsertNeverReusesAnEpoch) {
  // Cache keys embed (user, epoch); a re-inserted user reusing an old
  // epoch would resurrect cache entries of the deleted profile.
  storage::DurableProfileStore store(&schema_);
  QP_ASSERT_OK(store.Put("julie", JulieProfile()));
  QP_ASSERT_OK(store.Put("julie", JulieProfile()));
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot before, store.Get("julie"));
  QP_ASSERT_OK(store.Remove("julie"));
  QP_ASSERT_OK(store.Put("julie", RobProfile()));
  QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot after, store.Get("julie"));
  EXPECT_GT(after.epoch, before.epoch);
}

TEST_F(ProfileStoreTest, ConcurrentUpsertsNeverLoseAnUpdate) {
  // Regression: Upsert used to read the profile under a shared lock,
  // merge, then install under an exclusive lock — two racing upserts of
  // *different* preferences could both start from the same base and the
  // second install would silently drop the first writer's preference.
  // The stripe's writer mutex, held from the read of the base through
  // the swap, makes the merge atomic: after two threads each upsert
  // their own preference set, both sets must be present.
  AtomicPreference mine = AtomicPreference::Selection(
      AttributeRef{"GENRE", "genre"}, Value::Str("western"), 0.31);
  AtomicPreference yours = AtomicPreference::Selection(
      AttributeRef{"ACTOR", "name"}, Value::Str("G. Binoche"), 0.57);

  for (int round = 0; round < 50; ++round) {
    storage::DurableProfileStore store(&schema_);
    QP_ASSERT_OK(store.Put("julie", JulieProfile()));

    std::atomic<bool> go{false};
    std::thread a([&] {
      while (!go.load()) std::this_thread::yield();
      ASSERT_TRUE(store.Upsert("julie", {mine}).ok());
    });
    std::thread b([&] {
      while (!go.load()) std::this_thread::yield();
      ASSERT_TRUE(store.Upsert("julie", {yours}).ok());
    });
    go.store(true);
    a.join();
    b.join();

    QP_ASSERT_OK_AND_ASSIGN(ProfileSnapshot snapshot, store.Get("julie"));
    EXPECT_EQ(snapshot.profile->size(), JulieProfile().size() + 2)
        << "round " << round << ": a concurrent upsert was lost";
  }
}

TEST_F(ProfileStoreTest, SnapshotIsolationUnderConcurrentMutation) {
  // Two writers flip user "julie" between two internally consistent
  // profiles while readers continuously run preference selection on
  // their snapshots. A torn read would surface as a selection edge count
  // matching neither profile, a crossed profile/graph pair, or (under
  // TSan) a race report.
  storage::DurableProfileStore store(&schema_);

  UserProfile a = JulieProfile();
  UserProfile b = RobProfile();
  const size_t a_size = a.size();
  const size_t b_size = b.size();
  ASSERT_NE(a_size, b_size);  // Distinguishable variants.
  QP_ASSERT_OK(store.Put("julie", a));

  std::atomic<bool> stop{false};
  std::atomic<int> observed{0};
  SelectQuery query = TonightQuery();

  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(
            store.Put("julie", (i % 2 == w % 2) ? JulieProfile() : RobProfile())
                .ok());
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto snapshot = store.Get("julie");
        ASSERT_TRUE(snapshot.ok());
        size_t profile_size = snapshot->profile->size();
        ASSERT_TRUE(profile_size == a_size || profile_size == b_size)
            << "torn profile: " << profile_size;
        // The graph must correspond to the same variant as the profile.
        size_t edges = snapshot->graph->num_selection_edges() +
                       snapshot->graph->num_negative_selection_edges() +
                       snapshot->graph->num_join_edges();
        ASSERT_EQ(edges, profile_size) << "profile/graph snapshot mismatch";
        // And selection over the snapshot must run cleanly.
        PreferenceSelector selector(snapshot->graph.get());
        auto selected =
            selector.Select(query, InterestCriterion::TopCount(3));
        ASSERT_TRUE(selected.ok());
        observed.fetch_add(1);
      }
    });
  }
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  for (size_t i = 2; i < threads.size(); ++i) threads[i].join();
  EXPECT_GT(observed.load(), 0);
}

}  // namespace
}  // namespace qp
