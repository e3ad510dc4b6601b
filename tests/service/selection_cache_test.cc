// SelectionCache unit tests: hits and misses, the LRU eviction bound and
// the eviction counts Insert returns, epoch-keyed invalidation, and
// concurrent access sanity.

#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "qp/core/interest_criterion.h"
#include "qp/service/selection_cache.h"

namespace qp {
namespace {

SelectionCache::Paths MakePaths(size_t n) {
  std::vector<PreferencePath> paths;
  for (size_t i = 0; i < n; ++i) {
    paths.emplace_back("MV", "MOVIE");
  }
  return std::make_shared<const std::vector<PreferencePath>>(
      std::move(paths));
}

TEST(SelectionCacheTest, HitAfterInsertMissBefore) {
  SelectionCache cache(8);
  std::string key = SelectionCache::MakeKey(
      "julie", 1, "select MV.title from MV:MOVIE where true",
      InterestCriterion::TopCount(5));

  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.Insert("julie", key, MakePaths(3)), 0u);  // No eviction.
  SelectionCache::Paths hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 3u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SelectionCacheTest, KeyDistinguishesEpochQueryAndCriterion) {
  // Any component changing must change the key: the epoch is how profile
  // mutations invalidate, the criterion is part of what was computed.
  std::string base = SelectionCache::MakeKey(
      "julie", 1, "q1", InterestCriterion::TopCount(5));
  EXPECT_NE(base, SelectionCache::MakeKey("julie", 2, "q1",
                                          InterestCriterion::TopCount(5)));
  EXPECT_NE(base, SelectionCache::MakeKey("julie", 1, "q2",
                                          InterestCriterion::TopCount(5)));
  EXPECT_NE(base, SelectionCache::MakeKey("julie", 1, "q1",
                                          InterestCriterion::TopCount(6)));
  EXPECT_NE(base, SelectionCache::MakeKey("julie", 1, "q1",
                                          InterestCriterion::MinDegree(0.5)));
  EXPECT_NE(base, SelectionCache::MakeKey("rob", 1, "q1",
                                          InterestCriterion::TopCount(5)));
  // Same components, same key.
  EXPECT_EQ(base, SelectionCache::MakeKey("julie", 1, "q1",
                                          InterestCriterion::TopCount(5)));
}

TEST(SelectionCacheTest, EpochBumpInvalidates) {
  SelectionCache cache(8);
  auto criterion = InterestCriterion::TopCount(5);
  cache.Insert("julie", SelectionCache::MakeKey("julie", 1, "q", criterion),
               MakePaths(2));
  // After a profile mutation the caller looks up under the new epoch:
  // a miss, never the stale entry.
  EXPECT_EQ(cache.Lookup(SelectionCache::MakeKey("julie", 2, "q", criterion)),
            nullptr);
}

TEST(SelectionCacheTest, LruEvictionBound) {
  SelectionCache cache(4);
  auto criterion = InterestCriterion::TopCount(5);
  auto key = [&](int i) {
    return SelectionCache::MakeKey("u", 1, "q" + std::to_string(i),
                                   criterion);
  };
  size_t evictions = 0;
  for (int i = 0; i < 10; ++i) {
    evictions += cache.Insert("u", key(i), MakePaths(1));
    EXPECT_LE(cache.size(), 4u);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(evictions, 6u);
  // The four most recent survive; the oldest six are gone.
  for (int i = 0; i < 6; ++i) EXPECT_EQ(cache.Lookup(key(i)), nullptr);
  for (int i = 6; i < 10; ++i) EXPECT_NE(cache.Lookup(key(i)), nullptr);
}

TEST(SelectionCacheTest, LookupRefreshesRecency) {
  SelectionCache cache(2);
  auto criterion = InterestCriterion::TopCount(5);
  auto key = [&](int i) {
    return SelectionCache::MakeKey("u", 1, "q" + std::to_string(i),
                                   criterion);
  };
  cache.Insert("u", key(0), MakePaths(1));
  cache.Insert("u", key(1), MakePaths(1));
  EXPECT_NE(cache.Lookup(key(0)), nullptr);  // 0 becomes most recent.
  cache.Insert("u", key(2), MakePaths(1));   // Evicts 1, not 0.
  EXPECT_NE(cache.Lookup(key(0)), nullptr);
  EXPECT_EQ(cache.Lookup(key(1)), nullptr);
  EXPECT_NE(cache.Lookup(key(2)), nullptr);
}

TEST(SelectionCacheTest, InsertSameKeyReplaces) {
  SelectionCache cache(4);
  std::string key = SelectionCache::MakeKey(
      "u", 1, "q", InterestCriterion::TopCount(5));
  cache.Insert("u", key, MakePaths(1));
  cache.Insert("u", key, MakePaths(5));
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 5u);
}

TEST(SelectionCacheTest, ClearDropsEveryEntry) {
  SelectionCache cache(4);
  std::string key = SelectionCache::MakeKey(
      "u", 1, "q", InterestCriterion::TopCount(5));
  cache.Insert("u", key, MakePaths(1));
  EXPECT_NE(cache.Lookup(key), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.EraseUser("u"), 0u);  // The owner index is gone too.
}

TEST(SelectionCacheTest, EraseUserDropsOnlyThatUsersEntries) {
  SelectionCache cache(16);
  auto criterion = InterestCriterion::TopCount(5);
  auto key = [&](const std::string& user, int i) {
    return SelectionCache::MakeKey(user, 1, "q" + std::to_string(i),
                                   criterion);
  };
  // Entries of A and B, plus one of a third user that no invalidation
  // of theirs may touch.
  for (int i = 0; i < 3; ++i) cache.Insert("alice", key("alice", i),
                                           MakePaths(1));
  for (int i = 0; i < 2; ++i) cache.Insert("bob", key("bob", i),
                                           MakePaths(1));
  cache.Insert("anon", key("anon", 0), MakePaths(1));
  ASSERT_EQ(cache.size(), 6u);

  // Mutating Alice drops exactly her three entries; Bob's and the
  // third user's survive untouched.
  EXPECT_EQ(cache.EraseUser("alice"), 3u);
  EXPECT_EQ(cache.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(cache.Lookup(key("alice", i)),
                                        nullptr);
  for (int i = 0; i < 2; ++i) EXPECT_NE(cache.Lookup(key("bob", i)),
                                        nullptr);
  EXPECT_NE(cache.Lookup(key("anon", 0)), nullptr);

  // Unknown or already-erased users are clean no-ops.
  EXPECT_EQ(cache.EraseUser("alice"), 0u);
  EXPECT_EQ(cache.EraseUser("nobody"), 0u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(SelectionCacheTest, EvictionAndReplaceMaintainUserIndex) {
  SelectionCache cache(2);
  auto criterion = InterestCriterion::TopCount(5);
  auto key = [&](int i) {
    return SelectionCache::MakeKey("u", 1, "q" + std::to_string(i),
                                   criterion);
  };
  // LRU eviction of a user-owned entry must unindex it: a later
  // EraseUser sees only what is still resident.
  cache.Insert("alice", key(0), MakePaths(1));
  cache.Insert("alice", key(1), MakePaths(1));
  EXPECT_EQ(cache.Insert("alice", key(2), MakePaths(1)), 1u);  // key(0).
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.EraseUser("alice"), 2u);
  EXPECT_EQ(cache.size(), 0u);

  // Refreshing a key keeps one slot and one index entry.
  cache.Insert("alice", key(7), MakePaths(1));
  EXPECT_EQ(cache.Insert("alice", key(7), MakePaths(2)), 0u);
  auto hit = cache.Lookup(key(7));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 2u);
  EXPECT_EQ(cache.EraseUser("alice"), 1u);
  EXPECT_EQ(cache.Lookup(key(7)), nullptr);
}

TEST(SelectionCacheTest, ConcurrentMixedAccess) {
  // Hammer one small cache from several threads; correctness here is
  // "no crash, bounded size, every hit returns an intact vector" (TSan
  // covers the rest).
  SelectionCache cache(16);
  auto criterion = InterestCriterion::TopCount(5);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string user = "u" + std::to_string((t + i) % 8);
        std::string key = SelectionCache::MakeKey(
            user, 1, "q" + std::to_string(i % 8), criterion);
        if (i % 3 == 0) {
          cache.Insert(user, key, MakePaths(static_cast<size_t>(i % 5)));
        } else {
          auto hit = cache.Lookup(key);
          if (hit != nullptr) {
            ASSERT_LT(hit->size(), 5u);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 16u);
}

}  // namespace
}  // namespace qp
