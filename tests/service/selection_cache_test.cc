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
  EXPECT_EQ(cache.Insert(key, MakePaths(3)), 0u);  // Nothing evicted.
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
  cache.Insert(SelectionCache::MakeKey("julie", 1, "q", criterion),
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
    evictions += cache.Insert(key(i), MakePaths(1));
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
  cache.Insert(key(0), MakePaths(1));
  cache.Insert(key(1), MakePaths(1));
  EXPECT_NE(cache.Lookup(key(0)), nullptr);  // 0 becomes most recent.
  cache.Insert(key(2), MakePaths(1));        // Evicts 1, not 0.
  EXPECT_NE(cache.Lookup(key(0)), nullptr);
  EXPECT_EQ(cache.Lookup(key(1)), nullptr);
  EXPECT_NE(cache.Lookup(key(2)), nullptr);
}

TEST(SelectionCacheTest, InsertSameKeyReplaces) {
  SelectionCache cache(4);
  std::string key = SelectionCache::MakeKey(
      "u", 1, "q", InterestCriterion::TopCount(5));
  cache.Insert(key, MakePaths(1));
  cache.Insert(key, MakePaths(5));
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
  // User-aware inserts for A and B, plus one anonymous (keyed-only)
  // entry that no per-user invalidation may touch.
  for (int i = 0; i < 3; ++i) cache.Insert("alice", key("alice", i),
                                           MakePaths(1));
  for (int i = 0; i < 2; ++i) cache.Insert("bob", key("bob", i),
                                           MakePaths(1));
  cache.Insert(key("anon", 0), MakePaths(1));
  ASSERT_EQ(cache.size(), 6u);

  // Mutating Alice drops exactly her three entries; Bob's and the
  // anonymous entry survive untouched.
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

  // Re-inserting the same key under a different owner re-homes it.
  cache.Insert("alice", key(7), MakePaths(1));
  cache.Insert("bob", key(7), MakePaths(2));
  EXPECT_EQ(cache.EraseUser("alice"), 0u);
  auto hit = cache.Lookup(key(7));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 2u);
  EXPECT_EQ(cache.EraseUser("bob"), 1u);
  EXPECT_EQ(cache.Lookup(key(7)), nullptr);
}

TEST(SelectionCacheTest, ReHomingAKeyMovesItsOwnerIndexEntry) {
  // Regression pin: re-inserting an existing key under a new owner must
  // unindex the old owner binding *before* touching the slot — the
  // re-home path once erased the index entry and then dereferenced the
  // invalidated iterator. The observable contract: the old owner no
  // longer invalidates the entry, the new owner does, and lookups keep
  // returning the freshest value throughout.
  SelectionCache cache(8);
  auto criterion = InterestCriterion::TopCount(5);
  std::string key = SelectionCache::MakeKey("shared", 1, "q", criterion);

  cache.Insert("alice", key, MakePaths(1));
  cache.Insert("bob", key, MakePaths(3));  // Same key, new owner.

  auto hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 3u);

  EXPECT_EQ(cache.EraseUser("alice"), 0u);  // Alice's binding is gone.
  ASSERT_NE(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.EraseUser("bob"), 1u);    // Bob owns it now.
  EXPECT_EQ(cache.Lookup(key), nullptr);

  // Round-trip the other way: owned -> anonymous -> owned again.
  cache.Insert("carol", key, MakePaths(2));
  cache.Insert(key, MakePaths(4));  // Anonymous re-home.
  EXPECT_EQ(cache.EraseUser("carol"), 0u);
  hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 4u);
  cache.Insert("dave", key, MakePaths(5));
  EXPECT_EQ(cache.EraseUser("dave"), 1u);
  EXPECT_EQ(cache.Lookup(key), nullptr);
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
        std::string key = SelectionCache::MakeKey(
            "u" + std::to_string((t + i) % 8), 1, "q" + std::to_string(i % 8),
            criterion);
        if (i % 3 == 0) {
          cache.Insert(key, MakePaths(static_cast<size_t>(i % 5)));
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
