#ifndef QP_SERVICE_SELECTION_CACHE_H_
#define QP_SERVICE_SELECTION_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "qp/core/interest_criterion.h"
#include "qp/graph/preference_path.h"
#include "qp/query/query.h"

namespace qp {

/// A bounded, thread-safe LRU cache of preference-selection results: the
/// top-K PreferencePaths the selector extracted for one (user epoch,
/// normalized query, interest criterion) triple. Re-running best-first
/// selection dominates the per-query cost for large profiles (paper
/// Figure 6), and real query streams repeat — the "continuous
/// re-evaluation under change" workload of Chomicki's preference surveys.
///
/// Invalidation is epoch-based: the key embeds the user's profile-store
/// epoch, which every profile mutation bumps, so entries for the old
/// profile become unreachable immediately and age out through the LRU
/// bound. Values are immutable shared_ptrs: hits share, never copy.
///
/// The cache counts nothing itself: Insert and EraseUser return how many
/// entries they dropped, and the service counts hits, misses, insertions,
/// evictions and invalidations in its registry.
class SelectionCache {
 public:
  using Paths = std::shared_ptr<const std::vector<PreferencePath>>;

  /// Caches at most `capacity` entries (clamped to >= 1).
  explicit SelectionCache(size_t capacity);

  /// The composed cache key. Collision-free by construction: the exact
  /// canonical strings are keyed, not their hashes.
  static std::string MakeKey(const std::string& user_id, uint64_t epoch,
                             const std::string& canonical_query_key,
                             const InterestCriterion& criterion);

  /// The cached selection, or nullptr on miss.
  Paths Lookup(const std::string& key);

  /// Inserts (or refreshes) `paths` under `key`, owned by `user_id` —
  /// the user MakeKey embedded in it — so EraseUser can drop exactly that
  /// user's entries. Evicts the least recently used entry when full;
  /// returns the number evicted.
  size_t Insert(const std::string& user_id, const std::string& key,
                Paths paths);

  /// Drops every entry owned by `user_id` — and nothing else. The
  /// surgical invalidation a mutation path wants: epoch keying already
  /// makes stale entries unreachable, but they would otherwise squat in
  /// the LRU until aged out; this frees the capacity immediately without
  /// touching other users' live entries. Returns the number dropped.
  size_t EraseUser(const std::string& user_id);

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Drops every entry.
  void Clear();

 private:
  struct Slot {
    std::string key;
    std::string user_id;
    Paths paths;
  };

  /// Unlinks one LRU slot from index_ and by_user_ (not from lru_).
  void UnindexLocked(const Slot& slot);

  size_t capacity_;
  mutable std::mutex mutex_;
  /// Front = most recently used.
  std::list<Slot> lru_;
  std::unordered_map<std::string, std::list<Slot>::iterator> index_;
  /// Owner index: user id -> that user's cache keys.
  std::unordered_map<std::string, std::unordered_set<std::string>> by_user_;
};

}  // namespace qp

#endif  // QP_SERVICE_SELECTION_CACHE_H_
