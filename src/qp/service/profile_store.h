#ifndef QP_SERVICE_PROFILE_STORE_H_
#define QP_SERVICE_PROFILE_STORE_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qp/graph/personalization_graph.h"
#include "qp/obs/metrics.h"
#include "qp/pref/profile.h"
#include "qp/relational/schema.h"
#include "qp/util/status.h"

namespace qp {

/// What a reader gets: an immutable view of one user's personalization
/// state. The shared_ptrs keep the snapshot alive after the store moves
/// on, so an in-flight selection never observes a half-updated profile —
/// updates build a fresh profile + graph and atomically swap the entry
/// (copy-on-write).
struct ProfileSnapshot {
  std::shared_ptr<const UserProfile> profile;
  std::shared_ptr<const PersonalizationGraph> graph;
  /// Bumped on every mutation of this user's profile. Cache keys embed it,
  /// so a profile change silently invalidates every cached selection of
  /// that user (stale entries age out of the LRU).
  uint64_t epoch = 0;
};

/// A sharded, reader-writer-locked map user-id -> personalization graph.
/// Reads (the per-query hot path) take one shard's shared lock just long
/// enough to copy two shared_ptrs; writes build the new graph *outside*
/// the lock and swap under the exclusive lock, so heavy profile updates
/// never stall readers of other users — and stall readers of the same
/// user only for the pointer swap.
class ProfileStore {
 public:
  /// Lock shards the user map is split across.
  static constexpr size_t kNumShards = 16;

  /// `schema` is retained and must outlive the store (graphs reference
  /// it). Gets (hit/miss split) and mutations count as
  /// qp_profile_store_* counters in `metrics` (its registry is not
  /// owned and must outlive the store; without one the store owns one).
  explicit ProfileStore(const Schema* schema, obs::MetricScope metrics = {});

  /// Inserts or replaces `user_id`'s profile: validates it, builds the
  /// personalization graph, swaps the entry and bumps the user's epoch.
  Status Put(const std::string& user_id, UserProfile profile);

  /// Read-modify-write: copies the current profile (empty if the user is
  /// new), applies AddOrUpdate for each preference, and Puts the result.
  /// Concurrent Upserts of the same user serialize on the swap; last
  /// writer wins at the granularity of whole profiles.
  Status Upsert(const std::string& user_id,
                const std::vector<AtomicPreference>& preferences);

  /// The user's current snapshot; NotFound for unknown users.
  Result<ProfileSnapshot> Get(const std::string& user_id) const;

  /// Removes the user (snapshots already taken stay valid); NotFound if
  /// the user does not exist. Like every other mutator this returns a
  /// Status — callers that only care whether anything happened can test
  /// `Remove(id).ok()`.
  Status Remove(const std::string& user_id);

  /// Every user's current snapshot, sorted by user id (deterministic —
  /// the storage layer serializes this into snapshot files). Each shard
  /// is read under its shared lock; the result is a point-in-time view
  /// per shard, not a global atomic cut.
  std::vector<std::pair<std::string, ProfileSnapshot>> All() const;

  /// Every user's id, sorted — the body-free companion of All() for
  /// callers (migration, tiering) that only need to enumerate ownership.
  std::vector<std::string> Users() const;

  size_t size() const;
  const Schema& schema() const { return *schema_; }

  /// Chaos/test backdoor: installs `profile` for `user_id` *without*
  /// validation and without rebuilding the personalization graph (the
  /// previous graph, if any, is kept) — the in-memory signature of a
  /// corrupted entry. The epoch still bumps, so caches notice. Only the
  /// integrity scrubber's tests and the chaos harness should call this.
  void InstallUnvalidatedForTest(const std::string& user_id,
                                 UserProfile profile);

 private:
  struct Entry {
    std::shared_ptr<const UserProfile> profile;
    std::shared_ptr<const PersonalizationGraph> graph;
    uint64_t epoch = 0;
  };

  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::string, Entry> users;
    /// Epochs are drawn from a shard-wide monotone counter (not per
    /// entry): a user removed and later re-inserted must not revisit an
    /// old epoch, or cache entries from the deleted profile would be
    /// served for the new one.
    uint64_t next_epoch = 0;
  };

  Shard& ShardFor(const std::string& user_id) const;

  const Schema* schema_;
  obs::MetricScope metrics_;
  obs::Counter* const metric_gets_;
  obs::Counter* const metric_get_misses_;
  obs::Counter* const metric_mutations_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace qp

#endif  // QP_SERVICE_PROFILE_STORE_H_
