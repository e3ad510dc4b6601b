#ifndef QP_STORAGE_TIER_H_
#define QP_STORAGE_TIER_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qp/storage/record.h"
#include "qp/storage/snapshot.h"

namespace qp {
namespace storage {

/// Residency bookkeeping for every DurableProfileStore with a storage
/// directory: which users are alive, where each one's base body sits in
/// the committed snapshot, which logged mutations have landed since that
/// snapshot (the WAL overlay a cold load replays without re-reading the
/// log file), and an LRU over the profiles currently resident in memory.
/// Recovery only indexes, so every profile starts cold and pages in on
/// its first use; a hot budget of 0 means no budget — nothing is ever
/// evicted, so once paged in a profile stays resident.
///
/// The tier never touches the disk or the store's resident profiles itself
/// — it answers "how do I rebuild this user?" (PlanLoad) and "who goes
/// cold?" (EvictOverBudget); the store executes the plan. Thread-safe
/// behind one internal mutex; every operation is O(1)-ish map/list work,
/// so holding it under a stripe lock is cheap. Lock order: stripe (or
/// all stripes + meta, for checkpoints) before this mutex, never the
/// reverse.
///
/// The invariant that makes eviction trivially safe: a mutation is
/// acknowledged only after its WAL append succeeded, and NoteLogged runs
/// before the in-memory apply, so snapshot + overlay always reproduce
/// every acknowledged mutation. Dropping a resident profile loses
/// nothing — the next Get pages it back byte-identically.
class ProfileTier {
 public:
  /// At most `hot_capacity` profiles resident; 0 = no budget.
  explicit ProfileTier(size_t hot_capacity);

  size_t hot_capacity() const { return capacity_; }

  /// Recovery: records one snapshot entry (user alive, base body at
  /// offset/length under its checksum, no overlay yet).
  void NoteSnapshotEntry(const SnapshotEntry& entry);

  /// Records an acknowledged logged mutation. kPut resets the user's
  /// overlay to just this payload (a Put replaces everything, so the
  /// snapshot base is dead weight and is dropped from the plan); kUpsert
  /// appends; kRemove erases the user entirely — the next checkpoint
  /// simply omits them. Called during recovery replay and, at runtime,
  /// under the mutating user's stripe lock after the WAL append.
  void NoteLogged(const ProfileMutation& mutation, std::string payload);

  /// Everything needed to rebuild one user without the WAL file: the
  /// snapshot base (when still live) plus the overlay payloads in log
  /// order.
  struct LoadPlan {
    bool alive = false;
    bool in_snapshot = false;
    SnapshotEntry base;  // The committed body; meaningful iff in_snapshot.
    std::vector<std::string> tail;
  };
  LoadPlan PlanLoad(const std::string& user_id) const;

  bool Contains(const std::string& user_id) const;

  /// Marks `user_id` resident and most-recently used (inserting into the
  /// LRU if absent). Does not evict — callers follow up with
  /// EvictOverBudget so the decision happens once per install.
  void Touch(const std::string& user_id);

  /// A Get found `user_id` resident: refreshes its LRU position. Free
  /// without a budget, where the order is never read (the install that
  /// made the user resident already marked it).
  void NoteHit(const std::string& user_id) {
    if (capacity_ > 0) Touch(user_id);
  }

  /// Pops least-recently-used residents until the budget holds, marking
  /// them cold; never evicts without a budget. Returns the users to drop
  /// from memory; the tier has already forgotten their residency, so a
  /// racing Touch re-inserts harmlessly.
  std::vector<std::string> EvictOverBudget();

  /// Every alive user, sorted — the iteration order of All() and of
  /// checkpoint merges.
  std::vector<std::string> AliveUsers() const;

  /// After a checkpoint committed: every alive user's base is now
  /// `entries` (the new snapshot), overlays are gone. Residency is
  /// unchanged — the hot set stays hot.
  void ResetAfterCheckpoint(const std::vector<SnapshotEntry>& entries);

  size_t alive_count() const;

  /// One consistent reading of the residency split: profiles in memory,
  /// alive users on disk only, and the overlay records buffered since
  /// the last checkpoint.
  struct Residency {
    size_t hot = 0;
    size_t cold = 0;
    uint64_t overlay_records = 0;
  };
  Residency residency() const;

 private:
  struct UserState {
    bool in_snapshot = false;
    uint64_t offset = 0;
    uint64_t length = 0;
    uint32_t crc = 0;
    std::vector<std::string> tail;
    bool hot = false;
    std::list<std::string>::iterator lru_it;  // Valid iff hot.
  };

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, UserState> users_;
  std::list<std::string> lru_;  // Front = most recently used; hot users only.
  uint64_t overlay_records_ = 0;
};

}  // namespace storage
}  // namespace qp

#endif  // QP_STORAGE_TIER_H_
