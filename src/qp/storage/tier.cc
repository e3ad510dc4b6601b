#include "qp/storage/tier.h"

#include <algorithm>

namespace qp {
namespace storage {

ProfileTier::ProfileTier(size_t hot_capacity) : capacity_(hot_capacity) {}

void ProfileTier::NoteSnapshotEntry(const SnapshotEntry& entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  UserState& state = users_[entry.user_id];
  state.in_snapshot = true;
  state.offset = entry.offset;
  state.length = entry.length;
  state.crc = entry.crc;
}

void ProfileTier::NoteLogged(const ProfileMutation& mutation,
                             std::string payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (mutation.kind) {
    case ProfileMutation::Kind::kPut: {
      UserState& state = users_[mutation.user_id];
      overlay_records_ -= state.tail.size();
      state.tail.clear();
      state.tail.push_back(std::move(payload));
      ++overlay_records_;
      // The Put payload alone reproduces the profile; the snapshot base
      // would only be decoded and thrown away.
      state.in_snapshot = false;
      break;
    }
    case ProfileMutation::Kind::kUpsert: {
      UserState& state = users_[mutation.user_id];
      state.tail.push_back(std::move(payload));
      ++overlay_records_;
      break;
    }
    case ProfileMutation::Kind::kRemove: {
      auto it = users_.find(mutation.user_id);
      if (it == users_.end()) return;
      overlay_records_ -= it->second.tail.size();
      if (it->second.hot) lru_.erase(it->second.lru_it);
      users_.erase(it);
      break;
    }
  }
}

ProfileTier::LoadPlan ProfileTier::PlanLoad(const std::string& user_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  LoadPlan plan;
  auto it = users_.find(user_id);
  if (it == users_.end()) return plan;
  plan.alive = true;
  plan.in_snapshot = it->second.in_snapshot;
  plan.base.user_id = user_id;
  plan.base.offset = it->second.offset;
  plan.base.length = it->second.length;
  plan.base.crc = it->second.crc;
  plan.tail = it->second.tail;
  return plan;
}

bool ProfileTier::Contains(const std::string& user_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return users_.count(user_id) > 0;
}

void ProfileTier::Touch(const std::string& user_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = users_.find(user_id);
  if (it == users_.end()) return;
  if (it->second.hot) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(user_id);
  it->second.hot = true;
  it->second.lru_it = lru_.begin();
}

std::vector<std::string> ProfileTier::EvictOverBudget() {
  std::vector<std::string> evicted;
  if (capacity_ == 0) return evicted;
  std::lock_guard<std::mutex> lock(mutex_);
  while (lru_.size() > capacity_) {
    const std::string& victim = lru_.back();
    auto it = users_.find(victim);
    if (it != users_.end()) {
      it->second.hot = false;
    }
    evicted.push_back(victim);
    lru_.pop_back();
  }
  return evicted;
}

std::vector<std::string> ProfileTier::AliveUsers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> users;
  users.reserve(users_.size());
  for (const auto& [user_id, state] : users_) users.push_back(user_id);
  std::sort(users.begin(), users.end());
  return users;
}

void ProfileTier::ResetAfterCheckpoint(
    const std::vector<SnapshotEntry>& entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const SnapshotEntry& entry : entries) {
    auto it = users_.find(entry.user_id);
    if (it == users_.end()) continue;  // Removed since the cut — impossible
                                       // under all stripes, harmless anyway.
    it->second.in_snapshot = true;
    it->second.offset = entry.offset;
    it->second.length = entry.length;
    it->second.crc = entry.crc;
    it->second.tail.clear();
  }
  overlay_records_ = 0;
}

size_t ProfileTier::alive_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return users_.size();
}

ProfileTier::Residency ProfileTier::residency() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Residency residency;
  residency.hot = lru_.size();
  residency.cold = users_.size() - lru_.size();
  residency.overlay_records = overlay_records_;
  return residency;
}

}  // namespace storage
}  // namespace qp
