#include "qp/storage/tier.h"

#include <algorithm>

namespace qp {
namespace storage {

ProfileTier::ProfileTier(size_t hot_capacity)
    : capacity_(hot_capacity == 0 ? 1 : hot_capacity) {}

void ProfileTier::NoteSnapshotEntry(const SnapshotEntry& entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  UserState& state = users_[entry.user_id];
  state.in_snapshot = true;
  state.offset = entry.offset;
  state.length = entry.length;
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
  plan.offset = it->second.offset;
  plan.length = it->second.length;
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
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> evicted;
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

void ProfileTier::Erase(const std::string& user_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = users_.find(user_id);
  if (it == users_.end()) return;
  overlay_records_ -= it->second.tail.size();
  if (it->second.hot) lru_.erase(it->second.lru_it);
  users_.erase(it);
}

std::vector<std::string> ProfileTier::AliveUsers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> users;
  users.reserve(users_.size());
  for (const auto& [user_id, state] : users_) users.push_back(user_id);
  std::sort(users.begin(), users.end());
  return users;
}

std::vector<std::pair<std::string, ProfileTier::LoadPlan>>
ProfileTier::CheckpointPlans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, LoadPlan>> plans;
  plans.reserve(users_.size());
  for (const auto& [user_id, state] : users_) {
    LoadPlan plan;
    plan.alive = true;
    plan.in_snapshot = state.in_snapshot;
    plan.offset = state.offset;
    plan.length = state.length;
    plan.tail = state.tail;
    plans.emplace_back(user_id, std::move(plan));
  }
  std::sort(plans.begin(), plans.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return plans;
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
