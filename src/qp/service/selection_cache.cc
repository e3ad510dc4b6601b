#include "qp/service/selection_cache.h"

namespace qp {

SelectionCache::SelectionCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::string SelectionCache::MakeKey(const std::string& user_id,
                                    uint64_t epoch,
                                    const std::string& canonical_query_key,
                                    const InterestCriterion& criterion) {
  return user_id + "@" + std::to_string(epoch) + "|" + criterion.ToString() +
         "|" + canonical_query_key;
}

SelectionCache::Paths SelectionCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->paths;
}

size_t SelectionCache::Insert(const std::string& user_id,
                              const std::string& key, Paths paths) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // The key embeds its user, so a refresh keeps the owner it has.
    it->second->paths = std::move(paths);
    lru_.splice(lru_.begin(), lru_, it->second);
    return 0;
  }
  lru_.push_front(Slot{key, user_id, std::move(paths)});
  index_[key] = lru_.begin();
  by_user_[user_id].insert(key);
  size_t evicted = 0;
  while (lru_.size() > capacity_) {
    UnindexLocked(lru_.back());
    lru_.pop_back();
    ++evicted;
  }
  return evicted;
}

void SelectionCache::UnindexLocked(const Slot& slot) {
  index_.erase(slot.key);
  auto it = by_user_.find(slot.user_id);
  if (it == by_user_.end()) return;
  it->second.erase(slot.key);
  if (it->second.empty()) by_user_.erase(it);
}

size_t SelectionCache::EraseUser(const std::string& user_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_user_.find(user_id);
  if (it == by_user_.end()) return 0;
  // Move the key set out first: the erase loop must not walk a container
  // it is shrinking.
  std::unordered_set<std::string> keys = std::move(it->second);
  by_user_.erase(it);
  size_t erased = 0;
  for (const std::string& key : keys) {
    auto slot = index_.find(key);
    if (slot == index_.end()) continue;
    auto lru_it = slot->second;
    index_.erase(slot);
    lru_.erase(lru_it);
    ++erased;
  }
  return erased;
}

size_t SelectionCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void SelectionCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  by_user_.clear();
}

}  // namespace qp
