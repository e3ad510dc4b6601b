#include "qp/service/profile_store.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <utility>

namespace qp {

ProfileStore::ProfileStore(const Schema* schema, obs::MetricScope metrics)
    : schema_(schema),
      metrics_(metrics.OrOwn()),
      metric_gets_(metrics_.counter("qp_profile_store_gets_total")),
      metric_get_misses_(metrics_.counter("qp_profile_store_get_misses_total")),
      metric_mutations_(metrics_.counter("qp_profile_store_mutations_total")) {
  shards_.reserve(kNumShards);
  for (size_t i = 0; i < kNumShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ProfileStore::Shard& ProfileStore::ShardFor(const std::string& user_id) const {
  size_t h = std::hash<std::string>{}(user_id);
  return *shards_[h % shards_.size()];
}

Status ProfileStore::Put(const std::string& user_id, UserProfile profile) {
  // Build (and validate) outside any lock: graph construction is the
  // expensive part of an update and must not block readers.
  QP_ASSIGN_OR_RETURN(PersonalizationGraph graph,
                      PersonalizationGraph::Build(schema_, profile));
  auto new_profile =
      std::make_shared<const UserProfile>(std::move(profile));
  auto new_graph =
      std::make_shared<const PersonalizationGraph>(std::move(graph));

  Shard& shard = ShardFor(user_id);
  {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    Entry& entry = shard.users[user_id];
    entry.profile = std::move(new_profile);
    entry.graph = std::move(new_graph);
    entry.epoch = ++shard.next_epoch;
  }
  metric_mutations_->Add(1);
  return Status::Ok();
}

Status ProfileStore::Upsert(
    const std::string& user_id,
    const std::vector<AtomicPreference>& preferences) {
  Shard& shard = ShardFor(user_id);
  while (true) {
    // Snapshot the base profile and its epoch. 0 means "user absent":
    // real epochs start at 1 (++next_epoch), and Remove burns an epoch,
    // so absence is distinguishable from every present state.
    uint64_t base_epoch = 0;
    UserProfile updated;
    {
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      auto it = shard.users.find(user_id);
      if (it != shard.users.end()) {
        updated = *it->second.profile;
        base_epoch = it->second.epoch;
      }
    }
    for (const AtomicPreference& pref : preferences) {
      updated.AddOrUpdate(pref);
    }
    // Build (and validate) outside the lock, like Put.
    QP_ASSIGN_OR_RETURN(PersonalizationGraph graph,
                        PersonalizationGraph::Build(schema_, updated));
    auto new_profile =
        std::make_shared<const UserProfile>(std::move(updated));
    auto new_graph =
        std::make_shared<const PersonalizationGraph>(std::move(graph));
    {
      std::unique_lock<std::shared_mutex> lock(shard.mutex);
      auto it = shard.users.find(user_id);
      uint64_t current_epoch =
          it == shard.users.end() ? 0 : it->second.epoch;
      if (current_epoch != base_epoch) {
        // Another writer swapped this user between our read and now;
        // blindly installing would silently drop their preferences.
        // Re-merge onto the new base (writers make progress: each
        // failed validation means someone else committed).
        continue;
      }
      Entry& entry = shard.users[user_id];
      entry.profile = std::move(new_profile);
      entry.graph = std::move(new_graph);
      entry.epoch = ++shard.next_epoch;
      metric_mutations_->Add(1);
      return Status::Ok();
    }
  }
}

Result<ProfileSnapshot> ProfileStore::Get(const std::string& user_id) const {
  metric_gets_->Add(1);
  const Shard& shard = ShardFor(user_id);
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.users.find(user_id);
  if (it == shard.users.end()) {
    metric_get_misses_->Add(1);
    return Status::NotFound("unknown user: " + user_id);
  }
  return ProfileSnapshot{it->second.profile, it->second.graph,
                         it->second.epoch};
}

Status ProfileStore::Remove(const std::string& user_id) {
  Shard& shard = ShardFor(user_id);
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  if (shard.users.erase(user_id) == 0) {
    return Status::NotFound("unknown user: " + user_id);
  }
  // Burn an epoch so a later re-insert of the same user can never revisit
  // an epoch a cache entry might still be keyed on.
  ++shard.next_epoch;
  metric_mutations_->Add(1);
  return Status::Ok();
}

void ProfileStore::InstallUnvalidatedForTest(const std::string& user_id,
                                             UserProfile profile) {
  auto new_profile = std::make_shared<const UserProfile>(std::move(profile));
  Shard& shard = ShardFor(user_id);
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  Entry& entry = shard.users[user_id];
  entry.profile = std::move(new_profile);
  if (entry.graph == nullptr) {
    // A brand-new corrupt entry still needs *a* graph so readers do not
    // dereference null; an empty one matches "graph out of sync with
    // profile", which is exactly what the scrubber must detect.
    auto empty = PersonalizationGraph::Build(schema_, UserProfile());
    if (empty.ok()) {
      entry.graph = std::make_shared<const PersonalizationGraph>(
          std::move(empty).value());
    }
  }
  entry.epoch = ++shard.next_epoch;
}

std::vector<std::pair<std::string, ProfileSnapshot>> ProfileStore::All()
    const {
  std::vector<std::pair<std::string, ProfileSnapshot>> out;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    for (const auto& [user_id, entry] : shard->users) {
      out.emplace_back(user_id, ProfileSnapshot{entry.profile, entry.graph,
                                                entry.epoch});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<std::string> ProfileStore::Users() const {
  std::vector<std::string> out;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    for (const auto& [user_id, entry] : shard->users) {
      out.push_back(user_id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t ProfileStore::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    total += shard->users.size();
  }
  return total;
}

}  // namespace qp
