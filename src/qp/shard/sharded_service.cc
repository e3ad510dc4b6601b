#include "qp/shard/sharded_service.h"

#include <algorithm>
#include <future>
#include <unordered_map>
#include <utility>

#include "qp/obs/flight_recorder.h"
#include "qp/util/fault_hub.h"
#include "qp/util/file.h"

namespace qp {
namespace shard {

namespace {

std::string ShardDir(const std::string& root, size_t index) {
  return JoinPath(root, "shard-" + std::to_string(index));
}

}  // namespace

ShardedPersonalizationService::ShardedPersonalizationService(
    const Database* db, ShardedOptions options)
    : db_(db),
      options_(std::move(options)),
      owned_metrics_(options_.service.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(options_.service.metrics != nullptr ? options_.service.metrics
                                                   : owned_metrics_.get()) {
  metric_requests_ = metrics_->counter("qp_router_requests_total");
  metric_mutations_ = metrics_->counter("qp_router_mutations_total");
  metric_shed_ = metrics_->counter("qp_router_shed_total");
  metric_kills_ = metrics_->counter("qp_router_shard_kills_total");
  metric_recoveries_ = metrics_->counter("qp_router_shard_recoveries_total");
  gauge_routing_version_ = metrics_->gauge("qp_router_version");
}

ShardedPersonalizationService::~ShardedPersonalizationService() = default;

Result<std::unique_ptr<ShardedPersonalizationService>>
ShardedPersonalizationService::Open(const Database* db,
                                    ShardedOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument(
        "ShardedPersonalizationService requires a storage directory");
  }
  if (options.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  std::unique_ptr<ShardedPersonalizationService> sharded(
      new ShardedPersonalizationService(db, std::move(options)));
  FileSystem* fs = sharded->options_.service.storage.fs != nullptr
                       ? sharded->options_.service.storage.fs
                       : DefaultFileSystem();
  QP_RETURN_IF_ERROR(fs->CreateDir(sharded->options_.dir));

  // The persisted routing table is the truth for an existing cluster;
  // the options seed a fresh one.
  RoutingTable table;
  auto table_or = ReadRoutingTable(fs, sharded->options_.dir);
  if (table_or.ok()) {
    table = std::move(table_or).value();
  } else if (table_or.status().code() == StatusCode::kNotFound) {
    if (sharded->options_.num_shards == 0) {
      return Status::InvalidArgument("num_shards must be >= 1");
    }
    if (sharded->options_.num_shards > sharded->options_.num_partitions) {
      return Status::InvalidArgument(
          "num_shards (" + std::to_string(sharded->options_.num_shards) +
          ") cannot exceed num_partitions (" +
          std::to_string(sharded->options_.num_partitions) + ")");
    }
    table = RoutingTable::Uniform(sharded->options_.num_partitions,
                                  sharded->options_.num_shards);
    QP_RETURN_IF_ERROR(WriteRoutingTable(fs, sharded->options_.dir, table));
  } else {
    return table_or.status();
  }

  sharded->partitions_.reserve(table.num_partitions());
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    sharded->partitions_.push_back(std::make_unique<PartitionState>());
  }
  sharded->slots_.assign(table.num_shards, nullptr);
  for (size_t i = 0; i < table.num_shards; ++i) {
    QP_ASSIGN_OR_RETURN(sharded->slots_[i], sharded->OpenShard(i));
  }
  sharded->gauge_routing_version_->Set(static_cast<double>(table.version));
  sharded->routing_ = std::make_shared<const RoutingTable>(std::move(table));

  QP_ASSIGN_OR_RETURN(sharded->journal_,
                      ReadMigrationJournal(fs, sharded->options_.dir));
  sharded->migrator_ = std::make_unique<ShardMigrator>(
      sharded.get(), sharded->options_.migration, sharded->metrics_);
  QP_RETURN_IF_ERROR(sharded->ResolveJournal());
  return sharded;
}

Result<std::shared_ptr<PersonalizationService>>
ShardedPersonalizationService::OpenShard(size_t index) {
  ServiceOptions opts = options_.service;
  opts.shard_id = static_cast<int>(index);
  opts.metrics = metrics_;
  opts.storage.dir = ShardDir(options_.dir, index);
  QP_ASSIGN_OR_RETURN(std::shared_ptr<PersonalizationService> service,
                      PersonalizationService::OpenDurable(db_, opts));
  service->set_trace_sink(trace_sink_.load(std::memory_order_acquire));
  return service;
}

std::shared_ptr<const RoutingTable>
ShardedPersonalizationService::RoutingSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return routing_;
}

RoutingTable ShardedPersonalizationService::routing() const {
  return *RoutingSnapshot();
}

uint64_t ShardedPersonalizationService::routing_version() const {
  return RoutingSnapshot()->version;
}

size_t ShardedPersonalizationService::ShardFor(
    const std::string& user_id) const {
  return RoutingSnapshot()->ShardFor(user_id);
}

size_t ShardedPersonalizationService::PartitionFor(
    const std::string& user_id) const {
  // The partition count is fixed at Open, so no lock is needed.
  return static_cast<size_t>(RouteHash(user_id) % partitions_.size());
}

size_t ShardedPersonalizationService::num_shards() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return slots_.size();
}

std::shared_ptr<PersonalizationService> ShardedPersonalizationService::Route(
    const std::string& user_id, size_t* shard_index) const {
  // One lock hold for table + slot: the owner shard and its service are
  // read from the same routing version.
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const size_t index = routing_->ShardFor(user_id);
  if (shard_index != nullptr) *shard_index = index;
  return index < slots_.size() ? slots_[index] : nullptr;
}

PersonalizationResponse ShardedPersonalizationService::ShedResponse(
    const std::string& reason) const {
  metric_shed_->Add(1);
  PersonalizationResponse response;
  response.status = Status::Unavailable(reason);
  response.disposition = RequestDisposition::kShed;
  return response;
}

std::optional<PersonalizationResponse> ShardedPersonalizationService::Enter(
    const PersonalizationRequest& request, size_t index, bool alive,
    obs::TraceSink* sink, RouterHop* hop) {
  metric_requests_->Add(1);
  if (Status fault = QP_FAULT_POINT("shard.route"); !fault.ok()) {
    return ShedResponse("shard routing failed: " + fault.message());
  }
  if (!alive) {
    return ShedResponse("shard " + std::to_string(index) + " is down");
  }
  hop->context = request.trace_context;
  if (sink == nullptr) return std::nullopt;
  // The router is the cluster's trace edge: an already-valid context
  // (e.g. a test standing in for an upstream gateway) is honoured as-is;
  // otherwise the trace id is minted and the head coin flipped here,
  // once, for the whole distributed request. An unsampled request still
  // sends the cluster trace id downstream, so a tail-kept trace joins its
  // distributed family.
  if (!hop->context.valid()) {
    hop->context.trace_id = obs::NewTraceId();
    hop->context.sampled = obs::HeadSampled(
        hop->context.trace_id, options_.service.sampling.head_rate);
  }
  if (hop->context.sampled) {
    // The router's own fragment: one span covering route + downstream,
    // the parent every shard-side span tree hangs under.
    obs::RequestTrace& fragment = hop->fragment.emplace(hop->context);
    hop->span = fragment.StartSpan("router");
    fragment.AddCounter(hop->span, "shard", index);
    fragment.AddCounter(hop->span, "partition",
                        PartitionFor(request.user_id));
    hop->context = fragment.ContextForSpan(hop->span);
  }
  return std::nullopt;
}

void ShardedPersonalizationService::Leave(
    RouterHop* hop, const PersonalizationResponse& response,
    obs::TraceSink* sink) {
  if (!hop->fragment.has_value()) return;
  hop->fragment->EndSpan(hop->span);
  hop->fragment->SetDisposition(
      response.status.ok() ? ToString(response.disposition) : "error",
      /*stopped_phase=*/"");
  obs::RecordTraceSummary(*hop->fragment);
  sink->Consume(std::move(*hop->fragment));
}

PersonalizationResponse ShardedPersonalizationService::Personalize(
    const PersonalizationRequest& request) {
  size_t index = 0;
  std::shared_ptr<PersonalizationService> shard =
      Route(request.user_id, &index);
  obs::TraceSink* sink = trace_sink_.load(std::memory_order_acquire);
  RouterHop hop;
  if (auto shed = Enter(request, index, shard != nullptr, sink, &hop)) {
    return std::move(*shed);
  }
  // Untraced, the request goes to the shard as it came: no copy.
  if (sink == nullptr) return shard->PersonalizeOne(request);
  PersonalizationRequest routed = request;
  routed.trace_context = hop.context;
  PersonalizationResponse response = shard->PersonalizeOne(routed);
  Leave(&hop, response, sink);
  return response;
}

std::vector<PersonalizationResponse>
ShardedPersonalizationService::PersonalizeBatchAndWait(
    std::vector<PersonalizationRequest> requests) {
  std::vector<PersonalizationResponse> responses(requests.size());

  // One consistent snapshot of table + slots for the whole batch: every
  // request routes by the same version and every shard pointer is copied
  // under a single shared-lock hold, then the fan-out runs lock-free (a
  // concurrent kill or cutover cannot invalidate the copies).
  std::shared_ptr<const RoutingTable> table;
  std::vector<std::shared_ptr<PersonalizationService>> shards;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    table = routing_;
    shards = slots_;
  }

  // Group request indexes by owner shard; the router's fragments close
  // after the fan-in, so their "router" span covers queueing + shard work.
  obs::TraceSink* sink = trace_sink_.load(std::memory_order_acquire);
  std::vector<RouterHop> hops(requests.size());
  std::unordered_map<size_t, std::vector<size_t>> by_shard;
  for (size_t i = 0; i < requests.size(); ++i) {
    const size_t index = table->ShardFor(requests[i].user_id);
    const bool alive = index < shards.size() && shards[index] != nullptr;
    if (auto shed = Enter(requests[i], index, alive, sink, &hops[i])) {
      responses[i] = std::move(*shed);
      continue;
    }
    requests[i].trace_context = hops[i].context;
    by_shard[index].push_back(i);
  }

  // Fan out: every shard's sub-batch submits to its own worker pool
  // before any result is awaited, so shards run concurrently.
  std::vector<std::pair<size_t, std::vector<std::future<PersonalizationResponse>>>>
      inflight;
  inflight.reserve(by_shard.size());
  for (auto& [index, request_indexes] : by_shard) {
    std::vector<PersonalizationRequest> sub;
    sub.reserve(request_indexes.size());
    for (size_t i : request_indexes) sub.push_back(std::move(requests[i]));
    inflight.emplace_back(index,
                          shards[index]->PersonalizeBatch(std::move(sub)));
  }
  for (auto& [index, futures] : inflight) {
    const std::vector<size_t>& request_indexes = by_shard[index];
    for (size_t j = 0; j < futures.size(); ++j) {
      responses[request_indexes[j]] = futures[j].get();
    }
  }
  for (size_t i = 0; i < hops.size(); ++i) {
    Leave(&hops[i], responses[i], sink);
  }
  return responses;
}

Status ShardedPersonalizationService::RouteMutation(
    const std::string& user_id,
    const std::function<Status(PersonalizationService&)>& apply) {
  metric_mutations_->Add(1);
  if (Status fault = QP_FAULT_POINT("shard.route"); !fault.ok()) {
    metric_shed_->Add(1);
    return Status::Unavailable("shard routing failed: " + fault.message());
  }
  const size_t partition = PartitionFor(user_id);
  // The partition mutex spans route + apply: this partition's drain-and-
  // cutover barrier excludes us, so the owner read below stays the owner
  // for the whole mutation — a cutover can never strand an acknowledged
  // write on the losing shard.
  std::lock_guard<std::mutex> guard(partitions_[partition]->mutex);
  std::shared_ptr<PersonalizationService> owner_svc;
  size_t owner = 0;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    owner = routing_->owner[partition];
    owner_svc = owner < slots_.size() ? slots_[owner] : nullptr;
  }
  if (owner_svc == nullptr) {
    metric_shed_->Add(1);
    return Status::Unavailable("shard " + std::to_string(owner) + " is down");
  }
  QP_RETURN_IF_ERROR(apply(*owner_svc));
  owner_svc->InvalidateUserSelections(user_id);
  return Status::Ok();
}

Status ShardedPersonalizationService::PutProfile(const std::string& user_id,
                                                 UserProfile profile) {
  return RouteMutation(user_id, [&](PersonalizationService& svc) {
    return svc.profiles().Put(user_id, profile);
  });
}

Status ShardedPersonalizationService::UpsertProfile(
    const std::string& user_id,
    const std::vector<AtomicPreference>& preferences) {
  return RouteMutation(user_id, [&](PersonalizationService& svc) {
    return svc.profiles().Upsert(user_id, preferences);
  });
}

Status ShardedPersonalizationService::RemoveProfile(
    const std::string& user_id) {
  return RouteMutation(user_id, [&](PersonalizationService& svc) {
    return svc.profiles().Remove(user_id);
  });
}

Result<ProfileSnapshot> ShardedPersonalizationService::GetProfile(
    const std::string& user_id) {
  const uint64_t version = routing_version();
  size_t index = 0;
  auto shard = Route(user_id, &index);
  if (shard == nullptr) {
    return Status::Unavailable("shard " + std::to_string(index) + " is down");
  }
  auto result = shard->profiles().Get(user_id);
  if (result.ok() || result.status().code() != StatusCode::kNotFound) {
    return result;
  }
  // NotFound could mean a cutover moved the user between our route and
  // the read. Reads stay lock-free; one retry under the new version
  // closes the window (the source's copies outlive the flip briefly, so
  // the user is never unreadable — at worst found on the new owner).
  if (routing_version() == version) return result;
  shard = Route(user_id, &index);
  if (shard == nullptr) {
    return Status::Unavailable("shard " + std::to_string(index) + " is down");
  }
  return shard->profiles().Get(user_id);
}

Status ShardedPersonalizationService::KillShard(size_t index) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  std::shared_ptr<PersonalizationService> victim;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (index >= slots_.size()) {
      return Status::InvalidArgument("no shard " + std::to_string(index));
    }
    victim = std::move(slots_[index]);
    slots_[index] = nullptr;
  }
  if (victim == nullptr) return Status::Ok();  // Already down.
  metric_kills_->Add(1);
  // Fence, then forget, outside the routing lock: a request or migration
  // step may still hold the victim, so its store closes here — waiting
  // out the mutations already under their stripes and refusing the rest
  // — before RecoverShard may replay the same directory. The final
  // release of the service drains its worker pool.
  (void)victim->profiles().Close();
  return Status::Ok();
}

Status ShardedPersonalizationService::RecoverShard(size_t index) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (index >= slots_.size()) {
      return Status::InvalidArgument("no shard " + std::to_string(index));
    }
    if (slots_[index] != nullptr) return Status::Ok();  // Already alive.
  }
  // Recovery (snapshot + WAL replay) runs outside the routing lock — the
  // other shards keep serving while this one rebuilds.
  QP_ASSIGN_OR_RETURN(std::shared_ptr<PersonalizationService> reopened,
                      OpenShard(index));
  std::unique_lock<std::shared_mutex> lock(mutex_);
  slots_[index] = std::move(reopened);
  metric_recoveries_->Add(1);
  return Status::Ok();
}

Status ShardedPersonalizationService::PersistRouting(
    const RoutingTable& table) {
  FileSystem* fs = options_.service.storage.fs != nullptr
                       ? options_.service.storage.fs
                       : DefaultFileSystem();
  return WriteRoutingTable(fs, options_.dir, table);
}

void ShardedPersonalizationService::InstallRouting(RoutingTable table) {
  gauge_routing_version_->SetMax(static_cast<double>(table.version));
  std::unique_lock<std::shared_mutex> lock(mutex_);
  routing_ = std::make_shared<const RoutingTable>(std::move(table));
}

Status ShardedPersonalizationService::CommitRoutingChange(
    const std::function<void(RoutingTable&)>& edit) {
  // Serialized read-edit-persist-install: concurrent cutovers of
  // different partitions each see the other's committed flip.
  std::lock_guard<std::mutex> serialize(routing_write_mutex_);
  RoutingTable next = *RoutingSnapshot();
  edit(next);
  next.version += 1;
  QP_RETURN_IF_ERROR(PersistRouting(next));
  InstallRouting(std::move(next));
  return Status::Ok();
}

Status ShardedPersonalizationService::JournalAdd(
    const MigrationJournalEntry& entry) {
  std::lock_guard<std::mutex> guard(journal_mutex_);
  QP_RETURN_IF_ERROR(QP_FAULT_POINT("migrate.journal"));
  std::vector<MigrationJournalEntry> next = journal_;
  bool replaced = false;
  for (MigrationJournalEntry& existing : next) {
    if (existing.partition == entry.partition) {
      existing = entry;
      replaced = true;
    }
  }
  if (!replaced) next.push_back(entry);
  FileSystem* fs = options_.service.storage.fs != nullptr
                       ? options_.service.storage.fs
                       : DefaultFileSystem();
  QP_RETURN_IF_ERROR(WriteMigrationJournal(fs, options_.dir, next));
  journal_ = std::move(next);
  return Status::Ok();
}

Status ShardedPersonalizationService::JournalRemove(uint32_t partition) {
  std::lock_guard<std::mutex> guard(journal_mutex_);
  QP_RETURN_IF_ERROR(QP_FAULT_POINT("migrate.journal"));
  std::vector<MigrationJournalEntry> next = journal_;
  next.erase(std::remove_if(next.begin(), next.end(),
                            [partition](const MigrationJournalEntry& entry) {
                              return entry.partition == partition;
                            }),
             next.end());
  if (next.size() == journal_.size()) return Status::Ok();  // Not journaled.
  FileSystem* fs = options_.service.storage.fs != nullptr
                       ? options_.service.storage.fs
                       : DefaultFileSystem();
  QP_RETURN_IF_ERROR(WriteMigrationJournal(fs, options_.dir, next));
  journal_ = std::move(next);
  return Status::Ok();
}

Status ShardedPersonalizationService::ResolveJournal() {
  std::vector<MigrationJournalEntry> entries;
  {
    std::lock_guard<std::mutex> guard(journal_mutex_);
    entries = journal_;
  }
  for (const MigrationJournalEntry& entry : entries) {
    auto table = RoutingSnapshot();
    if (entry.partition >= table->owner.size()) {
      // A journal from a different layout; nothing it names can route.
      QP_RETURN_IF_ERROR(JournalRemove(entry.partition));
      continue;
    }
    // The persisted routing table decides: if the cutover committed the
    // target owns the partition and the source still holds dead copies
    // (finish the cleanup the crash interrupted); otherwise the
    // migration never happened and the target holds a partial copy
    // (drop it). Either way every user ends with exactly one owner.
    const bool committed = table->owner[entry.partition] == entry.target;
    const uint32_t loser = committed ? entry.source : entry.target;
    if (loser != table->owner[entry.partition]) {
      QP_RETURN_IF_ERROR(RemovePartitionUsers(entry.partition, loser));
    }
    QP_RETURN_IF_ERROR(JournalRemove(entry.partition));
  }
  return Status::Ok();
}

Status ShardedPersonalizationService::RemovePartitionUsers(uint32_t partition,
                                                           uint32_t shard) {
  auto svc = Shard(shard);
  if (svc == nullptr) {
    return Status::Unavailable("shard " + std::to_string(shard) + " is down");
  }
  const std::vector<std::string> users = svc->profiles().Users();
  for (const std::string& user : users) {
    if (PartitionFor(user) != partition) continue;
    Status removed = svc->profiles().Remove(user);
    if (!removed.ok() && removed.code() != StatusCode::kNotFound) {
      return removed;
    }
    svc->InvalidateUserSelections(user);
  }
  return Status::Ok();
}

Status ShardedPersonalizationService::Reshard(size_t new_num_shards) {
  std::lock_guard<std::mutex> serialize(reshard_mutex_);
  if (new_num_shards == 0) {
    return Status::InvalidArgument("cannot reshard to zero shards");
  }
  auto current = RoutingSnapshot();
  QP_ASSIGN_OR_RETURN(RoutingTable plan,
                      PlanReshard(*current, new_num_shards));
  migrator_->gauge_resharding_->Set(1.0);
  // The reshard operation trace: one "reshard" span the per-partition
  // migration traces link under (they share its trace_id and parent
  // their roots at this span). Control-plane operations are rare and
  // always interesting, so they bypass head sampling.
  obs::RequestTrace op_trace;
  const size_t op_span = op_trace.StartSpan("reshard");
  op_trace.AddCounter(op_span, "from_shards", current->num_shards);
  op_trace.AddCounter(op_span, "to_shards", new_num_shards);
  const obs::TraceContext op_context = op_trace.ContextForSpan(op_span);
  Status status = [&]() -> Status {
    if (new_num_shards > current->num_shards) {
      // Grow: open the new shard directories first so migrations have
      // live targets, then commit the count, then move partitions.
      for (size_t i = current->num_shards; i < new_num_shards; ++i) {
        std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
        {
          std::shared_lock<std::shared_mutex> lock(mutex_);
          if (i < slots_.size() && slots_[i] != nullptr) continue;
        }
        QP_ASSIGN_OR_RETURN(std::shared_ptr<PersonalizationService> opened,
                            OpenShard(i));
        std::unique_lock<std::shared_mutex> lock(mutex_);
        if (slots_.size() < i + 1) slots_.resize(i + 1);
        slots_[i] = std::move(opened);
      }
      QP_RETURN_IF_ERROR(CommitRoutingChange(
          [&](RoutingTable& t) { t.num_shards = new_num_shards; }));
      return migrator_->MigrateTo(plan, op_context);
    }
    if (new_num_shards < current->num_shards) {
      // Shrink: move every partition off the retiring shards first; the
      // count (and the teardown) commit only when nothing routes there.
      QP_RETURN_IF_ERROR(migrator_->MigrateTo(plan, op_context));
      // A migration whose source cleanup or journal removal failed still
      // reported success and left its journal entry, which may name a
      // shard about to retire. Resolve every entry while that shard is
      // still open (this call is the only migration driver, so none is in
      // flight): an entry outliving its shard would fail the next Open.
      QP_RETURN_IF_ERROR(ResolveJournal());
      auto table = RoutingSnapshot();
      for (uint32_t p = 0; p < table->owner.size(); ++p) {
        if (table->owner[p] >= new_num_shards) {
          return Status::FailedPrecondition(
              "partition " + std::to_string(p) + " still routes to shard " +
              std::to_string(table->owner[p]) + "; reshard incomplete");
        }
      }
      QP_RETURN_IF_ERROR(CommitRoutingChange(
          [&](RoutingTable& t) { t.num_shards = new_num_shards; }));
      std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
      std::vector<std::shared_ptr<PersonalizationService>> retired;
      {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        for (size_t i = new_num_shards; i < slots_.size(); ++i) {
          retired.push_back(std::move(slots_[i]));
        }
        slots_.resize(new_num_shards);
      }
      // Retired (empty) stores are fenced like killed ones, outside the
      // routing lock, before a later grow may reopen their directories.
      for (const auto& service : retired) {
        if (service != nullptr) (void)service->profiles().Close();
      }
      return Status::Ok();
    }
    // Same count: still converge ownership (a re-run after a partial
    // failure finishes the leftover moves).
    return migrator_->MigrateTo(plan, op_context);
  }();
  migrator_->gauge_resharding_->Set(0.0);
  op_trace.EndSpan(op_span);
  op_trace.SetDisposition(status.ok() ? "resharded" : "reshard_failed",
                          /*stopped_phase=*/"");
  obs::RecordTraceSummary(op_trace);
  if (obs::TraceSink* sink = trace_sink_.load(std::memory_order_acquire)) {
    sink->Consume(std::move(op_trace));
  }
  return status;
}

MigrationStats ShardedPersonalizationService::migration_stats() const {
  return migrator_->stats();
}

std::shared_ptr<const obs::RequestTrace>
ShardedPersonalizationService::last_migration_trace() const {
  return migrator_->last_trace();
}

bool ShardedPersonalizationService::IsShardAlive(size_t index) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return index < slots_.size() && slots_[index] != nullptr;
}

size_t ShardedPersonalizationService::alive_shards() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  size_t alive = 0;
  for (const auto& slot : slots_) {
    if (slot != nullptr) ++alive;
  }
  return alive;
}

std::shared_ptr<PersonalizationService> ShardedPersonalizationService::Shard(
    size_t index) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return index < slots_.size() ? slots_[index] : nullptr;
}

ShardedStats ShardedPersonalizationService::stats() const {
  ShardedStats stats;
  stats.router.requests = metric_requests_->Value();
  stats.router.mutations = metric_mutations_->Value();
  stats.router.shed = metric_shed_->Value();
  stats.router.shard_kills = metric_kills_->Value();
  stats.router.shard_recoveries = metric_recoveries_->Value();
  stats.num_partitions = partitions_.size();
  stats.migration = migrator_->stats();
  std::vector<std::shared_ptr<PersonalizationService>> shards;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    stats.routing_version = routing_->version;
    shards = slots_;
  }
  stats.shards.resize(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    stats.shards[i].shard_id = i;
    stats.shards[i].alive = shards[i] != nullptr;
    if (shards[i] != nullptr) stats.shards[i].stats = shards[i]->stats();
  }
  return stats;
}

void ShardedPersonalizationService::set_trace_sink(obs::TraceSink* sink) {
  trace_sink_.store(sink, std::memory_order_release);
  std::vector<std::shared_ptr<PersonalizationService>> shards;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    shards = slots_;
  }
  for (const auto& shard : shards) {
    if (shard != nullptr) shard->set_trace_sink(sink);
  }
}

}  // namespace shard
}  // namespace qp
