#include "qp/shard/shard_migrator.h"

#include <algorithm>
#include <mutex>
#include <utility>
#include <vector>

#include "qp/obs/flight_recorder.h"
#include "qp/obs/trace.h"
#include "qp/shard/sharded_service.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/util/fault_hub.h"

namespace qp {
namespace shard {

namespace {

/// How many times a migration restarts its copy phase after the source's
/// WAL rotated past the tail watermark (a checkpoint during migration)
/// before giving up.
constexpr int kMaxCopyRestarts = 3;

}  // namespace

ShardMigrator::ShardMigrator(ShardedPersonalizationService* cluster,
                             MigrationOptions options,
                             obs::MetricsRegistry* metrics)
    : cluster_(cluster),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : Clock::Real()) {
  metric_migrated_ = metrics->counter("qp_migrate_partitions_total");
  metric_aborted_ = metrics->counter("qp_migrate_aborts_total");
  metric_users_copied_ = metrics->counter("qp_migrate_users_copied_total");
  metric_tail_records_ = metrics->counter("qp_migrate_tail_records_total");
  metric_retries_ = metrics->counter("qp_migrate_retries_total");
  metric_copy_restarts_ = metrics->counter("qp_migrate_copy_restarts_total");
  gauge_active_ = metrics->gauge("qp_migrate_active");
  gauge_resharding_ = metrics->gauge("qp_migrate_resharding");
  metric_partition_seconds_ =
      metrics->histogram("qp_migrate_partition_seconds");
}

MigrationStats ShardMigrator::stats() const {
  MigrationStats stats;
  stats.partitions_migrated = metric_migrated_->Value();
  stats.partitions_aborted = metric_aborted_->Value();
  stats.users_copied = metric_users_copied_->Value();
  stats.tail_records = metric_tail_records_->Value();
  stats.retries = metric_retries_->Value();
  stats.copy_restarts = metric_copy_restarts_->Value();
  stats.active = static_cast<uint64_t>(gauge_active_->Value());
  stats.resharding = gauge_resharding_->Value() != 0.0;
  return stats;
}

Status ShardMigrator::WithRetries(const char* what,
                                  const std::function<Status()>& step) {
  const int attempts = std::max(1, options_.max_attempts);
  std::chrono::milliseconds backoff = options_.backoff;
  Status status;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      metric_retries_->Add(1);
      clock_->SleepFor(
          std::chrono::duration_cast<std::chrono::nanoseconds>(backoff));
      backoff = std::min(backoff * 2, options_.backoff_max);
    }
    status = step();
    if (status.ok()) return status;
    // A tail that fell off the rotated WAL cannot succeed by retrying —
    // the caller restarts its copy phase instead.
    if (status.code() == StatusCode::kOutOfRange) return status;
  }
  return Status(status.code(), std::string(what) + " failed after " +
                                   std::to_string(attempts) +
                                   " attempts: " + status.message());
}

Status ShardMigrator::CopyUser(const std::string& user_id, uint32_t source,
                               uint32_t target) {
  QP_RETURN_IF_ERROR(QP_FAULT_POINT("migrate.copy"));
  auto source_svc = cluster_->Shard(source);
  auto target_svc = cluster_->Shard(target);
  if (source_svc == nullptr) {
    return Status::Unavailable("source shard " + std::to_string(source) +
                               " is down");
  }
  if (target_svc == nullptr) {
    return Status::Unavailable("target shard " + std::to_string(target) +
                               " is down");
  }
  // Peek, not Get: paging every copied user in would evict the source's
  // hot set, partitions that stay put included.
  auto profile_or = source_svc->profiles().Peek(user_id);
  if (!profile_or.ok()) {
    if (profile_or.status().code() == StatusCode::kNotFound) {
      // Removed since we enumerated: make the target agree.
      Status removed = target_svc->profiles().Remove(user_id);
      if (removed.code() == StatusCode::kNotFound) return Status::Ok();
      return removed;
    }
    return profile_or.status();
  }
  return target_svc->profiles().Put(user_id, std::move(profile_or).value());
}

Status ShardMigrator::CopyPhase(uint32_t partition, uint32_t source,
                                uint32_t target, uint64_t* watermark,
                                obs::RequestTrace* trace) {
  auto source_svc = cluster_->Shard(source);
  if (source_svc == nullptr) {
    return Status::Unavailable("source shard " + std::to_string(source) +
                               " is down");
  }
  // The target does not own the partition, so nothing it holds for it
  // was acknowledged there: a previous copy whose abort could not clean
  // up, a copy this migration made before the source's WAL rotated, or a
  // retired shard's leftovers that a grow reopened. The enumeration
  // below alone decides what the target holds.
  QP_RETURN_IF_ERROR(WithRetries("copy cleanup", [&] {
    return cluster_->RemovePartitionUsers(partition, target);
  }));
  // Watermark before enumerating: every mutation acknowledged after it
  // is replayed by the tail, every state at or before it is captured by
  // the per-user copies below (a copy races only with mutations the
  // tail will replay anyway — replay is idempotent). A mutation takes
  // its seqno before its profile reaches the memory the copies read, so
  // one in flight here would count toward the watermark yet be missing
  // from its copy; reading the watermark under the partition's mutex,
  // which mutators hold across their apply, waits such a mutation out.
  {
    std::lock_guard<std::mutex> quiesce(
        cluster_->partitions_[partition]->mutex);
    *watermark = source_svc->profiles().storage_stats().last_appended_seqno;
  }
  const std::vector<std::string> users = source_svc->profiles().Users();
  uint64_t copied = 0;
  for (const std::string& user : users) {
    if (cluster_->PartitionFor(user) != partition) continue;
    QP_RETURN_IF_ERROR(WithRetries(
        "copy", [&] { return CopyUser(user, source, target); }));
    ++copied;
  }
  metric_users_copied_->Add(copied);
  if (trace != nullptr) {
    const size_t span = trace->StartSpan("copy_accounting");
    trace->AddCounter(span, "users_copied", copied);
    trace->EndSpan(span);
  }
  return Status::Ok();
}

Status ShardMigrator::TailRound(uint32_t partition, uint32_t source,
                                uint32_t target, uint64_t* applied,
                                bool* caught_up) {
  *caught_up = false;
  QP_RETURN_IF_ERROR(QP_FAULT_POINT("migrate.tail"));
  auto source_svc = cluster_->Shard(source);
  auto target_svc = cluster_->Shard(target);
  if (source_svc == nullptr) {
    return Status::Unavailable("source shard " + std::to_string(source) +
                               " is down");
  }
  if (target_svc == nullptr) {
    return Status::Unavailable("target shard " + std::to_string(target) +
                               " is down");
  }
  // The head observed before the read bounds this round: co-located
  // partitions keep appending to the shared WAL, so an empty tail is
  // not the only termination condition — reaching the pre-read head is
  // enough (every record of the migrating partition at or below it has
  // been replayed; under the drain barrier none can be in flight).
  const uint64_t head =
      source_svc->profiles().storage_stats().last_appended_seqno;
  QP_ASSIGN_OR_RETURN(std::vector<storage::WalTailRecord> records,
                      source_svc->profiles().ReadMutationsAfter(*applied));
  for (const storage::WalTailRecord& record : records) {
    if (cluster_->PartitionFor(record.mutation.user_id) == partition) {
      QP_RETURN_IF_ERROR(QP_FAULT_POINT("migrate.apply"));
      // Remove of a user the target never saw is clean: the tail may
      // replay a create+remove pair whose create landed in the copy
      // phase already.
      Status applied = target_svc->profiles().Apply(record.mutation);
      if (!applied.ok() && applied.code() != StatusCode::kNotFound) {
        return applied;
      }
      metric_tail_records_->Add(1);
    }
    // Only past a successfully applied (or skipped foreign) record: a
    // transient apply failure must retry from this record, not after it
    // — advancing first would silently drop an acknowledged mutation.
    *applied = record.seqno;
  }
  *caught_up = records.empty() || *applied >= head;
  return Status::Ok();
}

Status ShardMigrator::Abort(uint32_t partition, uint32_t source,
                            uint32_t target, Status cause) {
  (void)source;  // The source keeps serving untouched — nothing to undo.
  metric_aborted_->Add(1);
  // Drop the partial copy. If the target is unreachable the journal
  // entry stays behind on purpose: reopen resolution sees routing still
  // naming the source and drops the partial copy then.
  Status cleanup = WithRetries("abort cleanup", [&] {
    return cluster_->RemovePartitionUsers(partition, target);
  });
  if (cleanup.ok()) {
    Status journal = WithRetries(
        "journal remove", [&] { return cluster_->JournalRemove(partition); });
    (void)journal;  // Reopen resolution is idempotent on a stale entry.
  }
  return cause;
}

Status ShardMigrator::MigratePartition(uint32_t partition, uint32_t target,
                                       const obs::TraceContext& parent) {
  auto table = cluster_->RoutingSnapshot();
  if (partition >= table->owner.size()) {
    return Status::InvalidArgument("no partition " + std::to_string(partition));
  }
  const uint32_t source = table->owner[partition];
  if (source == target) return Status::Ok();

  const int64_t start_ns = clock_->NowNanos();
  gauge_active_->Add(1.0);
  obs::TraceSink* sink = cluster_->trace_sink_.load(std::memory_order_acquire);
  // The migration's own trace, always built (migrations are rare and the
  // span record is the post-mortem): a fragment of the owning Reshard
  // operation when `parent` is valid, standalone otherwise. Retained as
  // last_trace() for \migrations even when no sink is attached.
  obs::RequestTrace trace(parent);
  obs::RequestTrace* tp = &trace;
  // State-machine transitions land in the flight recorder with the
  // trace id, so a chaos post-mortem can line a fault fire up against
  // the phase the partition was in when it hit.
  auto phase_event = [&](const char* name) {
    obs::RecordFlightEvent(obs::FlightEventType::kMigrationPhase, name,
                           /*detail=*/"", partition, target,
                           trace.trace_id());
  };
  auto finish = [&](Status status) {
    gauge_active_->Add(-1.0);
    metric_partition_seconds_->Record(
        static_cast<double>(clock_->NowNanos() - start_ns) / 1e9);
    phase_event(status.ok() ? "migrated" : "aborted");
    trace.SetDisposition(status.ok() ? "migrated" : "migration_aborted",
                         /*stopped_phase=*/"");
    obs::RecordTraceSummary(trace);
    auto retained =
        std::make_shared<const obs::RequestTrace>(std::move(trace));
    {
      std::lock_guard<std::mutex> guard(last_trace_mutex_);
      last_trace_ = retained;
    }
    if (sink != nullptr) sink->Consume(*retained);
    return status;
  };

  // Journal the intent before anything moves: a crash from here on
  // resolves deterministically at reopen.
  Status journaled = WithRetries("journal add", [&] {
    return cluster_->JournalAdd({partition, source, target});
  });
  if (!journaled.ok()) {
    metric_aborted_->Add(1);
    return finish(journaled);
  }

  phase_event("copying");

  uint64_t applied = 0;
  int restarts = 0;
  Status status;
  for (;;) {
    {
      obs::ScopedSpan span(tp, "migrate_copy");
      status = CopyPhase(partition, source, target, &applied, tp);
    }
    if (!status.ok()) return finish(Abort(partition, source, target, status));
    phase_event("tailing");
    bool caught_up = false;
    {
      obs::ScopedSpan span(tp, "migrate_tail");
      do {
        status = WithRetries("tail", [&] {
          return TailRound(partition, source, target, &applied, &caught_up);
        });
      } while (status.ok() && !caught_up);
    }
    if (status.ok()) break;
    if (status.code() == StatusCode::kOutOfRange &&
        restarts < kMaxCopyRestarts) {
      // The source checkpointed the tail away (WAL rotated); start the
      // copy phase over from a fresh watermark. The rotated records may
      // include removes the first pass's copies now shadow; the copy
      // phase drops that partial copy before it enumerates again.
      ++restarts;
      metric_copy_restarts_->Add(1);
      applied = 0;
      phase_event("copy_restart");
      continue;
    }
    return finish(Abort(partition, source, target, status));
  }

  // Barrier: block the partition's mutators, drain the last of the
  // tail, then persist the owner flip — the atomic commit point — under
  // the same hold. The target equals the source at the flip, and no
  // mutation of the partition runs between the drain and the commit;
  // mutators blocked here resume against the new owner.
  {
    std::unique_lock<std::mutex> barrier(
        cluster_->partitions_[partition]->mutex);
    {
      obs::ScopedSpan span(tp, "migrate_drain");
      bool caught_up = false;
      do {
        status = WithRetries("final drain", [&] {
          return TailRound(partition, source, target, &applied, &caught_up);
        });
      } while (status.ok() && !caught_up);
    }
    if (status.ok()) {
      obs::ScopedSpan span(tp, "migrate_cutover");
      status = WithRetries("cutover commit", [&] {
        QP_RETURN_IF_ERROR(QP_FAULT_POINT("migrate.cutover"));
        return cluster_->CommitRoutingChange(
            [&](RoutingTable& t) { t.owner[partition] = target; });
      });
    }
    if (!status.ok()) {
      barrier.unlock();
      return finish(Abort(partition, source, target, status));
    }
  }
  phase_event("cutover_committed");

  // Cleanup outside the barrier: the partition serves from the target
  // now; the source's leftover copies are garbage. A failure here keeps
  // the journal entry for ResolveJournal to finish the job: at the next
  // Open, or — when a shrink retires the source — before the retire.
  {
    obs::ScopedSpan span(tp, "migrate_cleanup");
    Status cleanup = WithRetries("source cleanup", [&] {
      return cluster_->RemovePartitionUsers(partition, source);
    });
    if (cleanup.ok()) {
      Status journal = WithRetries(
          "journal remove", [&] { return cluster_->JournalRemove(partition); });
      (void)journal;
    }
  }
  metric_migrated_->Add(1);
  return finish(Status::Ok());
}

Status ShardMigrator::MigrateTo(const RoutingTable& plan,
                                const obs::TraceContext& parent) {
  auto current = cluster_->RoutingSnapshot();
  if (plan.owner.size() != current->owner.size()) {
    return Status::InvalidArgument(
        "plan has " + std::to_string(plan.owner.size()) + " partitions, " +
        "cluster has " + std::to_string(current->owner.size()));
  }
  Status first_error;
  for (uint32_t p = 0; p < plan.owner.size(); ++p) {
    auto table = cluster_->RoutingSnapshot();
    if (table->owner[p] == plan.owner[p]) continue;
    Status status = MigratePartition(p, plan.owner[p], parent);
    if (!status.ok() && first_error.ok()) {
      first_error = Status(status.code(), "partition " + std::to_string(p) +
                                              ": " + status.message());
    }
  }
  return first_error;
}

std::shared_ptr<const obs::RequestTrace> ShardMigrator::last_trace() const {
  std::lock_guard<std::mutex> guard(last_trace_mutex_);
  return last_trace_;
}

}  // namespace shard
}  // namespace qp
