#include "qp/storage/scrub.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "qp/graph/personalization_graph.h"
#include "qp/obs/flight_recorder.h"
#include "qp/obs/trace.h"
#include "qp/storage/durable_profile_store.h"
#include "qp/storage/record.h"
#include "qp/storage/snapshot.h"
#include "qp/storage/wal.h"
#include "qp/util/file.h"

namespace qp {
namespace storage {

namespace {

Status BadDegree(const std::string& what, double doi) {
  return Status::Internal(what + " has degree " + std::to_string(doi) +
                          " outside (0, 1]");
}

/// |doi| must sit in (0, 1]: zero-valued preferences are never stored,
/// and any edge degree above 1 would let a preference path's implicit
/// degree f(D) — the product of its edge degrees — exceed min(D).
bool DegreeInRange(double doi) {
  return std::isfinite(doi) && doi != 0.0 && std::fabs(doi) <= 1.0;
}

}  // namespace

Status CheckProfileInvariants(const Schema& schema, const UserProfile& profile,
                              const PersonalizationGraph* graph) {
  // The standing validation first, the one a store ran before accepting
  // the profile: degrees obey Add's rules, attributes exist, literal
  // types match, join preferences correspond to declared schema joins.
  QP_RETURN_IF_ERROR(profile.Validate(schema));
  if (graph == nullptr) {
    return Status::Internal("profile has no personalization graph");
  }
  // Every graph edge must carry an in-range degree too — the graph is
  // derived state and can rot independently of the profile it mirrors.
  for (const TableSchema& table : schema.tables()) {
    for (const JoinEdge& edge : graph->JoinsFrom(table.name())) {
      if (!DegreeInRange(edge.doi) || edge.doi < 0.0) {
        return BadDegree("join edge " + edge.ToString(), edge.doi);
      }
    }
    for (const SelectionEdge& edge : graph->SelectionsOn(table.name())) {
      if (!DegreeInRange(edge.doi) || edge.doi < 0.0) {
        return BadDegree("selection edge " + edge.ToString(), edge.doi);
      }
    }
    for (const SelectionEdge& edge : graph->NegativeSelectionsOn(table.name())) {
      if (!DegreeInRange(edge.doi) || edge.doi > 0.0) {
        return BadDegree("negative selection edge " + edge.ToString(),
                         edge.doi);
      }
    }
  }
  // The graph must actually mirror the profile: Build copies every
  // preference onto exactly one edge, so a count mismatch means the two
  // halves of the snapshot are out of sync (a torn in-memory update).
  const size_t graph_selections =
      graph->num_selection_edges() + graph->num_negative_selection_edges();
  if (graph->num_join_edges() != profile.NumJoins() ||
      graph_selections != profile.NumSelections()) {
    return Status::Internal(
        "personalization graph out of sync with profile: graph has " +
        std::to_string(graph->num_join_edges()) + " join / " +
        std::to_string(graph_selections) + " selection edges, profile has " +
        std::to_string(profile.NumJoins()) + " / " +
        std::to_string(profile.NumSelections()));
  }
  return Status::Ok();
}

Status DurableProfileStore::ScrubOnce(ScrubReport* report,
                                      obs::RequestTrace* trace) {
  ScrubReport local;
  if (report == nullptr) report = &local;
  *report = ScrubReport{};
  {
    std::lock_guard<std::mutex> meta(meta_mutex_);
    if (closed_) return Status::FailedPrecondition("store is closed");
  }
  obs::ScopedSpan span(trace, "scrub");
  if (durable()) ScrubDisk(report, trace);
  ScrubMemory(report, trace);

  inst_.scrubs->Add(1);
  const uint64_t found =
      report->disk_corruptions + report->invariant_violations;
  inst_.scrub_corruptions->Add(found);
  {
    std::lock_guard<std::mutex> lock(scrub_error_mutex_);
    last_scrub_error_ = report->first_error;
  }
  span.Counter("wal_frames_verified", report->wal_frames_verified);
  span.Counter("corruptions", found);
  span.Counter("quarantined", report->quarantined);
  span.Counter("repaired", report->repaired);
  return Status::Ok();
}

void DurableProfileStore::ScrubDisk(ScrubReport* report,
                                    obs::RequestTrace* trace) {
  obs::ScopedSpan span(trace, "scrub_disk");
  bool need_repair = false;
  std::string failure;
  {
    std::lock_guard<std::mutex> meta(meta_mutex_);
    if (closed_ || wal_ == nullptr) return;
    // Holding meta_mutex_ pins the committed generation: checkpoints
    // cannot rotate the files out from under the read-back. Mutators are
    // unaffected — they append under their stripe lock only.
    if (manifest_.snapshot_file.empty()) {
      report->snapshot_verified = true;  // Fresh store: nothing to verify.
    } else {
      auto loaded =
          LoadSnapshot(fs_, JoinPath(dir_, manifest_.snapshot_file),
                       manifest_.snapshot_bytes, manifest_.snapshot_crc);
      if (!loaded.ok()) {
        ++report->disk_corruptions;
        failure = "snapshot: " + loaded.status().message();
        need_repair = true;
      } else {
        report->snapshot_verified = true;
        for (const LoadedEntry& entry : *loaded) {
          if (entry.profile.ok()) continue;
          // A body that fails on its own inside an intact file was carried
          // over from a generation where it had already rotted. While it
          // is still its user's only copy a rewrite would carry it again,
          // so it is reported, not repaired: that user's loads fail until
          // a Put or Remove replaces it, and the rewrite after that drops
          // it.
          report->snapshot_verified = false;
          ++report->disk_corruptions;
          report->corrupt_users.push_back(entry.user_id);
          if (failure.empty()) {
            failure = "snapshot: " + entry.profile.status().message();
          }
          const ProfileTier::LoadPlan plan = tier_->PlanLoad(entry.user_id);
          if (!plan.alive || !plan.in_snapshot) need_repair = true;
        }
      }
    }
    auto data = fs_->ReadFile(JoinPath(dir_, manifest_.wal_file));
    if (!data.ok()) {
      ++report->disk_corruptions;
      if (failure.empty()) failure = "wal: " + data.status().message();
      need_repair = true;
    } else {
      WalReader reader(*data, manifest_.seqno + 1);
      WalRecord record;
      bool has_record = false;
      for (;;) {
        Status status = reader.Next(&record, &has_record);
        if (!status.ok()) {
          // Mid-log CRC damage. A torn tail is *not* reported here:
          // Next returns OK/has_record=false for it, because with a
          // live writer the tail is simply an append in flight.
          ++report->disk_corruptions;
          if (failure.empty()) failure = "wal: " + status.message();
          need_repair = true;
          break;
        }
        if (!has_record) break;
        ++report->wal_frames_verified;
      }
    }
  }
  if (!failure.empty() && report->first_error.empty()) {
    report->first_error = failure;
  }
  if (!need_repair || !options_.scrub_auto_repair) return;

  // The resident profiles, the tier's overlay and the cold bodies still
  // hold exactly the acknowledged mutations. Writing them out as a fresh
  // snapshot + empty WAL generation (the same rotation a breaker probe
  // runs) replaces the damaged files with an intact committed generation.
  // A cold body the damage hit is that profile's only copy: it is carried
  // over under the checksum it was written with, so the next pass reports
  // it and its user's loads keep failing, while everyone else is served
  // and the next Open succeeds.
  auto locks = LockAllStripes();
  std::lock_guard<std::mutex> meta(meta_mutex_);
  if (closed_) return;
  Status repaired = CheckpointLocked(/*for_recovery=*/true);
  if (repaired.ok()) {
    ++report->repaired;
    inst_.repairs->Add(1);
    obs::RecordFlightEvent(obs::FlightEventType::kRepair,
                           "disk_generation", dir_);
  } else {
    ++report->repair_failures;
    inst_.repair_failures->Add(1);
  }
}

void DurableProfileStore::ScrubMemory(ScrubReport* report,
                                      obs::RequestTrace* trace) {
  obs::ScopedSpan span(trace, "scrub_memory");
  for (const auto& [user_id, snapshot] : AllResident()) {
    Status status =
        CheckProfileInvariants(schema(), *snapshot.profile, snapshot.graph.get());
    if (status.ok()) {
      // A quarantined profile that checks out again (a later Put replaced
      // it, or a repair landed between passes) is released.
      if (IsQuarantined(user_id)) SetQuarantined(user_id, false);
      continue;
    }
    ++report->invariant_violations;
    report->corrupt_users.push_back(user_id);
    if (report->first_error.empty()) {
      report->first_error = user_id + ": " + status.message();
    }
    if (!IsQuarantined(user_id)) {
      SetQuarantined(user_id, true);
      ++report->quarantined;
    }
    if (options_.scrub_auto_repair && durable()) {
      if (RepairUser(user_id).ok()) {
        ++report->repaired;
      } else {
        ++report->repair_failures;
      }
    }
  }
}

Status DurableProfileStore::RepairUser(const std::string& user_id) {
  if (!durable()) {
    return Status::FailedPrecondition(
        "no durable state to repair " + user_id + " from");
  }
  Status status = [&]() -> Status {
    // The user's stripe serializes the repair against that user's
    // mutators and cold loads, so the plan read here cannot be
    // overwritten by a concurrent Put that our stale re-install would
    // then clobber; it also pins the committed snapshot the plan points
    // into (checkpoints rotate it only under every stripe).
    Stripe& stripe = StripeFor(user_id);
    std::lock_guard<std::mutex> writer(stripe.writer);
    if (closed_) return Status::FailedPrecondition("store is closed");
    // Durable truth is what a cold load would page in: the user's
    // checksummed snapshot body plus the logged overlay.
    const ProfileTier::LoadPlan plan = tier_->PlanLoad(user_id);
    if (!plan.alive) {
      // The tier holds no such user; absence is the repair.
      Drop(stripe, user_id);
      return Status::Ok();
    }
    QP_ASSIGN_OR_RETURN(UserProfile rebuilt, BuildFromPlan(plan));
    // Validated install: rebuilds the graph, bumps the epoch (caches
    // notice), never touches the WAL — the repaired state *is* the
    // replay of what is already logged.
    QP_ASSIGN_OR_RETURN(ProfileSnapshot prepared,
                        Prepare(std::move(rebuilt)));
    Install(stripe, user_id, std::move(prepared));
    tier_->Touch(user_id);
    EvictOverBudget();
    return Status::Ok();
  }();
  if (status.ok()) {
    SetQuarantined(user_id, false);
    inst_.repairs->Add(1);
  } else {
    inst_.repair_failures->Add(1);
  }
  return status;
}

bool DurableProfileStore::IsQuarantined(const std::string& user_id) const {
  if (quarantine_count_.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  return quarantined_.count(user_id) != 0;
}

std::vector<std::string> DurableProfileStore::QuarantinedUsers() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(quarantine_mutex_);
    out.assign(quarantined_.begin(), quarantined_.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void DurableProfileStore::SetQuarantined(const std::string& user_id,
                                         bool quarantined) {
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  bool changed;
  if (quarantined) {
    changed = quarantined_.insert(user_id).second;
  } else {
    changed = quarantined_.erase(user_id) != 0;
  }
  if (changed) {
    // The chokepoint for every quarantine and release (scrub pass,
    // repair, re-validated profile), so the flight recorder sees the
    // exact transition sequence.
    obs::RecordFlightEvent(quarantined
                               ? obs::FlightEventType::kQuarantine
                               : obs::FlightEventType::kRepair,
                           user_id, dir_);
  }
  quarantine_count_.store(quarantined_.size(), std::memory_order_release);
  inst_.quarantined->Set(static_cast<double>(quarantined_.size()));
}

void DurableProfileStore::CorruptInMemoryForTest(const std::string& user_id,
                                                 UserProfile profile) {
  Stripe& stripe = StripeFor(user_id);
  std::lock_guard<std::mutex> writer(stripe.writer);
  std::unique_lock<std::shared_mutex> lock(stripe.readers);
  ProfileSnapshot& entry = stripe.users[user_id];
  entry.profile = std::make_shared<const UserProfile>(std::move(profile));
  if (entry.graph == nullptr) {
    // A brand-new corrupt entry still needs *a* graph so readers do not
    // dereference null; an empty one matches "graph out of sync with
    // profile", which is exactly what the scrubber must detect.
    entry.graph = std::make_shared<const PersonalizationGraph>(
        PersonalizationGraph::Build(schema_, UserProfile()).value());
  }
  entry.epoch = ++stripe.next_epoch;
}

void DurableProfileStore::ScrubLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(scrub_mutex_);
      // Through the clock seam: tests drive the cadence with a
      // FakeClock's Advance() instead of real elapsed time.
      clock_->WaitFor(scrub_cv_, lock,
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          options_.scrub_interval),
                      [this] { return scrub_kick_ || scrub_stop_; });
      if (scrub_stop_) return;
      scrub_kick_ = false;
    }
    // Findings land in counters/metrics; the pass itself only fails once
    // the store is closed, and Close() stops this thread first.
    ScrubOnce();
  }
}

}  // namespace storage
}  // namespace qp
