#include "qp/storage/durable_profile_store.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "qp/obs/flight_recorder.h"
#include "qp/storage/record.h"
#include "qp/util/fault_hub.h"
#include "qp/util/string_util.h"
#include "qp/util/timer.h"

namespace qp {
namespace storage {

namespace {

/// FaultHub lives in qp_util, which cannot see qp_obs — the hub exposes
/// a bare function-pointer listener slot instead, installed here at
/// static init so every binary linking storage gets fault fires in the
/// flight recorder (the service constructor installs it too, for
/// belt and braces).
[[maybe_unused]] const bool g_fault_listener_installed = [] {
  FaultHub::SetFireListener(&obs::RecordFaultFire);
  return true;
}();

/// Resolves the store's scope once (owning a registry when none was
/// given) and threads it into every WAL writer the store will create, so
/// the store reads back exactly the qp_wal_* series its writers count.
StorageOptions ResolveMetrics(StorageOptions options) {
  options.metrics = options.metrics.OrOwn();
  options.wal.metrics = options.metrics;
  return options;
}

StorageOptions InMemoryOptions(obs::MetricScope metrics) {
  StorageOptions options;
  options.metrics = std::move(metrics);
  return options;
}

}  // namespace

DurableProfileStore::Instruments::Instruments(const obs::MetricScope& scope)
    : mutation_failures(scope.counter("qp_storage_mutation_failures_total")),
      breaker_trips(scope.counter("qp_storage_breaker_trips_total")),
      breaker_probes(scope.counter("qp_storage_breaker_probes_total")),
      breaker_recoveries(scope.counter("qp_storage_breaker_recoveries_total")),
      checkpoints(scope.counter("qp_storage_checkpoints_total")),
      failed_checkpoints(scope.counter("qp_storage_failed_checkpoints_total")),
      scrubs(scope.counter("qp_storage_scrubs_total")),
      scrub_corruptions(scope.counter("qp_storage_scrub_corruptions_total")),
      repairs(scope.counter("qp_storage_repairs_total")),
      repair_failures(scope.counter("qp_storage_repair_failures_total")),
      breaker_open(scope.gauge("qp_storage_breaker_open")),
      quarantined(scope.gauge("qp_storage_quarantined_profiles")),
      recovery_millis(scope.gauge("qp_storage_recovery_millis")),
      snapshot_users_loaded(scope.gauge("qp_storage_snapshot_users_loaded")),
      records_replayed(scope.gauge("qp_storage_records_replayed")),
      torn_bytes_truncated(scope.gauge("qp_storage_torn_bytes_truncated")),
      wal_records(scope.counter("qp_wal_records_appended_total")),
      wal_bytes(scope.counter("qp_wal_bytes_appended_total")),
      wal_fsyncs(scope.counter("qp_wal_fsyncs_total")),
      tier_hot_hits(scope.counter("qp_tier_hot_hits_total")),
      tier_cold_loads(scope.counter("qp_tier_cold_loads_total")),
      tier_evictions(scope.counter("qp_tier_evictions_total")),
      tier_load_failures(scope.counter("qp_tier_load_failures_total")),
      tier_load_seconds(scope.histogram("qp_tier_load_seconds")),
      gets(scope.counter("qp_profile_store_gets_total")),
      get_misses(scope.counter("qp_profile_store_get_misses_total")),
      mutations(scope.counter("qp_profile_store_mutations_total")) {}

DurableProfileStore::DurableProfileStore(const Schema* schema,
                                         obs::MetricScope metrics)
    : DurableProfileStore(schema, InMemoryOptions(std::move(metrics))) {}

DurableProfileStore::DurableProfileStore(const Schema* schema,
                                         StorageOptions options)
    : schema_(schema),
      options_(ResolveMetrics(std::move(options))),
      inst_(options_.metrics),
      fs_(options_.fs != nullptr ? options_.fs : DefaultFileSystem()),
      clock_(options_.clock != nullptr ? options_.clock : Clock::Real()),
      dir_(options_.dir) {
  breaker_backoff_ms_.store(options_.breaker_backoff.count(),
                            std::memory_order_relaxed);
  if (durable()) tier_ = std::make_unique<ProfileTier>(options_.hot_capacity);
  // Both gauges are this store's state, set on every transition; a store
  // reopened under the same labels starts closed and unquarantined.
  inst_.breaker_open->Set(0.0);
  inst_.quarantined->Set(0.0);
}

Result<std::unique_ptr<DurableProfileStore>> DurableProfileStore::Open(
    const Schema* schema, StorageOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument(
        "DurableProfileStore::Open requires a storage directory; use the "
        "plain constructor for an in-memory store");
  }
  std::unique_ptr<DurableProfileStore> store(
      new DurableProfileStore(schema, std::move(options)));
  WallTimer timer;
  uint64_t next_seqno = 1;
  QP_RETURN_IF_ERROR(store->Recover(&next_seqno));
  store->inst_.recovery_millis->Set(timer.ElapsedMillis());
  if (store->options_.compact_threshold_bytes > 0) {
    store->compaction_running_.store(true, std::memory_order_release);
    store->compactor_ = std::thread([s = store.get()] { s->CompactionLoop(); });
  }
  if (store->options_.scrub_interval.count() > 0) {
    store->scrubber_running_.store(true, std::memory_order_release);
    store->scrubber_ = std::thread([s = store.get()] { s->ScrubLoop(); });
  }
  return store;
}

DurableProfileStore::~DurableProfileStore() { Close(); }

Status DurableProfileStore::Recover(uint64_t* next_seqno) {
  QP_RETURN_IF_ERROR(fs_->CreateDir(dir_));

  auto manifest_or = ReadManifest(fs_, dir_);
  if (!manifest_or.ok() &&
      manifest_or.status().code() == StatusCode::kNotFound) {
    // Fresh directory: an empty WAL starting at seqno 1, then the
    // manifest referencing it (in that order, so the manifest never
    // names a file that does not exist).
    manifest_.seqno = 0;
    manifest_.wal_file = WalFileName(1);
    QP_ASSIGN_OR_RETURN(
        std::unique_ptr<WritableFile> file,
        fs_->NewWritableFile(JoinPath(dir_, manifest_.wal_file), true));
    QP_RETURN_IF_ERROR(file->Sync());
    QP_RETURN_IF_ERROR(WriteManifest(fs_, dir_, manifest_));
    wal_ = std::make_unique<WalWriter>(std::move(file), 1, options_.wal);
    *next_seqno = 1;
    return Status::Ok();
  }
  QP_RETURN_IF_ERROR(manifest_or.status());
  manifest_ = std::move(manifest_or).value();

  uint64_t snapshot_users_loaded = 0;
  uint64_t records_replayed = 0;

  // Base state: the snapshot's entry headers. Its checksum is verified
  // against the manifest, but no profile is decoded — each one pages in
  // on its first Get or mutation — so recovery costs one pass over the
  // snapshot bytes plus the log, not a decode and graph build per user.
  if (!manifest_.snapshot_file.empty()) {
    QP_ASSIGN_OR_RETURN(
        auto entries,
        IndexSnapshot(fs_, JoinPath(dir_, manifest_.snapshot_file),
                      manifest_.snapshot_bytes, manifest_.snapshot_crc));
    for (const SnapshotEntry& entry : entries) tier_->NoteSnapshotEntry(entry);
    snapshot_users_loaded = entries.size();
  }

  // Tail state: replay the WAL into the overlay. A torn final record is
  // the expected signature of a crash mid-append and is silently
  // dropped; anything else that fails to verify is real corruption and
  // fails the open.
  std::string wal_path = JoinPath(dir_, manifest_.wal_file);
  std::string wal_content;
  if (auto content_or = fs_->ReadFile(wal_path); content_or.ok()) {
    wal_content = std::move(content_or).value();
  } else if (content_or.status().code() != StatusCode::kNotFound) {
    return content_or.status();
  }
  WalReader reader(wal_content, manifest_.seqno + 1);
  uint64_t last_seqno = manifest_.seqno;
  for (;;) {
    WalRecord record;
    bool has_record = false;
    QP_RETURN_IF_ERROR(reader.Next(&record, &has_record));
    if (!has_record) break;
    QP_ASSIGN_OR_RETURN(ProfileMutation mutation,
                        DecodeMutation(record.payload));
    tier_->NoteLogged(mutation, std::string(record.payload));
    last_seqno = record.seqno;
    ++records_replayed;
  }
  inst_.snapshot_users_loaded->Set(static_cast<double>(snapshot_users_loaded));
  inst_.records_replayed->Set(static_cast<double>(records_replayed));
  inst_.torn_bytes_truncated->Set(static_cast<double>(reader.torn_bytes()));

  // Drop a torn tail without ever truncating the only durable copy of
  // acknowledged records: rebuild the valid prefix in a temp file and
  // atomically rename it over the segment (the same commit pattern as
  // the manifest). Any failure before the rename leaves the original
  // segment fully intact, so a crashed or failed recovery is always
  // retryable. A clean log is not rewritten at all.
  if (reader.torn_bytes() > 0) {
    const std::string tmp = wal_path + ".tmp";
    QP_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> rebuilt,
                        fs_->NewWritableFile(tmp, /*truncate=*/true));
    if (reader.valid_bytes() > 0) {
      QP_RETURN_IF_ERROR(rebuilt->Append(
          std::string_view(wal_content).substr(0, reader.valid_bytes())));
    }
    QP_RETURN_IF_ERROR(rebuilt->Sync());
    QP_RETURN_IF_ERROR(rebuilt->Close());
    QP_RETURN_IF_ERROR(fs_->Rename(tmp, wal_path));
    QP_RETURN_IF_ERROR(fs_->SyncDir(dir_));
  }
  // Reopen the segment for appending, continuing at last_seqno + 1 (the
  // manifest stays as-is — the segment still starts at seqno+1), and
  // fsync once so everything the recovered state was built from is
  // durable before new writes land behind it.
  QP_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                      fs_->NewWritableFile(wal_path, /*truncate=*/false));
  QP_RETURN_IF_ERROR(file->Sync());
  segment_base_bytes_ = reader.valid_bytes();
  wal_ = std::make_unique<WalWriter>(std::move(file), last_seqno + 1,
                                     options_.wal);
  *next_seqno = last_seqno + 1;

  // Sweep leftovers of an interrupted checkpoint: snapshot/WAL files the
  // committed manifest does not reference, and orphaned temp files.
  if (auto names_or = fs_->ListDir(dir_); names_or.ok()) {
    for (const std::string& name : *names_or) {
      bool is_ours = StartsWith(name, "snapshot-") ||
                     StartsWith(name, "wal-") || EndsWith(name, ".tmp");
      bool referenced = name == kManifestName ||
                        name == manifest_.snapshot_file ||
                        name == manifest_.wal_file;
      if (is_ours && !referenced) {
        fs_->RemoveFile(JoinPath(dir_, name));  // Best effort.
      }
    }
  }
  return Status::Ok();
}

DurableProfileStore::Stripe& DurableProfileStore::StripeFor(
    const std::string& user_id) const {
  return stripes_[std::hash<std::string>{}(user_id) % kNumStripes];
}

std::array<std::unique_lock<std::mutex>, DurableProfileStore::kNumStripes>
DurableProfileStore::LockAllStripes() {
  std::array<std::unique_lock<std::mutex>, kNumStripes> locks;
  for (size_t i = 0; i < kNumStripes; ++i) {
    locks[i] = std::unique_lock<std::mutex>(stripes_[i].writer);
  }
  return locks;
}

std::optional<ProfileSnapshot> DurableProfileStore::Resident(
    Stripe& stripe, const std::string& user_id) const {
  std::shared_lock<std::shared_mutex> lock(stripe.readers);
  auto it = stripe.users.find(user_id);
  if (it == stripe.users.end()) return std::nullopt;
  return it->second;
}

std::vector<std::pair<std::string, ProfileSnapshot>>
DurableProfileStore::AllResident() const {
  std::vector<std::pair<std::string, ProfileSnapshot>> out;
  for (Stripe& stripe : stripes_) {
    std::shared_lock<std::shared_mutex> lock(stripe.readers);
    out.insert(out.end(), stripe.users.begin(), stripe.users.end());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

Result<ProfileSnapshot> DurableProfileStore::Prepare(
    UserProfile profile) const {
  QP_ASSIGN_OR_RETURN(PersonalizationGraph graph,
                      PersonalizationGraph::Build(schema_, profile));
  return ProfileSnapshot{
      std::make_shared<const UserProfile>(std::move(profile)),
      std::make_shared<const PersonalizationGraph>(std::move(graph)), 0};
}

ProfileSnapshot DurableProfileStore::Install(Stripe& stripe,
                                             const std::string& user_id,
                                             ProfileSnapshot prepared) {
  std::unique_lock<std::shared_mutex> lock(stripe.readers);
  prepared.epoch = ++stripe.next_epoch;
  ProfileSnapshot& entry = stripe.users[user_id];
  entry = std::move(prepared);
  return entry;
}

void DurableProfileStore::Drop(Stripe& stripe, const std::string& user_id) {
  std::unique_lock<std::shared_mutex> lock(stripe.readers);
  stripe.users.erase(user_id);
}

Result<ProfileSnapshot> DurableProfileStore::Get(const std::string& user_id) {
  inst_.gets->Add(1);
  Result<ProfileSnapshot> snapshot = Lookup(user_id);
  if (snapshot.status().code() == StatusCode::kNotFound) {
    inst_.get_misses->Add(1);
  }
  return snapshot;
}

Result<ProfileSnapshot> DurableProfileStore::Lookup(
    const std::string& user_id) {
  Stripe& stripe = StripeFor(user_id);
  if (auto hit = Resident(stripe, user_id)) {
    if (durable()) {
      inst_.tier_hot_hits->Add(1);
      tier_->NoteHit(user_id);
    }
    return *std::move(hit);
  }
  if (!durable()) return Status::NotFound("unknown user: " + user_id);
  // Cold (or truly absent): the writer mutex serializes the load against
  // mutations of the same user; re-check first — a racing Get may have
  // paged the profile in already.
  std::lock_guard<std::mutex> writer(stripe.writer);
  if (auto hit = Resident(stripe, user_id)) {
    tier_->NoteHit(user_id);
    return *std::move(hit);
  }
  return LoadColdLocked(stripe, user_id);
}

Result<UserProfile> DurableProfileStore::Peek(const std::string& user_id) {
  Stripe& stripe = StripeFor(user_id);
  std::lock_guard<std::mutex> writer(stripe.writer);
  QP_ASSIGN_OR_RETURN(std::optional<UserProfile> current,
                      CurrentLocked(stripe, user_id));
  if (!current.has_value()) {
    return Status::NotFound("unknown user: " + user_id);
  }
  return *std::move(current);
}

Result<std::optional<UserProfile>> DurableProfileStore::CurrentLocked(
    Stripe& stripe, const std::string& user_id) {
  if (auto resident = Resident(stripe, user_id)) {
    return std::optional<UserProfile>(*resident->profile);
  }
  std::optional<UserProfile> current;
  if (!durable()) return current;
  const ProfileTier::LoadPlan plan = tier_->PlanLoad(user_id);
  if (!plan.alive) return current;
  WallTimer timer;
  QP_ASSIGN_OR_RETURN(current, BuildFromPlan(plan));
  inst_.tier_cold_loads->Add(1);
  inst_.tier_load_seconds->RecordMillis(timer.ElapsedMillis());
  return current;
}

Result<ProfileSnapshot> DurableProfileStore::LoadColdLocked(
    Stripe& stripe, const std::string& user_id) {
  const ProfileTier::LoadPlan plan = tier_->PlanLoad(user_id);
  if (!plan.alive) return Status::NotFound("unknown user: " + user_id);
  WallTimer timer;
  Result<UserProfile> profile = [&]() -> Result<UserProfile> {
    QP_RETURN_IF_ERROR(QP_FAULT_POINT("shard.load"));
    return BuildFromPlan(plan);
  }();
  if (!profile.ok()) {
    inst_.tier_load_failures->Add(1);
    return profile.status();
  }
  inst_.tier_cold_loads->Add(1);
  inst_.tier_load_seconds->RecordMillis(timer.ElapsedMillis());
  // The reload gets a strictly larger epoch than the evicted incarnation,
  // so stale cached selections keyed on the old epoch are never served.
  QP_ASSIGN_OR_RETURN(ProfileSnapshot prepared,
                      Prepare(std::move(profile).value()));
  ProfileSnapshot snapshot = Install(stripe, user_id, std::move(prepared));
  tier_->Touch(user_id);
  EvictOverBudget();
  return snapshot;
}

Result<UserProfile> DurableProfileStore::BuildFromPlan(
    const ProfileTier::LoadPlan& plan) {
  std::optional<UserProfile> profile;
  if (plan.in_snapshot) {
    // Reading manifest_ under a single stripe is safe: the pointer-and-
    // name swap happens only under *all* stripes (checkpoint), which any
    // stripe holder excludes. The file's CRC was checked when Open read
    // it whole; the body is checked again on its own, because its bytes
    // may have rotted on disk since.
    QP_ASSIGN_OR_RETURN(
        std::string body,
        fs_->ReadFileRange(JoinPath(dir_, manifest_.snapshot_file),
                           plan.base.offset, plan.base.length));
    QP_RETURN_IF_ERROR(VerifyEntryBody(plan.base, body));
    QP_ASSIGN_OR_RETURN(profile, DecodeProfile(body));
  }
  for (const std::string& payload : plan.tail) {
    QP_ASSIGN_OR_RETURN(ProfileMutation mutation, DecodeMutation(payload));
    Replay(&mutation, &profile);
  }
  // The tier erases removed users outright; an alive user replaying to
  // nothing means the bookkeeping is out of sync with the log.
  if (!profile.has_value()) {
    return Status::Internal("overlay of an alive user replays to no profile");
  }
  return std::move(*profile);
}

void DurableProfileStore::EvictOverBudget() {
  std::vector<std::string> victims = tier_->EvictOverBudget();
  for (const std::string& victim : victims) {
    // Dropping the resident copy only — the durable state is already
    // complete. A racing reload may have lost its residency marker and
    // will simply fault the profile back in.
    Drop(StripeFor(victim), victim);
  }
  inst_.tier_evictions->Add(victims.size());
}

std::vector<std::pair<std::string, ProfileSnapshot>>
DurableProfileStore::All() {
  if (!durable()) return AllResident();
  // Fault every alive user through the LRU: memory stays bounded by the
  // hot budget while the caller walks the full population. Users whose
  // load fails (injected faults, quarantined damage) are skipped — this
  // is a debugging/export surface, not a recovery path.
  std::vector<std::pair<std::string, ProfileSnapshot>> all;
  for (const std::string& user_id : tier_->AliveUsers()) {
    if (auto snapshot = Lookup(user_id); snapshot.ok()) {
      all.emplace_back(user_id, std::move(snapshot).value());
    }
  }
  return all;
}

size_t DurableProfileStore::size() const {
  if (durable()) return tier_->alive_count();
  size_t total = 0;
  for (Stripe& stripe : stripes_) {
    std::shared_lock<std::shared_mutex> lock(stripe.readers);
    total += stripe.users.size();
  }
  return total;
}

std::vector<std::string> DurableProfileStore::Users() const {
  if (durable()) return tier_->AliveUsers();
  std::vector<std::string> out;
  for (Stripe& stripe : stripes_) {
    std::shared_lock<std::shared_mutex> lock(stripe.readers);
    for (const auto& [user_id, entry] : stripe.users) out.push_back(user_id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<WalTailRecord>> DurableProfileStore::ReadMutationsAfter(
    uint64_t after_seqno) {
  std::lock_guard<std::mutex> meta(meta_mutex_);
  if (dir_.empty()) {
    return Status::Unimplemented("in-memory store has no mutation log");
  }
  if (closed_) return Status::FailedPrecondition("store is closed");
  // Invariant: the live segment's first record is manifest seqno + 1
  // (Recover anchors the reader there; every rotation names the new
  // segment that way). Holding meta_mutex_ excludes rotation for the
  // duration of the read; appends proceed under their stripes.
  const uint64_t segment_first = manifest_.seqno + 1;
  if (after_seqno + 1 < segment_first) {
    return Status::OutOfRange(
        "mutation log starts at seqno " + std::to_string(segment_first) +
        "; records after " + std::to_string(after_seqno) +
        " were compacted away");
  }
  QP_ASSIGN_OR_RETURN(std::string content,
                      fs_->ReadFile(JoinPath(dir_, manifest_.wal_file)));
  WalReader reader(content, segment_first);
  std::vector<WalTailRecord> out;
  WalRecord record;
  bool has_record = false;
  for (;;) {
    // Mid-log corruption is an error; a torn final frame (a concurrent
    // append caught mid-write — unacknowledged by construction) just
    // ends the stream.
    QP_RETURN_IF_ERROR(reader.Next(&record, &has_record));
    if (!has_record) break;
    if (record.seqno <= after_seqno) continue;
    WalTailRecord tail;
    tail.seqno = record.seqno;
    QP_ASSIGN_OR_RETURN(tail.mutation, DecodeMutation(record.payload));
    out.push_back(std::move(tail));
  }
  return out;
}

TierStats DurableProfileStore::tier_stats() const {
  TierStats stats;
  if (!durable()) return stats;
  const ProfileTier::Residency residency = tier_->residency();
  stats.enabled = true;
  stats.hot_capacity = tier_->hot_capacity();
  stats.hot_resident = residency.hot;
  stats.cold_users = residency.cold;
  stats.overlay_records = residency.overlay_records;
  stats.hot_hits = inst_.tier_hot_hits->Value();
  stats.cold_loads = inst_.tier_cold_loads->Value();
  stats.evictions = inst_.tier_evictions->Value();
  stats.load_failures = inst_.tier_load_failures->Value();
  stats.load_millis = inst_.tier_load_seconds->Snapshot().sum * 1e3;
  return stats;
}

Status DurableProfileStore::AdmitMutation() {
  const int state = breaker_state_.load(std::memory_order_acquire);
  if (state == kClosed) return Status::Ok();
  if (state == kOpen && options_.breaker_backoff.count() > 0) {
    const int64_t opened_ns = breaker_opened_ns_.load(std::memory_order_acquire);
    const int64_t backoff_ms =
        breaker_backoff_ms_.load(std::memory_order_acquire);
    if (clock_->NowNanos() - opened_ns >= backoff_ms * 1000000) {
      int expected = kOpen;
      if (breaker_state_.compare_exchange_strong(expected, kHalfOpen,
                                                 std::memory_order_acq_rel)) {
        obs::RecordFlightEvent(obs::FlightEventType::kBreakerTransition,
                               "open->half_open", dir_);
        // This mutation won the half-open race and carries the probe: a
        // recovery checkpoint that re-tests the disk end to end. On
        // success the breaker is closed and the mutation proceeds
        // normally (onto the fresh WAL generation); on failure the
        // breaker re-opened with a doubled backoff inside ProbeRecover.
        Status probe = ProbeRecover();
        if (probe.ok()) return Status::Ok();
        return Status::Unavailable("storage breaker probe failed: " +
                                   probe.message());
      }
    }
  }
  return Status::Unavailable(
      "storage circuit breaker open after repeated WAL failures; "
      "store is read-only");
}

void DurableProfileStore::OpenBreaker(BreakerState from) {
  int expected = from;
  if (!breaker_state_.compare_exchange_strong(expected, kOpen,
                                              std::memory_order_acq_rel)) {
    return;
  }
  if (from == kHalfOpen) {
    // A failed probe: the disk is still sick, wait longer before the
    // next one (exponential, capped).
    const int64_t current = breaker_backoff_ms_.load(std::memory_order_relaxed);
    breaker_backoff_ms_.store(
        std::min<int64_t>(std::max<int64_t>(current, 1) * 2,
                          options_.breaker_backoff_max.count()),
        std::memory_order_relaxed);
  } else {
    breaker_backoff_ms_.store(options_.breaker_backoff.count(),
                              std::memory_order_relaxed);
  }
  breaker_opened_ns_.store(clock_->NowNanos(), std::memory_order_release);
  obs::RecordFlightEvent(obs::FlightEventType::kBreakerTransition,
                         from == kHalfOpen ? "half_open->open"
                                           : "closed->open",
                         dir_);
  inst_.breaker_trips->Add(1);
  inst_.breaker_open->Set(1.0);
}

Status DurableProfileStore::ProbeRecover() {
  inst_.breaker_probes->Add(1);
  // The probe is a checkpoint: exclusive cut under every stripe, exactly
  // like Checkpoint(). The caller holds no stripe yet (AdmitMutation
  // runs before the mutation takes one), so the ordering is safe.
  auto locks = LockAllStripes();
  std::lock_guard<std::mutex> meta(meta_mutex_);
  if (closed_) {
    OpenBreaker(kHalfOpen);
    return Status::FailedPrecondition("store is closed");
  }
  Status status = CheckpointLocked(/*for_recovery=*/true);
  if (status.ok()) {
    consecutive_failures_.store(0, std::memory_order_relaxed);
    last_checkpoint_error_.clear();
    compact_backoff_bytes_.store(0, std::memory_order_release);
    breaker_backoff_ms_.store(options_.breaker_backoff.count(),
                              std::memory_order_relaxed);
    inst_.breaker_recoveries->Add(1);
    inst_.breaker_open->Set(0.0);
    breaker_state_.store(kClosed, std::memory_order_release);
    obs::RecordFlightEvent(obs::FlightEventType::kBreakerTransition,
                           "half_open->closed", dir_);
  } else {
    inst_.failed_checkpoints->Add(1);
    last_checkpoint_error_ = status.message();
    OpenBreaker(kHalfOpen);
  }
  return status;
}

Status DurableProfileStore::LogMutation(const std::string& payload) {
  Status status = wal_->Append(payload, nullptr);
  if (status.ok()) {
    consecutive_failures_.store(0, std::memory_order_relaxed);
    return status;
  }
  inst_.mutation_failures->Add(1);
  const uint64_t failures =
      consecutive_failures_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (options_.breaker_threshold > 0 &&
      failures >= static_cast<uint64_t>(options_.breaker_threshold)) {
    OpenBreaker(kClosed);
  }
  return status;
}

Status DurableProfileStore::Apply(ProfileMutation mutation,
                                  obs::RequestTrace* trace) {
  // A closed store refuses before the breaker sees the mutation; the
  // re-check under the writer mutex is the fence itself — Close() takes
  // every writer mutex, so nothing appends once it has returned.
  const auto closed = [this] {
    return closed_.load(std::memory_order_acquire)
               ? Status::Unavailable("profile store is closed")
               : Status::Ok();
  };
  QP_RETURN_IF_ERROR(closed());
  QP_RETURN_IF_ERROR(AdmitMutation());
  const std::string& user_id = mutation.user_id;
  Stripe& stripe = StripeFor(user_id);
  std::lock_guard<std::mutex> writer(stripe.writer);
  QP_RETURN_IF_ERROR(closed());

  // The state this mutation applies to. A Put replaces whatever is
  // there, and a Remove only needs the user to exist (resident or cold).
  std::optional<UserProfile> profile;
  if (mutation.kind == ProfileMutation::Kind::kUpsert) {
    QP_ASSIGN_OR_RETURN(profile, CurrentLocked(stripe, user_id));
  } else if (mutation.kind == ProfileMutation::Kind::kRemove &&
             !Resident(stripe, user_id).has_value() &&
             !(durable() && tier_->Contains(user_id))) {
    return Status::NotFound("unknown user: " + user_id);  // Nothing to log.
  }
  std::string payload;
  if (durable()) EncodeMutation(mutation, &payload);
  Replay(&mutation, &profile);
  std::optional<ProfileSnapshot> next;
  if (profile.has_value()) {
    QP_ASSIGN_OR_RETURN(next, Prepare(std::move(*profile)));
  }
  if (durable()) {
    obs::ScopedSpan span(trace, "wal_append");
    span.Counter("bytes", payload.size());
    QP_RETURN_IF_ERROR(LogMutation(payload));
  }
  // Acknowledged. Tier bookkeeping runs before the swap: once a mutation
  // is logged, snapshot + overlay reproduce it, so eviction at any later
  // point loses nothing acknowledged.
  if (durable()) tier_->NoteLogged(mutation, std::move(payload));
  if (next.has_value()) {
    Install(stripe, user_id, std::move(*next));
  } else {
    Drop(stripe, user_id);
  }
  inst_.mutations->Add(1);
  if (durable() && next.has_value()) {
    tier_->Touch(user_id);
    EvictOverBudget();
  }
  MaybeKickCompaction();
  return Status::Ok();
}

Status DurableProfileStore::Put(const std::string& user_id,
                                UserProfile profile,
                                obs::RequestTrace* trace) {
  return Apply(ProfileMutation::Put(user_id, std::move(profile)), trace);
}

Status DurableProfileStore::Upsert(
    const std::string& user_id,
    const std::vector<AtomicPreference>& preferences,
    obs::RequestTrace* trace) {
  return Apply(ProfileMutation::Upsert(user_id, preferences), trace);
}

Status DurableProfileStore::Remove(const std::string& user_id,
                                   obs::RequestTrace* trace) {
  return Apply(ProfileMutation::Remove(user_id), trace);
}

Status DurableProfileStore::Checkpoint() {
  if (!durable()) {
    return Status::FailedPrecondition("store has no storage directory");
  }
  // Lock every stripe (in order) so no mutation is between its WAL
  // append and its in-memory apply: the (seqno, state) cut is exact.
  auto locks = LockAllStripes();
  std::lock_guard<std::mutex> meta(meta_mutex_);
  Status status = CheckpointLocked();
  if (closed_) return status;
  if (status.ok()) {
    last_checkpoint_error_.clear();
    compact_backoff_bytes_.store(0, std::memory_order_release);
  } else {
    inst_.failed_checkpoints->Add(1);
    last_checkpoint_error_ = status.message();
    compact_backoff_bytes_.store(segment_base_bytes_ + wal_->segment_bytes() +
                                     options_.compact_threshold_bytes,
                                 std::memory_order_release);
  }
  return status;
}

Status DurableProfileStore::CheckpointLocked(bool for_recovery) {
  if (closed_) return Status::FailedPrecondition("store is closed");
  uint64_t seqno = wal_->last_appended_seqno();
  if (!for_recovery) {
    if (seqno == manifest_.seqno) return Status::Ok();  // Nothing new.

    // Make everything the snapshot will contain durable in the old WAL
    // first: if we crash mid-checkpoint the old generation must already
    // hold every acknowledged record.
    QP_RETURN_IF_ERROR(wal_->Sync());
  } else {
    // For a breaker-recovery probe or a scrub repair the current WAL
    // writer is dead or its generation damaged, so its Sync would fail
    // (or re-persist garbage); the resident profiles, the tier's overlay
    // and the cold bodies already hold exactly the acknowledged
    // mutations, so writing them out as a fresh snapshot + empty WAL
    // generation *is* the probe/repair. The "nothing new" early-return
    // is skipped too: rotation itself is the point even when no records
    // landed since the last manifest. The rotation consumes one logical
    // tick so the new generation's file names can never collide with the
    // committed one's — a recovery at an unchanged seqno must not
    // overwrite (and then garbage-collect) the very snapshot the live
    // manifest references.
    ++seqno;
  }

  Manifest next;
  next.seqno = seqno;
  next.snapshot_file = SnapshotFileName(seqno);
  next.wal_file = WalFileName(seqno + 1);
  // Every alive user lands in the new snapshot, but only the resident
  // ones are encoded from memory. A cold user whose overlay is empty has
  // its body copied verbatim from the old snapshot (no decode), under
  // the checksum it was written with: a body that rotted since still
  // fails its own check in the new generation, where the damage is
  // confined to its user, instead of being sealed under a fresh
  // checksum. A cold user with buffered mutations is rebuilt through the
  // same plan a Get-load uses, which checks the body first; a rotted one
  // fails the checkpoint, since nothing else holds that profile. All
  // stripes are held, so residency and plans are an exact cut.
  const std::string old_snapshot = JoinPath(dir_, manifest_.snapshot_file);
  SnapshotWriter writer(fs_);
  const std::vector<std::string> users = tier_->AliveUsers();
  QP_RETURN_IF_ERROR(
      writer.Open(JoinPath(dir_, next.snapshot_file), users.size()));
  std::string body;
  for (const std::string& user_id : users) {
    body.clear();
    if (auto resident = Resident(StripeFor(user_id), user_id)) {
      EncodeProfile(*resident->profile, &body);
      QP_RETURN_IF_ERROR(writer.Add(user_id, body));
      continue;
    }
    const ProfileTier::LoadPlan plan = tier_->PlanLoad(user_id);
    if (plan.in_snapshot && plan.tail.empty()) {
      QP_ASSIGN_OR_RETURN(body, fs_->ReadFileRange(old_snapshot,
                                                   plan.base.offset,
                                                   plan.base.length));
      QP_RETURN_IF_ERROR(writer.AddCopy(plan.base, body));
      continue;
    }
    QP_ASSIGN_OR_RETURN(UserProfile rebuilt, BuildFromPlan(plan));
    EncodeProfile(rebuilt, &body);
    QP_RETURN_IF_ERROR(writer.Add(user_id, body));
  }
  QP_RETURN_IF_ERROR(writer.Finish(&next.snapshot_bytes, &next.snapshot_crc));
  QP_ASSIGN_OR_RETURN(
      std::unique_ptr<WritableFile> new_wal_file,
      fs_->NewWritableFile(JoinPath(dir_, next.wal_file), true));
  QP_RETURN_IF_ERROR(new_wal_file->Sync());
  // The commit point: once the manifest rename lands, the new
  // generation is what recovery will read. Until then every failure
  // above leaves the old generation fully intact.
  QP_RETURN_IF_ERROR(WriteManifest(fs_, dir_, next));

  const Manifest old = manifest_;
  manifest_ = next;
  wal_->Close();
  wal_ = std::make_unique<WalWriter>(std::move(new_wal_file), seqno + 1,
                                     options_.wal);
  segment_base_bytes_ = 0;
  inst_.checkpoints->Add(1);
  tier_->ResetAfterCheckpoint(writer.TakeEntries());

  if (!old.snapshot_file.empty() && old.snapshot_file != next.snapshot_file) {
    fs_->RemoveFile(JoinPath(dir_, old.snapshot_file));  // Best effort.
  }
  if (old.wal_file != next.wal_file) {
    fs_->RemoveFile(JoinPath(dir_, old.wal_file));
  }
  return Status::Ok();
}

Status DurableProfileStore::Sync() {
  if (!durable()) return Status::Ok();
  std::lock_guard<std::mutex> meta(meta_mutex_);
  if (closed_) return Status::FailedPrecondition("store is closed");
  return wal_->Sync();
}

Status DurableProfileStore::Close() {
  if (scrubber_running_.exchange(false, std::memory_order_acq_rel)) {
    {
      std::lock_guard<std::mutex> lock(scrub_mutex_);
      scrub_stop_ = true;
    }
    scrub_cv_.notify_all();
    scrubber_.join();
  }
  if (compaction_running_.exchange(false, std::memory_order_acq_rel)) {
    {
      std::lock_guard<std::mutex> lock(compact_mutex_);
      compact_stop_ = true;
    }
    compact_cv_.notify_all();
    compactor_.join();
  }
  auto locks = LockAllStripes();
  std::lock_guard<std::mutex> meta(meta_mutex_);
  if (closed_.exchange(true, std::memory_order_acq_rel)) return Status::Ok();
  // An in-memory store, or a failed Open, has no WAL writer.
  if (wal_ == nullptr) return Status::Ok();
  return wal_->Close();
}

void DurableProfileStore::MaybeKickCompaction() {
  if (options_.compact_threshold_bytes == 0 ||
      !compaction_running_.load(std::memory_order_acquire)) {
    return;
  }
  const uint64_t segment_bytes = segment_base_bytes_ + wal_->segment_bytes();
  if (segment_bytes < options_.compact_threshold_bytes) return;
  if (segment_bytes < compact_backoff_bytes_.load(std::memory_order_acquire)) {
    return;  // Last checkpoint failed; wait for real growth first.
  }
  {
    std::lock_guard<std::mutex> lock(compact_mutex_);
    compact_kick_ = true;
  }
  compact_cv_.notify_one();
}

void DurableProfileStore::CompactionLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(compact_mutex_);
      compact_cv_.wait(lock, [this] { return compact_kick_ || compact_stop_; });
      if (compact_stop_) return;
      compact_kick_ = false;
    }
    // Checkpoint() records a failure (failed_checkpoints and the error
    // message in StorageStats) and arms a growth-based backoff, so a
    // persistent error neither vanishes silently nor re-kicks a doomed
    // snapshot write on every mutation. The store keeps running on the
    // old (intact) generation either way.
    Checkpoint();
  }
}

StorageStats DurableProfileStore::storage_stats() const {
  StorageStats stats;
  stats.durable = durable();
  stats.recovery_millis = inst_.recovery_millis->Value();
  stats.snapshot_users_loaded =
      static_cast<uint64_t>(inst_.snapshot_users_loaded->Value());
  stats.records_replayed =
      static_cast<uint64_t>(inst_.records_replayed->Value());
  stats.torn_bytes_truncated =
      static_cast<uint64_t>(inst_.torn_bytes_truncated->Value());
  stats.records_appended = inst_.wal_records->Value();
  stats.bytes_appended = inst_.wal_bytes->Value();
  stats.fsyncs = inst_.wal_fsyncs->Value();
  stats.mutation_failures = inst_.mutation_failures->Value();
  // Recoveries before trips: a recovery follows its trip in program
  // order, so in this read order recoveries never exceed trips.
  stats.breaker_recoveries = inst_.breaker_recoveries->Value();
  stats.breaker_probes = inst_.breaker_probes->Value();
  stats.breaker_trips = inst_.breaker_trips->Value();
  stats.breaker_open =
      breaker_state_.load(std::memory_order_acquire) != kClosed;
  stats.breaker_backoff_ms =
      breaker_backoff_ms_.load(std::memory_order_relaxed);
  stats.scrubs = inst_.scrubs->Value();
  stats.scrub_corruptions = inst_.scrub_corruptions->Value();
  stats.repairs = inst_.repairs->Value();
  stats.repair_failures = inst_.repair_failures->Value();
  stats.quarantined_profiles =
      quarantine_count_.load(std::memory_order_relaxed);
  stats.checkpoints = inst_.checkpoints->Value();
  stats.failed_checkpoints = inst_.failed_checkpoints->Value();
  {
    std::lock_guard<std::mutex> scrub_lock(scrub_error_mutex_);
    stats.last_scrub_error = last_scrub_error_;
  }
  std::lock_guard<std::mutex> meta(meta_mutex_);
  stats.last_checkpoint_error = last_checkpoint_error_;
  if (wal_ != nullptr) {
    stats.last_appended_seqno = wal_->last_appended_seqno();
    stats.last_synced_seqno = wal_->last_synced_seqno();
    stats.wal_segment_bytes = segment_base_bytes_ + wal_->segment_bytes();
  }
  return stats;
}

}  // namespace storage
}  // namespace qp
