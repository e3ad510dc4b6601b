#ifndef QP_STORAGE_DURABLE_PROFILE_STORE_H_
#define QP_STORAGE_DURABLE_PROFILE_STORE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "qp/graph/personalization_graph.h"
#include "qp/obs/metrics.h"
#include "qp/obs/trace.h"
#include "qp/pref/preference.h"
#include "qp/pref/profile.h"
#include "qp/relational/schema.h"
#include "qp/storage/record.h"
#include "qp/storage/scrub.h"
#include "qp/storage/snapshot.h"
#include "qp/storage/tier.h"
#include "qp/storage/wal.h"
#include "qp/util/clock.h"
#include "qp/util/file.h"
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

namespace storage {

/// Storage-side counters, surfaced through ServiceStats::storage. A view:
/// every count is read back from the store's registry instruments
/// (qp_storage_*, qp_wal_*, the recovery gauges), and only the control
/// state — breaker state and backoff, quarantine size, WAL seqnos and
/// segment length, the last error messages — comes from the store
/// itself. The instruments live in StorageOptions::metrics under its
/// labels, so stores that share a scope share the counts: in a cluster,
/// a shard reopened by RecoverShard continues its {shard="<id>"} series
/// rather than starting again from zero.
struct StorageStats {
  bool durable = false;
  uint64_t records_appended = 0;  // WAL records over the store's lifetime.
  uint64_t bytes_appended = 0;    // WAL bytes over the store's lifetime.
  uint64_t fsyncs = 0;
  /// Mutations that failed at the WAL.
  uint64_t mutation_failures = 0;
  /// Times the circuit breaker tripped the store to read-only. A true
  /// counter: every open — first trip or a failed probe re-opening —
  /// increments it.
  uint64_t breaker_trips = 0;
  /// Half-open recovery accounting: probes attempted, and probes that
  /// closed the breaker.
  uint64_t breaker_probes = 0;
  uint64_t breaker_recoveries = 0;
  /// The backoff a re-open would currently wait before probing again.
  uint64_t breaker_backoff_ms = 0;
  /// True while mutations are being rejected with Unavailable.
  bool breaker_open = false;
  /// Integrity scrubber accounting: completed passes, findings (disk CRC
  /// damage + in-memory invariant violations), repairs, and the profiles
  /// currently quarantined.
  uint64_t scrubs = 0;
  uint64_t scrub_corruptions = 0;
  uint64_t repairs = 0;
  uint64_t repair_failures = 0;
  uint64_t quarantined_profiles = 0;
  std::string last_scrub_error;
  uint64_t checkpoints = 0;
  uint64_t failed_checkpoints = 0;
  /// Message of the most recent checkpoint/compaction failure; cleared
  /// when one succeeds again. Background compaction failures are not
  /// returned to any caller, so this is where they surface.
  std::string last_checkpoint_error;
  uint64_t last_appended_seqno = 0;
  uint64_t last_synced_seqno = 0;
  uint64_t wal_segment_bytes = 0;  // Live (uncompacted) WAL length.
  // Recovery outcome of the Open() that produced this store.
  double recovery_millis = 0.0;
  uint64_t snapshot_users_loaded = 0;
  uint64_t records_replayed = 0;
  uint64_t torn_bytes_truncated = 0;
};

/// Hot/cold residency counters of a durable store. All zero (and
/// `enabled` false) for an in-memory store, which keeps every profile
/// resident. The event counts and load time are read back from the
/// qp_tier_* instruments; the residency split from the tier itself.
struct TierStats {
  bool enabled = false;
  size_t hot_capacity = 0;  // Max profiles resident at once; 0 = no budget.
  size_t hot_resident = 0;  // Profiles currently in memory.
  size_t cold_users = 0;    // Alive users currently evicted to disk.
  uint64_t hot_hits = 0;    // Gets answered from memory.
  uint64_t cold_loads = 0;  // Gets that paged a profile in from disk.
  uint64_t evictions = 0;   // Profiles dropped from memory (disk kept).
  uint64_t load_failures = 0;
  /// Mutation payloads buffered since the last checkpoint — the WAL
  /// overlay cold loads replay on top of their snapshot body. Bounded by
  /// the compaction threshold.
  uint64_t overlay_records = 0;
  double load_millis = 0.0;  // Cumulative cold-load wall time.
};

/// One decoded record of a store's mutation log, as streamed by
/// ReadMutationsAfter: the log position plus the mutation it carries.
/// Seqnos are strictly increasing within one stream.
struct WalTailRecord {
  uint64_t seqno = 0;
  ProfileMutation mutation;
};

/// How (and whether) a DurableProfileStore persists its state.
struct StorageOptions {
  /// Directory holding MANIFEST, the snapshot and the WAL. Empty
  /// disables durability entirely — the store keeps its profiles in
  /// memory only and logs nothing.
  std::string dir;
  /// WAL fsync policy.
  WalOptions wal;
  /// Once the live WAL segment exceeds this many bytes, a background
  /// thread checkpoints (snapshot + WAL truncation). 0 = no compaction
  /// thread: only explicit Checkpoint() calls compact.
  uint64_t compact_threshold_bytes = 4u << 20;
  /// Circuit breaker: after this many *consecutive* failed mutations
  /// (WAL append or fsync failures, none of them retried), the store
  /// trips to read-only — further mutations fail fast with
  /// Status::Unavailable instead of hammering a dead disk, while reads
  /// keep serving the in-memory state. 0 disables the breaker (mutations
  /// keep returning the WAL's sticky error).
  int breaker_threshold = 3;
  /// Half-open self-healing: once the breaker has been open this long,
  /// the next mutation is admitted as a *probe* — it runs a recovery
  /// checkpoint (snapshot of the acknowledged in-memory state + a fresh
  /// WAL generation, committed by the usual manifest rename) to re-test
  /// the disk. Success closes the breaker and the store is writable
  /// again without a restart; failure re-opens it with the backoff
  /// doubled (capped at breaker_backoff_max). 0 restores the old one-way
  /// behavior: a tripped store stays read-only until reopened.
  std::chrono::milliseconds breaker_backoff{200};
  std::chrono::milliseconds breaker_backoff_max{10000};
  /// Background integrity scrubber cadence: every interval a low-
  /// priority pass re-verifies the committed generation on disk
  /// (snapshot CRC, WAL frame CRCs) and the in-memory profile
  /// invariants, quarantining profiles that fail (served degraded,
  /// excluded from selection) and — when scrub_auto_repair is set —
  /// rebuilding them from their snapshot body + logged overlay.
  /// 0 disables the background thread; ScrubOnce() still works.
  std::chrono::milliseconds scrub_interval{0};
  bool scrub_auto_repair = true;
  /// Residency budget of a durable store: at most this many profiles are
  /// resident in memory at once; 0 (default) means no budget. Either way
  /// recovery indexes the snapshot's entry headers and replays the log
  /// into an overlay instead of materializing profiles; the first Get or
  /// mutation of a cold user pages exactly its body in (snapshot range
  /// read checked against the body's own checksum, then overlay replay)
  /// under the user's stripe, and a body that fails the check fails only
  /// that user's loads. Installs beyond a budget evict the least-recently-
  /// used resident; without one, a profile stays resident once paged in.
  /// Eviction loses nothing: every acknowledged mutation hit the WAL
  /// before the ack, so disk state always equals acknowledged state. An
  /// in-memory store (no directory) has nothing to page from and ignores
  /// this.
  size_t hot_capacity = 0;
  /// Filesystem to operate on; nullptr = the process-wide POSIX one.
  /// Tests pass a FaultInjectingFileSystem here.
  FileSystem* fs = nullptr;
  /// Time source for breaker backoff windows and the scrubber cadence;
  /// nullptr = Clock::Real(). Tests inject a FakeClock and Advance() it
  /// instead of sleeping, so backoff expiry is deterministic under
  /// sanitizer load. Not owned; must outlive the store.
  Clock* clock = nullptr;
  /// Where the store counts its events: storage (qp_storage_*), tier
  /// (qp_tier_*) and profile-store (qp_profile_store_*) instruments, the
  /// recovery outcome gauges set once at Open, and the WAL's own
  /// instruments (qp_wal_*; this scope replaces WalOptions::metrics).
  /// The registry is not owned and must outlive the store; without one
  /// the store owns one.
  obs::MetricScope metrics;
};

/// The profile store: user id -> (UserProfile, PersonalizationGraph),
/// in memory, and — when it has a storage directory — crash-safe: every
/// mutation is appended to a CRC32C-framed write-ahead log before it is
/// applied, so `Open` on the same directory rebuilds the exact pre-crash
/// state up to the last synced sequence number.
///
/// Layout of a storage directory:
///   MANIFEST                      committed generation (atomic rename)
///   snapshot-<seqno>.qps          full state through <seqno>
///   wal-<first>.log               mutations from <first> onward
///
/// Concurrency: users hash onto 16 stripes. A stripe's writer mutex
/// serializes its mutations and is held across merge, graph build, WAL
/// append and swap, so log order equals apply order for any one user
/// (cross-user mutations group-commit concurrently). Its reader lock
/// guards only the swap, so a Get never waits behind an fsync. Graph
/// construction happens before the swap, so readers stall only for a
/// pointer swap. Checkpoint briefly holds every writer mutex to get a
/// consistent (seqno, state) cut.
///
/// Epochs come from a stripe-wide monotone counter, so remove-then-
/// reinsert (or evict-then-reload) always yields a strictly larger epoch
/// — cached selections of a deleted profile can never be served for its
/// successor. Epochs are *not* persisted: they key in-process caches, and
/// a recovered store starts a fresh process with a fresh (empty) cache.
class DurableProfileStore {
 public:
  /// In-memory store (no directory, nothing persisted), counting into
  /// `metrics` like StorageOptions::metrics. `schema` is retained and
  /// must outlive the store (graphs reference it).
  explicit DurableProfileStore(const Schema* schema,
                               obs::MetricScope metrics = {});

  /// Opens (or initializes) the storage directory, recovering durable
  /// state: index the manifest's snapshot, replay the WAL tail into the
  /// overlay, truncate a torn final record. Corruption anywhere before
  /// the tail — a bad checksum mid-log, a manifest/snapshot mismatch —
  /// fails the open with a non-OK status rather than serving a silently
  /// wrong store. Profiles decode on first use, so a body or record that
  /// passes its CRC but fails to decode or validate fails only that
  /// user's load (qp_tier_load_failures_total).
  static Result<std::unique_ptr<DurableProfileStore>> Open(
      const Schema* schema, StorageOptions options);

  ~DurableProfileStore();

  DurableProfileStore(const DurableProfileStore&) = delete;
  DurableProfileStore& operator=(const DurableProfileStore&) = delete;

  /// Runs one mutation through the store's one mutation path, under the
  /// user's stripe: computes the new profile with Replay, builds its
  /// graph (the one validation, so the WAL never holds a mutation whose
  /// replay would fail), appends to the WAL when durable, then swaps and
  /// bumps the user's epoch — nothing can fail after the append. Remove
  /// of an unknown user is NotFound and logs nothing; a closed store
  /// refuses with Unavailable before touching the WAL or the breaker.
  /// `trace`, when given, receives a "wal_append" span covering the log
  /// write (group commit + fsync included) — the durability cost of the
  /// mutation. Live migration replays a source's log tail through this.
  Status Apply(ProfileMutation mutation, obs::RequestTrace* trace = nullptr);

  /// Apply, spelled out: Put replaces the user's profile, Upsert merges
  /// each preference with AddOrUpdate (a new user starts empty), Remove
  /// deletes the user (snapshots already taken stay valid).
  Status Put(const std::string& user_id, UserProfile profile,
             obs::RequestTrace* trace = nullptr);
  Status Upsert(const std::string& user_id,
                const std::vector<AtomicPreference>& preferences,
                obs::RequestTrace* trace = nullptr);
  Status Remove(const std::string& user_id,
                obs::RequestTrace* trace = nullptr);

  /// The user's current snapshot; NotFound for unknown users. `Get` is
  /// non-const by design: in a durable store, a miss on an alive-but-cold
  /// user pages the profile in from snapshot + WAL overlay (the
  /// "shard.load" fault site), evicting over-budget residents — so a
  /// reload always carries a strictly larger epoch than the evicted
  /// incarnation.
  Result<ProfileSnapshot> Get(const std::string& user_id);

  /// The user's profile without paging it in: a copy of the resident
  /// one, else (durable) one built from the user's load plan under the
  /// stripe's writer mutex. Installs, touches and evicts nothing, so a
  /// caller walking many users (a live migration's copy) leaves the hot
  /// set as it found it. NotFound for unknown users.
  Result<UserProfile> Peek(const std::string& user_id);

  /// Every alive user's snapshot, sorted by user id. A durable store
  /// faults cold users in (and, under a budget, back out) through its
  /// LRU to build this — a debugging/export surface, not a hot path.
  std::vector<std::pair<std::string, ProfileSnapshot>> All();

  /// Alive user ids, sorted, without loading bodies: the tier index of a
  /// durable store, the resident key set of an in-memory one.
  std::vector<std::string> Users() const;

  /// Streams the mutation log tail: every acknowledged mutation with a
  /// sequence number strictly greater than `after_seqno`, in log order —
  /// the seam live migration drains a source shard through. OutOfRange
  /// once a checkpoint has rotated the requested range away (restart
  /// from a fresh copy); Unimplemented for a non-durable store. A torn
  /// final frame (an append in flight on another thread) ends the
  /// stream cleanly — it was never acknowledged.
  Result<std::vector<WalTailRecord>> ReadMutationsAfter(uint64_t after_seqno);

  /// Alive users, resident or not.
  size_t size() const;
  const Schema& schema() const { return *schema_; }

  bool durable() const { return !dir_.empty(); }

  /// Writes a snapshot of the current state and truncates the WAL it
  /// covers. Blocks mutators for the duration. No-op when nothing was
  /// logged since the last checkpoint.
  Status Checkpoint();

  /// Forces every acknowledged mutation to stable storage (useful under
  /// FsyncPolicy::kNever).
  Status Sync();

  /// Flushes, stops background compaction and the scrubber, and closes
  /// the WAL. Waits for mutations already under their stripe; later ones
  /// fail Unavailable without touching the WAL, so once Close returns no
  /// append can land behind a reopen of the same directory. Reads keep
  /// working. Called by the destructor.
  Status Close();

  StorageStats storage_stats() const;

  /// Residency counters; TierStats::enabled is false for an in-memory
  /// store.
  TierStats tier_stats() const;

  /// One synchronous integrity pass (the background scrubber runs
  /// exactly this on its cadence): re-verify the committed generation on
  /// disk and every in-memory profile's invariants; quarantine
  /// violators; auto-repair when configured. `report`/`trace` optional.
  /// Returns non-OK only when the pass itself could not run (closed
  /// store) — findings are reported, not returned.
  Status ScrubOnce(ScrubReport* report = nullptr,
                   obs::RequestTrace* trace = nullptr);

  /// Rebuilds one user's profile from durable truth — the plan a cold
  /// load runs: its checksummed snapshot body plus the logged overlay —
  /// installs it (validated) and lifts the quarantine; a user the tier
  /// does not hold is repaired by dropping it. The repair path behind
  /// scrub_auto_repair.
  Status RepairUser(const std::string& user_id);

  /// Quarantine surface: quarantined users are excluded from
  /// personalization (the service serves their raw queries, degraded)
  /// until repaired. IsQuarantined is hot-path cheap: one relaxed load
  /// while the set is empty.
  bool IsQuarantined(const std::string& user_id) const;
  std::vector<std::string> QuarantinedUsers() const;

  /// Chaos/test backdoor: plants an unvalidated profile in memory without
  /// rebuilding the graph (the previous one, or an empty one, is kept;
  /// the WAL and durable state stay intact) — the damage ScrubOnce must
  /// detect, quarantine and repair. The epoch still bumps, so caches
  /// notice.
  void CorruptInMemoryForTest(const std::string& user_id,
                              UserProfile profile);

 private:
  static constexpr size_t kNumStripes = 16;

  /// One lock stripe of the user map; a user's stripe is its hash mod
  /// kNumStripes. `writer` serializes the stripe's mutations, cold loads
  /// and repairs, held across merge, graph build, WAL append and swap;
  /// `readers` guards `users` and `next_epoch`, taken exclusively only
  /// for the swap itself. Lock order: writer, then meta_mutex_, then
  /// readers and the tier's mutex.
  struct Stripe {
    std::mutex writer;
    std::shared_mutex readers;
    std::unordered_map<std::string, ProfileSnapshot> users;
    uint64_t next_epoch = 0;
  };

  /// Breaker state machine: kClosed —(threshold consecutive failures)→
  /// kOpen —(backoff elapsed, a mutation arrives)→ kHalfOpen —(probe
  /// checkpoint succeeds)→ kClosed, or —(probe fails)→ kOpen with the
  /// backoff doubled. Stored in an atomic int; mutators read it before
  /// taking their stripe.
  enum BreakerState : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  /// This store's registry instruments, resolved once at construction
  /// from StorageOptions::metrics: the storage and tier events it counts,
  /// the recovery gauges, and the qp_wal_* counters its WAL writers share
  /// (read back, never incremented, here).
  struct Instruments {
    explicit Instruments(const obs::MetricScope& scope);
    obs::Counter* mutation_failures;
    obs::Counter* breaker_trips;
    obs::Counter* breaker_probes;
    obs::Counter* breaker_recoveries;
    obs::Counter* checkpoints;
    obs::Counter* failed_checkpoints;
    obs::Counter* scrubs;
    obs::Counter* scrub_corruptions;
    obs::Counter* repairs;
    obs::Counter* repair_failures;
    obs::Gauge* breaker_open;
    obs::Gauge* quarantined;
    obs::Gauge* recovery_millis;
    obs::Gauge* snapshot_users_loaded;
    obs::Gauge* records_replayed;
    obs::Gauge* torn_bytes_truncated;
    obs::Counter* wal_records;
    obs::Counter* wal_bytes;
    obs::Counter* wal_fsyncs;
    obs::Counter* tier_hot_hits;
    obs::Counter* tier_cold_loads;
    obs::Counter* tier_evictions;
    obs::Counter* tier_load_failures;
    obs::Histogram* tier_load_seconds;
    obs::Counter* gets;
    obs::Counter* get_misses;
    obs::Counter* mutations;
  };

  DurableProfileStore(const Schema* schema, StorageOptions options);

  Status Recover(uint64_t* next_seqno);
  Stripe& StripeFor(const std::string& user_id) const;
  /// Takes every stripe's writer mutex, in order: the cut checkpoints,
  /// breaker probes, disk repairs and Close work under.
  std::array<std::unique_lock<std::mutex>, kNumStripes> LockAllStripes();
  /// Get without counting the get or the miss.
  Result<ProfileSnapshot> Lookup(const std::string& user_id);
  /// The user's resident snapshot, read under the stripe's reader lock.
  std::optional<ProfileSnapshot> Resident(Stripe& stripe,
                                          const std::string& user_id) const;
  /// Every resident user's snapshot, sorted by user id.
  std::vector<std::pair<std::string, ProfileSnapshot>> AllResident() const;
  /// Builds `profile`'s graph — PersonalizationGraph::Build validates the
  /// profile against the schema, the store's one validation — and wraps
  /// both for Install.
  Result<ProfileSnapshot> Prepare(UserProfile profile) const;
  /// Swaps `prepared` in as the user's entry with a fresh epoch, under
  /// the stripe's reader lock, and returns the installed snapshot.
  ProfileSnapshot Install(Stripe& stripe, const std::string& user_id,
                          ProfileSnapshot prepared);
  /// Drops the user's resident entry (snapshots already taken stay valid).
  void Drop(Stripe& stripe, const std::string& user_id);
  /// The user's profile before a mutation, under the stripe's writer
  /// mutex: a copy of the resident one, else (durable) the one a cold
  /// load would page in — an upsert of a cold user must merge over its
  /// durable preferences, not over nothing. nullopt: unknown user.
  Result<std::optional<UserProfile>> CurrentLocked(Stripe& stripe,
                                                   const std::string& user_id);
  /// Pages one cold (alive, non-resident) user in: snapshot range read +
  /// overlay replay, validated install, LRU eviction of over-budget
  /// residents. Caller holds the user's writer mutex and has re-checked
  /// residency. The "shard.load" fault site fires here.
  Result<ProfileSnapshot> LoadColdLocked(Stripe& stripe,
                                         const std::string& user_id);
  /// Rebuilds a profile from a tier load plan (no locks of its own).
  Result<UserProfile> BuildFromPlan(const ProfileTier::LoadPlan& plan);
  /// Drops over-budget residents from memory (their durable state is
  /// already complete — see StorageOptions::hot_capacity).
  void EvictOverBudget();
  /// Appends one mutation payload to the WAL under the caller's writer
  /// mutex, driving the circuit breaker: success resets the consecutive-
  /// failure count, failure advances it and trips the breaker at the
  /// threshold.
  Status LogMutation(const std::string& payload);
  /// Admission check mutators run before taking their stripe: Ok while
  /// the breaker is closed; fast-fail Unavailable while it is open —
  /// except that once the backoff has elapsed, exactly one caller wins
  /// the half-open CAS and runs the recovery probe inline.
  Status AdmitMutation();
  /// Transitions the breaker to open (from closed on a trip, from
  /// half-open on a failed probe — doubling the backoff), counting the
  /// trip and stamping the reopen time.
  void OpenBreaker(BreakerState from);
  /// The half-open probe: a recovery checkpoint under all stripes —
  /// snapshot of the acknowledged in-memory state + fresh WAL generation
  /// — that re-tests the disk. Success closes the breaker.
  Status ProbeRecover();
  /// `for_recovery` skips the (dead) WAL's fsync and forces rotation
  /// even when no new records were logged since the manifest.
  Status CheckpointLocked(bool for_recovery = false);
  void MaybeKickCompaction();
  void CompactionLoop();
  void ScrubLoop();
  /// Disk half of a scrub pass: manifest/snapshot CRC + WAL frame walk.
  /// Returns the number of corruptions found (0 = clean); repairs by
  /// forcing a recovery checkpoint from the intact in-memory state.
  void ScrubDisk(ScrubReport* report, obs::RequestTrace* trace);
  /// Memory half: per-profile invariant re-check, quarantine + repair.
  void ScrubMemory(ScrubReport* report, obs::RequestTrace* trace);
  void SetQuarantined(const std::string& user_id, bool quarantined);

  /// Declaration order matters: options_.metrics is resolved (and
  /// threaded into options_.wal) before the instruments register into it.
  const Schema* schema_;
  StorageOptions options_;
  const Instruments inst_;
  FileSystem* fs_ = nullptr;
  Clock* clock_ = nullptr;
  std::string dir_;

  /// Residency bookkeeping; null exactly for an in-memory store. The
  /// tier's own mutex orders after stripes/meta.
  std::unique_ptr<ProfileTier> tier_;

  mutable std::array<Stripe, kNumStripes> stripes_;

  /// Guards wal_, manifest_ and last_checkpoint_error_. Mutators may
  /// read wal_ while holding only their stripe: the pointer is swapped
  /// exclusively under *all* stripes (checkpoint/close), which any
  /// stripe holder excludes.
  mutable std::mutex meta_mutex_;
  std::unique_ptr<WalWriter> wal_;
  Manifest manifest_;
  uint64_t segment_base_bytes_ = 0;  // Recovered bytes kept in the segment.
  std::string last_checkpoint_error_;
  /// Set once by Close() under every stripe and meta_mutex_; read
  /// lock-free by mutators before they touch the breaker, and again
  /// under their stripe — the fence.
  std::atomic<bool> closed_{false};

  /// After a failed checkpoint, compaction is not re-kicked until the
  /// live segment outgrows this (failure point + one threshold), so a
  /// persistently failing disk is not hammered with a doomed full
  /// snapshot write on every over-threshold mutation. Atomic because
  /// mutators read it under only their stripe lock.
  std::atomic<uint64_t> compact_backoff_bytes_{0};

  /// Circuit-breaker state. Atomics because mutators read/advance them
  /// under only their stripe lock, and stats() reads them lock-free.
  std::atomic<uint64_t> consecutive_failures_{0};
  std::atomic<int> breaker_state_{kClosed};
  /// Steady-clock nanos at the moment the breaker (re)opened, and the
  /// backoff the next probe waits for. Written only by the thread that
  /// performed the open transition.
  std::atomic<int64_t> breaker_opened_ns_{0};
  std::atomic<int64_t> breaker_backoff_ms_{0};

  /// Quarantine set maintained by the scrubber. The atomic count lets
  /// the per-request IsQuarantined check skip the mutex entirely in the
  /// (overwhelmingly common) empty case.
  mutable std::mutex quarantine_mutex_;
  std::unordered_set<std::string> quarantined_;
  std::atomic<size_t> quarantine_count_{0};

  mutable std::mutex scrub_error_mutex_;
  std::string last_scrub_error_;

  std::mutex compact_mutex_;
  std::condition_variable compact_cv_;
  bool compact_kick_ = false;
  bool compact_stop_ = false;
  /// True while the compaction thread is live; lets mutators test for it
  /// without touching the std::thread object Close() concurrently joins.
  std::atomic<bool> compaction_running_{false};
  std::thread compactor_;

  /// Background scrubber thread, mirroring the compactor's lifecycle.
  std::mutex scrub_mutex_;
  std::condition_variable scrub_cv_;
  bool scrub_kick_ = false;
  bool scrub_stop_ = false;
  std::atomic<bool> scrubber_running_{false};
  std::thread scrubber_;
};

}  // namespace storage
}  // namespace qp

#endif  // QP_STORAGE_DURABLE_PROFILE_STORE_H_
