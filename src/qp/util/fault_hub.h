#ifndef QP_UTIL_FAULT_HUB_H_
#define QP_UTIL_FAULT_HUB_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "qp/util/status.h"

/// Seed-driven chaos framework: named fault sites threaded through every
/// subsystem (`QP_FAULT_POINT("wal.sync")`, `"pool.submit"`, ...) with
/// per-site schedules that are a pure function of (seed, site, call
/// index) — the same seed always produces the same fault schedule, so
/// any chaos-trial failure replays exactly. A disarmed site costs one
/// relaxed atomic load.

namespace qp {

/// What an armed fault site does when its schedule fires.
enum class FaultMode {
  /// Return a Status error from the site (default: kUnavailable).
  kError,
  /// Sleep for `delay`, then proceed normally — models a slow disk, a
  /// scheduler stall, lock convoying. Surfaces as deadline pressure.
  kDelay,
  /// Perform only part of the operation (e.g. a short write keeping
  /// `partial_fraction` of the payload) and then fail — models torn
  /// writes and half-applied effects. Sites that have no partial
  /// semantics treat it as kError.
  kPartial,
};

/// Per-site firing schedule. All triggers compose (OR): a call fires if
/// the seeded coin lands under `probability`, or its 1-based index
/// equals `fire_on_nth`, or the index divides `fire_every`. The
/// probability coin for call n is a pure hash of (seed, site, n) — no
/// shared RNG stream, so concurrent sites never perturb each other's
/// schedules.
struct FaultRule {
  double probability = 0.0;
  uint64_t fire_on_nth = 0;  // 1-based call index; 0 = off.
  uint64_t fire_every = 0;   // Fire when index % fire_every == 0; 0 = off.
  uint64_t max_fires = 0;    // Stop firing after this many; 0 = unlimited.
  FaultMode mode = FaultMode::kError;
  StatusCode error_code = StatusCode::kUnavailable;
  std::chrono::microseconds delay{1000};
  double partial_fraction = 0.5;  // Fraction of the operation to perform.
};

/// The decision a fault site acts on. `fire == false` means proceed.
struct FaultAction {
  bool fire = false;
  FaultMode mode = FaultMode::kError;
  StatusCode error_code = StatusCode::kUnavailable;
  std::chrono::microseconds delay{0};
  double partial_fraction = 1.0;
  /// The injected error, pre-built so sites can `return action.ToStatus(...)`.
  Status ToStatus(std::string_view site) const;
  /// For kDelay actions: performs the bounded stall (capped at 50ms so a
  /// wild rule cannot hang a trial). No-op for other modes. Call it
  /// *outside* any lock the site holds.
  void Sleep() const;
};

/// Process-wide registry of fault sites. Disarmed (the default) every
/// site costs one relaxed atomic load. Arm(seed) + SetRule(site, ...)
/// turns schedules on; Reset() restores the pristine disarmed state
/// (tests must call it, the hub is shared by the whole process).
class FaultHub {
 public:
  static FaultHub* Global();

  /// Arms the hub: sites with rules start firing per their schedules.
  /// Also the determinism root — every firing decision hashes this seed.
  void Arm(uint64_t seed);
  void Disarm();
  /// Disarm + drop all rules and per-site counters.
  void Reset();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  uint64_t seed() const { return seed_.load(std::memory_order_relaxed); }

  void SetRule(const std::string& site, FaultRule rule);
  void ClearRule(const std::string& site);

  /// Derives a random-but-deterministic schedule over `sites` from
  /// `seed` (each site gets a mode and a firing probability drawn from a
  /// seeded RNG) and arms the hub. The one-stop chaos switch used by
  /// qpshell `\chaos <seed>` and the chaos property trials.
  void ArmRandom(uint64_t seed, const std::vector<std::string>& sites);

  /// The per-call decision for one site. Counts the call, evaluates the
  /// site's schedule, counts the fire. Disarmed: returns {} after a
  /// single relaxed load.
  FaultAction Evaluate(std::string_view site);

  /// Evaluate + act for sites without partial/delay semantics of their
  /// own: kError returns the injected Status, kDelay sleeps (bounded)
  /// and returns Ok, kPartial degenerates to kError.
  Status Check(std::string_view site);

  /// Total calls / fires recorded at `site` since the last Reset.
  uint64_t calls(const std::string& site) const;
  uint64_t fires(const std::string& site) const;
  uint64_t total_fires() const;

  /// One line per site: "site calls=N fires=M rule=..." — for \health.
  std::string Summary() const;

  /// The canonical site names wired into the library, for ArmRandom
  /// callers that want "everything".
  static const std::vector<std::string>& KnownSites();

  /// Called on every fire (after the max_fires budget admits it) with
  /// the site name and the 1-based call index. One process-wide slot,
  /// set at static-init by the observability layer to feed the flight
  /// recorder; nullptr disables. The listener runs under the hub's
  /// shared lock and must not call back into the hub. Purely an
  /// observer: it cannot perturb schedules (no RNG draw happens in it).
  using FireListener = void (*)(std::string_view site, uint64_t call_index);
  static void SetFireListener(FireListener listener);

 private:
  struct Site {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> fires{0};
    FaultRule rule;
    bool has_rule = false;
  };

  FaultHub() = default;

  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> seed_{0};
  mutable std::shared_mutex mutex_;  // Guards sites_ (map shape + rules).
  std::unordered_map<std::string, std::unique_ptr<Site>> sites_;
};

/// RAII chaos scope for tests: arms the global hub with `seed` on
/// construction, Reset()s it on destruction so no schedule leaks into
/// the next test.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(uint64_t seed) { FaultHub::Global()->Arm(seed); }
  ~ScopedFaultInjection() { FaultHub::Global()->Reset(); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace qp

/// Drop-in fault site returning Status: `QP_RETURN_IF_ERROR(QP_FAULT_POINT("wal.sync"));`
#define QP_FAULT_POINT(site) ::qp::FaultHub::Global()->Check(site)
/// Fault site for code with its own partial/delay semantics.
#define QP_FAULT_ACTION(site) ::qp::FaultHub::Global()->Evaluate(site)

#endif  // QP_UTIL_FAULT_HUB_H_
