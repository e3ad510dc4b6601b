#ifndef QP_STORAGE_SCRUB_H_
#define QP_STORAGE_SCRUB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "qp/pref/profile.h"
#include "qp/relational/schema.h"
#include "qp/util/status.h"

namespace qp {

class PersonalizationGraph;

namespace storage {

/// What one integrity-scrub pass found. Produced by
/// DurableProfileStore::ScrubOnce; the cumulative counters live in
/// StorageStats (scrubs, scrub_corruptions, repairs, ...).
struct ScrubReport {
  /// Disk pass: the committed generation re-verified end to end.
  /// Manifest names no snapshot, or its CRC and every entry checksum ok.
  bool snapshot_verified = false;
  uint64_t wal_frames_verified = 0;  // CRC-valid frames in the live WAL.
  /// Mid-log CRC damage, a snapshot/manifest mismatch, or a snapshot
  /// body that fails its own entry checksum. A torn tail at the very end
  /// of the WAL is NOT corruption — with a live writer it is simply an
  /// append in flight.
  uint64_t disk_corruptions = 0;
  /// Memory pass: profiles whose standing invariants failed re-checking
  /// (schema validation, doi ∈ (0,1], graph edges in range — the bounds
  /// that make f(D) ≤ min(D) hold for every preference path).
  uint64_t invariant_violations = 0;
  /// Users whose snapshot body failed its checksum or whose in-memory
  /// profile failed the memory pass.
  std::vector<std::string> corrupt_users;
  /// Actions taken this pass.
  uint64_t quarantined = 0;
  uint64_t repaired = 0;
  uint64_t repair_failures = 0;
  std::string first_error;  // Human-readable cause of the first finding.
};

/// Re-checks the invariants a healthy in-memory profile must satisfy:
/// UserProfile::Validate (|doi| within (0, 1], no negative join,
/// attribute existence, literal types) and bounds every graph edge's
/// |doi| by 1 — the per-edge bound that makes a preference path's
/// implicit degree f(D), the product of its edge degrees, obey
/// f(D) ≤ min(D). Returns the first violation.
Status CheckProfileInvariants(const Schema& schema, const UserProfile& profile,
                              const PersonalizationGraph* graph);

}  // namespace storage
}  // namespace qp

#endif  // QP_STORAGE_SCRUB_H_
