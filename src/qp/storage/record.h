#ifndef QP_STORAGE_RECORD_H_
#define QP_STORAGE_RECORD_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "qp/pref/preference.h"
#include "qp/pref/profile.h"
#include "qp/util/status.h"

namespace qp {
namespace storage {

/// One logical profile mutation, the unit the WAL records and recovery
/// replays. Mirrors the profile store's three mutators:
///   kPut    — whole-profile replace (payload: `profile`)
///   kUpsert — merge `preferences` into the current profile
///   kRemove — delete the user
struct ProfileMutation {
  enum class Kind : uint8_t { kPut = 1, kUpsert = 2, kRemove = 3 };

  Kind kind = Kind::kPut;
  std::string user_id;
  UserProfile profile;                      // kPut only.
  std::vector<AtomicPreference> preferences;  // kUpsert only.

  static ProfileMutation Put(std::string user_id, UserProfile profile);
  static ProfileMutation Upsert(std::string user_id,
                                std::vector<AtomicPreference> preferences);
  static ProfileMutation Remove(std::string user_id);
};

/// The one replay rule: `*profile` (nullopt: no such user) becomes the
/// user's state after `*mutation`. kPut replaces it (moving
/// `mutation->profile` out), kUpsert merges each preference with
/// AddOrUpdate (a new user starts empty), kRemove drops it. Every path
/// that turns logged mutations into profiles runs this: the store's
/// mutators, a durable store's cold loads, checkpoints and repairs, and
/// (through DurableProfileStore::Apply) the migrator's tail.
void Replay(ProfileMutation* mutation, std::optional<UserProfile>* profile);

/// Appends the binary encoding of `profile` to `*dst`: a preference
/// count, then each preference as tagged values with doubles as raw bit
/// patterns. This one codec carries every profile at rest — a snapshot
/// body is exactly this, and so is a WAL Put record after its user id —
/// and it reproduces each profile bit for bit, value types included.
void EncodeProfile(const UserProfile& profile, std::string* dst);

/// Decodes exactly one EncodeProfile body. A framing violation
/// (truncation, trailing bytes, unknown tag) and every preference
/// UserProfile::Add refuses (duplicate condition, degree outside [-1, 1]
/// or NaN, zero degree, negative join, non-finite literal or width)
/// yield a ParseError.
Result<UserProfile> DecodeProfile(std::string_view data);

/// Appends the binary encoding of `mutation` to `*dst`: its kind, user
/// id and, for kPut, the EncodeProfile body.
void EncodeMutation(const ProfileMutation& mutation, std::string* dst);

/// Decodes one mutation from `data`, which must contain exactly one
/// encoded mutation. Any framing violation (truncated field, unknown
/// kind/tag, trailing bytes) yields a ParseError.
Result<ProfileMutation> DecodeMutation(std::string_view data);

/// Preference-level encode/decode, shared by mutations and exercised
/// directly by the round-trip fuzz suite.
void EncodePreference(const AtomicPreference& preference, std::string* dst);

/// True when the two preferences are identical including kind, condition,
/// literal type, width and exact degree (SameCondition ignores the degree
/// and lets Int(7) equal Real(7.0)).
bool PreferencesEqual(const AtomicPreference& a, const AtomicPreference& b);

/// Exact structural equality of two profiles: same preferences in the
/// same order, degrees compared bit-for-bit.
bool ProfilesEqual(const UserProfile& a, const UserProfile& b);

}  // namespace storage
}  // namespace qp

#endif  // QP_STORAGE_RECORD_H_
