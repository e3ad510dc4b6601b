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
/// mutators, recovery, a tiered store's cold loads and checkpoints,
/// RepairUser, and (through DurableProfileStore::Apply) the migrator's
/// tail.
void Replay(ProfileMutation* mutation, std::optional<UserProfile>* profile);

/// Appends the binary encoding of `mutation` to `*dst`. The encoding is
/// exact (doubles as raw bit patterns), unlike the text profile format
/// which rounds degrees to six significant digits.
void EncodeMutation(const ProfileMutation& mutation, std::string* dst);

/// Decodes one mutation from `data`, which must contain exactly one
/// encoded mutation. Any framing violation (truncated field, unknown
/// kind/tag, trailing bytes) yields a ParseError.
Result<ProfileMutation> DecodeMutation(std::string_view data);

/// Preference-level encode/decode, shared by mutations and exercised
/// directly by the round-trip fuzz suite.
void EncodePreference(const AtomicPreference& preference, std::string* dst);

/// True when the two preferences are identical including kind, condition,
/// width and exact degree bits (SameCondition ignores the degree).
bool PreferencesEqual(const AtomicPreference& a, const AtomicPreference& b);

/// Exact structural equality of two profiles: same preferences in the
/// same order, degrees compared bit-for-bit.
bool ProfilesEqual(const UserProfile& a, const UserProfile& b);

}  // namespace storage
}  // namespace qp

#endif  // QP_STORAGE_RECORD_H_
