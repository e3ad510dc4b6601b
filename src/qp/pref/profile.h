#ifndef QP_PREF_PROFILE_H_
#define QP_PREF_PROFILE_H_

#include <string>
#include <string_view>
#include <vector>

#include "qp/pref/preference.h"
#include "qp/relational/schema.h"
#include "qp/util/status.h"

namespace qp {

/// A user profile: the set of atomic preferences stored for one user
/// (paper Figure 2). Zero-valued preferences are not stored.
class UserProfile {
 public:
  UserProfile() = default;

  /// Adds a preference. Fails if the degree is outside [-1, 1] or NaN,
  /// the degree is 0 (zero-valued preferences are not stored), a join's
  /// degree is negative, a DOUBLE literal, near target or near width is
  /// infinite or NaN, or a preference with the same condition
  /// (SameCondition) already exists.
  Status Add(AtomicPreference preference);

  /// Adds or replaces the preference with the same condition. Checks no
  /// degree: Validate does, before a store accepts the profile.
  void AddOrUpdate(AtomicPreference preference);

  const std::vector<AtomicPreference>& preferences() const {
    return preferences_;
  }

  /// Number of stored atomic selection preferences — the paper's notion of
  /// "profile size" in the Figure 6 experiment.
  size_t NumSelections() const;
  size_t NumJoins() const;
  size_t size() const { return preferences_.size(); }
  bool empty() const { return preferences_.empty(); }

  /// The stored join preference from `from` to `to`, or nullptr. Direction
  /// matters: Find(PLAY.mid -> MOVIE.mid) and the reverse are distinct.
  const AtomicPreference* FindJoin(const AttributeRef& from,
                                   const AttributeRef& to) const;

  /// The stored selection preference on `attr` = `value`, or nullptr.
  const AtomicPreference* FindSelection(const AttributeRef& attr,
                                        const Value& value) const;

  /// Checks every preference: its numbers obey Add's rules, and against
  /// `schema`, attributes must exist, selection literal types must match
  /// the column type, and every join preference must correspond to a
  /// declared schema join.
  Status Validate(const Schema& schema) const;

  /// Renders the profile in the paper's text format, one entry per line:
  ///   [ PLAY.mid=MOVIE.mid, 1 ]
  ///   [ GENRE.genre='comedy', 0.9 ]
  /// Parse reads it back exactly, value types included. Stores keep
  /// profiles in the binary codec (storage::EncodeProfile); this format
  /// is for profile files and display.
  std::string Serialize() const;

  /// Parses the format produced by Serialize. Lines that are empty or
  /// start with '#' are ignored. Join vs selection is inferred from the
  /// right-hand side (attribute reference vs literal).
  static Result<UserProfile> Parse(std::string_view text);

 private:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  /// Index of the stored preference whose condition equals
  /// `preference`'s, or kNotFound. `hash` is its ConditionHash.
  size_t FindCondition(const AtomicPreference& preference, size_t hash) const;

  std::vector<AtomicPreference> preferences_;
  /// ConditionHash of each preference, index for index: the duplicate
  /// check calls SameCondition only where the hashes match.
  std::vector<size_t> hashes_;
};

/// A stored preference's names resolved against a schema.
struct ResolvedPreference {
  /// The selection attribute, or the join's already-in-query side.
  AttributeId attribute;
  /// The declared join a join preference traverses (joins only).
  JoinId join = 0;
  /// The relation a join preference reaches (joins only).
  TableId target_table = 0;
};

/// Applies UserProfile::Validate's checks to one preference, with the
/// same status codes and messages, and resolves its names on the way:
/// one hash lookup per relation name.
Result<ResolvedPreference> ResolvePreference(const Schema& schema,
                                             const AtomicPreference& p);

}  // namespace qp

#endif  // QP_PREF_PROFILE_H_
