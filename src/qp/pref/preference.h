#ifndef QP_PREF_PREFERENCE_H_
#define QP_PREF_PREFERENCE_H_

#include <string>

#include "qp/relational/schema.h"
#include "qp/relational/value.h"

namespace qp {

/// A stored atomic user preference (paper Section 3.1): a degree of
/// interest attached to an atomic query element.
///
/// - Selection preference: interest in the condition `table.column = value`
///   (e.g. [ GENRE.genre='comedy', 0.9 ]). Selection degrees may be
///   *negative* (in [-1, 0)) to express dislike — the extension the paper
///   lists as ongoing work: [ GENRE.genre='horror', -0.8 ] means results
///   matching the condition should be penalized or vetoed.
/// - Join preference: interest in including the join `from = to` into a
///   query *whose qualification already contains the `from` relation`.
///   Direction matters: the same schema join may be stored twice with
///   different degrees (e.g. [ PLAY.mid=MOVIE.mid, 1 ] and
///   [ MOVIE.mid=PLAY.mid, 0.8 ]). Join degrees are structural and must
///   stay positive.
class AtomicPreference {
 public:
  enum class Kind { kSelection, kJoin, kNear };

  static AtomicPreference Selection(AttributeRef attr, Value value,
                                    double doi);
  static AtomicPreference Join(AttributeRef from, AttributeRef to,
                               double doi);
  /// Soft (proximity) selection preference on a numeric attribute — the
  /// "price near $20" style of the paper's related-work discussion and
  /// its Section 8 agenda. Satisfaction decays linearly from 1 at
  /// `target` to 0 at distance `width`; the effective degree of a result
  /// is doi * satisfaction.
  static AtomicPreference NearSelection(AttributeRef attr, Value target,
                                        double width, double doi);

  Kind kind() const { return kind_; }
  /// True for both exact and near selections (anything that terminates a
  /// preference path).
  bool is_selection() const { return kind_ != Kind::kJoin; }
  bool is_join() const { return kind_ == Kind::kJoin; }
  bool is_near() const { return kind_ == Kind::kNear; }
  /// Proximity half-width (require is_near()).
  double width() const { return width_; }

  /// The selection attribute, or the join's already-in-query side.
  const AttributeRef& attribute() const { return attribute_; }
  /// Join target side (requires is_join()).
  const AttributeRef& target() const { return target_; }
  /// Selection literal (requires is_selection()).
  const Value& value() const { return value_; }

  double doi() const { return doi_; }
  /// True for a dislike (negative degree selection preference).
  bool is_negative() const { return doi_ < 0.0; }

  /// The atomic condition without the degree: "GENRE.genre='comedy'" or
  /// "PLAY.mid=MOVIE.mid".
  std::string ConditionString() const;

  /// Profile-file rendering in the paper's format:
  /// "[ GENRE.genre='comedy', 0.9 ]".
  std::string ToString() const;

  /// Same grammar as ToString but with round-trip-exact numerics (doi,
  /// width, real literals): what UserProfile::Serialize persists, so a
  /// snapshot/parse cycle reproduces the preference bit for bit. For
  /// short degrees like 0.9 the two renderings are identical.
  std::string Serialize() const;

  /// True if both describe the same condition (degree ignored).
  bool SameCondition(const AtomicPreference& other) const;

  /// A hash of the condition that agrees with SameCondition: conditions
  /// it calls equal hash alike, so 2 and 2.0 hash alike, and the near
  /// width (where -0.0 equals 0.0) is left out.
  size_t ConditionHash() const;

 private:
  AtomicPreference() = default;

  Kind kind_ = Kind::kSelection;
  AttributeRef attribute_;
  AttributeRef target_;  // Joins only.
  Value value_;          // Selections and near selections.
  double width_ = 0.0;   // Near selections only.
  double doi_ = 0.0;
};

}  // namespace qp

#endif  // QP_PREF_PREFERENCE_H_
