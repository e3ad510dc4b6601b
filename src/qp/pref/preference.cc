#include "qp/pref/preference.h"

#include <cmath>
#include <functional>

#include "qp/util/string_util.h"

namespace qp {

AtomicPreference AtomicPreference::Selection(AttributeRef attr, Value value,
                                             double doi) {
  AtomicPreference p;
  p.kind_ = Kind::kSelection;
  p.attribute_ = std::move(attr);
  p.value_ = std::move(value);
  p.doi_ = doi;
  return p;
}

AtomicPreference AtomicPreference::Join(AttributeRef from, AttributeRef to,
                                        double doi) {
  AtomicPreference p;
  p.kind_ = Kind::kJoin;
  p.attribute_ = std::move(from);
  p.target_ = std::move(to);
  p.doi_ = doi;
  return p;
}

AtomicPreference AtomicPreference::NearSelection(AttributeRef attr,
                                                 Value target, double width,
                                                 double doi) {
  AtomicPreference p;
  p.kind_ = Kind::kNear;
  p.attribute_ = std::move(attr);
  p.value_ = std::move(target);
  p.width_ = width;
  p.doi_ = doi;
  return p;
}

std::string AtomicPreference::ConditionString() const {
  switch (kind_) {
    case Kind::kSelection:
      return attribute_.ToString() + "=" + value_.ToSqlLiteral();
    case Kind::kNear:
      return "near(" + attribute_.ToString() + ", " +
             value_.ToSqlLiteral() + ", " + FormatDouble(width_) + ")";
    case Kind::kJoin:
      break;
  }
  return attribute_.ToString() + "=" + target_.ToString();
}

std::string AtomicPreference::ToString() const {
  return "[ " + ConditionString() + ", " + FormatDouble(doi_) + " ]";
}

namespace {

/// Literal rendering whose parse yields the identical Value, type
/// included: reals need the round-trip formatter (ToSqlLiteral's 6
/// significant digits would silently perturb a stored degree-of-interest
/// or target), and an integral real gets a ".0" so that 7.0 and -0.0
/// parse back as doubles rather than as the integers 7 and 0.
std::string ExactLiteral(const Value& value) {
  if (value.type() != DataType::kDouble) return value.ToSqlLiteral();
  std::string text = FormatDoubleRoundTrip(value.as_double());
  if (text.find_first_not_of("-0123456789") == std::string::npos) {
    text += ".0";
  }
  return text;
}

void HashCombine(size_t* seed, size_t value) {
  *seed ^= value + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

/// Agrees with Value's equality: a number hashes through its double (Int
/// and Real compare by their doubles), and -0.0 as 0.0.
size_t LiteralHash(const Value& value) {
  switch (value.type()) {
    case DataType::kNull:
      return 0;
    case DataType::kString:
      return std::hash<std::string>{}(value.as_string());
    case DataType::kInt64:
    case DataType::kDouble:
      break;
  }
  const double d = value.AsNumeric();
  return std::hash<double>{}(d == 0.0 ? 0.0 : d);
}

}  // namespace

std::string AtomicPreference::Serialize() const {
  std::string condition;
  switch (kind_) {
    case Kind::kSelection:
      condition = attribute_.ToString() + "=" + ExactLiteral(value_);
      break;
    case Kind::kNear:
      condition = "near(" + attribute_.ToString() + ", " +
                  ExactLiteral(value_) + ", " +
                  FormatDoubleRoundTrip(width_) + ")";
      break;
    case Kind::kJoin:
      condition = attribute_.ToString() + "=" + target_.ToString();
      break;
  }
  return "[ " + condition + ", " + FormatDoubleRoundTrip(doi_) + " ]";
}

bool AtomicPreference::SameCondition(const AtomicPreference& other) const {
  if (kind_ != other.kind_) return false;
  if (!(attribute_ == other.attribute_)) return false;
  if (is_join()) return target_ == other.target_;
  return value_ == other.value_ && width_ == other.width_;
}

size_t AtomicPreference::ConditionHash() const {
  const std::hash<std::string> hash_string;
  size_t seed = static_cast<size_t>(kind_);
  HashCombine(&seed, hash_string(attribute_.table));
  HashCombine(&seed, hash_string(attribute_.column));
  if (is_join()) {
    HashCombine(&seed, hash_string(target_.table));
    HashCombine(&seed, hash_string(target_.column));
  } else {
    HashCombine(&seed, LiteralHash(value_));
  }
  return seed;
}

}  // namespace qp
