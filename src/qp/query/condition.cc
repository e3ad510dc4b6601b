#include "qp/query/condition.h"

#include <cassert>

#include "qp/util/string_util.h"

namespace qp {

AtomicCondition AtomicCondition::Selection(std::string var, std::string column,
                                           Value value) {
  AtomicCondition c;
  c.kind_ = Kind::kSelection;
  c.left_var_ = std::move(var);
  c.left_column_ = std::move(column);
  c.value_ = std::move(value);
  return c;
}

AtomicCondition AtomicCondition::Join(std::string left_var,
                                      std::string left_column,
                                      std::string right_var,
                                      std::string right_column) {
  AtomicCondition c;
  c.kind_ = Kind::kJoin;
  c.left_var_ = std::move(left_var);
  c.left_column_ = std::move(left_column);
  c.right_var_ = std::move(right_var);
  c.right_column_ = std::move(right_column);
  return c;
}

AtomicCondition AtomicCondition::Near(std::string var, std::string column,
                                      Value target, double width) {
  assert(width > 0.0);
  AtomicCondition c;
  c.kind_ = Kind::kNear;
  c.left_var_ = std::move(var);
  c.left_column_ = std::move(column);
  c.value_ = std::move(target);
  c.width_ = width;
  return c;
}

double AtomicCondition::Satisfaction(const Value& v) const {
  assert(is_near());
  if (v.is_null() || v.type() == DataType::kString) return 0.0;
  double distance = v.AsNumeric() - value_.AsNumeric();
  if (distance < 0) distance = -distance;
  if (distance >= width_) return 0.0;
  return 1.0 - distance / width_;
}

std::vector<std::string> AtomicCondition::ReferencedVars() const {
  if (is_join()) return {left_var_, right_var_};
  return {left_var_};
}

std::string AtomicCondition::ToSql() const {
  switch (kind_) {
    case Kind::kSelection:
      return left_var_ + "." + left_column_ + "=" + value_.ToSqlLiteral();
    case Kind::kNear:
      return "near(" + left_var_ + "." + left_column_ + ", " +
             value_.ToSqlLiteral() + ", " + FormatDouble(width_) + ")";
    case Kind::kJoin:
      break;
  }
  return left_var_ + "." + left_column_ + "=" + right_var_ + "." +
         right_column_;
}

bool operator==(const AtomicCondition& a, const AtomicCondition& b) {
  if (a.kind_ != b.kind_) return false;
  if (a.is_join()) {
    return a.left_var_ == b.left_var_ && a.left_column_ == b.left_column_ &&
           a.right_var_ == b.right_var_ &&
           a.right_column_ == b.right_column_;
  }
  return a.left_var_ == b.left_var_ && a.left_column_ == b.left_column_ &&
         a.value_ == b.value_ && a.width_ == b.width_;
}

ConditionPtr ConditionNode::MakeAtom(AtomicCondition atom) {
  auto node = std::make_shared<ConditionNode>(Key());
  node->kind_ = Kind::kAtom;
  node->atom_ = std::move(atom);
  return node;
}

ConditionPtr ConditionNode::MakeAnd(std::vector<ConditionPtr> children) {
  std::vector<ConditionPtr> flat;
  for (auto& child : children) {
    if (child == nullptr) continue;  // "true" is the identity of AND.
    if (child->kind() == Kind::kAnd) {
      for (const auto& grandchild : child->children()) {
        flat.push_back(grandchild);
      }
    } else {
      flat.push_back(std::move(child));
    }
  }
  if (flat.empty()) return nullptr;
  if (flat.size() == 1) return flat[0];
  auto node = std::make_shared<ConditionNode>(Key());
  node->kind_ = Kind::kAnd;
  node->children_ = std::move(flat);
  return node;
}

ConditionPtr ConditionNode::MakeOr(std::vector<ConditionPtr> children) {
  std::vector<ConditionPtr> flat;
  for (auto& child : children) {
    if (child == nullptr) continue;
    if (child->kind() == Kind::kOr) {
      for (const auto& grandchild : child->children()) {
        flat.push_back(grandchild);
      }
    } else {
      flat.push_back(std::move(child));
    }
  }
  if (flat.empty()) return nullptr;
  if (flat.size() == 1) return flat[0];
  auto node = std::make_shared<ConditionNode>(Key());
  node->kind_ = Kind::kOr;
  node->children_ = std::move(flat);
  return node;
}

ConditionPtr ConditionNode::Conjoin(ConditionPtr a, ConditionPtr b) {
  return MakeAnd({std::move(a), std::move(b)});
}

void ConditionNode::CollectAtoms(std::vector<AtomicCondition>* out) const {
  ForEachAtom([out](const AtomicCondition& atom) { out->push_back(atom); });
}

std::string ConditionNode::ToSql() const {
  switch (kind_) {
    case Kind::kAtom:
      return atom_.ToSql();
    case Kind::kAnd: {
      std::string out;
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += " and ";
        if (children_[i]->kind() == Kind::kOr) {
          out += "(" + children_[i]->ToSql() + ")";
        } else {
          out += children_[i]->ToSql();
        }
      }
      return out;
    }
    case Kind::kOr: {
      std::string out;
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += " or ";
        if (children_[i]->kind() == Kind::kAnd) {
          out += "(" + children_[i]->ToSql() + ")";
        } else {
          out += children_[i]->ToSql();
        }
      }
      return out;
    }
  }
  return "";
}

size_t ConditionNode::NumAtoms() const {
  if (kind_ == Kind::kAtom) return 1;
  size_t n = 0;
  for (const auto& child : children_) n += child->NumAtoms();
  return n;
}

bool ConditionEquals(const ConditionPtr& a, const ConditionPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->kind() != b->kind()) return false;
  if (a->kind() == ConditionNode::Kind::kAtom) return a->atom() == b->atom();
  if (a->children().size() != b->children().size()) return false;
  for (size_t i = 0; i < a->children().size(); ++i) {
    if (!ConditionEquals(a->children()[i], b->children()[i])) return false;
  }
  return true;
}

std::vector<std::vector<AtomicCondition>> ToDnf(
    const ConditionPtr& condition) {
  if (condition == nullptr) return {{}};
  switch (condition->kind()) {
    case ConditionNode::Kind::kAtom:
      return {{condition->atom()}};
    case ConditionNode::Kind::kOr: {
      std::vector<std::vector<AtomicCondition>> out;
      for (const auto& child : condition->children()) {
        auto sub = ToDnf(child);
        out.insert(out.end(), std::make_move_iterator(sub.begin()),
                   std::make_move_iterator(sub.end()));
      }
      return out;
    }
    case ConditionNode::Kind::kAnd: {
      std::vector<std::vector<AtomicCondition>> out = {{}};
      for (const auto& child : condition->children()) {
        auto sub = ToDnf(child);
        std::vector<std::vector<AtomicCondition>> next;
        next.reserve(out.size() * sub.size());
        for (const auto& left : out) {
          for (const auto& right : sub) {
            std::vector<AtomicCondition> merged = left;
            merged.insert(merged.end(), right.begin(), right.end());
            next.push_back(std::move(merged));
          }
        }
        out = std::move(next);
      }
      return out;
    }
  }
  return {{}};
}

}  // namespace qp
