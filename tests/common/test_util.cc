#include "common/test_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <unordered_map>

#include "qp/obs/flight_recorder.h"
#include "qp/obs/trace.h"
#include "qp/pref/doi.h"
#include "qp/util/string_util.h"

namespace qp {
namespace testing_util {
namespace {

/// A cell of the binding being built: FROM position and column index.
struct CellRef {
  size_t var;
  size_t col;
};

/// One atom of a conjunct with its cells resolved.
struct BoundAtom {
  const AtomicCondition* atom;
  CellRef left;
  CellRef right;  // Joins only.
};

size_t FromPosition(const SelectQuery& query, const std::string& alias) {
  size_t i = 0;
  while (query.from()[i].alias != alias) ++i;
  return i;
}

/// Calls `emit(binding, satisfaction)` for every binding of the FROM
/// positions `vars` (ascending) that satisfies all of `conjunct`. Entry i
/// of a binding is the row bound to FROM position i.
void ForEachBinding(
    const SelectQuery& query, const std::vector<const Table*>& tables,
    const std::vector<size_t>& vars,
    const std::vector<AtomicCondition>& conjunct,
    const std::function<void(const std::vector<RowId>&, double)>& emit) {
  auto cell = [&](const std::string& alias, const std::string& column) {
    const size_t var = FromPosition(query, alias);
    return CellRef{var, *tables[var]->schema().ColumnIndex(column)};
  };
  // checks[d]: the atoms whose last variable to be bound is vars[d].
  std::vector<std::vector<BoundAtom>> checks(vars.size());
  for (const AtomicCondition& atom : conjunct) {
    BoundAtom bound{&atom, {}, {}};
    if (atom.is_join()) {
      bound.left = cell(atom.left_var(), atom.left_column());
      bound.right = cell(atom.right_var(), atom.right_column());
    } else {
      bound.left = bound.right = cell(atom.var(), atom.column());
    }
    const size_t last = std::max(bound.left.var, bound.right.var);
    const size_t depth =
        std::find(vars.begin(), vars.end(), last) - vars.begin();
    checks[depth].push_back(bound);
  }

  std::vector<RowId> binding(tables.size(), 0);
  auto at = [&](CellRef ref) -> const Value& {
    return tables[ref.var]->At(binding[ref.var], ref.col);
  };
  std::function<void(size_t, double)> bind = [&](size_t depth, double sat) {
    if (depth == vars.size()) {
      emit(binding, sat);
      return;
    }
    const size_t var = vars[depth];
    for (RowId id = 0; id < tables[var]->num_rows(); ++id) {
      binding[var] = id;
      double row_sat = sat;
      bool holds = true;
      for (const BoundAtom& check : checks[depth]) {
        const AtomicCondition& atom = *check.atom;
        if (atom.is_selection()) {
          holds = at(check.left) == atom.value();
        } else if (atom.is_join()) {
          holds = at(check.left) == at(check.right);
        } else {
          const double s = atom.Satisfaction(at(check.left));
          holds = s > 0.0;
          row_sat *= s;
        }
        if (!holds) break;
      }
      if (holds) bind(depth + 1, row_sat);
    }
  };
  bind(0, 1.0);
}

/// Inserts `key` with `sat`, or raises the satisfaction it already has.
template <typename Map, typename Key>
void KeepBest(Map* map, Key key, double sat) {
  auto [it, added] = map->emplace(std::move(key), sat);
  if (!added && sat > it->second) it->second = sat;
}

std::vector<std::string> OutputNames(const SelectQuery& query) {
  std::vector<std::string> names;
  for (const ProjectionItem& item : query.projections()) {
    names.push_back(item.OutputName());
  }
  return names;
}

}  // namespace

ResultSet ReferenceExecute(const Database& db, const SelectQuery& query) {
  ResultSet out(OutputNames(query));
  std::vector<const Table*> tables;
  for (const TupleVariable& var : query.from()) {
    tables.push_back(db.GetTable(var.table).value());
    if (tables.back()->num_rows() == 0) return out;
  }
  auto project = [&](const std::vector<RowId>& binding) {
    Row row;
    for (const ProjectionItem& item : query.projections()) {
      const size_t var = FromPosition(query, item.var);
      const size_t col = *tables[var]->schema().ColumnIndex(item.column);
      row.push_back(tables[var]->At(binding[var], col));
    }
    return row;
  };

  // Each answer row's best satisfaction, keyed by the projected row under
  // DISTINCT and by the whole binding otherwise.
  std::unordered_map<Row, double, RowHash, RowEq> by_row;
  std::map<std::vector<RowId>, double> by_binding;
  for (const std::vector<AtomicCondition>& conjunct : ToDnf(query.where())) {
    std::unordered_set<std::string> used;
    for (const AtomicCondition& atom : conjunct) {
      for (std::string& alias : atom.ReferencedVars()) {
        used.insert(std::move(alias));
      }
    }
    for (const ProjectionItem& item : query.projections()) {
      used.insert(item.var);
    }
    std::vector<size_t> vars;
    for (size_t i = 0; i < query.from().size(); ++i) {
      if (!query.distinct() || used.contains(query.from()[i].alias)) {
        vars.push_back(i);
      }
    }
    ForEachBinding(query, tables, vars, conjunct,
                   [&](const std::vector<RowId>& binding, double sat) {
                     if (query.distinct()) {
                       KeepBest(&by_row, project(binding), sat);
                     } else {
                       KeepBest(&by_binding, binding, sat);
                     }
                   });
  }

  std::vector<AtomicCondition> atoms;
  if (query.where() != nullptr) query.where()->CollectAtoms(&atoms);
  const bool has_near =
      std::any_of(atoms.begin(), atoms.end(),
                  [](const AtomicCondition& atom) { return atom.is_near(); });
  std::vector<double> sats;
  auto add = [&](Row row, double sat) {
    out.AddRow(std::move(row));
    if (has_near) sats.push_back(sat);
  };
  for (const auto& [row, sat] : by_row) add(row, sat);
  for (const auto& [binding, sat] : by_binding) add(project(binding), sat);
  out.set_satisfactions(std::move(sats));
  out.Canonicalize();
  return out;
}

ResultSet ReferenceExecute(const Database& db, const CompoundQuery& query) {
  struct Group {
    size_t count = 0;
    ConjunctiveAccumulator likes;
    ConjunctiveAccumulator dislikes;
  };
  std::unordered_map<Row, Group, RowHash, RowEq> groups;
  for (const CompoundPart& part : query.parts()) {
    const ResultSet answer = ReferenceExecute(db, part.query);
    for (size_t i = 0; i < answer.num_rows(); ++i) {
      Group& group = groups[answer.row(i)];
      const double degree = part.degree * answer.satisfaction(i);
      if (degree < 0.0) {
        group.dislikes.Add(-degree);
      } else {
        ++group.count;
        group.likes.Add(degree);
      }
    }
  }
  std::unordered_set<Row, RowHash, RowEq> vetoed;
  for (const SelectQuery& exclusion : query.exclusions()) {
    const ResultSet excluded = ReferenceExecute(db, exclusion);
    vetoed.insert(excluded.rows().begin(), excluded.rows().end());
  }

  ResultSet out(OutputNames(query.parts()[0].query));
  const HavingClause& having = query.having();
  for (const auto& [row, group] : groups) {
    if (group.count == 0 || vetoed.contains(row)) continue;
    const double combined = group.likes.Degree() - group.dislikes.Degree();
    const bool passes =
        having.kind == HavingClause::Kind::kNone ||
        (having.kind == HavingClause::Kind::kCountAtLeast &&
         group.count >= having.min_count) ||
        (having.kind == HavingClause::Kind::kDegreeAbove &&
         combined > having.min_degree);
    if (passes) out.AddRankedRow(row, group.count, combined);
  }
  out.Canonicalize();
  return out;
}

std::string ExactString(const ResultSet& result) {
  auto hex = [](double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", value);
    return std::string(buf);
  };
  std::string out = Join(result.columns(), "\t");
  out += result.truncated() ? "\t(truncated)\n" : "\n";
  for (size_t i = 0; i < result.num_rows(); ++i) {
    for (const Value& value : result.row(i)) {
      out += value.type() == DataType::kDouble ? hex(value.as_double())
                                               : value.ToString();
      out += "\t";
    }
    if (result.has_ranking()) {
      out += "count=" + std::to_string(result.counts()[i]) +
             " degree=" + hex(result.degrees()[i]);
    }
    if (result.has_satisfactions()) {
      out += " sat=" + hex(result.satisfaction(i));
    }
    out += "\n";
  }
  return out;
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  auto key = [](const Row& row) {
    std::string k;
    for (const Value& v : row) {
      k += v.ToString();
      k += '\x1f';
    }
    return k;
  };
  std::vector<std::string> ka;
  std::vector<std::string> kb;
  for (const Row& row : a) ka.push_back(key(row));
  for (const Row& row : b) kb.push_back(key(row));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  return ka == kb;
}

std::string DumpFlightRecorderSnapshot(const std::string& label) {
  std::string path = label + "_blackbox.json";
  if (const char* dir = std::getenv("QP_ARTIFACT_DIR")) {
    path = std::string(dir) + "/" + path;
  }
  const std::string json =
      obs::FlightRecorder::ToJson(obs::FlightRecorder::Global()->Dump());
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return "";
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  std::fprintf(stderr, "[%s] flight recorder snapshot: %s\n", label.c_str(),
               path.c_str());
  return path;
}

}  // namespace testing_util
}  // namespace qp
