#include "qp/exec/executor.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "qp/exec/batch_table.h"
#include "qp/pref/doi.h"
#include "qp/util/fault_hub.h"

namespace qp {
namespace {

/// One tuple variable being joined, with its pushed-down selections.
struct VarSlot {
  std::string alias;
  const Table* table = nullptr;
  /// (column index, required value) equality selections on this variable.
  std::vector<std::pair<size_t, Value>> selections;
  /// (column index, near condition) soft selections: a row matches while
  /// its satisfaction is > 0; the satisfaction itself scales degrees.
  std::vector<std::pair<size_t, AtomicCondition>> nears;
  bool impossible = false;  // Two selections on the same column disagree.
};

/// A resolved join atom: slots and column indices.
struct ResolvedJoin {
  size_t va, ca, vb, cb;
  bool applied = false;
};

/// Slots + joins for one conjunctive block.
struct BuiltConjunct {
  std::vector<VarSlot> slots;
  std::vector<ResolvedJoin> joins;
};

/// Resolves `vars` and `atoms` into slots with pushed-down selections and
/// resolved join atoms. Every atom must reference only aliases in `vars`.
Result<BuiltConjunct> BuildConjunct(const Database& db,
                                    const std::vector<TupleVariable>& vars,
                                    const std::vector<AtomicCondition>& atoms) {
  // Chaos site covering every conjunct run (a select's, so each compound
  // part's). Error mode surfaces as a per-response error; delay mode
  // stalls the disjunct, which under a deadline becomes a truncated —
  // still exact-prefix — result.
  QP_RETURN_IF_ERROR(QP_FAULT_POINT("exec.disjunct"));
  BuiltConjunct built;
  std::unordered_map<std::string, size_t> slot_index;
  for (const TupleVariable& var : vars) {
    QP_ASSIGN_OR_RETURN(const Table* table, db.GetTable(var.table));
    slot_index[var.alias] = built.slots.size();
    built.slots.push_back(VarSlot{var.alias, table, {}, {}, false});
  }
  for (const AtomicCondition& atom : atoms) {
    if (atom.is_selection()) {
      auto it = slot_index.find(atom.var());
      if (it == slot_index.end()) {
        return Status::Internal("unresolved alias: " + atom.var());
      }
      VarSlot& slot = built.slots[it->second];
      size_t col = *slot.table->schema().ColumnIndex(atom.column());
      for (const auto& [existing_col, existing_value] : slot.selections) {
        if (existing_col == col && existing_value != atom.value()) {
          slot.impossible = true;
        }
      }
      if (!slot.impossible) slot.selections.emplace_back(col, atom.value());
    } else if (atom.is_near()) {
      auto it = slot_index.find(atom.var());
      if (it == slot_index.end()) {
        return Status::Internal("unresolved alias: " + atom.var());
      }
      VarSlot& slot = built.slots[it->second];
      size_t col = *slot.table->schema().ColumnIndex(atom.column());
      slot.nears.emplace_back(col, atom);
    } else {
      auto left = slot_index.find(atom.left_var());
      auto right = slot_index.find(atom.right_var());
      if (left == slot_index.end() || right == slot_index.end()) {
        return Status::Internal("unresolved join alias in " + atom.ToSql());
      }
      size_t va = left->second;
      size_t vb = right->second;
      size_t ca =
          *built.slots[va].table->schema().ColumnIndex(atom.left_column());
      size_t cb =
          *built.slots[vb].table->schema().ColumnIndex(atom.right_column());
      built.joins.push_back(ResolvedJoin{va, ca, vb, cb, false});
    }
  }
  return built;
}

/// Executes one conjunctive SPJ block. The working set is a BatchTable
/// with one contiguous RowId column per slot. The runner materializes the
/// cheapest slot's candidate ids, then repeatedly joins in the cheapest
/// slot reachable through a join atom (a cross product when none is),
/// re-filtering on join atoms whose two sides are now bound. Join steps
/// emit (source row, matched id) index pairs and gather the surviving
/// columns in one pass; slots whose column no later join or projection
/// needs are dropped after each step, so wide conjuncts narrow as they
/// go.
///
/// A run with set semantics (its caller keeps only distinct rows of the
/// needed slots) semi-joins its existential slots: those not needed and
/// touched by no join atom but the one they are probed through. Such a
/// slot only asserts that a matching row exists, so its join step keeps
/// each batch row once if some target row passes, and binds no column.
/// ExecutorStats::bindings counts the rows each step produces
/// (materialization, cross product, probe output, rows a semi step keeps).
class BatchRunner {
 public:
  BatchRunner(ExecutorStats* stats, const CancelToken* cancel)
      : stats_(stats), cancel_(cancel) {}

  /// True when the run was cut short by the cancel token. A stopped run
  /// discards the in-flight batch (it may have unbound slots) and returns
  /// an empty one, so only fully joined rows ever surface; callers flag
  /// the result truncated.
  bool stopped() const { return stopped_; }

  /// `needed[i]` marks slots whose column must survive to the end
  /// (projections, near conditions, dedup keys); the rest may be dropped
  /// once every join touching them has been applied. `distinct` gives the
  /// run set semantics: only which distinct needed-slot tuples it yields
  /// matters, not how often each comes.
  BatchTable Run(std::vector<VarSlot> slots, std::vector<ResolvedJoin> joins,
                 std::vector<bool> needed, bool distinct) {
    const size_t width = slots.size();
    slots_ = std::move(slots);
    joins_ = std::move(joins);
    needed_ = std::move(needed);
    MarkExistential(distinct);
    bound_.assign(width, false);
    batch_ = BatchTable(width);

    for (const VarSlot& slot : slots_) {
      if (slot.impossible || slot.table->num_rows() == 0) {
        return BatchTable(width);
      }
    }
    Resolve();
    size_t seed = CheapestUnbound();
    std::vector<RowId> ids = MaterializeIds(seed);
    if (stopped_) return BatchTable(width);
    batch_.SetColumn(seed, BatchColumn::RowIds(std::move(ids)));
    bound_[seed] = true;
    return Loop();
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);
  /// Rows between cancel polls in the inner row loops. Small enough that
  /// a tripped deadline stops within microseconds, large enough that the
  /// atomic loads never show up in profiles.
  static constexpr uint64_t kPollStride = 128;

  /// A pushed-down equality selection resolved against its column's key
  /// index: a row passes when its code equals `code`.
  struct CodedSelection {
    std::span<const uint32_t> codes;  // The column's code per row.
    uint32_t code;
    std::span<const RowId> rows;  // The rows holding `code`.
  };

  /// Resolves every selection's value to its code once per run (a value
  /// no row holds gets a code no row has, so the slot simply matches
  /// nothing), and fixes each slot's estimate, the smallest posting list
  /// among its selections, without re-probing the index at every step.
  void Resolve() {
    coded_.assign(slots_.size(), {});
    estimates_.assign(slots_.size(), 0);
    for (size_t i = 0; i < slots_.size(); ++i) {
      const VarSlot& slot = slots_[i];
      size_t estimate = slot.table->num_rows();
      for (const auto& [col, value] : slot.selections) {
        const KeyIndex& keys = slot.table->Keys(col);
        uint32_t code = slot.table->KeyCode(col, value);
        coded_[i].push_back({keys.codes(), code, keys.postings(code)});
        estimate = std::min(estimate, coded_[i].back().rows.size());
      }
      estimates_[i] = estimate;
    }
  }

  /// Under set semantics, marks the slots that are not needed and touch
  /// exactly one join atom (a self-join atom counts twice).
  void MarkExistential(bool distinct) {
    existential_.assign(slots_.size(), false);
    if (!distinct) return;
    std::vector<size_t> atoms(slots_.size(), 0);
    for (const ResolvedJoin& join : joins_) {
      ++atoms[join.va];
      ++atoms[join.vb];
    }
    for (size_t i = 0; i < slots_.size(); ++i) {
      existential_[i] = !needed_[i] && atoms[i] == 1;
    }
  }

  /// Whether row `id` of slot `i` passes the slot's selections (compared
  /// on codes; `skip`, one the caller knows the row passes, is not) and
  /// near conditions (which read the cell).
  bool RowPasses(size_t i, RowId id,
                 const CodedSelection* skip = nullptr) const {
    for (const CodedSelection& sel : coded_[i]) {
      if (&sel != skip && sel.codes[id] != sel.code) return false;
    }
    const VarSlot& slot = slots_[i];
    for (const auto& [col, near] : slot.nears) {
      if (near.Satisfaction(slot.table->At(id, col)) <= 0.0) return false;
    }
    return true;
  }

  /// Direct cancel poll, used at coarse boundaries (once per join step).
  /// Sticky: once tripped the runner stays stopped.
  bool PollCancel() {
    if (stopped_) return true;
    if (cancel_ != nullptr && cancel_->ShouldStop()) stopped_ = true;
    return stopped_;
  }

  /// Row-loop poll: consults the token every kPollStride calls.
  bool PollCancelStrided() {
    if (stopped_) return true;
    if (cancel_ == nullptr) return false;
    if ((++poll_counter_ % kPollStride) != 0) return false;
    return PollCancel();
  }

  BatchTable Loop() {
    const size_t width = slots_.size();
    while (true) {
      // Stopping between join steps discards the in-flight batch: it may
      // have unbound slots and must not surface as rows.
      if (PollCancel()) return BatchTable(width);
      if (batch_.num_rows() == 0) return BatchTable(width);
      size_t next = PickNextJoined();
      if (next == kNone) {
        next = CheapestUnbound();
        if (next == kNone) break;  // All bound.
        CrossProductStep(next);
      } else {
        JoinStep(next);
      }
      if (stopped_) return BatchTable(width);
      bound_[next] = true;
      ApplyNewlyBoundJoins();
      DropDeadColumns();
    }
    return std::move(batch_);
  }

  size_t CheapestUnbound() const {
    size_t best = kNone;
    size_t best_cost = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (bound_[i]) continue;
      size_t cost = estimates_[i];
      if (best == kNone || cost < best_cost) {
        best = i;
        best_cost = cost;
      }
    }
    return best;
  }

  size_t PickNextJoined() const {
    size_t best = kNone;
    size_t best_cost = 0;
    for (const ResolvedJoin& join : joins_) {
      size_t target = kNone;
      if (bound_[join.va] && !bound_[join.vb]) target = join.vb;
      if (bound_[join.vb] && !bound_[join.va]) target = join.va;
      if (target == kNone) continue;
      size_t cost = estimates_[target];
      if (best == kNone || cost < best_cost) {
        best = target;
        best_cost = cost;
      }
    }
    return best;
  }

  /// Row ids of slot `i` passing its selections and near conditions.
  std::vector<RowId> MaterializeIds(size_t i) {
    const std::vector<CodedSelection>& selections = coded_[i];
    std::vector<RowId> out;
    if (!selections.empty()) {
      // Walk the most selective selection's rows, which all hold its
      // code, and check the rest.
      const CodedSelection* best = &selections[0];
      for (const CodedSelection& sel : selections) {
        if (sel.rows.size() < best->rows.size()) best = &sel;
      }
      if (selections.size() == 1 && slots_[i].nears.empty()) {
        out.assign(best->rows.begin(), best->rows.end());
      } else {
        for (RowId id : best->rows) {
          if (PollCancelStrided()) break;
          if (RowPasses(i, id, best)) out.push_back(id);
        }
      }
    } else {
      for (RowId id = 0; id < slots_[i].table->num_rows(); ++id) {
        if (PollCancelStrided()) break;
        if (RowPasses(i, id)) out.push_back(id);
      }
    }
    if (stats_ != nullptr) stats_->bindings += out.size();
    return out;
  }

  void CrossProductStep(size_t i) {
    std::vector<RowId> ids = MaterializeIds(i);
    const size_t n = batch_.num_rows();
    const size_t m = ids.size();
    std::vector<uint32_t> base;
    std::vector<RowId> tiled;
    base.reserve(n * m);
    tiled.reserve(n * m);
    for (size_t b = 0; b < n; ++b) {
      if (PollCancelStrided()) break;
      for (size_t r = 0; r < m; ++r) {
        base.push_back(static_cast<uint32_t>(b));
        tiled.push_back(ids[r]);
      }
    }
    batch_ = batch_.GatherRows(base);
    batch_.SetColumn(i, BatchColumn::RowIds(std::move(tiled)));
    if (stats_ != nullptr) stats_->bindings += batch_.num_rows();
  }

  /// Probes `target` through the first join atom connecting it to a bound
  /// slot (the rest are checked by ApplyNewlyBoundJoins), gathering the
  /// surviving rows column-wise; into an existential slot, a semi-join.
  void JoinStep(size_t target) {
    ResolvedJoin* probe = nullptr;
    for (ResolvedJoin& join : joins_) {
      bool forward = bound_[join.va] && join.vb == target;
      bool backward = bound_[join.vb] && join.va == target;
      if (forward || backward) {
        probe = &join;
        break;
      }
    }
    // probe != nullptr by construction of PickNextJoined. Every match
    // satisfies the probe atom, so ApplyNewlyBoundJoins skips it.
    probe->applied = true;
    size_t source = probe->va == target ? probe->vb : probe->va;
    size_t source_col = probe->va == target ? probe->cb : probe->ca;
    size_t target_col = probe->va == target ? probe->ca : probe->cb;

    const Table* target_table = slots_[target].table;
    const Table* source_table = slots_[source].table;
    const std::vector<RowId>& src = batch_.column(source).row_ids();
    const size_t n = batch_.num_rows();
    const KeyIndex& from = source_table->Keys(source_col);
    const KeyIndex& to = target_table->Keys(target_col);
    // Both keys code as value - min: a source row's target code is its
    // own code plus a constant, and no cell is read or hashed.
    const bool by_offset = from.arithmetic() && to.arithmetic();
    const uint64_t offset = KeyIndex::Offset(from, to);
    // The target rows whose key equals batch row b's source key.
    auto matches = [&](size_t b) -> std::span<const RowId> {
      if (!by_offset) {
        return target_table->Lookup(target_col,
                                    source_table->At(src[b], source_col));
      }
      const uint64_t code = from.codes()[src[b]] + offset;
      if (code >= to.num_codes()) return {};
      return to.postings(static_cast<uint32_t>(code));
    };
    if (existential_[target]) {
      // Keep row b once if some match passes the slot's selections;
      // without selections (it has no near condition), any match does.
      const bool unselected =
          coded_[target].empty() && slots_[target].nears.empty();
      std::vector<uint8_t> keep(n, 0);
      for (size_t b = 0; b < n; ++b) {
        if (PollCancelStrided()) break;
        std::span<const RowId> rows = matches(b);
        keep[b] = unselected ? !rows.empty()
                             : std::any_of(rows.begin(), rows.end(),
                                           [&](RowId id) {
                                             return RowPasses(target, id);
                                           });
      }
      batch_.FilterRows(keep);
      if (stats_ != nullptr) stats_->bindings += batch_.num_rows();
      return;
    }
    std::vector<uint32_t> base;
    std::vector<RowId> matched;
    for (size_t b = 0; b < n; ++b) {
      if (PollCancelStrided()) break;
      for (RowId id : matches(b)) {
        if (!RowPasses(target, id)) continue;
        base.push_back(static_cast<uint32_t>(b));
        matched.push_back(id);
      }
    }
    batch_ = batch_.GatherRows(base);
    batch_.SetColumn(target, BatchColumn::RowIds(std::move(matched)));
    if (stats_ != nullptr) stats_->bindings += batch_.num_rows();
  }

  /// Filters the batch by join atoms whose two sides just became bound.
  void ApplyNewlyBoundJoins() {
    for (ResolvedJoin& join : joins_) {
      if (join.applied || !bound_[join.va] || !bound_[join.vb]) continue;
      join.applied = true;
      const size_t n = batch_.num_rows();
      std::vector<uint8_t> keep(n);
      const BatchColumn& a = batch_.column(join.va);
      const BatchColumn& b = batch_.column(join.vb);
      for (size_t r = 0; r < n; ++r) {
        keep[r] = slots_[join.va].table->At(a.row_id_at(r), join.ca) ==
                          slots_[join.vb].table->At(b.row_id_at(r), join.cb)
                      ? 1
                      : 0;
      }
      batch_.FilterRows(keep);
    }
  }

  /// Drops bound columns that no projection/near needs and no unapplied
  /// join references (z3's delete_columns idiom) — later gathers and
  /// filters then move strictly narrower batches.
  void DropDeadColumns() {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (!bound_[i] || !batch_.has_column(i) || needed_[i]) continue;
      bool referenced = false;
      for (const ResolvedJoin& join : joins_) {
        if (join.applied) continue;
        if (join.va == i || join.vb == i) {
          referenced = true;
          break;
        }
      }
      if (!referenced) batch_.DropColumn(i);
    }
  }

  ExecutorStats* stats_;
  const CancelToken* cancel_;
  bool stopped_ = false;
  uint64_t poll_counter_ = 0;
  std::vector<VarSlot> slots_;
  std::vector<ResolvedJoin> joins_;
  std::vector<bool> bound_;
  std::vector<bool> needed_;
  std::vector<bool> existential_;
  /// Per slot, set by Resolve().
  std::vector<std::vector<CodedSelection>> coded_;
  std::vector<size_t> estimates_;
  BatchTable batch_;
};

/// Variable aliases referenced by a conjunct plus the projections.
std::unordered_set<std::string> UsedAliases(
    const std::vector<AtomicCondition>& atoms,
    const std::vector<ProjectionItem>& projections) {
  std::unordered_set<std::string> used;
  for (const auto& atom : atoms) {
    for (auto& var : atom.ReferencedVars()) used.insert(std::move(var));
  }
  for (const auto& item : projections) used.insert(item.var);
  return used;
}

bool HasNearAtom(const SelectQuery& query) {
  std::vector<AtomicCondition> atoms;
  if (query.where() != nullptr) query.where()->CollectAtoms(&atoms);
  for (const AtomicCondition& atom : atoms) {
    if (atom.is_near()) return true;
  }
  return false;
}

/// Output column names of a projection list.
std::vector<std::string> ColumnNames(
    const std::vector<ProjectionItem>& projections) {
  std::vector<std::string> columns;
  for (const auto& item : projections) columns.push_back(item.OutputName());
  return columns;
}

/// The slot bound to `alias` (the first slot when none is).
size_t SlotOf(const std::vector<VarSlot>& slots, const std::string& alias) {
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].alias == alias) return i;
  }
  return 0;
}

/// Which slots' columns must survive a batch run: projected slots and
/// slots carrying near conditions (needed for BatchSatisfactions). Pass
/// `all` for paths that dedup at the binding level across disjuncts.
std::vector<bool> NeededSlots(const std::vector<VarSlot>& slots,
                              const std::vector<ProjectionItem>& projections,
                              bool all) {
  std::vector<bool> needed(slots.size(), all);
  if (all) return needed;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].nears.empty()) needed[i] = true;
    for (const auto& item : projections) {
      if (slots[i].alias == item.var) needed[i] = true;
    }
  }
  return needed;
}

/// Hands `sink` every row of `batch`, projected onto `projections` in
/// coded form, with its satisfaction from `sats` (1 when `sats` is empty).
template <typename Sink>
void EmitRows(const std::vector<VarSlot>& slots,
              const std::vector<ProjectionItem>& projections,
              const BatchTable& batch, const std::vector<double>& sats,
              const Sink& sink) {
  if (batch.num_rows() == 0) return;
  const size_t arity = projections.size();
  std::vector<const RowId*> column_ids(arity);
  std::vector<const uint32_t*> column_codes(arity);
  for (size_t j = 0; j < arity; ++j) {
    const size_t slot = SlotOf(slots, projections[j].var);
    const Table& table = *slots[slot].table;
    column_ids[j] = batch.column(slot).row_ids().data();
    column_codes[j] =
        table.Keys(*table.schema().ColumnIndex(projections[j].column))
            .codes()
            .data();
  }
  std::vector<uint32_t> codes(arity);
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    for (size_t j = 0; j < arity; ++j) {
      codes[j] = column_codes[j][column_ids[j][r]];
    }
    sink(codes.data(), sats.empty() ? 1.0 : sats[r]);
  }
}

/// The key index of each output column of `query`.
std::vector<const KeyIndex*> OutputKeys(const Database& db,
                                        const SelectQuery& query) {
  std::vector<const KeyIndex*> keys;
  for (const auto& item : query.projections()) {
    const Table* table = *db.GetTable(query.FindVariable(item.var)->table);
    keys.push_back(&table->Keys(*table->schema().ColumnIndex(item.column)));
  }
  return keys;
}

/// Late materialization: the Values of one coded row, decoded from its
/// codes.
Row Materialize(const std::vector<const KeyIndex*>& keys,
                const uint32_t* codes) {
  Row row;
  row.reserve(keys.size());
  for (size_t j = 0; j < keys.size(); ++j) {
    row.push_back(keys[j]->Decode(codes[j]));
  }
  return row;
}

/// Per-row product of every near condition's satisfaction, multiplying
/// factors in (slot, near) order; empty when no slot has a near
/// condition.
std::vector<double> BatchSatisfactions(const std::vector<VarSlot>& slots,
                                       const BatchTable& batch) {
  std::vector<double> sat;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].nears.empty()) continue;
    sat.resize(batch.num_rows(), 1.0);
    const std::vector<RowId>& ids = batch.column(i).row_ids();
    for (const auto& [col, near] : slots[i].nears) {
      for (size_t r = 0; r < ids.size(); ++r) {
        sat[r] *= near.Satisfaction(slots[i].table->At(ids[r], col));
      }
    }
  }
  return sat;
}

/// Per-group accumulation state for compound grouping/ranking.
struct CompoundGroup {
  size_t count = 0;                // Positive parts only (count(*)).
  ConjunctiveAccumulator degree;   // Positive parts' degrees.
  ConjunctiveAccumulator dislike;  // |degree| of negative parts.
  /// The last DISTINCT part that reached the group, and the best
  /// satisfaction among that part's rows in it.
  size_t last_part = SIZE_MAX;
  double best = 0.0;
};

/// Adds one part's contribution to a group.
void Accumulate(CompoundGroup* group, double part_degree) {
  if (part_degree < 0.0) {
    group->dislike.Add(-part_degree);
  } else {
    ++group->count;
    group->degree.Add(part_degree);
  }
}

/// HAVING over one group's aggregates: false when the group is not part
/// of the answer. Sets `combined` to the signed combined degree, likes
/// minus dislikes (SignedCombinedDoi).
bool PassesHaving(const CompoundQuery& query, const CompoundGroup& group,
                  double* combined) {
  // A row produced only by penalty parts satisfies no positive
  // preference; it is not part of the personalized answer.
  if (group.count == 0) return false;
  *combined = group.degree.Degree() - group.dislike.Degree();
  switch (query.having().kind) {
    case HavingClause::Kind::kNone:
      return true;
    case HavingClause::Kind::kCountAtLeast:
      return group.count >= query.having().min_count;
    case HavingClause::Kind::kDegreeAbove:
      return *combined > query.having().min_degree;
  }
  return true;
}

}  // namespace

void Executor::FinishOuterExecute(obs::ScopedSpan* span,
                                  const ExecutorStats& entry,
                                  const ExecutorStats& exit,
                                  const Result<ResultSet>& result) const {
  span->Counter("disjuncts", exit.disjuncts - entry.disjuncts);
  span->Counter("bindings", exit.bindings - entry.bindings);
  span->Counter("raw_rows", exit.raw_rows - entry.raw_rows);
  span->Counter("rows", result.ok() ? result.value().num_rows() : 0);
  span->Counter("truncated",
                result.ok() && result.value().truncated() ? 1 : 0);
  span->End();
}

Result<ResultSet> Executor::Execute(const SelectQuery& query,
                                    ExecutorStats* stats) const {
  ExecutorStats local;
  if (stats == nullptr) stats = &local;
  // Recursive frames (compound parts / exclusions) skip straight to the
  // body: the outermost frame already owns the span, and
  // the shared stats pointer is only ever bumped at the working site.
  if (exec_depth_ > 0) return ExecuteSelectVec(query, stats);

  obs::ScopedSpan span(trace_, "execution");
  const ExecutorStats entry = *stats;
  ++exec_depth_;
  Result<ResultSet> result = ExecuteSelectVec(query, stats);
  --exec_depth_;
  FinishOuterExecute(&span, entry, *stats, result);
  return result;
}

Result<ResultSet> Executor::Execute(const CompoundQuery& query,
                                    ExecutorStats* stats) const {
  ExecutorStats local;
  if (stats == nullptr) stats = &local;
  if (exec_depth_ > 0) return ExecuteCompoundVec(query, stats);

  obs::ScopedSpan span(trace_, "execution");
  const ExecutorStats entry = *stats;
  ++exec_depth_;
  Result<ResultSet> result = ExecuteCompoundVec(query, stats);
  --exec_depth_;
  FinishOuterExecute(&span, entry, *stats, result);
  return result;
}

Status Executor::CollectExclusions(
    const CompoundQuery& query, ExecutorStats* stats,
    std::unordered_set<Row, RowHash, RowEq>* vetoed, bool* truncated) const {
  // EXCEPT blocks: any row an exclusion query returns is vetoed. Once
  // cancelled, remaining exclusions are skipped — dislike vetoes are then
  // under-applied, which the truncated flag reports.
  for (const SelectQuery& exclusion : query.exclusions()) {
    if (*truncated || (cancel_ != nullptr && cancel_->ShouldStop())) {
      *truncated = true;
      break;
    }
    QP_ASSIGN_OR_RETURN(ResultSet excluded, Execute(exclusion, stats));
    if (excluded.truncated()) *truncated = true;
    for (const Row& row : excluded.rows()) {
      vetoed->insert(row);
    }
  }
  return Status::Ok();
}

Result<ResultSet> Executor::ExecuteSelectVec(const SelectQuery& query,
                                             ExecutorStats* stats) const {
  QP_RETURN_IF_ERROR(query.Validate(db_->schema()));
  // The answer in coded form: every row of a bag SELECT; under DISTINCT
  // each row once, at its first occurrence, with its best soft-condition
  // match. `sats` stays empty when the query has no near condition.
  CodedRows rows(query.projections().size());
  std::vector<double> sats;
  const bool distinct = query.distinct();
  const bool has_near = HasNearAtom(query);
  bool truncated = false;
  QP_RETURN_IF_ERROR(RunSelectVec(
      query, stats, &truncated, [&](const uint32_t* codes, double sat) {
        if (!distinct) {
          rows.Append(codes);
          if (has_near) sats.push_back(sat);
          return;
        }
        const auto [row, added] = rows.Insert(codes);
        if (!has_near) return;
        if (added) {
          sats.push_back(sat);
        } else if (sat > sats[row]) {
          sats[row] = sat;
        }
      }));

  ResultSet out(ColumnNames(query.projections()));
  const auto keys = OutputKeys(*db_, query);
  for (size_t i = 0; i < rows.size(); ++i) {
    out.AddRow(Materialize(keys, rows.codes(i)));
  }
  out.set_satisfactions(std::move(sats));
  out.set_truncated(truncated);
  out.Canonicalize();
  return out;
}

Status Executor::RunSelectVec(const SelectQuery& query, ExecutorStats* stats,
                              bool* truncated, const RowSink& sink) const {
  // SQL semantics: any empty FROM table empties the whole product.
  for (const TupleVariable& var : query.from()) {
    QP_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(var.table));
    if (table->num_rows() == 0) return Status::Ok();
  }

  std::vector<std::vector<AtomicCondition>> dnf = ToDnf(query.where());

  // Cooperative cancellation: a stopped runner discards the conjunct's
  // in-flight batch (only fully-joined rows ever surface), and the whole
  // result is flagged truncated.
  auto run_conjunct = [&](const std::vector<AtomicCondition>& atoms,
                          const std::unordered_set<std::string>* subset,
                          bool need_all)
      -> Result<std::pair<std::vector<VarSlot>, BatchTable>> {
    std::vector<TupleVariable> vars;
    for (const TupleVariable& var : query.from()) {
      if (subset != nullptr && !subset->contains(var.alias)) continue;
      vars.push_back(var);
    }
    QP_ASSIGN_OR_RETURN(BuiltConjunct built,
                        BuildConjunct(*db_, vars, atoms));
    if (stats != nullptr) ++stats->disjuncts;
    obs::ScopedSpan disjunct_span(trace_, "disjunct");
    BatchRunner runner(stats, cancel_);
    BatchTable batch =
        runner.Run(built.slots, std::move(built.joins),
                   NeededSlots(built.slots, query.projections(), need_all),
                   query.distinct());
    if (runner.stopped()) *truncated = true;
    disjunct_span.Counter("rows", batch.num_rows());
    disjunct_span.Counter("stopped", runner.stopped() ? 1 : 0);
    return std::make_pair(std::move(built.slots), std::move(batch));
  };

  if (query.distinct()) {
    // Each conjunct binds only the variables it or the projection uses;
    // the sink keeps one row per distinct code tuple.
    for (const auto& disjunct : dnf) {
      if (*truncated || (cancel_ != nullptr && cancel_->ShouldStop())) {
        *truncated = true;  // Remaining disjuncts skipped.
        break;
      }
      std::unordered_set<std::string> used =
          UsedAliases(disjunct, query.projections());
      QP_ASSIGN_OR_RETURN(auto result, run_conjunct(disjunct, &used, false));
      const auto& [slots, batch] = result;
      if (stats != nullptr) stats->raw_rows += batch.num_rows();
      EmitRows(slots, query.projections(), batch,
               BatchSatisfactions(slots, batch), sink);
    }
  } else if (dnf.size() == 1) {
    QP_ASSIGN_OR_RETURN(auto result, run_conjunct(dnf[0], nullptr, false));
    const auto& [slots, batch] = result;
    if (stats != nullptr) stats->raw_rows += batch.num_rows();
    EmitRows(slots, query.projections(), batch,
             BatchSatisfactions(slots, batch), sink);
  } else {
    // OR over the full variable product without DISTINCT: deduplicate at
    // the binding level, accumulating distinct bindings into a columnar
    // `seen` batch keyed on every slot (hash buckets resolve collisions
    // by cell comparison).
    BatchTable distinct_bindings;
    std::vector<double> best_sat;
    std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
    std::vector<size_t> all_slots;
    std::vector<VarSlot> full_slots;
    for (const auto& disjunct : dnf) {
      if (*truncated || (cancel_ != nullptr && cancel_->ShouldStop())) {
        *truncated = true;  // Remaining disjuncts skipped.
        break;
      }
      QP_ASSIGN_OR_RETURN(auto result, run_conjunct(disjunct, nullptr, true));
      auto& [slots, batch] = result;
      if (stats != nullptr) stats->raw_rows += batch.num_rows();
      if (all_slots.empty()) {
        distinct_bindings = BatchTable(slots.size());
        for (size_t s = 0; s < slots.size(); ++s) {
          all_slots.push_back(s);
          distinct_bindings.SetColumn(s, BatchColumn::RowIds({}));
        }
      }
      const std::vector<double> batch_sats = BatchSatisfactions(slots, batch);
      for (size_t i = 0; i < batch.num_rows(); ++i) {
        double sat = batch_sats.empty() ? 1.0 : batch_sats[i];
        std::vector<uint32_t>& bucket = buckets[batch.RowHash(i, all_slots)];
        int64_t found = -1;
        for (uint32_t idx : bucket) {
          if (distinct_bindings.RowsEqual(idx, batch, i, all_slots,
                                          all_slots)) {
            found = static_cast<int64_t>(idx);
            break;
          }
        }
        if (found < 0) {
          bucket.push_back(static_cast<uint32_t>(distinct_bindings.num_rows()));
          distinct_bindings.AppendRowFrom(batch, i);
          best_sat.push_back(sat);
        } else if (sat > best_sat[found]) {
          best_sat[found] = sat;
        }
      }
      full_slots = std::move(slots);
    }
    EmitRows(full_slots, query.projections(), distinct_bindings, best_sat,
             sink);
  }
  return Status::Ok();
}

Result<ResultSet> Executor::ExecuteCompoundVec(const CompoundQuery& query,
                                               ExecutorStats* stats) const {
  QP_RETURN_IF_ERROR(query.Validate(db_->schema()));

  // GROUP BY on codes, fed as each part's rows are produced: Validate
  // makes every part project the same table column at each position, so
  // one code tuple names one group across parts. Each group gets one Add
  // per row of each part's answer, parts in order: a bag part adds per
  // row; a DISTINCT part keeps its best satisfaction per group and adds
  // it once when the part ends.
  const SelectQuery& first = query.parts()[0].query;
  CodedRows groups(first.projections().size());
  std::vector<CompoundGroup> aggregates;
  std::vector<uint32_t> reached;  // Groups the current part reached.
  bool truncated = false;
  for (size_t p = 0; p < query.parts().size(); ++p) {
    if (truncated || (cancel_ != nullptr && cancel_->ShouldStop())) {
      truncated = true;  // Remaining parts skipped.
      break;
    }
    obs::ScopedSpan part_span(trace_, "part");
    const CompoundPart& part = query.parts()[p];
    const bool distinct = part.query.distinct();
    size_t bag_rows = 0;
    reached.clear();
    bool part_truncated = false;
    QP_RETURN_IF_ERROR(RunSelectVec(
        part.query, stats, &part_truncated,
        [&](const uint32_t* codes, double sat) {
          const auto [g, added] = groups.Insert(codes);
          if (added) aggregates.emplace_back();
          CompoundGroup& group = aggregates[g];
          // Soft conditions scale the part's contribution by how closely
          // the row matches.
          if (!distinct) {
            Accumulate(&group, part.degree * sat);
            ++bag_rows;
          } else if (group.last_part != p) {
            group.last_part = p;
            group.best = sat;
            reached.push_back(g);
          } else if (sat > group.best) {
            group.best = sat;
          }
        }));
    if (part_truncated) truncated = true;
    for (uint32_t g : reached) {
      Accumulate(&aggregates[g], part.degree * aggregates[g].best);
    }
    part_span.Counter("rows", bag_rows + reached.size());
  }

  std::unordered_set<Row, RowHash, RowEq> vetoed;
  QP_RETURN_IF_ERROR(CollectExclusions(query, stats, &vetoed, &truncated));
  // HAVING runs on the group aggregates; Values are built only for the
  // groups that pass it, and the vetoes compare those.
  ResultSet out(ColumnNames(first.projections()));
  const auto keys = OutputKeys(*db_, first);
  for (size_t g = 0; g < groups.size(); ++g) {
    double combined = 0.0;
    if (!PassesHaving(query, aggregates[g], &combined)) continue;
    Row row = Materialize(keys, groups.codes(g));
    if (vetoed.contains(row)) continue;
    out.AddRankedRow(std::move(row), aggregates[g].count, combined);
  }
  out.set_truncated(truncated);
  out.Canonicalize();
  return out;
}

}  // namespace qp
