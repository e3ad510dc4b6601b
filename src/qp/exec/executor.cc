#include "qp/exec/executor.h"

#include <algorithm>
#include <span>
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
  std::unordered_map<std::string, size_t> slot_index;
};

/// Estimated cardinality of a slot after its selections: the smallest
/// posting list among its equality selections.
size_t EstimateSlot(const VarSlot& slot) {
  size_t best = slot.table->num_rows();
  for (const auto& [col, value] : slot.selections) {
    best = std::min(best, slot.table->Lookup(col, value).size());
  }
  return best;
}

/// Resolves `vars` and `atoms` into slots with pushed-down selections and
/// resolved join atoms. Every atom must reference only aliases in `vars`.
Result<BuiltConjunct> BuildConjunct(const Database& db,
                                    const std::vector<TupleVariable>& vars,
                                    const std::vector<AtomicCondition>& atoms) {
  // Chaos site covering every disjunct drive (select, compound core and
  // residues). Error mode surfaces as a per-response error; delay mode
  // stalls the disjunct, which under a deadline becomes a truncated —
  // still exact-prefix — result.
  QP_RETURN_IF_ERROR(QP_FAULT_POINT("exec.disjunct"));
  BuiltConjunct built;
  for (const TupleVariable& var : vars) {
    QP_ASSIGN_OR_RETURN(const Table* table, db.GetTable(var.table));
    built.slot_index[var.alias] = built.slots.size();
    built.slots.push_back(VarSlot{var.alias, table, {}, {}, false});
  }
  for (const AtomicCondition& atom : atoms) {
    if (atom.is_selection()) {
      auto it = built.slot_index.find(atom.var());
      if (it == built.slot_index.end()) {
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
      auto it = built.slot_index.find(atom.var());
      if (it == built.slot_index.end()) {
        return Status::Internal("unresolved alias: " + atom.var());
      }
      VarSlot& slot = built.slots[it->second];
      size_t col = *slot.table->schema().ColumnIndex(atom.column());
      slot.nears.emplace_back(col, atom);
    } else {
      auto left = built.slot_index.find(atom.left_var());
      auto right = built.slot_index.find(atom.right_var());
      if (left == built.slot_index.end() ||
          right == built.slot_index.end()) {
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

/// Executes one conjunctive SPJ block, fresh or continuing from seed
/// bindings (the shared-core optimization for MQ compounds). The working
/// set is a BatchTable with one contiguous RowId column per slot. The
/// runner materializes the cheapest slot's candidate ids, then repeatedly
/// joins in the cheapest slot reachable through a join atom (a cross
/// product when none is), re-filtering on join atoms whose two sides are
/// now bound. Join steps emit (source row, matched id) index pairs and
/// gather the surviving columns in one pass; slots whose column no later
/// join or projection needs are dropped after each step, so wide
/// conjuncts narrow as they go.
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

  /// Fresh run. `needed[i]` marks slots whose column must survive to the
  /// end (projections, near conditions, dedup keys); the rest may be
  /// dropped once every join touching them has been applied. `distinct`
  /// gives the run set semantics: only which distinct needed-slot tuples
  /// it yields matters, not how often each comes.
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

  /// Seeded run over an initial batch whose `bound` slots carry core
  /// bindings (the shared-core optimization). A bound slot may have no
  /// column when the seeded run never reads it.
  BatchTable RunSeeded(std::vector<VarSlot> slots,
                       std::vector<ResolvedJoin> joins, BatchTable initial,
                       std::vector<bool> bound, std::vector<bool> needed,
                       bool distinct) {
    const size_t width = slots.size();
    slots_ = std::move(slots);
    joins_ = std::move(joins);
    needed_ = std::move(needed);
    MarkExistential(distinct);
    bound_ = std::move(bound);
    batch_ = std::move(initial);

    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].impossible) return BatchTable(width);
      if (!bound_[i] && slots_[i].table->num_rows() == 0) {
        return BatchTable(width);
      }
    }
    Resolve();
    // Part-specific selections on already-bound (core) variables.
    std::vector<uint8_t> keep(batch_.num_rows(), 1);
    for (size_t r = 0; r < batch_.num_rows(); ++r) {
      if (PollCancelStrided()) break;
      bool ok = true;
      for (size_t i = 0; i < slots_.size() && ok; ++i) {
        if (!bound_[i]) continue;
        if (slots_[i].selections.empty() && slots_[i].nears.empty()) continue;
        ok = RowPasses(i, batch_.column(i).row_id_at(r));
      }
      keep[r] = ok ? 1 : 0;
    }
    if (stopped_) return BatchTable(width);
    batch_.FilterRows(keep);
    ApplyNewlyBoundJoins();
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
  /// nothing), and fixes each slot's estimate: the figure EstimateSlot
  /// gives, without re-probing the index at every step.
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

bool HasNearAtom(const std::vector<AtomicCondition>& atoms) {
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

/// Adds every row of `batch`, projected onto `projections` in coded form,
/// to `rows`: inserted when `distinct` (a row equal to one already there
/// keeps the better satisfaction), appended otherwise.
/// `batch_sats` holds each batch row's near-condition satisfaction, or is
/// empty when the query has none; `sats` then stays as it is.
void AddCodedRows(const std::vector<VarSlot>& slots,
                  const std::vector<ProjectionItem>& projections,
                  const BatchTable& batch,
                  const std::vector<double>& batch_sats, bool distinct,
                  CodedRows* rows, std::vector<double>* sats) {
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
    if (!distinct) {
      rows->Append(codes.data());
      if (!batch_sats.empty()) sats->push_back(batch_sats[r]);
      continue;
    }
    const auto [row, added] = rows->Insert(codes.data());
    if (batch_sats.empty()) continue;
    if (added) {
      sats->push_back(batch_sats[r]);
    } else if (batch_sats[r] > (*sats)[row]) {
      (*sats)[row] = batch_sats[r];
    }
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

/// Per-row product of every near condition's satisfaction (1 when there
/// are none), multiplying factors in (slot, near) order.
std::vector<double> BatchSatisfactions(const std::vector<VarSlot>& slots,
                                       const BatchTable& batch) {
  std::vector<double> sat(batch.num_rows(), 1.0);
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].nears.empty()) continue;
    const std::vector<RowId>& ids = batch.column(i).row_ids();
    for (const auto& [col, near] : slots[i].nears) {
      for (size_t r = 0; r < ids.size(); ++r) {
        sat[r] *= near.Satisfaction(slots[i].table->At(ids[r], col));
      }
    }
  }
  return sat;
}

/// Analysis result of the shared-core optimization: the conjunctive block
/// common to every part of an MQ compound, plus each part's residue.
struct SharedCorePlan {
  std::vector<TupleVariable> core_vars;
  std::vector<AtomicCondition> core_atoms;
  struct PartResidue {
    std::vector<TupleVariable> extra_vars;
    std::vector<AtomicCondition> extra_atoms;
    std::vector<AtomicCondition> all_atoms;  // Full conjunct of the part.
  };
  std::vector<PartResidue> parts;
};

bool Contains(const std::vector<TupleVariable>& vars,
              const TupleVariable& var) {
  for (const TupleVariable& v : vars) {
    if (v == var) return true;
  }
  return false;
}

bool ContainsAtom(const std::vector<AtomicCondition>& atoms,
                  const AtomicCondition& atom) {
  for (const AtomicCondition& a : atoms) {
    if (a == atom) return true;
  }
  return false;
}

/// Returns the plan, or nullopt when the optimization does not apply
/// (OR-qualifications, non-distinct parts, or no common block). Parts
/// built by PreferenceIntegrator always qualify: they share the original
/// query verbatim and add one conjunctive preference chain each.
std::optional<SharedCorePlan> PlanSharedCore(const CompoundQuery& query) {
  if (query.parts().size() < 2) return std::nullopt;

  std::vector<std::vector<AtomicCondition>> part_atoms;
  for (const CompoundPart& part : query.parts()) {
    if (!part.query.distinct()) return std::nullopt;
    auto dnf = ToDnf(part.query.where());
    if (dnf.size() != 1) return std::nullopt;
    part_atoms.push_back(std::move(dnf[0]));
  }

  SharedCorePlan plan;
  // Core variables: present (same alias, same table) in every part.
  const auto& first = query.parts()[0].query;
  for (const TupleVariable& var : first.from()) {
    bool everywhere = true;
    for (size_t p = 1; p < query.parts().size() && everywhere; ++p) {
      const TupleVariable* found =
          query.parts()[p].query.FindVariable(var.alias);
      everywhere = found != nullptr && found->table == var.table;
    }
    if (everywhere) plan.core_vars.push_back(var);
  }
  if (plan.core_vars.empty()) return std::nullopt;

  // Core atoms: in every part and confined to core variables.
  for (const AtomicCondition& atom : part_atoms[0]) {
    bool core = true;
    for (const std::string& alias : atom.ReferencedVars()) {
      if (std::none_of(plan.core_vars.begin(), plan.core_vars.end(),
                       [&](const TupleVariable& v) {
                         return v.alias == alias;
                       })) {
        core = false;
        break;
      }
    }
    if (!core) continue;
    for (size_t p = 1; p < part_atoms.size() && core; ++p) {
      core = ContainsAtom(part_atoms[p], atom);
    }
    if (core && !ContainsAtom(plan.core_atoms, atom)) {
      plan.core_atoms.push_back(atom);
    }
  }

  // Residues.
  for (size_t p = 0; p < query.parts().size(); ++p) {
    SharedCorePlan::PartResidue residue;
    for (const TupleVariable& var : query.parts()[p].query.from()) {
      if (!Contains(plan.core_vars, var)) residue.extra_vars.push_back(var);
    }
    for (const AtomicCondition& atom : part_atoms[p]) {
      if (!ContainsAtom(plan.core_atoms, atom)) {
        residue.extra_atoms.push_back(atom);
      }
    }
    residue.all_atoms = part_atoms[p];
    plan.parts.push_back(std::move(residue));
  }
  return plan;
}

/// Per-group accumulation state for compound grouping/ranking.
struct CompoundGroup {
  size_t count = 0;                // Positive parts only (count(*)).
  ConjunctiveAccumulator degree;   // Positive parts' degrees.
  ConjunctiveAccumulator dislike;  // |degree| of negative parts.
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

void Executor::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metric_disjuncts_ = nullptr;
    metric_bindings_ = nullptr;
    metric_raw_rows_ = nullptr;
    metric_core_reuses_ = nullptr;
    return;
  }
  metric_disjuncts_ = registry->counter("qp_exec_disjuncts_total");
  metric_bindings_ = registry->counter("qp_exec_bindings_total");
  metric_raw_rows_ = registry->counter("qp_exec_raw_rows_total");
  metric_core_reuses_ = registry->counter("qp_exec_core_reuses_total");
}

void Executor::FinishOuterExecute(obs::ScopedSpan* span,
                                  const ExecutorStats& entry,
                                  const ExecutorStats& exit,
                                  const Result<ResultSet>& result) const {
  const size_t disjuncts = exit.disjuncts - entry.disjuncts;
  const size_t bindings = exit.bindings - entry.bindings;
  const size_t raw_rows = exit.raw_rows - entry.raw_rows;
  const size_t core_reuses = exit.core_reuses - entry.core_reuses;
  span->Counter("disjuncts", disjuncts);
  span->Counter("bindings", bindings);
  span->Counter("raw_rows", raw_rows);
  span->Counter("core_reuses", core_reuses);
  span->Counter("rows", result.ok() ? result.value().num_rows() : 0);
  span->Counter("truncated",
                result.ok() && result.value().truncated() ? 1 : 0);
  span->End();
  if (metric_disjuncts_ != nullptr) metric_disjuncts_->Add(disjuncts);
  if (metric_bindings_ != nullptr) metric_bindings_->Add(bindings);
  if (metric_raw_rows_ != nullptr) metric_raw_rows_->Add(raw_rows);
  if (metric_core_reuses_ != nullptr) metric_core_reuses_->Add(core_reuses);
}

Result<ResultSet> Executor::Execute(const SelectQuery& query,
                                    ExecutorStats* stats) const {
  ExecutorStats local;
  if (stats == nullptr) stats = &local;
  // Recursive frames (compound parts / exclusions) skip straight to the
  // body: the outermost frame already owns the span and metric flush, and
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
  CodedRows rows(query.projections().size());
  std::vector<double> sats;
  bool truncated = false;
  QP_RETURN_IF_ERROR(RunSelectVec(query, stats, &rows, &sats, &truncated));

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
                              CodedRows* rows, std::vector<double>* sats,
                              bool* truncated) const {
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

  bool has_near = false;
  {
    std::vector<AtomicCondition> atoms;
    if (query.where() != nullptr) query.where()->CollectAtoms(&atoms);
    has_near = HasNearAtom(atoms);
  }

  if (query.distinct()) {
    // Dedup on codes; a row reached through several bindings or
    // disjuncts keeps its first occurrence and its best soft-condition
    // match.
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
      AddCodedRows(slots, query.projections(), batch,
                   has_near ? BatchSatisfactions(slots, batch)
                            : std::vector<double>(),
                   /*distinct=*/true, rows, sats);
    }
  } else if (dnf.size() == 1) {
    QP_ASSIGN_OR_RETURN(auto result, run_conjunct(dnf[0], nullptr, false));
    const auto& [slots, batch] = result;
    if (stats != nullptr) stats->raw_rows += batch.num_rows();
    AddCodedRows(slots, query.projections(), batch,
                 has_near ? BatchSatisfactions(slots, batch)
                          : std::vector<double>(),
                 /*distinct=*/false, rows, sats);
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
      std::vector<double> batch_sats;
      if (has_near) batch_sats = BatchSatisfactions(slots, batch);
      for (size_t i = 0; i < batch.num_rows(); ++i) {
        double sat = has_near ? batch_sats[i] : 1.0;
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
    if (!has_near) best_sat.clear();
    AddCodedRows(full_slots, query.projections(), distinct_bindings, best_sat,
                 /*distinct=*/false, rows, sats);
  }
  return Status::Ok();
}

Result<ResultSet> Executor::ExecuteCompoundVec(const CompoundQuery& query,
                                               ExecutorStats* stats) const {
  QP_RETURN_IF_ERROR(query.Validate(db_->schema()));

  // GROUP BY on codes: Validate makes every part project the same table
  // column at each position, so one code tuple names one group across
  // parts.
  const SelectQuery& first = query.parts()[0].query;
  const size_t arity = first.projections().size();
  CodedRows groups(arity);
  std::vector<CompoundGroup> aggregates;
  // One Add per row of the part's answer (one per group for a DISTINCT
  // part), parts in order.
  auto accumulate = [&](const CodedRows& rows, const std::vector<double>& sats,
                        double part_degree) {
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto [group, added] = groups.Insert(rows.codes(i));
      if (added) aggregates.emplace_back();
      Accumulate(&aggregates[group],
                 part_degree * (sats.empty() ? 1.0 : sats[i]));
    }
  };

  bool truncated = false;

  std::optional<SharedCorePlan> plan;
  if (shared_core_) plan = PlanSharedCore(query);

  if (plan.has_value()) {
    // Execute the common block once (lazily — only if some part actually
    // reuses it), keeping the core as a columnar batch; each part's
    // residue then drives from or merges onto those columns.
    bool core_table_empty = false;
    for (const TupleVariable& var : plan->core_vars) {
      QP_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(var.table));
      if (table->num_rows() == 0) core_table_empty = true;
    }
    QP_ASSIGN_OR_RETURN(
        BuiltConjunct core,
        BuildConjunct(*db_, plan->core_vars, plan->core_atoms));
    size_t core_entry_estimate = SIZE_MAX;
    for (const VarSlot& slot : core.slots) {
      core_entry_estimate =
          std::min(core_entry_estimate, EstimateSlot(slot));
    }
    const size_t core_n = plan->core_vars.size();
    // A core column is needed when some part projects it, its slot carries
    // a near condition or some residue atom references it. Every part is
    // DISTINCT, so the core runs with set semantics: any other core slot
    // is dropped once joined, or semi-joined when existential.
    std::vector<bool> core_needed(core_n, false);
    auto need = [&](const std::string& alias) {
      auto it = core.slot_index.find(alias);
      if (it != core.slot_index.end()) core_needed[it->second] = true;
    };
    for (size_t i = 0; i < core_n; ++i) {
      if (!core.slots[i].nears.empty()) core_needed[i] = true;
    }
    for (size_t p = 0; p < query.parts().size(); ++p) {
      for (const auto& item : query.parts()[p].query.projections()) {
        need(item.var);
      }
      for (const AtomicCondition& atom : plan->parts[p].extra_atoms) {
        for (const std::string& alias : atom.ReferencedVars()) need(alias);
      }
    }
    bool core_materialized = false;
    BatchTable core_batch(core_n);
    auto materialize_core = [&]() {
      if (core_materialized) return;
      core_materialized = true;
      if (core_table_empty) return;
      if (stats != nullptr) ++stats->disjuncts;
      BatchRunner runner(stats, cancel_);
      core_batch = runner.Run(core.slots, std::move(core.joins), core_needed,
                              /*distinct=*/true);
      if (runner.stopped()) truncated = true;
    };

    for (size_t p = 0; p < query.parts().size(); ++p) {
      if (truncated || (cancel_ != nullptr && cancel_->ShouldStop())) {
        truncated = true;  // Remaining parts skipped.
        break;
      }
      obs::ScopedSpan part_span(trace_, "part");
      const CompoundPart& part = query.parts()[p];
      const SharedCorePlan::PartResidue& residue = plan->parts[p];
      // Slots: core variables first (matching core column order), then
      // the part's extra variables.
      std::vector<TupleVariable> vars = plan->core_vars;
      vars.insert(vars.end(), residue.extra_vars.begin(),
                  residue.extra_vars.end());
      // Core near conditions participate in every part's satisfaction, so
      // they are re-attached to the part's slot set.
      std::vector<AtomicCondition> part_atoms = residue.extra_atoms;
      for (const AtomicCondition& atom : plan->core_atoms) {
        if (atom.is_near()) part_atoms.push_back(atom);
      }
      QP_ASSIGN_OR_RETURN(BuiltConjunct built,
                          BuildConjunct(*db_, vars, part_atoms));

      // Cost-based residue strategy, cheapest entry point first:
      //  - drive: extend each materialized core binding through the
      //    preference chain (pays ~|core|);
      //  - merge: run the chain from its own most selective end and
      //    hash-join back onto the core (pays ~|core| + chain entry);
      //  - naive: when the part's own cheapest slot (with the *core's*
      //    selections included) undercuts both, re-running the part from
      //    scratch beats any reuse of a bloated core — typical for
      //    unselective base queries with selective preferences.
      size_t residue_entry = SIZE_MAX;
      for (size_t i = core_n; i < built.slots.size(); ++i) {
        residue_entry =
            std::min(residue_entry, EstimateSlot(built.slots[i]));
      }
      size_t naive_entry = SIZE_MAX;
      {
        QP_ASSIGN_OR_RETURN(BuiltConjunct full,
                            BuildConjunct(*db_, vars, residue.all_atoms));
        for (const VarSlot& slot : full.slots) {
          naive_entry = std::min(naive_entry, EstimateSlot(slot));
        }
      }
      // Any core-reusing strategy costs at least ~|core|; if the part's
      // own cheapest entry point (usually its preference selection) is
      // far more selective than the core's, fresh execution wins. The 4x
      // pad absorbs the part's join fan-out.
      if (naive_entry * 4 < core_entry_estimate) {
        CodedRows rows(arity);
        std::vector<double> sats;
        bool part_truncated = false;
        QP_RETURN_IF_ERROR(
            RunSelectVec(part.query, stats, &rows, &sats, &part_truncated));
        if (part_truncated) truncated = true;
        accumulate(rows, sats, part.degree);
        part_span.Counter("naive", 1);
        part_span.Counter("rows", rows.size());
        continue;
      }
      materialize_core();
      const bool drive_from_core =
          residue.extra_vars.empty() ||
          core_batch.num_rows() <= residue_entry;
      if (stats != nullptr) ++stats->core_reuses;

      std::vector<bool> needed =
          NeededSlots(built.slots, part.query.projections(), false);
      BatchTable part_batch(vars.size());
      if (drive_from_core) {
        std::vector<bool> bound(vars.size(), false);
        BatchTable seeded(vars.size());
        for (size_t i = 0; i < core_n; ++i) {
          bound[i] = true;
          // Copies the core's live columns; the residue reads no other.
          if (core_batch.has_column(i)) {
            seeded.SetColumn(i, core_batch.column(i));
          }
        }
        if (seeded.live_columns() == 0) {
          seeded.SetNumRowsColumnless(core_batch.num_rows());
        }
        // The residue is one conjunctive block: count it like the naive
        // path (which runs the part's SELECT) does, so per-part disjunct
        // attribution is strategy-independent.
        if (stats != nullptr) ++stats->disjuncts;
        BatchRunner runner(stats, cancel_);
        part_batch = runner.RunSeeded(built.slots, std::move(built.joins),
                                      std::move(seeded), std::move(bound),
                                      needed, /*distinct=*/true);
        if (runner.stopped()) truncated = true;
      } else {
        // Anchor core variables: the ones the residue's atoms touch.
        std::vector<size_t> anchors;  // Indices into the core/var order.
        {
          std::unordered_set<std::string> referenced;
          for (const AtomicCondition& atom : residue.extra_atoms) {
            for (const std::string& alias : atom.ReferencedVars()) {
              referenced.insert(alias);
            }
          }
          for (size_t i = 0; i < core_n; ++i) {
            if (referenced.contains(plan->core_vars[i].alias)) {
              anchors.push_back(i);
            }
          }
        }
        // Run the residue independently over anchors + extras, keeping
        // every residue column (anchors are join keys, extras may be
        // projected or carry nears).
        std::vector<TupleVariable> residue_vars;
        for (size_t i : anchors) residue_vars.push_back(plan->core_vars[i]);
        residue_vars.insert(residue_vars.end(), residue.extra_vars.begin(),
                            residue.extra_vars.end());
        QP_ASSIGN_OR_RETURN(
            BuiltConjunct residue_built,
            BuildConjunct(*db_, residue_vars, residue.extra_atoms));
        // One conjunctive block, same attribution as the other strategies.
        if (stats != nullptr) ++stats->disjuncts;
        BatchRunner runner(stats, cancel_);
        BatchTable residue_batch =
            runner.Run(residue_built.slots, std::move(residue_built.joins),
                       std::vector<bool>(residue_vars.size(), true),
                       /*distinct=*/false);
        if (runner.stopped()) truncated = true;

        // Vectorized merge: hash-build over the residue's anchor columns,
        // probe with the core batch, then gather both sides column-wise
        // into the merged part batch.
        std::vector<size_t> residue_keys;
        for (size_t i = 0; i < anchors.size(); ++i) residue_keys.push_back(i);
        BatchHashTable by_anchor(&residue_batch, residue_keys);
        std::vector<uint32_t> core_idx;
        std::vector<uint32_t> residue_idx;
        std::vector<uint32_t> matches;
        for (size_t r = 0; r < core_batch.num_rows(); ++r) {
          matches.clear();
          by_anchor.Probe(core_batch, r, anchors, &matches);
          for (uint32_t m : matches) {
            core_idx.push_back(static_cast<uint32_t>(r));
            residue_idx.push_back(m);
          }
        }
        for (size_t i = 0; i < core_n; ++i) {
          if (core_batch.has_column(i)) {
            part_batch.SetColumn(i, core_batch.column(i).Gather(core_idx));
          }
        }
        for (size_t e = 0; e < residue.extra_vars.size(); ++e) {
          part_batch.SetColumn(
              core_n + e,
              residue_batch.column(anchors.size() + e).Gather(residue_idx));
        }
        if (part_batch.live_columns() == 0) {
          part_batch.SetNumRowsColumnless(core_idx.size());
        }
        if (stats != nullptr) stats->bindings += part_batch.num_rows();
      }

      if (stats != nullptr) stats->raw_rows += part_batch.num_rows();
      // Parts are DISTINCT; a row keeps its best soft-condition match.
      CodedRows rows(arity);
      std::vector<double> sats;
      AddCodedRows(built.slots, part.query.projections(), part_batch,
                   BatchSatisfactions(built.slots, part_batch),
                   /*distinct=*/true, &rows, &sats);
      accumulate(rows, sats, part.degree);
      part_span.Counter(drive_from_core ? "drive" : "merge", 1);
      part_span.Counter("rows", rows.size());
    }
  } else {
    for (const CompoundPart& part : query.parts()) {
      if (truncated || (cancel_ != nullptr && cancel_->ShouldStop())) {
        truncated = true;  // Remaining parts skipped.
        break;
      }
      obs::ScopedSpan part_span(trace_, "part");
      CodedRows rows(arity);
      std::vector<double> sats;
      bool part_truncated = false;
      QP_RETURN_IF_ERROR(
          RunSelectVec(part.query, stats, &rows, &sats, &part_truncated));
      if (part_truncated) truncated = true;
      // Soft conditions scale the part's contribution by how closely the
      // row matches.
      accumulate(rows, sats, part.degree);
      part_span.Counter("naive", 1);
      part_span.Counter("rows", rows.size());
    }
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
