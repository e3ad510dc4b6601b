#include "qp/exec/executor.h"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "qp/exec/batch_table.h"
#include "qp/pref/doi.h"
#include "qp/util/fault_hub.h"

namespace qp {
namespace {

/// A partial assignment of rows to tuple variables; entry i is the row id
/// bound to variable slot i (meaningful only once the slot is bound).
using Binding = std::vector<RowId>;

struct BindingHash {
  size_t operator()(const Binding& b) const {
    size_t h = 0x12345ULL;
    for (RowId id : b) h = h * 1000003ULL ^ id;
    return h;
  }
};

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

bool RowPassesSlot(const VarSlot& slot, RowId id) {
  for (const auto& [col, value] : slot.selections) {
    if (slot.table->At(id, col) != value) return false;
  }
  for (const auto& [col, near] : slot.nears) {
    if (near.Satisfaction(slot.table->At(id, col)) <= 0.0) return false;
  }
  return true;
}

/// Estimated cardinality of a slot after its selections (index-probed
/// under hash joins).
size_t EstimateSlot(const VarSlot& slot, JoinStrategy strategy) {
  if (slot.selections.empty() || strategy == JoinStrategy::kNestedLoop) {
    return slot.table->num_rows();
  }
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

/// Executes one conjunctive SPJ block over the given variable slots,
/// optionally continuing from pre-bound seed bindings (the shared-core
/// optimization for MQ compounds).
class ConjunctRunner {
 public:
  ConjunctRunner(JoinStrategy strategy, ExecutorStats* stats,
                 const CancelToken* cancel = nullptr)
      : strategy_(strategy), stats_(stats), cancel_(cancel) {}

  /// True when the run was cut short by the cancel token. The bindings of
  /// the interrupted join step are discarded (they may have unbound
  /// slots), so a stopped run returns only fully-joined bindings — for a
  /// fresh Run that means none; callers treat the conjunct's output as
  /// incomplete and flag the result truncated.
  bool stopped() const { return stopped_; }

  /// Fresh run: nothing bound yet.
  std::vector<Binding> Run(std::vector<VarSlot> slots,
                           std::vector<ResolvedJoin> joins) {
    slots_ = std::move(slots);
    joins_ = std::move(joins);
    bound_.assign(slots_.size(), false);

    for (const VarSlot& slot : slots_) {
      if (slot.impossible || slot.table->num_rows() == 0) return {};
    }
    size_t seed = CheapestUnbound();
    std::vector<Binding> bindings = Materialize(seed);
    if (stopped_) return {};
    bound_[seed] = true;
    return Loop(std::move(bindings));
  }

  /// Seeded run: `initial` are bindings over the slots marked in `bound`
  /// (core variables already joined). Selections on bound slots and joins
  /// among bound slots are applied as filters first; the remaining slots
  /// are then joined in as usual.
  std::vector<Binding> RunSeeded(std::vector<VarSlot> slots,
                                 std::vector<ResolvedJoin> joins,
                                 std::vector<Binding> initial,
                                 std::vector<bool> bound) {
    slots_ = std::move(slots);
    joins_ = std::move(joins);
    bound_ = std::move(bound);

    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].impossible) return {};
      if (!bound_[i] && slots_[i].table->num_rows() == 0) return {};
    }
    // Part-specific selections on already-bound (core) variables.
    std::vector<Binding> bindings;
    bindings.reserve(initial.size());
    for (Binding& b : initial) {
      if (PollCancelStrided()) break;
      bool keep = true;
      for (size_t i = 0; i < slots_.size() && keep; ++i) {
        if (!bound_[i]) continue;
        if (slots_[i].selections.empty() && slots_[i].nears.empty()) continue;
        keep = RowPassesSlot(slots_[i], b[i]);
      }
      if (keep) bindings.push_back(std::move(b));
    }
    if (stopped_) return {};
    ApplyNewlyBoundJoins(&bindings);
    return Loop(std::move(bindings));
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);
  /// Rows between cancel polls in the inner row loops. Small enough that
  /// a tripped deadline stops within microseconds, large enough that the
  /// atomic loads never show up in profiles.
  static constexpr uint64_t kPollStride = 128;

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

  std::vector<Binding> Loop(std::vector<Binding> bindings) {
    while (true) {
      // Stopping between join steps discards the in-flight bindings:
      // they may have unbound slots and must not surface as rows.
      if (PollCancel()) return {};
      if (bindings.empty()) return {};
      size_t next = PickNextJoined();
      if (next == kNone) {
        next = CheapestUnbound();
        if (next == kNone) break;  // All bound.
        bindings = CrossProduct(std::move(bindings), next);
      } else {
        bindings = JoinStep(std::move(bindings), next);
      }
      if (stopped_) return {};
      bound_[next] = true;
      ApplyNewlyBoundJoins(&bindings);
    }
    return bindings;
  }

  size_t Estimate(size_t slot_index) const {
    return EstimateSlot(slots_[slot_index], strategy_);
  }

  size_t CheapestUnbound() const {
    size_t best = kNone;
    size_t best_cost = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (bound_[i]) continue;
      size_t cost = Estimate(i);
      if (best == kNone || cost < best_cost) {
        best = i;
        best_cost = cost;
      }
    }
    return best;
  }

  /// The unbound slot reachable through a join atom from a bound slot
  /// with the smallest estimate; kNone if the join graph is exhausted.
  size_t PickNextJoined() const {
    size_t best = kNone;
    size_t best_cost = 0;
    for (const ResolvedJoin& join : joins_) {
      size_t target = kNone;
      if (bound_[join.va] && !bound_[join.vb]) target = join.vb;
      if (bound_[join.vb] && !bound_[join.va]) target = join.va;
      if (target == kNone) continue;
      size_t cost = Estimate(target);
      if (best == kNone || cost < best_cost) {
        best = target;
        best_cost = cost;
      }
    }
    return best;
  }

  /// All rows of slot `i` passing its selections, as 1-variable bindings
  /// (padded to full width).
  std::vector<Binding> Materialize(size_t i) {
    const VarSlot& slot = slots_[i];
    std::vector<Binding> out;
    auto emit = [&](RowId id) {
      Binding b(slots_.size(), 0);
      b[i] = id;
      out.push_back(std::move(b));
    };
    if (!slot.selections.empty() && strategy_ == JoinStrategy::kHashJoin) {
      // Probe the most selective index, re-check the rest.
      size_t best_col = 0;
      size_t best_size = static_cast<size_t>(-1);
      for (size_t s = 0; s < slot.selections.size(); ++s) {
        size_t size = slot.table
                          ->Lookup(slot.selections[s].first,
                                   slot.selections[s].second)
                          .size();
        if (size < best_size) {
          best_size = size;
          best_col = s;
        }
      }
      for (RowId id : slot.table->Lookup(slot.selections[best_col].first,
                                         slot.selections[best_col].second)) {
        if (PollCancelStrided()) break;
        if (RowPassesSlot(slot, id)) emit(id);
      }
    } else {
      for (RowId id = 0; id < slot.table->num_rows(); ++id) {
        if (PollCancelStrided()) break;
        if (RowPassesSlot(slot, id)) emit(id);
      }
    }
    if (stats_ != nullptr) stats_->bindings += out.size();
    return out;
  }

  std::vector<Binding> CrossProduct(std::vector<Binding> bindings, size_t i) {
    std::vector<Binding> rows = Materialize(i);
    std::vector<Binding> out;
    out.reserve(bindings.size() * rows.size());
    for (const Binding& b : bindings) {
      if (PollCancelStrided()) break;
      for (const Binding& r : rows) {
        Binding merged = b;
        merged[i] = r[i];
        out.push_back(std::move(merged));
      }
    }
    if (stats_ != nullptr) stats_->bindings += out.size();
    return out;
  }

  /// Extends bindings through a join atom that connects a bound slot to
  /// `target` (the first such atom probes; the rest are checked by
  /// ApplyNewlyBoundJoins).
  std::vector<Binding> JoinStep(std::vector<Binding> bindings, size_t target) {
    const ResolvedJoin* probe = nullptr;
    for (const ResolvedJoin& join : joins_) {
      bool forward = bound_[join.va] && join.vb == target;
      bool backward = bound_[join.vb] && join.va == target;
      if (forward || backward) {
        probe = &join;
        break;
      }
    }
    // probe != nullptr by construction of PickNextJoined.
    size_t source = probe->va == target ? probe->vb : probe->va;
    size_t source_col = probe->va == target ? probe->cb : probe->ca;
    size_t target_col = probe->va == target ? probe->ca : probe->cb;

    const VarSlot& slot = slots_[target];
    std::vector<Binding> out;
    for (const Binding& b : bindings) {
      if (PollCancelStrided()) break;
      const Value& key = slots_[source].table->At(b[source], source_col);
      if (strategy_ == JoinStrategy::kHashJoin) {
        for (RowId id : slot.table->Lookup(target_col, key)) {
          if (!RowPassesSlot(slot, id)) continue;
          Binding merged = b;
          merged[target] = id;
          out.push_back(std::move(merged));
        }
      } else {
        for (RowId id = 0; id < slot.table->num_rows(); ++id) {
          if (slot.table->At(id, target_col) != key) continue;
          if (!RowPassesSlot(slot, id)) continue;
          Binding merged = b;
          merged[target] = id;
          out.push_back(std::move(merged));
        }
      }
    }
    if (stats_ != nullptr) stats_->bindings += out.size();
    return out;
  }

  /// Filters bindings by join atoms whose two sides just became bound.
  void ApplyNewlyBoundJoins(std::vector<Binding>* bindings) {
    for (ResolvedJoin& join : joins_) {
      if (join.applied || !bound_[join.va] || !bound_[join.vb]) continue;
      join.applied = true;
      std::vector<Binding> kept;
      kept.reserve(bindings->size());
      for (Binding& b : *bindings) {
        if (slots_[join.va].table->At(b[join.va], join.ca) ==
            slots_[join.vb].table->At(b[join.vb], join.cb)) {
          kept.push_back(std::move(b));
        }
      }
      *bindings = std::move(kept);
    }
  }

  JoinStrategy strategy_;
  ExecutorStats* stats_;
  const CancelToken* cancel_;
  bool stopped_ = false;
  uint64_t poll_counter_ = 0;
  std::vector<VarSlot> slots_;
  std::vector<ResolvedJoin> joins_;
  std::vector<bool> bound_;
};

/// Columnar twin of ConjunctRunner: the working set is a BatchTable with
/// one contiguous RowId column per slot instead of a vector of per-row
/// Binding allocations. Join steps emit (source row, matched id) index
/// pairs and gather the surviving columns in one pass; slots whose column
/// no later join or projection needs are dropped after each step so wide
/// conjuncts narrow as they go. Stats counters are bumped at the exact
/// sites ConjunctRunner bumps them (Materialize, cross product, probe
/// output), so both engines report identical ExecutorStats.
class BatchRunner {
 public:
  BatchRunner(JoinStrategy strategy, ExecutorStats* stats,
              const CancelToken* cancel = nullptr)
      : strategy_(strategy), stats_(stats), cancel_(cancel) {}

  /// Same contract as ConjunctRunner::stopped(): a stopped run discards
  /// the in-flight batch and returns an empty one.
  bool stopped() const { return stopped_; }

  /// Fresh run. `needed[i]` marks slots whose column must survive to the
  /// end (projections, near conditions, dedup keys); the rest may be
  /// dropped once every join touching them has been applied.
  BatchTable Run(std::vector<VarSlot> slots, std::vector<ResolvedJoin> joins,
                 std::vector<bool> needed) {
    const size_t width = slots.size();
    slots_ = std::move(slots);
    joins_ = std::move(joins);
    needed_ = std::move(needed);
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
  /// bindings (the shared-core optimization).
  BatchTable RunSeeded(std::vector<VarSlot> slots,
                       std::vector<ResolvedJoin> joins, BatchTable initial,
                       std::vector<bool> bound, std::vector<bool> needed) {
    const size_t width = slots.size();
    slots_ = std::move(slots);
    joins_ = std::move(joins);
    needed_ = std::move(needed);
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
        if (strategy_ == JoinStrategy::kHashJoin) {
          estimate = std::min(estimate, coded_[i].back().rows.size());
        }
      }
      estimates_[i] = estimate;
    }
  }

  /// RowPassesSlot on codes: selections compare codes, near conditions
  /// still read the cell.
  bool RowPasses(size_t i, RowId id) const {
    for (const CodedSelection& sel : coded_[i]) {
      if (sel.codes[id] != sel.code) return false;
    }
    const VarSlot& slot = slots_[i];
    for (const auto& [col, near] : slot.nears) {
      if (near.Satisfaction(slot.table->At(id, col)) <= 0.0) return false;
    }
    return true;
  }

  bool PollCancel() {
    if (stopped_) return true;
    if (cancel_ != nullptr && cancel_->ShouldStop()) stopped_ = true;
    return stopped_;
  }

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

  /// Row ids of slot `i` passing its selections — the column-oriented
  /// Materialize (no per-row Binding allocations).
  std::vector<RowId> MaterializeIds(size_t i) {
    const std::vector<CodedSelection>& selections = coded_[i];
    std::vector<RowId> out;
    if (!selections.empty() && strategy_ == JoinStrategy::kHashJoin) {
      // Walk the most selective selection's rows, re-check the rest.
      const CodedSelection* best = &selections[0];
      for (const CodedSelection& sel : selections) {
        if (sel.rows.size() < best->rows.size()) best = &sel;
      }
      for (RowId id : best->rows) {
        if (PollCancelStrided()) break;
        if (RowPasses(i, id)) out.push_back(id);
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
  /// surviving rows column-wise.
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
    std::vector<uint32_t> base;
    std::vector<RowId> matched;
    auto emit = [&](size_t b, RowId id) {
      if (!RowPasses(target, id)) return;
      base.push_back(static_cast<uint32_t>(b));
      matched.push_back(id);
    };
    if (strategy_ == JoinStrategy::kNestedLoop) {
      for (size_t b = 0; b < n; ++b) {
        if (PollCancelStrided()) break;
        const Value& key = source_table->At(src[b], source_col);
        for (RowId id = 0; id < target_table->num_rows(); ++id) {
          if (target_table->At(id, target_col) == key) emit(b, id);
        }
      }
    } else {
      const KeyIndex& from = source_table->Keys(source_col);
      const KeyIndex& to = target_table->Keys(target_col);
      // Both keys code as value - min: a source row's target code is its
      // own code plus a constant, and no cell is read or hashed.
      const bool by_offset = from.arithmetic() && to.arithmetic();
      const uint64_t offset = KeyIndex::Offset(from, to);
      for (size_t b = 0; b < n; ++b) {
        if (PollCancelStrided()) break;
        std::span<const RowId> rows;
        if (by_offset) {
          const uint64_t code = from.codes()[src[b]] + offset;
          if (code < to.num_codes()) {
            rows = to.postings(static_cast<uint32_t>(code));
          }
        } else {
          rows = target_table->Lookup(target_col,
                                      source_table->At(src[b], source_col));
        }
        for (RowId id : rows) emit(b, id);
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

  JoinStrategy strategy_;
  ExecutorStats* stats_;
  const CancelToken* cancel_;
  bool stopped_ = false;
  uint64_t poll_counter_ = 0;
  std::vector<VarSlot> slots_;
  std::vector<ResolvedJoin> joins_;
  std::vector<bool> bound_;
  std::vector<bool> needed_;
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

/// Product of the satisfactions of every near condition pushed into
/// `slots`, evaluated on one binding. 1 when there are none.
double BindingSatisfaction(const std::vector<VarSlot>& slots,
                           const Binding& binding) {
  double sat = 1.0;
  for (size_t i = 0; i < slots.size(); ++i) {
    for (const auto& [col, near] : slots[i].nears) {
      sat *= near.Satisfaction(slots[i].table->At(binding[i], col));
    }
  }
  return sat;
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

/// Projects one binding according to `projections`.
Row ProjectBinding(const std::vector<VarSlot>& slots,
                   const std::vector<ProjectionItem>& projections,
                   const Binding& binding) {
  Row row;
  row.reserve(projections.size());
  for (const auto& item : projections) {
    size_t slot = SlotOf(slots, item.var);
    size_t col = *slots[slot].table->schema().ColumnIndex(item.column);
    row.push_back(slots[slot].table->At(binding[slot], col));
  }
  return row;
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
/// keeps that row's ids and the better satisfaction), appended otherwise.
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
  std::vector<RowId> ids(arity);
  std::vector<uint32_t> codes(arity);
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    for (size_t j = 0; j < arity; ++j) {
      ids[j] = column_ids[j][r];
      codes[j] = column_codes[j][ids[j]];
    }
    if (!distinct) {
      rows->Append(codes.data(), ids.data());
      if (!batch_sats.empty()) sats->push_back(batch_sats[r]);
      continue;
    }
    const auto [row, added] = rows->Insert(codes.data(), ids.data());
    if (batch_sats.empty()) continue;
    if (added) {
      sats->push_back(batch_sats[r]);
    } else if (batch_sats[r] > (*sats)[row]) {
      (*sats)[row] = batch_sats[r];
    }
  }
}

/// The table and column each output column of `query` reads.
std::vector<std::pair<const Table*, size_t>> OutputColumns(
    const Database& db, const SelectQuery& query) {
  std::vector<std::pair<const Table*, size_t>> columns;
  for (const auto& item : query.projections()) {
    const Table* table = *db.GetTable(query.FindVariable(item.var)->table);
    columns.emplace_back(table, *table->schema().ColumnIndex(item.column));
  }
  return columns;
}

/// Late materialization: the Values of one coded row.
Row Materialize(const std::vector<std::pair<const Table*, size_t>>& columns,
                const RowId* ids) {
  Row row;
  row.reserve(columns.size());
  for (size_t j = 0; j < columns.size(); ++j) {
    row.push_back(columns[j].first->At(ids[j], columns[j].second));
  }
  return row;
}

/// Batch twin of BindingSatisfaction: per-row product of every near
/// condition's satisfaction, multiplying factors in the same (slot, near)
/// order so the doubles are bit-identical to the tuple engine's.
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

/// Per-group accumulation state for compound grouping/ranking, shared by
/// both engines.
struct CompoundGroup {
  size_t count = 0;                // Positive parts only (count(*)).
  ConjunctiveAccumulator degree;   // Positive parts' degrees.
  ConjunctiveAccumulator dislike;  // |degree| of negative parts.
};
using CompoundGroupMap =
    std::unordered_map<Row, CompoundGroup, RowHash, RowEq>;

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

/// The tuple engine's compound tail: HAVING, dislike vetoes and ranking
/// over its Row-keyed groups.
ResultSet BuildCompoundResult(
    const CompoundQuery& query, const CompoundGroupMap& groups,
    const std::unordered_set<Row, RowHash, RowEq>& vetoed, bool truncated) {
  ResultSet out(ColumnNames(query.parts()[0].query.projections()));
  for (const auto& [row, group] : groups) {
    double combined = 0.0;
    if (vetoed.contains(row) || !PassesHaving(query, group, &combined)) {
      continue;
    }
    out.AddRankedRow(row, group.count, combined);
  }
  out.set_truncated(truncated);
  out.Canonicalize();
  return out;
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
  if (exec_depth_ > 0) return ExecuteSelect(query, stats);

  obs::ScopedSpan span(trace_, "execution");
  const ExecutorStats entry = *stats;
  ++exec_depth_;
  Result<ResultSet> result = ExecuteSelect(query, stats);
  --exec_depth_;
  FinishOuterExecute(&span, entry, *stats, result);
  return result;
}

Result<ResultSet> Executor::Execute(const CompoundQuery& query,
                                    ExecutorStats* stats) const {
  ExecutorStats local;
  if (stats == nullptr) stats = &local;
  if (exec_depth_ > 0) return ExecuteCompound(query, stats);

  obs::ScopedSpan span(trace_, "execution");
  const ExecutorStats entry = *stats;
  ++exec_depth_;
  Result<ResultSet> result = ExecuteCompound(query, stats);
  --exec_depth_;
  FinishOuterExecute(&span, entry, *stats, result);
  return result;
}

Result<ResultSet> Executor::ExecuteSelect(const SelectQuery& query,
                                          ExecutorStats* stats) const {
  return exec_ == ExecStrategy::kVectorized ? ExecuteSelectVec(query, stats)
                                            : ExecuteSelectTuple(query, stats);
}

Result<ResultSet> Executor::ExecuteCompound(const CompoundQuery& query,
                                            ExecutorStats* stats) const {
  return exec_ == ExecStrategy::kVectorized
             ? ExecuteCompoundVec(query, stats)
             : ExecuteCompoundTuple(query, stats);
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

Result<ResultSet> Executor::ExecuteSelectTuple(const SelectQuery& query,
                                               ExecutorStats* stats) const {
  QP_RETURN_IF_ERROR(query.Validate(db_->schema()));

  ResultSet out(ColumnNames(query.projections()));

  // SQL semantics: any empty FROM table empties the whole product.
  for (const TupleVariable& var : query.from()) {
    QP_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(var.table));
    if (table->num_rows() == 0) return out;
  }

  std::vector<std::vector<AtomicCondition>> dnf = ToDnf(query.where());

  // Cooperative cancellation: a stopped runner discards the conjunct's
  // in-flight bindings (only fully-joined rows ever surface), and the
  // whole result is flagged truncated.
  bool truncated = false;
  auto run_conjunct = [&](const std::vector<AtomicCondition>& atoms,
                          const std::unordered_set<std::string>* subset)
      -> Result<std::pair<std::vector<VarSlot>, std::vector<Binding>>> {
    std::vector<TupleVariable> vars;
    for (const TupleVariable& var : query.from()) {
      if (subset != nullptr && !subset->contains(var.alias)) continue;
      vars.push_back(var);
    }
    QP_ASSIGN_OR_RETURN(BuiltConjunct built,
                        BuildConjunct(*db_, vars, atoms));
    if (stats != nullptr) ++stats->disjuncts;
    obs::ScopedSpan disjunct_span(trace_, "disjunct");
    ConjunctRunner runner(strategy_, stats, cancel_);
    std::vector<Binding> bindings =
        runner.Run(built.slots, std::move(built.joins));
    if (runner.stopped()) truncated = true;
    disjunct_span.Counter("rows", bindings.size());
    disjunct_span.Counter("stopped", runner.stopped() ? 1 : 0);
    return std::make_pair(std::move(built.slots), std::move(bindings));
  };

  // Soft (near) conditions produce a per-row satisfaction column; a row
  // reached through several bindings or disjuncts keeps its best match.
  bool has_near = false;
  {
    std::vector<AtomicCondition> atoms;
    if (query.where() != nullptr) query.where()->CollectAtoms(&atoms);
    has_near = HasNearAtom(atoms);
  }
  std::vector<double> satisfactions;

  if (query.distinct()) {
    std::unordered_map<Row, double, RowHash, RowEq> best;
    std::unordered_set<Row, RowHash, RowEq> seen;
    for (const auto& disjunct : dnf) {
      if (truncated || (cancel_ != nullptr && cancel_->ShouldStop())) {
        truncated = true;  // Remaining disjuncts skipped.
        break;
      }
      std::unordered_set<std::string> used =
          UsedAliases(disjunct, query.projections());
      QP_ASSIGN_OR_RETURN(auto result, run_conjunct(disjunct, &used));
      const auto& [slots, bindings] = result;
      if (stats != nullptr) stats->raw_rows += bindings.size();
      for (const Binding& b : bindings) {
        Row row = ProjectBinding(slots, query.projections(), b);
        if (has_near) {
          double sat = BindingSatisfaction(slots, b);
          auto [it, inserted] = best.emplace(std::move(row), sat);
          if (!inserted && sat > it->second) it->second = sat;
        } else if (seen.insert(row).second) {
          out.AddRow(std::move(row));
        }
      }
    }
    if (has_near) {
      for (auto& [row, sat] : best) {
        out.AddRow(row);
        satisfactions.push_back(sat);
      }
    }
  } else if (dnf.size() == 1) {
    QP_ASSIGN_OR_RETURN(auto result, run_conjunct(dnf[0], nullptr));
    const auto& [slots, bindings] = result;
    if (stats != nullptr) stats->raw_rows += bindings.size();
    for (const Binding& b : bindings) {
      out.AddRow(ProjectBinding(slots, query.projections(), b));
      if (has_near) satisfactions.push_back(BindingSatisfaction(slots, b));
    }
  } else {
    // OR over the full variable product without DISTINCT: deduplicate at
    // the binding level so each satisfying assignment counts once.
    std::unordered_map<Binding, double, BindingHash> seen;
    std::vector<VarSlot> full_slots;
    for (const auto& disjunct : dnf) {
      if (truncated || (cancel_ != nullptr && cancel_->ShouldStop())) {
        truncated = true;  // Remaining disjuncts skipped.
        break;
      }
      QP_ASSIGN_OR_RETURN(auto result, run_conjunct(disjunct, nullptr));
      auto& [slots, bindings] = result;
      if (stats != nullptr) stats->raw_rows += bindings.size();
      for (Binding& b : bindings) {
        double sat = has_near ? BindingSatisfaction(slots, b) : 1.0;
        auto [it, inserted] = seen.emplace(std::move(b), sat);
        if (!inserted && sat > it->second) it->second = sat;
      }
      full_slots = std::move(slots);
    }
    for (const auto& [b, sat] : seen) {
      out.AddRow(ProjectBinding(full_slots, query.projections(), b));
      if (has_near) satisfactions.push_back(sat);
    }
  }

  if (has_near) out.set_satisfactions(std::move(satisfactions));
  out.set_truncated(truncated);
  out.Canonicalize();
  return out;
}

Result<ResultSet> Executor::ExecuteCompoundTuple(const CompoundQuery& query,
                                                 ExecutorStats* stats) const {
  QP_RETURN_IF_ERROR(query.Validate(db_->schema()));

  CompoundGroupMap groups;
  auto accumulate = [&](const Row& row, double part_degree) {
    Accumulate(&groups[row], part_degree);
  };

  // A compound is truncated when any constituent execution was cut short
  // or whole parts/exclusions were skipped: counts and degrees are then
  // under-accumulated and dislike vetoes may be under-applied, but every
  // emitted row is still a genuine answer of some part.
  bool truncated = false;

  std::optional<SharedCorePlan> plan;
  if (shared_core_) plan = PlanSharedCore(query);

  if (plan.has_value()) {
    // Execute the common block once (lazily — only if some part actually
    // reuses it), then each part's residue on top of the materialized
    // core bindings.
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
          std::min(core_entry_estimate, EstimateSlot(slot, strategy_));
    }
    bool core_materialized = false;
    std::vector<Binding> core_bindings;
    auto materialize_core = [&]() {
      if (core_materialized) return;
      core_materialized = true;
      if (core_table_empty) return;
      if (stats != nullptr) ++stats->disjuncts;
      ConjunctRunner runner(strategy_, stats, cancel_);
      core_bindings = runner.Run(core.slots, std::move(core.joins));
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
      // Slots: core variables first (matching core binding order), then
      // the part's extra variables.
      std::vector<TupleVariable> vars = plan->core_vars;
      vars.insert(vars.end(), residue.extra_vars.begin(),
                  residue.extra_vars.end());
      // Core near conditions participate in every part's satisfaction, so
      // they are re-attached to the part's slot set (they re-filter core
      // bindings, which is a no-op, and feed BindingSatisfaction).
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
      for (size_t i = plan->core_vars.size(); i < built.slots.size(); ++i) {
        residue_entry =
            std::min(residue_entry, EstimateSlot(built.slots[i], strategy_));
      }
      size_t naive_entry = SIZE_MAX;
      {
        QP_ASSIGN_OR_RETURN(BuiltConjunct full,
                            BuildConjunct(*db_, vars, residue.all_atoms));
        for (const VarSlot& slot : full.slots) {
          naive_entry = std::min(naive_entry, EstimateSlot(slot, strategy_));
        }
      }
      // Any core-reusing strategy costs at least ~|core|; if the part's
      // own cheapest entry point (usually its preference selection) is
      // far more selective than the core's, fresh execution wins. The 4x
      // pad absorbs the part's join fan-out.
      if (naive_entry * 4 < core_entry_estimate) {
        QP_ASSIGN_OR_RETURN(ResultSet partial, Execute(part.query, stats));
        if (partial.truncated()) truncated = true;
        for (size_t i = 0; i < partial.num_rows(); ++i) {
          accumulate(partial.row(i), part.degree * partial.satisfaction(i));
        }
        part_span.Counter("naive", 1);
        part_span.Counter("rows", partial.num_rows());
        continue;
      }
      materialize_core();
      const bool drive_from_core =
          residue.extra_vars.empty() || core_bindings.size() <= residue_entry;
      if (stats != nullptr) ++stats->core_reuses;

      std::vector<Binding> bindings;
      if (drive_from_core) {
        std::vector<bool> bound(vars.size(), false);
        for (size_t i = 0; i < plan->core_vars.size(); ++i) bound[i] = true;
        std::vector<Binding> seeded;
        seeded.reserve(core_bindings.size());
        for (const Binding& b : core_bindings) {
          Binding padded(vars.size(), 0);
          std::copy(b.begin(), b.end(), padded.begin());
          seeded.push_back(std::move(padded));
        }
        // The residue is one conjunctive block: count it like the naive
        // path (which recurses into Execute) does, so per-part disjunct
        // attribution is strategy-independent.
        if (stats != nullptr) ++stats->disjuncts;
        ConjunctRunner runner(strategy_, stats, cancel_);
        bindings = runner.RunSeeded(built.slots, std::move(built.joins),
                                    std::move(seeded), std::move(bound));
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
          for (size_t i = 0; i < plan->core_vars.size(); ++i) {
            if (referenced.contains(plan->core_vars[i].alias)) {
              anchors.push_back(i);
            }
          }
        }
        // Run the residue independently over anchors + extras.
        std::vector<TupleVariable> residue_vars;
        for (size_t i : anchors) residue_vars.push_back(plan->core_vars[i]);
        residue_vars.insert(residue_vars.end(), residue.extra_vars.begin(),
                            residue.extra_vars.end());
        QP_ASSIGN_OR_RETURN(
            BuiltConjunct residue_built,
            BuildConjunct(*db_, residue_vars, residue.extra_atoms));
        // One conjunctive block, same attribution as the other strategies.
        if (stats != nullptr) ++stats->disjuncts;
        ConjunctRunner runner(strategy_, stats, cancel_);
        std::vector<Binding> residue_bindings = runner.Run(
            residue_built.slots, std::move(residue_built.joins));
        if (runner.stopped()) truncated = true;

        // Hash the residue results by their anchor row ids and merge with
        // the core bindings.
        std::unordered_map<Binding, std::vector<const Binding*>, BindingHash>
            by_anchor;
        for (const Binding& rb : residue_bindings) {
          Binding key;
          key.reserve(anchors.size());
          for (size_t i = 0; i < anchors.size(); ++i) key.push_back(rb[i]);
          by_anchor[key].push_back(&rb);
        }
        for (const Binding& cb : core_bindings) {
          Binding key;
          key.reserve(anchors.size());
          for (size_t i : anchors) key.push_back(cb[i]);
          auto it = by_anchor.find(key);
          if (it == by_anchor.end()) continue;
          for (const Binding* rb : it->second) {
            Binding merged(vars.size(), 0);
            std::copy(cb.begin(), cb.end(), merged.begin());
            for (size_t e = 0; e < residue.extra_vars.size(); ++e) {
              merged[plan->core_vars.size() + e] = (*rb)[anchors.size() + e];
            }
            bindings.push_back(std::move(merged));
          }
        }
        if (stats != nullptr) stats->bindings += bindings.size();
      }

      if (stats != nullptr) stats->raw_rows += bindings.size();
      // Parts are DISTINCT; a row keeps its best soft-condition match.
      std::unordered_map<Row, double, RowHash, RowEq> best;
      for (const Binding& b : bindings) {
        Row row =
            ProjectBinding(built.slots, part.query.projections(), b);
        double sat = BindingSatisfaction(built.slots, b);
        auto [it, inserted] = best.emplace(std::move(row), sat);
        if (!inserted && sat > it->second) it->second = sat;
      }
      for (const auto& [row, sat] : best) {
        accumulate(row, part.degree * sat);
      }
      part_span.Counter(drive_from_core ? "drive" : "merge", 1);
      part_span.Counter("rows", best.size());
    }
  } else {
    for (const CompoundPart& part : query.parts()) {
      if (truncated || (cancel_ != nullptr && cancel_->ShouldStop())) {
        truncated = true;  // Remaining parts skipped.
        break;
      }
      obs::ScopedSpan part_span(trace_, "part");
      QP_ASSIGN_OR_RETURN(ResultSet partial, Execute(part.query, stats));
      if (partial.truncated()) truncated = true;
      for (size_t i = 0; i < partial.num_rows(); ++i) {
        // Soft conditions scale the part's contribution by how closely
        // the row matches.
        accumulate(partial.row(i), part.degree * partial.satisfaction(i));
      }
      part_span.Counter("naive", 1);
      part_span.Counter("rows", partial.num_rows());
    }
  }

  std::unordered_set<Row, RowHash, RowEq> vetoed;
  QP_RETURN_IF_ERROR(CollectExclusions(query, stats, &vetoed, &truncated));
  return BuildCompoundResult(query, groups, vetoed, truncated);
}

Result<ResultSet> Executor::ExecuteSelectVec(const SelectQuery& query,
                                             ExecutorStats* stats) const {
  QP_RETURN_IF_ERROR(query.Validate(db_->schema()));
  CodedRows rows(query.projections().size());
  std::vector<double> sats;
  bool truncated = false;
  QP_RETURN_IF_ERROR(RunSelectVec(query, stats, &rows, &sats, &truncated));

  ResultSet out(ColumnNames(query.projections()));
  const auto columns = OutputColumns(*db_, query);
  for (size_t i = 0; i < rows.size(); ++i) {
    out.AddRow(Materialize(columns, rows.ids(i)));
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
    BatchRunner runner(strategy_, stats, cancel_);
    BatchTable batch =
        runner.Run(built.slots, std::move(built.joins),
                   NeededSlots(built.slots, query.projections(), need_all));
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
  // parts. A group's ids are those of its first occurrence.
  const SelectQuery& first = query.parts()[0].query;
  const size_t arity = first.projections().size();
  CodedRows groups(arity);
  std::vector<CompoundGroup> aggregates;
  // One Add per row of the part's answer (one per group for a DISTINCT
  // part), parts in order.
  auto accumulate = [&](const CodedRows& rows, const std::vector<double>& sats,
                        double part_degree) {
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto [group, added] = groups.Insert(rows.codes(i), rows.ids(i));
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
          std::min(core_entry_estimate, EstimateSlot(slot, strategy_));
    }
    const size_t core_n = plan->core_vars.size();
    bool core_materialized = false;
    BatchTable core_batch(core_n);
    auto materialize_core = [&]() {
      if (core_materialized) return;
      core_materialized = true;
      if (core_table_empty) return;
      if (stats != nullptr) ++stats->disjuncts;
      BatchRunner runner(strategy_, stats, cancel_);
      // Every core column is needed: parts project them and residues
      // join through them.
      core_batch = runner.Run(core.slots, std::move(core.joins),
                              std::vector<bool>(core_n, true));
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

      // Cost model identical to the tuple engine (see
      // ExecuteCompoundTuple): naive vs drive vs merge.
      size_t residue_entry = SIZE_MAX;
      for (size_t i = core_n; i < built.slots.size(); ++i) {
        residue_entry =
            std::min(residue_entry, EstimateSlot(built.slots[i], strategy_));
      }
      size_t naive_entry = SIZE_MAX;
      {
        QP_ASSIGN_OR_RETURN(BuiltConjunct full,
                            BuildConjunct(*db_, vars, residue.all_atoms));
        for (const VarSlot& slot : full.slots) {
          naive_entry = std::min(naive_entry, EstimateSlot(slot, strategy_));
        }
      }
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
          // Copies the core column; an unmaterialized (empty) core simply
          // installs empty columns.
          seeded.SetColumn(i, core_batch.column(i));
        }
        // The residue is one conjunctive block: count it like the naive
        // path (which recurses into Execute) does, so per-part disjunct
        // attribution is strategy-independent.
        if (stats != nullptr) ++stats->disjuncts;
        BatchRunner runner(strategy_, stats, cancel_);
        part_batch =
            runner.RunSeeded(built.slots, std::move(built.joins),
                             std::move(seeded), std::move(bound), needed);
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
        BatchRunner runner(strategy_, stats, cancel_);
        BatchTable residue_batch =
            runner.Run(residue_built.slots, std::move(residue_built.joins),
                       std::vector<bool>(residue_vars.size(), true));
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
          part_batch.SetColumn(i, core_batch.column(i).Gather(core_idx));
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
  const auto columns = OutputColumns(*db_, first);
  for (size_t g = 0; g < groups.size(); ++g) {
    double combined = 0.0;
    if (!PassesHaving(query, aggregates[g], &combined)) continue;
    Row row = Materialize(columns, groups.ids(g));
    if (vetoed.contains(row)) continue;
    out.AddRankedRow(std::move(row), aggregates[g].count, combined);
  }
  out.set_truncated(truncated);
  out.Canonicalize();
  return out;
}

}  // namespace qp
