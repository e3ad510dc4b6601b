#include "qp/core/selection.h"

#include <algorithm>
#include <queue>

#include "qp/core/conflict.h"

namespace qp {
namespace {

constexpr uint32_t kNoParent = UINT32_MAX;

/// A frontier node: a candidate path, stored as its last edge plus the
/// node it extends (kNoParent for a path's first edge, which leaves query
/// variable `var`). Exactly one of `join` and `selection` is set; both
/// point into the personalization graph, so a push copies no name.
struct Node {
  uint32_t parent;
  uint32_t var;
  const JoinEdge* join;
  const SelectionEdge* selection;
};

/// Queue entry: a node's path degree plus an insertion sequence number so
/// that among equal degrees, earlier-inserted (shorter) paths come out
/// first — the paper's "place after the last path with degree >= its
/// degree".
struct Entry {
  double doi;
  uint64_t seq;
  uint32_t node;
};

struct EntryOrder {
  /// std::priority_queue pops the *largest*; define "larger" as higher
  /// degree, then smaller sequence number.
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.doi != b.doi) return a.doi < b.doi;
    return a.seq > b.seq;
  }
};

/// The join edges of `node`'s path, in path order, into `chain`.
void CollectJoins(const std::vector<Node>& arena, uint32_t node,
                  std::vector<const JoinEdge*>* chain) {
  chain->clear();
  for (uint32_t at = node; at != kNoParent; at = arena[at].parent) {
    if (arena[at].join != nullptr) chain->push_back(arena[at].join);
  }
  std::reverse(chain->begin(), chain->end());
}

/// The path `chain` + `selection` leaving query variable `var`, names
/// and all: built only for a path the caller keeps or a filter judges.
PreferencePath MaterializePath(const SelectQuery& query, uint32_t var,
                               const std::vector<const JoinEdge*>& chain,
                               const SelectionEdge& selection) {
  std::vector<JoinEdge> joins;
  joins.reserve(chain.size());
  for (const JoinEdge* join : chain) joins.push_back(*join);
  const TupleVariable& anchor = query.from()[var];
  return PreferencePath(anchor.alias, anchor.table, std::move(joins),
                        selection);
}

}  // namespace

Result<std::vector<PreferencePath>> PreferenceSelector::Select(
    const SelectQuery& query, const InterestCriterion& criterion,
    SelectionStats* stats, const SemanticFilter* semantic,
    const CancelToken* cancel, obs::RequestTrace* trace) const {
  SelectionStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  obs::ScopedSpan span(trace, "preference_selection");
  auto result = SelectInternal(query, criterion, stats, semantic, cancel);

  span.Counter("paths_pushed", stats->paths_pushed);
  span.Counter("paths_popped", stats->paths_popped);
  span.Counter("pruned_cycle", stats->pruned_cycle);
  span.Counter("pruned_conflict", stats->pruned_conflict);
  span.Counter("pruned_semantic", stats->pruned_semantic);
  span.Counter("pruned_criterion", stats->pruned_criterion);
  span.Counter("max_queue_size", stats->max_queue_size);
  span.Counter("degraded", stats->degraded ? 1 : 0);
  span.Counter("selected", result.ok() ? result->size() : 0);
  return result;
}

Result<std::vector<PreferencePath>> PreferenceSelector::SelectInternal(
    const SelectQuery& query, const InterestCriterion& criterion,
    SelectionStats* stats, const SemanticFilter* semantic,
    const CancelToken* cancel) const {
  QP_ASSIGN_OR_RETURN(QueryGraph query_graph,
                      QueryGraph::Build(query, graph_->schema()));

  SelectionStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  // The frontier: an arena of nodes, each one edge long, and a queue of
  // plain entries into it.
  std::vector<Node> arena;
  arena.reserve(64);
  std::vector<Entry> heap;
  heap.reserve(64);
  std::priority_queue<Entry, std::vector<Entry>, EntryOrder> queue(
      EntryOrder(), std::move(heap));
  uint64_t seq = 0;
  auto push = [&](double doi, Node node) {
    queue.push(Entry{doi, seq++, static_cast<uint32_t>(arena.size())});
    arena.push_back(node);
    ++stats->paths_pushed;
    stats->max_queue_size = std::max(stats->max_queue_size, queue.size());
  };
  std::vector<const JoinEdge*> chain;
  // A selection ending `chain` at variable `var` passes the conflict and
  // semantic checks; `mirror` is the chain mapped into the query graph.
  auto admissible = [&](uint32_t var, std::optional<size_t> mirror,
                        const SelectionEdge& edge) {
    if (ConflictDetector::ConflictsAt(query_graph, mirror, edge)) {
      ++stats->pruned_conflict;
      return false;
    }
    if (semantic != nullptr &&
        !semantic->IsRelated(MaterializePath(query, var, chain, edge),
                             query)) {
      ++stats->pruned_semantic;
      return false;
    }
    return true;
  };

  // Step 1 (Figure 5): seed with every atomic element syntactically
  // related to the query — selection and join edges leaving the relations
  // of the query's tuple variables.
  for (uint32_t var = 0; var < query_graph.variables().size(); ++var) {
    const TableId table = query_graph.TableOf(var);
    for (const SelectionEdge& edge : graph_->SelectionsOn(table)) {
      if (!admissible(var, var, edge)) continue;
      push(edge.doi, Node{kNoParent, var, nullptr, &edge});
    }
    for (const JoinEdge& edge : graph_->JoinsFrom(table)) {
      if (query_graph.UsesTable(edge.to_table)) {
        // Expanding into a relation of the query would traverse the query
        // graph rather than expand outwards.
        ++stats->pruned_cycle;
        continue;
      }
      push(edge.doi, Node{kNoParent, var, &edge, nullptr});
    }
  }

  // Step 2: best-first expansion. The cancel token is polled once per
  // pop — accepted selections enter `selected` in final (decreasing-doi)
  // order, so stopping between pops truncates the result to a prefix of
  // the unconstrained top-K and never reorders or skips within it.
  std::vector<PreferencePath> selected;
  CriterionState state;
  while (!queue.empty()) {
    if (cancel != nullptr && cancel->ShouldStop()) {
      stats->degraded = true;
      return selected;
    }
    const Entry entry = queue.top();
    queue.pop();
    ++stats->paths_popped;
    const Node node = arena[entry.node];

    if (node.selection != nullptr) {
      if (!criterion.Accepts(state, entry.doi)) break;
      state.Add(entry.doi);
      CollectJoins(arena, node.parent, &chain);
      selected.push_back(
          MaterializePath(query, node.var, chain, *node.selection));
      continue;
    }

    // A transitive join: expand unless the criterion rules out anything
    // it could ever produce (its degree bounds every extension, and the
    // admissible check accounts for state growth before evaluation).
    if (!criterion.MightAcceptLater(state, entry.doi, entry.doi)) break;

    const TableId end = node.join->to_table;
    // Merge the two presorted adjacency lists in decreasing edge degree so
    // extensions are generated in decreasing path degree, enabling the
    // early break below.
    const auto selections = graph_->SelectionsOn(end);
    const auto joins = graph_->JoinsFrom(end);
    CollectJoins(arena, entry.node, &chain);
    // The chain is mapped into the query graph once; every selection
    // ending it is checked against that variable.
    std::optional<size_t> mirror = node.var;
    for (const JoinEdge* join : chain) {
      mirror = ConflictDetector::MirrorStep(query_graph, mirror, *join);
    }
    size_t si = 0;
    size_t ji = 0;
    while (si < selections.size() || ji < joins.size()) {
      bool take_selection =
          ji >= joins.size() ||
          (si < selections.size() && selections[si].doi >= joins[ji].doi);
      double edge_doi =
          take_selection ? selections[si].doi : joins[ji].doi;
      if (!criterion.MightAcceptLater(state, entry.doi * edge_doi,
                                      entry.doi)) {
        // Remaining edges have lower degree; none can pass.
        ++stats->pruned_criterion;
        break;
      }
      if (take_selection) {
        const SelectionEdge& edge = selections[si];
        ++si;
        if (!admissible(node.var, mirror, edge)) continue;
        push(entry.doi * edge.doi,
             Node{entry.node, node.var, nullptr, &edge});
      } else {
        const JoinEdge& edge = joins[ji];
        ++ji;
        // Acyclic: never back into the query's relations (which include
        // the anchor's) or a relation the chain already reached.
        const bool cycle =
            query_graph.UsesTable(edge.to_table) ||
            std::any_of(chain.begin(), chain.end(), [&](const JoinEdge* join) {
              return join->to_table == edge.to_table;
            });
        if (cycle) {
          ++stats->pruned_cycle;
          continue;
        }
        push(entry.doi * edge.doi,
             Node{entry.node, node.var, &edge, nullptr});
      }
    }
  }
  return selected;
}

Result<std::vector<PreferencePath>> PreferenceSelector::SelectNegative(
    const SelectQuery& query, size_t max_count, double min_abs_doi) const {
  QP_ASSIGN_OR_RETURN(QueryGraph query_graph,
                      QueryGraph::Build(query, graph_->schema()));
  std::unordered_set<std::string> forbidden;
  for (const TupleVariable& var : query.from()) forbidden.insert(var.table);

  std::vector<PreferencePath> all;
  for (const TupleVariable& var : query.from()) {
    std::vector<PreferencePath> paths = EnumerateNegativeTransitiveSelections(
        *graph_, var.alias, var.table, forbidden);
    for (PreferencePath& path : paths) {
      if (path.AbsDoi() < min_abs_doi) continue;
      if (ConflictDetector::ConflictsWithQuery(path, query_graph)) continue;
      all.push_back(std::move(path));
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const PreferencePath& a, const PreferencePath& b) {
                     if (a.AbsDoi() != b.AbsDoi()) {
                       return a.AbsDoi() > b.AbsDoi();
                     }
                     return a.Length() < b.Length();
                   });
  if (all.size() > max_count) {
    all.erase(all.begin() + static_cast<ptrdiff_t>(max_count), all.end());
  }
  return all;
}

Result<std::vector<PreferencePath>> PreferenceSelector::SelectBruteForce(
    const SelectQuery& query, const InterestCriterion& criterion,
    size_t* enumerated, const SemanticFilter* semantic) const {
  QP_ASSIGN_OR_RETURN(QueryGraph query_graph,
                      QueryGraph::Build(query, graph_->schema()));

  std::unordered_set<std::string> forbidden;
  for (const TupleVariable& var : query.from()) forbidden.insert(var.table);

  std::vector<PreferencePath> all;
  for (const TupleVariable& var : query.from()) {
    std::vector<PreferencePath> paths = EnumerateTransitiveSelections(
        *graph_, var.alias, var.table, forbidden);
    for (PreferencePath& path : paths) {
      if (ConflictDetector::ConflictsWithQuery(path, query_graph)) continue;
      if (semantic != nullptr && !semantic->IsRelated(path, query)) continue;
      all.push_back(std::move(path));
    }
  }
  if (enumerated != nullptr) *enumerated = all.size();

  std::stable_sort(all.begin(), all.end(),
                   [](const PreferencePath& a, const PreferencePath& b) {
                     if (a.doi() != b.doi()) return a.doi() > b.doi();
                     return a.Length() < b.Length();
                   });

  std::vector<PreferencePath> selected;
  CriterionState state;
  for (PreferencePath& path : all) {
    if (!criterion.Accepts(state, path.doi())) break;
    state.Add(path.doi());
    selected.push_back(std::move(path));
  }
  return selected;
}

}  // namespace qp
