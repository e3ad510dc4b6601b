#ifndef QP_GRAPH_PERSONALIZATION_GRAPH_H_
#define QP_GRAPH_PERSONALIZATION_GRAPH_H_

#include <span>
#include <string>
#include <vector>

#include "qp/pref/profile.h"
#include "qp/relational/schema.h"
#include "qp/util/status.h"

namespace qp {

/// A labelled selection edge of the personalization graph: from an
/// attribute node to a value node, carrying the user's degree of
/// interest. `near_width` > 0 marks a soft (proximity) edge: the value
/// node stands for the numeric neighbourhood of `value`.
struct SelectionEdge {
  AttributeRef attribute;
  Value value;
  double doi = 0.0;
  double near_width = 0.0;
  /// `attribute` resolved against the schema.
  AttributeId attribute_id;

  bool is_near() const { return near_width > 0.0; }

  /// "GENRE.genre='comedy' (0.9)" / "near(MOVIE.year, 1994, 5) (0.8)".
  std::string ToString() const;
};

/// A labelled *directed* join edge: traversal from `from`'s relation to
/// `to`'s relation. The same schema join appears as up to two edges (one
/// per direction), each with its own degree of interest, plus the schema
/// cardinality of the traversal direction.
struct JoinEdge {
  AttributeRef from;
  AttributeRef to;
  double doi = 0.0;
  JoinCardinality cardinality = JoinCardinality::kToMany;
  /// The declared schema join this edge traverses, in its direction: two
  /// edges join the same attributes the same way exactly when their ids
  /// are equal.
  JoinId join = 0;
  /// `to`'s relation.
  TableId to_table = 0;

  /// "PLAY.mid=MOVIE.mid (1, to-one)".
  std::string ToString() const;
};

/// The personalization graph of one user (paper Section 3.1): the schema
/// graph extended with the value nodes, selection edges and directed join
/// edges that carry the user's stored degrees of interest. Only edges the
/// profile mentions exist; adjacency lists are kept sorted by decreasing
/// degree of interest, which the selection algorithm relies on.
///
/// Names are resolved once, when the graph is built: each relation has a
/// dense id (Schema::FindTableId), and the edges leaving it are one
/// contiguous range of a flat array, so an adjacency lookup by id is an
/// array index.
class PersonalizationGraph {
 public:
  /// Builds the graph for `profile` over `schema`. Validates the profile
  /// (UserProfile::Validate's checks and status codes, through
  /// ResolvePreference): every selection preference must name an existing
  /// attribute with a matching literal type, every join preference must
  /// match a declared schema join (whose directional cardinality is
  /// copied onto the edge). `schema` is retained and must outlive the
  /// graph; the profile is not retained (its edges are copied).
  static Result<PersonalizationGraph> Build(const Schema* schema,
                                            const UserProfile& profile);

  const Schema& schema() const { return *schema_; }

  /// Join edges leaving `table` (any of its attributes), sorted by doi desc.
  std::span<const JoinEdge> JoinsFrom(TableId table) const {
    return Range(joins_, kJoins, table);
  }

  /// Positive selection edges on attributes of `table`, sorted by doi
  /// desc. These feed the (positive) preference selection algorithm.
  std::span<const SelectionEdge> SelectionsOn(TableId table) const {
    return Range(selections_, kSelections, table);
  }

  /// Negative (dislike) selection edges on attributes of `table`, sorted
  /// by |doi| desc. Kept apart from the positive adjacency so the
  /// best-first traversal never mixes the two polarities.
  std::span<const SelectionEdge> NegativeSelectionsOn(TableId table) const {
    return Range(selections_, kDislikes, table);
  }

  /// The same lists by relation name; empty for an unknown name.
  std::span<const JoinEdge> JoinsFrom(const std::string& table) const;
  std::span<const SelectionEdge> SelectionsOn(const std::string& table) const;
  std::span<const SelectionEdge> NegativeSelectionsOn(
      const std::string& table) const;

  size_t num_join_edges() const { return joins_.size(); }
  size_t num_selection_edges() const { return Count(kSelections); }
  size_t num_negative_selection_edges() const { return Count(kDislikes); }

  /// Human-readable dump (one edge per line), for the inspector example.
  std::string DebugString() const;

 private:
  /// The three adjacency kinds; each owns num_tables + 1 offsets.
  enum Kind : size_t { kJoins = 0, kSelections = 1, kDislikes = 2 };

  explicit PersonalizationGraph(const Schema* schema) : schema_(schema) {}

  template <typename Edge>
  std::span<const Edge> Range(const std::vector<Edge>& edges, Kind kind,
                              TableId table) const {
    const uint32_t* begin = &offsets_[kind * (num_tables_ + 1) + table];
    return {edges.data() + begin[0], edges.data() + begin[1]};
  }
  size_t Count(Kind kind) const {
    const size_t base = kind * (num_tables_ + 1);
    return offsets_[base + num_tables_] - offsets_[base];
  }

  const Schema* schema_;
  size_t num_tables_ = 0;
  /// Join edges grouped by source relation id.
  std::vector<JoinEdge> joins_;
  /// Positive selection edges grouped by relation id, then the dislikes
  /// grouped the same way.
  std::vector<SelectionEdge> selections_;
  /// For each kind, where each relation's range starts in its array, plus
  /// the end of the last: 3 * (num_tables + 1) entries.
  std::vector<uint32_t> offsets_;
};

}  // namespace qp

#endif  // QP_GRAPH_PERSONALIZATION_GRAPH_H_
