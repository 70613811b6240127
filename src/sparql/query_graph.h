// Query graph: triple patterns as nodes, shared variables as labelled edges.
//
// Mirrors Section 5.1 / Figure 6: each BGP triple pattern is a node,
// annotated with whether its predicate is rdf:type; nodes sharing a
// variable are connected by an edge labelled with the join type (SS, SO,
// OS, OO, or Other for predicate-position joins).

#ifndef SEDGE_SPARQL_QUERY_GRAPH_H_
#define SEDGE_SPARQL_QUERY_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sparql/ast.h"

namespace sedge::sparql {

enum class JoinType : uint8_t { kSS, kSO, kOS, kOO, kOther };

/// Position of a variable within a triple pattern.
enum class SlotPos : uint8_t { kSubject, kPredicate, kObject };

/// \brief One edge of the query graph (between triple patterns `a` < `b`).
struct QueryGraphEdge {
  size_t a;
  size_t b;
  Variable var;
  SlotPos pos_in_a;
  SlotPos pos_in_b;

  /// Join type seen from `a` joined to `b` (SS = both subjects, SO =
  /// subject of a meets object of b, ...).
  JoinType type() const {
    if (pos_in_a == SlotPos::kPredicate || pos_in_b == SlotPos::kPredicate) {
      return JoinType::kOther;
    }
    if (pos_in_a == SlotPos::kSubject) {
      return pos_in_b == SlotPos::kSubject ? JoinType::kSS : JoinType::kSO;
    }
    return pos_in_b == SlotPos::kSubject ? JoinType::kOS : JoinType::kOO;
  }
};

/// \brief The query graph over one BGP.
class QueryGraph {
 public:
  explicit QueryGraph(const std::vector<TriplePattern>& triples);

  size_t num_nodes() const { return num_nodes_; }
  const std::vector<QueryGraphEdge>& edges() const { return edges_; }

  /// True if node `i`'s predicate is the rdf:type constant.
  bool IsTypeNode(size_t i) const { return is_type_[i]; }

  /// True if nodes `i` and `j` share at least one variable.
  bool Connected(size_t i, size_t j) const;

 private:
  size_t num_nodes_;
  std::vector<bool> is_type_;
  std::vector<QueryGraphEdge> edges_;
};

}  // namespace sedge::sparql

#endif  // SEDGE_SPARQL_QUERY_GRAPH_H_
