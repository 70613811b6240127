#include "sparql/query_graph.h"

#include "rdf/vocabulary.h"

namespace sedge::sparql {
namespace {

// Variable occurrences (slot positions) within one pattern.
std::vector<std::pair<Variable, SlotPos>> VarSlots(const TriplePattern& tp) {
  std::vector<std::pair<Variable, SlotPos>> out;
  if (IsVar(tp.subject)) out.push_back({AsVar(tp.subject), SlotPos::kSubject});
  if (IsVar(tp.predicate)) {
    out.push_back({AsVar(tp.predicate), SlotPos::kPredicate});
  }
  if (IsVar(tp.object)) out.push_back({AsVar(tp.object), SlotPos::kObject});
  return out;
}

}  // namespace

QueryGraph::QueryGraph(const std::vector<TriplePattern>& triples)
    : num_nodes_(triples.size()) {
  is_type_.resize(num_nodes_);
  for (size_t i = 0; i < num_nodes_; ++i) {
    is_type_[i] = !IsVar(triples[i].predicate) &&
                  AsTerm(triples[i].predicate).is_iri() &&
                  AsTerm(triples[i].predicate).lexical() == rdf::kRdfType;
  }
  for (size_t i = 0; i < num_nodes_; ++i) {
    const auto slots_i = VarSlots(triples[i]);
    for (size_t j = i + 1; j < num_nodes_; ++j) {
      const auto slots_j = VarSlots(triples[j]);
      for (const auto& [vi, pi] : slots_i) {
        for (const auto& [vj, pj] : slots_j) {
          if (vi == vj) edges_.push_back({i, j, vi, pi, pj});
        }
      }
    }
  }
}

bool QueryGraph::Connected(size_t i, size_t j) const {
  for (const QueryGraphEdge& e : edges_) {
    if ((e.a == i && e.b == j) || (e.a == j && e.b == i)) return true;
  }
  return false;
}

}  // namespace sedge::sparql
