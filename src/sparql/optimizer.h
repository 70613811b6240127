// Join-order optimizer: greedy cost-based ordering of a BGP.
//
// Replaces the paper's Algorithm 1 (start from the most selective rdf:type
// pattern with an SS join, then static heuristics). Every candidate order
// is charged step by step for the access path the executor will really
// take, given the variables already bound, times the rows bound so far:
//
//   cost(step) = rows × routes × per-row path charge + rows' × emit charge
//
// and the rows after a step follow the System-R join estimate
//
//   rows' = rows × T / Π over bound slots x of max(d(x), V(x))
//
// where T is the pattern's own solution count (exact for constant-bound
// patterns), V(x) its distinct values in the slot and d(x) the distinct
// values bound so far. The per-path charges and where each count comes
// from are listed in docs/planner.md.
//
// Search: from every start pattern, repeatedly append the connected
// pattern whose next step is cheapest; the cheapest complete order wins.

#ifndef SEDGE_SPARQL_OPTIMIZER_H_
#define SEDGE_SPARQL_OPTIMIZER_H_

#include <cstddef>
#include <vector>

#include "sparql/ast.h"

namespace sedge::sparql {

/// \brief Statistics of one triple pattern evaluated on its own.
struct PatternEstimate {
  double rows = 0;      // solutions (T)
  double subjects = 0;  // distinct subject values among them
  double objects = 0;   // distinct object values among them
  double routes = 1;    // concrete predicate scans the pattern expands to
  /// Pairs or literals one object-bound lookup walks beyond the index (a
  /// merged ScanPO over a live overlay, a datatype ScanPO over literals).
  double probe_walk = 0;
};

/// \brief Engine-supplied per-pattern statistics.
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;
  virtual PatternEstimate Estimate(const TriplePattern& tp) const = 0;
};

/// One step of a planned order.
struct PlanStep {
  size_t pattern = 0;   // index into the BGP
  double est_rows = 0;  // estimated rows after the step
  double est_cost = 0;  // the step's charge
};

/// The cheapest order found for `triples`. `merge_join` says whether the
/// executor sweeps subject-bound patterns (otherwise it probes per row).
std::vector<PlanStep> OrderTriplePatterns(
    const std::vector<TriplePattern>& triples,
    const CardinalityEstimator& estimator, bool merge_join);

}  // namespace sedge::sparql

#endif  // SEDGE_SPARQL_OPTIMIZER_H_
