// SuccinctEdge query executor (paper Section 5.2).
//
// Executes an optimized left-deep triple-pattern order against the three
// store layouts by translating each pattern into access/rank/select/
// rangeSearch operations:
//   - rdf:type patterns go to the RDFType store; with reasoning enabled, a
//     constant concept becomes its LiteMat interval (an ordered red-black
//     tree range scan) instead of a union of sub-queries;
//   - object-property patterns run Algorithms 3/4 on the PSO index; with
//     reasoning, a constant predicate expands to the distinct stored
//     predicates inside its LiteMat interval;
//   - datatype-property patterns run on the datatype store, with literal
//     equality evaluated against the flat pool.
//
// Joins propagate variable assignments TP by TP (index nested loop); a
// merge-join fast path exploits the PSO ordering on subject-subject star
// joins (Figure 7). The fast path engages whether or not a delta overlay
// is live: it drives the merged views' RunCursor APIs, which sweep the
// overlay's sorted runs alongside the base subject runs (tombstone
// filtered, delta literal positions kDeltaLiteralBit-tagged). Both
// reasoning and merge join are switchable — the ablation benches
// quantify each — and ExecutorStats counts which path served each TP
// extension.

#ifndef SEDGE_SPARQL_EXECUTOR_H_
#define SEDGE_SPARQL_EXECUTOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/query_profile.h"
#include "sparql/ast.h"
#include "sparql/expression.h"
#include "sparql/optimizer.h"
#include "sparql/result_table.h"
#include "store/store_generation.h"
#include "store/triple_store.h"
#include "util/status.h"

namespace sedge::sparql {

/// \brief Execution counters for one Executor. Database accumulates them
/// across queries; the bench smoke check reads merge_join_delta_extends
/// to prove the star-join fast path stays engaged under a live overlay.
struct ExecutorStats {
  /// Regular-TP extensions served by the merge-join fast path.
  uint64_t merge_join_extends = 0;
  /// The subset of merge_join_extends run while a delta overlay was live.
  uint64_t merge_join_delta_extends = 0;
  /// Regular-TP extensions that fell back to the row-by-row path.
  uint64_t row_extends = 0;
  /// Scan routes resolved through the provisional SchemaRegistry (a
  /// predicate or class admitted since the last re-encode) — the schema
  /// bench's smoke check asserts these triples are actually served.
  uint64_t provisional_routes = 0;
};

/// \brief Physical query engine over one TripleStore.
class Executor {
 public:
  struct Options {
    bool reasoning = true;      // LiteMat interval rewriting
    bool merge_join = true;     // PSO-order merge join on SS star joins
    bool use_optimizer = true;  // cost-based ordering (false: textual order)
  };

  /// Constructs with default options (reasoning, merge join and the
  /// optimizer all enabled). The caller must keep `store` alive for the
  /// executor's lifetime — bench/test convenience; concurrent deployments
  /// use the snapshot-pinning constructor below.
  explicit Executor(const store::TripleStore* store);
  Executor(const store::TripleStore* store, Options options);
  /// Pins `snapshot` for the executor's lifetime, so a concurrent
  /// generation swap (background compaction) can never free the store
  /// underneath a running query.
  Executor(std::shared_ptr<const store::StoreGeneration> snapshot,
           Options options);
  ~Executor();

  /// Runs the full pipeline: optimize, evaluate, bind, filter, project,
  /// dedupe, slice — and decodes the result.
  Result<QueryResult> Execute(const Query& query);

  /// Same pipeline, but stops before decoding (benchmarks measure this).
  Result<BindingTable> ExecuteEncoded(const Query& query);

  /// Join order chosen for `triples`, with the planner's row and cost
  /// estimate per step (empty estimates when the optimizer is off:
  /// textual order).
  std::vector<PlanStep> Plan(const std::vector<TriplePattern>& triples) const;

  const Options& options() const { return options_; }

  /// Counters for the extensions this executor ran so far.
  const ExecutorStats& stats() const { return stats_; }

  /// Attaches a trace profile node for the next Execute*: evaluation
  /// appends an "optimize" child (join-order planning time) plus one
  /// "tp/<path>" child per triple-pattern extension — path is merge_join,
  /// row, or type; stats carry routes considered and rows produced. Nested
  /// groups (unions) append flat under the same node. Null disables
  /// tracing (the default; tracing is per-query scratch state, so a traced
  /// executor must not be shared across threads).
  void set_profile(obs::ProfileNode* profile) { profile_ = profile; }

 private:
  class Decoder;
  class Estimator;

  // One concrete predicate to scan (a reasoning interval may expand a
  // query predicate into several of these, across both stores).
  struct Route {
    bool is_type = false;    // rdf:type triples (variable predicates only)
    bool is_object = false;  // object-triple store vs datatype-triple store
    uint64_t pred = 0;
  };
  // Routes of the constant predicate IRI `p`: with reasoning, every stored
  // predicate inside its LiteMat interval; a provisional predicate is its
  // own single route. A constant `object` (or null) rules out the store it
  // cannot match. Provisional routes are added to `*provisional` if given.
  static std::vector<Route> ConstRoutes(const store::TripleStore& store,
                                        const std::string& p, bool reasoning,
                                        const rdf::Term* object,
                                        uint64_t* provisional);
  // Routes of an unbound predicate variable: every stored predicate plus
  // rdf:type.
  static std::vector<Route> UnboundPredicateRoutes(
      const store::TripleStore& store);

  Result<BindingTable> EvaluateGroup(const GroupPattern& group);
  Result<BindingTable> EvaluateBgp(const std::vector<TriplePattern>& triples);
  Status ExtendWithTp(const TriplePattern& tp, BindingTable* table);
  Status ExtendTypeTp(const TriplePattern& tp, BindingTable* table);
  Status ExtendRegularTp(const TriplePattern& tp, BindingTable* table);
  // Merge-join fast path (Figure 7): subject bindings sorted once, each
  // route's merged (base ∪ delta) subject run swept once through a
  // RunCursor. Returns false if preconditions fail (caller falls back to
  // the row-by-row path).
  bool TryMergeJoinExtend(const TriplePattern& tp,
                          const std::vector<Route>& routes,
                          BindingTable* table);
  // Drops rows of (*rows)[begin, end) that repeat another row of that
  // range in every column of `cols`: one solution entailed through two
  // routes of a pattern.
  void DropRepeats(std::vector<std::vector<store::EncodedTerm>>* rows,
                   size_t begin, const std::vector<int>& cols) const;
  Status ApplyBind(const Bind& bind, BindingTable* table);
  void ApplyFilter(const Expr& filter, BindingTable* table);
  BindingTable JoinTables(BindingTable left, BindingTable right) const;

  store::EncodedTerm InternComputed(rdf::Term term,
                                    std::optional<double> numeric);
  // Canonical join/dedup key for one value (literals canonicalize by
  // content, since the flat pool may store equal literals at distinct
  // positions).
  std::string CanonicalKey(const store::EncodedTerm& v) const;

  // Pinned generation (null in the raw-pointer construction modes);
  // store_ aliases it when set.
  std::shared_ptr<const store::StoreGeneration> snapshot_;
  const store::TripleStore* store_;
  Options options_;
  ExecutorStats stats_;
  obs::ProfileNode* profile_ = nullptr;
  obs::ProfileNode* tp_node_ = nullptr;  // current pattern's span, if traced
  std::unique_ptr<Decoder> decoder_;
  std::unique_ptr<ExpressionEvaluator> evaluator_;
  std::vector<rdf::Term> computed_pool_;
  std::vector<std::optional<double>> computed_numeric_;
};

}  // namespace sedge::sparql

#endif  // SEDGE_SPARQL_EXECUTOR_H_
