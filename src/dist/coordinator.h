// dist::Coordinator — cloud-edge shard coordinator for distributed SPARQL.
//
// Owns K in-process shards (each a full sedge::Database: own WAL-capable
// write path, own provisional schema registry, own background
// compaction), a Partitioner routing writes by subject, and the query
// side of the Ma et al. cloud-edge template:
//
//   parse → decompose the BGP into subject star groups (dist/decomposer)
//         → fan each group out to every shard as one subquery, evaluated
//           by the shard's own executor (merge joins, LiteMat interval
//           routing and subsumption inference run *on the shard*, in the
//           shard's id space)
//         → reconcile partial bindings into the global id space
//           (dist/term_map; refreshed per shard re-encode epoch)
//         → join the groups' binding sets at the coordinator — hash join
//           by default, merge join when both inputs arrive sorted on the
//           join variables (two-group decompositions ship sorted)
//         → evaluate the residual (UNIONs, BINDs, unpushed FILTERs) and
//           the modifiers over global ids.
//
// Queries pin one frozen StoreGeneration per shard up front — the pin
// set is taken under the coordinator's writer lock so a multi-shard
// write batch is atomic to queries — together with one copy of the
// executor options, and then execute every star group and union
// alternative against those pins and that option set (exactly the
// Database::Query contract, K times). Writes route through the
// partitioner and commit per shard — WAL/durability, snapshot isolation
// and fold scheduling all stay shard-local decisions.
//
// Consistency: with pure routing every triple lives on exactly one
// shard, so cross-shard unions of a group's rows concatenate. With a
// cloud base shard a triple may also exist on the cloud peer; the
// coordinator then deduplicates the cross-shard union (within one shard
// the store already deduplicates), restoring set semantics.
//
// Locking (docs/locking.md): write_mu_ serializes multi-shard write
// batches *above* the shard databases' own writer lanes (and covers the
// instant of query pinning); opt_mu_ guards the executor toggles and
// their version; TermMap has its own leaf SharedMutex. Query *execution*
// holds no coordinator-wide lock.

#ifndef SEDGE_DIST_COORDINATOR_H_
#define SEDGE_DIST_COORDINATOR_H_

#include <atomic>
#include <memory>
#include <string_view>
#include <vector>

#include "core/database.h"
#include "core/query_backend.h"
#include "dist/decomposer.h"
#include "dist/partitioner.h"
#include "dist/term_map.h"
#include "obs/metrics.h"
#include "ontology/ontology.h"
#include "rdf/triple.h"
#include "sparql/ast.h"
#include "sparql/executor.h"
#include "sparql/result_table.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sedge::dist {

struct CoordinatorOptions {
  PartitionConfig partition;
  /// Executor toggles for the shard subqueries (the set_* methods adjust
  /// them later, like Database's).
  sparql::Executor::Options exec;
};

/// \brief Coordinator over K in-process shard databases. Query methods
/// are const and thread-safe against each other and against writes;
/// write methods serialize on the coordinator's writer lane.
class Coordinator : public QueryBackend {
 public:
  explicit Coordinator(CoordinatorOptions options);
  Coordinator() : Coordinator(CoordinatorOptions()) {}
  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // -- Setup ----------------------------------------------------------------

  /// Broadcasts the ontology to every shard (the paper's "broadcast to
  /// the edge" step — LiteMat encodings must agree on the hierarchy even
  /// though each shard assigns its own ids).
  void LoadOntology(const ontology::Ontology& onto)
      SEDGE_EXCLUDES(write_mu_);
  Status LoadOntologyTurtle(std::string_view text) SEDGE_EXCLUDES(write_mu_);

  /// Bulk-loads `graph`: onto the cloud shard when one is configured
  /// (edge shards start empty), otherwise partitioned by subject. Every
  /// shard (re)builds its base store.
  Status LoadData(const rdf::Graph& graph) SEDGE_EXCLUDES(write_mu_);
  Status LoadDataTurtle(std::string_view text) SEDGE_EXCLUDES(write_mu_);

  // -- Writes (routed through the partitioner) ------------------------------

  Status Insert(const rdf::Graph& graph,
                Database::InsertReport* report = nullptr)
      SEDGE_EXCLUDES(write_mu_);
  Status Insert(const rdf::Triple& triple,
                Database::InsertReport* report = nullptr)
      SEDGE_EXCLUDES(write_mu_);
  Status InsertTurtle(std::string_view text,
                      Database::InsertReport* report = nullptr)
      SEDGE_EXCLUDES(write_mu_);
  /// Removals route to every shard that can hold the triple: its policy
  /// shard, plus the cloud shard when configured (removing an absent
  /// triple is a no-op, so over-routing is safe).
  Status Remove(const rdf::Graph& graph) SEDGE_EXCLUDES(write_mu_);
  Status Remove(const rdf::Triple& triple) SEDGE_EXCLUDES(write_mu_);
  Status RemoveTurtle(std::string_view text) SEDGE_EXCLUDES(write_mu_);

  // -- Compaction -----------------------------------------------------------

  /// Synchronous fold on every shard (waits for in-flight async folds).
  Status Compact() SEDGE_EXCLUDES(write_mu_);
  /// Background fold on one shard — shards re-encode independently; the
  /// term map refreshes that shard's cache at its next query.
  Status CompactShardAsync(int shard) SEDGE_EXCLUDES(write_mu_);
  /// Background fold on every shard.
  Status CompactAsync() SEDGE_EXCLUDES(write_mu_);
  Status WaitForCompactions() SEDGE_EXCLUDES(write_mu_);

  // -- Configuration (forwarded to every shard) -----------------------------

  void set_snapshot_isolation(bool on) override;
  void set_async_compaction(bool on);
  void set_compaction_ratio(double ratio);
  void set_reasoning(bool on) SEDGE_EXCLUDES(opt_mu_);
  void set_merge_join(bool on) SEDGE_EXCLUDES(opt_mu_);
  void set_optimizer(bool on) SEDGE_EXCLUDES(opt_mu_);

  // -- Querying -------------------------------------------------------------

  /// `at` receives the epoch of the shard pins and option set the query
  /// ran with.
  Result<sparql::QueryResult> Query(std::string_view sparql,
                                    QueryEpoch* at = nullptr) const override;
  Result<uint64_t> QueryCount(std::string_view sparql,
                              QueryEpoch* at = nullptr) const override;

  // -- Introspection --------------------------------------------------------

  int num_shards() const { return partitioner_.num_shards(); }
  Database& shard(int i) { return *shards_[static_cast<size_t>(i)]; }
  const Database& shard(int i) const {
    return *shards_[static_cast<size_t>(i)];
  }
  const Partitioner& partitioner() const { return partitioner_; }
  const TermMap& term_map() const { return term_map_; }

  /// Live triples across all shards.
  uint64_t num_triples() const;
  bool has_data() const;

  /// generation: the monotone content version, bumped by every load /
  /// write batch. Compactions do NOT bump it — a fold re-encodes ids but
  /// preserves content, so epoch-keyed caches (serve's result cache)
  /// stay valid across folds. writes: always 0 (the content version
  /// covers writes). options: bumped by every set_reasoning /
  /// set_merge_join / set_optimizer and by nothing else.
  QueryEpoch epoch() const override SEDGE_EXCLUDES(opt_mu_);

  /// Coordinator-level dist_* metrics (fan-out, pushdown ratio, join
  /// path counters, skew gauges). Shard engine metrics live in each
  /// shard's own Database::metrics().
  obs::MetricsRegistry& metrics() const override { return metrics_; }

  /// Global-id binding table (the coordinator-side mirror of
  /// sparql::BindingTable). Rows hold TermMap global ids;
  /// TermMap::kUnboundGid marks absent bindings.
  struct GlobalTable {
    std::vector<sparql::Variable> vars;
    std::vector<std::vector<uint64_t>> rows;
    /// Non-empty: rows are sorted lexicographically by these leading
    /// variables (merge-join eligibility marker).
    std::vector<sparql::Variable> sorted_by;

    int IndexOf(const sparql::Variable& v) const;
    int AddVar(const sparql::Variable& v);
    static GlobalTable Unit();
  };

 private:
  /// One query's consistent inputs: every shard's pinned generation
  /// (null for shards with no data yet), the executor options every
  /// subquery runs with, and the epoch they add up to.
  struct QueryView {
    std::vector<std::shared_ptr<const store::StoreGeneration>> pins;
    sparql::Executor::Options options;
    QueryEpoch epoch;
  };

  class GlobalDecoder;  // sparql::ValueDecoder over the term map

  Result<GlobalTable> EvaluateGroupDist(sparql::GroupPattern group,
                                        const QueryView& view) const;
  /// Runs one decomposed subquery on every shard, reconciles ids, and
  /// unions the per-shard results (deduplicated under a cloud shard).
  Result<GlobalTable> FanOutSubquery(const ShardSubquery& sub,
                                     const QueryView& view) const;
  GlobalTable JoinGroups(std::vector<GlobalTable> tables) const;
  /// Joins two binding tables: merge join when both arrive sorted on
  /// exactly their common variables, hash join otherwise.
  GlobalTable JoinPair(GlobalTable left, GlobalTable right) const;
  Status ApplyResidual(sparql::GroupPattern residual, const QueryView& view,
                       GlobalTable* table) const;
  /// The shared body of Query and QueryCount: pins a QueryView (its
  /// epoch goes to `at`), parses `text`, and runs the distributed
  /// pipeline through the modifiers.
  Result<GlobalTable> RunQuery(std::string_view text, QueryEpoch* at) const;

  QueryView PinQueryView() const SEDGE_EXCLUDES(write_mu_, opt_mu_);
  void UpdateSkewGaugesLocked() SEDGE_REQUIRES(write_mu_);

  Partitioner partitioner_;
  std::vector<std::unique_ptr<Database>> shards_;  // fixed at construction
  mutable TermMap term_map_;

  /// Serializes multi-shard write batches above the shards' own writer
  /// lanes (acquired before any Database::write_mu_; docs/locking.md).
  mutable util::Mutex write_mu_;
  /// Leaf: executor toggles for shard subqueries and their version,
  /// which each setter bumps in the same critical section, so a query
  /// copies an option set and the version naming it in one read.
  mutable util::Mutex opt_mu_;
  sparql::Executor::Options exec_options_ SEDGE_GUARDED_BY(opt_mu_);
  uint64_t options_version_ SEDGE_GUARDED_BY(opt_mu_) = 0;

  // Content version (see epoch()); bumped under write_mu_.
  std::atomic<uint64_t> version_{0};

  mutable obs::MetricsRegistry metrics_;
  struct Met {
    obs::Counter* queries_total;
    obs::Counter* subqueries_total;        // per-shard subquery executions
    obs::Counter* patterns_total;          // triple patterns decomposed
    obs::Counter* pushed_join_edges_total; // joins evaluated on-shard
    obs::Counter* pushed_filters_total;
    obs::Counter* type_pushdowns_total;    // rdf:type patterns on-shard
    obs::Counter* join_hash_total;
    obs::Counter* join_merge_total;
    obs::Counter* union_dedup_rows_total;  // cloud-shard duplicate rows cut
    obs::Counter* inserts_routed_total;
    obs::Counter* removes_routed_total;
    obs::Histogram* query_seconds;
    obs::Histogram* join_seconds;          // coordinator join time
    obs::Histogram* fanout_shards;         // shards touched per query
    obs::Gauge* pushdown_ratio;            // cumulative pushed/patterns
    obs::Gauge* shards;
    obs::Gauge* term_map_terms;
    obs::Gauge* term_map_refreshes;        // re-encode epoch cache resets
    obs::Gauge* skew;                      // max/mean shard triple count
    std::vector<obs::Gauge*> shard_triples;
  } met_;
};

}  // namespace sedge::dist

#endif  // SEDGE_DIST_COORDINATOR_H_
