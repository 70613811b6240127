// ShardedDatabase — the Database-shaped facade over a dist::Coordinator.
//
// Callers that speak the single-store surface (serve::QueryService, the
// examples, benches) get the distributed engine behind the same verbs:
// load, insert, remove, compact, query. Each method forwards to the
// coordinator, which routes writes through the partitioner to K
// in-process shard Databases and answers queries with the decompose →
// fan-out → reconcile → join pipeline (dist/coordinator.h).
//
// Thread safety matches Database: queries are const and safe against
// concurrent writes and compactions; the write methods serialize on the
// coordinator's writer lane.

#ifndef SEDGE_CORE_SHARDED_DATABASE_H_
#define SEDGE_CORE_SHARDED_DATABASE_H_

#include <string_view>

#include "core/database.h"
#include "dist/coordinator.h"
#include "util/status.h"

namespace sedge {

/// \brief K-shard database with Database's surface. See dist::Coordinator
/// for the partitioning, reconciliation and join machinery.
class ShardedDatabase {
 public:
  explicit ShardedDatabase(dist::CoordinatorOptions options)
      : coordinator_(std::move(options)) {}
  /// `shards` edge shards under the given policy (subject hash default).
  explicit ShardedDatabase(
      int shards,
      dist::PartitionPolicy policy = dist::PartitionPolicy::kSubjectHash,
      bool cloud_base = false);
  ShardedDatabase() : ShardedDatabase(dist::CoordinatorOptions()) {}

  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  // -- Setup (ontology broadcast, partitioned bulk load) --------------------

  void LoadOntology(const ontology::Ontology& onto) {
    coordinator_.LoadOntology(onto);
  }
  Status LoadOntologyTurtle(std::string_view text) {
    return coordinator_.LoadOntologyTurtle(text);
  }
  Status LoadData(const rdf::Graph& graph) {
    return coordinator_.LoadData(graph);
  }
  Status LoadDataTurtle(std::string_view text) {
    return coordinator_.LoadDataTurtle(text);
  }

  // -- Writes (routed by the partitioner, WAL/fold per shard) ---------------

  Status Insert(const rdf::Graph& graph,
                Database::InsertReport* report = nullptr) {
    return coordinator_.Insert(graph, report);
  }
  Status Insert(const rdf::Triple& triple,
                Database::InsertReport* report = nullptr) {
    return coordinator_.Insert(triple, report);
  }
  Status InsertTurtle(std::string_view text,
                      Database::InsertReport* report = nullptr) {
    return coordinator_.InsertTurtle(text, report);
  }
  Status Remove(const rdf::Graph& graph) { return coordinator_.Remove(graph); }
  Status Remove(const rdf::Triple& triple) {
    return coordinator_.Remove(triple);
  }
  Status RemoveTurtle(std::string_view text) {
    return coordinator_.RemoveTurtle(text);
  }

  // -- Compaction -----------------------------------------------------------

  Status Compact() { return coordinator_.Compact(); }
  Status CompactAsync() { return coordinator_.CompactAsync(); }
  Status CompactShardAsync(int shard) {
    return coordinator_.CompactShardAsync(shard);
  }
  Status WaitForCompaction() { return coordinator_.WaitForCompactions(); }

  // -- Configuration --------------------------------------------------------

  void set_snapshot_isolation(bool on) {
    coordinator_.set_snapshot_isolation(on);
  }
  void set_async_compaction(bool on) { coordinator_.set_async_compaction(on); }
  void set_compaction_ratio(double ratio) {
    coordinator_.set_compaction_ratio(ratio);
  }
  void set_reasoning(bool on) { coordinator_.set_reasoning(on); }
  void set_merge_join(bool on) { coordinator_.set_merge_join(on); }
  void set_optimizer(bool on) { coordinator_.set_optimizer(on); }

  // -- Querying -------------------------------------------------------------

  Result<sparql::QueryResult> Query(std::string_view sparql) const {
    return coordinator_.Query(sparql);
  }
  Result<uint64_t> QueryCount(std::string_view sparql) const {
    return coordinator_.QueryCount(sparql);
  }

  // -- Introspection --------------------------------------------------------

  int num_shards() const { return coordinator_.num_shards(); }
  Database& shard(int i) { return coordinator_.shard(i); }
  const Database& shard(int i) const { return coordinator_.shard(i); }
  uint64_t num_triples() const { return coordinator_.num_triples(); }
  bool has_data() const { return coordinator_.has_data(); }
  /// Monotone content version (bumps on loads/writes, not compactions) —
  /// the serve result cache's invalidation key.
  uint64_t content_version() const { return coordinator_.content_version(); }
  /// Bumped by every execution-switch toggle — the other half of the
  /// serve caches' key.
  uint64_t options_version() const { return coordinator_.options_version(); }
  /// The coordinator's registry (dist_* series; serve_* lands here too
  /// when a QueryService fronts this database).
  obs::MetricsRegistry& metrics() const { return coordinator_.metrics(); }

  dist::Coordinator& coordinator() { return coordinator_; }
  const dist::Coordinator& coordinator() const { return coordinator_; }

 private:
  dist::Coordinator coordinator_;
};

}  // namespace sedge

#endif  // SEDGE_CORE_SHARDED_DATABASE_H_
