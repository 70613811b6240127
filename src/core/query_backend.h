// QueryBackend — the read surface serve::QueryService fronts.
//
// Exactly two implementations: sedge::Database (one store) and
// dist::Coordinator (K shards behind the cloud-edge decompose → fan-out →
// join pipeline). Each answer reports the epoch it was computed at, so a
// caller can cache answers by epoch without knowing which backend
// produced them.

#ifndef SEDGE_CORE_QUERY_BACKEND_H_
#define SEDGE_CORE_QUERY_BACKEND_H_

#include <cstdint>
#include <string_view>

#include "obs/metrics.h"
#include "sparql/result_table.h"
#include "util/status.h"

namespace sedge {

/// What an answer depends on. Two answers to one query text at equal
/// epochs are equal.
///   - Database: the pinned StoreGeneration's base build number and
///     write-batch watermark (number()/writes()), and the version of the
///     executor options it ran with;
///   - dist::Coordinator: the content version (bumped by every load and
///     write batch, not by folds, which re-encode ids but keep content)
///     with writes = 0, and the coordinator's options version.
struct QueryEpoch {
  uint64_t generation = 0;
  uint64_t writes = 0;
  uint64_t options = 0;
  friend bool operator==(const QueryEpoch& a, const QueryEpoch& b) {
    return a.generation == b.generation && a.writes == b.writes &&
           a.options == b.options;
  }
};

/// \brief A store that answers SPARQL SELECTs from any thread.
class QueryBackend {
 public:
  QueryBackend() = default;
  QueryBackend(const QueryBackend&) = delete;
  QueryBackend& operator=(const QueryBackend&) = delete;
  virtual ~QueryBackend() = default;

  /// The epoch a query started now would answer at. Lock-free or a
  /// brief leaf-lock read on both backends.
  virtual QueryEpoch epoch() const = 0;
  /// The registry the backend's own series land in (serve_* joins them).
  virtual obs::MetricsRegistry& metrics() const = 0;
  /// See Database::set_snapshot_isolation (the coordinator forwards it
  /// to every shard).
  virtual void set_snapshot_isolation(bool on) = 0;

  /// Parses and executes `sparql`. `at`, when non-null, receives the
  /// epoch of the state the query pinned (also when parsing or
  /// execution then fails).
  virtual Result<sparql::QueryResult> Query(std::string_view sparql,
                                            QueryEpoch* at) const = 0;
  /// Solution count only (no decode).
  virtual Result<uint64_t> QueryCount(std::string_view sparql,
                                      QueryEpoch* at) const = 0;
};

}  // namespace sedge

#endif  // SEDGE_CORE_QUERY_BACKEND_H_
