// serve::QueryService — the concurrent read front end of SuccinctEdge.
//
// The paper evaluates a single-threaded store; the production north star
// is many simultaneous readers. This service puts a thread pool of N
// reader threads in front of one Database:
//
//   - every request pins a StoreGeneration snapshot and executes against
//     it with a private Executor, so readers never share mutable state
//     with each other, with the (single) writer lane, or with a
//     background compaction swap. The service switches the database into
//     snapshot isolation (Database::set_snapshot_isolation): each write
//     batch publishes a new frozen generation, so a pinned snapshot is
//     immutable — batch-consistent reads with zero read-side locking;
//   - admission is a bounded FIFO queue (ServeOptions::queue_depth).
//     When it is full, Submit() resolves immediately with
//     StatusCode::kResourceExhausted — backpressure the caller can see,
//     instead of an unbounded latency tail;
//   - parsed queries and their join orders are cached per (base
//     generation, options version) (keyed on the query text, invalidated
//     wholesale when the base swaps under Compact()/CompactAsync() or an
//     execution switch is toggled), so steady-state requests skip the
//     parser and the estimator walk;
//   - per-request latency lands in Database::metrics() as the `serve_*`
//     series (admission/queue-wait/execute histograms, admitted/rejected/
//     completed/error counters, plan-cache hit/miss/invalidation
//     counters, queue-depth and reader-count gauges), next to the engine
//     metrics the registry already exports.
//
// Lifecycle: construct → Submit()/Execute() from any number of client
// threads → Shutdown() (stops admission, drains every queued request,
// joins the readers; the destructor calls it too). Pause()/Resume() hold
// the readers idle while keeping admission open — an operational quiesce
// valve the tests also use to fill the queue deterministically.

#ifndef SEDGE_SERVE_QUERY_SERVICE_H_
#define SEDGE_SERVE_QUERY_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/database.h"
#include "core/sharded_database.h"
#include "obs/metrics.h"
#include "sparql/ast.h"
#include "sparql/result_table.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sedge::serve {

struct ServeOptions {
  /// Reader threads. The writer is whatever thread calls the Database's
  /// write methods — the service adds no writer of its own.
  int readers = 4;
  /// Bounded admission queue depth; a full queue rejects with
  /// kResourceExhausted.
  size_t queue_depth = 128;
  /// Decode result terms (Response::result). Off: only Response::rows is
  /// filled (count-style benches skip the dictionary decode).
  bool decode_results = true;
};

/// \brief Thread-pool SPARQL read service over pinned generation
/// snapshots. All public methods are thread-safe.
class QueryService {
 public:
  struct Response {
    Status status = Status::OK();
    /// Decoded solutions (empty when decode_results is off or on error).
    sparql::QueryResult result;
    /// Solution count (also filled when decoding is off).
    uint64_t rows = 0;
    /// The pinned snapshot's base build number and write-batch watermark
    /// (StoreGeneration::number()/writes()): which state this response
    /// is consistent with.
    uint64_t generation = 0;
    uint64_t writes = 0;
    /// Whether the plan cache served the parsed query + join order.
    bool plan_cache_hit = false;
    /// Whether the result cache served the whole response (no parse, no
    /// execution).
    bool result_cache_hit = false;
  };

  /// Switches `db` into snapshot isolation and starts the reader pool.
  /// `db` must outlive the service.
  explicit QueryService(Database* db, ServeOptions options = ServeOptions());
  /// Distributed mode: serves through the sharded database's coordinator
  /// (decompose → fan-out → join) instead of a single executor. The plan
  /// cache idles (the coordinator plans per shard); the result cache is
  /// keyed on the coordinator's content version. Shards are switched into
  /// snapshot isolation. `db` must outlive the service.
  explicit QueryService(ShardedDatabase* db,
                        ServeOptions options = ServeOptions());
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues one SPARQL SELECT for execution. The future resolves with
  /// the response; admission failures (queue full → kResourceExhausted,
  /// after Shutdown → kUnavailable) resolve it immediately.
  std::future<Response> Submit(std::string sparql) SEDGE_EXCLUDES(mu_);

  /// Submit + wait. Closed-loop clients (benches, the TCP endpoint) use
  /// this; rejection statuses come back like any other response.
  Response Execute(std::string sparql);

  /// Holds the readers idle after their current request; admission stays
  /// open, so the queue fills (and rejects) deterministically.
  void Pause() SEDGE_EXCLUDES(mu_);
  void Resume() SEDGE_EXCLUDES(mu_);

  /// Stops admission, drains every already-admitted request, joins the
  /// readers. Idempotent; implied by the destructor. A paused service is
  /// resumed first so the drain cannot deadlock.
  void Shutdown() SEDGE_EXCLUDES(mu_);

  /// Requests admitted but not yet picked up by a reader.
  size_t queue_size() const SEDGE_EXCLUDES(mu_);

  const ServeOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// A parsed query plus the join order computed for one generation.
  /// Shared-immutable: workers execute straight off the cached AST.
  struct CachedPlan {
    sparql::Query query;
    std::vector<size_t> order;
  };

  /// What a cached entry was computed against: the base generation (or
  /// the sharded content version), the write watermark (results only;
  /// plans keep 0 so writes do not evict them) and the executor options
  /// version. Plans depend on the options (reasoning changes the counts
  /// and routes, merge join the access paths), answers on all three.
  struct Epoch {
    uint64_t generation = 0;
    uint64_t writes = 0;
    uint64_t options = 0;
    friend bool operator==(const Epoch& a, const Epoch& b) {
      return a.generation == b.generation && a.writes == b.writes &&
             a.options == b.options;
    }
  };

  /// (epoch, query text) → shared-immutable entry. One epoch's entries
  /// are alive at a time: the first lookup with a different epoch clears
  /// the map wholesale — under snapshot isolation the epoch identifies
  /// the content and the options exactly, so a hit is indistinguishable
  /// from recomputing. Used for plans and for finished results.
  template <typename Entry>
  class EpochCache {
   public:
    EpochCache(size_t max_entries, obs::Counter* invalidations)
        : max_entries_(max_entries), invalidations_(invalidations) {}

    std::shared_ptr<const Entry> Lookup(const Epoch& epoch,
                                        const std::string& text)
        SEDGE_EXCLUDES(mu_) {
      util::MutexLock lk(&mu_);
      if (!initialized_ || !(epoch == epoch_)) {
        // Every cached entry is stale at once. (The very first fill is
        // not an invalidation.)
        if (initialized_ && !entries_.empty()) invalidations_->Increment();
        entries_.clear();
        epoch_ = epoch;
        initialized_ = true;
        return nullptr;
      }
      const auto it = entries_.find(text);
      return it != entries_.end() ? it->second : nullptr;
    }
    /// Inserts unless the cache has moved past `epoch` (a worker that
    /// raced a write, swap or toggle must not poison the new epoch).
    void Store(const Epoch& epoch, const std::string& text,
               std::shared_ptr<const Entry> entry) SEDGE_EXCLUDES(mu_) {
      util::MutexLock lk(&mu_);
      if (!initialized_ || !(epoch == epoch_)) return;
      if (entries_.size() >= max_entries_) return;  // keep the hot set
      entries_.emplace(text, std::move(entry));
    }

   private:
    const size_t max_entries_;
    util::Mutex mu_;
    Epoch epoch_ SEDGE_GUARDED_BY(mu_);
    bool initialized_ SEDGE_GUARDED_BY(mu_) = false;
    std::unordered_map<std::string, std::shared_ptr<const Entry>> entries_
        SEDGE_GUARDED_BY(mu_);
    obs::Counter* invalidations_;
  };

  /// A finished response body, shared-immutable between the cache and
  /// concurrent readers serving hits.
  struct CachedResult {
    sparql::QueryResult result;  // empty when the service skips decoding
    uint64_t rows = 0;
  };

  struct Request {
    std::string text;
    std::promise<Response> promise;
    Clock::time_point admitted;
  };

  friend class ::sedge::ThreadSafetyProbe;

  QueryService(Database* db, ShardedDatabase* sharded, ServeOptions options);

  void WorkerLoop() SEDGE_EXCLUDES(mu_);
  /// Executes one admitted request end to end and fulfills its promise.
  void Serve(Request req);
  /// The single-store path: pin a snapshot, plan (cached), execute.
  void ServeLocal(const Request& req, Response* resp);
  /// The distributed path: coordinator pipeline over the shard set.
  void ServeSharded(const Request& req, Response* resp);

  Database* db_;                 // exactly one of db_ / sharded_ is set
  ShardedDatabase* sharded_;
  const ServeOptions options_;

  // mu_ is a leaf in the engine's lock hierarchy: nothing else is
  // acquired while it is held (Serve runs outside it entirely).
  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::deque<Request> queue_ SEDGE_GUARDED_BY(mu_);
  bool paused_ SEDGE_GUARDED_BY(mu_) = false;
  bool stopping_ SEDGE_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ SEDGE_GUARDED_BY(mu_);

  std::unique_ptr<EpochCache<CachedPlan>> cache_;
  std::unique_ptr<EpochCache<CachedResult>> result_cache_;

  // serve_* handles resolved once from the database's registry.
  struct Met {
    obs::Counter* admitted_total;
    obs::Counter* rejected_total;
    obs::Counter* completed_total;
    obs::Counter* errors_total;
    obs::Counter* plan_cache_hits_total;
    obs::Counter* plan_cache_misses_total;
    obs::Counter* plan_cache_invalidations_total;
    obs::Counter* result_cache_hits_total;
    obs::Counter* result_cache_misses_total;
    obs::Counter* result_cache_invalidations_total;
    obs::Histogram* request_seconds;     // admission → response
    obs::Histogram* queue_wait_seconds;  // admission → worker pickup
    obs::Histogram* execute_seconds;     // pickup → response
    obs::Gauge* queue_depth;
    obs::Gauge* readers;
  } met_;
};

}  // namespace sedge::serve

#endif  // SEDGE_SERVE_QUERY_SERVICE_H_
