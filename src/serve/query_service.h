// serve::QueryService — the concurrent read front end of SuccinctEdge.
//
// The paper evaluates a single-threaded store; the production north star
// is many simultaneous readers. This service puts a thread pool of N
// reader threads in front of one QueryBackend — a Database, or a
// dist::Coordinator over K shards — through one serve path:
//
//   - every request runs the backend's Query/QueryCount, which pins a
//     StoreGeneration snapshot (one per shard) and executes against it
//     with a private Executor, so readers never share mutable state with
//     each other, with the (single) writer lane, or with a background
//     compaction swap. The service switches the backend into snapshot
//     isolation: each write batch publishes a new frozen generation, so
//     a pinned snapshot is immutable — batch-consistent reads with zero
//     read-side locking;
//   - admission is a bounded FIFO queue (ServeOptions::queue_depth).
//     When it is full, Submit() resolves immediately with
//     StatusCode::kResourceExhausted — backpressure the caller can see,
//     instead of an unbounded latency tail;
//   - finished answers are cached per QueryEpoch (keyed on the query
//     text, dropped wholesale when the epoch moves: a write, a base swap
//     or an execution-switch toggle), so a repeat between writes skips
//     parse, plan and execution. Every miss plans afresh on the pinned
//     store's live counts;
//   - per-request latency lands in the backend's metrics() as the
//     `serve_*` series (admission/queue-wait/execute histograms,
//     admitted/rejected/completed/error counters, result-cache hit/miss/
//     invalidation counters, queue-depth and reader-count gauges), next
//     to the engine metrics the registry already exports.
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

#include "core/query_backend.h"
#include "obs/metrics.h"
#include "sparql/result_table.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sedge {
class ThreadSafetyProbe;  // negative-compilation harness (tests/)
}  // namespace sedge

namespace sedge::serve {

struct ServeOptions {
  /// Reader threads. The writer is whatever thread calls the backend's
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
/// snapshots of one backend. All public methods are thread-safe.
class QueryService {
 public:
  struct Response {
    Status status = Status::OK();
    /// Decoded solutions (empty when decode_results is off or on error).
    sparql::QueryResult result;
    /// Solution count (also filled when decoding is off).
    uint64_t rows = 0;
    /// The answer's QueryEpoch generation and writes: which state this
    /// response is consistent with (for a Database, the pinned
    /// snapshot's StoreGeneration::number()/writes()).
    uint64_t generation = 0;
    uint64_t writes = 0;
    /// Whether the result cache served the whole response (no parse, no
    /// execution).
    bool result_cache_hit = false;
  };

  /// Switches `backend` into snapshot isolation and starts the reader
  /// pool. `backend` must outlive the service.
  explicit QueryService(QueryBackend* backend,
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

  /// A finished response body, shared-immutable between the cache and
  /// concurrent readers serving hits.
  struct CachedResult {
    sparql::QueryResult result;  // empty when the service skips decoding
    uint64_t rows = 0;
  };

  /// (epoch, query text) → finished answer. One epoch's entries are alive
  /// at a time: the first lookup with a different epoch clears the map
  /// wholesale — under snapshot isolation the epoch identifies the
  /// content and the options exactly, so a hit is indistinguishable from
  /// recomputing.
  class ResultCache {
   public:
    ResultCache(size_t max_entries, obs::Counter* invalidations)
        : max_entries_(max_entries), invalidations_(invalidations) {}

    std::shared_ptr<const CachedResult> Lookup(const QueryEpoch& epoch,
                                               const std::string& text)
        SEDGE_EXCLUDES(mu_);
    /// Inserts unless the cache has moved past `epoch` (a worker that
    /// raced a write, swap or toggle must not poison the new epoch).
    void Store(const QueryEpoch& epoch, const std::string& text,
               std::shared_ptr<const CachedResult> entry) SEDGE_EXCLUDES(mu_);

   private:
    const size_t max_entries_;
    util::Mutex mu_;
    QueryEpoch epoch_ SEDGE_GUARDED_BY(mu_);
    bool initialized_ SEDGE_GUARDED_BY(mu_) = false;
    std::unordered_map<std::string, std::shared_ptr<const CachedResult>>
        entries_ SEDGE_GUARDED_BY(mu_);
    obs::Counter* invalidations_;
  };

  struct Request {
    std::string text;
    std::promise<Response> promise;
    Clock::time_point admitted;
  };

  friend class ::sedge::ThreadSafetyProbe;

  void WorkerLoop() SEDGE_EXCLUDES(mu_);
  /// Executes one admitted request end to end and fulfills its promise.
  void Serve(Request req);

  QueryBackend* const backend_;
  const ServeOptions options_;

  // mu_ is a leaf in the engine's lock hierarchy: nothing else is
  // acquired while it is held (Serve runs outside it entirely).
  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::deque<Request> queue_ SEDGE_GUARDED_BY(mu_);
  bool paused_ SEDGE_GUARDED_BY(mu_) = false;
  bool stopping_ SEDGE_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ SEDGE_GUARDED_BY(mu_);

  std::unique_ptr<ResultCache> result_cache_;

  // serve_* handles resolved once from the backend's registry.
  struct Met {
    obs::Counter* admitted_total;
    obs::Counter* rejected_total;
    obs::Counter* completed_total;
    obs::Counter* errors_total;
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
