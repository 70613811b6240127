#include "serve/query_service.h"

#include <locale>
#include <utility>

namespace sedge::serve {

namespace {

double SecondsBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// libstdc++'s ctype<char>::narrow()/widen() lazily fill per-facet cache
// tables without synchronization; the first concurrent use from two
// reader threads (e.g. std::regex compilation for a FILTER) is a data
// race on those tables. Touch every char once before the pool starts so
// the tables are fully built and read-only afterwards.
void WarmCtypeCaches() {
  static const bool warmed = [] {
    const std::ctype<char>& ct =
        std::use_facet<std::ctype<char>>(std::locale());
    for (int c = 0; c < 256; ++c) {
      ct.narrow(static_cast<char>(c), '\0');
      ct.widen(static_cast<char>(c));
    }
    return true;
  }();
  (void)warmed;
}

}  // namespace

// --------------------------------------------------------------- ResultCache

std::shared_ptr<const QueryService::CachedResult>
QueryService::ResultCache::Lookup(const QueryEpoch& epoch,
                                  const std::string& text) {
  util::MutexLock lk(&mu_);
  if (!initialized_ || !(epoch == epoch_)) {
    // Every cached entry is stale at once. (The very first fill is not an
    // invalidation.)
    if (initialized_ && !entries_.empty()) invalidations_->Increment();
    entries_.clear();
    epoch_ = epoch;
    initialized_ = true;
    return nullptr;
  }
  const auto it = entries_.find(text);
  return it != entries_.end() ? it->second : nullptr;
}

void QueryService::ResultCache::Store(
    const QueryEpoch& epoch, const std::string& text,
    std::shared_ptr<const CachedResult> entry) {
  util::MutexLock lk(&mu_);
  if (!initialized_ || !(epoch == epoch_)) return;
  if (entries_.size() >= max_entries_) return;  // keep the hot set
  entries_.emplace(text, std::move(entry));
}

// -------------------------------------------------------------- QueryService

QueryService::QueryService(QueryBackend* backend, ServeOptions options)
    : backend_(backend), options_(options) {
  obs::MetricsRegistry& reg = backend_->metrics();
  met_.admitted_total = reg.GetCounter("serve_requests_total");
  met_.rejected_total = reg.GetCounter("serve_rejected_total");
  met_.completed_total = reg.GetCounter("serve_completed_total");
  met_.errors_total = reg.GetCounter("serve_errors_total");
  met_.result_cache_hits_total =
      reg.GetCounter("serve_result_cache_hits_total");
  met_.result_cache_misses_total =
      reg.GetCounter("serve_result_cache_misses_total");
  met_.result_cache_invalidations_total =
      reg.GetCounter("serve_result_cache_invalidations_total");
  met_.request_seconds = reg.GetHistogram("serve_request_seconds");
  met_.queue_wait_seconds = reg.GetHistogram("serve_queue_wait_seconds");
  met_.execute_seconds = reg.GetHistogram("serve_execute_seconds");
  met_.queue_depth = reg.GetGauge("serve_queue_depth");
  met_.readers = reg.GetGauge("serve_readers");
  result_cache_ = std::make_unique<ResultCache>(
      1024, met_.result_cache_invalidations_total);

  // Readers pin snapshots from arbitrary threads; the writer must stop
  // mutating published stores (on every shard of a coordinator).
  backend_->set_snapshot_isolation(true);
  WarmCtypeCaches();

  const int readers = options_.readers > 0 ? options_.readers : 1;
  met_.readers->Set(readers);
  workers_.reserve(static_cast<size_t>(readers));
  for (int i = 0; i < readers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

std::future<QueryService::Response> QueryService::Submit(std::string sparql) {
  Request req;
  req.text = std::move(sparql);
  std::future<Response> future = req.promise.get_future();
  Status reject;
  {
    util::MutexLock lk(&mu_);
    if (stopping_) {
      reject = Status::Unavailable("query service is shut down");
    } else if (queue_.size() >= options_.queue_depth) {
      reject = Status::ResourceExhausted(
          "admission queue full (depth " +
          std::to_string(options_.queue_depth) + ")");
    } else {
      req.admitted = Clock::now();
      queue_.push_back(std::move(req));
      met_.admitted_total->Increment();
      met_.queue_depth->Set(static_cast<double>(queue_.size()));
      cv_.NotifyOne();
      return future;
    }
  }
  met_.rejected_total->Increment();
  Response resp;
  resp.status = std::move(reject);
  req.promise.set_value(std::move(resp));
  return future;
}

QueryService::Response QueryService::Execute(std::string sparql) {
  return Submit(std::move(sparql)).get();
}

void QueryService::Pause() {
  util::MutexLock lk(&mu_);
  paused_ = true;
}

void QueryService::Resume() {
  {
    util::MutexLock lk(&mu_);
    paused_ = false;
  }
  cv_.NotifyAll();
}

void QueryService::Shutdown() {
  std::vector<std::thread> workers;
  {
    util::MutexLock lk(&mu_);
    stopping_ = true;
    paused_ = false;
    workers.swap(workers_);
  }
  cv_.NotifyAll();
  for (std::thread& w : workers) {
    if (w.joinable()) w.join();
  }
}

size_t QueryService::queue_size() const {
  util::MutexLock lk(&mu_);
  return queue_.size();
}

void QueryService::WorkerLoop() {
  for (;;) {
    Request req;
    {
      util::MutexLock lk(&mu_);
      // Predicate inlined (not a lambda) so the analysis sees every
      // guarded read under the lock it is checking.
      while (!stopping_ && (paused_ || queue_.empty())) {
        cv_.Wait(&mu_);
      }
      if (queue_.empty()) {
        if (stopping_) return;  // drained
        continue;               // spurious wake while paused
      }
      // stopping_ drains the queue before the workers exit: every
      // admitted request gets a real response.
      req = std::move(queue_.front());
      queue_.pop_front();
      met_.queue_depth->Set(static_cast<double>(queue_.size()));
    }
    Serve(std::move(req));
  }
}

void QueryService::Serve(Request req) {
  const Clock::time_point picked_up = Clock::now();
  met_.queue_wait_seconds->RecordSeconds(
      SecondsBetween(req.admitted, picked_up));

  Response resp;
  const QueryEpoch epoch = backend_->epoch();
  if (std::shared_ptr<const CachedResult> cached =
          result_cache_->Lookup(epoch, req.text)) {
    met_.result_cache_hits_total->Increment();
    resp.result_cache_hit = true;
    resp.result = cached->result;
    resp.rows = cached->rows;
    resp.generation = epoch.generation;
    resp.writes = epoch.writes;
  } else {
    met_.result_cache_misses_total->Increment();
    QueryEpoch at;
    if (options_.decode_results) {
      Result<sparql::QueryResult> result = backend_->Query(req.text, &at);
      resp.status = result.status();
      if (result.ok()) {
        resp.result = std::move(result).value();
        resp.rows = resp.result.size();
      }
    } else {
      Result<uint64_t> rows = backend_->QueryCount(req.text, &at);
      resp.status = rows.status();
      if (rows.ok()) resp.rows = rows.value();
    }
    resp.generation = at.generation;
    resp.writes = at.writes;
    // A query that raced a write, swap or toggle answered at a later
    // epoch than the one looked up; only an answer at the looked-up
    // epoch is stored.
    if (resp.status.ok() && at == epoch) {
      auto entry = std::make_shared<CachedResult>();
      entry->result = resp.result;
      entry->rows = resp.rows;
      result_cache_->Store(epoch, req.text, std::move(entry));
    }
  }

  const Clock::time_point done = Clock::now();
  met_.execute_seconds->RecordSeconds(SecondsBetween(picked_up, done));
  met_.request_seconds->RecordSeconds(SecondsBetween(req.admitted, done));
  (resp.status.ok() ? met_.completed_total : met_.errors_total)->Increment();
  req.promise.set_value(std::move(resp));
}

}  // namespace sedge::serve
