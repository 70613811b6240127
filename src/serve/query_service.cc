#include "serve/query_service.h"

#include <locale>
#include <utility>

#include "sparql/executor.h"
#include "sparql/sparql_parser.h"

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

// -------------------------------------------------------------- QueryService

QueryService::QueryService(Database* db, ServeOptions options)
    : QueryService(db, nullptr, options) {}

QueryService::QueryService(ShardedDatabase* db, ServeOptions options)
    : QueryService(nullptr, db, options) {}

QueryService::QueryService(Database* db, ShardedDatabase* sharded,
                           ServeOptions options)
    : db_(db), sharded_(sharded), options_(options) {
  obs::MetricsRegistry& reg = db_ != nullptr ? db_->metrics()
                                             : sharded_->metrics();
  met_.admitted_total = reg.GetCounter("serve_requests_total");
  met_.rejected_total = reg.GetCounter("serve_rejected_total");
  met_.completed_total = reg.GetCounter("serve_completed_total");
  met_.errors_total = reg.GetCounter("serve_errors_total");
  met_.plan_cache_hits_total = reg.GetCounter("serve_plan_cache_hits_total");
  met_.plan_cache_misses_total =
      reg.GetCounter("serve_plan_cache_misses_total");
  met_.plan_cache_invalidations_total =
      reg.GetCounter("serve_plan_cache_invalidations_total");
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
  cache_ = std::make_unique<EpochCache<CachedPlan>>(
      4096, met_.plan_cache_invalidations_total);
  result_cache_ = std::make_unique<EpochCache<CachedResult>>(
      1024, met_.result_cache_invalidations_total);

  // Readers pin snapshots from arbitrary threads; the writer must stop
  // mutating published stores. In distributed mode every shard gets the
  // same treatment.
  if (db_ != nullptr) {
    db_->set_snapshot_isolation(true);
  } else {
    sharded_->set_snapshot_isolation(true);
  }
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
  if (db_ != nullptr) {
    ServeLocal(req, &resp);
  } else {
    ServeSharded(req, &resp);
  }

  const Clock::time_point done = Clock::now();
  met_.execute_seconds->RecordSeconds(SecondsBetween(picked_up, done));
  met_.request_seconds->RecordSeconds(SecondsBetween(req.admitted, done));
  (resp.status.ok() ? met_.completed_total : met_.errors_total)->Increment();
  req.promise.set_value(std::move(resp));
}

void QueryService::ServeLocal(const Request& req, Response* resp) {
  // One coherent view: the pinned snapshot plus the execution switches
  // and their version (plan and execution must agree on the toggles, and
  // the cache keys must name the toggles the entry was computed with).
  const Database::ReadView view = db_->AcquireReadView();
  const std::shared_ptr<const store::StoreGeneration>& snap = view.snap;
  if (snap == nullptr) {
    resp->status = Status::InvalidArgument("no data loaded");
    return;
  }
  resp->generation = snap->number();
  resp->writes = snap->writes();
  const Epoch result_epoch{snap->number(), snap->writes(),
                           view.options_version};
  const Epoch plan_epoch{snap->number(), 0, view.options_version};

  // Result cache first: under snapshot isolation the epoch identifies the
  // content and the options exactly, so a hit skips parse, plan and
  // execution outright.
  if (std::shared_ptr<const CachedResult> cached =
          result_cache_->Lookup(result_epoch, req.text)) {
    resp->result_cache_hit = true;
    met_.result_cache_hits_total->Increment();
    resp->result = cached->result;
    resp->rows = cached->rows;
    return;
  }
  met_.result_cache_misses_total->Increment();

  const sparql::Executor::Options& exec_options = view.options;
  std::shared_ptr<const CachedPlan> plan = cache_->Lookup(plan_epoch, req.text);
  if (plan != nullptr) {
    resp->plan_cache_hit = true;
    met_.plan_cache_hits_total->Increment();
  } else {
    met_.plan_cache_misses_total->Increment();
    Result<sparql::Query> parsed = sparql::ParseQuery(req.text);
    if (!parsed.ok()) {
      resp->status = parsed.status();
    } else {
      CachedPlan built{std::move(parsed).value(), {}};
      // Plan against this worker's pinned snapshot: the estimator reads
      // the same frozen store the order will be cached for.
      const sparql::Executor planner(snap, exec_options);
      built.order = planner.PlanOrder(built.query.where.triples);
      plan = std::make_shared<const CachedPlan>(std::move(built));
      cache_->Store(plan_epoch, req.text, plan);
    }
  }
  if (!resp->status.ok()) return;

  sparql::Executor executor(snap, exec_options);
  executor.set_plan_hint(&plan->order);
  if (options_.decode_results) {
    Result<sparql::QueryResult> result = executor.Execute(plan->query);
    if (result.ok()) {
      resp->result = std::move(result).value();
      resp->rows = resp->result.size();
    } else {
      resp->status = result.status();
    }
  } else {
    Result<sparql::BindingTable> table = executor.ExecuteEncoded(plan->query);
    if (table.ok()) {
      resp->rows = table.value().rows.size();
    } else {
      resp->status = table.status();
    }
  }
  db_->AccumulateQueryStats(executor);
  if (resp->status.ok()) {
    auto entry = std::make_shared<CachedResult>();
    entry->result = resp->result;
    entry->rows = resp->rows;
    result_cache_->Store(result_epoch, req.text, std::move(entry));
  }
}

void QueryService::ServeSharded(const Request& req, Response* resp) {
  // The coordinator's content version plays the (generation, writes)
  // role: it bumps on every load/write batch and — deliberately — not on
  // compactions, which re-encode shard ids but preserve content.
  const uint64_t version = sharded_->content_version();
  const uint64_t options_version = sharded_->options_version();
  const Epoch epoch{version, 0, options_version};
  resp->generation = version;
  resp->writes = 0;

  if (std::shared_ptr<const CachedResult> cached =
          result_cache_->Lookup(epoch, req.text)) {
    resp->result_cache_hit = true;
    met_.result_cache_hits_total->Increment();
    resp->result = cached->result;
    resp->rows = cached->rows;
    return;
  }
  met_.result_cache_misses_total->Increment();

  if (options_.decode_results) {
    Result<sparql::QueryResult> result = sharded_->Query(req.text);
    if (result.ok()) {
      resp->result = std::move(result).value();
      resp->rows = resp->result.size();
    } else {
      resp->status = result.status();
    }
  } else {
    Result<uint64_t> rows = sharded_->QueryCount(req.text);
    if (rows.ok()) {
      resp->rows = rows.value();
    } else {
      resp->status = rows.status();
    }
  }
  // Unlike the single-store path there is no pinned snapshot tying the
  // result to `version`; only cache when no write or toggle landed while
  // the query ran (the per-shard pins were then all taken at this epoch).
  if (resp->status.ok() && sharded_->content_version() == version &&
      sharded_->options_version() == options_version) {
    auto entry = std::make_shared<CachedResult>();
    entry->result = resp->result;
    entry->rows = resp->rows;
    result_cache_->Store(epoch, req.text, std::move(entry));
  }
}

}  // namespace sedge::serve
