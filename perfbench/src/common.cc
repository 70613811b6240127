#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>

#include "rdf/term.h"

namespace perfbench {

// ------------------------------------------------------------ metric sink

void MetricSink::Set(const std::string& name, double value,
                     const std::string& unit) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    entries_[it->second] = {name, value, unit};
    return;
  }
  index_[name] = entries_.size();
  entries_.push_back({name, value, unit});
}

void MetricSink::Ratio(const std::string& name, double num, double den,
                       const std::string& num_name,
                       const std::string& den_name) {
  Set(name, den > 0 ? num / den : 0.0, "ratio");
  Set(num_name, num, "count");
  Set(den_name, den, "count");
}

std::string MetricSink::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

double HistMs(const sedge::obs::MetricsRegistry& reg, const char* name,
              double pct) {
  const sedge::obs::Histogram* h = reg.FindHistogram(name);
  return h != nullptr ? h->Percentile(pct) * 1e3 : 0.0;
}

uint64_t CounterValue(const sedge::obs::MetricsRegistry& reg,
                      const char* name) {
  const sedge::obs::Counter* c = reg.FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

void ReportUnmeasured(const std::string& layer, MetricSink* out) {
  using Names = std::vector<std::pair<std::string, std::string>>;
  static const std::map<std::string, Names> kLayers = {
      {"sparql",
       {{"sparql.parse_ms", "ms"},
        {"sparql.execute_ms", "ms"},
        {"sparql.decode_ms", "ms"},
        {"sparql.tp_self_ms.type", "ms"},
        {"sparql.tp_self_ms.merge_join", "ms"},
        {"sparql.tp_self_ms.row", "ms"},
        {"sparql.extends_per_result", "ratio"},
        {"sparql.extends", "count"},
        {"sparql.results", "count"},
        {"sparql.repeated_rows", "count"}}},
      {"query", {}},
      {"core",
       {{"core.insert_ms", "ms"},
        {"core.remove_ms", "ms"},
        {"core.isolation_fork_ms", "ms"},
        {"core.fold_s", "s"},
        {"core.folds", "count"},
        {"core.build_s.dict", "s"},
        {"core.build_s.pso", "s"},
        {"core.build_s.datatype", "s"},
        {"core.build_s.type", "s"}}},
      {"store.overlay",
       {{"store.overlay_scan_ns_per_triple", "ns"},
        {"store.overlay_scan_triples", "count"},
        {"store.overlay_scan_delta_entries", "count"},
        {"store.delta_entries_max", "count"},
        {"store.tombstone_ratio_max", "ratio"}}},
      {"serve",
       {{"serve.queue_wait_p99_ms", "ms"},
        {"serve.execute_p50_ms", "ms"},
        {"serve.plan_cache_hit_ratio", "ratio"},
        {"serve.plan_cache_hits", "count"},
        {"serve.plan_cache_lookups", "count"},
        {"serve.result_cache_hit_ratio", "ratio"},
        {"serve.result_cache_hits", "count"},
        {"serve.result_cache_lookups", "count"},
        {"serve.rejected", "count"}}},
      {"dist",
       {{"dist.subqueries_per_query", "ratio"},
        {"dist.subqueries", "count"},
        {"dist.queries", "count"},
        {"dist.fanout_shards", "count"},
        {"dist.pushdown_ratio", "ratio"},
        {"dist.pushed_join_edges", "count"},
        {"dist.join_edges", "count"},
        {"dist.join_ms_per_query", "ms"},
        {"dist.query_ms", "ms"}}},
      {"io",
       {{"io.wal_sync_us", "us"},
        {"io.wal_bytes_per_user_byte", "ratio"},
        {"io.wal_bytes", "count"},
        {"io.user_bytes", "count"},
        {"io.device_bytes_per_user_byte", "ratio"},
        {"io.device_bytes", "count"},
        {"io.checkpoint_ms", "ms"},
        {"io.checkpoints", "count"}}},
      {"bench.generator", {{"bench.generator_lag_p99_ms", "ms"}}},
  };
  Names names = kLayers.at(layer);
  if (layer == "query") {
    for (const char* id :
         {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "Q11",
          "Q12", "Q13", "Q14", "M1", "M2", "M3", "M4", "M5", "S11", "S12",
          "S13", "S14", "S15"}) {
      names.push_back({std::string("query.") + id + ".p50_ms", "ms"});
    }
  }
  for (const auto& [name, unit] : names) {
    if (!out->Has(name)) out->Set(name, 0.0, unit);
  }
}

// ------------------------------------------------------------- statistics

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double MedianOfThirds(const std::vector<double>& v,
                      const std::function<double(std::vector<double>)>& stat) {
  if (v.size() < 3) return stat(v);
  std::vector<double> thirds;
  for (size_t t = 0; t < 3; ++t) {
    thirds.push_back(stat(std::vector<double>(v.begin() + t * v.size() / 3,
                                              v.begin() + (t + 1) * v.size() / 3)));
  }
  return Median(thirds);
}

double PercentileOfThirds(const std::vector<double>& v, double p) {
  return MedianOfThirds(v, [p](std::vector<double> t) {
    return Percentile(std::move(t), p);
  });
}

// ---------------------------------------------------------------- tracing

namespace {

std::atomic<bool> g_trace_on{false};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<Span>>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<std::vector<Span>>>;
  return *buffers;
}

struct ThreadState {
  std::vector<Span>* buffer = nullptr;
  std::vector<int64_t> open;
};
thread_local ThreadState t_state;

std::vector<Span>& ThreadBuffer() {
  if (t_state.buffer == nullptr) {
    auto buf = std::make_unique<std::vector<Span>>();
    buf->reserve(1 << 16);
    t_state.buffer = buf.get();
    std::lock_guard<std::mutex> lk(g_buffers_mu);
    Buffers().push_back(std::move(buf));
  }
  return *t_state.buffer;
}

int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
int64_t NowNs() { return Ns(Clock::now()); }

// Every span recorded so far, grouped by thread. Called once the threads
// that recorded them are done.
std::vector<std::vector<Span>> Collect() {
  std::lock_guard<std::mutex> lk(g_buffers_mu);
  std::vector<std::vector<Span>> out;
  for (const auto& b : Buffers()) out.push_back(*b);
  return out;
}

// Children's total duration per span, for self time.
std::vector<int64_t> ChildNs(const std::vector<Span>& spans) {
  std::vector<int64_t> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.end_ns >= s.start_ns) {
      child[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  return child;
}

}  // namespace

void Trace::Enable(bool on) { g_trace_on.store(on); }
bool Trace::enabled() { return g_trace_on.load(std::memory_order_relaxed); }

void Trace::Add(const char* name, Clock::time_point start,
                Clock::time_point end, uint64_t request) {
  if (!enabled()) return;
  ThreadBuffer().push_back({name, Ns(start), Ns(end), -1, request});
}

std::vector<double> Trace::SelfMs(const std::string& name) {
  std::vector<double> out;
  for (const std::vector<Span>& spans : Collect()) {
    const std::vector<int64_t> child = ChildNs(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (name != spans[i].name || spans[i].end_ns < spans[i].start_ns) {
        continue;
      }
      out.push_back(
          static_cast<double>(spans[i].end_ns - spans[i].start_ns - child[i]) *
          1e-6);
    }
  }
  return out;
}

bool Trace::WriteJsonl(const std::string& path,
                       const std::string& header_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header_json.c_str());
  std::map<std::string, std::vector<double>> self_by_name;
  const std::vector<std::vector<Span>> threads = Collect();
  for (size_t t = 0; t < threads.size(); ++t) {
    const std::vector<Span>& spans = threads[t];
    const std::vector<int64_t> child = ChildNs(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\": %zu, \"id\": %zu, \"name\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %lld, "
                   "\"request\": %llu}\n",
                   t, i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
      self_by_name[s.name].push_back(
          static_cast<double>(s.end_ns - s.start_ns - child[i]) * 1e-6);
    }
  }
  for (const auto& [name, self] : self_by_name) {
    const double total = std::accumulate(self.begin(), self.end(), 0.0);
    std::fprintf(f,
                 "{\"summary\": \"%s\", \"spans\": %zu, \"self_ms_total\": "
                 "%.6f, \"self_ms_p50\": %.6f}\n",
                 name.c_str(), self.size(), total, Median(self));
  }
  return std::fclose(f) == 0;
}

ScopedTrace::ScopedTrace(const char* name, uint64_t request) {
  if (!Trace::enabled()) return;
  std::vector<Span>& buf = ThreadBuffer();
  const int64_t parent = t_state.open.empty() ? -1 : t_state.open.back();
  buf.push_back({name, NowNs(), -1, parent, request});
  index_ = static_cast<int64_t>(buf.size()) - 1;
  t_state.open.push_back(index_);
}

void ScopedTrace::End() {
  if (index_ < 0) return;
  (*t_state.buffer)[static_cast<size_t>(index_)].end_ns = NowNs();
  t_state.open.pop_back();
  index_ = -1;
}

// ------------------------------------------------------------ fingerprint

namespace {

// splitmix64 finalizer.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Fingerprint Digest(const sedge::sparql::QueryResult& result,
                   bool set_semantics) {
  const size_t cols = result.var_names.size();
  std::vector<size_t> order(cols);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return result.var_names[a] < result.var_names[b];
  });
  const sedge::rdf::TermHash term_hash;
  const std::hash<std::string> str_hash;
  std::vector<uint64_t> hashes;
  hashes.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    uint64_t h = Mix(cols);
    for (const size_t c : order) {
      h = Mix(h ^ str_hash(result.var_names[c]));
      const auto& cell = row[c];
      h = Mix(h ^ (cell.has_value() ? term_hash(*cell) : 0x5bd1e995ULL));
    }
    hashes.push_back(h);
  }
  if (set_semantics) {
    std::sort(hashes.begin(), hashes.end());
    hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  }
  Fingerprint fp;
  fp.rows = hashes.size();
  for (const uint64_t h : hashes) fp.sum += h;
  return fp;
}

}  // namespace perfbench
