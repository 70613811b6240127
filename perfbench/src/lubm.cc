// lubm_read and lubm_sharded: one closed-loop client over a seeded shuffle
// of the 24-query LUBM mix (Q1-Q14, M1-M5, S11-S15) on LUBM1 with
// reasoning on — through one Database, or through a dist::Coordinator
// over four subject-hash shards. The reads run quiescent; the last
// quarter of the run then times write ticks, each removing a seeded batch
// of existing triples and inserting it again, so the graph and every
// answer stay the same.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include "baselines/baseline_engine.h"
#include "baselines/rdf4j_like.h"
#include "common.h"
#include "core/database.h"
#include "dist/coordinator.h"
#include "probes.h"
#include "rdf/vocabulary.h"
#include "sparql/executor.h"
#include "sparql/sparql_parser.h"
#include "sparql/union_rewriter.h"
#include "util/rng.h"
#include "workloads/lubm_generator.h"
#include "workloads/lubm_queries.h"

namespace perfbench {
namespace {

using sedge::Result;
using sedge::Status;
using sedge::sparql::QueryResult;

constexpr int kSetups = 7;
constexpr int kShards = 4;
constexpr int kExplainPasses = 2;
// Write ticks: batches of sensor_rw's size, cycled, in the last quarter
// of the run.
constexpr size_t kWriteBatch = 448;
constexpr size_t kWriteBatches = 32;
constexpr double kWriteShare = 0.25;

std::string Ub(const char* local) {
  return std::string(sedge::workloads::kLubmNs) + local;
}

struct Case {
  std::string id;
  std::string sparql;
  Fingerprint expected;
  bool set_semantics = false;
  std::string oracle;
};

/// Answers every query of the mix independently of the system under
/// test: the RDF4J-like baseline over the same graph, with reasoning
/// replaced by UNION rewriting (compared as sets where the rewrite
/// expanded a pattern, as bags otherwise). A query the rewrite cannot
/// express falls back to a freshly built single store.
bool BuildOracle(const sedge::ontology::Ontology& onto,
                 const sedge::rdf::Graph& graph, std::vector<Case>* cases,
                 std::string* note) {
  sedge::baselines::Rdf4jLikeStore baseline;
  if (!baseline.Build(graph).ok()) {
    *note = "baseline build failed";
    return false;
  }
  sedge::baselines::BaselineEngine engine(&baseline);
  std::unique_ptr<sedge::Database> fresh;
  for (Case& c : *cases) {
    auto parsed = sedge::sparql::ParseQuery(c.sparql);
    if (!parsed.ok()) {
      *note = c.id + ": " + parsed.status().ToString();
      return false;
    }
    auto rewritten = sedge::sparql::RewriteWithUnions(parsed.value(), onto);
    if (rewritten.ok()) {
      auto r = engine.Execute(rewritten.value());
      if (r.ok()) {
        c.set_semantics = rewritten.value().where.unions.size() >
                          parsed.value().where.unions.size();
        c.expected = Digest(r.value(), c.set_semantics);
        c.oracle = c.set_semantics ? "baseline_union_set" : "baseline_bag";
        continue;
      }
    }
    if (fresh == nullptr) {
      fresh = std::make_unique<sedge::Database>();
      fresh->set_build_threads(1);
      fresh->LoadOntology(onto);
      if (!fresh->LoadData(graph).ok()) {
        *note = "fresh oracle store failed to load";
        return false;
      }
    }
    auto r = fresh->Query(c.sparql);
    if (!r.ok()) {
      *note = c.id + " (fresh store): " + r.status().ToString();
      return false;
    }
    c.expected = Digest(r.value(), /*set_semantics=*/false);
    c.oracle = "fresh_store";
  }
  return true;
}

using QueryFn =
    std::function<Result<QueryResult>(const std::string&, uint64_t request)>;

/// Counts one timed operation and checks its answer.
bool Check(const Case& c, const Result<QueryResult>& r, OpCounts* ops) {
  ++ops->attempted;
  if (!r.ok()) {
    if (r.status().IsResourceExhausted()) {
      ++ops->rejected;
    } else {
      ++ops->errors;
    }
    return false;
  }
  // A set-compared answer that repeats a row passes: the seed code
  // already repeats rows there (see RepeatedRows), which are counted
  // instead.
  if (Digest(r.value(), c.set_semantics) != c.expected) {
    ++ops->wrong;
    return false;
  }
  return true;
}

/// Rows the set-compared answers repeat in one untimed pass of the mix.
/// Reasoning should yield each solution once, but the executor passes on
/// a subject once per asserted type (or sub-property triple) inside the
/// queried interval, so a check for repeats would fail the seed code.
uint64_t RepeatedRows(const std::vector<Case>& cases, const QueryFn& fn) {
  uint64_t repeated = 0;
  for (const Case& c : cases) {
    if (!c.set_semantics) continue;
    const Result<QueryResult> r = fn(c.sparql, 0);
    if (!r.ok()) continue;  // the timed loop counts it
    const uint64_t extra = r.value().rows.size() - Digest(r.value(), true).rows;
    if (extra > 0) {
      std::fprintf(stderr, "repeated rows %-4s %llu\n", c.id.c_str(),
                   static_cast<unsigned long long>(extra));
    }
    repeated += extra;
  }
  return repeated;
}

struct LoopResult {
  // passes[k][i]: latency (ms) of case i in pass k.
  std::vector<std::vector<double>> passes;
  double busy_s = 0;
  uint64_t rows = 0;

  std::vector<double> All() const {
    std::vector<double> v;
    for (const auto& p : passes) v.insert(v.end(), p.begin(), p.end());
    return v;
  }
};

/// Whole passes of the mix, each in a fresh seeded order, until `seconds`
/// have elapsed. Only the query call is on the clock; checking is not.
void ClosedLoop(const std::vector<Case>& cases, const QueryFn& fn,
                double seconds, sedge::Rng* rng, uint64_t* request,
                OpCounts* ops, LoopResult* out) {
  std::vector<size_t> order(cases.size());
  std::iota(order.begin(), order.end(), 0);
  const Clock::time_point start = Clock::now();
  while (SecondsBetween(start, Clock::now()) < seconds) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng->Uniform(i)]);
    }
    std::vector<double> pass(cases.size());
    for (const size_t i : order) {
      const uint64_t req = ++*request;
      ScopedTrace span("bench.request", req);
      const Clock::time_point t0 = Clock::now();
      const Result<QueryResult> r = fn(cases[i].sparql, req);
      const double s = SecondsBetween(t0, Clock::now());
      span.End();
      out->busy_s += s;
      if (Check(cases[i], r, ops)) {
        pass[i] = s * 1e3;
        out->rows += r.value().rows.size();
      } else {
        pass[i] = kMissedMs;
      }
    }
    out->passes.push_back(std::move(pass));
  }
}

/// Median over passes of each pass's median latency. Every pass runs each
/// query once, so this is the latency of the middle of the mix; a pooled
/// median would sit on the edge between two queries' distributions.
double MixMedian(const LoopResult& loop) {
  std::vector<double> medians;
  for (const auto& p : loop.passes) medians.push_back(Median(p));
  return Median(medians);
}

// -- Writes -------------------------------------------------------------------

/// Batches of distinct existing triples, from a seeded shuffle of the
/// graph.
std::vector<sedge::rdf::Graph> WriteBatches(const sedge::rdf::Graph& graph,
                                            uint64_t seed) {
  std::vector<size_t> order(graph.size());
  std::iota(order.begin(), order.end(), 0);
  sedge::Rng rng(seed ^ 0x3a17);
  std::unordered_set<std::string> seen;
  std::vector<sedge::rdf::Graph> out(kWriteBatches);
  size_t next = 0;
  for (sedge::rdf::Graph& batch : out) {
    while (batch.size() < kWriteBatch && next < order.size()) {
      std::swap(order[next], order[next + rng.Uniform(order.size() - next)]);
      const sedge::rdf::Triple& t = graph.triples()[order[next++]];
      if (seen.insert(t.ToNTriples()).second) batch.Add(t);
    }
  }
  return out;
}

struct Writer {
  std::function<Status(const sedge::rdf::Graph&)> remove;
  std::function<Status(const sedge::rdf::Graph&,
                       sedge::Database::InsertReport*)>
      insert;
  std::function<uint64_t()> triples;
};

/// Closed-loop write ticks until `seconds` have elapsed. A tick removes a
/// batch and inserts it again; only the two calls are on the clock. It
/// fails unless every triple comes back and the triple count is unchanged.
void WriteLoop(const std::vector<sedge::rdf::Graph>& batches,
               const Writer& w, double seconds, OpCounts* ops,
               std::vector<double>* latency_ms) {
  const uint64_t live = w.triples();
  const Clock::time_point start = Clock::now();
  for (uint64_t k = 0; SecondsBetween(start, Clock::now()) < seconds; ++k) {
    const sedge::rdf::Graph& batch = batches[k % batches.size()];
    const uint64_t req = (1ULL << 40) + k;
    ++ops->attempted;
    sedge::Database::InsertReport report;
    Status st;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedTrace tick("bench.write_tick", req);
      {
        ScopedTrace span("core.remove", req);
        st = w.remove(batch);
      }
      if (st.ok()) {
        ScopedTrace span("core.insert", req);
        st = w.insert(batch, &report);
      }
    }
    const double ms = SecondsBetween(t0, Clock::now()) * 1e3;
    if (!st.ok()) {
      ++ops->errors;
      latency_ms->push_back(kMissedMs);
    } else if (report.applied != batch.size() || w.triples() != live) {
      ++ops->wrong;
      latency_ms->push_back(kMissedMs);
    } else {
      latency_ms->push_back(ms);
    }
  }
}

// -- Traced single-store read -------------------------------------------------

/// The public steps Database::Query takes, one span around each: parse,
/// execute (encoded), decode.
Result<QueryResult> ReplayQuery(const sedge::Database& db,
                                const std::string& text, uint64_t request) {
  const auto snap = db.snapshot();
  if (snap == nullptr) return Status::InvalidArgument("no data loaded");
  ScopedTrace parse("sparql.parse", request);
  auto query = sedge::sparql::ParseQuery(text);
  parse.End();
  if (!query.ok()) return query.status();
  sedge::sparql::Executor executor(snap, db.options());
  ScopedTrace execute("sparql.execute", request);
  auto table = executor.ExecuteEncoded(query.value());
  execute.End();
  db.AccumulateQueryStats(executor);
  if (!table.ok()) return table.status();
  ScopedTrace decode("sparql.decode", request);
  QueryResult out;
  for (const auto& v : table.value().vars) out.var_names.push_back(v.name);
  out.rows.reserve(table.value().rows.size());
  const sedge::store::TripleStore& store = snap->store();
  for (const auto& row : table.value().rows) {
    std::vector<std::optional<sedge::rdf::Term>> decoded;
    decoded.reserve(row.size());
    for (const sedge::store::EncodedTerm& v : row) {
      switch (v.space) {
        case sedge::store::ValueSpace::kUnbound:
          decoded.push_back(std::nullopt);
          break;
        case sedge::store::ValueSpace::kRdfType:
          decoded.push_back(sedge::rdf::Term::Iri(sedge::rdf::kRdfType));
          break;
        case sedge::store::ValueSpace::kComputed:
          return Status::Unsupported("computed values need the executor");
        default:
          decoded.push_back(store.DecodeTerm(v));
      }
    }
    out.rows.push_back(std::move(decoded));
  }
  return out;
}

/// Self time (ms) of ExplainQuery's tp/<kind> nodes per explained query.
void ExplainSelfTimes(const sedge::Database& db,
                      const std::vector<Case>& cases, MetricSink* out,
                      bool* ok) {
  std::map<std::string, double> self_s;
  int explained = 0;
  std::function<void(const sedge::obs::ProfileNode&)> walk =
      [&](const sedge::obs::ProfileNode& n) {
        double child = 0;
        for (const auto& c : n.children) child += c->seconds;
        if (n.name.rfind("tp/", 0) == 0) {
          self_s[n.name.substr(3)] += n.seconds - child;
        }
        for (const auto& c : n.children) walk(*c);
      };
  for (int pass = 0; pass < kExplainPasses; ++pass) {
    for (const Case& c : cases) {
      const auto profile = db.ExplainQuery(c.sparql);
      if (!profile.ok()) {
        *ok = false;
        continue;
      }
      walk(profile.value().root);
      ++explained;
    }
  }
  for (const char* kind : {"type", "merge_join", "row"}) {
    out->Set(std::string("sparql.tp_self_ms.") + kind,
             explained > 0 ? self_s[kind] * 1e3 / explained : 0.0, "ms");
  }
}

// -- Metrics -------------------------------------------------------------------

/// Cumulative dist_* figures of a coordinator.
struct DistTotals {
  double queries = 0, subqueries = 0, pushed = 0, coordinated = 0;
  double fanout_sum = 0, fanout_count = 0, join_s = 0;
};

DistTotals ReadDistTotals(const sedge::dist::Coordinator& coord) {
  const sedge::obs::MetricsRegistry& reg = coord.metrics();
  const auto counter = [&reg](const char* name) {
    return static_cast<double>(reg.FindCounter(name)->value());
  };
  const sedge::obs::Histogram* fanout = reg.FindHistogram("dist_fanout_shards");
  DistTotals t;
  t.queries = counter("dist_queries_total");
  t.subqueries = counter("dist_subqueries_total");
  t.pushed = counter("dist_pushed_join_edges_total");
  t.coordinated =
      counter("dist_join_hash_total") + counter("dist_join_merge_total");
  t.fanout_sum = fanout->sum();
  t.fanout_count = static_cast<double>(fanout->count());
  t.join_s = reg.FindHistogram("dist_join_seconds")->sum();
  return t;
}

void ReportReads(const LoopResult& loop, MetricSink* out) {
  const std::vector<double> all = loop.All();
  // Reads per second of query time, per third of the run.
  out->Set("read_qps",
           MedianOfThirds(all,
                          [](std::vector<double> t) {
                            double ms = 0;
                            for (const double x : t) ms += x;
                            return ms > 0 ? 1e3 * t.size() / ms : 0.0;
                          }),
           "1/s");
  out->Set("read_p50_ms", MixMedian(loop), "ms");
  out->Set("read_p90_ms", PercentileOfThirds(all, 90), "ms");
}

void ReportPerQuery(const std::vector<Case>& cases,
                    const std::vector<const LoopResult*>& loops,
                    MetricSink* out) {
  for (size_t i = 0; i < cases.size(); ++i) {
    std::vector<double> v;
    for (const LoopResult* loop : loops) {
      for (const auto& p : loop->passes) v.push_back(p[i]);
    }
    out->Set("query." + cases[i].id + ".p50_ms", Median(v), "ms");
  }
}

}  // namespace

WorkloadResult RunLubm(const RunOptions& opts, bool sharded) {
  WorkloadResult res;

  // Inputs, from the seed only.
  sedge::workloads::LubmConfig config;
  config.seed = opts.seed;
  const sedge::rdf::Graph graph = sedge::workloads::LubmGenerator::Generate(
      config);
  const sedge::ontology::Ontology onto =
      sedge::workloads::LubmGenerator::BuildOntology();
  std::vector<Case> cases;
  {
    std::vector<sedge::workloads::QuerySpec> mix =
        sedge::workloads::LubmQueries::Standard14(graph);
    for (auto& q : sedge::workloads::LubmQueries::Multi(graph)) {
      mix.push_back(std::move(q));
    }
    for (auto& q : sedge::workloads::LubmQueries::SingleP()) {
      mix.push_back(std::move(q));
    }
    for (auto& q : mix) cases.push_back({q.id, q.sparql, {}, false, ""});
  }

  // Set-up of the system under test, several times; the last one stays.
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> build_s;
  std::unique_ptr<sedge::Database> db;
  std::unique_ptr<sedge::dist::Coordinator> coord;
  for (int i = 0; i < kSetups; ++i) {
    if (sharded) {
      coord.reset();
      sedge::dist::CoordinatorOptions co;
      co.partition.policy = sedge::dist::PartitionPolicy::kSubjectHash;
      co.partition.shards = kShards;
      auto c = std::make_unique<sedge::dist::Coordinator>(co);
      // One build thread per shard: the shards load one after another,
      // so the client thread is the only busy one.
      for (int s = 0; s < kShards; ++s) c->shard(s).set_build_threads(1);
      const Clock::time_point t0 = Clock::now();
      c->LoadOntology(onto);
      const Status st = c->LoadData(graph);
      setup_s.push_back(SecondsBetween(t0, Clock::now()));
      if (!st.ok()) {
        res.correct = false;
        res.note = "coordinator load: " + st.ToString();
        return res;
      }
      coord = std::move(c);
    } else {
      db.reset();
      auto d = std::make_unique<sedge::Database>();
      // The caller blocks in LoadData while the pool builds.
      d->set_build_threads(std::max(1, opts.threads - 1));
      const Clock::time_point t0 = Clock::now();
      d->LoadOntology(onto);
      const Status st = d->LoadData(graph);
      setup_s.push_back(SecondsBetween(t0, Clock::now()));
      if (!st.ok()) {
        res.correct = false;
        res.note = "load: " + st.ToString();
        return res;
      }
      for (const char* stage : {"dict", "pso", "datatype", "type"}) {
        const auto* h = d->metrics().FindHistogram(
            std::string("compaction_build_") + stage + "_seconds");
        if (h != nullptr) build_s[stage].push_back(h->sum());
      }
      db = std::move(d);
    }
  }

  if (!BuildOracle(onto, graph, &cases, &res.note)) {
    res.correct = false;
    return res;
  }
  for (const Case& c : cases) {
    std::fprintf(stderr, "oracle %-4s %-18s rows=%llu\n", c.id.c_str(),
                 c.oracle.c_str(), static_cast<unsigned long long>(
                                       c.expected.rows));
  }

  const QueryFn plain = [&](const std::string& text, uint64_t) {
    return sharded ? coord->Query(text) : db->Query(text);
  };

  // The checker must reject a wrong expectation.
  {
    Case tampered = cases.front();
    tampered.expected.sum ^= 1;
    OpCounts probe;
    if (Check(tampered, plain(tampered.sparql, 0), &probe) ||
        probe.wrong != 1) {
      res.correct = false;
      res.note = "checker accepted a deliberately wrong expectation";
      return res;
    }
  }

  const uint64_t repeated_rows = RepeatedRows(cases, plain);
  const std::vector<sedge::rdf::Graph> write_batches =
      WriteBatches(graph, opts.seed);
  Writer writer;
  if (sharded) {
    writer.remove = [&](const sedge::rdf::Graph& g) {
      return coord->Remove(g);
    };
    writer.insert = [&](const sedge::rdf::Graph& g,
                        sedge::Database::InsertReport* r) {
      return coord->Insert(g, r);
    };
    writer.triples = [&] { return coord->num_triples(); };
  } else {
    writer.remove = [&](const sedge::rdf::Graph& g) { return db->Remove(g); };
    writer.insert = [&](const sedge::rdf::Graph& g,
                        sedge::Database::InsertReport* r) {
      return db->Insert(g, r);
    };
    writer.triples = [&] { return db->num_triples(); };
  }
  const double read_s = opts.seconds * (1 - kWriteShare);
  const double write_s = opts.seconds * kWriteShare;
  std::vector<double> write_ms;
  const uint64_t folds0 = sharded ? 0 : CounterValue(db->metrics(),
                                                     "compactions_total");

  sedge::Rng order_rng(opts.seed ^ 0x0bd3);
  uint64_t request = 0;
  LoopResult untraced, traced;
  // Coordinator counters before the timed loops; the traced run reports
  // what the loops added.
  const DistTotals dist0 = sharded ? ReadDistTotals(*coord) : DistTotals{};

  uint64_t store_bytes = 0, store_triples = 0;
  if (sharded) {
    for (int s = 0; s < kShards; ++s) {
      store_bytes += coord->shard(s).store().SizeInBytes();
      store_triples += coord->shard(s).num_triples();
    }
  } else {
    store_bytes = db->store().SizeInBytes();
    store_triples = db->num_triples();
  }

  if (!opts.trace) {
    ClosedLoop(cases, plain, read_s, &order_rng, &request, &res.ops,
               &untraced);
    WriteLoop(write_batches, writer, write_s, &res.ops, &write_ms);
    ReportReads(untraced, &res.metrics);
    res.metrics.Set("write_p50_ms", PercentileOfThirds(write_ms, 50), "ms");
    res.metrics.Set("setup_s", Median(setup_s), "s");
    res.metrics.Set("store_bytes_per_triple",
                    static_cast<double>(store_bytes) /
                        static_cast<double>(std::max<uint64_t>(store_triples, 1)),
                    "B");
  } else {
    // First half untraced, second half traced: their read medians give
    // the tracing overhead; the traced half gives the spans.
    ClosedLoop(cases, plain, read_s / 2, &order_rng, &request, &res.ops,
               &untraced);
    const sedge::sparql::ExecutorStats stats1 =
        sharded ? sedge::sparql::ExecutorStats{} : db->query_stats();
    Trace::Enable(true);
    const QueryFn traced_fn = [&](const std::string& text, uint64_t req) {
      if (sharded) {
        ScopedTrace span("dist.query", req);
        return coord->Query(text);
      }
      return ReplayQuery(*db, text, req);
    };
    ClosedLoop(cases, traced_fn, read_s / 2, &order_rng, &request,
               &res.ops, &traced);
    WriteLoop(write_batches, writer, write_s, &res.ops, &write_ms);
    Trace::Enable(false);

    MetricSink& m = res.metrics;
    ReportPerQuery(cases, {&untraced, &traced}, &m);
    m.Set("bench.tracing_overhead_ratio",
          MixMedian(untraced) > 0 ? MixMedian(traced) / MixMedian(untraced)
                                  : 0.0,
          "ratio");
    m.Set("bench.traced_read_p50_ms", MixMedian(traced), "ms");
    m.Set("bench.untraced_read_p50_ms", MixMedian(untraced), "ms");
    m.Set("sparql.repeated_rows", static_cast<double>(repeated_rows),
          "count");
    std::vector<double> reads = untraced.All();
    const std::vector<double> traced_reads = traced.All();
    reads.insert(reads.end(), traced_reads.begin(), traced_reads.end());
    m.Set("read_p99_ms", Percentile(reads, 99), "ms");
    m.Set("write_p99_ms", Percentile(write_ms, 99), "ms");
    m.Set("core.insert_ms", Median(Trace::SelfMs("core.insert")), "ms");
    m.Set("core.remove_ms", Median(Trace::SelfMs("core.remove")), "ms");
    bool ok = true;
    if (sharded) {
      const DistTotals end = ReadDistTotals(*coord);
      const double queries = end.queries - dist0.queries;
      const double pushed = end.pushed - dist0.pushed;
      const double fanouts = end.fanout_count - dist0.fanout_count;
      m.Ratio("dist.subqueries_per_query", end.subqueries - dist0.subqueries,
              queries, "dist.subqueries", "dist.queries");
      m.Set("dist.fanout_shards",
            fanouts > 0 ? (end.fanout_sum - dist0.fanout_sum) / fanouts : 0.0,
            "count");
      m.Ratio("dist.pushdown_ratio", pushed,
              pushed + end.coordinated - dist0.coordinated,
              "dist.pushed_join_edges", "dist.join_edges");
      m.Set("dist.join_ms_per_query",
            queries > 0 ? (end.join_s - dist0.join_s) * 1e3 / queries : 0.0,
            "ms");
      m.Set("dist.query_ms", Median(Trace::SelfMs("dist.query")), "ms");
    } else {
      m.Set("sparql.parse_ms", Median(Trace::SelfMs("sparql.parse")), "ms");
      m.Set("sparql.execute_ms", Median(Trace::SelfMs("sparql.execute")),
            "ms");
      m.Set("sparql.decode_ms", Median(Trace::SelfMs("sparql.decode")), "ms");
      const sedge::sparql::ExecutorStats stats2 = db->query_stats();
      const double extends = static_cast<double>(
          (stats2.row_extends - stats1.row_extends) +
          (stats2.merge_join_extends - stats1.merge_join_extends));
      m.Ratio("sparql.extends_per_result", extends,
              static_cast<double>(traced.rows), "sparql.extends",
              "sparql.results");
      ExplainSelfTimes(*db, cases, &m, &ok);
      for (const auto& [stage, v] : build_s) {
        m.Set("core.build_s." + stage, Median(v), "s");
      }
      const sedge::obs::MetricsRegistry& reg = db->metrics();
      m.Set("core.isolation_fork_ms",
            HistMs(reg, "snapshot_isolation_fork_seconds", 50), "ms");
      m.Set("core.fold_s", HistMs(reg, "compaction_fold_seconds", 50) / 1e3,
            "s");
      m.Set("core.folds",
            static_cast<double>(CounterValue(reg, "compactions_total") -
                                folds0),
            "count");
    }
    {
      // The sharded run probes shard 0, a quarter of the graph.
      const sedge::store::TripleStore& store =
          sharded ? coord->shard(0).store() : db->store();
      ScanPredicates preds;
      preds.scan_p_object = Ub("memberOf");
      preds.scan_p_datatype = Ub("emailAddress");
      preds.object_preds = {Ub("memberOf"),    Ub("worksFor"),
                            Ub("takesCourse"), Ub("teacherOf"),
                            Ub("subOrganizationOf"),
                            Ub("undergraduateDegreeFrom"),
                            Ub("publicationAuthor"), Ub("advisor")};
      preds.type_classes = {Ub("Student"), Ub("Professor"), Ub("Course"),
                            Ub("Department"), Ub("Person")};
      ok = ProbeSds(store, opts.seed, &m) && ok;
      ok = ProbeStoreScans(store, preds, opts.seed, &m) && ok;
      ok = ProbeLitemat(store, opts.seed, &m) && ok;
    }
    for (const char* layer : {"sparql", "core", "store.overlay", "serve",
                              "dist", "io", "bench.generator"}) {
      ReportUnmeasured(layer, &m);
    }
    if (!ok) {
      res.correct = false;
      res.note = "a layer probe read a wrong value";
    }
  }

  // The writes left the graph as it was: the answers must be too.
  for (const Case& c : cases) Check(c, plain(c.sparql, 0), &res.ops);

  if (res.ops.wrong > 0 || res.ops.errors > 0) {
    res.correct = false;
    res.note = std::to_string(res.ops.wrong) + " wrong answer(s), " +
               std::to_string(res.ops.errors) + " error(s)";
  }
  return res;
}

}  // namespace perfbench
