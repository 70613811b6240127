// sensor_rw: a durable edge node configured like examples/edge_monitor.cpp
// — Database::Open on a simulated block device (5 µs block writes),
// compaction ratio 0.25 with async folds — served by serve::QueryService
// with two readers. An open-loop writer inserts one observation batch per
// tick and removes the oldest, keeping a sliding window; an open-loop
// reader sends three reads per tick, as edge_monitor runs its three
// registered queries after each batch: the pressure-anomaly query and two
// per-sensor lookups with seeded constants. Every request is timed from
// when it was due.
//
// Oracle: each query's answer is a disjoint union over the observation
// batches in the window (all its patterns join within one observation
// plus the fixed topology), so the expected digest at any write
// watermark is a difference of prefix sums over per-batch digests
// computed in set-up by the RDF4J-like baseline.

#include <algorithm>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/baseline_engine.h"
#include "baselines/rdf4j_like.h"
#include "common.h"
#include "core/database.h"
#include "io/block_device.h"
#include "probes.h"
#include "serve/query_service.h"
#include "sparql/sparql_parser.h"
#include "sparql/union_rewriter.h"
#include "util/rng.h"
#include "workloads/sensor_generator.h"

namespace perfbench {
namespace {

using sedge::Status;

constexpr int kSetups = 7;
constexpr int kWindow = 40;           // batches kept live
constexpr double kWriteRate = 10.0;   // ticks (insert + remove) per second
// edge_monitor registers three queries and runs each once per batch; here
// the first is its pressure-anomaly query and the other two are per-sensor
// lookups, so the read rate follows the tick rate.
constexpr int kReadsPerTick = 3;
constexpr double kReadRate = kWriteRate * kReadsPerTick;
constexpr double kWriteLatencyUs = 5.0;
constexpr int kReaders = 2;
constexpr auto kPoll = std::chrono::microseconds(100);

const char kSosa[] = "http://www.w3.org/ns/sosa/";
const char kQudt[] = "http://qudt.org/schema/qudt/";

sedge::workloads::SensorConfig Config(uint64_t seed) {
  sedge::workloads::SensorConfig c;
  c.seed = seed;
  c.stations = 4;
  c.sensors_per_station = 4;
  c.observations_per_sensor = 4;  // 64 observations, 448 triples per batch
  c.anomaly_rate = 0.1;
  return c;
}

std::string SensorIri(int station, int sensor) {
  return "http://engie.example/water/Station" + std::to_string(station + 1) +
         "/Sensor" + std::to_string(sensor + 1);
}

/// The anomaly query's observation path with its sensor bound and no
/// unit filter: every reading of one sensor in the window.
std::string LookupQuery(const std::string& sensor) {
  return std::string("PREFIX sosa: <") + kSosa + ">\nPREFIX qudt: <" + kQudt +
         ">\nSELECT ?o ?ts ?v WHERE { <" + sensor +
         "> sosa:observes ?o . ?o sosa:resultTime ?ts ; sosa:hasResult ?r . "
         "?r qudt:numericValue ?v }";
}

struct QueryText {
  std::string sparql;
  // prefix[b]: digest over batches [0, b).
  std::vector<Fingerprint> prefix;
};

/// Per-batch digests for every query text, from the baseline over the
/// topology plus that batch alone. Answers are compared as bags: a set
/// would not add up over batches (two batches 28 apart repeat timestamps,
/// so the anomaly query can return equal rows from both). That needs the
/// UNION rewrite to yield each solution once, which is checked per batch.
bool BuildOracle(const sedge::ontology::Ontology& onto,
                 const sedge::rdf::Graph& topology,
                 const std::vector<sedge::rdf::Graph>& batches,
                 std::vector<QueryText>* texts, std::string* note) {
  std::vector<sedge::sparql::Query> rewritten;
  for (QueryText& q : *texts) {
    auto parsed = sedge::sparql::ParseQuery(q.sparql);
    if (!parsed.ok()) {
      *note = parsed.status().ToString();
      return false;
    }
    auto r = sedge::sparql::RewriteWithUnions(parsed.value(), onto);
    if (!r.ok()) {
      *note = r.status().ToString();
      return false;
    }
    rewritten.push_back(std::move(r).value());
    q.prefix.assign(1, Fingerprint{});
  }
  const auto digest_on = [&](const sedge::rdf::Graph& g,
                             bool require_distinct,
                             std::vector<Fingerprint>* out) {
    sedge::baselines::Rdf4jLikeStore store;
    if (!store.Build(g).ok()) return false;
    sedge::baselines::BaselineEngine engine(&store);
    out->clear();
    for (size_t i = 0; i < texts->size(); ++i) {
      auto r = engine.Execute(rewritten[i]);
      if (!r.ok()) return false;
      const Fingerprint bag = Digest(r.value(), /*set_semantics=*/false);
      if (require_distinct && bag != Digest(r.value(), true)) return false;
      out->push_back(bag);
    }
    return true;
  };
  std::vector<Fingerprint> fps;
  for (const sedge::rdf::Graph& batch : batches) {
    sedge::rdf::Graph g = topology;
    g.Merge(batch);
    if (!digest_on(g, /*require_distinct=*/true, &fps)) {
      *note = "baseline failed or repeated a row on a batch";
      return false;
    }
    for (size_t i = 0; i < texts->size(); ++i) {
      Fingerprint next = (*texts)[i].prefix.back();
      next += fps[i];
      (*texts)[i].prefix.push_back(next);
    }
  }
  // The decomposition itself is checked once, on the initial window.
  sedge::rdf::Graph window = topology;
  for (int b = 0; b < kWindow; ++b) window.Merge(batches[b]);
  if (!digest_on(window, /*require_distinct=*/false, &fps)) {
    *note = "baseline failed on the initial window";
    return false;
  }
  for (size_t i = 0; i < texts->size(); ++i) {
    if (fps[i] != (*texts)[i].prefix[kWindow]) {
      *note = "window answer is not the union of per-batch answers";
      return false;
    }
  }
  return true;
}

/// Expected digest of `q` at write watermark `writes`: set-up ends at
/// `base_writes` with batches [0, W); tick k inserts batch W+k, then
/// removes batch k — one watermark step each.
bool Expected(const QueryText& q, uint64_t writes, uint64_t base_writes,
              uint64_t ticks, Fingerprint* out) {
  if (writes < base_writes || writes - base_writes > 2 * ticks) return false;
  const uint64_t j = writes - base_writes;
  const uint64_t first = j / 2;
  const uint64_t last = kWindow + (j + 1) / 2;
  *out = q.prefix[last] - q.prefix[first];
  return true;
}

/// Counts one completed read and checks its answer against the oracle at
/// the write watermark the response reports.
bool CheckRead(const QueryText& q,
               const sedge::serve::QueryService::Response& r,
               uint64_t base_writes, uint64_t ticks, OpCounts* ops) {
  ++ops->attempted;
  if (!r.status.ok()) {
    if (r.status.IsResourceExhausted()) {
      ++ops->rejected;
    } else {
      ++ops->errors;
    }
    return false;
  }
  Fingerprint fp;
  if (!Expected(q, r.writes, base_writes, ticks, &fp) ||
      Digest(r.result, /*set_semantics=*/false) != fp) {
    ++ops->wrong;
    return false;
  }
  return true;
}

struct Node {
  // Declared first so it outlives the database that writes to it.
  std::unique_ptr<sedge::io::SimulatedBlockDevice> device;
  std::unique_ptr<sedge::Database> db;
};

Status SetUp(const sedge::ontology::Ontology& onto,
             const sedge::rdf::Graph& bootstrap, Node* node) {
  node->device = std::make_unique<sedge::io::SimulatedBlockDevice>(
      /*read_latency_us=*/0.0, kWriteLatencyUs);
  sedge::Database::OpenOptions oo;
  oo.bootstrap_ontology = onto;
  SEDGE_ASSIGN_OR_RETURN(node->db,
                         sedge::Database::Open(node->device.get(), oo));
  sedge::Database& db = *node->db;
  // The fold worker builds on its own thread: no build pool.
  db.set_build_threads(1);
  db.set_compaction_ratio(0);
  SEDGE_RETURN_NOT_OK(db.Insert(bootstrap));
  SEDGE_RETURN_NOT_OK(db.Compact());  // folds and takes the first checkpoint
  db.set_compaction_ratio(0.25);
  db.set_async_compaction(true);
  return Status::OK();
}

uint64_t UserBytes(const sedge::rdf::Graph& g) {
  uint64_t n = 0;
  for (const sedge::rdf::Triple& t : g.triples()) n += t.ToNTriples().size() + 1;
  return n;
}

struct WriterStats {
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> bytes_per_triple;
  double delta_entries_max = 0;
  double tombstone_ratio_max = 0;
  std::shared_ptr<const sedge::store::StoreGeneration> max_delta_snapshot;
  OpCounts ops;
};

}  // namespace

WorkloadResult RunSensor(const RunOptions& opts) {
  WorkloadResult res;

  // Inputs, from the seed only.
  const sedge::workloads::SensorConfig config = Config(opts.seed);
  const sedge::ontology::Ontology onto =
      sedge::workloads::SensorGraphGenerator::BuildOntology();
  const sedge::rdf::Graph topology =
      sedge::workloads::SensorGraphGenerator::GenerateTopology(config);
  const uint64_t ticks =
      static_cast<uint64_t>(kWriteRate * opts.seconds + 0.5);
  const uint64_t reads = static_cast<uint64_t>(kReadRate * opts.seconds + 0.5);
  std::vector<sedge::rdf::Graph> batches;
  for (uint64_t b = 0; b < kWindow + ticks; ++b) {
    batches.push_back(
        sedge::workloads::SensorGraphGenerator::GenerateObservationBatch(
            config, static_cast<int>(b)));
  }
  std::vector<QueryText> texts;
  texts.push_back(
      {sedge::workloads::SensorGraphGenerator::PressureAnomalyQuery(), {}});
  for (int st = 0; st < config.stations; ++st) {
    for (int se = 0; se < config.sensors_per_station; ++se) {
      texts.push_back({LookupQuery(SensorIri(st, se)), {}});
    }
  }
  // Read i of a tick is the anomaly query when i is 0, else a lookup of a
  // seeded sensor.
  std::vector<size_t> read_query(reads);
  {
    sedge::Rng rng(opts.seed ^ 0x5e45);
    for (size_t i = 0; i < reads; ++i) {
      read_query[i] =
          i % kReadsPerTick == 0 ? 0 : 1 + rng.Uniform(texts.size() - 1);
    }
  }
  sedge::rdf::Graph bootstrap = topology;
  for (int b = 0; b < kWindow; ++b) bootstrap.Merge(batches[b]);

  if (!BuildOracle(onto, topology, batches, &texts, &res.note)) {
    res.correct = false;
    return res;
  }

  // Set-up: Open + bootstrap load + first checkpoint, several times.
  std::vector<double> setup_s;
  Node node;
  for (int i = 0; i < kSetups; ++i) {
    node.db.reset();
    node.device.reset();
    const Clock::time_point t0 = Clock::now();
    const Status st = SetUp(onto, bootstrap, &node);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    if (!st.ok()) {
      res.correct = false;
      res.note = "set-up: " + st.ToString();
      return res;
    }
  }
  sedge::Database& db = *node.db;
  const uint64_t base_writes = db.write_generation();
  const uint64_t live_triples = db.num_triples();
  const sedge::obs::MetricsRegistry& reg = db.metrics();

  sedge::serve::ServeOptions so;
  so.readers = kReaders;
  so.queue_depth = 256;
  sedge::serve::QueryService service(&db, so);

  // The checker must reject a wrong expectation: the tampered copy's
  // expected digest is off by the number of batches in the window.
  {
    const sedge::serve::QueryService::Response r =
        service.Execute(texts[1].sparql);
    OpCounts probe;
    if (!CheckRead(texts[1], r, base_writes, ticks, &probe)) {
      res.correct = false;
      res.note = "first lookup already disagrees with the oracle";
      return res;
    }
    QueryText tampered = texts[1];
    for (size_t b = 0; b < tampered.prefix.size(); ++b) {
      tampered.prefix[b].sum += b;
    }
    if (CheckRead(tampered, r, base_writes, ticks, &probe) ||
        probe.wrong != 1) {
      res.correct = false;
      res.note = "checker accepted a deliberately wrong expectation";
      return res;
    }
  }

  uint64_t user_bytes = 0;
  for (uint64_t k = 0; k < ticks; ++k) {
    user_bytes += UserBytes(batches[kWindow + k]) + UserBytes(batches[k]);
  }
  const uint64_t wal_bytes0 = CounterValue(reg, "wal_bytes_appended_total");
  const uint64_t dev_writes0 = CounterValue(reg, "block_device_writes_total");
  const uint64_t folds0 = CounterValue(reg, "compactions_total");
  const uint64_t checkpoints0 = CounterValue(reg, "checkpoints_total");

  // Both generators run on one schedule; in a traced run the second half
  // of it records spans.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point halfway =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opts.seconds / 2));
  const auto due = [&](uint64_t i, double rate) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / rate));
  };

  WriterStats ws;
  std::thread writer([&] {
    for (uint64_t k = 0; k < ticks; ++k) {
      const Clock::time_point when = due(k, kWriteRate);
      std::this_thread::sleep_until(when);
      ws.lag_ms.push_back(SecondsBetween(when, Clock::now()) * 1e3);
      const uint64_t req = (1ULL << 40) + k;
      ++ws.ops.attempted;
      sedge::Database::InsertReport report;
      Status st;
      {
        ScopedTrace tick("bench.write_tick", req);
        {
          ScopedTrace span("core.insert", req);
          st = db.Insert(batches[kWindow + k], &report);
        }
        if (st.ok()) {
          ScopedTrace span("core.remove", req);
          st = db.Remove(batches[k]);
        }
      }
      const double ms = SecondsBetween(when, Clock::now()) * 1e3;
      if (!st.ok()) {
        ++ws.ops.errors;
        ws.latency_ms.push_back(kMissedMs);
        continue;
      }
      const auto snap = db.snapshot();
      const sedge::store::TripleStore& store = snap->store();
      if (report.applied != batches[kWindow + k].size() ||
          store.num_triples() != live_triples) {
        ++ws.ops.wrong;
        ws.latency_ms.push_back(kMissedMs);
      } else {
        ws.latency_ms.push_back(ms);
      }
      ws.bytes_per_triple.push_back(
          static_cast<double>(store.SizeInBytes()) /
          static_cast<double>(std::max<uint64_t>(store.num_triples(), 1)));
      const sedge::store::delta::DeltaOverlay* delta = store.delta();
      const double entries = static_cast<double>(store.delta_size());
      if (entries > ws.delta_entries_max) {
        ws.delta_entries_max = entries;
        if (opts.trace) ws.max_delta_snapshot = snap;
      }
      if (delta != nullptr && entries > 0) {
        ws.tombstone_ratio_max = std::max(
            ws.tombstone_ratio_max,
            static_cast<double>(delta->num_dels()) / entries);
      }
    }
  });

  // Open-loop reader on this thread: submit each read when it is due and
  // poll the futures in flight for completions.
  struct InFlight {
    uint64_t index;
    Clock::time_point due;
    Clock::time_point sent;
    std::future<sedge::serve::QueryService::Response> response;
  };
  std::deque<InFlight> in_flight;
  // Latency (ms, from due time) of each read, in due order.
  std::vector<double> read_ms(reads, 0.0);
  std::vector<double> read_lag_ms;
  uint64_t reads_ok = 0;
  Clock::time_point last_done = start;
  uint64_t next = 0;
  while (next < reads || !in_flight.empty()) {
    Clock::time_point now = Clock::now();
    if (opts.trace && !Trace::enabled() && now >= halfway) Trace::Enable(true);
    while (next < reads && due(next, kReadRate) <= now) {
      const Clock::time_point when = due(next, kReadRate);
      read_lag_ms.push_back(SecondsBetween(when, now) * 1e3);
      in_flight.push_back({next, when, now,
                           service.Submit(texts[read_query[next]].sparql)});
      ++next;
    }
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (it->response.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      const Clock::time_point done = Clock::now();
      const sedge::serve::QueryService::Response r = it->response.get();
      Trace::Add("serve.request", it->sent, done, it->index + 1);
      if (CheckRead(texts[read_query[it->index]], r, base_writes, ticks,
                    &res.ops)) {
        read_ms[it->index] = SecondsBetween(it->due, done) * 1e3;
        ++reads_ok;
      } else {
        read_ms[it->index] = kMissedMs;
      }
      last_done = std::max(last_done, done);
      it = in_flight.erase(it);
    }
    now = Clock::now();
    if (in_flight.empty() && next < reads) {
      std::this_thread::sleep_until(due(next, kReadRate));
    } else if (!in_flight.empty()) {
      Clock::time_point wake = now + kPoll;
      if (next < reads) wake = std::min(wake, due(next, kReadRate));
      std::this_thread::sleep_until(wake);
    }
  }
  writer.join();
  Trace::Enable(false);
  const Status folded = db.WaitForCompaction();
  service.Shutdown();
  if (!folded.ok()) ++res.ops.errors;

  res.ops.attempted += ws.ops.attempted;
  res.ops.wrong += ws.ops.wrong;
  res.ops.errors += ws.ops.errors;
  // The read mix is bimodal (a lookup takes a few ms, the anomaly query
  // tens), and the pooled median of a 1:2 mix falls in the lookups' upper
  // quartile, which moves with how often a lookup overlaps an anomaly
  // query. So the medians are the lookups' (in due order); the anomaly
  // query's latency shows in read_p99_ms.
  std::vector<double> lookup_ms;
  for (size_t i = 0; i < reads; ++i) {
    if (read_query[i] != 0) lookup_ms.push_back(read_ms[i]);
  }
  MetricSink& m = res.metrics;
  if (!opts.trace) {
    m.Set("setup_s", Median(setup_s), "s");
    // Open loop: reads answered correctly per second, until the last
    // answer came back; below the offered rate once the node falls behind.
    m.Set("read_qps",
          static_cast<double>(reads_ok) /
              std::max(SecondsBetween(start, last_done), 1e-9),
          "1/s");
    m.Set("read_p50_ms", PercentileOfThirds(lookup_ms, 50), "ms");
    m.Set("read_p90_ms", PercentileOfThirds(read_ms, 90), "ms");
    m.Set("write_p50_ms", PercentileOfThirds(ws.latency_ms, 50), "ms");
    m.Set("store_bytes_per_triple", Median(ws.bytes_per_triple), "B");
  } else {
    // Reads due in the first half ran untraced.
    const auto mid =
        lookup_ms.begin() + static_cast<std::ptrdiff_t>(lookup_ms.size() / 2);
    const double untraced =
        Median(std::vector<double>(lookup_ms.begin(), mid));
    const double traced = Median(std::vector<double>(mid, lookup_ms.end()));
    m.Set("bench.tracing_overhead_ratio",
          untraced > 0 ? traced / untraced : 0.0, "ratio");
    m.Set("bench.traced_read_p50_ms", traced, "ms");
    m.Set("bench.untraced_read_p50_ms", untraced, "ms");
    // The tails move too much from run to run on a shared host to carry a
    // bound, so they are reported here, over the whole run (half of it
    // traced); a 30-second run has 300 ticks, three of them beyond
    // write_p99_ms.
    m.Set("read_p99_ms", Percentile(read_ms, 99), "ms");
    m.Set("write_p99_ms", Percentile(ws.latency_ms, 99), "ms");
    std::vector<double> lag = read_lag_ms;
    lag.insert(lag.end(), ws.lag_ms.begin(), ws.lag_ms.end());
    m.Set("bench.generator_lag_p99_ms", Percentile(lag, 99), "ms");

    m.Set("serve.queue_wait_p99_ms",
          HistMs(reg, "serve_queue_wait_seconds", 99), "ms");
    m.Set("serve.execute_p50_ms", HistMs(reg, "serve_execute_seconds", 50),
          "ms");
    const double plan_hits = CounterValue(reg, "serve_plan_cache_hits_total");
    const double plan_miss =
        CounterValue(reg, "serve_plan_cache_misses_total");
    m.Ratio("serve.plan_cache_hit_ratio", plan_hits, plan_hits + plan_miss,
            "serve.plan_cache_hits", "serve.plan_cache_lookups");
    const double res_hits =
        CounterValue(reg, "serve_result_cache_hits_total");
    const double res_miss =
        CounterValue(reg, "serve_result_cache_misses_total");
    m.Ratio("serve.result_cache_hit_ratio", res_hits, res_hits + res_miss,
            "serve.result_cache_hits", "serve.result_cache_lookups");
    m.Set("serve.rejected", CounterValue(reg, "serve_rejected_total"),
          "count");

    m.Set("core.insert_ms", Median(Trace::SelfMs("core.insert")), "ms");
    m.Set("core.remove_ms", Median(Trace::SelfMs("core.remove")), "ms");
    m.Set("core.isolation_fork_ms",
          HistMs(reg, "snapshot_isolation_fork_seconds", 50), "ms");
    m.Set("core.fold_s", HistMs(reg, "compaction_fold_seconds", 50) / 1e3,
          "s");
    m.Set("core.folds", CounterValue(reg, "compactions_total") - folds0,
          "count");
    for (const char* stage : {"dict", "pso", "datatype", "type"}) {
      m.Set(std::string("core.build_s.") + stage,
            HistMs(reg,
                   (std::string("compaction_build_") + stage + "_seconds")
                       .c_str(),
                   50) /
                1e3,
            "s");
    }

    m.Set("io.wal_sync_us", HistMs(reg, "wal_sync_seconds", 50) * 1e3, "us");
    const double wal_bytes = static_cast<double>(
        CounterValue(reg, "wal_bytes_appended_total") - wal_bytes0);
    const double dev_bytes = static_cast<double>(
        (CounterValue(reg, "block_device_writes_total") - dev_writes0) *
        sedge::io::kBlockSize);
    m.Ratio("io.wal_bytes_per_user_byte", wal_bytes,
            static_cast<double>(user_bytes), "io.wal_bytes", "io.user_bytes");
    m.Set("io.device_bytes_per_user_byte",
          user_bytes > 0 ? dev_bytes / static_cast<double>(user_bytes) : 0.0,
          "ratio");
    m.Set("io.device_bytes", dev_bytes, "count");
    m.Set("io.checkpoint_ms", HistMs(reg, "checkpoint_seconds", 50), "ms");
    m.Set("io.checkpoints",
          CounterValue(reg, "checkpoints_total") - checkpoints0, "count");

    m.Set("store.delta_entries_max", ws.delta_entries_max, "count");
    m.Set("store.tombstone_ratio_max", ws.tombstone_ratio_max, "ratio");
    bool ok = true;
    const std::string sosa = kSosa;
    const std::string qudt = kQudt;
    if (ws.max_delta_snapshot != nullptr) {
      ok = ProbeOverlayScan(ws.max_delta_snapshot->store(),
                            {sosa + "observes", sosa + "hasResult",
                             qudt + "unit"},
                            {sosa + "resultTime", qudt + "numericValue"}, &m);
    }
    const auto final_snap = db.snapshot();
    ScanPredicates preds;
    preds.scan_p_object = sosa + "observes";
    preds.scan_p_datatype = qudt + "numericValue";
    preds.object_preds = {sosa + "observes", sosa + "hasResult",
                          qudt + "unit", sosa + "hosts"};
    preds.type_classes = {sosa + "Observation", sosa + "Result"};
    ok = ProbeSds(final_snap->store(), opts.seed, &m) && ok;
    ok = ProbeStoreScans(final_snap->store(), preds, opts.seed, &m) && ok;
    ok = ProbeLitemat(final_snap->store(), opts.seed, &m) && ok;
    for (const char* layer : {"sparql", "query", "dist"}) {
      ReportUnmeasured(layer, &m);
    }
    if (!ok) {
      res.correct = false;
      res.note = "a layer probe read a wrong value";
    }
  }

  if (res.ops.wrong > 0 || res.ops.errors > 0) {
    res.correct = false;
    res.note = std::to_string(res.ops.wrong) + " wrong answer(s), " +
               std::to_string(res.ops.errors) + " error(s)";
  }
  return res;
}

}  // namespace perfbench
