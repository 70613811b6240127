// Concurrent serving bench: aggregate QPS and request-latency percentiles
// of serve::QueryService at 1 -> 2 -> 4 -> 8 reader threads, with a live
// writer lane streaming sensor observation batches and CompactAsync()
// folds in flight the whole time.
//
// Correctness is checked alongside throughput: the query mix (LUBM S11-S15
// fixed-predicate scans plus the M1-M5 BGPs) touches none of the sensor
// vocabulary the writer inserts, so every response must report exactly the
// row count computed single-threaded before the run started — at any write
// watermark and across any number of generation swaps. A wrong-result
// checksum means a torn read or a mis-published snapshot.
//
// Per reader count the JSONL row carries QPS, p50/p99/max from the
// serve_request_seconds histogram in Database::metrics(), result-cache
// hit rate, writer batches applied, and folds completed; a final record
// reports the 4-vs-1 reader scaling factor.
//
// `--smoke` runs the 4-reader cell only and exits non-zero unless
//   (a) every response matched its precomputed checksum,
//   (b) the merge-join fast path served the star joins
//       (ExecutorStats.merge_join_extends > 0), and
//   (c) writer batches and at least one async fold completed during the
//       measurement window — i.e. the serve path was actually concurrent
//       with writes and swaps, not quiesced.

#include <atomic>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "serve/query_service.h"
#include "workloads/lubm_queries.h"

namespace {

struct CellResult {
  double qps = 0.0;
  uint64_t mismatches = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sedge;

  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  // ~10K-triple LUBM base: big enough that queries do real work, small
  // enough that a cell finishes in about a second.
  rdf::Graph base = bench::LubmFull();
  base.Truncate(10000);
  const ontology::Ontology onto = workloads::LubmGenerator::BuildOntology();

  std::vector<workloads::QuerySpec> mix = workloads::LubmQueries::SingleP();
  for (workloads::QuerySpec& m : workloads::LubmQueries::Multi(base)) {
    mix.push_back(std::move(m));
  }

  workloads::SensorConfig sensor_cfg;
  sensor_cfg.stations = 2;
  sensor_cfg.sensors_per_station = 2;
  sensor_cfg.observations_per_sensor = 2;

  const double window_ms = smoke ? 800.0 : 1500.0;
  const std::vector<int> reader_counts =
      smoke ? std::vector<int>{4} : std::vector<int>{1, 2, 4, 8};

  std::printf("=== Concurrent serve (LUBM %zu triples, %zu-query mix, "
              "%.0f ms window, live sensor writer + async folds) ===\n",
              base.size(), mix.size(), window_ms);
  bench::PrintRow("readers",
                  {"qps", "p50 ms", "p99 ms", "cache hit%", "batches",
                   "folds", "bad rows"});

  std::map<int, CellResult> cells;
  for (const int readers : reader_counts) {
    Database db;
    db.set_reasoning(false);
    db.LoadOntology(onto);
    SEDGE_CHECK(db.LoadData(base).ok());
    db.set_compaction_ratio(0);  // the writer lane triggers folds itself

    // Single-threaded ground truth, computed before any concurrency: the
    // writer's sensor vocabulary is disjoint from every query in the mix,
    // so these counts are invariant for the whole run.
    std::vector<uint64_t> expected;
    expected.reserve(mix.size());
    for (const workloads::QuerySpec& spec : mix) {
      const auto r = db.QueryCount(spec.sparql);
      SEDGE_CHECK(r.ok()) << spec.id << ": " << r.status().ToString();
      expected.push_back(r.value());
    }
    db.reset_query_stats();

    serve::ServeOptions sopts;
    sopts.readers = readers;
    sopts.queue_depth = 256;
    sopts.decode_results = false;  // count-style: measure the engine, not
                                   // the dictionary decode
    serve::QueryService service(&db, sopts);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> mismatches{0};

    // Closed-loop clients: 2 per reader keeps every reader busy without
    // flooding the admission queue.
    std::vector<std::thread> clients;
    const int n_clients = 2 * readers;
    for (int c = 0; c < n_clients; ++c) {
      clients.emplace_back([&, c] {
        size_t q = static_cast<size_t>(c) % mix.size();
        while (!stop.load(std::memory_order_relaxed)) {
          const serve::QueryService::Response resp =
              service.Execute(mix[q].sparql);
          if (resp.status.ok()) {
            if (resp.rows != expected[q]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
            completed.fetch_add(1, std::memory_order_relaxed);
          } else {
            rejected.fetch_add(1, std::memory_order_relaxed);
          }
          q = (q + 1) % mix.size();
        }
      });
    }

    // Writer lane: observation batches (novel vocabulary, admitted
    // provisionally) with a background fold kicked off every third batch,
    // so generation swaps and result-cache invalidations happen mid-run.
    uint64_t batches = 0;
    uint64_t folds = 0;
    WallTimer window;
    while (window.ElapsedMillis() < window_ms) {
      const rdf::Graph batch =
          workloads::SensorGraphGenerator::GenerateObservationBatch(
              sensor_cfg, static_cast<int>(batches));
      SEDGE_CHECK(db.Insert(batch).ok());
      ++batches;
      if (batches % 3 == 0 && !db.compaction_in_flight()) {
        SEDGE_CHECK(db.CompactAsync().ok());
        ++folds;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
    for (std::thread& t : clients) t.join();
    const double elapsed_ms = window.ElapsedMillis();
    service.Shutdown();
    SEDGE_CHECK(db.WaitForCompaction().ok());

    const obs::Histogram* lat =
        db.metrics().GetHistogram("serve_request_seconds");
    const double qps =
        static_cast<double>(completed.load()) / (elapsed_ms * 1e-3);
    const double p50_ms = lat->Percentile(50) * 1e3;
    const double p99_ms = lat->Percentile(99) * 1e3;
    const uint64_t hits =
        db.metrics().GetCounter("serve_result_cache_hits_total")->value();
    const uint64_t misses =
        db.metrics().GetCounter("serve_result_cache_misses_total")->value();
    const double hit_rate =
        hits + misses > 0
            ? 100.0 * static_cast<double>(hits) /
                  static_cast<double>(hits + misses)
            : 0.0;
    cells[readers] = {qps, mismatches.load()};

    char label[16];
    std::snprintf(label, sizeof(label), "%d", readers);
    bench::PrintRow(label,
                    {bench::FormatMs(qps), bench::FormatMs(p50_ms),
                     bench::FormatMs(p99_ms), bench::FormatMs(hit_rate),
                     std::to_string(batches), std::to_string(folds),
                     std::to_string(mismatches.load())});
    bench::PrintJsonRecord(
        "concurrent_serve", label,
        {{"readers", static_cast<double>(readers)},
         {"clients", static_cast<double>(n_clients)},
         {"qps", qps},
         {"p50_ms", p50_ms},
         {"p99_ms", p99_ms},
         {"max_ms", lat->max() * 1e3},
         {"completed", static_cast<double>(completed.load())},
         {"rejected", static_cast<double>(rejected.load())},
         {"mismatches", static_cast<double>(mismatches.load())},
         {"result_cache_hit_rate", hit_rate},
         {"result_cache_invalidations",
          static_cast<double>(
              db.metrics()
                  .GetCounter("serve_result_cache_invalidations_total")
                  ->value())},
         {"writer_batches", static_cast<double>(batches)},
         {"async_folds", static_cast<double>(folds)},
         {"isolation_forks",
          static_cast<double>(
              db.metrics()
                  .GetCounter("snapshot_isolation_forks_total")
                  ->value())},
         {"merge_join_extends",
          static_cast<double>(db.query_stats().merge_join_extends)}});

    if (smoke) {
      SEDGE_CHECK(mismatches.load() == 0)
          << mismatches.load() << " response(s) diverged from the "
          << "single-threaded checksum under concurrent writes";
      SEDGE_CHECK(db.query_stats().merge_join_extends > 0)
          << "star joins never took the merge-join fast path";
      SEDGE_CHECK(batches > 0 && folds > 0)
          << "writer lane idle: the cell was not actually concurrent";
      SEDGE_CHECK(completed.load() > 0) << "no request completed";
      std::printf("SMOKE OK: %llu responses at %d readers, all matching "
                  "the precomputed checksums; %llu writer batches and "
                  "%llu async fold(s) live during the window\n",
                  static_cast<unsigned long long>(completed.load()),
                  readers, static_cast<unsigned long long>(batches),
                  static_cast<unsigned long long>(folds));
    }
  }

  if (!smoke && cells.count(1) != 0 && cells.count(4) != 0 &&
      cells[1].qps > 0.0) {
    const unsigned cores = std::thread::hardware_concurrency();
    const double scaling = cells[4].qps / cells[1].qps;
    std::printf("4-reader scaling vs 1 reader: %.2fx (%u hardware "
                "thread(s))\n",
                scaling, cores);
    if (cores < 4) {
      // Readers are CPU-bound; with fewer cores than readers the cell
      // measures scheduler share against the writer lane, not parallel
      // query execution — the scaling figure is a floor, not the
      // service's capacity.
      std::printf("note: %u core(s) < 4 readers — parallel scaling is "
                  "core-bound on this machine\n",
                  cores);
    }
    bench::PrintJsonRecord("concurrent_serve", "scaling",
                           {{"qps_1", cells[1].qps},
                            {"qps_4", cells[4].qps},
                            {"scaling_4_vs_1", scaling},
                            {"hardware_threads", static_cast<double>(cores)}});
  }
  return 0;
}
