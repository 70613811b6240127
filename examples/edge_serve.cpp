// Edge serve: a minimal network front end over serve::QueryService.
//
// One process = one edge store + a line-delimited TCP endpoint:
//
//   $ ./build/edge_serve 8765 &
//   $ printf 'SELECT ?o WHERE { ?o a <http://www.w3.org/ns/sosa/Observation> }\n' | nc localhost 8765
//   <one tab-separated N-Triples row per solution>
//   # rows=160 generation=1 writes=0 cache_hit=0
//
// Protocol: each request is one line. A SPARQL SELECT returns its
// solutions (one row per line, terms tab-separated, UNBOUND for unbound
// cells) followed by a `# rows=... generation=... writes=... cache_hit=...`
// trailer: the epoch the answer is consistent with, and whether the
// service's result cache served it (cache_hit=1: no parse, no
// execution; until the serve plan cache was removed the field reported
// a plan-cache hit);
// the literal line `!metrics` returns the engine's full Prometheus
// exposition (the serve_* series included) terminated by `# end`; parse
// and execution errors come back as a single `# error: ...` line. Every
// connection gets its own thread, but all of them funnel into the
// service's bounded admission queue — overload shows up as an explicit
// `# error: ResourceExhausted ...` trailer, not an unbounded tail.
//
// The store serves the Section 4 sensor deployment (topology + a stream
// of observation batches) and keeps a writer loop alive in the
// background, so clients see snapshot-isolated results while batches
// land and background folds swap generations underneath them.
//
// `--shards K` serves the same deployment through a dist::Coordinator: K
// subject-hash shards, queries decomposed and fanned out per shard,
// writes routed through the partitioner — behind the same QueryService
// serve path. `!metrics` then exports the coordinator registry — the
// dist_* series (fan-out, pushdown ratio, join path, skew) next to the
// same serve_* series (generation= is then the coordinator's content
// version and writes= stays 0).
//
// `--selftest` starts the server on an ephemeral port, runs a loopback
// client through a query / repeat / live-write / query-again / !metrics
// sequence, and exits non-zero on any mismatch: a repeat at an unchanged
// epoch must report cache_hit=1, the first answer that sees a live write
// cache_hit=0 with a larger generation= or writes=. The examples CI
// target runs it headless (in both single-store and --shards modes).
//
//   $ ./build/edge_serve [port] [--readers N] [--shards K] [--selftest]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "dist/coordinator.h"
#include "obs/metrics.h"
#include "serve/query_service.h"
#include "workloads/sensor_generator.h"

namespace {

using sedge::serve::QueryService;

/// Reads one '\n'-terminated line from `fd` into `line` (newline
/// stripped). Returns false on EOF/error with nothing buffered.
bool ReadLine(int fd, std::string* buffer, std::string* line) {
  for (;;) {
    const size_t pos = buffer->find('\n');
    if (pos != std::string::npos) {
      line->assign(*buffer, 0, pos);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      buffer->erase(0, pos + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

std::string RenderResponse(const QueryService::Response& resp) {
  if (!resp.status.ok()) {
    return "# error: " + resp.status.ToString() + "\n";
  }
  std::string out;
  for (const auto& row : resp.result.rows) {
    std::string r;
    for (const auto& cell : row) {
      if (!r.empty()) r += '\t';
      r += cell.has_value() ? cell->ToNTriples() : "UNBOUND";
    }
    out += r;
    out += '\n';
  }
  out += "# rows=" + std::to_string(resp.rows) +
         " generation=" + std::to_string(resp.generation) +
         " writes=" + std::to_string(resp.writes) +
         " cache_hit=" + (resp.result_cache_hit ? "1" : "0") + "\n";
  return out;
}

void ServeConnection(int fd, sedge::obs::MetricsRegistry* metrics,
                     QueryService* service) {
  std::string buffer;
  std::string line;
  while (ReadLine(fd, &buffer, &line)) {
    if (line.empty()) continue;
    if (line == "!metrics") {
      if (!WriteAll(fd, metrics->ExportPrometheus()) ||
          !WriteAll(fd, "# end\n")) {
        break;
      }
      continue;
    }
    if (!WriteAll(fd, RenderResponse(service->Execute(line)))) break;
  }
  ::close(fd);
}

int Fail(const char* what) {
  std::fprintf(stderr, "edge_serve: %s: %s\n", what, std::strerror(errno));
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sedge;

  int port = 8765;
  int readers = 4;
  int shards = 0;  // 0 = single store; K > 0 = coordinator over K shards
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0) {
      selftest = true;
    } else if (std::strcmp(argv[i], "--readers") == 0 && i + 1 < argc) {
      readers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else {
      port = std::atoi(argv[i]);
    }
  }
  if (selftest) port = 0;  // ephemeral

  // The Section 4 sensor deployment: broadcast ontology, station/sensor
  // topology, and a first day of observations — loaded into either one
  // edge store or a K-shard coordinator.
  workloads::SensorConfig cfg;
  cfg.stations = 4;
  cfg.sensors_per_station = 4;
  cfg.observations_per_sensor = 10;
  std::unique_ptr<Database> db;
  std::unique_ptr<dist::Coordinator> sharded;
  if (shards > 0) {
    dist::CoordinatorOptions coordinator_options;
    coordinator_options.partition.shards = shards;
    sharded = std::make_unique<dist::Coordinator>(coordinator_options);
    sharded->LoadOntology(workloads::SensorGraphGenerator::BuildOntology());
  } else {
    db = std::make_unique<Database>();
    db->LoadOntology(workloads::SensorGraphGenerator::BuildOntology());
  }
  {
    rdf::Graph graph = workloads::SensorGraphGenerator::GenerateTopology(cfg);
    graph.Merge(
        workloads::SensorGraphGenerator::GenerateObservationBatch(cfg, 0));
    const Status st =
        sharded != nullptr ? sharded->LoadData(graph) : db->LoadData(graph);
    if (!st.ok()) {
      std::fprintf(stderr, "edge_serve: load: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  QueryBackend* backend = sharded != nullptr
                              ? static_cast<QueryBackend*>(sharded.get())
                              : db.get();
  obs::MetricsRegistry& metrics = backend->metrics();

  serve::ServeOptions options;
  options.readers = readers;
  auto service = std::make_unique<serve::QueryService>(backend, options);

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) return Fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Fail("bind");
  }
  if (::listen(listen_fd, 16) < 0) return Fail("listen");
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port = ntohs(addr.sin_port);
  std::printf("edge_serve: %d reader(s)%s on 127.0.0.1:%d "
              "(one SPARQL SELECT per line; \"!metrics\" for Prometheus)\n",
              readers,
              shards > 0 ? (" over " + std::to_string(shards) + " shard(s)")
                               .c_str()
                         : "",
              port);

  // The writer lane: a background loop streaming observation batches so
  // the endpoint demonstrates reads concurrent with writes and folds
  // (routed through the partitioner in --shards mode, with per-shard
  // folds rotating so re-encode epochs roll independently).
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int batch = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      const rdf::Graph obs_batch =
          workloads::SensorGraphGenerator::GenerateObservationBatch(cfg,
                                                                    batch);
      const Status st = sharded != nullptr ? sharded->Insert(obs_batch)
                                           : db->Insert(obs_batch);
      if (!st.ok()) {
        std::fprintf(stderr, "edge_serve: insert: %s\n",
                     st.ToString().c_str());
        break;
      }
      ++batch;
      if (batch % 8 == 0) {
        if (sharded != nullptr) {
          (void)sharded->CompactShardAsync((batch / 8) %
                                           sharded->num_shards());
        } else if (!db->compaction_in_flight()) {
          (void)db->CompactAsync();
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  });

  std::vector<std::thread> connections;
  std::thread acceptor([&] {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;  // listen socket closed: shutting down
      connections.emplace_back(ServeConnection, fd, &metrics, service.get());
    }
  });

  int rc = 0;
  if (selftest) {
    // Loopback client: query, watch a live write land, scrape metrics.
    const auto connect_fd = [&] {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      return fd;
    };
    const std::string count_query =
        "SELECT ?o WHERE { ?o a <http://www.w3.org/ns/sosa/Observation> }\n";
    const int fd = connect_fd();
    std::string buffer;
    std::string line;
    // The `# rows=... generation=... writes=... cache_hit=...` trailer of
    // one response; rows = -1 on an error or a closed connection.
    struct Trailer {
      long rows = -1;
      unsigned long long generation = 0;
      unsigned long long writes = 0;
      int cache_hit = -1;
      bool SameEpoch(const Trailer& o) const {
        return generation == o.generation && writes == o.writes;
      }
    };
    const auto ask = [&]() -> Trailer {
      Trailer t;
      WriteAll(fd, count_query);
      while (ReadLine(fd, &buffer, &line)) {
        if (line.rfind("# error", 0) == 0) return t;
        if (line.rfind("# rows=", 0) == 0) {
          if (std::sscanf(line.c_str(),
                          "# rows=%ld generation=%llu writes=%llu "
                          "cache_hit=%d",
                          &t.rows, &t.generation, &t.writes,
                          &t.cache_hit) != 4) {
            t.rows = -1;
          }
          break;
        }
      }
      return t;
    };
    const Trailer first = ask();
    const long before = first.rows;
    // A repeat at an unchanged epoch must come from the result cache.
    // An answer at the epoch of the answer before it was also looked up
    // at that epoch, so it was stored; the next answer at the same epoch
    // is then a hit. The background writer lands a batch every 250 ms,
    // so retry until three answers in a row share an epoch.
    bool repeat_hit = false;
    Trailer prev = first;
    int run = 1;  // consecutive answers at prev's epoch
    for (int i = 0; i < 20; ++i) {
      const Trailer next = ask();
      run = next.rows >= 0 && next.SameEpoch(prev) ? run + 1 : 1;
      prev = next;
      if (run == 3) {
        repeat_hit = next.cache_hit == 1;
        break;
      }
    }
    // Within a few seconds the observation count must grow; the first
    // answer that sees the write is computed afresh at a later epoch.
    const long settled = prev.rows;
    long after = settled;
    bool fresh_after_write = false;
    for (int i = 0; i < 40 && after <= settled; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      const Trailer next = ask();
      after = next.rows;
      if (after > settled) {
        fresh_after_write =
            next.cache_hit == 0 && (next.generation > prev.generation ||
                                    next.writes > prev.writes);
      }
      prev = next;
    }
    WriteAll(fd, "!metrics\n");
    bool saw_serve_series = false;
    bool saw_dist_series = false;
    while (ReadLine(fd, &buffer, &line) && line != "# end") {
      if (line.rfind("serve_requests_total", 0) == 0) {
        saw_serve_series = true;
      }
      if (line.rfind("dist_queries_total", 0) == 0) {
        saw_dist_series = true;
      }
    }
    ::close(fd);
    const bool ok = before > 0 && after > before && repeat_hit &&
                    fresh_after_write && saw_serve_series &&
                    (shards == 0 || saw_dist_series);
    std::printf("selftest: %ld observations, repeat %s, %ld after live "
                "writes (%s), serve_* series %s%s -> %s\n",
                before, repeat_hit ? "cache_hit=1" : "NOT CACHED", after,
                fresh_after_write ? "cache_hit=0 at a later epoch"
                                  : "NOT FRESH",
                saw_serve_series ? "exported" : "MISSING",
                shards > 0 ? (saw_dist_series ? ", dist_* series exported"
                                              : ", dist_* series MISSING")
                           : "",
                ok ? "OK" : "FAILED");
    rc = ok ? 0 : 1;
  } else {
    acceptor.join();  // foreground server: run until killed
  }

  stop.store(true);
  // shutdown() (not just close()) wakes the thread blocked in accept().
  ::shutdown(listen_fd, SHUT_RDWR);
  ::close(listen_fd);
  if (acceptor.joinable()) acceptor.join();
  for (std::thread& t : connections) t.join();
  writer.join();
  service->Shutdown();
  if (sharded != nullptr) {
    (void)sharded->WaitForCompactions();
  } else {
    (void)db->WaitForCompaction();
  }
  return rc;
}
