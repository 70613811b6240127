// Snapshot-isolation property test for the concurrent query service.
//
// N service readers issue sensor-workload queries (single-TP scans, a
// star join, an rdf:type scan, and the Section-2 reasoning + BIND +
// FILTER anomaly query) while a writer streams observation batches,
// ages out old batches with Remove(), and kicks off CompactAsync() folds.
// Every response must equal a single-threaded oracle evaluated at the
// response's pinned write watermark (StoreGeneration::writes()): the
// writer records the logical triple set after each batch, and each
// sampled (watermark, query, result) is re-executed on a fresh database
// loaded with exactly that state. Any torn read, lost batch, or
// mis-published snapshot breaks the equality.
//
// The sweep runs kRounds independent rounds (fresh database, seeds
// varied) so thread interleavings differ; the whole file runs under the
// TSan CI job as well.
//
// The observation vocabulary is entirely ontology-known (see
// SensorGraphGenerator::BuildOntology), so a compaction re-encode changes
// physical ids but never decoded results — which is what makes "equal
// watermark => equal result set" hold across generation swaps.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "serve/query_service.h"
#include "workloads/sensor_generator.h"

namespace sedge {
namespace {

constexpr int kRounds = 100;
constexpr int kBatchesPerRound = 10;
constexpr int kClients = 3;
constexpr int kQueriesPerClient = 8;

std::vector<std::string> ServeQueries() {
  return {
      // Single-TP scan over a datatype property.
      "SELECT ?o ?t WHERE { ?o <http://www.w3.org/ns/sosa/resultTime> ?t }",
      // Subject-subject star join (the merge-join fast path).
      "SELECT ?s ?o ?r WHERE { "
      "?s <http://www.w3.org/ns/sosa/observes> ?o . "
      "?o <http://www.w3.org/ns/sosa/hasResult> ?r . "
      "?o <http://www.w3.org/ns/sosa/resultTime> ?t }",
      // rdf:type scan.
      "SELECT ?obs WHERE { ?obs a <http://www.w3.org/ns/sosa/Observation> }",
      // Reasoning + BIND + FILTER: the paper's anomaly query.
      workloads::SensorGraphGenerator::PressureAnomalyQuery(),
  };
}

/// Order-independent rendering of a result set (rows sorted, duplicates
/// kept) — executor row order is not part of the contract.
std::string Canonical(const sparql::QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::string r;
    for (const auto& cell : row) {
      r += cell.has_value() ? cell->ToNTriples() : "UNBOUND";
      r += '\t';
    }
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& r : rows) {
    out += r;
    out += '\n';
  }
  return out;
}

rdf::Graph GraphFromSet(const std::set<rdf::Triple>& triples) {
  rdf::Graph g;
  for (const rdf::Triple& t : triples) g.Add(t.subject, t.predicate, t.object);
  return g;
}

struct Sample {
  uint64_t writes;
  size_t query;
  std::string canonical;
};

void RunRound(int round) {
  workloads::SensorConfig cfg;
  cfg.seed = 7 + static_cast<uint64_t>(round);
  cfg.stations = 2;
  cfg.sensors_per_station = 2;
  cfg.observations_per_sensor = 1;  // 28 triples per batch

  const ontology::Ontology onto =
      workloads::SensorGraphGenerator::BuildOntology();
  const rdf::Graph topology =
      workloads::SensorGraphGenerator::GenerateTopology(cfg);

  Database db;
  db.LoadOntology(onto);
  db.set_compaction_ratio(0);  // the writer triggers async folds itself
  ASSERT_TRUE(db.LoadData(topology).ok());

  serve::ServeOptions sopts;
  sopts.readers = kClients;
  sopts.queue_depth = 64;
  serve::QueryService service(&db, sopts);

  // states[w] = the logical triple set a snapshot at watermark w holds.
  std::vector<std::set<rdf::Triple>> states;
  states.push_back({topology.triples().begin(), topology.triples().end()});

  const std::vector<std::string> queries = ServeQueries();
  std::vector<std::vector<Sample>> samples(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const size_t qidx =
            (static_cast<size_t>(c) + static_cast<size_t>(i) * 3) %
            queries.size();
        serve::QueryService::Response resp =
            service.Execute(queries[qidx]);
        if (!resp.status.ok()) {
          ADD_FAILURE() << "serve error: " << resp.status.ToString();
          continue;
        }
        samples[static_cast<size_t>(c)].push_back(
            {resp.writes, qidx, Canonical(resp.result)});
      }
    });
  }

  // The writer lane: insert observation batches, age out the oldest one
  // now and then, and keep background folds in flight throughout.
  std::vector<rdf::Graph> inserted;
  size_t next_removal = 0;
  for (int k = 1; k <= kBatchesPerRound; ++k) {
    std::set<rdf::Triple> state = states.back();
    if (k % 4 == 0 && next_removal < inserted.size()) {
      const rdf::Graph& victim = inserted[next_removal++];
      ASSERT_TRUE(db.Remove(victim).ok());
      for (const rdf::Triple& t : victim.triples()) state.erase(t);
    } else {
      const rdf::Graph batch =
          workloads::SensorGraphGenerator::GenerateObservationBatch(cfg, k);
      ASSERT_TRUE(db.Insert(batch).ok());
      state.insert(batch.triples().begin(), batch.triples().end());
      inserted.push_back(batch);
    }
    states.push_back(std::move(state));
    if (k % 3 == 0) {
      ASSERT_TRUE(db.CompactAsync().ok());
    }
  }

  for (std::thread& t : clients) t.join();
  service.Shutdown();
  ASSERT_TRUE(db.WaitForCompaction().ok());

  // Single-threaded oracle: rebuild each observed watermark's state from
  // scratch (never compacted, never concurrent) and compare result sets.
  std::map<uint64_t, std::unique_ptr<Database>> oracles;
  for (const auto& client_samples : samples) {
    for (const Sample& s : client_samples) {
      ASSERT_LT(s.writes, states.size());
      std::unique_ptr<Database>& oracle = oracles[s.writes];
      if (oracle == nullptr) {
        oracle = std::make_unique<Database>();
        oracle->LoadOntology(onto);
        oracle->set_compaction_ratio(0);
        ASSERT_TRUE(oracle->LoadData(GraphFromSet(states[s.writes])).ok());
      }
      Result<sparql::QueryResult> expected =
          oracle->Query(queries[s.query]);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      EXPECT_EQ(Canonical(expected.value()), s.canonical)
          << "round " << round << ", watermark " << s.writes << ", query #"
          << s.query;
    }
  }

  // The final state must also converge exactly.
  Database final_oracle;
  final_oracle.LoadOntology(onto);
  ASSERT_TRUE(final_oracle.LoadData(GraphFromSet(states.back())).ok());
  for (const std::string& q : queries) {
    Result<sparql::QueryResult> got = db.Query(q);
    Result<sparql::QueryResult> want = final_oracle.Query(q);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(Canonical(want.value()), Canonical(got.value()));
  }
}

TEST(ConcurrentServeProperty, ReadersMatchPinnedWatermarkOracle) {
  for (int round = 0; round < kRounds; ++round) {
    RunRound(round);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "stopping after first failing round (" << round << ")";
    }
  }
}

}  // namespace
}  // namespace sedge
