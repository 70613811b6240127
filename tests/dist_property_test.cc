// Distributed-query property test: a K-shard Coordinator must be
// indistinguishable from one Database loaded with the union graph.
//
// Phase 1 (deterministic): a 3-shard coordinator and a single-store
// oracle ingest the same LUBM stream — bulk base load, then insert
// batches, a removal wave, and per-shard background folds left in
// flight. At every quiescent point (writes applied to both, folds may
// still be running — a fold re-encodes ids but preserves content) every
// query of the LUBM mix (S11-S15, M1-M5, R1-R6; reasoning toggled per
// spec exactly as the paper's benches do) must return the identical
// solution set. This crosses every dist seam at once: subject-star
// decomposition, per-shard LiteMat reasoning, term-map reconciliation
// across re-encode epochs, coordinator hash/merge joins, and routed
// writes.
//
// Phase 2 (concurrent): client threads hammer a QueryService over a
// dist::Coordinator while a writer streams batches and kicks per-shard
// async folds. Every response must be OK (or a clean queue rejection),
// and after shutdown the quiesced coordinator must still equal an
// oracle holding the final content. Runs under the TSan CI job, where
// the interesting interleavings live.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "dist/coordinator.h"
#include "rdf/term.h"
#include "rdf/triple.h"
#include "serve/query_service.h"
#include "workloads/lubm_generator.h"
#include "workloads/lubm_queries.h"

namespace sedge {
namespace {

using dist::Coordinator;
using dist::CoordinatorOptions;
using dist::PartitionPolicy;
using workloads::LubmGenerator;
using workloads::LubmQueries;
using workloads::QuerySpec;

constexpr int kShards = 3;

/// Order-independent rendering of a result set (rows sorted, duplicates
/// kept) — row order is not part of either engine's contract.
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

rdf::Graph SmallLubm() {
  workloads::LubmConfig config;
  config.seed = 7;
  config.universities = 1;
  config.departments_per_university = 2;
  return LubmGenerator::Generate(config);
}

/// The evaluation mix with constants picked from the *full* graph, so
/// specs stay meaningful at every point of the stream (early on some
/// answer sets are simply smaller — both engines must agree anyway).
std::vector<QuerySpec> Mix(const rdf::Graph& full) {
  std::vector<QuerySpec> mix = LubmQueries::SingleP();
  for (auto& q : LubmQueries::Multi(full)) mix.push_back(std::move(q));
  for (auto& q : LubmQueries::Reasoning(full)) mix.push_back(std::move(q));
  return mix;
}

void ExpectAgreement(Coordinator& coord, Database& oracle,
                     const std::vector<QuerySpec>& mix,
                     const std::string& point) {
  for (const QuerySpec& spec : mix) {
    coord.set_reasoning(spec.reasoning);
    oracle.set_reasoning(spec.reasoning);
    const auto want = oracle.Query(spec.sparql);
    const auto got = coord.Query(spec.sparql);
    ASSERT_TRUE(want.ok()) << point << " oracle " << spec.id;
    ASSERT_TRUE(got.ok()) << point << " coordinator " << spec.id << " — "
                          << got.status().message();
    ASSERT_EQ(Canonical(got.value()), Canonical(want.value()))
        << point << " " << spec.id << ": " << spec.sparql;
  }
}

TEST(DistProperty, CoordinatorMatchesUnionOracleUnderWritesAndFolds) {
  const rdf::Graph full = SmallLubm();
  const std::vector<QuerySpec> mix = Mix(full);

  // Stream split: 70% bulk base, then three 10% insert batches.
  const size_t n = full.triples().size();
  const size_t base_end = n * 7 / 10;
  rdf::Graph base;
  for (size_t i = 0; i < base_end; ++i) base.Add(full.triples()[i]);

  CoordinatorOptions opts;
  opts.partition.policy = PartitionPolicy::kSubjectHash;
  opts.partition.shards = kShards;
  Coordinator coord(opts);
  coord.set_snapshot_isolation(true);
  coord.set_async_compaction(true);
  coord.set_compaction_ratio(0.0);  // folds only where the test kicks them
  coord.LoadOntology(LubmGenerator::BuildOntology());
  ASSERT_TRUE(coord.LoadData(base).ok());

  Database oracle;
  oracle.set_snapshot_isolation(true);
  oracle.set_compaction_ratio(0.0);
  oracle.LoadOntology(LubmGenerator::BuildOntology());
  ASSERT_TRUE(oracle.LoadData(base).ok());

  ExpectAgreement(coord, oracle, mix, "after base load");

  for (int round = 0; round < 3; ++round) {
    const size_t lo = base_end + static_cast<size_t>(round) * (n - base_end) / 3;
    const size_t hi =
        base_end + static_cast<size_t>(round + 1) * (n - base_end) / 3;
    rdf::Graph batch;
    for (size_t i = lo; i < hi; ++i) batch.Add(full.triples()[i]);
    ASSERT_TRUE(oracle.Insert(batch).ok());
    ASSERT_TRUE(coord.Insert(batch).ok());
    // Fold one shard per round and leave it in flight: content is
    // preserved, so agreement must hold while ids re-encode underneath.
    ASSERT_TRUE(coord.CompactShardAsync(round % kShards).ok());
    ExpectAgreement(coord, oracle, mix,
                    "after batch " + std::to_string(round));
  }

  // Removal wave: age out a slice of the base.
  rdf::Graph gone;
  for (size_t i = 0; i < base_end; i += 97) gone.Add(full.triples()[i]);
  ASSERT_TRUE(oracle.Remove(gone).ok());
  ASSERT_TRUE(coord.Remove(gone).ok());
  ExpectAgreement(coord, oracle, mix, "after removals");

  // Quiesce: finish in-flight folds, then fold everything synchronously.
  ASSERT_TRUE(coord.WaitForCompactions().ok());
  ASSERT_TRUE(coord.Compact().ok());
  ASSERT_TRUE(oracle.Compact().ok());
  ExpectAgreement(coord, oracle, mix, "after full fold");

  // The folds renumbered shard ids: reconciliation must have happened.
  EXPECT_GT(coord.term_map().refreshes(), 0u);
}

TEST(DistProperty, ConcurrentShardedServeStaysConsistent) {
  const rdf::Graph full = SmallLubm();
  const size_t n = full.triples().size();
  const size_t base_end = n * 8 / 10;
  rdf::Graph base;
  for (size_t i = 0; i < base_end; ++i) base.Add(full.triples()[i]);

  CoordinatorOptions opts;
  opts.partition.shards = kShards;
  Coordinator db(opts);
  db.set_reasoning(false);
  db.set_async_compaction(true);
  db.set_compaction_ratio(0.0);
  db.LoadOntology(LubmGenerator::BuildOntology());
  ASSERT_TRUE(db.LoadData(base).ok());

  // Plain-BGP serve mix (reasoning stays off for the whole phase — the
  // toggle is not meant to race live queries).
  std::vector<std::string> queries;
  for (const QuerySpec& spec : LubmQueries::SingleP()) {
    queries.push_back(spec.sparql);
  }
  for (const QuerySpec& spec : LubmQueries::Multi(full)) {
    queries.push_back(spec.sparql);
  }

  serve::ServeOptions sopts;
  sopts.readers = 3;
  serve::QueryService service(&db, sopts);

  constexpr int kClients = 3;
  constexpr int kQueriesPerClient = 10;
  constexpr int kWriterBatches = 6;

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const auto& q = queries[static_cast<size_t>(c + i * 3) % queries.size()];
        const auto resp = service.Execute(q);
        // OK or a clean queue rejection; anything else is a bug.
        if (!resp.status.ok() &&
            resp.status.code() != StatusCode::kResourceExhausted) {
          failures.fetch_add(1);
        }
      }
    });
  }

  std::thread writer([&] {
    for (int b = 0; b < kWriterBatches; ++b) {
      const size_t lo = base_end + static_cast<size_t>(b) * (n - base_end) /
                                       kWriterBatches;
      const size_t hi = base_end + static_cast<size_t>(b + 1) *
                                       (n - base_end) / kWriterBatches;
      rdf::Graph batch;
      for (size_t i = lo; i < hi; ++i) batch.Add(full.triples()[i]);
      if (!db.Insert(batch).ok()) failures.fetch_add(1);
      if (!db.CompactShardAsync(b % kShards).ok()) failures.fetch_add(1);
    }
  });

  for (auto& t : clients) t.join();
  writer.join();
  service.Shutdown();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced, the coordinator holds exactly the full graph — compare
  // against a fresh oracle.
  ASSERT_TRUE(db.WaitForCompactions().ok());
  Database oracle;
  oracle.set_reasoning(false);
  ASSERT_TRUE(oracle.LoadData(full).ok());
  EXPECT_EQ(db.num_triples(), oracle.num_triples());
  for (const auto& q : queries) {
    const auto want = oracle.Query(q);
    const auto got = db.Query(q);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << got.status().message();
    ASSERT_EQ(Canonical(got.value()), Canonical(want.value())) << q;
  }
}

}  // namespace
}  // namespace sedge
