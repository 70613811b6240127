// serve::QueryService unit tests: admission-queue semantics (bounded
// depth, kResourceExhausted backpressure, clean shutdown draining every
// admitted request), result-cache invalidation across
// Compact()/CompactAsync() swaps, writes and option toggles — over a
// Database and over a 3-shard dist::Coordinator through the same
// constructor — and the serve_* metrics series.
//
// Pause() makes the queue tests deterministic: with the readers held
// idle, admission outcomes depend only on the submit count, never on how
// fast a worker drains.

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "dist/coordinator.h"
#include "ontology/ontology.h"
#include "rdf/vocabulary.h"
#include "serve/query_service.h"

namespace sedge {
namespace {

std::string Iri(const std::string& kind, uint64_t i) {
  return "http://e.org/" + kind + std::to_string(i);
}

rdf::Graph SeedGraph() {
  rdf::Graph seed;
  for (uint64_t s = 0; s < 20; ++s) {
    const rdf::Term subject = rdf::Term::Iri(Iri("s", s));
    seed.Add(subject, rdf::Term::Iri(Iri("p", 0)),
             rdf::Term::Iri(Iri("o", s % 5)));
    seed.Add(subject, rdf::Term::Iri(Iri("dp", 0)),
             rdf::Term::Literal(std::to_string(s)));
    seed.Add(subject, rdf::Term::Iri(rdf::kRdfType),
             rdf::Term::Iri(Iri("C", s % 3)));
  }
  return seed;
}

const char kStarQuery[] =
    "SELECT ?s ?o WHERE { ?s <http://e.org/p0> ?o . "
    "?s <http://e.org/dp0> ?v }";

std::unique_ptr<Database> MakeDatabase() {
  auto db = std::make_unique<Database>();
  db->set_reasoning(false);
  db->set_compaction_ratio(0);  // tests trigger folds explicitly
  EXPECT_TRUE(db->LoadData(SeedGraph()).ok());
  return db;
}

/// The same seed graph over three subject-hash shards.
std::unique_ptr<dist::Coordinator> MakeCoordinator() {
  dist::CoordinatorOptions options;
  options.partition.shards = 3;
  auto coord = std::make_unique<dist::Coordinator>(options);
  coord->set_reasoning(false);
  coord->set_compaction_ratio(0);
  EXPECT_TRUE(coord->LoadData(SeedGraph()).ok());
  return coord;
}

uint64_t CounterValue(const QueryBackend& backend, const std::string& name) {
  return backend.metrics().GetCounter(name)->value();
}

TEST(QueryService, ExecutesQueriesAndRecordsMetrics) {
  auto db = MakeDatabase();
  serve::ServeOptions opts;
  opts.readers = 2;
  serve::QueryService service(db.get(), opts);
  EXPECT_TRUE(db->snapshot_isolation());

  const int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    const serve::QueryService::Response resp = service.Execute(kStarQuery);
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.rows, 20u);
    EXPECT_EQ(resp.result.size(), 20u);
    EXPECT_EQ(resp.generation, db->store_generation());
  }

  // Parse errors come back as responses, counted separately.
  const serve::QueryService::Response bad = service.Execute("SELECT {");
  EXPECT_FALSE(bad.status.ok());

  service.Shutdown();
  EXPECT_EQ(CounterValue(*db, "serve_requests_total"), kRequests + 1u);
  EXPECT_EQ(CounterValue(*db, "serve_completed_total"),
            static_cast<uint64_t>(kRequests));
  EXPECT_EQ(CounterValue(*db, "serve_errors_total"), 1u);
  EXPECT_EQ(CounterValue(*db, "serve_rejected_total"), 0u);
  // Every admitted request went through both latency histograms.
  EXPECT_EQ(db->metrics().GetHistogram("serve_request_seconds")->count(),
            kRequests + 1u);
  EXPECT_EQ(db->metrics().GetHistogram("serve_queue_wait_seconds")->count(),
            kRequests + 1u);
  EXPECT_EQ(db->metrics().GetGauge("serve_queue_depth")->value(), 0.0);
  EXPECT_EQ(db->metrics().GetGauge("serve_readers")->value(), 2.0);
  // The service's executors fold into the database-wide query stats.
  EXPECT_GT(db->query_stats().merge_join_extends +
                db->query_stats().row_extends,
            0u);
}

TEST(QueryService, BoundedQueueRejectsWithBackpressure) {
  auto db = MakeDatabase();
  serve::ServeOptions opts;
  opts.readers = 1;
  opts.queue_depth = 4;
  serve::QueryService service(db.get(), opts);
  service.Pause();  // hold the reader: admission outcomes are exact

  std::vector<std::future<serve::QueryService::Response>> admitted;
  for (size_t i = 0; i < opts.queue_depth; ++i) {
    admitted.push_back(service.Submit(kStarQuery));
  }
  EXPECT_EQ(service.queue_size(), opts.queue_depth);

  // Over depth: immediately-resolved kResourceExhausted, nothing queued.
  for (int i = 0; i < 3; ++i) {
    std::future<serve::QueryService::Response> overflow =
        service.Submit(kStarQuery);
    ASSERT_EQ(overflow.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const serve::QueryService::Response resp = overflow.get();
    EXPECT_TRUE(resp.status.IsResourceExhausted()) << resp.status.ToString();
  }
  EXPECT_EQ(service.queue_size(), opts.queue_depth);
  EXPECT_EQ(CounterValue(*db, "serve_rejected_total"), 3u);
  EXPECT_EQ(CounterValue(*db, "serve_requests_total"), opts.queue_depth);

  service.Resume();
  for (auto& f : admitted) {
    const serve::QueryService::Response resp = f.get();
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.rows, 20u);
  }
  EXPECT_EQ(CounterValue(*db, "serve_completed_total"), opts.queue_depth);
}

TEST(QueryService, ShutdownDrainsAdmittedRequestsThenRejects) {
  auto db = MakeDatabase();
  serve::ServeOptions opts;
  opts.readers = 2;
  opts.queue_depth = 16;
  serve::QueryService service(db.get(), opts);
  service.Pause();

  std::vector<std::future<serve::QueryService::Response>> admitted;
  for (int i = 0; i < 10; ++i) {
    admitted.push_back(service.Submit(kStarQuery));
  }
  EXPECT_EQ(service.queue_size(), 10u);

  // Shutdown resumes the paused readers, drains all ten, then joins.
  service.Shutdown();
  for (auto& f : admitted) {
    const serve::QueryService::Response resp = f.get();
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.rows, 20u);
  }
  EXPECT_EQ(service.queue_size(), 0u);
  EXPECT_EQ(CounterValue(*db, "serve_completed_total"), 10u);

  // Post-shutdown submissions resolve immediately as kUnavailable.
  std::future<serve::QueryService::Response> late =
      service.Submit(kStarQuery);
  ASSERT_EQ(late.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(late.get().status.IsUnavailable());
  EXPECT_EQ(CounterValue(*db, "serve_rejected_total"), 1u);

  service.Shutdown();  // idempotent
}

TEST(QueryService, ResultCacheInvalidatesAcrossCompactionSwaps) {
  auto db = MakeDatabase();
  serve::ServeOptions opts;
  opts.readers = 1;
  serve::QueryService service(db.get(), opts);

  const auto invalidations = [&] {
    return CounterValue(*db, "serve_result_cache_invalidations_total");
  };

  EXPECT_FALSE(service.Execute(kStarQuery).result_cache_hit);
  // A repeat inside the same content epoch short-circuits at the result
  // cache.
  EXPECT_TRUE(service.Execute(kStarQuery).result_cache_hit);

  const auto insert_match = [&](uint64_t s) {
    rdf::Graph batch;
    batch.Add(rdf::Term::Iri(Iri("s", s)), rdf::Term::Iri(Iri("p", 0)),
              rdf::Term::Iri(Iri("o", 1)));
    batch.Add(rdf::Term::Iri(Iri("s", s)), rdf::Term::Iri(Iri("dp", 0)),
              rdf::Term::Literal(std::to_string(s)));
    ASSERT_TRUE(db->Insert(batch).ok());
  };

  // A synchronous fold swaps the base generation: wholesale invalidation.
  insert_match(50);
  const uint64_t gen_before = db->store_generation();
  ASSERT_TRUE(db->Compact().ok());
  ASSERT_GT(db->store_generation(), gen_before);
  const uint64_t invalidated = invalidations();
  const serve::QueryService::Response after_sync =
      service.Execute(kStarQuery);
  EXPECT_FALSE(after_sync.result_cache_hit);
  EXPECT_EQ(after_sync.generation, db->store_generation());
  EXPECT_EQ(invalidations(), invalidated + 1);
  EXPECT_TRUE(service.Execute(kStarQuery).result_cache_hit);

  // An async fold's swap invalidates the same way.
  insert_match(51);
  ASSERT_TRUE(db->CompactAsync().ok());
  ASSERT_TRUE(db->WaitForCompaction().ok());
  const serve::QueryService::Response after_async =
      service.Execute(kStarQuery);
  EXPECT_FALSE(after_async.result_cache_hit);
  EXPECT_EQ(after_async.generation, db->store_generation());
  EXPECT_EQ(invalidations(), invalidated + 2);
  EXPECT_TRUE(service.Execute(kStarQuery).result_cache_hit);

  // Rows reflect the post-fold state: 20 seed + 2 inserted matches.
  EXPECT_EQ(service.Execute(kStarQuery).rows, 22u);
}

template <typename Backend>
void ExpectResultCacheServesRepeatsAndInvalidatesOnWrites(Backend* db) {
  serve::ServeOptions opts;
  opts.readers = 1;
  serve::QueryService service(db, opts);

  const auto hits = [&] {
    return CounterValue(*db, "serve_result_cache_hits_total");
  };
  const auto misses = [&] {
    return CounterValue(*db, "serve_result_cache_misses_total");
  };
  const auto invalidations = [&] {
    return CounterValue(*db, "serve_result_cache_invalidations_total");
  };

  const serve::QueryService::Response first = service.Execute(kStarQuery);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.result_cache_hit);
  EXPECT_EQ(misses(), 1u);

  const serve::QueryService::Response repeat = service.Execute(kStarQuery);
  EXPECT_TRUE(repeat.result_cache_hit);
  EXPECT_EQ(hits(), 1u);
  // A hit is byte-identical to re-execution: same rows, same decoded terms.
  EXPECT_EQ(repeat.rows, first.rows);
  EXPECT_EQ(repeat.result.rows, first.result.rows);

  // Any write moves the epoch (a Database's write watermark, a
  // coordinator's content version): the whole epoch is stale and the
  // next lookup drops it.
  rdf::Graph batch;
  batch.Add(rdf::Term::Iri(Iri("s", 90)), rdf::Term::Iri(Iri("p", 0)),
            rdf::Term::Iri(Iri("o", 0)));
  batch.Add(rdf::Term::Iri(Iri("s", 90)), rdf::Term::Iri(Iri("dp", 0)),
            rdf::Term::Literal("90"));
  ASSERT_TRUE(db->Insert(batch).ok());

  const serve::QueryService::Response after_write =
      service.Execute(kStarQuery);
  EXPECT_FALSE(after_write.result_cache_hit);
  EXPECT_EQ(after_write.rows, first.rows + 1);
  EXPECT_EQ(invalidations(), 1u);
  EXPECT_TRUE(service.Execute(kStarQuery).result_cache_hit);
}

TEST(QueryService, ResultCacheServesRepeatsAndInvalidatesOnWrites) {
  auto db = MakeDatabase();
  ExpectResultCacheServesRepeatsAndInvalidatesOnWrites(db.get());
}

TEST(QueryService, ShardedResultCacheServesRepeatsAndInvalidatesOnWrites) {
  auto coord = MakeCoordinator();
  ExpectResultCacheServesRepeatsAndInvalidatesOnWrites(coord.get());
}

// The execution switches are part of the cache key: a toggle must never
// be answered from a result computed under the previous options.
template <typename Backend>
void ExpectTogglesInvalidateCaches(Backend* db) {
  ontology::Ontology onto;
  onto.AddSubClassOf("http://e.org/Barometer", "http://e.org/Sensor");
  db->LoadOntology(onto);
  rdf::Graph g;
  g.Add(rdf::Term::Iri(Iri("dev", 1)), rdf::Term::Iri(rdf::kRdfType),
        rdf::Term::Iri("http://e.org/Barometer"));
  ASSERT_TRUE(db->LoadData(g).ok());
  serve::QueryService service(db, serve::ServeOptions());
  const std::string q = "SELECT ?s WHERE { ?s a <http://e.org/Sensor> }";

  EXPECT_EQ(service.Execute(q).rows, 1u);
  EXPECT_TRUE(service.Execute(q).result_cache_hit);
  db->set_reasoning(false);
  EXPECT_EQ(db->Query(q).value().size(), 0u);
  const serve::QueryService::Response off = service.Execute(q);
  EXPECT_FALSE(off.result_cache_hit);
  EXPECT_EQ(off.rows, 0u);
  db->set_reasoning(true);
  EXPECT_EQ(service.Execute(q).rows, 1u);

  // The other toggles bump the key too, without changing the answer.
  for (const int toggle : {0, 1}) {
    EXPECT_TRUE(service.Execute(q).result_cache_hit);
    if (toggle == 0) {
      db->set_optimizer(false);
    } else {
      db->set_merge_join(false);
    }
    const serve::QueryService::Response after = service.Execute(q);
    EXPECT_FALSE(after.result_cache_hit);
    EXPECT_EQ(after.rows, 1u);
  }
}

TEST(QueryService, OptionTogglesInvalidateCachedResults) {
  Database db;
  ExpectTogglesInvalidateCaches(&db);
}

TEST(QueryService, ShardedOptionTogglesInvalidateCachedResults) {
  dist::CoordinatorOptions options;
  options.partition.shards = 3;
  dist::Coordinator coord(options);
  ExpectTogglesInvalidateCaches(&coord);
}

TEST(QueryService, ConcurrentClientsSeeConsistentSnapshots) {
  auto db = MakeDatabase();
  serve::ServeOptions opts;
  opts.readers = 4;
  serve::QueryService service(db.get(), opts);

  // Clients hammer the same query while a writer inserts matching rows;
  // every response must report a row count consistent with *some* write
  // watermark (20 + writes applied at its pinned snapshot), never a
  // half-applied batch.
  std::thread writer([&] {
    for (uint64_t i = 0; i < 30; ++i) {
      rdf::Graph batch;
      batch.Add(rdf::Term::Iri(Iri("w", i)), rdf::Term::Iri(Iri("p", 0)),
                rdf::Term::Iri(Iri("o", 0)));
      batch.Add(rdf::Term::Iri(Iri("w", i)), rdf::Term::Iri(Iri("dp", 0)),
                rdf::Term::Literal(std::to_string(i)));
      EXPECT_TRUE(db->Insert(batch).ok());
    }
  });
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 40; ++i) {
        const serve::QueryService::Response resp =
            service.Execute(kStarQuery);
        if (!resp.status.ok()) {
          ++failures;
          continue;
        }
        // Each insert batch adds exactly one matching subject and the
        // writer is the only batch source, so a batch-consistent
        // snapshot at watermark w yields exactly 20 + w rows; a torn
        // read would break the equality.
        if (resp.rows != 20u + resp.writes) ++failures;
      }
    });
  }
  writer.join();
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // After the writer finished, a fresh request sees all 30 batches.
  EXPECT_EQ(service.Execute(kStarQuery).rows, 50u);
}

}  // namespace
}  // namespace sedge
