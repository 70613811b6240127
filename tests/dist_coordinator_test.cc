// Tests for the dist layer: partitioner routing, subject-star BGP
// decomposition with filter pushdown, and the Coordinator against a
// single-database oracle — including cloud-base deduplication, write
// routing, provisional-id reconciliation across shard re-encodes, the
// dist_* metric surface, one option set per query under racing toggles,
// and the coordinator behind the concurrent query service.

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "dist/coordinator.h"
#include "dist/decomposer.h"
#include "dist/partitioner.h"
#include "ontology/ontology.h"
#include "rdf/term.h"
#include "rdf/triple.h"
#include "rdf/vocabulary.h"
#include "serve/query_service.h"
#include "sparql/sparql_parser.h"

namespace sedge {
namespace {

using dist::Coordinator;
using dist::CoordinatorOptions;
using dist::Decompose;
using dist::PartitionConfig;
using dist::PartitionPolicy;
using dist::Partitioner;

rdf::Term I(const std::string& iri) { return rdf::Term::Iri(iri); }
rdf::Term L(const std::string& lex) { return rdf::Term::Literal(lex); }

constexpr char kNs[] = "http://ex.org/";

std::string Person(int i) { return kNs + std::string("person/") + std::to_string(i); }
std::string Org(int i) { return kNs + std::string("org/") + std::to_string(i); }

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

/// Two star shapes (people, orgs) with cross-subject links: exercises
/// on-shard star joins, coordinator joins, type scans, and numeric
/// filters. 12 people x 5 triples + 3 orgs x 2 triples = 66 triples.
rdf::Graph SmallGraph() {
  rdf::Graph g;
  for (int i = 0; i < 12; ++i) {
    const std::string p = Person(i);
    g.Add(I(p), I(kNs + std::string("name")), L("person" + std::to_string(i)));
    g.Add(I(p), I(kNs + std::string("age")), L(std::to_string(20 + i)));
    g.Add(I(p), I(rdf::kRdfType), I(kNs + std::string("Person")));
    g.Add(I(p), I(kNs + std::string("knows")), I(Person((i + 1) % 12)));
    g.Add(I(p), I(kNs + std::string("worksAt")), I(Org(i % 3)));
  }
  for (int o = 0; o < 3; ++o) {
    g.Add(I(Org(o)), I(kNs + std::string("name")), L("org" + std::to_string(o)));
    g.Add(I(Org(o)), I(rdf::kRdfType), I(kNs + std::string("Org")));
  }
  return g;
}

/// Query mix: single star, two-star coordinator join, type scan, pushed
/// filter, UNION, BIND, DISTINCT, constant subject, cross-group filter.
/// No LIMIT/OFFSET — those are row-order dependent, covered by count
/// checks elsewhere.
std::vector<std::string> QueryMix() {
  return {
      "SELECT ?p ?n ?o WHERE { ?p <http://ex.org/name> ?n . "
      "?p <http://ex.org/worksAt> ?o }",
      "SELECT ?p ?on WHERE { ?p <http://ex.org/worksAt> ?o . "
      "?o <http://ex.org/name> ?on }",
      "SELECT ?p WHERE { ?p a <http://ex.org/Person> }",
      "SELECT ?p ?a WHERE { ?p <http://ex.org/age> ?a . FILTER(?a > 25) }",
      "SELECT ?p ?x WHERE { { ?p <http://ex.org/name> ?x } UNION "
      "{ ?p <http://ex.org/worksAt> ?x } }",
      "SELECT ?p ?b WHERE { ?p <http://ex.org/age> ?a . "
      "BIND(?a + 1 AS ?b) }",
      "SELECT DISTINCT ?o WHERE { ?p <http://ex.org/worksAt> ?o }",
      "SELECT ?x WHERE { <http://ex.org/person/3> <http://ex.org/knows> ?x }",
      "SELECT * WHERE { ?p <http://ex.org/knows> ?x . "
      "?x <http://ex.org/worksAt> ?o }",
      "SELECT ?p ?q WHERE { ?p <http://ex.org/age> ?a . "
      "?q <http://ex.org/age> ?b . FILTER(?a < ?b) }",
  };
}

void ExpectMatchesOracle(const Coordinator& coord, const Database& oracle,
                         const std::vector<std::string>& queries,
                         const std::string& context) {
  for (const std::string& q : queries) {
    const auto want = oracle.Query(q);
    const auto got = coord.Query(q);
    ASSERT_TRUE(want.ok()) << context << " oracle failed: " << q;
    ASSERT_TRUE(got.ok()) << context << " coordinator failed: " << q
                          << " — " << got.status().message();
    EXPECT_EQ(Canonical(got.value()), Canonical(want.value()))
        << context << " query: " << q;
    const auto count = coord.QueryCount(q);
    ASSERT_TRUE(count.ok()) << context << " count failed: " << q;
    EXPECT_EQ(count.value(), want.value().rows.size())
        << context << " count query: " << q;
  }
}

// ------------------------------------------------------------- partitioner

TEST(Partitioner, SubjectHashColocatesAllTriplesOfASubject) {
  const Partitioner part(PartitionConfig{PartitionPolicy::kSubjectHash, 4,
                                         /*cloud_base=*/false});
  EXPECT_EQ(part.num_shards(), 4);
  EXPECT_EQ(part.cloud_shard(), -1);
  EXPECT_TRUE(part.colocates_subjects());
  std::set<int> seen;
  const rdf::Graph graph = SmallGraph();
  for (const rdf::Triple& t : graph.triples()) {
    const int shard = part.ShardOf(t);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    EXPECT_EQ(shard, part.ShardOfSubject(t.subject));
    seen.insert(shard);
  }
  // 15 distinct subjects over 4 shards: FNV spread should hit > 1 shard.
  EXPECT_GT(seen.size(), 1u);
}

TEST(Partitioner, SitePolicyGroupsByIriAuthority) {
  EXPECT_EQ(Partitioner::SiteOf("http://www.Department3.University0.edu/Grad44"),
            "www.Department3.University0.edu");
  EXPECT_EQ(Partitioner::SiteOf("https://edge-7.example.net"),
            "edge-7.example.net");
  // No authority: the full string is the site (still deterministic).
  EXPECT_EQ(Partitioner::SiteOf("urn:uuid:1234"), "urn:uuid:1234");

  const Partitioner part(
      PartitionConfig{PartitionPolicy::kSite, 3, /*cloud_base=*/false});
  const int site_a = part.ShardOfSubject(I("http://a.example.org/s/1"));
  EXPECT_EQ(site_a, part.ShardOfSubject(I("http://a.example.org/s/2")));
  EXPECT_EQ(site_a, part.ShardOfSubject(I("http://a.example.org/other")));
  // Different hosts hash independently: a handful of sites must spread
  // over more than one shard (any single pair may of course collide).
  std::set<int> spread;
  for (const char* host : {"a", "b", "c", "d", "e", "f", "g", "h"}) {
    spread.insert(part.ShardOfSubject(
        I("http://" + std::string(host) + ".example.org/s/1")));
  }
  EXPECT_GT(spread.size(), 1u);
}

TEST(Partitioner, CloudBaseAddsOneShardAtTheEnd) {
  const Partitioner part(
      PartitionConfig{PartitionPolicy::kSubjectHash, 2, /*cloud_base=*/true});
  EXPECT_EQ(part.num_edge_shards(), 2);
  EXPECT_EQ(part.num_shards(), 3);
  EXPECT_EQ(part.cloud_shard(), 2);
  // Writes still route to edge shards only.
  const rdf::Graph graph = SmallGraph();
  for (const rdf::Triple& t : graph.triples()) {
    EXPECT_LT(part.ShardOf(t), 2);
  }
}

// -------------------------------------------------------------- decomposer

sparql::GroupPattern ParseWhere(const std::string& text) {
  auto q = sparql::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text;
  return std::move(q.value().where);
}

TEST(Decomposer, GroupsBySubjectStar) {
  auto dec = Decompose(
      ParseWhere("SELECT * WHERE { ?p <http://ex.org/name> ?n . "
                 "?p <http://ex.org/worksAt> ?o . ?p a <http://ex.org/Person> . "
                 "?o <http://ex.org/name> ?on }"),
      /*colocate_subjects=*/true);
  ASSERT_EQ(dec.groups.size(), 2u);
  EXPECT_EQ(dec.patterns_total, 4u);
  // (3 - 1) joins in the ?p star + (1 - 1) in the ?o star.
  EXPECT_EQ(dec.pushed_join_edges, 2u);
  EXPECT_EQ(dec.groups[0].patterns, 3u);
  EXPECT_EQ(dec.groups[0].type_patterns, 1u);
  EXPECT_EQ(dec.groups[1].patterns, 1u);
  // The ?p star binds ?p ?n ?o in first-seen order; subqueries project
  // every group variable.
  ASSERT_EQ(dec.groups[0].vars.size(), 3u);
  EXPECT_EQ(dec.groups[0].vars[0].name, "p");
  EXPECT_EQ(dec.groups[0].query.select.size(), dec.groups[0].vars.size());
  EXPECT_FALSE(dec.groups[0].query.distinct);
  // Residual carries no triples and nothing else here.
  EXPECT_TRUE(dec.residual.triples.empty());
  EXPECT_TRUE(dec.residual.filters.empty());
  EXPECT_TRUE(dec.residual.unions.empty());
  EXPECT_TRUE(dec.residual.binds.empty());
}

TEST(Decomposer, PushesRowLocalFiltersOnly) {
  // ?a is produced only by the ?p star -> pushed; the ?a < ?b filter
  // spans two groups -> residual; the BIND and its dependent filter stay
  // at the coordinator.
  auto dec = Decompose(
      ParseWhere("SELECT * WHERE { ?p <http://ex.org/age> ?a . "
                 "?q <http://ex.org/age> ?b . FILTER(?a > 25) . "
                 "FILTER(?a < ?b) . BIND(?a + 1 AS ?c) . FILTER(?c > 0) }"),
      /*colocate_subjects=*/true);
  ASSERT_EQ(dec.groups.size(), 2u);
  size_t pushed = 0;
  for (const auto& g : dec.groups) pushed += g.pushed_filters;
  EXPECT_EQ(pushed, 1u);
  EXPECT_EQ(dec.residual.filters.size(), 2u);
  EXPECT_EQ(dec.residual.binds.size(), 1u);
}

TEST(Decomposer, ConstantSubjectsFormTheirOwnStars) {
  auto dec = Decompose(
      ParseWhere("SELECT * WHERE { <http://ex.org/person/3> "
                 "<http://ex.org/knows> ?x . ?x <http://ex.org/name> ?n }"),
      /*colocate_subjects=*/true);
  EXPECT_EQ(dec.groups.size(), 2u);
  EXPECT_EQ(dec.pushed_join_edges, 0u);
}

TEST(Decomposer, WithoutColocationEveryPatternIsItsOwnGroup) {
  auto dec = Decompose(
      ParseWhere("SELECT * WHERE { ?p <http://ex.org/name> ?n . "
                 "?p <http://ex.org/worksAt> ?o }"),
      /*colocate_subjects=*/false);
  EXPECT_EQ(dec.groups.size(), 2u);
  EXPECT_EQ(dec.pushed_join_edges, 0u);
}

// ------------------------------------------------------------- coordinator

CoordinatorOptions MakeOptions(PartitionPolicy policy, int shards,
                               bool cloud_base) {
  CoordinatorOptions opts;
  opts.partition.policy = policy;
  opts.partition.shards = shards;
  opts.partition.cloud_base = cloud_base;
  return opts;
}

TEST(Coordinator, MatchesOracleAcrossShardCountsAndPolicies) {
  const rdf::Graph graph = SmallGraph();
  Database oracle;
  oracle.set_reasoning(false);
  ASSERT_TRUE(oracle.LoadData(graph).ok());

  struct Cell {
    PartitionPolicy policy;
    int shards;
    bool cloud_base;
  };
  const std::vector<Cell> cells = {
      {PartitionPolicy::kSubjectHash, 1, false},
      {PartitionPolicy::kSubjectHash, 2, false},
      {PartitionPolicy::kSubjectHash, 4, false},
      {PartitionPolicy::kSite, 3, false},
      {PartitionPolicy::kSubjectHash, 2, true},
  };
  for (const Cell& cell : cells) {
    Coordinator coord(
        MakeOptions(cell.policy, cell.shards, cell.cloud_base));
    coord.set_reasoning(false);
    ASSERT_TRUE(coord.LoadData(graph).ok());
    EXPECT_EQ(coord.num_triples(), oracle.num_triples());
    const std::string context =
        "shards=" + std::to_string(cell.shards) +
        (cell.cloud_base ? "+cloud" : "") +
        (cell.policy == PartitionPolicy::kSite ? " site" : " hash");
    ExpectMatchesOracle(coord, oracle, QueryMix(), context);
  }
}

TEST(Coordinator, RoutedWritesAndRemovalsMatchOracle) {
  const rdf::Graph base = SmallGraph();
  Database oracle;
  oracle.set_reasoning(false);
  ASSERT_TRUE(oracle.LoadData(base).ok());
  Coordinator coord(
      MakeOptions(PartitionPolicy::kSubjectHash, 3, /*cloud_base=*/false));
  coord.set_reasoning(false);
  ASSERT_TRUE(coord.LoadData(base).ok());

  // Insert a batch spanning several subjects (old and brand-new).
  rdf::Graph batch;
  for (int i = 0; i < 6; ++i) {
    batch.Add(I(Person(i)), I(kNs + std::string("email")),
              L("p" + std::to_string(i) + "@ex.org"));
    batch.Add(I(Person(100 + i)), I(kNs + std::string("name")),
              L("new" + std::to_string(i)));
  }
  ASSERT_TRUE(oracle.Insert(batch).ok());
  Database::InsertReport report;
  ASSERT_TRUE(coord.Insert(batch, &report).ok());
  EXPECT_EQ(report.applied + report.deferred_provisional + report.rejected,
            batch.size());
  EXPECT_EQ(coord.num_triples(), oracle.num_triples());

  // Remove a slice: some base triples, some just-inserted ones.
  rdf::Graph gone;
  gone.Add(I(Person(0)), I(kNs + std::string("email")), L("p0@ex.org"));
  gone.Add(I(Person(1)), I(kNs + std::string("worksAt")), I(Org(1)));
  gone.Add(I(Person(101)), I(kNs + std::string("name")), L("new1"));
  ASSERT_TRUE(oracle.Remove(gone).ok());
  ASSERT_TRUE(coord.Remove(gone).ok());
  EXPECT_EQ(coord.num_triples(), oracle.num_triples());
  ExpectMatchesOracle(coord, oracle, QueryMix(), "after writes");

  // Per-shard triple counts sum to the whole.
  uint64_t sum = 0;
  for (int s = 0; s < coord.num_shards(); ++s) {
    sum += coord.shard(s).num_triples();
  }
  EXPECT_EQ(sum, coord.num_triples());
}

TEST(Coordinator, CloudBaseDuplicatesAreDeduplicated) {
  const rdf::Graph base = SmallGraph();
  Database oracle;
  oracle.set_reasoning(false);
  ASSERT_TRUE(oracle.LoadData(base).ok());
  Coordinator coord(
      MakeOptions(PartitionPolicy::kSubjectHash, 2, /*cloud_base=*/true));
  coord.set_reasoning(false);
  ASSERT_TRUE(coord.LoadData(base).ok());
  // The cloud shard holds the whole base; edge shards start empty.
  EXPECT_EQ(coord.shard(2).num_triples(), base.size());
  EXPECT_EQ(coord.shard(0).num_triples() + coord.shard(1).num_triples(), 0u);

  // Re-insert base triples (now living on BOTH an edge shard and the
  // cloud) plus fresh ones; the oracle's set semantics must survive the
  // cross-shard union.
  rdf::Graph batch;
  for (int i = 0; i < 4; ++i) {
    batch.Add(I(Person(i)), I(kNs + std::string("worksAt")), I(Org(i % 3)));
    batch.Add(I(Person(200 + i)), I(kNs + std::string("worksAt")), I(Org(0)));
  }
  ASSERT_TRUE(oracle.Insert(batch).ok());
  ASSERT_TRUE(coord.Insert(batch).ok());
  ExpectMatchesOracle(coord, oracle, QueryMix(), "cloud dedupe");
  EXPECT_GT(
      coord.metrics().FindCounter("dist_union_dedup_rows_total")->value(), 0u);

  // Removal reaches both replicas.
  rdf::Graph gone;
  gone.Add(I(Person(0)), I(kNs + std::string("worksAt")), I(Org(0)));
  ASSERT_TRUE(oracle.Remove(gone).ok());
  ASSERT_TRUE(coord.Remove(gone).ok());
  ExpectMatchesOracle(coord, oracle, QueryMix(), "cloud remove");
}

TEST(Coordinator, ProvisionalTermsReconcileAcrossShardReencode) {
  const rdf::Graph base = SmallGraph();
  Coordinator coord(
      MakeOptions(PartitionPolicy::kSubjectHash, 3, /*cloud_base=*/false));
  coord.set_reasoning(false);
  coord.set_compaction_ratio(0.0);  // never auto-fold; we fold by hand
  ASSERT_TRUE(coord.LoadData(base).ok());

  // Brand-new vocabulary: unknown predicate and class -> provisional ids
  // on whichever shards the subjects land.
  rdf::Graph novel;
  for (int i = 0; i < 8; ++i) {
    novel.Add(I(Person(i)), I(kNs + std::string("badge")),
              L("b" + std::to_string(i)));
    novel.Add(I(Person(i)), I(rdf::kRdfType), I(kNs + std::string("Staff")));
  }
  ASSERT_TRUE(coord.Insert(novel).ok());

  const std::string q1 =
      "SELECT ?p ?b WHERE { ?p <http://ex.org/badge> ?b }";
  const std::string q2 = "SELECT ?p WHERE { ?p a <http://ex.org/Staff> }";
  const auto before1 = coord.Query(q1);
  const auto before2 = coord.Query(q2);
  ASSERT_TRUE(before1.ok());
  ASSERT_TRUE(before2.ok());
  EXPECT_EQ(before1.value().rows.size(), 8u);

  // Re-encode shard by shard (async folds admit the provisional terms
  // into the succinct base and renumber local ids); the term map must
  // refresh its per-shard caches and keep decoding identically.
  for (int s = 0; s < coord.num_shards(); ++s) {
    ASSERT_TRUE(coord.CompactShardAsync(s).ok());
  }
  ASSERT_TRUE(coord.WaitForCompactions().ok());

  const auto after1 = coord.Query(q1);
  const auto after2 = coord.Query(q2);
  ASSERT_TRUE(after1.ok());
  ASSERT_TRUE(after2.ok());
  EXPECT_EQ(Canonical(after1.value()), Canonical(before1.value()));
  EXPECT_EQ(Canonical(after2.value()), Canonical(before2.value()));
  EXPECT_GT(coord.term_map().refreshes(), 0u);

  // A second synchronous fold round-trips too.
  ASSERT_TRUE(coord.Compact().ok());
  const auto again = coord.Query(q1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Canonical(again.value()), Canonical(before1.value()));
}

TEST(Coordinator, DistMetricsExposePushdownAndFanout) {
  Coordinator coord(
      MakeOptions(PartitionPolicy::kSubjectHash, 2, /*cloud_base=*/false));
  coord.set_reasoning(false);
  ASSERT_TRUE(coord.LoadData(SmallGraph()).ok());

  // A two-star query: one coordinator join, two pushed join edges in the
  // wider star.
  const std::string q =
      "SELECT ?p ?on WHERE { ?p <http://ex.org/name> ?n . "
      "?p <http://ex.org/worksAt> ?o . ?o <http://ex.org/name> ?on }";
  ASSERT_TRUE(coord.Query(q).ok());

  const auto& m = coord.metrics();
  EXPECT_EQ(m.FindCounter("dist_queries_total")->value(), 1u);
  // 2 groups x 2 shards.
  EXPECT_EQ(m.FindCounter("dist_subqueries_total")->value(), 4u);
  EXPECT_EQ(m.FindCounter("dist_patterns_total")->value(), 3u);
  EXPECT_EQ(m.FindCounter("dist_pushed_join_edges_total")->value(), 1u);
  EXPECT_EQ(m.FindCounter("dist_join_hash_total")->value() +
                m.FindCounter("dist_join_merge_total")->value(),
            1u);
  EXPECT_GT(m.FindGauge("dist_pushdown_ratio")->value(), 0.0);
  EXPECT_EQ(m.FindGauge("dist_shards")->value(), 2.0);
  EXPECT_GT(m.FindGauge("dist_term_map_terms")->value(), 0.0);
  EXPECT_EQ(m.FindHistogram("dist_fanout_shards")->count(), 1u);
  EXPECT_EQ(m.FindHistogram("dist_query_seconds")->count(), 1u);
  // Routed-write counters and per-shard gauges.
  ASSERT_TRUE(coord
                  .Insert(rdf::Triple{I(Person(0)),
                                      I(kNs + std::string("email")),
                                      L("x@ex.org")})
                  .ok());
  EXPECT_EQ(m.FindCounter("dist_inserts_routed_total")->value(), 1u);
  double shard_sum = 0.0;
  for (int s = 0; s < coord.num_shards(); ++s) {
    shard_sum += m.FindGauge("dist_shard_triples",
                             "shard=\"" + std::to_string(s) + "\"")
                     ->value();
  }
  EXPECT_EQ(shard_sum, static_cast<double>(coord.num_triples()));
}

TEST(Coordinator, EmptyCoordinatorRejectsQueries) {
  Coordinator coord(
      MakeOptions(PartitionPolicy::kSubjectHash, 2, /*cloud_base=*/false));
  EXPECT_FALSE(coord.has_data());
  EXPECT_FALSE(coord.Query("SELECT ?s WHERE { ?s ?p ?o }").ok());
}

// A reasoning toggle racing a query must land wholly before or after it:
// every star group and union alternative of one query runs with one
// option set, and the answer reports that set's version.
TEST(Coordinator, ToggledReasoningNeverTearsAQuery) {
  const std::string student = kNs + std::string("Student");
  const std::string grad = kNs + std::string("GradStudent");
  const std::string org = kNs + std::string("Org");
  const std::string lab = kNs + std::string("Lab");
  ontology::Ontology onto;
  onto.AddSubClassOf(grad, student);
  onto.AddSubClassOf(lab, org);
  // Even people are asserted Students, odd ones only GradStudents; org 1
  // is asserted only a Lab. So each half of the query gains rows under
  // reasoning, and a torn mix (one group with reasoning, the other
  // without) matches neither oracle.
  rdf::Graph g;
  for (int i = 0; i < 12; ++i) {
    g.Add(I(Person(i)), I(rdf::kRdfType), I(i % 2 == 0 ? student : grad));
    g.Add(I(Person(i)), I(kNs + std::string("worksAt")), I(Org(i % 3)));
  }
  for (int o = 0; o < 3; ++o) {
    g.Add(I(Org(o)), I(rdf::kRdfType), I(o == 1 ? lab : org));
  }
  const std::string q = "SELECT ?p ?o WHERE { ?p a <" + student +
                        "> . ?p <http://ex.org/worksAt> ?o . ?o a <" + org +
                        "> }";
  ASSERT_EQ(Decompose(ParseWhere(q), /*colocate_subjects=*/true).groups.size(),
            2u);

  Database oracle;
  oracle.LoadOntology(onto);
  ASSERT_TRUE(oracle.LoadData(g).ok());
  const std::string with_reasoning = Canonical(oracle.Query(q).value());
  oracle.set_reasoning(false);
  const std::string without_reasoning = Canonical(oracle.Query(q).value());
  ASSERT_NE(with_reasoning, without_reasoning);

  Coordinator coord(
      MakeOptions(PartitionPolicy::kSubjectHash, 3, /*cloud_base=*/false));
  coord.LoadOntology(onto);
  ASSERT_TRUE(coord.LoadData(g).ok());
  ASSERT_EQ(coord.epoch().options, 0u);  // reasoning on at version 0

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::atomic<int> mislabeled{0};
  std::thread toggler([&] {
    // The k-th toggle leaves reasoning on exactly when k is even.
    for (uint64_t k = 1; !done.load(); ++k) {
      coord.set_reasoning(k % 2 == 0);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 150; ++i) {
        QueryEpoch at;
        const auto r = coord.Query(q, &at);
        if (!r.ok()) {
          ++torn;
          continue;
        }
        const std::string got = Canonical(r.value());
        if (got != with_reasoning && got != without_reasoning) ++torn;
        const bool reasoning = at.options % 2 == 0;
        if (got != (reasoning ? with_reasoning : without_reasoning)) {
          ++mislabeled;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true);
  toggler.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(mislabeled.load(), 0);
}

// ------------------------------------------------ behind the query service

TEST(Coordinator, ServesThroughTheQueryService) {
  Coordinator coord(
      MakeOptions(PartitionPolicy::kSubjectHash, 3, /*cloud_base=*/false));
  coord.set_reasoning(false);
  ASSERT_TRUE(coord.LoadData(SmallGraph()).ok());
  const uint64_t v0 = coord.epoch().generation;

  serve::ServeOptions sopts;
  sopts.readers = 2;
  serve::QueryService service(&coord, sopts);
  const std::string q =
      "SELECT ?p ?o WHERE { ?p <http://ex.org/worksAt> ?o }";

  auto first = service.Execute(q);
  ASSERT_TRUE(first.status.ok()) << first.status.message();
  EXPECT_EQ(first.rows, 12u);
  EXPECT_FALSE(first.result_cache_hit);
  EXPECT_EQ(first.generation, v0);

  // Same content version -> result-cache hit with identical rows.
  auto repeat = service.Execute(q);
  ASSERT_TRUE(repeat.status.ok());
  EXPECT_TRUE(repeat.result_cache_hit);
  EXPECT_EQ(Canonical(repeat.result), Canonical(first.result));

  // A routed write bumps the version and invalidates.
  ASSERT_TRUE(coord.Insert(rdf::Triple{I(Person(50)),
                                       I(kNs + std::string("worksAt")),
                                       I(Org(0))})
                  .ok());
  EXPECT_GT(coord.epoch().generation, v0);
  auto after = service.Execute(q);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.result_cache_hit);
  EXPECT_EQ(after.rows, 13u);

  service.Shutdown();
}

}  // namespace
}  // namespace sedge
