// Plan-order property tests for the cost-based planner.
//
//   - Worst-case textual order: every LUBM mix query (truncated LUBM) and
//     seeded random BGPs run in random pattern permutations with the
//     optimizer off, and must return the same row multiset as the
//     planner's order — with reasoning and merge join each on and off, on
//     a compacted store and under a live overlay (adds and tombstones).
//   - The planner's exact counts equal a brute-force count of the live
//     triples, overlay included.
//   - The merge join's bound-object semi-join agrees with the row path
//     under a live overlay.
//   - Plan shapes: LUBM Q7 and Q10 start at their constant-anchored
//     pattern; the pressure-anomaly query does not start at its unit
//     typing.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "rdf/vocabulary.h"
#include "sparql/executor.h"
#include "sparql/sparql_parser.h"
#include "util/rng.h"
#include "workloads/lubm_generator.h"
#include "workloads/lubm_queries.h"
#include "workloads/sensor_generator.h"

namespace sedge {
namespace {

using sparql::TriplePattern;

// Rows as sorted "var=term" lists, the whole answer sorted: a multiset
// independent of column order (SELECT * lists variables by first mention).
std::vector<std::string> Multiset(const sparql::QueryResult& r) {
  std::vector<std::string> rows;
  rows.reserve(r.rows.size());
  for (const auto& row : r.rows) {
    std::vector<std::string> cells;
    for (size_t i = 0; i < row.size(); ++i) {
      cells.push_back(r.var_names[i] + "=" +
                      (row[i] ? row[i]->ToNTriples() : std::string("-")));
    }
    std::sort(cells.begin(), cells.end());
    std::string line;
    for (const std::string& c : cells) line += c + "\t";
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> Answers(const Database& db,
                                 const sparql::Query& query,
                                 sparql::Executor::Options options) {
  sparql::Executor executor(db.snapshot(), options);
  auto result = executor.Execute(query);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? Multiset(result.value()) : std::vector<std::string>{};
}

bool SharesVariable(const TriplePattern& tp,
                    const std::set<std::string>& vars) {
  for (const auto* slot : {&tp.subject, &tp.predicate, &tp.object}) {
    if (sparql::IsVar(*slot) && vars.count(sparql::AsVar(*slot).name) > 0) {
      return true;
    }
  }
  return false;
}

// A random left-deep order that joins each pattern to the prefix when any
// pattern can (a worst case for the join order, not a cross product).
std::vector<TriplePattern> RandomConnectedOrder(
    std::vector<TriplePattern> rest, Rng* rng) {
  std::vector<TriplePattern> order;
  std::set<std::string> bound;
  while (!rest.empty()) {
    std::vector<size_t> connected;
    for (size_t i = 0; i < rest.size(); ++i) {
      if (SharesVariable(rest[i], bound)) connected.push_back(i);
    }
    const size_t pick =
        connected.empty() ? rng->Uniform(rest.size())
                          : connected[rng->Uniform(connected.size())];
    const TriplePattern tp = rest[pick];
    rest.erase(rest.begin() + static_cast<ptrdiff_t>(pick));
    for (const auto* slot : {&tp.subject, &tp.predicate, &tp.object}) {
      if (sparql::IsVar(*slot)) bound.insert(sparql::AsVar(*slot).name);
    }
    order.push_back(tp);
  }
  return order;
}

// Every permutation (optimizer off) must match the planner's multiset, in
// all four reasoning × merge-join modes, and no answer repeats a row (the
// BGPs here have no variable predicate, so a repeat can only be one
// solution entailed twice).
void ExpectOrderIndependent(const Database& db, const std::string& id,
                            const std::string& text, int permutations,
                            Rng* rng) {
  auto parsed = sparql::ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << id << ": " << parsed.status().ToString();
  for (const bool reasoning : {true, false}) {
    for (const bool merge_join : {true, false}) {
      const auto planned =
          Answers(db, parsed.value(), {reasoning, merge_join, true});
      // Each entailed solution once, whichever routes entail it.
      EXPECT_EQ(std::adjacent_find(planned.begin(), planned.end()),
                planned.end())
          << id << " repeats a row, reasoning=" << reasoning
          << " merge_join=" << merge_join;
      for (int k = 0; k < permutations; ++k) {
        auto permuted = sparql::ParseQuery(text);  // Query is move-only
        permuted.value().where.triples =
            RandomConnectedOrder(permuted.value().where.triples, rng);
        EXPECT_EQ(Answers(db, permuted.value(), {reasoning, merge_join, false}),
                  planned)
            << id << " reasoning=" << reasoning
            << " merge_join=" << merge_join << " permutation " << k;
      }
    }
  }
}

// Moves a store into the live-overlay state: `removed` base triples are
// tombstoned and `added` ones land in the overlay (never compacted).
void MakeOverlay(Database* db, const rdf::Graph& added,
                 const rdf::Graph& removed) {
  db->set_compaction_ratio(0);
  ASSERT_TRUE(db->Insert(added).ok());
  ASSERT_TRUE(db->Remove(removed).ok());
  ASSERT_GT(db->delta_size(), 0u);
}

// ------------------------------------------------------------ LUBM mix

class PlanOrderLubm : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workloads::LubmConfig config;
    config.departments_per_university = 2;
    graph_ = new rdf::Graph(workloads::LubmGenerator::Generate(config));
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }

  static std::vector<workloads::QuerySpec> Mix() {
    auto mix = workloads::LubmQueries::Standard14(*graph_);
    for (auto& q : workloads::LubmQueries::Multi(*graph_)) mix.push_back(q);
    return mix;
  }

  static rdf::Graph* graph_;
};

rdf::Graph* PlanOrderLubm::graph_ = nullptr;

TEST_F(PlanOrderLubm, MixIsOrderIndependentOnCompactedStore) {
  Database db;
  db.LoadOntology(workloads::LubmGenerator::BuildOntology());
  ASSERT_TRUE(db.LoadData(*graph_).ok());
  Rng rng(11);
  for (const auto& q : Mix()) {
    ExpectOrderIndependent(db, q.id, q.sparql, 2, &rng);
  }
}

TEST_F(PlanOrderLubm, MixIsOrderIndependentUnderLiveOverlay) {
  // Load 90% of the graph, stream the rest in and tombstone another 5%.
  rdf::Graph base;
  rdf::Graph added;
  rdf::Graph removed;
  const auto& triples = graph_->triples();
  for (size_t i = 0; i < triples.size(); ++i) {
    (i % 10 == 3 ? added : base).Add(triples[i]);
    if (i % 20 == 7) removed.Add(triples[i]);
  }
  Database db;
  db.LoadOntology(workloads::LubmGenerator::BuildOntology());
  ASSERT_TRUE(db.LoadData(base).ok());
  MakeOverlay(&db, added, removed);
  Rng rng(12);
  for (const auto& q : Mix()) {
    ExpectOrderIndependent(db, q.id, q.sparql, 2, &rng);
  }
}

TEST_F(PlanOrderLubm, ConstantAnchoredQueriesStartAtTheirConstant) {
  Database db;
  db.LoadOntology(workloads::LubmGenerator::BuildOntology());
  ASSERT_TRUE(db.LoadData(*graph_).ok());
  for (const auto& q : workloads::LubmQueries::Standard14(*graph_)) {
    if (q.id != "Q7" && q.id != "Q10") continue;
    auto profile = db.ExplainQuery(q.sparql);
    ASSERT_TRUE(profile.ok()) << profile.status().ToString();
    const obs::ProfileNode* execute = profile.value().root.Find("execute");
    ASSERT_NE(execute, nullptr);
    const obs::ProfileNode* first = nullptr;
    for (const auto& child : execute->children) {
      if (child->name.rfind("tp/", 0) == 0) {
        first = child.get();
        break;
      }
    }
    ASSERT_NE(first, nullptr);
    // The first pattern carries the query's one constant IRI (the
    // professor of Q7, the graduate course of Q10); the planner's
    // estimate for it is exact.
    EXPECT_NE(first->detail.find("<http://www.university.example/"),
              std::string::npos)
        << q.id << "\n" << profile.value().ToString();
    EXPECT_EQ(first->StatOr("est_rows", -1), first->StatOr("rows_out", -2))
        << q.id << "\n" << profile.value().ToString();
  }
}

// -------------------------------------------------------- random BGPs

std::string Iri(const std::string& kind, uint64_t i) {
  return "http://e.org/" + kind + std::to_string(i);
}

ontology::Ontology SmallOntology() {
  ontology::Ontology onto;
  onto.AddSubClassOf(Iri("C", 1), Iri("C", 0));
  onto.AddSubClassOf(Iri("C", 2), Iri("C", 0));
  onto.AddSubClassOf(Iri("C", 3), Iri("C", 1));
  onto.AddProperty(Iri("p", 0), ontology::PropertyKind::kObject);
  onto.AddSubPropertyOf(Iri("p", 1), Iri("p", 0),
                        ontology::PropertyKind::kObject);
  onto.AddSubPropertyOf(Iri("p", 2), Iri("p", 0),
                        ontology::PropertyKind::kObject);
  onto.AddProperty(Iri("p", 3), ontology::PropertyKind::kObject);
  onto.AddProperty(Iri("dp", 0), ontology::PropertyKind::kDatatype);
  onto.AddSubPropertyOf(Iri("dp", 1), Iri("dp", 0),
                        ontology::PropertyKind::kDatatype);
  return onto;
}

rdf::Triple RandomTriple(Rng* rng) {
  const rdf::Term s = rdf::Term::Iri(Iri("n", rng->Uniform(40)));
  const uint64_t kind = rng->Uniform(5);
  if (kind == 0) {
    return {s, rdf::Term::Iri(rdf::kRdfType),
            rdf::Term::Iri(Iri("C", rng->Uniform(4)))};
  }
  if (kind == 1) {
    return {s, rdf::Term::Iri(Iri("dp", rng->Uniform(2))),
            rdf::Term::Literal(std::to_string(rng->Uniform(6)))};
  }
  return {s, rdf::Term::Iri(Iri("p", rng->Uniform(4))),
          rdf::Term::Iri(Iri("n", rng->Uniform(40)))};
}

std::string RandomBgp(Rng* rng) {
  const auto var = [&] { return "?v" + std::to_string(rng->Uniform(4)); };
  const auto node = [&] {
    return rng->Bernoulli(0.75) ? var()
                                : "<" + Iri("n", rng->Uniform(40)) + ">";
  };
  std::string body;
  const int patterns = 2 + static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < patterns; ++i) {
    const uint64_t kind = rng->Uniform(6);
    if (kind == 0) {
      body += node() + " a <" + Iri("C", rng->Uniform(4)) + "> . ";
    } else if (kind == 1) {
      body += node() + " <" + Iri("dp", rng->Uniform(2)) + "> " +
              (rng->Bernoulli(0.7) ? var() : "\"" +
                                                 std::to_string(
                                                     rng->Uniform(6)) +
                                                 "\"") +
              " . ";
    } else {
      body += node() + " <" + Iri("p", rng->Uniform(4)) + "> " + node() +
              " . ";
    }
  }
  return "SELECT * WHERE { " + body + "}";
}

TEST(PlanOrderRandom, RandomBgpsAreOrderIndependent) {
  for (const bool overlay : {false, true}) {
    Rng rng(overlay ? 21 : 22);
    rdf::Graph base;
    rdf::Graph added;
    rdf::Graph removed;
    for (int i = 0; i < 400; ++i) base.Add(RandomTriple(&rng));
    for (int i = 0; i < 60; ++i) added.Add(RandomTriple(&rng));
    for (size_t i = 0; i < base.triples().size(); i += 9) {
      removed.Add(base.triples()[i]);
    }
    Database db;
    db.LoadOntology(SmallOntology());
    ASSERT_TRUE(db.LoadData(base).ok());
    if (overlay) MakeOverlay(&db, added, removed);
    for (int q = 0; q < 60; ++q) {
      const std::string text = RandomBgp(&rng);
      ExpectOrderIndependent(db, text, text, 3, &rng);
    }
  }
}

// ----------------------------------------------------- exact estimates

TEST(PlanOrderEstimates, ExactCountsMatchBruteForceUnderOverlay) {
  Rng rng(31);
  rdf::Graph base;
  for (int i = 0; i < 500; ++i) base.Add(RandomTriple(&rng));
  Database db;
  db.LoadOntology(SmallOntology());
  ASSERT_TRUE(db.LoadData(base).ok());
  rdf::Graph added;
  rdf::Graph removed;
  for (int i = 0; i < 80; ++i) added.Add(RandomTriple(&rng));
  for (size_t i = 0; i < base.triples().size(); i += 7) {
    removed.Add(base.triples()[i]);
  }
  MakeOverlay(&db, added, removed);

  // The live triples, brute force.
  const auto key = [](const rdf::Triple& t) {
    return t.subject.ToNTriples() + " " + t.predicate.ToNTriples() + " " +
           t.object.ToNTriples();
  };
  std::map<std::string, rdf::Triple> all;
  for (const rdf::Triple& t : base.triples()) all[key(t)] = t;
  for (const rdf::Triple& t : added.triples()) all[key(t)] = t;
  for (const rdf::Triple& t : removed.triples()) all.erase(key(t));
  const auto brute = [&](const auto& match) {
    uint64_t n = 0;
    for (const auto& [k, t] : all) n += match(t) ? 1 : 0;
    return n;
  };

  const store::TripleStore& store = db.snapshot()->store();
  const store::delta::MergedObjectView objects = store.object_view();
  const store::delta::MergedDatatypeView literals = store.datatype_view();
  for (uint64_t p = 0; p < 4; ++p) {
    const rdf::Term pred = rdf::Term::Iri(Iri("p", p));
    const auto pid = store.ObjectPropertyIdOf(pred.lexical());
    ASSERT_TRUE(pid.has_value());
    for (uint64_t n = 0; n < 40; ++n) {
      const rdf::Term node = rdf::Term::Iri(Iri("n", n));
      const auto id = store.dict().InstanceId(node);
      if (!id) continue;
      EXPECT_EQ(objects.CountForSubject(*pid, *id), brute([&](const auto& t) {
        return t.subject == node && t.predicate == pred;
      })) << "s=" << n << " p=" << p;
      EXPECT_EQ(objects.CountForObject(*pid, *id), brute([&](const auto& t) {
        return t.object == node && t.predicate == pred;
      })) << "o=" << n << " p=" << p;
    }
  }
  for (uint64_t p = 0; p < 2; ++p) {
    const rdf::Term pred = rdf::Term::Iri(Iri("dp", p));
    const auto pid = store.DatatypePropertyIdOf(pred.lexical());
    ASSERT_TRUE(pid.has_value());
    for (uint64_t n = 0; n < 40; ++n) {
      const rdf::Term node = rdf::Term::Iri(Iri("n", n));
      const auto id = store.dict().InstanceId(node);
      if (!id) continue;
      EXPECT_EQ(literals.CountForSubject(*pid, *id), brute([&](const auto& t) {
        return t.subject == node && t.predicate == pred;
      })) << "s=" << n << " dp=" << p;
    }
  }

  // The planner's one-pattern estimates are those counts: with reasoning
  // off every constant-bound shape is exact.
  sparql::Executor executor(db.snapshot(), {false, true, true});
  for (uint64_t n = 0; n < 40; n += 3) {
    const std::string node = "<" + Iri("n", n) + ">";
    for (const std::string& pattern :
         {node + " <" + Iri("p", 1) + "> ?o",
          "?s <" + Iri("p", 2) + "> " + node,
          node + " <" + Iri("dp", 0) + "> ?v",
          node + " a <" + Iri("C", 1) + ">", node + " a ?c",
          "?s a <" + Iri("C", 2) + ">",
          node + " <" + Iri("p", 3) + "> " + node}) {
      auto q = sparql::ParseQuery("SELECT * WHERE { " + pattern + " }");
      ASSERT_TRUE(q.ok()) << pattern;
      const auto plan = executor.Plan(q.value().where.triples);
      ASSERT_EQ(plan.size(), 1u);
      auto rows = executor.Execute(q.value());
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(plan[0].est_rows, static_cast<double>(rows.value().size()))
          << pattern;
    }
  }
}

// ----------------------------------------------------------- semi-join

TEST(PlanOrderSemiJoin, BoundObjectMergeJoinMatchesRowPathUnderOverlay) {
  Rng rng(41);
  rdf::Graph base;
  for (int i = 0; i < 600; ++i) base.Add(RandomTriple(&rng));
  Database db;
  db.LoadOntology(SmallOntology());
  ASSERT_TRUE(db.LoadData(base).ok());
  rdf::Graph added;
  rdf::Graph removed;
  for (int i = 0; i < 120; ++i) added.Add(RandomTriple(&rng));
  for (size_t i = 0; i < base.triples().size(); i += 5) {
    removed.Add(base.triples()[i]);
  }
  MakeOverlay(&db, added, removed);

  // Textual order: the third pattern arrives with subject and object
  // bound, so the merge join runs it as a semi-join; the second has a
  // bound literal object when ?v repeats.
  const std::string text =
      "SELECT * WHERE { ?x <" + Iri("p", 3) + "> ?y . ?y <" + Iri("p", 0) +
      "> ?z . ?x <" + Iri("p", 0) + "> ?z . ?x <" + Iri("dp", 0) +
      "> ?v . ?z <" + Iri("dp", 0) + "> ?v }";
  auto q = sparql::ParseQuery(text);
  ASSERT_TRUE(q.ok());
  for (const bool reasoning : {true, false}) {
    const auto row_path = Answers(db, q.value(), {reasoning, false, false});
    sparql::Executor executor(db.snapshot(), {reasoning, true, false});
    auto merged = executor.Execute(q.value());
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(Multiset(merged.value()), row_path) << "reasoning=" << reasoning;
    EXPECT_FALSE(row_path.empty());
    // Every subject-bound step took the merge join, the semi-joins too.
    EXPECT_EQ(executor.stats().row_extends, 1u);
    EXPECT_EQ(executor.stats().merge_join_extends, 4u);
  }
}

// ----------------------------------------------------- anomaly query

TEST(PlanOrderSensor, AnomalyQueryDoesNotStartAtTheUnitTyping) {
  workloads::SensorConfig config;
  config.stations = 3;
  config.sensors_per_station = 4;
  config.observations_per_sensor = 4;
  Database db;
  db.LoadOntology(workloads::SensorGraphGenerator::BuildOntology());
  ASSERT_TRUE(
      db.LoadData(workloads::SensorGraphGenerator::GenerateTopology(config))
          .ok());
  db.set_compaction_ratio(0);
  const std::string query =
      workloads::SensorGraphGenerator::PressureAnomalyQuery();
  for (int batch = 0; batch < 6; ++batch) {
    ASSERT_TRUE(db.Insert(workloads::SensorGraphGenerator::
                              GenerateObservationBatch(config, batch))
                    .ok());
    if (batch == 3) {
      ASSERT_TRUE(db.Compact().ok());
    }
    auto profile = db.ExplainQuery(query);
    ASSERT_TRUE(profile.ok()) << profile.status().ToString();
    const obs::ProfileNode* execute = profile.value().root.Find("execute");
    ASSERT_NE(execute, nullptr);
    for (const auto& child : execute->children) {
      if (child->name.rfind("tp/", 0) != 0) continue;
      EXPECT_EQ(child->detail.find("PressureUnit"), std::string::npos)
          << "batch " << batch << "\n" << profile.value().ToString();
      break;
    }
    // The answer matches the textual order's.
    auto parsed = sparql::ParseQuery(query);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(Answers(db, parsed.value(), {true, true, true}),
              Answers(db, parsed.value(), {true, false, false}));
  }
}

}  // namespace
}  // namespace sedge
