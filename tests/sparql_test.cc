// Tests for the SPARQL layer: parser, query graph, cost-based optimizer,
// expression evaluation, and the executor end-to-end through sedge::Database.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "rdf/vocabulary.h"
#include "sparql/optimizer.h"
#include "sparql/query_graph.h"
#include "sparql/sparql_parser.h"

namespace sedge::sparql {
namespace {

// ------------------------------------------------------------------ parser

TEST(SparqlParser, ParsesSimpleSelect) {
  const auto q = ParseQuery(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x ?y WHERE { ?x ex:p ?y . ?x a ex:C }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().select.size(), 2u);
  ASSERT_EQ(q.value().where.triples.size(), 2u);
  EXPECT_TRUE(IsVar(q.value().where.triples[0].subject));
  EXPECT_EQ(AsTerm(q.value().where.triples[1].predicate).lexical(),
            rdf::kRdfType);
  EXPECT_EQ(AsTerm(q.value().where.triples[1].object).lexical(),
            "http://e.org/C");
}

TEST(SparqlParser, ParsesSemicolonAndCommaAbbreviations) {
  const auto q = ParseQuery(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT * WHERE { ?x a ex:C ; ex:p ?y, ?z ; ex:q \"v\" . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().where.triples.size(), 4u);
  // All four share the subject ?x.
  for (const auto& tp : q.value().where.triples) {
    EXPECT_EQ(AsVar(tp.subject).name, "x");
  }
}

TEST(SparqlParser, ParsesFilterExpressions) {
  const auto q = ParseQuery(
      "SELECT ?v WHERE { ?s <http://e.org/value> ?v . "
      "FILTER (?v < 3.00 || ?v > 4.50) }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().where.filters.size(), 1u);
  EXPECT_EQ(q.value().where.filters[0]->kind, ExprKind::kOr);
}

TEST(SparqlParser, ParsesBindWithFunctions) {
  const auto q = ParseQuery(
      "SELECT ?newV WHERE { ?s <http://e.org/v> ?v . "
      "BIND(if(regex(str(?u), \"BAR\"), ?v, ?v/1000) AS ?newV) }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().where.binds.size(), 1u);
  EXPECT_EQ(q.value().where.binds[0].var.name, "newV");
  EXPECT_EQ(q.value().where.binds[0].expr->function, "if");
}

TEST(SparqlParser, ParsesUnion) {
  const auto q = ParseQuery(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x WHERE { { ?x a ex:A } UNION { ?x a ex:B } UNION "
      "{ ?x a ex:C } }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().where.unions.size(), 1u);
  EXPECT_EQ(q.value().where.unions[0].alternatives.size(), 3u);
}

TEST(SparqlParser, ParsesDistinctAndLimit) {
  const auto q = ParseQuery(
      "SELECT DISTINCT ?x WHERE { ?x ?p ?o } LIMIT 10 OFFSET 5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q.value().distinct);
  EXPECT_EQ(q.value().limit, 10u);
  EXPECT_EQ(q.value().offset, 5u);
}

TEST(SparqlParser, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("SELECT WHERE { ?x ?p ?o }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?x { ?x ex:p ?y }").ok());  // no prefix
  EXPECT_FALSE(ParseQuery("SELECT ?x WHERE { ?x <p> }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?x WHERE { ?x <p> ?y ").ok());
}

// ------------------------------------------------------------- query graph

TEST(QueryGraph, LabelsJoinTypes) {
  const auto q = ParseQuery(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT * WHERE { ?x ex:p ?y . ?x a ex:C . ?z ex:q ?x }");
  ASSERT_TRUE(q.ok());
  const QueryGraph g(q.value().where.triples);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_FALSE(g.IsTypeNode(0));
  EXPECT_TRUE(g.IsTypeNode(1));
  EXPECT_TRUE(g.Connected(0, 1));
  EXPECT_TRUE(g.Connected(0, 2));
  EXPECT_TRUE(g.Connected(1, 2));
  // Edge 0-1 on ?x: subject-subject.
  for (const auto& e : g.edges()) {
    if (e.a == 0 && e.b == 1) {
      EXPECT_EQ(e.type(), JoinType::kSS);
    }
    if (e.a == 0 && e.b == 2) {
      EXPECT_EQ(e.type(), JoinType::kSO);
    }
  }
}

// --------------------------------------------------------------- optimizer

namespace {
// Statistics per pattern, by position in the BGP.
class TableEstimator : public CardinalityEstimator {
 public:
  TableEstimator(const std::vector<TriplePattern>* triples,
                 std::vector<PatternEstimate> estimates)
      : triples_(triples), estimates_(std::move(estimates)) {}
  PatternEstimate Estimate(const TriplePattern& tp) const override {
    return estimates_[static_cast<size_t>(&tp - triples_->data())];
  }

 private:
  const std::vector<TriplePattern>* triples_;
  std::vector<PatternEstimate> estimates_;
};

void ExpectLeftDeep(const std::vector<TriplePattern>& triples,
                    const std::vector<PlanStep>& plan) {
  const QueryGraph g(triples);
  for (size_t i = 1; i < plan.size(); ++i) {
    bool connected = false;
    for (size_t j = 0; j < i; ++j) {
      if (g.Connected(plan[i].pattern, plan[j].pattern)) connected = true;
    }
    EXPECT_TRUE(connected) << "pattern " << plan[i].pattern << " disconnected";
  }
}
}  // namespace

TEST(Optimizer, StartsAtConstantAnchoredPattern) {
  // LUBM Q7's shape and LUBM1's counts: the type-first order would start
  // from 9,490 students; the constant-subject pattern binds 3 courses.
  const auto q = ParseQuery(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT * WHERE { ?x a ex:Student . ?y a ex:Course . "
      "?x ex:takes ?y . <http://e/prof> ex:teaches ?y }");
  ASSERT_TRUE(q.ok());
  const auto& tps = q.value().where.triples;
  const TableEstimator est(&tps, {{9490, 9490, 1, 1, 0},
                                  {1600, 1600, 1, 1, 0},
                                  {28147, 7000, 1700, 1, 0},
                                  {3, 1, 3, 1, 0}});
  for (const bool merge_join : {true, false}) {
    const auto plan = OrderTriplePatterns(tps, est, merge_join);
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan[0].pattern, 3u);
    EXPECT_EQ(plan[0].est_rows, 3);
    ExpectLeftDeep(tps, plan);
  }
}

TEST(Optimizer, ChargesTheOverlayWalkOfObjectBoundLookups) {
  // ?u a Unit is the smallest pattern, but reaching ?r from a bound ?u
  // needs a ScanPO per unit that walks the whole predicate run while an
  // overlay is live; sweeping forward from the subject side is cheaper.
  const auto q = ParseQuery(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT * WHERE { ?s a ex:Sensor . ?s ex:made ?r . "
      "?r ex:unit ?u . ?u a ex:Unit }");
  ASSERT_TRUE(q.ok());
  const auto& tps = q.value().where.triples;
  const TableEstimator est(&tps, {{16, 16, 1, 1, 0},
                                  {4000, 16, 4000, 1, 4000},
                                  {4000, 4000, 3, 1, 4000},
                                  {2, 2, 1, 1, 0}});
  const auto plan = OrderTriplePatterns(tps, est, /*merge_join=*/true);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].pattern, 0u);
  ExpectLeftDeep(tps, plan);
}

TEST(Optimizer, EmptyPatternGoesFirst) {
  const auto q = ParseQuery(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT * WHERE { ?x ex:p ?y . ?y ex:q <http://e/absent> }");
  ASSERT_TRUE(q.ok());
  const auto& tps = q.value().where.triples;
  const TableEstimator est(&tps, {{500, 100, 50, 1, 0}, {0, 0, 0, 1, 0}});
  const auto plan = OrderTriplePatterns(tps, est, true);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].pattern, 1u);
  EXPECT_EQ(plan[1].est_rows, 0);
}

// ------------------------------------------------- end-to-end (Database)

const char kOntology[] = R"(
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix ex: <http://example.org/> .
ex:Person a owl:Class .
ex:Student rdfs:subClassOf ex:Person .
ex:GradStudent rdfs:subClassOf ex:Student .
ex:Professor rdfs:subClassOf ex:Person .
ex:Course a owl:Class .
ex:memberOf a owl:ObjectProperty .
ex:worksFor rdfs:subPropertyOf ex:memberOf .
ex:headOf rdfs:subPropertyOf ex:worksFor .
ex:takes a owl:ObjectProperty .
ex:advisor a owl:ObjectProperty .
ex:age a owl:DatatypeProperty .
ex:name a owl:DatatypeProperty .
)";

const char kData[] = R"(
@prefix ex: <http://example.org/> .
ex:alice a ex:GradStudent ; ex:takes ex:c1, ex:c2 ; ex:age 27 ;
  ex:name "Alice" ; ex:advisor ex:dana ; ex:memberOf ex:dept1 .
ex:bob a ex:Student ; ex:takes ex:c1 ; ex:age 21 ; ex:name "Bob" ;
  ex:memberOf ex:dept1 .
ex:carol a ex:Professor ; ex:worksFor ex:dept1 ; ex:age 47 ;
  ex:name "Carol" .
ex:dana a ex:Professor ; ex:headOf ex:dept2 ; ex:age 52 ; ex:name "Dana" .
ex:c1 a ex:Course .
ex:c2 a ex:Course .
)";

class EndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.LoadOntologyTurtle(kOntology).ok());
    ASSERT_TRUE(db_.LoadDataTurtle(kData).ok());
  }

  std::set<std::string> Column(const QueryResult& r, size_t col) {
    std::set<std::string> out;
    for (const auto& row : r.rows) {
      out.insert(row[col] ? row[col]->lexical() : "UNDEF");
    }
    return out;
  }

  Database db_;
};

TEST_F(EndToEnd, SingleTpObjectProperty) {
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?c WHERE { ex:alice ex:takes ?c }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Column(r.value(), 0),
            (std::set<std::string>{"http://example.org/c1",
                                   "http://example.org/c2"}));
}

TEST_F(EndToEnd, SingleTpReverse) {
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s WHERE { ?s ex:takes ex:c1 }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Column(r.value(), 0),
            (std::set<std::string>{"http://example.org/alice",
                                   "http://example.org/bob"}));
}

TEST_F(EndToEnd, TypeQueryWithoutReasoningIsExact) {
  db_.set_reasoning(false);
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s WHERE { ?s a ex:Student }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Column(r.value(), 0),
            (std::set<std::string>{"http://example.org/bob"}));
}

TEST_F(EndToEnd, TypeQueryWithReasoningUsesInterval) {
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s WHERE { ?s a ex:Student }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Student ⊒ GradStudent: alice (grad) and bob (student).
  EXPECT_EQ(Column(r.value(), 0),
            (std::set<std::string>{"http://example.org/alice",
                                   "http://example.org/bob"}));
  // Person catches everyone.
  const auto all = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s WHERE { ?s a ex:Person }");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 4u);
}

TEST_F(EndToEnd, PropertyHierarchyReasoning) {
  // memberOf ⊒ worksFor ⊒ headOf: all four individuals have a membership.
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s ?d WHERE { ?s ex:memberOf ?d }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 4u);
  db_.set_reasoning(false);
  const auto exact = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s ?d WHERE { ?s ex:memberOf ?d }");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value().size(), 2u);  // only the explicit memberOf edges
}

TEST_F(EndToEnd, StarJoinWithMergePath) {
  const auto query =
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s ?c ?a WHERE { ?s a ex:Student . ?s ex:takes ?c . "
      "?s ex:age ?a }";
  const auto merged = db_.Query(query);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  // alice takes 2 courses, bob 1 -> 3 rows.
  EXPECT_EQ(merged.value().size(), 3u);
  db_.set_merge_join(false);
  const auto nested = db_.Query(query);
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested.value().size(), 3u);
}

TEST_F(EndToEnd, PathJoinAcrossSubjectObject) {
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s ?prof ?d WHERE { ?s ex:advisor ?prof . "
      "?prof ex:worksFor ?d }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // dana headOf dept2; worksFor ⊒ headOf, so reasoning finds it.
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value().rows[0][2]->lexical(), "http://example.org/dept2");
}

TEST_F(EndToEnd, FilterOnNumericLiteral) {
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s WHERE { ?s ex:age ?a . FILTER (?a > 25 && ?a < 50) }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Column(r.value(), 0),
            (std::set<std::string>{"http://example.org/alice",
                                   "http://example.org/carol"}));
}

TEST_F(EndToEnd, FilterWithRegexAndStr) {
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s WHERE { ?s ex:name ?n . FILTER regex(str(?n), \"^[AB]\") }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 2u);  // Alice, Bob
}

TEST_F(EndToEnd, BindComputesDerivedValues) {
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s ?half WHERE { ?s ex:age ?a . BIND(?a / 2 AS ?half) "
      "FILTER (?half > 20) }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // carol (23.5) and dana (26).
  EXPECT_EQ(r.value().size(), 2u);
}

TEST_F(EndToEnd, BindWithIfAndRegex) {
  // The motivating example's unit-conversion shape (Section 2).
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s ?v WHERE { ?s ex:age ?a . "
      "BIND(if(regex(str(?s), \"alice\"), ?a, ?a * 10) AS ?v) }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  double alice_v = 0.0;
  double bob_v = 0.0;
  for (const auto& row : r.value().rows) {
    if (row[0]->lexical() == "http://example.org/alice") {
      alice_v = row[1]->AsDouble();
    }
    if (row[0]->lexical() == "http://example.org/bob") {
      bob_v = row[1]->AsDouble();
    }
  }
  EXPECT_DOUBLE_EQ(alice_v, 27.0);
  EXPECT_DOUBLE_EQ(bob_v, 210.0);
}

TEST_F(EndToEnd, UnionCombinesAlternatives) {
  db_.set_reasoning(false);  // make the union do the work
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s WHERE { { ?s a ex:Student } UNION { ?s a ex:GradStudent } "
      "UNION { ?s a ex:Professor } }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 4u);
}

TEST_F(EndToEnd, UnionJoinsWithOuterPatterns) {
  db_.set_reasoning(false);
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s ?c WHERE { ?s ex:takes ?c . "
      "{ ?s a ex:Student } UNION { ?s a ex:GradStudent } }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 3u);  // alice x2 + bob x1
}

TEST_F(EndToEnd, DistinctAndLimit) {
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT DISTINCT ?d WHERE { ?s ex:memberOf ?d }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 2u);  // dept1, dept2
  const auto limited = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s WHERE { ?s a ex:Person } LIMIT 2");
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited.value().size(), 2u);
}

TEST_F(EndToEnd, SelectStarAndVarPredicate) {
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT * WHERE { ex:alice ?p ?o }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // alice: 1 type + 2 takes + 1 age + 1 name + 1 advisor + 1 memberOf = 7.
  EXPECT_EQ(r.value().size(), 7u);
  // One binding must be the rdf:type predicate.
  bool has_type = false;
  for (const auto& row : r.value().rows) {
    if (row[0] && row[0]->lexical() == rdf::kRdfType) has_type = true;
  }
  EXPECT_TRUE(has_type);
}

TEST_F(EndToEnd, ConstantSubjectTypeCheck) {
  const auto yes = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT * WHERE { ex:alice a ex:Person }");
  ASSERT_TRUE(yes.ok());
  EXPECT_EQ(yes.value().size(), 1u);  // entailed via GradStudent ⊑ ... Person
  db_.set_reasoning(false);
  const auto no = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT * WHERE { ex:alice a ex:Person }");
  ASSERT_TRUE(no.ok());
  EXPECT_EQ(no.value().size(), 0u);
}

TEST_F(EndToEnd, EmptyResultsAreWellFormed) {
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s WHERE { ?s ex:takes ex:nonexistent }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 0u);
  ASSERT_EQ(r.value().var_names.size(), 1u);
}

TEST_F(EndToEnd, QueryCountMatchesDecodedSize) {
  const auto count = db_.QueryCount(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s WHERE { ?s a ex:Person }");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 4u);
}

TEST_F(EndToEnd, OptimizerOffStillCorrect) {
  db_.set_optimizer(false);
  const auto r = db_.Query(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT ?s ?c ?a WHERE { ?s a ex:Student . ?s ex:takes ?c . "
      "?s ex:age ?a }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 3u);
}

// The paper's motivating anomaly-detection query (Section 2), on a
// miniature two-station SOSA/QUDT graph with heterogeneous annotations.
TEST(MotivatingExample, PressureAnomalyAcrossHeterogeneousStations) {
  Database db;
  ASSERT_TRUE(db.LoadOntologyTurtle(R"(
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix qudt: <http://qudt.org/schema/qudt/> .
qudt:MechanicsUnit a owl:Class .
qudt:PressureUnit rdfs:subClassOf qudt:MechanicsUnit .
qudt:Pressure rdfs:subClassOf qudt:PressureUnit .
qudt:PressureOrStressUnit rdfs:subClassOf qudt:PressureUnit .
)").ok());
  ASSERT_TRUE(db.LoadDataTurtle(R"(
@prefix sosa: <http://www.w3.org/ns/sosa/> .
@prefix qudt: <http://qudt.org/schema/qudt/> .
@prefix ex: <http://engie.example/> .
@prefix unit: <http://qudt.org/vocab/unit/> .
ex:station1 a sosa:Platform ; sosa:hosts ex:sensor1 .
ex:sensor1 a sosa:Sensor ; sosa:observes ex:obs1 .
ex:obs1 a sosa:Observation ; sosa:hasResult ex:res1 ;
  sosa:resultTime "2020-12-01T10:00:00" .
ex:res1 a sosa:Result ; qudt:numericValue 5.20 ; qudt:unit unit:BAR .
unit:BAR a qudt:PressureOrStressUnit .
ex:station2 a sosa:Platform ; sosa:hosts ex:sensor2 .
ex:sensor2 a sosa:Sensor ; sosa:observes ex:obs2 .
ex:obs2 a sosa:Observation ; sosa:hasResult ex:res2 ;
  sosa:resultTime "2020-12-01T10:00:00" .
ex:res2 a sosa:Result ; qudt:numericValue 3800 ; qudt:unit unit:HectoPA .
unit:HectoPA a qudt:Pressure .
ex:station3 a sosa:Platform ; sosa:hosts ex:sensor3 .
ex:sensor3 a sosa:Sensor ; sosa:observes ex:obs3 .
ex:obs3 a sosa:Observation ; sosa:hasResult ex:res3 ;
  sosa:resultTime "2020-12-01T10:00:00" .
ex:res3 a sosa:Result ; qudt:numericValue 4.10 ; qudt:unit unit:BAR .
)").ok());

  // Station1 reads 5.20 Bar (anomalous), station2 3800 hPa = 3.8 Bar (OK),
  // station3 4.10 Bar (OK). One query covers both annotations and units
  // thanks to qudt:PressureUnit reasoning + BIND conversion.
  const auto r = db.Query(R"(
PREFIX sosa: <http://www.w3.org/ns/sosa/>
PREFIX qudt: <http://qudt.org/schema/qudt/>
SELECT ?x ?s ?ts ?v1 WHERE {
  ?x a sosa:Platform ; sosa:hosts ?s .
  ?s sosa:observes ?o ; a sosa:Sensor .
  ?o sosa:hasResult ?y ; a sosa:Observation ; sosa:resultTime ?ts .
  ?y a sosa:Result ; qudt:numericValue ?v1 ; qudt:unit ?u1 .
  ?u1 a qudt:PressureUnit .
  FILTER (?newV < 3.00 || ?newV > 4.50)
  BIND(if(regex(str(?u1), "http://qudt.org/vocab/unit/BAR"), ?v1,
       if(regex(str(?u1), "http://qudt.org/vocab/unit/HectoPA"),
          ?v1/1000, 0)) AS ?newV)
})");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value().rows[0][0]->lexical(), "http://engie.example/station1");
  EXPECT_DOUBLE_EQ(r.value().rows[0][3]->AsDouble(), 5.20);
}

}  // namespace
}  // namespace sedge::sparql
