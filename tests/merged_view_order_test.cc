// Merged-view ordering property test. The delta-aware merge join sweeps
// the merged views positionally, so their output order is load-bearing:
// after any interleaving of inserts and removes, every view must still
// emit in strict base order — subjects ascending within a predicate,
// objects/literals ascending within a (p, s) pair, concepts ascending per
// subject — with tombstoned base triples skipped and delta adds
// interleaved (not appended). The RunCursor surfaces must agree with the
// corresponding per-subject scans.

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "rdf/vocabulary.h"
#include "store/delta/delta_overlay.h"
#include "store/delta/merged_view.h"
#include "util/rng.h"

namespace sedge {
namespace {

constexpr int kObjectPreds = 3;
constexpr int kDatatypePreds = 2;
constexpr int kConcepts = 3;

std::string Iri(const std::string& kind, uint64_t i) {
  return "http://e.org/" + kind + std::to_string(i);
}

rdf::Triple Obj(uint64_t s, uint64_t p, uint64_t o) {
  return {rdf::Term::Iri(Iri("s", s)), rdf::Term::Iri(Iri("p", p)),
          rdf::Term::Iri(Iri("o", o))};
}
rdf::Triple Dt(uint64_t s, uint64_t p, const std::string& value) {
  return {rdf::Term::Iri(Iri("s", s)), rdf::Term::Iri(Iri("dp", p)),
          rdf::Term::Literal(value)};
}
rdf::Triple Typ(uint64_t s, uint64_t c) {
  return {rdf::Term::Iri(Iri("s", s)), rdf::Term::Iri(rdf::kRdfType),
          rdf::Term::Iri(Iri("C", c))};
}

// Seed mentioning every predicate/class (LiteMat ids are fixed at build
// time) plus some bulk so base runs are non-trivial.
rdf::Graph SeedGraph(Rng& rng) {
  rdf::Graph g;
  for (uint64_t p = 0; p < kObjectPreds; ++p) g.Add(Obj(0, p, 20));
  for (uint64_t p = 0; p < kDatatypePreds; ++p) g.Add(Dt(0, p, "0"));
  for (uint64_t c = 0; c < kConcepts; ++c) g.Add(Typ(0, c));
  for (int i = 0; i < 120; ++i) {
    const uint64_t kind = rng.Uniform(4);
    const uint64_t s = rng.Uniform(16);
    if (kind == 0) {
      g.Add(Typ(s, rng.Uniform(kConcepts)));
    } else if (kind == 1) {
      g.Add(Dt(s, rng.Uniform(kDatatypePreds),
               std::to_string(rng.Uniform(9))));
    } else {
      g.Add(Obj(s, rng.Uniform(kObjectPreds), 20 + rng.Uniform(10)));
    }
  }
  return g;
}

/// (subject, object) pairs of one predicate via the merged full scan.
std::vector<std::pair<uint64_t, uint64_t>> CollectScanP(
    const store::delta::MergedObjectView& view, uint64_t p) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  view.ScanP(p, [&](uint64_t s, uint64_t o) {
    out.push_back({s, o});
    return true;
  });
  return out;
}

class MergedViewOrder : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergedViewOrder, StrictBaseOrderSurvivesInterleavedWrites) {
  Rng rng(GetParam());
  Database db;
  ASSERT_TRUE(db.LoadData(SeedGraph(rng)).ok());
  db.set_reasoning(false);
  db.set_compaction_ratio(0);  // keep the delta live

  // Interleaved writes: inserts of fresh subjects (delta-only runs),
  // inserts overlapping base subjects, and removes (base tombstones and
  // add retractions alike).
  for (int step = 0; step < 300; ++step) {
    const uint64_t kind = rng.Uniform(4);
    const uint64_t s = rng.Uniform(24);  // 16..23 are delta-only subjects
    rdf::Triple t;
    if (kind == 0) {
      t = Typ(s, rng.Uniform(kConcepts));
    } else if (kind == 1) {
      t = Dt(s, rng.Uniform(kDatatypePreds), std::to_string(rng.Uniform(9)));
    } else {
      t = Obj(s, rng.Uniform(kObjectPreds), 20 + rng.Uniform(10));
    }
    if (rng.Bernoulli(0.65)) {
      ASSERT_TRUE(db.Insert(t).ok());
    } else {
      ASSERT_TRUE(db.Remove(t).ok());
    }
  }
  ASSERT_TRUE(db.store().has_delta()) << "writes should leave a live delta";

  const store::TripleStore& st = db.store();
  const auto& dict = st.dict();

  // -- Object view: ScanP strictly (s, o)-ascending; cursor agrees with
  //    ScanSP per subject and its objects ascend.
  for (uint64_t p = 0; p < kObjectPreds; ++p) {
    const auto pid = dict.ObjectPropertyId(Iri("p", p));
    ASSERT_TRUE(pid.has_value());
    const store::delta::MergedObjectView view = st.object_view();
    const auto pairs = CollectScanP(view, *pid);
    for (size_t i = 1; i < pairs.size(); ++i) {
      ASSERT_LT(pairs[i - 1], pairs[i])
          << "object run not strictly (s, o)-ascending at " << i;
    }

    std::vector<uint64_t> subjects;
    for (const auto& [s, o] : pairs) {
      if (subjects.empty() || subjects.back() != s) subjects.push_back(s);
    }
    auto cursor = view.OpenRun(*pid);
    ASSERT_TRUE(pairs.empty() || cursor.valid());
    size_t at = 0;
    for (const uint64_t s : subjects) {
      cursor.Seek(s);
      ASSERT_TRUE(cursor.has_current());
      std::vector<uint64_t> via_cursor;
      cursor.ForEachObject([&](uint64_t o) {
        via_cursor.push_back(o);
        return true;
      });
      std::vector<uint64_t> via_scan;
      view.ScanSP(*pid, s, [&](uint64_t, uint64_t o) {
        via_scan.push_back(o);
        return true;
      });
      ASSERT_EQ(via_cursor, via_scan) << "p" << p << " s" << s;
      for (const uint64_t o : via_cursor) {
        ASSERT_EQ(o, pairs[at].second);
        ASSERT_TRUE(cursor.ContainsObject(o));
        ++at;
      }
      ASSERT_FALSE(cursor.ContainsObject(1000));  // never stored
    }
    ASSERT_EQ(at, pairs.size());
  }

  // -- Datatype view: ScanP subject-ascending, literals strictly
  //    term-ascending within a subject (delta positions interleaved, not
  //    appended); cursor agrees with ScanSP.
  for (uint64_t p = 0; p < kDatatypePreds; ++p) {
    const auto pid = dict.DatatypePropertyId(Iri("dp", p));
    ASSERT_TRUE(pid.has_value());
    const store::delta::MergedDatatypeView view = st.datatype_view();
    std::vector<std::pair<uint64_t, uint64_t>> positions;  // (s, pos)
    view.ScanP(*pid, [&](uint64_t s, uint64_t pos) {
      positions.push_back({s, pos});
      return true;
    });
    for (size_t i = 1; i < positions.size(); ++i) {
      const auto& [ps, ppos] = positions[i - 1];
      const auto& [cs, cpos] = positions[i];
      ASSERT_LE(ps, cs) << "datatype run subjects not ascending at " << i;
      if (ps == cs) {
        ASSERT_LT(view.LiteralAt(ppos), view.LiteralAt(cpos))
            << "literals not strictly ascending within subject " << cs;
      }
    }

    std::vector<uint64_t> subjects;
    for (const auto& [s, pos] : positions) {
      if (subjects.empty() || subjects.back() != s) subjects.push_back(s);
    }
    auto cursor = view.OpenRun(*pid);
    size_t at = 0;
    for (const uint64_t s : subjects) {
      cursor.Seek(s);
      ASSERT_TRUE(cursor.has_current());
      std::vector<uint64_t> via_cursor;
      cursor.ForEachLiteral([&](uint64_t pos) {
        via_cursor.push_back(pos);
        return true;
      });
      std::vector<uint64_t> via_scan;
      view.ScanSP(*pid, s, [&](uint64_t, uint64_t pos) {
        via_scan.push_back(pos);
        return true;
      });
      ASSERT_EQ(via_cursor, via_scan) << "dp" << p << " s" << s;
      for (const uint64_t pos : via_cursor) {
        ASSERT_EQ(pos, positions[at].second);
        ++at;
      }
    }
    ASSERT_EQ(at, positions.size());
  }

  // -- Type view: concepts ascending per subject, subjects ascending per
  //    concept.
  const store::delta::MergedTypeView types = st.type_view();
  for (uint64_t s = 0; s < 64; ++s) {
    std::optional<uint64_t> prev;
    types.ForEachConceptOf(s, [&](uint64_t c) {
      if (prev) {
        ASSERT_LT(*prev, c) << "concepts of s" << s;
      }
      prev = c;
    });
  }
  for (uint64_t c = 0; c < kConcepts; ++c) {
    const auto cid = dict.ConceptId(Iri("C", c));
    ASSERT_TRUE(cid.has_value());
    std::optional<uint64_t> prev;
    types.ForEachSubjectOf(*cid, [&](uint64_t s) {
      if (prev) {
        ASSERT_LT(*prev, s) << "subjects of C" << c;
      }
      prev = s;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInterleavings, MergedViewOrder,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace sedge
