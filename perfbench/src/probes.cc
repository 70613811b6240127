#include "probes.h"

#include <algorithm>
#include <functional>

#include "sds/bit_vector.h"
#include "sds/succinct_bit_vector.h"
#include "sds/wavelet_tree.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kPasses = 5;
constexpr size_t kCalls = 1 << 15;

// Keeps probe results observable so the timed calls cannot be dropped.
volatile uint64_t g_sink = 0;

/// Median over kPasses of (time of one pass of `pass`) / work, where
/// `pass` returns the work it did (calls or emitted triples).
double MedianNsPerUnit(const std::function<uint64_t()>& pass) {
  std::vector<double> per_unit;
  for (int i = 0; i < kPasses; ++i) {
    const Clock::time_point t0 = Clock::now();
    const uint64_t units = pass();
    const double ns = SecondsBetween(t0, Clock::now()) * 1e9;
    if (units > 0) per_unit.push_back(ns / static_cast<double>(units));
  }
  return Median(per_unit);
}

}  // namespace

bool ProbeSds(const sedge::store::TripleStore& store, uint64_t seed,
              MetricSink* out) {
  const sedge::store::PsoIndex& pso = store.object_store();
  const uint64_t pairs = pso.num_pairs();
  const uint64_t triples = pso.num_triples();
  if (pairs == 0 || triples == 0) return false;

  // The subject layer as a plain sequence, and the object layer's
  // run-start bitmap (one bit per triple, set where a (p,s) run opens).
  std::vector<uint64_t> subjects(pairs);
  sedge::sds::BitVector run_starts(triples);
  for (uint64_t i = 0; i < pairs; ++i) {
    subjects[i] = pso.SubjectAt(i);
    run_starts.Set(pso.ObjectRange(i).first, true);
  }
  const sedge::sds::WaveletTree wt(subjects);
  const sedge::sds::SuccinctBitVector bits(run_starts);

  sedge::Rng rng(seed ^ 0x5d5);
  std::vector<uint64_t> pos(kCalls), sym(kCalls), bit_pos(kCalls), ks(kCalls);
  for (size_t i = 0; i < kCalls; ++i) {
    pos[i] = rng.Uniform(pairs);
    sym[i] = subjects[rng.Uniform(pairs)];
    bit_pos[i] = rng.Uniform(triples + 1);
    ks[i] = 1 + rng.Uniform(bits.ones());
  }

  bool ok = bits.ones() == pairs;
  for (size_t i = 0; i < 256 && ok; ++i) {
    ok = wt.Access(pos[i]) == subjects[pos[i]] &&
         bits.Select1(ks[i]) == pso.ObjectRange(ks[i] - 1).first &&
         bits.Rank1(bits.Select1(ks[i])) == ks[i] - 1;
  }
  const uint64_t r = wt.Rank(pairs, sym[0]);
  ok = ok && r > 0 && wt.Select(r, sym[0]) < pairs;

  out->Set("sds.wavelet_access_ns", MedianNsPerUnit([&] {
             uint64_t acc = 0;
             for (const uint64_t p : pos) acc += pso.SubjectAt(p);
             g_sink = g_sink + acc;
             return kCalls;
           }),
           "ns");
  out->Set("sds.wavelet_rank_ns", MedianNsPerUnit([&] {
             uint64_t acc = 0;
             for (size_t i = 0; i < kCalls; ++i) acc += wt.Rank(pos[i], sym[i]);
             g_sink = g_sink + acc;
             return kCalls;
           }),
           "ns");
  out->Set("sds.rank1_ns", MedianNsPerUnit([&] {
             uint64_t acc = 0;
             for (const uint64_t p : bit_pos) acc += bits.Rank1(p);
             g_sink = g_sink + acc;
             return kCalls;
           }),
           "ns");
  out->Set("sds.select1_ns", MedianNsPerUnit([&] {
             uint64_t acc = 0;
             for (const uint64_t k : ks) acc += bits.Select1(k);
             g_sink = g_sink + acc;
             return kCalls;
           }),
           "ns");
  out->Set("sds.wavelet_sigma", static_cast<double>(wt.max_value() + 1),
           "count");
  out->Set("sds.wavelet_levels", wt.height(), "count");
  return ok;
}

bool ProbeStoreScans(const sedge::store::TripleStore& store,
                     const ScanPredicates& preds, uint64_t seed,
                     MetricSink* out) {
  const sedge::store::PsoIndex& pso = store.object_store();
  const sedge::store::DatatypeStore& dts = store.datatype_store();
  const auto obj_p = store.ObjectPropertyIdOf(preds.scan_p_object);
  const auto dt_p = store.DatatypePropertyIdOf(preds.scan_p_datatype);
  if (!obj_p || !dt_p) return false;

  bool ok = true;
  uint64_t expected = pso.CountForPredicate(*obj_p);
  out->Set("store.scan_p_ns_per_triple.object", MedianNsPerUnit([&] {
             uint64_t n = 0;
             pso.ScanP(*obj_p, [&n](uint64_t, uint64_t) { return ++n, true; });
             ok = ok && n == expected;
             return n;
           }),
           "ns");
  expected = dts.CountForPredicate(*dt_p);
  out->Set("store.scan_p_ns_per_triple.datatype", MedianNsPerUnit([&] {
             uint64_t n = 0;
             dts.ScanP(*dt_p, [&n](uint64_t, uint64_t) { return ++n, true; });
             ok = ok && n == expected;
             return n;
           }),
           "ns");

  // Bound-subject and bound-object probes on constants sampled from each
  // predicate's own run.
  struct Probe {
    uint64_t p, s, o;
  };
  sedge::Rng rng(seed ^ 0x5ca7);
  std::vector<Probe> probes;
  for (const std::string& iri : preds.object_preds) {
    const auto p = store.ObjectPropertyIdOf(iri);
    if (!p) return false;
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    pso.ScanP(*p, [&pairs](uint64_t s, uint64_t o) {
      pairs.emplace_back(s, o);
      return true;
    });
    if (pairs.empty()) return false;
    for (int i = 0; i < 64; ++i) {
      const auto& so = pairs[rng.Uniform(pairs.size())];
      probes.push_back({*p, so.first, so.second});
    }
  }
  out->Set("store.scan_po_ns_per_triple", MedianNsPerUnit([&] {
             uint64_t n = 0;
             for (const Probe& q : probes) {
               uint64_t hits = 0;
               pso.ScanPO(q.p, q.o,
                          [&hits](uint64_t, uint64_t) { return ++hits, true; });
               ok = ok && hits > 0;
               n += hits;
             }
             return n;
           }),
           "ns");
  out->Set("store.scan_sp_ns_per_triple", MedianNsPerUnit([&] {
             uint64_t n = 0;
             for (const Probe& q : probes) {
               uint64_t hits = 0;
               pso.ScanSP(q.p, q.s,
                          [&hits](uint64_t, uint64_t) { return ++hits, true; });
               ok = ok && hits > 0;
               n += hits;
             }
             return n;
           }),
           "ns");

  std::vector<std::pair<uint64_t, uint64_t>> intervals;
  for (const std::string& iri : preds.type_classes) {
    const auto iv = store.ConceptIntervalOf(iri, /*reasoning=*/true);
    if (!iv) return false;
    intervals.push_back(*iv);
  }
  const sedge::store::RdfTypeStore& types = store.type_store();
  out->Set("store.type_scan_ns_per_triple", MedianNsPerUnit([&] {
             uint64_t n = 0;
             for (const auto& [lo, hi] : intervals) {
               uint64_t hits = 0;
               types.ForEachSubjectTypedIn(
                   lo, hi, [&hits](uint64_t, uint64_t) { ++hits; });
               ok = ok && hits == types.CountTypedIn(lo, hi);
               n += hits;
             }
             return n;
           }),
           "ns");
  return ok;
}

bool ProbeOverlayScan(const sedge::store::TripleStore& store,
                      const std::vector<std::string>& object_preds,
                      const std::vector<std::string>& datatype_preds,
                      MetricSink* out) {
  const sedge::store::delta::MergedObjectView objects = store.object_view();
  const sedge::store::delta::MergedDatatypeView literals =
      store.datatype_view();
  std::vector<uint64_t> obj_ids, dt_ids;
  for (const std::string& iri : object_preds) {
    const auto p = store.ObjectPropertyIdOf(iri);
    if (!p) return false;
    obj_ids.push_back(*p);
  }
  for (const std::string& iri : datatype_preds) {
    const auto p = store.DatatypePropertyIdOf(iri);
    if (!p) return false;
    dt_ids.push_back(*p);
  }
  uint64_t emitted = 0;
  out->Set("store.overlay_scan_ns_per_triple", MedianNsPerUnit([&] {
             uint64_t n = 0;
             for (const uint64_t p : obj_ids) {
               objects.ScanP(p, [&n](uint64_t, uint64_t) { return ++n, true; });
             }
             for (const uint64_t p : dt_ids) {
               literals.ScanP(p,
                              [&n](uint64_t, uint64_t) { return ++n, true; });
             }
             emitted = n;
             return n;
           }),
           "ns");
  out->Set("store.overlay_scan_triples", static_cast<double>(emitted),
           "count");
  out->Set("store.overlay_scan_delta_entries",
           static_cast<double>(store.delta_size()), "count");
  return emitted > 0;
}

bool ProbeLitemat(const sedge::store::TripleStore& store, uint64_t seed,
                  MetricSink* out) {
  const sedge::litemat::Dictionary& dict = store.dict();
  const uint32_t n = dict.num_instances();
  if (n == 0) return false;
  sedge::Rng rng(seed ^ 0x11e);
  std::vector<uint32_t> ids(kCalls);
  std::vector<sedge::rdf::Term> terms(kCalls);
  for (size_t i = 0; i < kCalls; ++i) {
    ids[i] = static_cast<uint32_t>(rng.Uniform(n));
    terms[i] = dict.InstanceTerm(ids[i]);
  }
  bool ok = true;
  out->Set("litemat.locate_ns", MedianNsPerUnit([&] {
             for (size_t i = 0; i < kCalls; ++i) {
               const auto id = dict.InstanceId(terms[i]);
               ok = ok && id.has_value() && *id == ids[i];
             }
             return kCalls;
           }),
           "ns");
  out->Set("litemat.extract_ns", MedianNsPerUnit([&] {
             uint64_t acc = 0;
             for (const uint32_t id : ids) {
               const sedge::rdf::Term t = dict.InstanceTerm(id);
               acc += t.lexical().size();
             }
             g_sink = g_sink + acc;
             return kCalls;
           }),
           "ns");
  out->Set("litemat.instances", n, "count");
  return ok;
}

}  // namespace perfbench
