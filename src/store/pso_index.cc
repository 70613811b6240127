#include "store/pso_index.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "sds/bit_vector.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sedge::store {

PsoIndex PsoIndex::Build(std::vector<Triple> triples, util::ThreadPool* pool) {
  PsoIndex index;
  std::sort(triples.begin(), triples.end(),
            [](const Triple& a, const Triple& b) {
              if (a.p != b.p) return a.p < b.p;
              if (a.s != b.s) return a.s < b.s;
              return a.o < b.o;
            });
  triples.erase(std::unique(triples.begin(), triples.end(),
                            [](const Triple& a, const Triple& b) {
                              return a.p == b.p && a.s == b.s && a.o == b.o;
                            }),
                triples.end());
  index.num_triples_ = triples.size();

  std::vector<uint64_t> predicates;  // distinct, ascending
  std::vector<uint64_t> subjects;    // one per (p,s) pair
  std::vector<uint64_t> objects;     // one per triple
  sds::BitVector bm_ps;              // one bit per pair
  sds::BitVector bm_so;              // one bit per triple

  for (size_t i = 0; i < triples.size(); ++i) {
    const Triple& t = triples[i];
    const bool new_predicate = i == 0 || t.p != triples[i - 1].p;
    const bool new_pair = new_predicate || t.s != triples[i - 1].s;
    if (new_predicate) predicates.push_back(t.p);
    if (new_pair) {
      subjects.push_back(t.s);
      bm_ps.PushBack(new_predicate);
    }
    objects.push_back(t.o);
    bm_so.PushBack(new_pair);
  }

  index.num_pairs_ = subjects.size();
  index.num_predicates_ = predicates.size();
  // The five succinct structures are built from disjoint inputs into
  // disjoint members, so they can be constructed as independent pool tasks.
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&] { index.wt_p_ = sds::WaveletTree(predicates); });
  tasks.emplace_back([&] { index.bm_ps_ = sds::SuccinctBitVector(bm_ps); });
  tasks.emplace_back([&] { index.wt_s_ = sds::WaveletTree(subjects); });
  tasks.emplace_back([&] { index.bm_so_ = sds::SuccinctBitVector(bm_so); });
  tasks.emplace_back([&] { index.wt_o_ = sds::WaveletTree(objects); });
  util::RunParallel(pool, std::move(tasks));
  return index;
}

std::optional<uint64_t> PsoIndex::PredicatePos(uint64_t p) const {
  if (num_predicates_ == 0 || p > wt_p_.max_value()) return std::nullopt;
  if (wt_p_.Rank(num_predicates_, p) == 0) return std::nullopt;
  return wt_p_.Select(1, p);  // wt_p.select(1, id_p), Algorithm 2 line 2
}

std::pair<uint64_t, uint64_t> PsoIndex::SubjectRange(
    uint64_t predicate_pos) const {
  // [Select1(pos+1), Select1(pos+2)); the sentinel closes the last run.
  return {bm_ps_.Select1(predicate_pos + 1),
          bm_ps_.Select1(predicate_pos + 2)};
}

std::pair<uint64_t, uint64_t> PsoIndex::ObjectRange(uint64_t pair_idx) const {
  return {bm_so_.Select1(pair_idx + 1), bm_so_.Select1(pair_idx + 2)};
}

uint64_t PsoIndex::CountForPredicate(uint64_t p) const {
  const auto pos = PredicatePos(p);
  if (!pos) return 0;
  const auto [sb, se] = SubjectRange(*pos);
  // Object positions covered by subject pairs [sb, se).
  const uint64_t ob = bm_so_.Select1(sb + 1);
  const uint64_t oe = bm_so_.Select1(se + 1);
  return oe - ob;
}

uint64_t PsoIndex::CountSubjectsForPredicate(uint64_t p) const {
  const auto pos = PredicatePos(p);
  if (!pos) return 0;
  const auto [sb, se] = SubjectRange(*pos);
  return se - sb;
}

uint64_t PsoIndex::CountForSubject(uint64_t p, uint64_t s) const {
  const auto pos = PredicatePos(p);
  if (!pos) return 0;
  const auto [sb, se] = SubjectRange(*pos);
  const auto [qb, qe] = FindPairForSubject(sb, se, s);
  if (qb == qe) return 0;
  const auto [ob, oe] = ObjectRange(qb);
  return oe - ob;
}

uint64_t PsoIndex::CountForObject(uint64_t p, uint64_t o) const {
  const auto pos = PredicatePos(p);
  if (!pos) return 0;
  const auto [sb, se] = SubjectRange(*pos);
  uint64_t before = 0;
  uint64_t upto = 0;
  wt_o_.RankPairBatch(bm_so_.Select1(sb + 1), bm_so_.Select1(se + 1), &o, 1,
                      &before, &upto);
  return upto - before;
}

uint64_t PsoIndex::EstimateDistinctObjects(uint64_t p) const {
  const auto pos = PredicatePos(p);
  if (!pos) return 0;
  const auto [sb, se] = SubjectRange(*pos);
  const uint64_t ob = bm_so_.Select1(sb + 1);
  const uint64_t oe = bm_so_.Select1(se + 1);
  const uint64_t n = oe - ob;
  if (n == 0) return 0;
  constexpr uint64_t kSamples = 3;
  uint64_t occurrences = 0;
  for (uint64_t k = 0; k < kSamples; ++k) {
    const uint64_t o = wt_o_.Access(ob + (2 * k + 1) * n / (2 * kSamples));
    uint64_t before = 0;
    uint64_t upto = 0;
    wt_o_.RankPairBatch(ob, oe, &o, 1, &before, &upto);
    occurrences += upto - before;
  }
  return std::max<uint64_t>(1, n * kSamples / occurrences);
}

bool PsoIndex::ScanSP(uint64_t p, uint64_t s, const PairSink& sink) const {
  const auto pos = PredicatePos(p);
  if (!pos) return true;
  const auto [sb, se] = SubjectRange(*pos);
  // The paper's rangeSearch on WT_s: subjects are distinct within the run,
  // so one rank difference + one select locate the (p, s) pair.
  const auto [qb, qe] = FindPairForSubject(sb, se, s);
  for (uint64_t q = qb; q < qe; ++q) {
    const auto [ob, oe] = ObjectRange(q);
    for (uint64_t io = ob; io < oe; ++io) {
      if (!sink(s, wt_o_.Access(io))) return false;
    }
  }
  return true;
}

bool PsoIndex::ScanPO(uint64_t p, uint64_t o, const PairSink& sink) const {
  const auto pos = PredicatePos(p);
  if (!pos) return true;
  const auto [sb, se] = SubjectRange(*pos);
  const uint64_t ob = bm_so_.Select1(sb + 1);
  const uint64_t oe = bm_so_.Select1(se + 1);
  // Locate o anywhere in the predicate's object region (Algorithm 4), then
  // map each hit back to its (p,s) pair via rank on BM_so.
  for (const uint64_t io : wt_o_.RangeSearch(ob, oe, o)) {
    const uint64_t pair_idx = bm_so_.Rank1(io + 1) - 1;
    if (!sink(wt_s_.Access(pair_idx), o)) return false;
  }
  return true;
}

bool PsoIndex::ScanP(uint64_t p, const PairSink& sink) const {
  const auto pos = PredicatePos(p);
  if (!pos) return true;
  const auto [sb, se] = SubjectRange(*pos);
  if (sb == se) return true;
  uint64_t io = bm_so_.Select1(sb + 1);
  for (uint64_t q = sb; q < se; ++q) {
    const uint64_t s = wt_s_.Access(q);
    const uint64_t oe = bm_so_.Select1(q + 2);
    for (; io < oe; ++io) {
      if (!sink(s, wt_o_.Access(io))) return false;
    }
  }
  return true;
}

bool PsoIndex::Contains(uint64_t p, uint64_t s, uint64_t o) const {
  const auto pos = PredicatePos(p);
  if (!pos) return false;
  const auto [sb, se] = SubjectRange(*pos);
  const auto [qb, qe] = FindPairForSubject(sb, se, s);
  if (qb == qe) return false;
  const auto [ob, oe] = ObjectRange(qb);
  const auto [lb, le] = FindObjectInRange(ob, oe, o);
  return lb != le;
}

bool PsoIndex::ScanAll(
    const std::function<bool(uint64_t, uint64_t, uint64_t)>& sink) const {
  for (uint64_t pos = 0; pos < num_predicates_; ++pos) {
    const uint64_t p = wt_p_.Access(pos);
    const auto [sb, se] = SubjectRange(pos);
    for (uint64_t q = sb; q < se; ++q) {
      const uint64_t s = wt_s_.Access(q);
      const auto [ob, oe] = ObjectRange(q);
      for (uint64_t io = ob; io < oe; ++io) {
        if (!sink(p, s, wt_o_.Access(io))) return false;
      }
    }
  }
  return true;
}

void PsoIndex::ForEachPredicateIn(
    uint64_t lo, uint64_t hi,
    const std::function<void(uint64_t)>& visit) const {
  if (num_predicates_ == 0) return;
  // WT_p holds each predicate once; the interval maps to a consecutive
  // WT_p region thanks to the ascending order.
  wt_p_.RangeDistinct(0, num_predicates_, lo, hi,
                      [&visit](uint64_t p, uint64_t) { visit(p); });
}

std::pair<uint64_t, uint64_t> PsoIndex::FindPairForSubject(uint64_t from,
                                                           uint64_t to,
                                                           uint64_t s) const {
  // rank/select rangeSearch (Algorithm 3): subjects are unique within a
  // predicate run, so the occurrence count in [from, to) is 0 or 1.
  const uint64_t before = wt_s_.Rank(from, s);
  const uint64_t upto = wt_s_.Rank(to, s);
  if (before == upto) return {from, from};
  const uint64_t q = wt_s_.Select(before + 1, s);
  return {q, q + 1};
}

void PsoIndex::FindPairsForSubjects(uint64_t from, uint64_t to,
                                    const uint64_t* subjects, size_t n,
                                    std::pair<uint64_t, uint64_t>* out) const {
  if (n == 0) return;
  std::vector<uint64_t> lo(n);
  std::vector<uint64_t> hi(n);
  wt_s_.RankPairBatch(from, to, subjects, n, lo.data(), hi.data());
  for (size_t j = 0; j < n; ++j) {
    if (lo[j] == hi[j]) {
      out[j] = {from, from};
    } else {
      const uint64_t q = wt_s_.Select(lo[j] + 1, subjects[j]);
      out[j] = {q, q + 1};
    }
  }
}

uint64_t PsoIndex::ObjectAt(uint64_t io) const { return wt_o_.Access(io); }

std::pair<uint64_t, uint64_t> PsoIndex::FindObjectInRange(uint64_t ob,
                                                          uint64_t oe,
                                                          uint64_t o) const {
  // Objects are distinct within a (p, s) run (triples are deduplicated).
  const uint64_t before = wt_o_.Rank(ob, o);
  const uint64_t upto = wt_o_.Rank(oe, o);
  if (before == upto) return {ob, ob};
  const uint64_t io = wt_o_.Select(before + 1, o);
  return {io, io + 1};
}

uint64_t PsoIndex::SizeInBytes() const {
  return sizeof(*this) + wt_p_.SizeInBytes() + bm_ps_.SizeInBytes() +
         wt_s_.SizeInBytes() + bm_so_.SizeInBytes() + wt_o_.SizeInBytes();
}

void PsoIndex::Serialize(std::ostream& os) const {
  os.write(reinterpret_cast<const char*>(&num_triples_), sizeof(num_triples_));
  os.write(reinterpret_cast<const char*>(&num_pairs_), sizeof(num_pairs_));
  os.write(reinterpret_cast<const char*>(&num_predicates_),
           sizeof(num_predicates_));
  wt_p_.Serialize(os);
  bm_ps_.Serialize(os);
  wt_s_.Serialize(os);
  bm_so_.Serialize(os);
  wt_o_.Serialize(os);
}

Result<PsoIndex> PsoIndex::Deserialize(std::istream& is) {
  PsoIndex index;
  is.read(reinterpret_cast<char*>(&index.num_triples_),
          sizeof(index.num_triples_));
  is.read(reinterpret_cast<char*>(&index.num_pairs_),
          sizeof(index.num_pairs_));
  is.read(reinterpret_cast<char*>(&index.num_predicates_),
          sizeof(index.num_predicates_));
  if (!is) return Status::IoError("PsoIndex image truncated");
  SEDGE_ASSIGN_OR_RETURN(index.wt_p_, sds::WaveletTree::Deserialize(is));
  SEDGE_ASSIGN_OR_RETURN(index.bm_ps_,
                         sds::SuccinctBitVector::Deserialize(is));
  SEDGE_ASSIGN_OR_RETURN(index.wt_s_, sds::WaveletTree::Deserialize(is));
  SEDGE_ASSIGN_OR_RETURN(index.bm_so_,
                         sds::SuccinctBitVector::Deserialize(is));
  SEDGE_ASSIGN_OR_RETURN(index.wt_o_, sds::WaveletTree::Deserialize(is));
  if (index.wt_p_.size() != index.num_predicates_ ||
      index.wt_s_.size() != index.num_pairs_ ||
      index.wt_o_.size() != index.num_triples_) {
    return Status::IoError("PsoIndex layer sizes disagree with counters");
  }
  return index;
}

}  // namespace sedge::store
