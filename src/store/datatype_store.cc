#include "store/datatype_store.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <istream>
#include <ostream>

#include "sds/bit_vector.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sedge::store {

DatatypeStore DatatypeStore::Build(std::vector<Triple> triples,
                                   util::ThreadPool* pool) {
  DatatypeStore store;
  std::sort(triples.begin(), triples.end(),
            [](const Triple& a, const Triple& b) {
              if (a.p != b.p) return a.p < b.p;
              if (a.s != b.s) return a.s < b.s;
              return a.literal < b.literal;
            });
  triples.erase(std::unique(triples.begin(), triples.end(),
                            [](const Triple& a, const Triple& b) {
                              return a.p == b.p && a.s == b.s &&
                                     a.literal == b.literal;
                            }),
                triples.end());
  store.num_triples_ = triples.size();

  std::vector<uint64_t> predicates;
  std::vector<uint64_t> subjects;
  sds::BitVector bm_ps;
  sds::BitVector bm_so;
  std::map<std::pair<std::string, std::string>, uint16_t> dtype_ids;
  std::vector<uint64_t> offsets;
  offsets.push_back(0);

  for (size_t i = 0; i < triples.size(); ++i) {
    const Triple& t = triples[i];
    const bool new_predicate = i == 0 || t.p != triples[i - 1].p;
    const bool new_pair = new_predicate || t.s != triples[i - 1].s;
    if (new_predicate) predicates.push_back(t.p);
    if (new_pair) {
      subjects.push_back(t.s);
      bm_ps.PushBack(new_predicate);
    }
    bm_so.PushBack(new_pair);

    // Literal pool entries, in triple-position order.
    store.lexical_pool_ += t.literal.lexical();
    offsets.push_back(store.lexical_pool_.size());
    const std::pair<std::string, std::string> dtype = {t.literal.datatype(),
                                                       t.literal.lang()};
    auto [it, inserted] = dtype_ids.emplace(
        dtype, static_cast<uint16_t>(dtype_ids.size()));
    if (inserted) store.dtype_entries_.push_back(dtype);
    SEDGE_CHECK(store.dtype_entries_.size() <= 65535)
        << "too many distinct (datatype, lang) combinations";
    store.dtype_index_.push_back(it->second);
    store.numeric_cache_.push_back(
        t.literal.IsNumericLiteral()
            ? t.literal.AsDouble()
            : std::numeric_limits<double>::quiet_NaN());
  }

  store.num_pairs_ = subjects.size();
  store.num_predicates_ = predicates.size();
  // Disjoint inputs into disjoint members: safe as independent pool tasks.
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&] { store.wt_p_ = sds::WaveletTree(predicates); });
  tasks.emplace_back([&] { store.bm_ps_ = sds::SuccinctBitVector(bm_ps); });
  tasks.emplace_back([&] { store.wt_s_ = sds::WaveletTree(subjects); });
  tasks.emplace_back([&] { store.bm_so_ = sds::SuccinctBitVector(bm_so); });
  tasks.emplace_back(
      [&] { store.lexical_offsets_ = sds::EliasFano(offsets); });
  util::RunParallel(pool, std::move(tasks));
  return store;
}

rdf::Term DatatypeStore::LiteralAt(uint64_t pos) const {
  SEDGE_CHECK(pos < num_triples_);
  const auto& [datatype, lang] = dtype_entries_[dtype_index_[pos]];
  return rdf::Term::Literal(LexicalAt(pos), datatype, lang);
}

std::string DatatypeStore::LexicalAt(uint64_t pos) const {
  SEDGE_CHECK(pos < num_triples_);
  const uint64_t begin = lexical_offsets_.Access(pos);
  const uint64_t end = lexical_offsets_.Access(pos + 1);
  return lexical_pool_.substr(begin, end - begin);
}

std::optional<double> DatatypeStore::NumericAt(uint64_t pos) const {
  SEDGE_CHECK(pos < num_triples_);
  const double v = numeric_cache_[pos];
  if (std::isnan(v)) return std::nullopt;
  return v;
}

std::optional<uint64_t> DatatypeStore::PredicatePos(uint64_t p) const {
  if (num_predicates_ == 0 || p > wt_p_.max_value()) return std::nullopt;
  if (wt_p_.Rank(num_predicates_, p) == 0) return std::nullopt;
  return wt_p_.Select(1, p);
}

std::pair<uint64_t, uint64_t> DatatypeStore::SubjectRange(
    uint64_t predicate_pos) const {
  return {bm_ps_.Select1(predicate_pos + 1),
          bm_ps_.Select1(predicate_pos + 2)};
}

std::pair<uint64_t, uint64_t> DatatypeStore::ObjectRange(
    uint64_t pair_idx) const {
  return {bm_so_.Select1(pair_idx + 1), bm_so_.Select1(pair_idx + 2)};
}

bool DatatypeStore::ScanSP(uint64_t p, uint64_t s,
                           const LiteralSink& sink) const {
  const auto pos = PredicatePos(p);
  if (!pos) return true;
  const auto [sb, se] = SubjectRange(*pos);
  const auto [qb, qe] = FindPairForSubject(sb, se, s);
  for (uint64_t q = qb; q < qe; ++q) {
    const auto [ob, oe] = ObjectRange(q);
    for (uint64_t io = ob; io < oe; ++io) {
      if (!sink(s, io)) return false;
    }
  }
  return true;
}

bool DatatypeStore::ScanPO(uint64_t p, const rdf::Term& literal,
                           const LiteralSink& sink) const {
  const auto pos = PredicatePos(p);
  if (!pos) return true;
  const auto [sb, se] = SubjectRange(*pos);
  if (sb == se) return true;
  uint64_t io = bm_so_.Select1(sb + 1);
  for (uint64_t q = sb; q < se; ++q) {
    const uint64_t oe = bm_so_.Select1(q + 2);
    for (; io < oe; ++io) {
      if (LiteralAt(io) == literal) {
        if (!sink(wt_s_.Access(q), io)) return false;
      }
    }
  }
  return true;
}

bool DatatypeStore::ScanP(uint64_t p, const LiteralSink& sink) const {
  const auto pos = PredicatePos(p);
  if (!pos) return true;
  const auto [sb, se] = SubjectRange(*pos);
  if (sb == se) return true;
  uint64_t io = bm_so_.Select1(sb + 1);
  for (uint64_t q = sb; q < se; ++q) {
    const uint64_t s = wt_s_.Access(q);
    const uint64_t oe = bm_so_.Select1(q + 2);
    for (; io < oe; ++io) {
      if (!sink(s, io)) return false;
    }
  }
  return true;
}

bool DatatypeStore::Contains(uint64_t p, uint64_t s,
                             const rdf::Term& literal) const {
  bool found = false;
  ScanSP(p, s, [&](uint64_t, uint64_t io) {
    if (LiteralAt(io) == literal) {
      found = true;
      return false;
    }
    return true;
  });
  return found;
}

bool DatatypeStore::ScanAll(
    const std::function<bool(uint64_t, uint64_t, uint64_t)>& sink) const {
  for (uint64_t pos = 0; pos < num_predicates_; ++pos) {
    const uint64_t p = wt_p_.Access(pos);
    const auto [sb, se] = SubjectRange(pos);
    for (uint64_t q = sb; q < se; ++q) {
      const uint64_t s = wt_s_.Access(q);
      const auto [ob, oe] = ObjectRange(q);
      for (uint64_t io = ob; io < oe; ++io) {
        if (!sink(p, s, io)) return false;
      }
    }
  }
  return true;
}

void DatatypeStore::ForEachPredicateIn(
    uint64_t lo, uint64_t hi,
    const std::function<void(uint64_t)>& visit) const {
  if (num_predicates_ == 0) return;
  wt_p_.RangeDistinct(0, num_predicates_, lo, hi,
                      [&visit](uint64_t p, uint64_t) { visit(p); });
}

std::optional<std::pair<uint64_t, uint64_t>>
DatatypeStore::PredicateSubjectRange(uint64_t p) const {
  const auto pos = PredicatePos(p);
  if (!pos) return std::nullopt;
  return SubjectRange(*pos);
}

std::pair<uint64_t, uint64_t> DatatypeStore::FindPairForSubject(
    uint64_t from, uint64_t to, uint64_t s) const {
  // Subjects are unique within a predicate run: rank difference + select.
  const uint64_t before = wt_s_.Rank(from, s);
  const uint64_t upto = wt_s_.Rank(to, s);
  if (before == upto) return {from, from};
  const uint64_t q = wt_s_.Select(before + 1, s);
  return {q, q + 1};
}

void DatatypeStore::FindPairsForSubjects(
    uint64_t from, uint64_t to, const uint64_t* subjects, size_t n,
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

uint64_t DatatypeStore::CountForPredicate(uint64_t p) const {
  const auto pos = PredicatePos(p);
  if (!pos) return 0;
  const auto [sb, se] = SubjectRange(*pos);
  return bm_so_.Select1(se + 1) - bm_so_.Select1(sb + 1);
}

uint64_t DatatypeStore::CountSubjectsForPredicate(uint64_t p) const {
  const auto pos = PredicatePos(p);
  if (!pos) return 0;
  const auto [sb, se] = SubjectRange(*pos);
  return se - sb;
}

uint64_t DatatypeStore::CountForSubject(uint64_t p, uint64_t s) const {
  const auto pos = PredicatePos(p);
  if (!pos) return 0;
  const auto [sb, se] = SubjectRange(*pos);
  const auto [qb, qe] = FindPairForSubject(sb, se, s);
  if (qb == qe) return 0;
  const auto [ob, oe] = ObjectRange(qb);
  return oe - ob;
}

uint64_t DatatypeStore::SizeInBytes() const {
  uint64_t total = sizeof(*this);
  total += wt_p_.SizeInBytes() + bm_ps_.SizeInBytes() + wt_s_.SizeInBytes() +
           bm_so_.SizeInBytes();
  total += lexical_pool_.size();
  total += lexical_offsets_.SizeInBytes();
  total += dtype_index_.size() * sizeof(uint16_t);
  for (const auto& [dt, lang] : dtype_entries_) total += dt.size() + lang.size();
  total += numeric_cache_.size() * sizeof(double);
  return total;
}

void DatatypeStore::Serialize(std::ostream& os) const {
  os.write(reinterpret_cast<const char*>(&num_triples_), sizeof(num_triples_));
  os.write(reinterpret_cast<const char*>(&num_pairs_), sizeof(num_pairs_));
  os.write(reinterpret_cast<const char*>(&num_predicates_),
           sizeof(num_predicates_));
  wt_p_.Serialize(os);
  bm_ps_.Serialize(os);
  wt_s_.Serialize(os);
  bm_so_.Serialize(os);
  const uint64_t pool_size = lexical_pool_.size();
  os.write(reinterpret_cast<const char*>(&pool_size), sizeof(pool_size));
  os.write(lexical_pool_.data(),
           static_cast<std::streamsize>(lexical_pool_.size()));
  lexical_offsets_.Serialize(os);
  os.write(reinterpret_cast<const char*>(dtype_index_.data()),
           static_cast<std::streamsize>(dtype_index_.size() *
                                        sizeof(uint16_t)));
  const uint32_t num_entries = static_cast<uint32_t>(dtype_entries_.size());
  os.write(reinterpret_cast<const char*>(&num_entries), sizeof(num_entries));
  for (const auto& [dt, lang] : dtype_entries_) {
    const uint32_t a = static_cast<uint32_t>(dt.size());
    const uint32_t b = static_cast<uint32_t>(lang.size());
    os.write(reinterpret_cast<const char*>(&a), sizeof(a));
    os.write(dt.data(), a);
    os.write(reinterpret_cast<const char*>(&b), sizeof(b));
    os.write(lang.data(), b);
  }
}

Result<DatatypeStore> DatatypeStore::Deserialize(std::istream& is) {
  DatatypeStore store;
  is.read(reinterpret_cast<char*>(&store.num_triples_),
          sizeof(store.num_triples_));
  is.read(reinterpret_cast<char*>(&store.num_pairs_),
          sizeof(store.num_pairs_));
  is.read(reinterpret_cast<char*>(&store.num_predicates_),
          sizeof(store.num_predicates_));
  if (!is) return Status::IoError("DatatypeStore image truncated");
  SEDGE_ASSIGN_OR_RETURN(store.wt_p_, sds::WaveletTree::Deserialize(is));
  SEDGE_ASSIGN_OR_RETURN(store.bm_ps_,
                         sds::SuccinctBitVector::Deserialize(is));
  SEDGE_ASSIGN_OR_RETURN(store.wt_s_, sds::WaveletTree::Deserialize(is));
  SEDGE_ASSIGN_OR_RETURN(store.bm_so_,
                         sds::SuccinctBitVector::Deserialize(is));
  uint64_t pool_size = 0;
  is.read(reinterpret_cast<char*>(&pool_size), sizeof(pool_size));
  if (!is) return Status::IoError("DatatypeStore pool header truncated");
  store.lexical_pool_.resize(pool_size);
  is.read(store.lexical_pool_.data(),
          static_cast<std::streamsize>(pool_size));
  SEDGE_ASSIGN_OR_RETURN(store.lexical_offsets_,
                         sds::EliasFano::Deserialize(is));
  store.dtype_index_.resize(store.num_triples_);
  is.read(reinterpret_cast<char*>(store.dtype_index_.data()),
          static_cast<std::streamsize>(store.dtype_index_.size() *
                                       sizeof(uint16_t)));
  uint32_t num_entries = 0;
  is.read(reinterpret_cast<char*>(&num_entries), sizeof(num_entries));
  if (!is || num_entries > 65535) {
    return Status::IoError("DatatypeStore dtype table truncated");
  }
  store.dtype_entries_.reserve(num_entries);
  for (uint32_t i = 0; i < num_entries; ++i) {
    uint32_t a = 0, b = 0;
    std::string dt, lang;
    is.read(reinterpret_cast<char*>(&a), sizeof(a));
    if (!is) return Status::IoError("DatatypeStore dtype entry truncated");
    dt.resize(a);
    is.read(dt.data(), a);
    is.read(reinterpret_cast<char*>(&b), sizeof(b));
    if (!is) return Status::IoError("DatatypeStore dtype entry truncated");
    lang.resize(b);
    is.read(lang.data(), b);
    store.dtype_entries_.emplace_back(std::move(dt), std::move(lang));
  }
  if (!is || store.lexical_offsets_.size() != store.num_triples_ + 1) {
    return Status::IoError("DatatypeStore image malformed");
  }
  // The parsed-double cache is derived data — rebuild it rather than
  // spending checkpoint bytes on it.
  store.numeric_cache_.reserve(store.num_triples_);
  for (uint64_t i = 0; i < store.num_triples_; ++i) {
    const rdf::Term literal = store.LiteralAt(i);
    store.numeric_cache_.push_back(
        literal.IsNumericLiteral()
            ? literal.AsDouble()
            : std::numeric_limits<double>::quiet_NaN());
  }
  return store;
}

}  // namespace sedge::store
