#include "store/delta/merged_view.h"

#include <algorithm>
#include <vector>

namespace sedge::store::delta {
namespace {

// Key: leading element of an IdPair run. (Predicate / (p, s) slicing of
// the triple runs lives on the deltas themselves — AddsForPredicate &co.)
struct ByFirst {
  bool operator()(const IdPair& t, uint64_t k) const { return t.first < k; }
  bool operator()(uint64_t k, const IdPair& t) const { return k < t.first; }
};

std::pair<const IdPair*, const IdPair*> FirstSlice(
    const std::vector<IdPair>& run, uint64_t key) {
  const auto lo = std::lower_bound(run.begin(), run.end(), key, ByFirst{});
  const auto hi = std::upper_bound(lo, run.end(), key, ByFirst{});
  return {run.data() + (lo - run.begin()), run.data() + (hi - run.begin())};
}

// Slice of a sorted IdPair run with .first in [lo_key, hi_key).
std::pair<const IdPair*, const IdPair*> FirstRangeSlice(
    const std::vector<IdPair>& run, uint64_t lo_key, uint64_t hi_key) {
  const auto lo =
      std::lower_bound(run.begin(), run.end(), lo_key, ByFirst{});
  const auto hi = std::lower_bound(lo, run.end(), hi_key, ByFirst{});
  return {run.data() + (lo - run.begin()), run.data() + (hi - run.begin())};
}

}  // namespace

// -------------------------------------------------------- MergedObjectView

bool MergedObjectView::HasDeltaFor(uint64_t p) const {
  if (overlay_ == nullptr || overlay_->empty()) return false;
  const auto [ab, ae] = overlay_->AddsForPredicate(p);
  if (ab != ae) return true;
  const auto [db, de] = overlay_->TombstonesForPredicate(p);
  return db != de;
}

bool MergedObjectView::Contains(uint64_t p, uint64_t s, uint64_t o) const {
  if (overlay_ != nullptr && overlay_->ContainsAdd(p, s, o)) return true;
  if (base_ == nullptr || !base_->Contains(p, s, o)) return false;
  return overlay_ == nullptr || !overlay_->IsTombstoned(p, s, o);
}

bool MergedObjectView::ScanSP(uint64_t p, uint64_t s,
                              const PairSink& sink) const {
  if (!HasDeltaFor(p)) {
    return base_ == nullptr || base_->ScanSP(p, s, sink);
  }
  const auto [ab0, ae] = overlay_->AddsForPair(p, s);
  const auto [db0, de] = overlay_->TombstonesForPair(p, s);
  const IdTriple* ab = ab0;
  const IdTriple* db = db0;
  if (base_ != nullptr) {
    if (const auto pos = base_->PredicatePos(p)) {
      const auto [sb, se] = base_->SubjectRange(*pos);
      const auto [qb, qe] = base_->FindPairForSubject(sb, se, s);
      for (uint64_t q = qb; q < qe; ++q) {
        const auto [ob, oe] = base_->ObjectRange(q);
        for (uint64_t io = ob; io < oe; ++io) {
          const uint64_t o = base_->ObjectAt(io);
          while (ab < ae && ab->o < o) {
            if (!sink(s, ab->o)) return false;
            ++ab;
          }
          while (db < de && db->o < o) ++db;
          if (db < de && db->o == o) continue;  // tombstoned
          if (!sink(s, o)) return false;
        }
      }
    }
  }
  for (; ab < ae; ++ab) {
    if (!sink(s, ab->o)) return false;
  }
  return true;
}

bool MergedObjectView::ScanPO(uint64_t p, uint64_t o,
                              const PairSink& sink) const {
  if (!HasDeltaFor(p)) {
    return base_ == nullptr || base_->ScanPO(p, o, sink);
  }
  const auto [ab0, ae] = overlay_->AddsForPredicate(p);
  const IdTriple* ab = ab0;
  const auto emit_adds_below = [&](uint64_t s_limit) {
    for (; ab < ae && ab->s < s_limit; ++ab) {
      if (ab->o == o && !sink(ab->s, o)) return false;
    }
    return true;
  };
  if (base_ != nullptr) {
    if (const auto pos = base_->PredicatePos(p)) {
      const auto [sb, se] = base_->SubjectRange(*pos);
      for (uint64_t q = sb; q < se; ++q) {
        const auto [ob, oe] = base_->ObjectRange(q);
        const auto [lb, le] = base_->FindObjectInRange(ob, oe, o);
        if (lb == le) continue;
        const uint64_t s = base_->SubjectAt(q);
        if (!emit_adds_below(s + 1)) return false;  // adds with s' <= s
        if (overlay_->IsTombstoned(p, s, o)) continue;
        if (!sink(s, o)) return false;
      }
    }
  }
  return emit_adds_below(~0ULL);
}

bool MergedObjectView::ScanP(uint64_t p, const PairSink& sink) const {
  if (!HasDeltaFor(p)) {
    return base_ == nullptr || base_->ScanP(p, sink);
  }
  const auto [ab0, ae] = overlay_->AddsForPredicate(p);
  const auto [db0, de] = overlay_->TombstonesForPredicate(p);
  const IdTriple* ab = ab0;
  const IdTriple* db = db0;
  if (base_ != nullptr) {
    if (const auto pos = base_->PredicatePos(p)) {
      const auto [sb, se] = base_->SubjectRange(*pos);
      for (uint64_t q = sb; q < se; ++q) {
        const uint64_t s = base_->SubjectAt(q);
        const auto [ob, oe] = base_->ObjectRange(q);
        for (uint64_t io = ob; io < oe; ++io) {
          const uint64_t o = base_->ObjectAt(io);
          while (ab < ae && (ab->s < s || (ab->s == s && ab->o < o))) {
            if (!sink(ab->s, ab->o)) return false;
            ++ab;
          }
          while (db < de && (db->s < s || (db->s == s && db->o < o))) ++db;
          if (db < de && db->s == s && db->o == o) continue;  // tombstoned
          if (!sink(s, o)) return false;
        }
      }
    }
  }
  for (; ab < ae; ++ab) {
    if (!sink(ab->s, ab->o)) return false;
  }
  return true;
}

void MergedObjectView::ForEachPredicateIn(
    uint64_t lo, uint64_t hi,
    const std::function<void(uint64_t)>& visit) const {
  std::vector<uint64_t> merged;
  if (base_ != nullptr) {
    base_->ForEachPredicateIn(lo, hi,
                              [&merged](uint64_t p) { merged.push_back(p); });
  }
  if (overlay_ != nullptr && !overlay_->empty()) {
    const auto& run = overlay_->adds().sorted();
    auto it = std::lower_bound(
        run.begin(), run.end(), lo,
        [](const IdTriple& t, uint64_t k) { return t.p < k; });
    while (it != run.end() && it->p < hi) {
      merged.push_back(it->p);
      const uint64_t p = it->p;
      it = std::upper_bound(
          it, run.end(), p,
          [](uint64_t k, const IdTriple& t) { return k < t.p; });
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  }
  for (const uint64_t p : merged) visit(p);
}

uint64_t MergedObjectView::CountForPredicate(uint64_t p) const {
  uint64_t count = base_ != nullptr ? base_->CountForPredicate(p) : 0;
  if (overlay_ != nullptr && !overlay_->empty()) {
    const auto [ab, ae] = overlay_->AddsForPredicate(p);
    const auto [db, de] = overlay_->TombstonesForPredicate(p);
    count += static_cast<uint64_t>(ae - ab);
    count -= static_cast<uint64_t>(de - db);
  }
  return count;
}

uint64_t MergedObjectView::CountSubjectsForPredicate(uint64_t p) const {
  uint64_t count = base_ != nullptr ? base_->CountSubjectsForPredicate(p) : 0;
  if (overlay_ != nullptr && !overlay_->empty()) {
    const auto [ab, ae] = overlay_->AddsForPredicate(p);
    uint64_t prev = ~0ULL;
    for (const IdTriple* it = ab; it < ae; ++it) {
      if (it->s != prev) {
        ++count;  // estimate: delta subjects may duplicate base ones
        prev = it->s;
      }
    }
  }
  return count;
}

uint64_t MergedObjectView::CountForSubject(uint64_t p, uint64_t s) const {
  uint64_t count = base_ != nullptr ? base_->CountForSubject(p, s) : 0;
  if (overlay_ != nullptr && !overlay_->empty()) {
    const auto [ab, ae] = overlay_->AddsForPair(p, s);
    const auto [db, de] = overlay_->TombstonesForPair(p, s);
    count += static_cast<uint64_t>(ae - ab);
    count -= static_cast<uint64_t>(de - db);
  }
  return count;
}

uint64_t MergedObjectView::CountForObject(uint64_t p, uint64_t o) const {
  uint64_t count = base_ != nullptr ? base_->CountForObject(p, o) : 0;
  if (overlay_ != nullptr && !overlay_->empty()) {
    const auto [ab, ae] = overlay_->AddsForPredicate(p);
    const auto [db, de] = overlay_->TombstonesForPredicate(p);
    for (const IdTriple* it = ab; it < ae; ++it) count += it->o == o;
    for (const IdTriple* it = db; it < de; ++it) count -= it->o == o;
  }
  return count;
}

uint64_t MergedObjectView::EstimateDistinctObjects(uint64_t p) const {
  const uint64_t base =
      base_ != nullptr ? base_->EstimateDistinctObjects(p) : 0;
  if (base > 0 || overlay_ == nullptr || overlay_->empty()) return base;
  const auto [ab, ae] = overlay_->AddsForPredicate(p);
  return static_cast<uint64_t>(ae - ab);
}

MergedObjectView::RunCursor MergedObjectView::OpenRun(uint64_t p) const {
  RunCursor cursor;
  if (base_ != nullptr) {
    if (const auto pos = base_->PredicatePos(p)) {
      cursor.base_ = base_;
      const auto [sb, se] = base_->SubjectRange(*pos);
      cursor.pair_from_ = sb;
      cursor.pair_end_ = se;
      cursor.valid_ = true;
    }
  }
  if (overlay_ != nullptr && !overlay_->empty()) {
    const auto [ab, ae] = overlay_->AddsForPredicate(p);
    cursor.add_b_ = cursor.cur_add_b_ = cursor.cur_add_e_ = ab;
    cursor.add_e_ = ae;
    const auto [db, de] = overlay_->TombstonesForPredicate(p);
    cursor.del_b_ = cursor.cur_del_b_ = cursor.cur_del_e_ = db;
    cursor.del_e_ = de;
    cursor.valid_ = cursor.valid_ || ab != ae || db != de;
  }
  return cursor;
}

void MergedObjectView::RunCursor::Seek(uint64_t s) {
  if (base_ != nullptr) {
    const auto [qb, qe] = base_->FindPairForSubject(pair_from_, pair_end_, s);
    cur_qb_ = qb;
    cur_qe_ = qe;
    pair_from_ = qb;  // monotone advance (insertion point)
  }
  while (add_b_ < add_e_ && add_b_->s < s) ++add_b_;
  cur_add_b_ = add_b_;
  cur_add_e_ = add_b_;
  while (cur_add_e_ < add_e_ && cur_add_e_->s == s) ++cur_add_e_;
  while (del_b_ < del_e_ && del_b_->s < s) ++del_b_;
  cur_del_b_ = del_b_;
  cur_del_e_ = del_b_;
  while (cur_del_e_ < del_e_ && cur_del_e_->s == s) ++cur_del_e_;
}

void MergedObjectView::RunCursor::SeekBatch(const uint64_t* subjects,
                                            size_t n) {
  windows_.clear();
  windows_.resize(n);
  if (base_ != nullptr) {
    std::vector<std::pair<uint64_t, uint64_t>> pairs(n);
    base_->FindPairsForSubjects(pair_from_, pair_end_, subjects, n,
                                pairs.data());
    for (size_t j = 0; j < n; ++j) {
      windows_[j].qb = pairs[j].first;
      windows_[j].qe = pairs[j].second;
    }
  } else {
    for (size_t j = 0; j < n; ++j) {
      windows_[j].qb = windows_[j].qe = 0;
    }
  }
  // One monotone sweep over the overlay slices serves every subject.
  const IdTriple* a = add_b_;
  const IdTriple* d = del_b_;
  for (size_t j = 0; j < n; ++j) {
    const uint64_t s = subjects[j];
    while (a < add_e_ && a->s < s) ++a;
    const IdTriple* ae = a;
    while (ae < add_e_ && ae->s == s) ++ae;
    windows_[j].add_b = a;
    windows_[j].add_e = ae;
    while (d < del_e_ && d->s < s) ++d;
    const IdTriple* de = d;
    while (de < del_e_ && de->s == s) ++de;
    windows_[j].del_b = d;
    windows_[j].del_e = de;
  }
  add_b_ = a;  // monotone advance, matching the scalar Seek discipline
  del_b_ = d;
}

void MergedObjectView::RunCursor::SelectWindow(size_t j) {
  const Window& w = windows_[j];
  cur_qb_ = w.qb;
  cur_qe_ = w.qe;
  cur_add_b_ = w.add_b;
  cur_add_e_ = w.add_e;
  cur_del_b_ = w.del_b;
  cur_del_e_ = w.del_e;
}

bool MergedObjectView::RunCursor::ContainsObject(uint64_t o) const {
  const auto by_object = [](const IdTriple& t, uint64_t k) { return t.o < k; };
  const IdTriple* add = std::lower_bound(cur_add_b_, cur_add_e_, o, by_object);
  if (add != cur_add_e_ && add->o == o) return true;
  for (uint64_t q = cur_qb_; q < cur_qe_; ++q) {
    const auto [ob, oe] = base_->ObjectRange(q);
    const auto [lb, le] = base_->FindObjectInRange(ob, oe, o);
    if (lb == le) continue;
    const IdTriple* del = std::lower_bound(cur_del_b_, cur_del_e_, o,
                                           by_object);
    return del == cur_del_e_ || del->o != o;  // live unless tombstoned
  }
  return false;
}

// ------------------------------------------------------ MergedDatatypeView

bool MergedDatatypeView::HasDeltaFor(uint64_t p) const {
  if (overlay_ == nullptr || overlay_->empty()) return false;
  const auto [ab, ae] = overlay_->AddsForPredicate(p);
  if (ab != ae) return true;
  const auto [db, de] = overlay_->TombstonesForPredicate(p);
  return db != de;
}

bool MergedDatatypeView::Contains(uint64_t p, uint64_t s,
                                  const rdf::Term& literal) const {
  if (overlay_ != nullptr && overlay_->ContainsAdd(p, s, literal)) return true;
  if (base_ == nullptr || !base_->Contains(p, s, literal)) return false;
  return overlay_ == nullptr || !overlay_->IsTombstoned(p, s, literal);
}

bool MergedDatatypeView::EmitPair(uint64_t p, uint64_t s, uint64_t ob,
                                  uint64_t oe, const DtTriple* ab,
                                  const DtTriple* ae,
                                  const LiteralSink& sink) const {
  const bool check_tombs =
      overlay_ != nullptr && overlay_->HasTombstonesFor(p, s);
  if (ab == ae && !check_tombs) {
    // Pure base run: no decoding needed.
    for (uint64_t io = ob; io < oe; ++io) {
      if (!sink(s, io)) return false;
    }
    return true;
  }
  // Base literals are ascending within the (p, s) run (build sorts by
  // (p, s, literal)); merge with the delta adds in that same order.
  for (uint64_t io = ob; io < oe; ++io) {
    const rdf::Term lit = base_->LiteralAt(io);
    while (ab < ae && ab->literal < lit) {
      if (!sink(s, MakeDeltaLiteralPos(ab->pool_idx))) return false;
      ++ab;
    }
    if (check_tombs && overlay_->IsTombstoned(p, s, lit)) continue;
    if (!sink(s, io)) return false;
  }
  for (; ab < ae; ++ab) {
    if (!sink(s, MakeDeltaLiteralPos(ab->pool_idx))) return false;
  }
  return true;
}

bool MergedDatatypeView::ScanSP(uint64_t p, uint64_t s,
                                const LiteralSink& sink) const {
  if (!HasDeltaFor(p)) {
    return base_ == nullptr || base_->ScanSP(p, s, sink);
  }
  const auto [ab, ae] = overlay_->AddsForPair(p, s);
  bool base_pair = false;
  if (base_ != nullptr) {
    if (const auto range = base_->PredicateSubjectRange(p)) {
      const auto [qb, qe] =
          base_->FindPairForSubject(range->first, range->second, s);
      if (qb != qe) {
        base_pair = true;
        const auto [ob, oe] = base_->ObjectRange(qb);
        if (!EmitPair(p, s, ob, oe, ab, ae, sink)) return false;
      }
    }
  }
  if (!base_pair) {
    for (const DtTriple* it = ab; it < ae; ++it) {
      if (!sink(s, MakeDeltaLiteralPos(it->pool_idx))) return false;
    }
  }
  return true;
}

bool MergedDatatypeView::ScanPO(uint64_t p, const rdf::Term& literal,
                                const LiteralSink& sink) const {
  if (!HasDeltaFor(p)) {
    return base_ == nullptr || base_->ScanPO(p, literal, sink);
  }
  const auto [ab0, ae] = overlay_->AddsForPredicate(p);
  const DtTriple* ab = ab0;
  const auto emit_adds_below = [&](uint64_t s_limit) {
    for (; ab < ae && ab->s < s_limit; ++ab) {
      if (ab->literal == literal &&
          !sink(ab->s, MakeDeltaLiteralPos(ab->pool_idx))) {
        return false;
      }
    }
    return true;
  };
  if (base_ != nullptr) {
    if (const auto range = base_->PredicateSubjectRange(p)) {
      for (uint64_t q = range->first; q < range->second; ++q) {
        const uint64_t s = base_->SubjectAt(q);
        const auto [ob, oe] = base_->ObjectRange(q);
        for (uint64_t io = ob; io < oe; ++io) {
          if (base_->LiteralAt(io) != literal) continue;
          if (!emit_adds_below(s + 1)) return false;
          if (overlay_->IsTombstoned(p, s, literal)) continue;
          if (!sink(s, io)) return false;
        }
      }
    }
  }
  return emit_adds_below(~0ULL);
}

bool MergedDatatypeView::ScanP(uint64_t p, const LiteralSink& sink) const {
  if (!HasDeltaFor(p)) {
    return base_ == nullptr || base_->ScanP(p, sink);
  }
  const auto [ab0, ae] = overlay_->AddsForPredicate(p);
  const DtTriple* ab = ab0;
  if (base_ != nullptr) {
    if (const auto range = base_->PredicateSubjectRange(p)) {
      for (uint64_t q = range->first; q < range->second; ++q) {
        const uint64_t s = base_->SubjectAt(q);
        // Adds for subjects strictly before this base subject.
        while (ab < ae && ab->s < s) {
          if (!sink(ab->s, MakeDeltaLiteralPos(ab->pool_idx))) return false;
          ++ab;
        }
        const DtTriple* pair_end = ab;
        while (pair_end < ae && pair_end->s == s) ++pair_end;
        const auto [ob, oe] = base_->ObjectRange(q);
        if (!EmitPair(p, s, ob, oe, ab, pair_end, sink)) return false;
        ab = pair_end;
      }
    }
  }
  for (; ab < ae; ++ab) {
    if (!sink(ab->s, MakeDeltaLiteralPos(ab->pool_idx))) return false;
  }
  return true;
}

void MergedDatatypeView::ForEachPredicateIn(
    uint64_t lo, uint64_t hi,
    const std::function<void(uint64_t)>& visit) const {
  std::vector<uint64_t> merged;
  if (base_ != nullptr) {
    base_->ForEachPredicateIn(lo, hi,
                              [&merged](uint64_t p) { merged.push_back(p); });
  }
  if (overlay_ != nullptr && !overlay_->empty()) {
    const auto& run = overlay_->adds().sorted();
    auto it = std::lower_bound(
        run.begin(), run.end(), lo,
        [](const DtTriple& t, uint64_t k) { return t.p < k; });
    while (it != run.end() && it->p < hi) {
      merged.push_back(it->p);
      const uint64_t p = it->p;
      it = std::upper_bound(
          it, run.end(), p,
          [](uint64_t k, const DtTriple& t) { return k < t.p; });
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  }
  for (const uint64_t p : merged) visit(p);
}

uint64_t MergedDatatypeView::CountForPredicate(uint64_t p) const {
  uint64_t count = base_ != nullptr ? base_->CountForPredicate(p) : 0;
  if (overlay_ != nullptr && !overlay_->empty()) {
    const auto [ab, ae] = overlay_->AddsForPredicate(p);
    const auto [db, de] = overlay_->TombstonesForPredicate(p);
    count += static_cast<uint64_t>(ae - ab);
    count -= static_cast<uint64_t>(de - db);
  }
  return count;
}

uint64_t MergedDatatypeView::CountSubjectsForPredicate(uint64_t p) const {
  uint64_t count = base_ != nullptr ? base_->CountSubjectsForPredicate(p) : 0;
  if (overlay_ != nullptr && !overlay_->empty()) {
    const auto [ab, ae] = overlay_->AddsForPredicate(p);
    uint64_t prev = ~0ULL;
    for (const DtTriple* it = ab; it < ae; ++it) {
      if (it->s != prev) {
        ++count;  // estimate, see MergedObjectView
        prev = it->s;
      }
    }
  }
  return count;
}

uint64_t MergedDatatypeView::CountForSubject(uint64_t p, uint64_t s) const {
  uint64_t count = base_ != nullptr ? base_->CountForSubject(p, s) : 0;
  if (overlay_ != nullptr && !overlay_->empty()) {
    const auto [ab, ae] = overlay_->AddsForPair(p, s);
    const auto [db, de] = overlay_->TombstonesForPair(p, s);
    count += static_cast<uint64_t>(ae - ab);
    count -= static_cast<uint64_t>(de - db);
  }
  return count;
}

rdf::Term MergedDatatypeView::LiteralAt(uint64_t pos) const {
  if (IsDeltaLiteral(pos)) {
    return overlay_->PoolTerm(DeltaLiteralIndex(pos));
  }
  return base_->LiteralAt(pos);
}

std::string MergedDatatypeView::LexicalAt(uint64_t pos) const {
  if (IsDeltaLiteral(pos)) {
    return overlay_->PoolTerm(DeltaLiteralIndex(pos)).lexical();
  }
  return base_->LexicalAt(pos);
}

std::optional<double> MergedDatatypeView::NumericAt(uint64_t pos) const {
  if (IsDeltaLiteral(pos)) {
    return overlay_->PoolNumeric(DeltaLiteralIndex(pos));
  }
  return base_->NumericAt(pos);
}

MergedDatatypeView::RunCursor MergedDatatypeView::OpenRun(uint64_t p) const {
  RunCursor cursor;
  if (base_ != nullptr) {
    if (const auto range = base_->PredicateSubjectRange(p)) {
      cursor.base_ = base_;
      cursor.pair_from_ = range->first;
      cursor.pair_end_ = range->second;
      cursor.valid_ = true;
    }
  }
  if (overlay_ != nullptr && !overlay_->empty()) {
    const auto [ab, ae] = overlay_->AddsForPredicate(p);
    cursor.add_b_ = cursor.cur_add_b_ = cursor.cur_add_e_ = ab;
    cursor.add_e_ = ae;
    const auto [db, de] = overlay_->TombstonesForPredicate(p);
    cursor.del_b_ = cursor.cur_del_b_ = cursor.cur_del_e_ = db;
    cursor.del_e_ = de;
    cursor.valid_ = cursor.valid_ || ab != ae || db != de;
  }
  return cursor;
}

void MergedDatatypeView::RunCursor::Seek(uint64_t s) {
  if (base_ != nullptr) {
    const auto [qb, qe] = base_->FindPairForSubject(pair_from_, pair_end_, s);
    cur_qb_ = qb;
    cur_qe_ = qe;
    pair_from_ = qb;  // monotone advance (insertion point)
  }
  while (add_b_ < add_e_ && add_b_->s < s) ++add_b_;
  cur_add_b_ = add_b_;
  cur_add_e_ = add_b_;
  while (cur_add_e_ < add_e_ && cur_add_e_->s == s) ++cur_add_e_;
  while (del_b_ < del_e_ && del_b_->s < s) ++del_b_;
  cur_del_b_ = del_b_;
  cur_del_e_ = del_b_;
  while (cur_del_e_ < del_e_ && cur_del_e_->s == s) ++cur_del_e_;
}

void MergedDatatypeView::RunCursor::SeekBatch(const uint64_t* subjects,
                                              size_t n) {
  windows_.clear();
  windows_.resize(n);
  if (base_ != nullptr) {
    std::vector<std::pair<uint64_t, uint64_t>> pairs(n);
    base_->FindPairsForSubjects(pair_from_, pair_end_, subjects, n,
                                pairs.data());
    for (size_t j = 0; j < n; ++j) {
      windows_[j].qb = pairs[j].first;
      windows_[j].qe = pairs[j].second;
    }
  } else {
    for (size_t j = 0; j < n; ++j) {
      windows_[j].qb = windows_[j].qe = 0;
    }
  }
  const DtTriple* a = add_b_;
  const DtTriple* d = del_b_;
  for (size_t j = 0; j < n; ++j) {
    const uint64_t s = subjects[j];
    while (a < add_e_ && a->s < s) ++a;
    const DtTriple* ae = a;
    while (ae < add_e_ && ae->s == s) ++ae;
    windows_[j].add_b = a;
    windows_[j].add_e = ae;
    while (d < del_e_ && d->s < s) ++d;
    const DtTriple* de = d;
    while (de < del_e_ && de->s == s) ++de;
    windows_[j].del_b = d;
    windows_[j].del_e = de;
  }
  add_b_ = a;
  del_b_ = d;
}

void MergedDatatypeView::RunCursor::SelectWindow(size_t j) {
  const Window& w = windows_[j];
  cur_qb_ = w.qb;
  cur_qe_ = w.qe;
  cur_add_b_ = w.add_b;
  cur_add_e_ = w.add_e;
  cur_del_b_ = w.del_b;
  cur_del_e_ = w.del_e;
}


// ---------------------------------------------------------- MergedTypeView

uint64_t MergedTypeView::num_triples() const {
  uint64_t n = base_ != nullptr ? base_->num_triples() : 0;
  if (overlay_ != nullptr) n += overlay_->num_adds() - overlay_->num_dels();
  return n;
}

bool MergedTypeView::Contains(uint64_t subject, uint64_t concept_id) const {
  if (overlay_ != nullptr && overlay_->ContainsAdd(subject, concept_id)) {
    return true;
  }
  if (base_ == nullptr || !base_->Contains(subject, concept_id)) return false;
  return overlay_ == nullptr || !overlay_->IsTombstoned(subject, concept_id);
}

void MergedTypeView::ForEachConceptOf(
    uint64_t subject, const std::function<void(uint64_t)>& visit) const {
  const std::vector<uint64_t>* base_concepts =
      base_ != nullptr ? base_->ConceptsOf(subject) : nullptr;
  if (overlay_ == nullptr || overlay_->empty()) {
    if (base_concepts != nullptr) {
      for (const uint64_t c : *base_concepts) visit(c);
    }
    return;
  }
  const auto [ab0, ae] = FirstSlice(overlay_->adds_by_subject().sorted(),
                                    subject);
  const IdPair* ab = ab0;
  if (base_concepts != nullptr) {
    for (const uint64_t c : *base_concepts) {
      while (ab < ae && ab->second < c) {
        visit(ab->second);
        ++ab;
      }
      if (overlay_->IsTombstoned(subject, c)) continue;
      visit(c);
    }
  }
  for (; ab < ae; ++ab) visit(ab->second);
}

std::optional<uint64_t> MergedTypeView::FirstConceptIn(uint64_t subject,
                                                       uint64_t lo,
                                                       uint64_t hi) const {
  std::optional<uint64_t> best;
  if (base_ != nullptr) {
    if (const auto* concepts = base_->ConceptsOf(subject)) {
      auto it = std::lower_bound(concepts->begin(), concepts->end(), lo);
      for (; it != concepts->end() && *it < hi; ++it) {
        if (overlay_ != nullptr && overlay_->IsTombstoned(subject, *it)) {
          continue;
        }
        best = *it;
        break;
      }
    }
  }
  if (overlay_ != nullptr && !overlay_->empty()) {
    const auto [ab, ae] = FirstSlice(overlay_->adds_by_subject().sorted(),
                                     subject);
    const auto it = std::lower_bound(
        ab, ae, lo,
        [](const IdPair& t, uint64_t k) { return t.second < k; });
    if (it != ae && it->second < hi && (!best || it->second < *best)) {
      best = it->second;
    }
  }
  return best;
}

void MergedTypeView::ForEachSubjectOf(
    uint64_t concept_id, const std::function<void(uint64_t)>& visit) const {
  const std::vector<uint64_t>* base_subjects =
      base_ != nullptr ? base_->SubjectsOf(concept_id) : nullptr;
  if (overlay_ == nullptr || overlay_->empty()) {
    if (base_subjects != nullptr) {
      for (const uint64_t s : *base_subjects) visit(s);
    }
    return;
  }
  const auto [ab0, ae] = FirstSlice(overlay_->adds_by_concept().sorted(),
                                    concept_id);
  const IdPair* ab = ab0;
  if (base_subjects != nullptr) {
    for (const uint64_t s : *base_subjects) {
      while (ab < ae && ab->second < s) {
        visit(ab->second);
        ++ab;
      }
      if (overlay_->IsTombstoned(s, concept_id)) continue;
      visit(s);
    }
  }
  for (; ab < ae; ++ab) visit(ab->second);
}

void MergedTypeView::ForEachSubjectTypedIn(
    uint64_t lo, uint64_t hi,
    const std::function<void(uint64_t subject, uint64_t concept_id)>& visit)
    const {
  if (base_ != nullptr) {
    if (overlay_ == nullptr || overlay_->empty()) {
      base_->ForEachSubjectTypedIn(lo, hi, visit);
    } else {
      base_->ForEachSubjectTypedIn(
          lo, hi, [&](uint64_t subject, uint64_t concept_id) {
            if (!overlay_->IsTombstoned(subject, concept_id)) {
              visit(subject, concept_id);
            }
          });
    }
  }
  if (overlay_ != nullptr && !overlay_->empty()) {
    const auto [ab, ae] =
        FirstRangeSlice(overlay_->adds_by_concept().sorted(), lo, hi);
    for (const IdPair* it = ab; it < ae; ++it) {
      visit(it->second, it->first);
    }
  }
}

uint64_t MergedTypeView::CountTypedIn(uint64_t lo, uint64_t hi) const {
  uint64_t count = base_ != nullptr ? base_->CountTypedIn(lo, hi) : 0;
  if (overlay_ != nullptr && !overlay_->empty()) {
    const auto [ab, ae] =
        FirstRangeSlice(overlay_->adds_by_concept().sorted(), lo, hi);
    const auto [db, de] =
        FirstRangeSlice(overlay_->dels_by_concept().sorted(), lo, hi);
    count += static_cast<uint64_t>(ae - ab);
    count -= static_cast<uint64_t>(de - db);
  }
  return count;
}

void MergedTypeView::ForEach(
    const std::function<void(uint64_t subject, uint64_t concept_id)>& visit)
    const {
  ForEachSubjectTypedIn(0, ~0ULL, visit);
}

}  // namespace sedge::store::delta
