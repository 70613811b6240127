// Merged, tombstone-filtered views over (succinct base ∪ delta overlay).
//
// One lightweight view per layout, constructed on demand by
// TripleStore::object_view()/datatype_view()/type_view(). Each mirrors the
// scan surface of its base structure (PsoIndex, DatatypeStore,
// RdfTypeStore) so the SPARQL executor runs the same algorithms whether or
// not writes have happened:
//
//   - when the overlay is empty (fresh build, or right after Compact()),
//     every call forwards straight to the base structure — the succinct
//     scan speed of the paper is untouched;
//   - otherwise base runs and delta runs are merged two-pointer style in
//     the base's own order (subjects ascending within a predicate, objects
//     / literals ascending within a (p, s) pair, concepts ascending per
//     subject), with tombstoned base triples skipped, so downstream join
//     logic keeps its ordering assumptions.
//
// The executor's positional merge join (paper Figure 7) runs through the
// RunCursor APIs below, so it engages whether or not a delta overlay is
// live: OpenRun(p) pins one predicate's base subject window plus the
// overlay's add/tombstone slices, Seek(s) advances all three monotonically
// (the same insertion-point discipline FindPairForSubject gives on the
// bare base), and the per-subject visitors emit the merged,
// tombstone-filtered run in base order. Literal positions emitted by
// MergedDatatypeView are either base pool positions or delta pool indices
// tagged with kDeltaLiteralBit; LiteralAt/LexicalAt/NumericAt route both,
// so bindings built from cursor output decode uniformly.
//
// Views are value types holding two pointers; create them per query, do
// not store them across writes. Cursors additionally pin run slices, so
// they follow the same rule.
//
// Thread sharing: every accessor on these views is const and reads only
// the base layouts plus *sealed* overlay runs (DeltaSet::sorted() on a
// sealed set is a pure read — see the contract in delta_set.h). Any number
// of threads may therefore drive views/cursors over the same pinned
// StoreGeneration concurrently; the serve::QueryService reader pool does
// exactly that.

#ifndef SEDGE_STORE_DELTA_MERGED_VIEW_H_
#define SEDGE_STORE_DELTA_MERGED_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "rdf/term.h"
#include "store/datatype_store.h"
#include "store/delta/delta_overlay.h"
#include "store/pso_index.h"
#include "store/rdftype_store.h"

namespace sedge::store::delta {

/// \brief PsoIndex ∪ ObjectDelta.
class MergedObjectView {
 public:
  MergedObjectView(const PsoIndex* base, const ObjectDelta* overlay)
      : base_(base), overlay_(overlay) {}

  /// \brief Monotone merge-join cursor over one predicate's merged
  /// (base ∪ delta, tombstone-filtered) subject run.
  ///
  /// Obtained from OpenRun(p). Seek(s) must be called with non-decreasing
  /// subjects: the base window and the overlay slices only ever advance,
  /// so a whole sorted binding column sweeps the predicate run in one
  /// left-to-right pass — the Figure-7 property, kept alive under writes.
  class RunCursor {
   public:
    /// False when the predicate occurs in neither base nor overlay; such
    /// a cursor must not be Seek'd.
    bool valid() const { return valid_; }

    /// Positions the cursor at subject `s` (>= every previously sought
    /// subject). Idempotent for a repeated subject.
    void Seek(uint64_t s);

    /// Batch variant: precomputes the windows for a sorted run of distinct
    /// subjects (each >= every previously sought subject) in one pass —
    /// one batched base lookup (FindPairsForSubjects) plus one linear
    /// overlay sweep. SelectWindow(j) then makes the j-th subject current
    /// in O(1), so a whole binding column pays one descent run instead of
    /// one virtual-dispatch Seek per row.
    void SeekBatch(const uint64_t* subjects, size_t n);
    /// Makes precomputed window j (the j-th subject passed to SeekBatch)
    /// current. Windows may be selected repeatedly and in any order.
    void SelectWindow(size_t j);

    /// Whether the sought subject has any base pair or delta adds. May
    /// report true when every triple is tombstoned — ForEachObject then
    /// emits nothing (exact liveness would cost the filtering up front).
    bool has_current() const {
      return cur_qb_ != cur_qe_ || cur_add_b_ != cur_add_e_;
    }

    /// Visits the sought subject's live objects ascending. Returns false
    /// iff the sink aborted. Templated (not std::function): this is the
    /// Figure-7 inner loop, called once per (row, route) — the sink must
    /// stay inlinable.
    template <typename Sink>
    bool ForEachObject(Sink&& sink) const {
      const IdTriple* a = cur_add_b_;
      const IdTriple* d = cur_del_b_;
      for (uint64_t q = cur_qb_; q < cur_qe_; ++q) {
        const auto [ob, oe] = base_->ObjectRange(q);
        for (uint64_t io = ob; io < oe; ++io) {
          const uint64_t o = base_->ObjectAt(io);
          while (a < cur_add_e_ && a->o < o) {
            if (!sink(a->o)) return false;
            ++a;
          }
          while (d < cur_del_e_ && d->o < o) ++d;
          if (d < cur_del_e_ && d->o == o) continue;  // tombstoned
          if (!sink(o)) return false;
        }
      }
      for (; a < cur_add_e_; ++a) {
        if (!sink(a->o)) return false;
      }
      return true;
    }

    /// Membership probe for a constant object of the sought subject.
    bool ContainsObject(uint64_t o) const;

   private:
    friend class MergedObjectView;
    RunCursor() = default;

    bool valid_ = false;
    const PsoIndex* base_ = nullptr;  // null when pred absent from base
    uint64_t pair_from_ = 0;          // monotone insertion point in WT_s
    uint64_t pair_end_ = 0;           // end of the predicate's subject run
    uint64_t cur_qb_ = 0, cur_qe_ = 0;  // base pairs of the sought subject
    // Overlay slices for the predicate; *_b advances with Seek, the
    // current subject's run is [*_b, cur_*_e).
    const IdTriple* add_b_ = nullptr;
    const IdTriple* add_e_ = nullptr;
    const IdTriple* cur_add_b_ = nullptr;
    const IdTriple* cur_add_e_ = nullptr;
    const IdTriple* del_b_ = nullptr;
    const IdTriple* del_e_ = nullptr;
    const IdTriple* cur_del_b_ = nullptr;
    const IdTriple* cur_del_e_ = nullptr;

    // Precomputed per-subject windows from SeekBatch.
    struct Window {
      uint64_t qb, qe;
      const IdTriple *add_b, *add_e, *del_b, *del_e;
    };
    std::vector<Window> windows_;
  };

  /// Opens a merge-join cursor over predicate `p`'s merged run.
  RunCursor OpenRun(uint64_t p) const;

  bool Contains(uint64_t p, uint64_t s, uint64_t o) const;
  bool ScanSP(uint64_t p, uint64_t s, const PairSink& sink) const;
  bool ScanPO(uint64_t p, uint64_t o, const PairSink& sink) const;
  bool ScanP(uint64_t p, const PairSink& sink) const;

  void ForEachPredicateIn(uint64_t lo, uint64_t hi,
                          const std::function<void(uint64_t)>& visit) const;

  uint64_t CountForPredicate(uint64_t p) const;
  /// Distinct-subject estimate (delta subjects may repeat base ones).
  uint64_t CountSubjectsForPredicate(uint64_t p) const;
  /// Exact live counts of (s, p, ?o) and (?s, p, o): the base count plus
  /// the overlay's adds minus its tombstones (which only name base
  /// triples).
  uint64_t CountForSubject(uint64_t p, uint64_t s) const;
  uint64_t CountForObject(uint64_t p, uint64_t o) const;
  /// PsoIndex::EstimateDistinctObjects of the base, or the overlay's add
  /// count for a predicate the base lacks.
  uint64_t EstimateDistinctObjects(uint64_t p) const;

  /// Whether the overlay holds adds or tombstones for `p`. ScanPO then
  /// walks every subject pair of the predicate instead of the wavelet
  /// object index, which the planner must charge for.
  bool HasDeltaFor(uint64_t p) const;

 private:
  const PsoIndex* base_;
  const ObjectDelta* overlay_;  // may be nullptr
};

/// \brief DatatypeStore ∪ DatatypeDelta. Literal positions emitted by the
/// scans are base pool positions or kDeltaLiteralBit-tagged delta pool
/// indices; LiteralAt/LexicalAt/NumericAt route both.
class MergedDatatypeView {
 public:
  MergedDatatypeView(const DatatypeStore* base, const DatatypeDelta* overlay)
      : base_(base), overlay_(overlay) {}

  /// \brief Monotone merge-join cursor, the datatype twin of
  /// MergedObjectView::RunCursor. Emitted positions are base pool
  /// positions or kDeltaLiteralBit-tagged delta pool indices, in the base
  /// (p, s, literal) order.
  class RunCursor {
   public:
    bool valid() const { return valid_; }

    /// Positions at subject `s`; subjects must be non-decreasing across
    /// calls (monotone advance).
    void Seek(uint64_t s);

    /// Batch variant mirroring MergedObjectView::RunCursor::SeekBatch:
    /// precomputes windows for a sorted distinct subject run; SelectWindow
    /// then switches between them in O(1).
    void SeekBatch(const uint64_t* subjects, size_t n);
    /// Makes precomputed window j current (any order, repeatable).
    void SelectWindow(size_t j);

    /// Whether the sought subject has any base pair or delta adds (may be
    /// true with everything tombstoned; ForEachLiteral then emits
    /// nothing).
    bool has_current() const {
      return cur_qb_ != cur_qe_ || cur_add_b_ != cur_add_e_;
    }

    /// Visits the sought subject's live literal positions in base
    /// (p, s, literal) order. Returns false iff the sink aborted.
    /// Templated for the same hot-path reason as ForEachObject.
    template <typename Sink>
    bool ForEachLiteral(Sink&& sink) const {
      const DtTriple* a = cur_add_b_;
      const DtTriple* d = cur_del_b_;
      const bool pure_base = a == cur_add_e_ && d == cur_del_e_;
      for (uint64_t q = cur_qb_; q < cur_qe_; ++q) {
        const auto [ob, oe] = base_->ObjectRange(q);
        if (pure_base) {
          // No adds and no tombstones for this subject: positional emit,
          // no literal decoding.
          for (uint64_t io = ob; io < oe; ++io) {
            if (!sink(io)) return false;
          }
          continue;
        }
        // Base literals are ascending within the (p, s) run; merge the
        // delta adds in and skip tombstoned base literals, both in
        // literal order.
        for (uint64_t io = ob; io < oe; ++io) {
          const rdf::Term lit = base_->LiteralAt(io);
          while (a < cur_add_e_ && a->literal < lit) {
            if (!sink(MakeDeltaLiteralPos(a->pool_idx))) return false;
            ++a;
          }
          while (d < cur_del_e_ && d->literal < lit) ++d;
          if (d < cur_del_e_ && d->literal == lit) continue;  // tombstoned
          if (!sink(io)) return false;
        }
      }
      for (; a < cur_add_e_; ++a) {
        if (!sink(MakeDeltaLiteralPos(a->pool_idx))) return false;
      }
      return true;
    }

   private:
    friend class MergedDatatypeView;
    RunCursor() = default;

    bool valid_ = false;
    const DatatypeStore* base_ = nullptr;
    uint64_t pair_from_ = 0;
    uint64_t pair_end_ = 0;
    uint64_t cur_qb_ = 0, cur_qe_ = 0;
    const DtTriple* add_b_ = nullptr;
    const DtTriple* add_e_ = nullptr;
    const DtTriple* cur_add_b_ = nullptr;
    const DtTriple* cur_add_e_ = nullptr;
    const DtTriple* del_b_ = nullptr;
    const DtTriple* del_e_ = nullptr;
    const DtTriple* cur_del_b_ = nullptr;
    const DtTriple* cur_del_e_ = nullptr;

    // Precomputed per-subject windows from SeekBatch.
    struct Window {
      uint64_t qb, qe;
      const DtTriple *add_b, *add_e, *del_b, *del_e;
    };
    std::vector<Window> windows_;
  };

  /// Opens a merge-join cursor over predicate `p`'s merged run.
  RunCursor OpenRun(uint64_t p) const;

  bool Contains(uint64_t p, uint64_t s, const rdf::Term& literal) const;
  bool ScanSP(uint64_t p, uint64_t s, const LiteralSink& sink) const;
  bool ScanPO(uint64_t p, const rdf::Term& literal,
              const LiteralSink& sink) const;
  bool ScanP(uint64_t p, const LiteralSink& sink) const;

  void ForEachPredicateIn(uint64_t lo, uint64_t hi,
                          const std::function<void(uint64_t)>& visit) const;

  uint64_t CountForPredicate(uint64_t p) const;
  uint64_t CountSubjectsForPredicate(uint64_t p) const;
  /// Exact live count of (s, p, ?o), as MergedObjectView::CountForSubject.
  uint64_t CountForSubject(uint64_t p, uint64_t s) const;

  rdf::Term LiteralAt(uint64_t pos) const;
  std::string LexicalAt(uint64_t pos) const;
  std::optional<double> NumericAt(uint64_t pos) const;

 private:
  bool HasDeltaFor(uint64_t p) const;
  /// Emits one (p, s) pair's base run merged with its delta adds in the
  /// base (p, s, literal) order. Returns false if the sink aborted.
  bool EmitPair(uint64_t p, uint64_t s, uint64_t ob, uint64_t oe,
                const DtTriple* ab, const DtTriple* ae,
                const LiteralSink& sink) const;

  const DatatypeStore* base_;
  const DatatypeDelta* overlay_;  // may be nullptr
};

/// \brief RdfTypeStore ∪ TypeDelta.
class MergedTypeView {
 public:
  MergedTypeView(const RdfTypeStore* base, const TypeDelta* overlay)
      : base_(base), overlay_(overlay) {}

  uint64_t num_triples() const;
  bool Contains(uint64_t subject, uint64_t concept_id) const;

  /// Concepts of `subject`, ascending.
  void ForEachConceptOf(uint64_t subject,
                        const std::function<void(uint64_t)>& visit) const;
  /// Smallest stored concept of `subject` inside [lo, hi), if any — the
  /// LiteMat interval membership probe of the executor.
  std::optional<uint64_t> FirstConceptIn(uint64_t subject, uint64_t lo,
                                         uint64_t hi) const;
  /// Subjects typed exactly `concept_id`, ascending.
  void ForEachSubjectOf(uint64_t concept_id,
                        const std::function<void(uint64_t)>& visit) const;
  /// All (subject, concept) typings with concept in [lo, hi): the filtered
  /// base range scan first, then delta adds (concept-major each).
  void ForEachSubjectTypedIn(
      uint64_t lo, uint64_t hi,
      const std::function<void(uint64_t subject, uint64_t concept_id)>& visit)
      const;
  uint64_t CountTypedIn(uint64_t lo, uint64_t hi) const;
  void ForEach(const std::function<void(uint64_t subject,
                                        uint64_t concept_id)>& visit) const;

 private:
  const RdfTypeStore* base_;
  const TypeDelta* overlay_;  // may be nullptr
};

}  // namespace sedge::store::delta

#endif  // SEDGE_STORE_DELTA_MERGED_VIEW_H_
