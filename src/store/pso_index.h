// The single PSO self-index over object-property triples (paper Figure 5).
//
// Layout, top to bottom:
//   WT_p  — each distinct predicate id once, ascending;
//   BM_ps — one bit per (p,s) pair, set when the pair opens a new
//           predicate run;
//   WT_s  — the subject of each (p,s) pair, ascending within its run;
//   BM_so — one bit per triple, set when the triple opens a new (p,s) run;
//   WT_o  — the object of each triple, ascending within its run.
//
// Triple-pattern evaluation is the select/rank/rangeSearch translation of
// the paper's Algorithms 2-4. Conventions (DESIGN.md Section 5): select
// arguments are 1-based, positions 0-based, and Select1(ones+1) == size
// closes the final run, so every run is uniformly
//   [Select1(i + 1), Select1(i + 2)).
//
// Ordering guarantees exploited by the executor's merge join: subjects are
// ascending within a predicate run and objects ascending within a (p,s)
// run (paper Section 5.2, Figure 7).

#ifndef SEDGE_STORE_PSO_INDEX_H_
#define SEDGE_STORE_PSO_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <vector>

#include "sds/succinct_bit_vector.h"
#include "sds/wavelet_tree.h"
#include "util/status.h"

namespace sedge::util {
class ThreadPool;
}  // namespace sedge::util

namespace sedge::store {

/// Callback receiving one decoded (subject, object) match; predicate
/// context comes from the scan call. Return false to stop the scan.
using PairSink = std::function<bool(uint64_t s, uint64_t o)>;

/// \brief Immutable PSO-ordered succinct index over (p, s, o) id triples.
class PsoIndex {
 public:
  struct Triple {
    uint64_t p, s, o;
  };

  PsoIndex() = default;

  /// Builds from an arbitrary-order triple list (duplicates are removed).
  static PsoIndex Build(std::vector<Triple> triples) {
    return Build(std::move(triples), nullptr);
  }
  /// Like Build above, but constructs the five independent succinct
  /// structures (WT_p, BM_ps, WT_s, BM_so, WT_o) as parallel pool tasks.
  /// A null pool degrades to the sequential build.
  static PsoIndex Build(std::vector<Triple> triples, util::ThreadPool* pool);

  uint64_t num_triples() const { return num_triples_; }
  uint64_t num_pairs() const { return num_pairs_; }
  uint64_t num_predicates() const { return num_predicates_; }

  /// Position of predicate `p` in WT_p, or nullopt if absent
  /// (wt_p.select(1, id_p) of Algorithm 2, guarded).
  std::optional<uint64_t> PredicatePos(uint64_t p) const;

  /// Predicate id at WT_p position `pos`.
  uint64_t PredicateAt(uint64_t pos) const { return wt_p_.Access(pos); }

  /// Subject id at subject-layer position `pair_idx` (the delta-merged
  /// views iterate base runs positionally to interleave overlay triples).
  uint64_t SubjectAt(uint64_t pair_idx) const { return wt_s_.Access(pair_idx); }

  /// Subject-pair range [begin, end) in WT_s for the predicate at `pos`.
  std::pair<uint64_t, uint64_t> SubjectRange(uint64_t predicate_pos) const;

  /// Object range [begin, end) in WT_o for the (p,s) pair at `pair_idx`.
  std::pair<uint64_t, uint64_t> ObjectRange(uint64_t pair_idx) const;

  /// Algorithm 2: number of triples whose predicate is `p`.
  uint64_t CountForPredicate(uint64_t p) const;

  /// Number of (p,s) pairs for predicate `p` (distinct subjects).
  uint64_t CountSubjectsForPredicate(uint64_t p) const;

  // -- Exact pattern counts for the planner (no triple is visited). --------

  /// Triples (s, p, ?o): the length of the (p,s) run in BM_so.
  uint64_t CountForSubject(uint64_t p, uint64_t s) const;
  /// Triples (?s, p, o): one wavelet rank pair of `o` over the
  /// predicate's WT_o range.
  uint64_t CountForObject(uint64_t p, uint64_t o) const;
  /// Distinct objects of predicate `p`, estimated as the triple count
  /// over the mean occurrence count of the objects at three evenly
  /// spaced positions of its WT_o range. Sampling positions weighs each
  /// object by its frequency, so the quotient is the fan-out a join
  /// binding this object sees; it equals the distinct count when every
  /// object occurs equally often.
  uint64_t EstimateDistinctObjects(uint64_t p) const;

  // -- Triple-pattern scans. All return true if the sink never aborted. ----

  /// (s, p, ?o) — Algorithm 3.
  bool ScanSP(uint64_t p, uint64_t s, const PairSink& sink) const;
  /// (?s, p, o) — Algorithm 4.
  bool ScanPO(uint64_t p, uint64_t o, const PairSink& sink) const;
  /// (?s, p, ?o) — full predicate run, in (s, o) order.
  bool ScanP(uint64_t p, const PairSink& sink) const;
  /// (s, p, o) — membership test.
  bool Contains(uint64_t p, uint64_t s, uint64_t o) const;
  /// (?s, ?p, ?o) — everything, in PSO order. Sink receives (s, o) with the
  /// predicate supplied separately.
  bool ScanAll(const std::function<bool(uint64_t p, uint64_t s, uint64_t o)>&
                   sink) const;

  /// Distinct predicates whose id lies in the LiteMat interval [lo, hi),
  /// ascending — the property-hierarchy reasoning entry point: the paper
  /// replaces index_p by a continuous LiteMat interval (Section 5.2).
  void ForEachPredicateIn(uint64_t lo, uint64_t hi,
                          const std::function<void(uint64_t)>& visit) const;

  // -- Merge-join support (Figure 7): the executor walks a predicate's
  //    subject run once while consuming subject bindings in order. ---------

  /// Pair indices [first, last) holding subject `s` within [from, to) of
  /// the subject layer (binary search on the sorted run).
  std::pair<uint64_t, uint64_t> FindPairForSubject(uint64_t from, uint64_t to,
                                                   uint64_t s) const;
  /// Batched FindPairForSubject over a sorted (ascending) subject run:
  /// out[j] = FindPairForSubject(from, to, subjects[j]). One wavelet-tree
  /// descent is shared across consecutive subjects (see
  /// WaveletTree::RankPairBatch), which is what lets the merge join
  /// amortize its per-probe cost.
  void FindPairsForSubjects(uint64_t from, uint64_t to,
                            const uint64_t* subjects, size_t n,
                            std::pair<uint64_t, uint64_t>* out) const;
  /// Object id at object-layer position `io`.
  uint64_t ObjectAt(uint64_t io) const;
  /// Positions [first, last) holding object `o` within the sorted object
  /// run [ob, oe).
  std::pair<uint64_t, uint64_t> FindObjectInRange(uint64_t ob, uint64_t oe,
                                                  uint64_t o) const;

  uint64_t SizeInBytes() const;
  void Serialize(std::ostream& os) const;
  /// Reads back what Serialize wrote (the checkpoint restore path).
  static Result<PsoIndex> Deserialize(std::istream& is);

 private:
  uint64_t num_triples_ = 0;
  uint64_t num_pairs_ = 0;
  uint64_t num_predicates_ = 0;
  sds::WaveletTree wt_p_;
  sds::SuccinctBitVector bm_ps_;
  sds::WaveletTree wt_s_;
  sds::SuccinctBitVector bm_so_;
  sds::WaveletTree wt_o_;
};

}  // namespace sedge::store

#endif  // SEDGE_STORE_PSO_INDEX_H_
