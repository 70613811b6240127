// Datatype-triple store: PSO layers over a flat literal pool.
//
// The paper (Section 4) stores literal objects "as they have been sent by
// sensors, possibly with some redundancy" in a flat structure rather than
// the instance dictionary — the value domain of numeric measurements is
// effectively unbounded, so a dictionary would grow without benefit.
//
// The P and S layers mirror the object-triple store (WT_p, BM_ps, WT_s,
// BM_so); the object layer is the literal pool: a byte pool with Elias-Fano
// offsets for the lexical forms, a tiny (datatype, lang) side dictionary
// with a per-literal index, and a parsed-double cache so FILTER/BIND
// evaluation never re-parses numbers.

#ifndef SEDGE_STORE_DATATYPE_STORE_H_
#define SEDGE_STORE_DATATYPE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "rdf/term.h"
#include "sds/elias_fano.h"
#include "sds/succinct_bit_vector.h"
#include "sds/wavelet_tree.h"

namespace sedge::util {
class ThreadPool;
}  // namespace sedge::util

namespace sedge::store {

/// Sink for one (subject, literal position) match; return false to stop.
using LiteralSink = std::function<bool(uint64_t s, uint64_t literal_pos)>;

/// \brief Immutable PSO-ordered store for (p, s, literal) triples.
class DatatypeStore {
 public:
  struct Triple {
    uint64_t p, s;
    rdf::Term literal;
  };

  DatatypeStore() = default;

  static DatatypeStore Build(std::vector<Triple> triples) {
    return Build(std::move(triples), nullptr);
  }
  /// Like Build above, but constructs the five independent succinct
  /// structures (WT_p, BM_ps, WT_s, BM_so, Elias-Fano offsets) as parallel
  /// pool tasks. A null pool degrades to the sequential build.
  static DatatypeStore Build(std::vector<Triple> triples,
                             util::ThreadPool* pool);

  uint64_t num_triples() const { return num_triples_; }

  // -- Literal pool ---------------------------------------------------------

  /// Reconstructs the literal stored at pool position `pos`.
  rdf::Term LiteralAt(uint64_t pos) const;
  /// Lexical form only (cheaper than LiteralAt for FILTER str()/regex()).
  std::string LexicalAt(uint64_t pos) const;
  /// Parsed numeric value, or nullopt for non-numeric literals.
  std::optional<double> NumericAt(uint64_t pos) const;

  // -- Triple-pattern scans -------------------------------------------------

  /// (s, p, ?o): all literal positions for the pair.
  bool ScanSP(uint64_t p, uint64_t s, const LiteralSink& sink) const;
  /// (?s, p, o): subjects whose (p, s) run contains a literal equal to
  /// `literal` (term equality). Linear within the predicate run — the paper:
  /// "we can not locate all the subjects directly".
  bool ScanPO(uint64_t p, const rdf::Term& literal,
              const LiteralSink& sink) const;
  /// (?s, p, ?o): the full predicate run.
  bool ScanP(uint64_t p, const LiteralSink& sink) const;
  /// (s, p, o) membership.
  bool Contains(uint64_t p, uint64_t s, const rdf::Term& literal) const;
  /// Everything, in PSO order.
  bool ScanAll(const std::function<bool(uint64_t p, uint64_t s,
                                        uint64_t literal_pos)>& sink) const;

  /// Distinct predicates in the LiteMat interval [lo, hi) (reasoning).
  void ForEachPredicateIn(uint64_t lo, uint64_t hi,
                          const std::function<void(uint64_t)>& visit) const;

  uint64_t CountForPredicate(uint64_t p) const;
  uint64_t CountSubjectsForPredicate(uint64_t p) const;
  /// Triples (s, p, ?o): the length of the (p,s) run in BM_so.
  uint64_t CountForSubject(uint64_t p, uint64_t s) const;

  // -- Merge-join support (mirrors PsoIndex) --------------------------------

  /// Subject-pair range [begin, end) of predicate `p`, or nullopt if absent.
  std::optional<std::pair<uint64_t, uint64_t>> PredicateSubjectRange(
      uint64_t p) const;
  /// Pair indices [first, last) holding subject `s` within [from, to).
  std::pair<uint64_t, uint64_t> FindPairForSubject(uint64_t from, uint64_t to,
                                                   uint64_t s) const;
  /// Batched FindPairForSubject over a sorted subject run (see
  /// PsoIndex::FindPairsForSubjects).
  void FindPairsForSubjects(uint64_t from, uint64_t to,
                            const uint64_t* subjects, size_t n,
                            std::pair<uint64_t, uint64_t>* out) const;
  /// Literal-position range [begin, end) of the (p, s) pair at `pair_idx`.
  std::pair<uint64_t, uint64_t> ObjectRange(uint64_t pair_idx) const;

  /// Subject id at subject-layer position `pair_idx` (the delta-merged
  /// views iterate base runs positionally to interleave overlay triples).
  uint64_t SubjectAt(uint64_t pair_idx) const { return wt_s_.Access(pair_idx); }

  uint64_t SizeInBytes() const;
  void Serialize(std::ostream& os) const;
  /// Reads back what Serialize wrote, rebuilding the numeric cache (the
  /// checkpoint restore path).
  static Result<DatatypeStore> Deserialize(std::istream& is);

 private:
  std::optional<uint64_t> PredicatePos(uint64_t p) const;
  std::pair<uint64_t, uint64_t> SubjectRange(uint64_t predicate_pos) const;

  uint64_t num_triples_ = 0;
  uint64_t num_pairs_ = 0;
  uint64_t num_predicates_ = 0;
  sds::WaveletTree wt_p_;
  sds::SuccinctBitVector bm_ps_;
  sds::WaveletTree wt_s_;
  sds::SuccinctBitVector bm_so_;

  // Flat literal pool, indexed by triple position in PSO order.
  std::string lexical_pool_;             // concatenated lexical forms
  sds::EliasFano lexical_offsets_;       // n+1 offsets into lexical_pool_
  std::vector<uint16_t> dtype_index_;    // per literal: (datatype, lang) entry
  std::vector<std::pair<std::string, std::string>> dtype_entries_;
  std::vector<double> numeric_cache_;    // NaN when not numeric
};

}  // namespace sedge::store

#endif  // SEDGE_STORE_DATATYPE_STORE_H_
