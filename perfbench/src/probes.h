// Per-layer probes: time calls into the sds, store and litemat layers on a
// loaded store's real sequences, each reported in ns per call or per
// emitted triple. Every probe also checks what it read, and returns false
// when a check fails.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "store/triple_store.h"

namespace perfbench {

/// sds.rank1_ns, sds.select1_ns, sds.wavelet_access_ns, sds.wavelet_rank_ns
/// over the object store's subject layer and the run-start bitmap of its
/// object layer (both rebuilt from the store's public accessors).
bool ProbeSds(const sedge::store::TripleStore& store, uint64_t seed,
              MetricSink* out);

struct ScanPredicates {
  std::string scan_p_object;    // ScanP on the object-triple store
  std::string scan_p_datatype;  // ScanP on the datatype store
  std::vector<std::string> object_preds;  // ScanPO / ScanSP samples
  std::vector<std::string> type_classes;  // rdf:type interval scans
};

/// store.scan_p_ns_per_triple.{object,datatype}, store.scan_po_ns_per_triple,
/// store.scan_sp_ns_per_triple, store.type_scan_ns_per_triple on the base
/// layouts (reasoning intervals for the type scan).
bool ProbeStoreScans(const sedge::store::TripleStore& store,
                     const ScanPredicates& preds, uint64_t seed,
                     MetricSink* out);

/// store.overlay_scan_ns_per_triple: ScanP through the merged base+delta
/// views of every object and datatype predicate in `preds`.
bool ProbeOverlayScan(const sedge::store::TripleStore& store,
                      const std::vector<std::string>& object_preds,
                      const std::vector<std::string>& datatype_preds,
                      MetricSink* out);

/// litemat.locate_ns (instance term → id) and litemat.extract_ns
/// (id → term) on the store's dictionary.
bool ProbeLitemat(const sedge::store::TripleStore& store, uint64_t seed,
                  MetricSink* out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
