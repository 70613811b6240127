#include "store/triple_store.h"

#include <istream>
#include <ostream>

#include "obs/metrics.h"
#include "rdf/triple_codec.h"
#include "rdf/vocabulary.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sedge::store {
namespace {

/// Which store layout a triple routes to — the single classification the
/// write path, removal, and admission planning all share. Keeping it in
/// one place is load-bearing: the WAL logs the admissions PlanAdmissions
/// derives from this, and recovery only works if Insert admits exactly
/// the same terms.
enum class TripleKind : uint8_t { kMalformed, kType, kDatatype, kObject };

TripleKind Classify(const rdf::Triple& t) {
  if (!t.predicate.is_iri() || t.subject.is_literal()) {
    return TripleKind::kMalformed;
  }
  if (t.predicate.lexical() == rdf::kRdfType) {
    return t.object.is_iri() ? TripleKind::kType : TripleKind::kMalformed;
  }
  return t.object.is_literal() ? TripleKind::kDatatype : TripleKind::kObject;
}

}  // namespace

Result<TripleStore> TripleStore::Build(const ontology::Ontology& onto,
                                       const rdf::Graph& data,
                                       const schema::SchemaRegistry* pending,
                                       const BuildHooks& hooks) {
  TripleStore store;
  {
    // The re-encode: provisionally admitted terms join the fresh LiteMat
    // hierarchies as extra entities (below the roots unless the ontology
    // knows them); the built store's own registry starts empty but keeps
    // counting ids where the folded one stopped (WAL admission records
    // must never share an id within one log lifetime).
    SEDGE_SPAN(hooks.metrics, "compaction_build_dict_seconds");
    SEDGE_ASSIGN_OR_RETURN(
        store.dict_,
        pending == nullptr
            ? litemat::Dictionary::Build(onto, data)
            : litemat::Dictionary::Build(onto, data, pending->ConceptNames(),
                                         pending->ObjectPropertyNames(),
                                         pending->DatatypePropertyNames()));
  }
  if (pending != nullptr) store.schema_.InheritNextIndices(*pending);
  litemat::Dictionary& dict = store.dict_;
  auto base = std::make_shared<BaseLayouts>();

  std::vector<PsoIndex::Triple> object_triples;
  std::vector<DatatypeStore::Triple> datatype_triples;

  for (const rdf::Triple& t : data.triples()) {
    if (!t.predicate.is_iri() || t.subject.is_literal()) {
      ++store.skipped_;
      continue;
    }
    const std::string& p = t.predicate.lexical();
    if (p == rdf::kRdfType) {
      if (!t.object.is_iri()) {
        ++store.skipped_;
        continue;
      }
      const auto cid = dict.ConceptId(t.object.lexical());
      SEDGE_CHECK(cid.has_value()) << "concept missing from dictionary: "
                                   << t.object.lexical();
      const uint32_t sid = dict.InstanceIdOrAssign(t.subject);
      base->type_store.Add(sid, *cid);
      dict.RecordConceptOccurrence(*cid);
      dict.RecordInstanceOccurrence(sid);
      continue;
    }
    if (t.object.is_literal()) {
      const auto pid = dict.DatatypePropertyId(p);
      SEDGE_CHECK(pid.has_value()) << "datatype property missing: " << p;
      const uint32_t sid = dict.InstanceIdOrAssign(t.subject);
      datatype_triples.push_back({*pid, sid, t.object});
      dict.RecordDatatypePropertyOccurrence(*pid);
      dict.RecordInstanceOccurrence(sid);
      continue;
    }
    const auto pid = dict.ObjectPropertyId(p);
    SEDGE_CHECK(pid.has_value()) << "object property missing: " << p;
    const uint32_t sid = dict.InstanceIdOrAssign(t.subject);
    const uint32_t oid = dict.InstanceIdOrAssign(t.object);
    object_triples.push_back({*pid, sid, oid});
    dict.RecordObjectPropertyOccurrence(*pid);
    dict.RecordInstanceOccurrence(sid);
    dict.RecordInstanceOccurrence(oid);
  }

  // The three layouts partition the triples (PSO object partitions,
  // datatype partitions, rdf:type pairs) and write disjoint BaseLayouts
  // members — each finalization is an independent build task.
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&base, &hooks] {
    SEDGE_SPAN(hooks.metrics, "compaction_build_type_seconds");
    base->type_store.Finalize();
  });
  tasks.emplace_back([&base, &hooks, &object_triples] {
    SEDGE_SPAN(hooks.metrics, "compaction_build_pso_seconds");
    base->object_store = PsoIndex::Build(std::move(object_triples), hooks.pool);
  });
  tasks.emplace_back([&base, &hooks, &datatype_triples] {
    SEDGE_SPAN(hooks.metrics, "compaction_build_datatype_seconds");
    base->datatype_store =
        DatatypeStore::Build(std::move(datatype_triples), hooks.pool);
  });
  util::RunParallel(hooks.pool, std::move(tasks));
  store.base_ = std::move(base);
  return store;
}

delta::DeltaOverlay& TripleStore::EnsureDelta() {
  if (delta_ == nullptr) delta_ = std::make_unique<delta::DeltaOverlay>();
  return *delta_;
}

std::unique_ptr<TripleStore> TripleStore::ForkForWrites() {
  auto fork = std::make_unique<TripleStore>();
  fork->dict_ = dict_;     // deep copy: the fork keeps assigning instance ids
  fork->schema_ = schema_;  // and admitting provisional vocabulary
  fork->base_ = base_;      // immutable layouts are shared, not copied
  fork->skipped_ = skipped_;
  if (delta_ != nullptr) {
    delta_->Seal();  // copy sorted runs, not pending buffers
    fork->delta_ = std::make_unique<delta::DeltaOverlay>(*delta_);
  }
  return fork;
}

Status TripleStore::Insert(const rdf::Triple& t, InsertOutcome* outcome) {
  const auto report = [&](InsertOutcome o) {
    if (outcome != nullptr) *outcome = o;
    return Status::OK();
  };
  const std::string& p = t.predicate.lexical();
  switch (Classify(t)) {
    case TripleKind::kMalformed:
      ++skipped_;
      return report(InsertOutcome::kRejected);
    case TripleKind::kType: {
      // Schema-new concept: admit it provisionally (leaf id outside the
      // LiteMat prefix space) instead of dropping the triple; the next
      // compaction re-encode folds it into the hierarchy.
      auto cid = dict_.ConceptId(t.object.lexical());
      if (!cid) cid = schema_.ConceptId(t.object.lexical());
      const bool provisional =
          !cid.has_value() || schema::IsProvisionalId(*cid);
      if (!cid) cid = schema_.AdmitConcept(t.object.lexical());
      const InsertOutcome result =
          provisional ? InsertOutcome::kProvisional : InsertOutcome::kApplied;
      const uint32_t sid = dict_.InstanceIdOrAssign(t.subject);
      delta::TypeDelta& td = EnsureDelta().type();
      if (td.ContainsAdd(sid, *cid)) return report(result);
      if (base_->type_store.Contains(sid, *cid)) {
        td.EraseTombstone(sid, *cid);  // revive if deleted, else no-op
        return report(result);
      }
      td.Add(sid, *cid);
      if (!provisional) dict_.RecordConceptOccurrence(*cid);
      dict_.RecordInstanceOccurrence(sid);
      return report(result);
    }
    case TripleKind::kDatatype: {
      auto pid = dict_.DatatypePropertyId(p);
      if (!pid) pid = schema_.DatatypePropertyId(p);
      const bool provisional =
          !pid.has_value() || schema::IsProvisionalId(*pid);
      if (!pid) pid = schema_.AdmitDatatypeProperty(p);
      const InsertOutcome result =
          provisional ? InsertOutcome::kProvisional : InsertOutcome::kApplied;
      const uint32_t sid = dict_.InstanceIdOrAssign(t.subject);
      delta::DatatypeDelta& dd = EnsureDelta().datatype();
      if (dd.ContainsAdd(*pid, sid, t.object)) return report(result);
      if (base_->datatype_store.Contains(*pid, sid, t.object)) {
        dd.EraseTombstone(*pid, sid, t.object);
        return report(result);
      }
      dd.Add(*pid, sid, t.object);
      if (!provisional) dict_.RecordDatatypePropertyOccurrence(*pid);
      dict_.RecordInstanceOccurrence(sid);
      return report(result);
    }
    case TripleKind::kObject:
      break;
  }
  auto pid = dict_.ObjectPropertyId(p);
  if (!pid) pid = schema_.ObjectPropertyId(p);
  const bool provisional = !pid.has_value() || schema::IsProvisionalId(*pid);
  if (!pid) pid = schema_.AdmitObjectProperty(p);
  const InsertOutcome result =
      provisional ? InsertOutcome::kProvisional : InsertOutcome::kApplied;
  const uint32_t sid = dict_.InstanceIdOrAssign(t.subject);
  const uint32_t oid = dict_.InstanceIdOrAssign(t.object);
  delta::ObjectDelta& od = EnsureDelta().object();
  if (od.ContainsAdd(*pid, sid, oid)) return report(result);
  if (base_->object_store.Contains(*pid, sid, oid)) {
    od.EraseTombstone(*pid, sid, oid);
    return report(result);
  }
  od.Add(*pid, sid, oid);
  if (!provisional) dict_.RecordObjectPropertyOccurrence(*pid);
  dict_.RecordInstanceOccurrence(sid);
  dict_.RecordInstanceOccurrence(oid);
  return report(result);
}

Status TripleStore::Remove(const rdf::Triple& t) {
  // Removal never assigns ids: a triple with an unknown term cannot be
  // stored, so it is a no-op.
  const TripleKind kind = Classify(t);
  if (kind == TripleKind::kMalformed) return Status::OK();
  const auto sid = dict_.InstanceId(t.subject);
  if (!sid) return Status::OK();
  const std::string& p = t.predicate.lexical();
  if (kind == TripleKind::kType) {
    const auto cid = ConceptIdOf(t.object.lexical());
    if (!cid) return Status::OK();
    delta::TypeDelta& td = EnsureDelta().type();
    if (td.EraseAdd(*sid, *cid)) return Status::OK();
    if (base_->type_store.Contains(*sid, *cid)) td.AddTombstone(*sid, *cid);
    return Status::OK();
  }
  if (kind == TripleKind::kDatatype) {
    const auto pid = DatatypePropertyIdOf(p);
    if (!pid) return Status::OK();
    delta::DatatypeDelta& dd = EnsureDelta().datatype();
    if (dd.EraseAdd(*pid, *sid, t.object)) return Status::OK();
    if (base_->datatype_store.Contains(*pid, *sid, t.object)) {
      dd.AddTombstone(*pid, *sid, t.object);
    }
    return Status::OK();
  }
  const auto pid = ObjectPropertyIdOf(p);
  if (!pid) return Status::OK();
  const auto oid = dict_.InstanceId(t.object);
  if (!oid) return Status::OK();
  delta::ObjectDelta& od = EnsureDelta().object();
  if (od.EraseAdd(*pid, *sid, *oid)) return Status::OK();
  if (base_->object_store.Contains(*pid, *sid, *oid)) {
    od.AddTombstone(*pid, *sid, *oid);
  }
  return Status::OK();
}

rdf::Graph TripleStore::ExportGraph() const {
  rdf::Graph g;
  const delta::ObjectDelta* od = delta_ ? &delta_->object() : nullptr;
  base_->object_store.ScanAll([&](uint64_t p, uint64_t s, uint64_t o) {
    if (od != nullptr && od->IsTombstoned(p, s, o)) return true;
    const auto iri = ObjectPropertyIriOf(p);
    SEDGE_CHECK(iri.has_value()) << "unknown object property " << p;
    g.Add(dict_.InstanceTerm(static_cast<uint32_t>(s)), rdf::Term::Iri(*iri),
          dict_.InstanceTerm(static_cast<uint32_t>(o)));
    return true;
  });
  if (od != nullptr) {
    for (const delta::IdTriple& t : od->adds().sorted()) {
      const auto iri = ObjectPropertyIriOf(t.p);
      SEDGE_CHECK(iri.has_value()) << "unknown object property " << t.p;
      g.Add(dict_.InstanceTerm(static_cast<uint32_t>(t.s)),
            rdf::Term::Iri(*iri),
            dict_.InstanceTerm(static_cast<uint32_t>(t.o)));
    }
  }

  const delta::DatatypeDelta* dd = delta_ ? &delta_->datatype() : nullptr;
  base_->datatype_store.ScanAll([&](uint64_t p, uint64_t s, uint64_t pos) {
    const rdf::Term literal = base_->datatype_store.LiteralAt(pos);
    if (dd != nullptr && dd->HasTombstonesFor(p, s) &&
        dd->IsTombstoned(p, s, literal)) {
      return true;
    }
    const auto iri = DatatypePropertyIriOf(p);
    SEDGE_CHECK(iri.has_value()) << "unknown datatype property " << p;
    g.Add(dict_.InstanceTerm(static_cast<uint32_t>(s)), rdf::Term::Iri(*iri),
          literal);
    return true;
  });
  if (dd != nullptr) {
    for (const delta::DtTriple& t : dd->adds().sorted()) {
      const auto iri = DatatypePropertyIriOf(t.p);
      SEDGE_CHECK(iri.has_value()) << "unknown datatype property " << t.p;
      g.Add(dict_.InstanceTerm(static_cast<uint32_t>(t.s)),
            rdf::Term::Iri(*iri), t.literal);
    }
  }

  const delta::TypeDelta* td = delta_ ? &delta_->type() : nullptr;
  base_->type_store.ForEach([&](uint64_t s, uint64_t c) {
    if (td != nullptr && td->IsTombstoned(s, c)) return;
    const auto iri = ConceptIriOf(c);
    SEDGE_CHECK(iri.has_value()) << "unknown concept " << c;
    g.Add(dict_.InstanceTerm(static_cast<uint32_t>(s)),
          rdf::Term::Iri(rdf::kRdfType), rdf::Term::Iri(*iri));
  });
  if (td != nullptr) {
    for (const delta::IdPair& t : td->adds_by_concept().sorted()) {
      const auto iri = ConceptIriOf(t.first);
      SEDGE_CHECK(iri.has_value()) << "unknown concept " << t.first;
      g.Add(dict_.InstanceTerm(static_cast<uint32_t>(t.second)),
            rdf::Term::Iri(rdf::kRdfType), rdf::Term::Iri(*iri));
    }
  }
  return g;
}

void TripleStore::CollectDeltaMutations(std::vector<rdf::Triple>* removes,
                                        std::vector<rdf::Triple>* adds) const {
  if (delta_ == nullptr) return;
  const auto object_prop = [this](uint64_t p) {
    const auto iri = ObjectPropertyIriOf(p);
    SEDGE_CHECK(iri.has_value()) << "unknown object property " << p;
    return rdf::Term::Iri(*iri);
  };
  const auto datatype_prop = [this](uint64_t p) {
    const auto iri = DatatypePropertyIriOf(p);
    SEDGE_CHECK(iri.has_value()) << "unknown datatype property " << p;
    return rdf::Term::Iri(*iri);
  };
  const auto concept_term = [this](uint64_t c) {
    const auto iri = ConceptIriOf(c);
    SEDGE_CHECK(iri.has_value()) << "unknown concept " << c;
    return rdf::Term::Iri(*iri);
  };
  const auto instance = [this](uint64_t id) {
    return dict_.InstanceTerm(static_cast<uint32_t>(id));
  };

  const delta::ObjectDelta& od = delta_->object();
  for (const delta::IdTriple& t : od.dels().sorted()) {
    removes->push_back({instance(t.s), object_prop(t.p), instance(t.o)});
  }
  for (const delta::IdTriple& t : od.adds().sorted()) {
    adds->push_back({instance(t.s), object_prop(t.p), instance(t.o)});
  }
  const delta::DatatypeDelta& dd = delta_->datatype();
  for (const delta::DtTriple& t : dd.dels().sorted()) {
    removes->push_back({instance(t.s), datatype_prop(t.p), t.literal});
  }
  for (const delta::DtTriple& t : dd.adds().sorted()) {
    adds->push_back({instance(t.s), datatype_prop(t.p), t.literal});
  }
  const delta::TypeDelta& td = delta_->type();
  for (const delta::IdPair& t : td.dels_by_subject().sorted()) {
    removes->push_back({instance(t.first), rdf::Term::Iri(rdf::kRdfType),
                        concept_term(t.second)});
  }
  for (const delta::IdPair& t : td.adds_by_subject().sorted()) {
    adds->push_back({instance(t.first), rdf::Term::Iri(rdf::kRdfType),
                     concept_term(t.second)});
  }
}

void TripleStore::SaveTo(std::ostream& os) const {
  dict_.SaveTo(os);
  base_->object_store.Serialize(os);
  base_->datatype_store.Serialize(os);
  base_->type_store.Serialize(os);
  os.write(reinterpret_cast<const char*>(&skipped_), sizeof(skipped_));
  // The provisional registry travels before the overlay mutations: the
  // restore path re-applies the mutations through the ordinary write
  // path, and re-admission against the restored registry is an idempotent
  // lookup — provisional ids survive the round trip verbatim.
  schema_.SaveTo(os);
  // The overlay travels as decoded mutations: tombstones then adds. The
  // restored store re-applies them through the ordinary write path, so
  // the checkpoint never depends on the overlay's in-memory layout.
  std::vector<rdf::Triple> removes;
  std::vector<rdf::Triple> adds;
  CollectDeltaMutations(&removes, &adds);
  rdf::WriteTripleList(os, removes);
  rdf::WriteTripleList(os, adds);
}

Result<TripleStore> TripleStore::LoadFrom(std::istream& is) {
  TripleStore store;
  SEDGE_ASSIGN_OR_RETURN(store.dict_, litemat::Dictionary::LoadFrom(is));
  auto base = std::make_shared<BaseLayouts>();
  SEDGE_ASSIGN_OR_RETURN(base->object_store, PsoIndex::Deserialize(is));
  SEDGE_ASSIGN_OR_RETURN(base->datatype_store,
                         DatatypeStore::Deserialize(is));
  SEDGE_ASSIGN_OR_RETURN(base->type_store, RdfTypeStore::Deserialize(is));
  store.base_ = std::move(base);
  is.read(reinterpret_cast<char*>(&store.skipped_), sizeof(store.skipped_));
  if (!is) return Status::IoError("TripleStore image truncated");
  SEDGE_ASSIGN_OR_RETURN(store.schema_, schema::SchemaRegistry::LoadFrom(is));
  std::vector<rdf::Triple> removes;
  std::vector<rdf::Triple> adds;
  SEDGE_RETURN_NOT_OK(rdf::ReadTripleList(is, &removes));
  SEDGE_RETURN_NOT_OK(rdf::ReadTripleList(is, &adds));
  // skipped_ was saved after these mutations were first applied; keep it
  // stable across the re-application (the counter is observability only).
  const uint64_t skipped = store.skipped_;
  for (const rdf::Triple& t : removes) SEDGE_RETURN_NOT_OK(store.Remove(t));
  for (const rdf::Triple& t : adds) SEDGE_RETURN_NOT_OK(store.Insert(t));
  store.skipped_ = skipped;
  store.SealDelta();
  return store;
}

std::optional<EncodedTerm> TripleStore::EncodeInstance(
    const rdf::Term& term) const {
  const auto id = dict_.InstanceId(term);
  if (!id) return std::nullopt;
  return EncodedTerm{ValueSpace::kInstance, *id};
}

rdf::Term TripleStore::DecodeTerm(const EncodedTerm& value) const {
  switch (value.space) {
    case ValueSpace::kInstance:
      return dict_.InstanceTerm(static_cast<uint32_t>(value.id));
    case ValueSpace::kConcept: {
      const auto iri = ConceptIriOf(value.id);
      SEDGE_CHECK(iri.has_value()) << "unknown concept id " << value.id;
      return rdf::Term::Iri(*iri);
    }
    case ValueSpace::kObjectProperty: {
      const auto iri = ObjectPropertyIriOf(value.id);
      SEDGE_CHECK(iri.has_value()) << "unknown object property " << value.id;
      return rdf::Term::Iri(*iri);
    }
    case ValueSpace::kDatatypeProperty: {
      const auto iri = DatatypePropertyIriOf(value.id);
      SEDGE_CHECK(iri.has_value()) << "unknown datatype property " << value.id;
      return rdf::Term::Iri(*iri);
    }
    case ValueSpace::kLiteral:
      return LiteralAt(value.id);  // routes base pool and delta pool
    case ValueSpace::kRdfType:
      return rdf::Term::Iri(rdf::kRdfType);
    case ValueSpace::kComputed:
    case ValueSpace::kUnbound:
      break;  // executor-local values: the executor decodes them itself
  }
  SEDGE_CHECK(false) << "value space " << static_cast<int>(value.space)
                     << " has no stored term";
  return {};
}

// ------------------------------------------------- schema-aware lookups

std::optional<uint64_t> TripleStore::ConceptIdOf(const std::string& iri) const {
  if (const auto id = dict_.ConceptId(iri)) return id;
  return schema_.ConceptId(iri);
}

std::optional<uint64_t> TripleStore::ObjectPropertyIdOf(
    const std::string& iri) const {
  if (const auto id = dict_.ObjectPropertyId(iri)) return id;
  return schema_.ObjectPropertyId(iri);
}

std::optional<uint64_t> TripleStore::DatatypePropertyIdOf(
    const std::string& iri) const {
  if (const auto id = dict_.DatatypePropertyId(iri)) return id;
  return schema_.DatatypePropertyId(iri);
}

std::optional<std::string> TripleStore::ConceptIriOf(uint64_t id) const {
  if (schema::IsProvisionalId(id)) return schema_.ConceptIri(id);
  return dict_.ConceptIri(id);
}

std::optional<std::string> TripleStore::ObjectPropertyIriOf(
    uint64_t id) const {
  if (schema::IsProvisionalId(id)) return schema_.ObjectPropertyIri(id);
  return dict_.ObjectPropertyIri(id);
}

std::optional<std::string> TripleStore::DatatypePropertyIriOf(
    uint64_t id) const {
  if (schema::IsProvisionalId(id)) return schema_.DatatypePropertyIri(id);
  return dict_.DatatypePropertyIri(id);
}

namespace {

std::optional<std::pair<uint64_t, uint64_t>> LeafInterval(
    std::optional<uint64_t> id) {
  if (!id) return std::nullopt;
  return std::make_pair(*id, *id + 1);
}

}  // namespace

std::optional<std::pair<uint64_t, uint64_t>> TripleStore::ConceptIntervalOf(
    const std::string& iri, bool reasoning) const {
  if (reasoning) {
    if (const auto interval = dict_.ConceptInterval(iri)) return interval;
    // Provisional concepts are leaves until the re-encode: no inference.
    return LeafInterval(schema_.ConceptId(iri));
  }
  return LeafInterval(ConceptIdOf(iri));
}

std::optional<std::pair<uint64_t, uint64_t>>
TripleStore::ObjectPropertyIntervalOf(const std::string& iri,
                                      bool reasoning) const {
  if (reasoning) {
    if (const auto interval = dict_.ObjectPropertyInterval(iri)) {
      return interval;
    }
    return LeafInterval(schema_.ObjectPropertyId(iri));
  }
  return LeafInterval(ObjectPropertyIdOf(iri));
}

std::optional<std::pair<uint64_t, uint64_t>>
TripleStore::DatatypePropertyIntervalOf(const std::string& iri,
                                        bool reasoning) const {
  if (reasoning) {
    if (const auto interval = dict_.DatatypePropertyInterval(iri)) {
      return interval;
    }
    return LeafInterval(schema_.DatatypePropertyId(iri));
  }
  return LeafInterval(DatatypePropertyIdOf(iri));
}

std::vector<schema::Admission> TripleStore::PlanAdmissions(
    const rdf::Triple* triples, size_t count) const {
  std::vector<schema::Admission> plan;
  // Scratch copy so planned ids come out exactly as Insert will assign
  // them (the registry is small — pending terms only — so the copy is
  // cheap relative to the batch's WAL round trip).
  schema::SchemaRegistry scratch = schema_;
  for (size_t i = 0; i < count; ++i) {
    const rdf::Triple& t = triples[i];
    const std::string& p = t.predicate.lexical();
    switch (Classify(t)) {
      case TripleKind::kMalformed:
        break;
      case TripleKind::kType: {
        const std::string& c = t.object.lexical();
        if (!dict_.ConceptId(c) && !scratch.ConceptId(c)) {
          plan.push_back(
              {schema::TermSpace::kConcept, scratch.AdmitConcept(c), c});
        }
        break;
      }
      case TripleKind::kDatatype:
        if (!dict_.DatatypePropertyId(p) && !scratch.DatatypePropertyId(p)) {
          plan.push_back({schema::TermSpace::kDatatypeProperty,
                          scratch.AdmitDatatypeProperty(p), p});
        }
        break;
      case TripleKind::kObject:
        if (!dict_.ObjectPropertyId(p) && !scratch.ObjectPropertyId(p)) {
          plan.push_back({schema::TermSpace::kObjectProperty,
                          scratch.AdmitObjectProperty(p), p});
        }
        break;
    }
  }
  return plan;
}

void TripleStore::SerializeTriples(std::ostream& os) const {
  base_->object_store.Serialize(os);
  base_->datatype_store.Serialize(os);
  base_->type_store.Serialize(os);
}

}  // namespace sedge::store
