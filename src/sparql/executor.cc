#include "sparql/executor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "rdf/vocabulary.h"
#include "sparql/optimizer.h"
#include "util/logging.h"

namespace sedge::sparql {
namespace {

using store::EncodedTerm;
using store::ValueSpace;

constexpr EncodedTerm kUnboundValue{ValueSpace::kUnbound, 0};

bool IsUnbound(const EncodedTerm& v) {
  return v.space == ValueSpace::kUnbound;
}

bool IsTypePredicate(const TermOrVar& pred) {
  return !IsVar(pred) && AsTerm(pred).is_iri() &&
         AsTerm(pred).lexical() == rdf::kRdfType;
}

}  // namespace

// ---------------------------------------------------------------- Decoder

class Executor::Decoder : public ValueDecoder {
 public:
  Decoder(const store::TripleStore* store,
          const std::vector<rdf::Term>* computed_pool,
          const std::vector<std::optional<double>>* computed_numeric)
      : store_(store),
        computed_pool_(computed_pool),
        computed_numeric_(computed_numeric) {}

  rdf::Term Decode(const EncodedTerm& value) const override {
    switch (value.space) {
      case ValueSpace::kComputed:
        return (*computed_pool_)[value.id];
      case ValueSpace::kUnbound:
        return rdf::Term::Iri("");
      default:
        return store_->DecodeTerm(value);
    }
  }

  std::optional<double> Numeric(const EncodedTerm& value) const override {
    switch (value.space) {
      case ValueSpace::kLiteral:
        return store_->NumericAt(value.id);  // routes base + delta pools
      case ValueSpace::kComputed:
        return (*computed_numeric_)[value.id];
      case ValueSpace::kUnbound:
        return std::nullopt;
      case ValueSpace::kInstance:
      case ValueSpace::kConcept:
      case ValueSpace::kObjectProperty:
      case ValueSpace::kDatatypeProperty:
      case ValueSpace::kRdfType:
        return std::nullopt;
    }
    return std::nullopt;
  }

  std::string Str(const EncodedTerm& value) const override {
    switch (value.space) {
      case ValueSpace::kLiteral:
        return store_->LexicalAt(value.id);
      case ValueSpace::kUnbound:
        return "";
      default:
        return Decode(value).lexical();
    }
  }

 private:
  const store::TripleStore* store_;
  const std::vector<rdf::Term>* computed_pool_;
  const std::vector<std::optional<double>>* computed_numeric_;
};

// -------------------------------------------------------------- Estimator

// Statistics for the cost-based planner, read off the structures the scans
// use. Constant-bound patterns get exact live counts (overlay included):
// a wavelet rank pair of the object over the predicate's WT_o range, the
// subject's BM_so run length, the type store's CountTypedIn over the
// LiteMat interval. Free patterns sum each route's triple count; their
// distinct subjects and objects take the largest route's, since the
// routes of one property hierarchy share a domain and range.
class Executor::Estimator : public CardinalityEstimator {
 public:
  Estimator(const store::TripleStore* store, bool reasoning)
      : store_(store), reasoning_(reasoning) {}

  PatternEstimate Estimate(const TriplePattern& tp) const override {
    const bool s_const = !IsVar(tp.subject);
    const bool o_const = !IsVar(tp.object);
    const auto& dict = store_->dict();
    PatternEstimate e;
    if (IsVar(tp.predicate)) {
      // Every stored predicate is a route; no count is kept per subject
      // or object, so bound slots assume an average individual.
      const double n = static_cast<double>(store_->num_triples());
      const double per_instance =
          std::max(1.0, n / std::max<double>(1, dict.num_instances()));
      e.rows = s_const && o_const ? 1 : s_const || o_const ? per_instance : n;
      e.subjects = s_const ? 1 : e.rows;
      e.objects = o_const ? 1 : e.rows;
      e.routes = static_cast<double>(UnboundPredicateRoutes(*store_).size());
      return e;
    }
    const std::string& p = AsTerm(tp.predicate).lexical();
    const std::optional<uint64_t> sid =
        s_const ? dict.InstanceId(AsTerm(tp.subject)) : std::nullopt;
    if (s_const && !sid) return e;  // unknown subject: no solution
    if (p == rdf::kRdfType) {
      const store::delta::MergedTypeView types = store_->type_view();
      if (o_const) {
        const rdf::Term& o = AsTerm(tp.object);
        const auto interval =
            o.is_iri() ? store_->ConceptIntervalOf(o.lexical(), reasoning_)
                       : std::nullopt;
        if (!interval) return e;
        e.rows = static_cast<double>(
            sid ? types.FirstConceptIn(*sid, interval->first,
                                       interval->second)
                      .has_value()
                : types.CountTypedIn(interval->first, interval->second));
        e.subjects = e.rows;
        e.objects = 1;
      } else if (sid) {
        types.ForEachConceptOf(*sid, [&e](uint64_t) { ++e.rows; });
        e.subjects = 1;
        e.objects = e.rows;
      } else {
        e.rows = static_cast<double>(types.num_triples());
        e.subjects = e.rows;
        e.objects = e.rows;
      }
      return e;
    }

    const rdf::Term* o = o_const ? &AsTerm(tp.object) : nullptr;
    const std::vector<Route> routes =
        ConstRoutes(*store_, p, reasoning_, o, nullptr);
    e.routes = static_cast<double>(routes.size());
    const std::optional<uint64_t> oid =
        o != nullptr && !o->is_literal() ? dict.InstanceId(*o) : std::nullopt;
    const store::delta::MergedObjectView objects = store_->object_view();
    const store::delta::MergedDatatypeView literals = store_->datatype_view();
    for (const Route& r : routes) {
      uint64_t count = 0;
      if (r.is_object) {
        if (o != nullptr && !oid) continue;  // unknown object resource
        if (sid && oid) {
          count = objects.Contains(r.pred, *sid, *oid);
        } else if (sid) {
          count = objects.CountForSubject(r.pred, *sid);
        } else if (oid) {
          count = objects.CountForObject(r.pred, *oid);
        } else {
          count = objects.CountForPredicate(r.pred);
          const uint64_t distinct = objects.EstimateDistinctObjects(r.pred);
          e.objects = std::max(e.objects, static_cast<double>(distinct));
        }
        if (!sid) {
          const uint64_t pairs = objects.CountSubjectsForPredicate(r.pred);
          if (!oid) {
            e.subjects = std::max(e.subjects, static_cast<double>(pairs));
          }
          if (objects.HasDeltaFor(r.pred)) {
            e.probe_walk = std::max(e.probe_walk, static_cast<double>(pairs));
          }
        }
      } else {
        if (sid && o != nullptr) {
          count = literals.Contains(r.pred, *sid, *o);
        } else if (sid) {
          count = literals.CountForSubject(r.pred, *sid);
        } else {
          // No index reaches a literal object: a constant one is charged
          // objects-per-subject, and every lookup compares the whole run.
          const uint64_t all = literals.CountForPredicate(r.pred);
          const uint64_t pairs = literals.CountSubjectsForPredicate(r.pred);
          count = o == nullptr ? all
                               : std::max<uint64_t>(
                                     1, all / std::max<uint64_t>(1, pairs));
          if (o == nullptr) {
            e.subjects = std::max(e.subjects, static_cast<double>(pairs));
            e.objects = std::max(e.objects, static_cast<double>(all));
          }
          e.probe_walk = std::max(e.probe_walk, static_cast<double>(all));
        }
      }
      e.rows += static_cast<double>(count);
    }
    if (sid) {
      e.subjects = 1;
      e.objects = o != nullptr ? 1 : e.rows;
    } else if (o != nullptr) {
      e.subjects = e.rows;
      e.objects = 1;
    }
    return e;
  }

 private:
  const store::TripleStore* store_;
  bool reasoning_;
};

// ---------------------------------------------------------------- Executor

Executor::Executor(const store::TripleStore* store)
    : Executor(store, Options()) {}

Executor::Executor(const store::TripleStore* store, Options options)
    : store_(store), options_(options) {
  decoder_ = std::make_unique<Decoder>(store_, &computed_pool_,
                                       &computed_numeric_);
  evaluator_ = std::make_unique<ExpressionEvaluator>(decoder_.get());
}

Executor::Executor(std::shared_ptr<const store::StoreGeneration> snapshot,
                   Options options)
    : snapshot_(std::move(snapshot)),
      store_(&snapshot_->store()),
      options_(options) {
  decoder_ = std::make_unique<Decoder>(store_, &computed_pool_,
                                       &computed_numeric_);
  evaluator_ = std::make_unique<ExpressionEvaluator>(decoder_.get());
}

Executor::~Executor() = default;

std::vector<PlanStep> Executor::Plan(
    const std::vector<TriplePattern>& triples) const {
  if (!options_.use_optimizer) {
    std::vector<PlanStep> steps(triples.size());
    for (size_t i = 0; i < steps.size(); ++i) steps[i].pattern = i;
    return steps;
  }
  const Estimator estimator(store_, options_.reasoning);
  return OrderTriplePatterns(triples, estimator, options_.merge_join);
}

std::vector<Executor::Route> Executor::ConstRoutes(
    const store::TripleStore& store, const std::string& p, bool reasoning,
    const rdf::Term* object, uint64_t* provisional) {
  std::vector<Route> routes;
  const auto add = [&](bool is_object,
                       std::optional<std::pair<uint64_t, uint64_t>> interval) {
    if (!interval) return;
    if (store::schema::IsProvisionalId(interval->first)) {
      // A provisional predicate's interval is its leaf [id, id+1): a
      // single direct route, no inference expansion, no base probe (the
      // overlay is the only place its triples can live pre-re-encode).
      routes.push_back({false, is_object, interval->first});
      if (provisional != nullptr) ++*provisional;
    } else if (!reasoning) {
      routes.push_back({false, is_object, interval->first});
    } else {
      const auto visit = [&](uint64_t pred) {
        routes.push_back({false, is_object, pred});
      };
      if (is_object) {
        store.object_view().ForEachPredicateIn(interval->first,
                                               interval->second, visit);
      } else {
        store.datatype_view().ForEachPredicateIn(interval->first,
                                                 interval->second, visit);
      }
    }
  };
  // A literal object rules out the object store, a resource the datatype
  // store.
  if (object == nullptr || !object->is_literal()) {
    add(true, store.ObjectPropertyIntervalOf(p, reasoning));
  }
  if (object == nullptr || object->is_literal()) {
    add(false, store.DatatypePropertyIntervalOf(p, reasoning));
  }
  return routes;
}

std::vector<Executor::Route> Executor::UnboundPredicateRoutes(
    const store::TripleStore& store) {
  std::vector<Route> routes;
  store.object_view().ForEachPredicateIn(
      0, ~0ULL, [&](uint64_t pred) { routes.push_back({false, true, pred}); });
  store.datatype_view().ForEachPredicateIn(
      0, ~0ULL, [&](uint64_t pred) { routes.push_back({false, false, pred}); });
  if (store.type_view().num_triples() > 0) routes.push_back({true, false, 0});
  return routes;
}

Result<BindingTable> Executor::ExecuteEncoded(const Query& query) {
  SEDGE_ASSIGN_OR_RETURN(BindingTable table, EvaluateGroup(query.where));

  // Projection.
  std::vector<Variable> projected = query.select;
  if (projected.empty()) projected = query.MentionedVariables();
  BindingTable out;
  out.vars = projected;
  std::vector<int> cols;
  cols.reserve(projected.size());
  for (const Variable& v : projected) cols.push_back(table.IndexOf(v));
  out.rows.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    std::vector<EncodedTerm> projected_row;
    projected_row.reserve(cols.size());
    for (const int c : cols) {
      projected_row.push_back(c >= 0 ? row[c] : kUnboundValue);
    }
    out.rows.push_back(std::move(projected_row));
  }

  if (query.distinct) {
    std::set<std::string> seen;
    std::vector<std::vector<EncodedTerm>> unique_rows;
    for (auto& row : out.rows) {
      std::string key;
      for (const EncodedTerm& v : row) {
        key += CanonicalKey(v);
        key += '\x1f';
      }
      if (seen.insert(std::move(key)).second) {
        unique_rows.push_back(std::move(row));
      }
    }
    out.rows = std::move(unique_rows);
  }

  const uint64_t offset = query.offset.value_or(0);
  if (offset > 0) {
    if (offset >= out.rows.size()) {
      out.rows.clear();
    } else {
      out.rows.erase(out.rows.begin(),
                     out.rows.begin() + static_cast<ptrdiff_t>(offset));
    }
  }
  if (query.limit && out.rows.size() > *query.limit) {
    out.rows.resize(*query.limit);
  }
  return out;
}

Result<QueryResult> Executor::Execute(const Query& query) {
  SEDGE_ASSIGN_OR_RETURN(BindingTable table, ExecuteEncoded(query));
  QueryResult result;
  result.var_names.reserve(table.vars.size());
  for (const Variable& v : table.vars) result.var_names.push_back(v.name);
  result.rows.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    std::vector<std::optional<rdf::Term>> decoded;
    decoded.reserve(row.size());
    for (const EncodedTerm& v : row) {
      if (IsUnbound(v)) {
        decoded.push_back(std::nullopt);
      } else {
        decoded.push_back(decoder_->Decode(v));
      }
    }
    result.rows.push_back(std::move(decoded));
  }
  return result;
}

Result<BindingTable> Executor::EvaluateGroup(const GroupPattern& group) {
  BindingTable table = BindingTable::Unit();
  if (!group.triples.empty()) {
    SEDGE_ASSIGN_OR_RETURN(table, EvaluateBgp(group.triples));
  }
  for (const UnionBlock& block : group.unions) {
    BindingTable combined;
    bool first = true;
    for (const GroupPattern& alt : block.alternatives) {
      SEDGE_ASSIGN_OR_RETURN(BindingTable alt_table, EvaluateGroup(alt));
      if (first) {
        combined = std::move(alt_table);
        first = false;
        continue;
      }
      // Align columns and concatenate.
      for (const Variable& v : alt_table.vars) combined.AddVar(v);
      for (const auto& row : alt_table.rows) {
        std::vector<EncodedTerm> aligned(combined.vars.size(), kUnboundValue);
        for (size_t i = 0; i < alt_table.vars.size(); ++i) {
          aligned[static_cast<size_t>(combined.IndexOf(alt_table.vars[i]))] =
              row[i];
        }
        combined.rows.push_back(std::move(aligned));
      }
    }
    table = JoinTables(std::move(table), std::move(combined));
  }
  for (const Bind& bind : group.binds) {
    SEDGE_RETURN_NOT_OK(ApplyBind(bind, &table));
  }
  for (const auto& filter : group.filters) {
    ApplyFilter(*filter, &table);
  }
  return table;
}

namespace {

std::string TermOrVarToString(const TermOrVar& tv) {
  if (IsVar(tv)) return "?" + AsVar(tv).name;
  return AsTerm(tv).ToNTriples();
}

std::string PatternToString(const TriplePattern& tp) {
  return TermOrVarToString(tp.subject) + " " +
         TermOrVarToString(tp.predicate) + " " +
         TermOrVarToString(tp.object);
}

}  // namespace

Result<BindingTable> Executor::EvaluateBgp(
    const std::vector<TriplePattern>& triples) {
  BindingTable table = BindingTable::Unit();
  std::vector<PlanStep> plan;
  if (profile_ != nullptr) {
    obs::ProfileNode* optimize = profile_->AddChild("optimize");
    obs::ProfileTimer plan_timer(optimize);
    plan = Plan(triples);
    plan_timer.Stop();
    optimize->AddStat("patterns", static_cast<int64_t>(triples.size()));
  } else {
    plan = Plan(triples);
  }
  const bool estimated = options_.use_optimizer;
  for (const PlanStep& step : plan) {
    const TriplePattern& tp = triples[step.pattern];
    if (profile_ == nullptr) {
      SEDGE_RETURN_NOT_OK(ExtendWithTp(tp, &table));
    } else {
      obs::ProfileNode* node = profile_->AddChild("tp");
      node->detail = PatternToString(tp);
      tp_node_ = node;
      const ExecutorStats before = stats_;
      obs::ProfileTimer tp_timer(node);
      const Status st = ExtendWithTp(tp, &table);
      tp_timer.Stop();
      tp_node_ = nullptr;
      SEDGE_RETURN_NOT_OK(st);
      // Path attribution: which physical strategy served this extension.
      const uint64_t merge_join =
          stats_.merge_join_extends - before.merge_join_extends;
      const uint64_t row = stats_.row_extends - before.row_extends;
      node->name += IsTypePredicate(tp.predicate) ? "/type"
                    : merge_join > 0              ? "/merge_join"
                    : row > 0                     ? "/row"
                                                  : "/empty";
      node->AddStat("rows_out", static_cast<int64_t>(table.rows.size()));
      if (estimated) {
        // The planner's view next to the measured rows_out, so a
        // misestimate shows in the profile itself.
        node->AddStat("est_rows", std::llround(step.est_rows));
        node->AddStat("est_cost", std::llround(step.est_cost));
      }
      node->AddStat("merge_join_extends", static_cast<int64_t>(merge_join));
      node->AddStat(
          "merge_join_delta_extends",
          static_cast<int64_t>(stats_.merge_join_delta_extends -
                               before.merge_join_delta_extends));
      node->AddStat("row_extends", static_cast<int64_t>(row));
      node->AddStat(
          "provisional_routes",
          static_cast<int64_t>(stats_.provisional_routes -
                               before.provisional_routes));
    }
    if (table.rows.empty()) break;  // no solutions can appear later
  }
  return table;
}

Status Executor::ExtendWithTp(const TriplePattern& tp, BindingTable* table) {
  if (IsTypePredicate(tp.predicate)) return ExtendTypeTp(tp, table);
  return ExtendRegularTp(tp, table);
}

// --------------------------------------------------------- value plumbing

namespace {

// How one TP slot resolves for a given row.
struct Slot {
  bool is_const = false;
  const rdf::Term* const_term = nullptr;
  bool is_var = false;
  Variable var;
  int col = -1;  // column in the table, -1 if the variable is new
};

Slot MakeSlot(const TermOrVar& tv, const BindingTable& table) {
  Slot s;
  if (IsVar(tv)) {
    s.is_var = true;
    s.var = AsVar(tv);
    s.col = table.IndexOf(s.var);
  } else {
    s.is_const = true;
    s.const_term = &AsTerm(tv);
  }
  return s;
}

}  // namespace

// Conversions between value spaces: a bound variable carrying a concept id
// may be reused as an instance (same IRI, different space), etc.
namespace {

std::optional<uint64_t> ToInstanceId(const store::TripleStore& store,
                                     const ValueDecoder& decoder,
                                     const EncodedTerm& v) {
  if (v.space == ValueSpace::kInstance) return v.id;
  if (v.space == ValueSpace::kLiteral || v.space == ValueSpace::kUnbound) {
    return std::nullopt;
  }
  return store.dict().InstanceId(decoder.Decode(v));
}

std::optional<uint64_t> ToConceptId(const store::TripleStore& store,
                                    const ValueDecoder& decoder,
                                    const EncodedTerm& v) {
  if (v.space == ValueSpace::kConcept) return v.id;
  if (v.space == ValueSpace::kLiteral || v.space == ValueSpace::kUnbound) {
    return std::nullopt;
  }
  const rdf::Term t = decoder.Decode(v);
  if (!t.is_iri()) return std::nullopt;
  return store.ConceptIdOf(t.lexical());  // provisional concepts included
}

}  // namespace

Status Executor::ExtendTypeTp(const TriplePattern& tp, BindingTable* table) {
  const Slot s_slot = MakeSlot(tp.subject, *table);
  const Slot o_slot = MakeSlot(tp.object, *table);
  const store::delta::MergedTypeView type_view = store_->type_view();

  // Constant-object interval: the LiteMat rewriting (two shifts + add)
  // replaces the n+1 union sub-queries.
  std::optional<std::pair<uint64_t, uint64_t>> const_interval;
  if (s_slot.is_const &&
      (!s_slot.const_term->is_iri() && !s_slot.const_term->is_blank())) {
    table->rows.clear();  // literal subject never matches
  }
  if (o_slot.is_const) {
    if (!o_slot.const_term->is_iri()) {
      table->rows.clear();
    } else {
      // Provisional concepts resolve to their leaf interval [id, id+1):
      // queryable immediately, subsumption only after the re-encode.
      const_interval = store_->ConceptIntervalOf(
          o_slot.const_term->lexical(), options_.reasoning);
      if (const_interval &&
          store::schema::IsProvisionalId(const_interval->first)) {
        ++stats_.provisional_routes;
      }
    }
    if (!const_interval) table->rows.clear();
  }

  // New columns introduced by this pattern.
  BindingTable out;
  out.vars = table->vars;
  const bool new_s = s_slot.is_var && s_slot.col < 0;
  const bool new_o =
      o_slot.is_var && o_slot.col < 0 && !(new_s && o_slot.var == s_slot.var);
  int s_newcol = -1;
  int o_newcol = -1;
  if (new_s) s_newcol = out.AddVar(s_slot.var);
  if (new_o) o_newcol = out.AddVar(o_slot.var);
  const bool same_new_var = s_slot.is_var && o_slot.is_var &&
                            s_slot.var == o_slot.var && new_s;

  const std::optional<uint64_t> const_sid =
      s_slot.is_const ? store_->dict().InstanceId(*s_slot.const_term)
                      : std::nullopt;
  if (s_slot.is_const && !const_sid) table->rows.clear();

  for (const auto& row : table->rows) {
    // Resolve the subject for this row.
    std::optional<uint64_t> sid;
    if (s_slot.is_const) {
      sid = const_sid;
    } else if (s_slot.col >= 0 && !IsUnbound(row[s_slot.col])) {
      sid = ToInstanceId(*store_, *decoder_, row[s_slot.col]);
      if (!sid) continue;
    }
    // Resolve the object (concept) for this row.
    std::optional<std::pair<uint64_t, uint64_t>> interval = const_interval;
    if (o_slot.is_var && o_slot.col >= 0 && !IsUnbound(row[o_slot.col])) {
      const auto cid = ToConceptId(*store_, *decoder_, row[o_slot.col]);
      if (!cid) continue;
      interval = std::make_pair(*cid, *cid + 1);
    }

    const auto emit = [&](uint64_t subject, uint64_t concept_id) {
      std::vector<EncodedTerm> extended = row;
      extended.resize(out.vars.size(), kUnboundValue);
      if (s_newcol >= 0) {
        extended[s_newcol] = {ValueSpace::kInstance, subject};
      }
      if (o_newcol >= 0) {
        extended[o_newcol] = {ValueSpace::kConcept, concept_id};
      }
      out.rows.push_back(std::move(extended));
    };

    if (sid && interval) {
      // (s, type, o): membership within the interval.
      const auto first = type_view.FirstConceptIn(*sid, interval->first,
                                                  interval->second);
      if (first) emit(*sid, *first);
    } else if (sid) {
      // (s, type, ?o): stored concepts of the subject.
      if (same_new_var) continue;  // ?x type ?x can never match
      type_view.ForEachConceptOf(*sid,
                                 [&](uint64_t c) { emit(*sid, c); });
    } else if (interval) {
      // (?s, type, o): LiteMat interval range scan; deduplicate subjects
      // when the object is not a variable (a subject typed by two
      // sub-concepts is still one solution).
      if (o_slot.is_var && o_newcol >= 0) {
        type_view.ForEachSubjectTypedIn(
            interval->first, interval->second,
            [&](uint64_t subject, uint64_t concept_id) {
              emit(subject, concept_id);
            });
      } else {
        std::vector<uint64_t> subjects;
        type_view.ForEachSubjectTypedIn(
            interval->first, interval->second,
            [&subjects](uint64_t subject, uint64_t) {
              subjects.push_back(subject);
            });
        std::sort(subjects.begin(), subjects.end());
        subjects.erase(std::unique(subjects.begin(), subjects.end()),
                       subjects.end());
        for (const uint64_t subject : subjects) emit(subject, 0);
      }
    } else {
      // (?s, type, ?o): full enumeration.
      if (same_new_var) continue;
      type_view.ForEach([&](uint64_t subject, uint64_t concept_id) {
        emit(subject, concept_id);
      });
    }
  }
  *table = std::move(out);
  return Status::OK();
}

Status Executor::ExtendRegularTp(const TriplePattern& tp,
                                 BindingTable* table) {
  const Slot s_slot = MakeSlot(tp.subject, *table);
  const Slot p_slot = MakeSlot(tp.predicate, *table);
  const Slot o_slot = MakeSlot(tp.object, *table);
  const auto& dict = store_->dict();

  // Routes for a constant predicate are row-independent.
  const bool object_is_literal_const =
      o_slot.is_const && o_slot.const_term->is_literal();
  std::vector<Route> const_routes;
  if (p_slot.is_const) {
    const_routes = ConstRoutes(*store_, p_slot.const_term->lexical(),
                               options_.reasoning,
                               o_slot.is_const ? o_slot.const_term : nullptr,
                               &stats_.provisional_routes);
  }

  if (tp_node_ != nullptr) {
    // Route selection outcome: how many concrete predicate scans the
    // (possibly reasoning-expanded) pattern resolved to.
    tp_node_->AddStat("routes", static_cast<int64_t>(const_routes.size()));
  }

  // Merge-join fast path: subject-bound star extension over concrete
  // predicates (possibly several after reasoning expansion).
  if (p_slot.is_const && !const_routes.empty() && options_.merge_join &&
      TryMergeJoinExtend(tp, const_routes, table)) {
    ++stats_.merge_join_extends;
    if (store_->has_delta()) ++stats_.merge_join_delta_extends;
    return Status::OK();
  }

  BindingTable out;
  out.vars = table->vars;
  const bool new_s = s_slot.is_var && s_slot.col < 0;
  const bool new_p = p_slot.is_var && p_slot.col < 0;
  const bool new_o = o_slot.is_var && o_slot.col < 0 &&
                     !(new_s && o_slot.var == s_slot.var) &&
                     !(new_p && o_slot.var == p_slot.var);
  int s_newcol = -1;
  int p_newcol = -1;
  int o_newcol = -1;
  if (new_s) s_newcol = out.AddVar(s_slot.var);
  if (new_p && !(new_s && p_slot.var == s_slot.var)) {
    p_newcol = out.AddVar(p_slot.var);
  }
  if (new_o) o_newcol = out.AddVar(o_slot.var);

  const std::optional<uint64_t> const_sid =
      s_slot.is_const ? dict.InstanceId(*s_slot.const_term) : std::nullopt;
  const std::optional<uint64_t> const_oid =
      (o_slot.is_const && !object_is_literal_const)
          ? dict.InstanceId(*o_slot.const_term)
          : std::nullopt;

  // Routes for an unbound predicate variable are row-independent;
  // enumerate them once, lazily (the wavelet-tree predicate scans are too
  // costly to repeat per row).
  std::optional<std::vector<Route>> unbound_routes;

  // One solution entailed through several routes of a constant predicate
  // is emitted once: repeats are dropped per input row over the columns
  // the pattern adds.
  std::vector<int> new_cols;
  if (const_routes.size() > 1) {
    for (const int c : {s_newcol, o_newcol}) {
      if (c >= 0) new_cols.push_back(c);
    }
  }

  std::vector<Route> row_routes;  // scratch for a bound predicate variable
  for (const auto& row : table->rows) {
    const size_t first_out = out.rows.size();
    // Subject resolution.
    std::optional<uint64_t> sid;
    if (s_slot.is_const) {
      if (!const_sid) continue;
      sid = const_sid;
    } else if (s_slot.col >= 0 && !IsUnbound(row[s_slot.col])) {
      sid = ToInstanceId(*store_, *decoder_, row[s_slot.col]);
      if (!sid) continue;
    }

    // Predicate routes for this row; the row-independent lists (constant
    // predicate, unbound variable) are referenced, not copied.
    const std::vector<Route>* routes = nullptr;
    if (p_slot.is_const) {
      routes = &const_routes;
    } else if (p_slot.col >= 0 && !IsUnbound(row[p_slot.col])) {
      row_routes.clear();
      const EncodedTerm pv = row[p_slot.col];
      if (pv.space == ValueSpace::kObjectProperty) {
        row_routes.push_back({false, true, pv.id});
      } else if (pv.space == ValueSpace::kDatatypeProperty) {
        row_routes.push_back({false, false, pv.id});
      } else if (pv.space == ValueSpace::kRdfType) {
        row_routes.push_back({true, false, 0});
      } else {
        const rdf::Term t = decoder_->Decode(pv);
        if (!t.is_iri()) continue;
        if (t.lexical() == rdf::kRdfType) {
          row_routes.push_back({true, false, 0});
        } else {
          if (const auto id = store_->ObjectPropertyIdOf(t.lexical())) {
            row_routes.push_back({false, true, *id});
          }
          if (const auto id = store_->DatatypePropertyIdOf(t.lexical())) {
            row_routes.push_back({false, false, *id});
          }
        }
      }
      routes = &row_routes;
    } else {
      if (!unbound_routes) unbound_routes = UnboundPredicateRoutes(*store_);
      routes = &*unbound_routes;
    }

    // Object resolution (space depends on the route; resolve lazily).
    const EncodedTerm* bound_o = nullptr;
    if (o_slot.is_var && o_slot.col >= 0 && !IsUnbound(row[o_slot.col])) {
      bound_o = &row[o_slot.col];
    }

    const auto emit = [&](const EncodedTerm& p_val, uint64_t subject,
                          const EncodedTerm& o_val) {
      // Repeated-variable constraints within the pattern.
      if (s_slot.is_var && o_slot.is_var && s_slot.var == o_slot.var) {
        if (o_val.space != ValueSpace::kInstance || o_val.id != subject) {
          return;
        }
      }
      std::vector<EncodedTerm> extended = row;
      extended.resize(out.vars.size(), kUnboundValue);
      if (s_newcol >= 0) extended[s_newcol] = {ValueSpace::kInstance, subject};
      if (p_newcol >= 0) extended[p_newcol] = p_val;
      if (o_newcol >= 0) extended[o_newcol] = o_val;
      out.rows.push_back(std::move(extended));
    };

    for (const Route& route : *routes) {
      if (route.is_type) {
        // Var-predicate hit on rdf:type triples.
        const EncodedTerm p_val{ValueSpace::kRdfType, 0};
        std::optional<uint64_t> cid;
        if (o_slot.is_const) {
          if (!o_slot.const_term->is_iri()) continue;
          const auto id = store_->ConceptIdOf(o_slot.const_term->lexical());
          if (!id) continue;
          cid = *id;
        } else if (bound_o != nullptr) {
          cid = ToConceptId(*store_, *decoder_, *bound_o);
          if (!cid) continue;
        }
        const store::delta::MergedTypeView types = store_->type_view();
        if (sid && cid) {
          if (types.Contains(*sid, *cid)) {
            emit(p_val, *sid, {ValueSpace::kConcept, *cid});
          }
        } else if (sid) {
          types.ForEachConceptOf(*sid, [&](uint64_t c) {
            emit(p_val, *sid, {ValueSpace::kConcept, c});
          });
        } else if (cid) {
          types.ForEachSubjectOf(*cid, [&](uint64_t s) {
            emit(p_val, s, {ValueSpace::kConcept, *cid});
          });
        } else {
          types.ForEach([&](uint64_t s, uint64_t c) {
            emit(p_val, s, {ValueSpace::kConcept, c});
          });
        }
        continue;
      }

      if (route.is_object) {
        const store::delta::MergedObjectView pso = store_->object_view();
        const EncodedTerm p_val{ValueSpace::kObjectProperty, route.pred};
        std::optional<uint64_t> oid;
        if (o_slot.is_const) {
          if (object_is_literal_const) continue;
          if (!const_oid) continue;
          oid = const_oid;
        } else if (bound_o != nullptr) {
          oid = ToInstanceId(*store_, *decoder_, *bound_o);
          if (!oid) continue;
        }
        const auto sink = [&](uint64_t s, uint64_t o) {
          emit(p_val, s, {ValueSpace::kInstance, o});
          return true;
        };
        if (sid && oid) {
          if (pso.Contains(route.pred, *sid, *oid)) sink(*sid, *oid);
        } else if (sid) {
          pso.ScanSP(route.pred, *sid, sink);
        } else if (oid) {
          pso.ScanPO(route.pred, *oid, sink);
        } else {
          pso.ScanP(route.pred, sink);
        }
        continue;
      }

      // Datatype route.
      const store::delta::MergedDatatypeView dts = store_->datatype_view();
      const EncodedTerm p_val{ValueSpace::kDatatypeProperty, route.pred};
      std::optional<rdf::Term> literal;
      if (o_slot.is_const) {
        if (!o_slot.const_term->is_literal()) continue;
        literal = *o_slot.const_term;
      } else if (bound_o != nullptr) {
        if (bound_o->space == ValueSpace::kLiteral ||
            bound_o->space == ValueSpace::kComputed) {
          const rdf::Term t = decoder_->Decode(*bound_o);
          if (!t.is_literal()) continue;
          literal = t;
        } else {
          continue;  // resource-valued binding cannot match a literal
        }
      }
      const auto sink = [&](uint64_t s, uint64_t pos) {
        emit(p_val, s, {ValueSpace::kLiteral, pos});
        return true;
      };
      if (sid && literal) {
        dts.ScanSP(route.pred, *sid, [&](uint64_t s, uint64_t pos) {
          if (dts.LiteralAt(pos) == *literal) sink(s, pos);
          return true;
        });
      } else if (sid) {
        dts.ScanSP(route.pred, *sid, sink);
      } else if (literal) {
        dts.ScanPO(route.pred, *literal, sink);
      } else {
        dts.ScanP(route.pred, sink);
      }
    }
    if (const_routes.size() > 1) DropRepeats(&out.rows, first_out, new_cols);
  }
  ++stats_.row_extends;
  *table = std::move(out);
  return Status::OK();
}

bool Executor::TryMergeJoinExtend(const TriplePattern& tp,
                                  const std::vector<Route>& routes,
                                  BindingTable* table) {
  const Slot s_slot = MakeSlot(tp.subject, *table);
  const Slot o_slot = MakeSlot(tp.object, *table);
  // Preconditions: subject var already bound; object a fresh var, a
  // constant, or a bound var (a semi-join); no repeated variable.
  if (!s_slot.is_var || s_slot.col < 0) return false;
  if (o_slot.is_var && o_slot.var == s_slot.var) return false;
  const int o_col = o_slot.is_var ? o_slot.col : -1;
  // Subject bindings must be plain instances and bound objects instances
  // or literals (other space conversions take the general path).
  for (const auto& row : table->rows) {
    if (row[s_slot.col].space != ValueSpace::kInstance) return false;
    if (o_col >= 0 && row[o_col].space != ValueSpace::kInstance &&
        row[o_col].space != ValueSpace::kLiteral &&
        row[o_col].space != ValueSpace::kComputed) {
      return false;
    }
  }

  BindingTable out;
  out.vars = table->vars;
  const int o_newcol =
      o_slot.is_var && o_col < 0 ? out.AddVar(o_slot.var) : -1;

  // Object constant, resolved per object kind.
  std::optional<uint64_t> const_oid;
  std::optional<rdf::Term> const_literal;
  if (o_slot.is_const) {
    if (o_slot.const_term->is_literal()) {
      const_literal = *o_slot.const_term;
    } else {
      const_oid = store_->dict().InstanceId(*o_slot.const_term);
      if (!const_oid) {  // unknown resource: object routes cannot match
        *table = std::move(out);
        return true;
      }
    }
  }

  // Both sides ordered by subject: sort the rows once, then sweep each
  // route's merged subject run left to right (Figure 7). The RunCursors
  // interleave the delta overlay's sorted adds and skip tombstoned base
  // triples, so the sweep stays a single pass whether or not writes are
  // live.
  std::vector<size_t> order(table->rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return table->rows[a][s_slot.col].id < table->rows[b][s_slot.col].id;
  });

  // The distinct sorted subjects and each sorted row's window index,
  // computed once and shared by every route: each cursor precomputes all
  // its per-subject windows in one batched pass (SeekBatch), so the
  // per-row cost drops to an O(1) window switch instead of a virtual
  // Seek + wavelet descent per distinct subject per route.
  std::vector<uint64_t> subjects;
  std::vector<size_t> row_window(order.size());
  subjects.reserve(order.size());
  for (size_t r = 0; r < order.size(); ++r) {
    const uint64_t s = table->rows[order[r]][s_slot.col].id;
    if (subjects.empty() || subjects.back() != s) subjects.push_back(s);
    row_window[r] = subjects.size() - 1;
  }

  const store::delta::MergedObjectView pso = store_->object_view();
  const store::delta::MergedDatatypeView dts = store_->datatype_view();
  std::vector<store::delta::MergedObjectView::RunCursor> object_runs;
  std::vector<store::delta::MergedDatatypeView::RunCursor> literal_runs;
  for (const Route& route : routes) {
    if (route.is_object) {
      if (const_literal) continue;  // literal never matches a resource
      auto cursor = pso.OpenRun(route.pred);
      if (!cursor.valid()) continue;
      cursor.SeekBatch(subjects.data(), subjects.size());
      object_runs.push_back(std::move(cursor));
    } else {
      if (const_oid) continue;  // resource never matches a literal
      auto cursor = dts.OpenRun(route.pred);
      if (!cursor.valid()) continue;
      cursor.SeekBatch(subjects.data(), subjects.size());
      literal_runs.push_back(std::move(cursor));
    }
  }
  const bool several_runs = object_runs.size() + literal_runs.size() > 1;
  const std::vector<int> new_cols =
      o_newcol >= 0 ? std::vector<int>{o_newcol} : std::vector<int>{};

  // Rows are visited in subject order; for each, every route's window is
  // current at once, so the routes' answers for one row are adjacent and
  // a solution two routes entail is emitted once.
  size_t cur_window = ~size_t{0};
  for (size_t r = 0; r < order.size(); ++r) {
    const std::vector<EncodedTerm>& row = table->rows[order[r]];
    if (row_window[r] != cur_window) {
      cur_window = row_window[r];
      for (auto& cursor : object_runs) cursor.SelectWindow(cur_window);
      for (auto& cursor : literal_runs) cursor.SelectWindow(cur_window);
    }
    const auto emit = [&](const EncodedTerm* o_val) {
      std::vector<EncodedTerm> extended = row;
      extended.resize(out.vars.size(), kUnboundValue);
      if (o_val != nullptr) extended[o_newcol] = *o_val;
      out.rows.push_back(std::move(extended));
    };

    if (o_newcol < 0) {
      // Constant or bound object: keep the row if any route holds the
      // (subject, object) triple.
      std::optional<uint64_t> oid = const_oid;
      std::optional<rdf::Term> literal = const_literal;
      if (o_col >= 0) {
        if (row[o_col].space == ValueSpace::kInstance) {
          oid = row[o_col].id;
        } else if (!literal_runs.empty()) {
          literal = decoder_->Decode(row[o_col]);
        }
      }
      bool hit = false;
      if (oid) {
        for (const auto& cursor : object_runs) {
          if (cursor.has_current() && cursor.ContainsObject(*oid)) {
            hit = true;
            break;
          }
        }
      }
      if (!hit && literal && literal->is_literal()) {
        for (const auto& cursor : literal_runs) {
          if (!cursor.has_current()) continue;
          cursor.ForEachLiteral([&](uint64_t pos) {
            hit = dts.LiteralAt(pos) == *literal;
            return !hit;
          });
          if (hit) break;
        }
      }
      if (hit) emit(nullptr);
      continue;
    }

    const size_t first_out = out.rows.size();
    for (const auto& cursor : object_runs) {
      if (!cursor.has_current()) continue;
      cursor.ForEachObject([&](uint64_t o) {
        const EncodedTerm value{ValueSpace::kInstance, o};
        emit(&value);
        return true;
      });
    }
    // Emitted literal positions may carry kDeltaLiteralBit; the binding
    // keeps them verbatim and the decode path routes both pools.
    for (const auto& cursor : literal_runs) {
      if (!cursor.has_current()) continue;
      cursor.ForEachLiteral([&](uint64_t pos) {
        const EncodedTerm value{ValueSpace::kLiteral, pos};
        emit(&value);
        return true;
      });
    }
    if (several_runs) DropRepeats(&out.rows, first_out, new_cols);
  }
  *table = std::move(out);
  return true;
}

void Executor::DropRepeats(std::vector<std::vector<EncodedTerm>>* rows,
                           size_t begin, const std::vector<int>& cols) const {
  if (rows->size() - begin < 2) return;
  const auto first = rows->begin() + static_cast<ptrdiff_t>(begin);
  const auto is_literal = [](const EncodedTerm& v) {
    return v.space == ValueSpace::kLiteral || v.space == ValueSpace::kComputed;
  };
  bool literals = false;
  for (auto it = first; it != rows->end(); ++it) {
    for (const int c : cols) literals = literals || is_literal((*it)[c]);
  }
  if (literals) {
    // Equal literals may sit at distinct pool positions: compare their
    // canonical form, keeping the first of each.
    std::set<std::string> seen;
    const auto kept = std::remove_if(first, rows->end(), [&](const auto& row) {
      std::string key;
      for (const int c : cols) {
        key += CanonicalKey(row[c]);
        key += '\x1f';
      }
      return !seen.insert(std::move(key)).second;
    });
    rows->erase(kept, rows->end());
    return;
  }
  const auto less = [&cols](const std::vector<EncodedTerm>& a,
                            const std::vector<EncodedTerm>& b) {
    for (const int c : cols) {
      if (a[c].space != b[c].space) return a[c].space < b[c].space;
      if (a[c].id != b[c].id) return a[c].id < b[c].id;
    }
    return false;
  };
  std::sort(first, rows->end(), less);
  const auto kept = std::unique(
      first, rows->end(), [&less](const auto& a, const auto& b) {
        return !less(a, b) && !less(b, a);
      });
  rows->erase(kept, rows->end());
}

Status Executor::ApplyBind(const Bind& bind, BindingTable* table) {
  const int col = table->AddVar(bind.var);
  for (auto& row : table->rows) {
    const auto lookup =
        [&](const Variable& v) -> std::optional<EncodedTerm> {
      const int c = table->IndexOf(v);
      if (c < 0 || IsUnbound(row[c])) return std::nullopt;
      return row[c];
    };
    const EvalValue value = evaluator_->Evaluate(*bind.expr, lookup);
    switch (value.kind) {
      case EvalValue::Kind::kError:
        row[col] = kUnboundValue;
        break;
      case EvalValue::Kind::kEncoded:
        row[col] = value.encoded;
        break;
      case EvalValue::Kind::kBool:
        row[col] = InternComputed(
            rdf::Term::Literal(value.boolean ? "true" : "false",
                               rdf::kXsdBoolean),
            value.boolean ? 1.0 : 0.0);
        break;
      case EvalValue::Kind::kNumber: {
        std::string lexical = std::to_string(value.number);
        row[col] = InternComputed(
            rdf::Term::Literal(std::move(lexical), rdf::kXsdDouble),
            value.number);
        break;
      }
      case EvalValue::Kind::kString:
        row[col] = InternComputed(rdf::Term::Literal(value.string),
                                  std::nullopt);
        break;
      case EvalValue::Kind::kTerm: {
        // Re-encode known instances so downstream joins stay id-based.
        if (const auto inst = store_->EncodeInstance(value.term)) {
          row[col] = *inst;
        } else {
          std::optional<double> numeric;
          if (value.term.IsNumericLiteral()) numeric = value.term.AsDouble();
          row[col] = InternComputed(value.term, numeric);
        }
        break;
      }
    }
  }
  return Status::OK();
}

void Executor::ApplyFilter(const Expr& filter, BindingTable* table) {
  std::vector<std::vector<EncodedTerm>> kept;
  kept.reserve(table->rows.size());
  for (auto& row : table->rows) {
    const auto lookup =
        [&](const Variable& v) -> std::optional<EncodedTerm> {
      const int c = table->IndexOf(v);
      if (c < 0 || IsUnbound(row[c])) return std::nullopt;
      return row[c];
    };
    if (evaluator_->EffectiveBool(filter, lookup)) {
      kept.push_back(std::move(row));
    }
  }
  table->rows = std::move(kept);
}

BindingTable Executor::JoinTables(BindingTable left,
                                  BindingTable right) const {
  // Shared variables.
  std::vector<std::pair<int, int>> shared;  // (left col, right col)
  for (size_t i = 0; i < left.vars.size(); ++i) {
    const int rc = right.IndexOf(left.vars[i]);
    if (rc >= 0) shared.push_back({static_cast<int>(i), rc});
  }
  BindingTable out;
  out.vars = left.vars;
  std::vector<int> right_extra;  // right columns not shared
  for (size_t i = 0; i < right.vars.size(); ++i) {
    bool is_shared = false;
    for (const auto& [lc, rc] : shared) {
      if (rc == static_cast<int>(i)) is_shared = true;
    }
    if (!is_shared) {
      right_extra.push_back(static_cast<int>(i));
      out.vars.push_back(right.vars[i]);
    }
  }

  // Hash the right side on the shared-variable key.
  const auto key_of = [&](const std::vector<EncodedTerm>& row,
                          bool is_left) {
    std::string key;
    for (const auto& [lc, rc] : shared) {
      key += CanonicalKey(row[is_left ? lc : rc]);
      key += '\x1f';
    }
    return key;
  };
  std::map<std::string, std::vector<size_t>> right_index;
  for (size_t i = 0; i < right.rows.size(); ++i) {
    right_index[key_of(right.rows[i], false)].push_back(i);
  }
  for (const auto& lrow : left.rows) {
    const auto it = right_index.find(key_of(lrow, true));
    if (it == right_index.end()) continue;
    for (const size_t ri : it->second) {
      std::vector<EncodedTerm> merged = lrow;
      for (const int rc : right_extra) {
        merged.push_back(right.rows[ri][rc]);
      }
      out.rows.push_back(std::move(merged));
    }
  }
  return out;
}

store::EncodedTerm Executor::InternComputed(rdf::Term term,
                                            std::optional<double> numeric) {
  computed_pool_.push_back(std::move(term));
  computed_numeric_.push_back(numeric);
  return {ValueSpace::kComputed, computed_pool_.size() - 1};
}

std::string Executor::CanonicalKey(const store::EncodedTerm& v) const {
  switch (v.space) {
    case ValueSpace::kLiteral:
    case ValueSpace::kComputed: {
      const rdf::Term t = decoder_->Decode(v);
      return "L:" + t.ToNTriples();
    }
    case ValueSpace::kUnbound:
      return "U";
    default:
      return std::to_string(static_cast<int>(v.space)) + ":" +
             std::to_string(v.id);
  }
}

}  // namespace sedge::sparql
