#include "baselines/baseline_engine.h"

#include <algorithm>
#include <map>
#include <set>

#include "sparql/optimizer.h"
#include "sparql/sparql_parser.h"
#include "util/logging.h"

namespace sedge::baselines {
namespace {

using sparql::AsTerm;
using sparql::AsVar;
using sparql::BindingTable;
using sparql::EvalValue;
using sparql::IsVar;
using sparql::TriplePattern;
using store::EncodedTerm;
using store::ValueSpace;

constexpr EncodedTerm kUnboundValue{ValueSpace::kUnbound, 0};

bool IsUnbound(const EncodedTerm& v) {
  return v.space == ValueSpace::kUnbound;
}

}  // namespace

// ----------------------------------------------------------------- Decoder

class BaselineEngine::Decoder : public sparql::ValueDecoder {
 public:
  Decoder(const BaselineStore* store,
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
        return store_->dict().TermOf(static_cast<uint32_t>(value.id));
    }
  }

  std::optional<double> Numeric(const EncodedTerm& value) const override {
    if (value.space == ValueSpace::kComputed) {
      return (*computed_numeric_)[value.id];
    }
    if (value.space == ValueSpace::kUnbound) return std::nullopt;
    const rdf::Term t = Decode(value);
    if (!t.IsNumericLiteral()) return std::nullopt;
    return t.AsDouble();
  }

  std::string Str(const EncodedTerm& value) const override {
    if (value.space == ValueSpace::kUnbound) return "";
    return Decode(value).lexical();
  }

 private:
  const BaselineStore* store_;
  const std::vector<rdf::Term>* computed_pool_;
  const std::vector<std::optional<double>>* computed_numeric_;
};

// --------------------------------------------------------------- Estimator

class BaselineEngine::Estimator : public sparql::CardinalityEstimator {
 public:
  explicit Estimator(const BaselineStore* store) : store_(store) {}

  sparql::PatternEstimate Estimate(const TriplePattern& tp) const override {
    const auto id_of = [this](const sparql::TermOrVar& tv) -> OptId {
      if (IsVar(tv)) return std::nullopt;
      const auto id = store_->dict().IdOf(AsTerm(tv));
      return id ? OptId(*id) : OptId(~0u);  // absent constant: empty
    };
    const OptId s = id_of(tp.subject);
    const OptId p = id_of(tp.predicate);
    const OptId o = id_of(tp.object);
    sparql::PatternEstimate e;
    if ((s && *s == ~0u) || (p && *p == ~0u) || (o && *o == ~0u)) return e;
    // No distinct counts are kept: a free slot takes every row as distinct.
    e.rows = static_cast<double>(store_->EstimateCardinality(s, p, o));
    e.subjects = s ? 1 : e.rows;
    e.objects = o ? 1 : e.rows;
    return e;
  }

 private:
  const BaselineStore* store_;
};

// ----------------------------------------------------------------- engine

BaselineEngine::BaselineEngine(const BaselineStore* store) : store_(store) {
  decoder_ = std::make_unique<Decoder>(store_, &computed_pool_,
                                       &computed_numeric_);
  evaluator_ =
      std::make_unique<sparql::ExpressionEvaluator>(decoder_.get());
}

BaselineEngine::~BaselineEngine() = default;

Result<sparql::QueryResult> BaselineEngine::Execute(std::string_view text) {
  SEDGE_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(text));
  return Execute(query);
}

Result<sparql::QueryResult> BaselineEngine::Execute(
    const sparql::Query& query) {
  if (!store_->SupportsUnion() && !query.where.unions.empty()) {
    return Status::Unsupported(store_->name() +
                               " does not support SPARQL UNION");
  }
  SEDGE_ASSIGN_OR_RETURN(BindingTable raw, EvaluateGroup(query.where));
  SEDGE_ASSIGN_OR_RETURN(BindingTable table, Project(query, std::move(raw)));
  sparql::QueryResult result;
  for (const sparql::Variable& v : table.vars) {
    result.var_names.push_back(v.name);
  }
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

Result<uint64_t> BaselineEngine::ExecuteCount(const sparql::Query& query) {
  if (!store_->SupportsUnion() && !query.where.unions.empty()) {
    return Status::Unsupported(store_->name() +
                               " does not support SPARQL UNION");
  }
  SEDGE_ASSIGN_OR_RETURN(BindingTable raw, EvaluateGroup(query.where));
  SEDGE_ASSIGN_OR_RETURN(BindingTable table, Project(query, std::move(raw)));
  return static_cast<uint64_t>(table.rows.size());
}

Result<BindingTable> BaselineEngine::Project(const sparql::Query& query,
                                             BindingTable table) {
  std::vector<sparql::Variable> projected = query.select;
  if (projected.empty()) projected = query.MentionedVariables();
  BindingTable out;
  out.vars = projected;
  std::vector<int> cols;
  for (const sparql::Variable& v : projected) cols.push_back(table.IndexOf(v));
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
  if (offset >= out.rows.size()) {
    if (offset > 0) out.rows.clear();
  } else if (offset > 0) {
    out.rows.erase(out.rows.begin(),
                   out.rows.begin() + static_cast<ptrdiff_t>(offset));
  }
  if (query.limit && out.rows.size() > *query.limit) {
    out.rows.resize(*query.limit);
  }
  return out;
}

Result<BindingTable> BaselineEngine::EvaluateGroup(
    const sparql::GroupPattern& group) {
  BindingTable table = BindingTable::Unit();
  if (!group.triples.empty()) {
    SEDGE_ASSIGN_OR_RETURN(table, EvaluateBgp(group.triples));
  }
  for (const sparql::UnionBlock& block : group.unions) {
    BindingTable combined;
    bool first = true;
    for (const sparql::GroupPattern& alt : block.alternatives) {
      SEDGE_ASSIGN_OR_RETURN(BindingTable alt_table, EvaluateGroup(alt));
      if (first) {
        combined = std::move(alt_table);
        first = false;
        continue;
      }
      for (const sparql::Variable& v : alt_table.vars) combined.AddVar(v);
      for (const auto& row : alt_table.rows) {
        std::vector<EncodedTerm> aligned(combined.vars.size(), kUnboundValue);
        for (size_t i = 0; i < alt_table.vars.size(); ++i) {
          aligned[static_cast<size_t>(
              combined.IndexOf(alt_table.vars[i]))] = row[i];
        }
        combined.rows.push_back(std::move(aligned));
      }
    }
    table = JoinTables(std::move(table), std::move(combined));
  }
  for (const sparql::Bind& bind : group.binds) ApplyBind(bind, &table);
  for (const auto& filter : group.filters) ApplyFilter(*filter, &table);
  return table;
}

Result<BindingTable> BaselineEngine::EvaluateBgp(
    const std::vector<TriplePattern>& triples) {
  const Estimator estimator(store_);
  // Index lookups per row: the planner's row-path charges apply.
  const std::vector<sparql::PlanStep> plan =
      sparql::OrderTriplePatterns(triples, estimator, /*merge_join=*/false);
  BindingTable table = BindingTable::Unit();
  for (const sparql::PlanStep& step : plan) {
    ExtendWithTp(triples[step.pattern], &table);
    if (table.rows.empty()) break;
  }
  return table;
}

void BaselineEngine::ExtendWithTp(const TriplePattern& tp,
                                  BindingTable* table) {
  struct Slot {
    bool is_const = false;
    OptId const_id;           // nullopt + is_const => unknown term: no match
    bool known = true;
    int col = -1;             // bound column
    bool is_new_var = false;
    sparql::Variable var;
  };
  const auto make_slot = [&](const sparql::TermOrVar& tv) {
    Slot slot;
    if (IsVar(tv)) {
      slot.var = AsVar(tv);
      slot.col = table->IndexOf(slot.var);
      slot.is_new_var = slot.col < 0;
    } else {
      slot.is_const = true;
      slot.const_id = store_->dict().IdOf(AsTerm(tv));
      slot.known = slot.const_id.has_value();
    }
    return slot;
  };
  Slot s_slot = make_slot(tp.subject);
  Slot p_slot = make_slot(tp.predicate);
  Slot o_slot = make_slot(tp.object);

  BindingTable out;
  out.vars = table->vars;
  int s_newcol = -1;
  int p_newcol = -1;
  int o_newcol = -1;
  if (s_slot.is_new_var) s_newcol = out.AddVar(s_slot.var);
  if (p_slot.is_new_var && out.IndexOf(p_slot.var) < 0) {
    p_newcol = out.AddVar(p_slot.var);
  }
  if (o_slot.is_new_var && out.IndexOf(o_slot.var) < 0) {
    o_newcol = out.AddVar(o_slot.var);
  }

  if (!s_slot.known || !p_slot.known || !o_slot.known) {
    *table = std::move(out);  // a constant term absent from the store
    return;
  }

  for (const auto& row : table->rows) {
    const auto resolve = [&](const Slot& slot) -> OptId {
      if (slot.is_const) return slot.const_id;
      if (slot.col >= 0 && !IsUnbound(row[slot.col])) {
        const EncodedTerm& v = row[slot.col];
        if (v.space == ValueSpace::kComputed) {
          // Computed values join by content.
          const auto id = store_->dict().IdOf(decoder_->Decode(v));
          return id ? OptId(*id) : OptId(~0u);
        }
        return static_cast<uint32_t>(v.id);
      }
      return std::nullopt;
    };
    const OptId s = resolve(s_slot);
    const OptId p = resolve(p_slot);
    const OptId o = resolve(o_slot);
    if ((s && *s == ~0u) || (p && *p == ~0u) || (o && *o == ~0u)) continue;

    store_->Scan(s, p, o, [&](uint32_t rs, uint32_t rp, uint32_t ro) {
      // Repeated-variable constraints.
      if (s_slot.is_new_var && o_slot.is_new_var &&
          s_slot.var == o_slot.var && rs != ro) {
        return true;
      }
      if (s_slot.is_new_var && p_slot.is_new_var &&
          s_slot.var == p_slot.var && rs != rp) {
        return true;
      }
      std::vector<EncodedTerm> extended = row;
      extended.resize(out.vars.size(), kUnboundValue);
      if (s_newcol >= 0) extended[s_newcol] = {ValueSpace::kInstance, rs};
      if (p_newcol >= 0) extended[p_newcol] = {ValueSpace::kInstance, rp};
      if (o_newcol >= 0) extended[o_newcol] = {ValueSpace::kInstance, ro};
      out.rows.push_back(std::move(extended));
      return true;
    });
  }
  *table = std::move(out);
}

void BaselineEngine::ApplyBind(const sparql::Bind& bind,
                               BindingTable* table) {
  const int col = table->AddVar(bind.var);
  for (auto& row : table->rows) {
    const auto lookup =
        [&](const sparql::Variable& v) -> std::optional<EncodedTerm> {
      const int c = table->IndexOf(v);
      if (c < 0 || IsUnbound(row[c])) return std::nullopt;
      return row[c];
    };
    const EvalValue value = evaluator_->Evaluate(*bind.expr, lookup);
    const auto intern = [&](rdf::Term term,
                            std::optional<double> numeric) -> EncodedTerm {
      computed_pool_.push_back(std::move(term));
      computed_numeric_.push_back(numeric);
      return {ValueSpace::kComputed, computed_pool_.size() - 1};
    };
    switch (value.kind) {
      case EvalValue::Kind::kError:
        row[col] = kUnboundValue;
        break;
      case EvalValue::Kind::kEncoded:
        row[col] = value.encoded;
        break;
      case EvalValue::Kind::kBool:
        row[col] = intern(rdf::Term::Literal(value.boolean ? "true" : "false",
                                             "http://www.w3.org/2001/"
                                             "XMLSchema#boolean"),
                          value.boolean ? 1.0 : 0.0);
        break;
      case EvalValue::Kind::kNumber:
        row[col] = intern(
            rdf::Term::Literal(std::to_string(value.number),
                               "http://www.w3.org/2001/XMLSchema#double"),
            value.number);
        break;
      case EvalValue::Kind::kString:
        row[col] = intern(rdf::Term::Literal(value.string), std::nullopt);
        break;
      case EvalValue::Kind::kTerm: {
        if (const auto id = store_->dict().IdOf(value.term)) {
          row[col] = {ValueSpace::kInstance, *id};
        } else {
          std::optional<double> numeric;
          if (value.term.IsNumericLiteral()) numeric = value.term.AsDouble();
          row[col] = intern(value.term, numeric);
        }
        break;
      }
    }
  }
}

void BaselineEngine::ApplyFilter(const sparql::Expr& filter,
                                 BindingTable* table) {
  std::vector<std::vector<EncodedTerm>> kept;
  kept.reserve(table->rows.size());
  for (auto& row : table->rows) {
    const auto lookup =
        [&](const sparql::Variable& v) -> std::optional<EncodedTerm> {
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

BindingTable BaselineEngine::JoinTables(BindingTable left,
                                        BindingTable right) const {
  std::vector<std::pair<int, int>> shared;
  for (size_t i = 0; i < left.vars.size(); ++i) {
    const int rc = right.IndexOf(left.vars[i]);
    if (rc >= 0) shared.push_back({static_cast<int>(i), rc});
  }
  BindingTable out;
  out.vars = left.vars;
  std::vector<int> right_extra;
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
  const auto key_of = [&](const std::vector<EncodedTerm>& row, bool is_left) {
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
      for (const int rc : right_extra) merged.push_back(right.rows[ri][rc]);
      out.rows.push_back(std::move(merged));
    }
  }
  return out;
}

std::string BaselineEngine::CanonicalKey(const EncodedTerm& v) const {
  if (v.space == ValueSpace::kComputed) {
    return "L:" + decoder_->Decode(v).ToNTriples();
  }
  if (v.space == ValueSpace::kUnbound) return "U";
  return "i:" + std::to_string(v.id);
}

}  // namespace sedge::baselines
