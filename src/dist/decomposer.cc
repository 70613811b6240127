#include "dist/decomposer.h"

#include <string>
#include <utility>

#include "rdf/vocabulary.h"

namespace sedge::dist {

namespace {

using sparql::AsTerm;
using sparql::AsVar;
using sparql::IsVar;
using sparql::TermOrVar;
using sparql::TriplePattern;
using sparql::Variable;

/// Grouping key of a pattern's subject slot. Variables and constants
/// never collide ('?' cannot start an N-Triples serialization).
std::string SubjectKeyOf(const TermOrVar& subject) {
  if (IsVar(subject)) return "?" + AsVar(subject).name;
  return AsTerm(subject).ToNTriples();
}

bool IsTypePattern(const TriplePattern& tp) {
  return !IsVar(tp.predicate) && AsTerm(tp.predicate).is_iri() &&
         AsTerm(tp.predicate).lexical() == rdf::kRdfType;
}

bool ContainsVar(const std::vector<Variable>& vars, const Variable& v) {
  for (const Variable& seen : vars) {
    if (seen == v) return true;
  }
  return false;
}

}  // namespace

Decomposition Decompose(sparql::GroupPattern group, bool colocate_subjects) {
  Decomposition out;
  out.patterns_total = group.triples.size();

  // Star grouping: patterns sharing a subject slot, in first-seen order
  // (deterministic subquery shapes).
  std::vector<std::string> keys;
  for (TriplePattern& tp : group.triples) {
    const std::string key =
        colocate_subjects ? SubjectKeyOf(tp.subject)
                          : "#" + std::to_string(keys.size());
    size_t slot = keys.size();
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == key) {
        slot = i;
        break;
      }
    }
    if (slot == keys.size()) {
      keys.push_back(key);
      out.groups.emplace_back();
    }
    ShardSubquery& g = out.groups[slot];
    sparql::CollectVariables(tp, &g.vars);
    g.patterns += 1;
    if (IsTypePattern(tp)) g.type_patterns += 1;
    g.query.where.triples.push_back(std::move(tp));
  }
  for (const ShardSubquery& g : out.groups) {
    out.pushed_join_edges += g.patterns > 0 ? g.patterns - 1 : 0;
  }

  // Filter pushdown: a filter descends into the unique group that binds
  // all of its variables. BIND-produced variables pin a filter to the
  // coordinator (BINDs run there, after the join); so does mentioning
  // variables from two groups, from a UNION branch, or none at all
  // (constant filters are not worth shipping K times).
  std::vector<Variable> bind_vars;
  for (const sparql::Bind& b : group.binds) {
    sparql::AddVariable(b.var, &bind_vars);
  }
  for (auto& filter : group.filters) {
    std::vector<Variable> fvars;
    sparql::CollectVariables(*filter, &fvars);
    ShardSubquery* target = nullptr;
    bool pushable = !fvars.empty();
    for (const Variable& v : fvars) {
      if (ContainsVar(bind_vars, v)) {
        pushable = false;
        break;
      }
      ShardSubquery* owner = nullptr;
      for (ShardSubquery& g : out.groups) {
        if (ContainsVar(g.vars, v)) {
          owner = &g;
          break;
        }
      }
      if (owner == nullptr || (target != nullptr && owner != target)) {
        pushable = false;
        break;
      }
      target = owner;
    }
    if (pushable && target != nullptr) {
      target->pushed_filters += 1;
      target->query.where.filters.push_back(std::move(filter));
    } else {
      out.residual.filters.push_back(std::move(filter));
    }
  }

  // Finalize subquery projections; modifiers stay with the coordinator.
  for (ShardSubquery& g : out.groups) {
    g.query.select = g.vars;
    g.query.distinct = false;
  }
  out.residual.binds = std::move(group.binds);
  out.residual.unions = std::move(group.unions);
  return out;
}

}  // namespace sedge::dist
