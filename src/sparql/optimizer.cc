#include "sparql/optimizer.h"

#include <algorithm>
#include <limits>
#include <map>
#include <string>

#include "rdf/vocabulary.h"

namespace sedge::sparql {
namespace {

// Per-path charges, in microseconds per operation on LUBM1 (GCC 12 -O3,
// software popcount: one wavelet access or rank ≈ 1.2 µs). Only their
// ratios matter; docs/planner.md derives each one.
constexpr double kEmitRow = 0.1;        // copy one output row
constexpr double kTypeCheck = 0.2;      // type-store probe of a bound subject
constexpr double kTypeScan = 0.02;      // one typing of an interval range scan
constexpr double kSweepRow = 1.5;       // merge join: one subject window
constexpr double kSweepObject = 1.2;    // one object decoded from WT_o
constexpr double kSemiJoinProbe = 3.6;  // ContainsObject inside a window
constexpr double kProbe = 4.0;          // row path: locate one (p, s) run
constexpr double kContains = 7.0;       // row path: (s, p, o) membership
constexpr double kScanPOTriple = 2.5;   // ScanPO, per emitted triple
constexpr double kScanPTriple = 2.0;    // ScanP, per emitted triple
constexpr double kWalkItem = 2.7;       // one pair/literal a ScanPO walks

constexpr int kS = 0;
constexpr int kP = 1;
constexpr int kO = 2;

bool IsTypePredicate(const TriplePattern& tp) {
  return !IsVar(tp.predicate) && AsTerm(tp.predicate).is_iri() &&
         AsTerm(tp.predicate).lexical() == rdf::kRdfType;
}

struct Candidate {
  PatternEstimate est;
  bool is_type = false;
  int var[3] = {-1, -1, -1};  // variable id per slot, -1 for a constant
};

struct Bindings {
  double rows = 1;
  std::vector<bool> bound;       // per variable id
  std::vector<double> distinct;  // distinct values of each bound variable
};

struct Charge {
  double rows;
  double cost;
};

// Rows and cost of extending `b` with `c`, for the access path the
// executor picks given what is bound (Executor::ExtendTypeTp /
// ExtendRegularTp / TryMergeJoinExtend).
Charge ChargeStep(const Candidate& c, const Bindings& b, bool merge_join) {
  const PatternEstimate& e = c.est;
  const double n = b.rows;
  const auto known = [&](int slot) {
    return c.var[slot] < 0 || b.bound[c.var[slot]];
  };
  const double slot_values[3] = {e.subjects, e.routes, e.objects};
  double out = n * e.rows;
  for (int slot = 0; slot < 3; ++slot) {
    if (c.var[slot] >= 0 && known(slot)) {
      out /= std::max({b.distinct[c.var[slot]], slot_values[slot], 1.0});
    }
  }
  const double routes = std::max(1.0, e.routes);
  double cost = 0;
  if (c.is_type) {
    if (known(kS)) {
      cost = n * kTypeCheck;
    } else if (c.var[kO] >= 0 && known(kO)) {
      cost = n * (kTypeCheck + e.rows / std::max(1.0, e.objects) * kTypeScan);
    } else {
      cost = n * e.rows * kTypeScan;
    }
  } else if (merge_join && c.var[kS] >= 0 && known(kS) && c.var[kP] < 0) {
    cost = n * routes * kSweepRow +
           (known(kO) ? n * routes * kSemiJoinProbe : out * kSweepObject);
  } else if (known(kS)) {
    cost = known(kO) ? n * routes * kContains
                     : n * routes * kProbe + out * kSweepObject;
  } else if (known(kO)) {
    cost = n * routes * (kProbe + e.probe_walk * kWalkItem) +
           out * kScanPOTriple;
  } else {
    cost = n * routes * kProbe + out * kScanPTriple;
  }
  return {out, cost + out * kEmitRow};
}

void Bind(const Candidate& c, const Charge& step, Bindings* b) {
  b->rows = step.rows;
  const double slot_values[3] = {c.est.subjects, c.est.routes,
                                 c.est.objects};
  for (double& d : b->distinct) d = std::min(d, step.rows);
  for (int slot = 0; slot < 3; ++slot) {
    const int v = c.var[slot];
    if (v < 0 || b->bound[v]) continue;
    b->bound[v] = true;
    b->distinct[v] = std::min(step.rows, std::max(slot_values[slot], 1.0));
  }
}

// Greedy completion from `start`; returns the plan's total cost.
double Complete(size_t start, const std::vector<Candidate>& cands,
                size_t num_vars, bool merge_join,
                std::vector<PlanStep>* plan) {
  const size_t n = cands.size();
  Bindings b;
  b.bound.assign(num_vars, false);
  b.distinct.assign(num_vars, 0);
  std::vector<bool> used(n, false);
  plan->clear();
  double total = 0;
  size_t next = start;
  while (true) {
    const Charge step = ChargeStep(cands[next], b, merge_join);
    plan->push_back({next, step.rows, step.cost});
    total += step.cost;
    used[next] = true;
    Bind(cands[next], step, &b);
    if (plan->size() == n) return total;
    // The cheapest next step among patterns sharing a bound variable; a
    // cross product only when nothing connects.
    size_t best = n;
    bool best_connected = false;
    Charge best_step{0, 0};
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      bool connected = false;
      for (const int v : cands[i].var) {
        if (v >= 0 && b.bound[v]) connected = true;
      }
      const Charge s = ChargeStep(cands[i], b, merge_join);
      if (best == n || connected > best_connected ||
          (connected == best_connected &&
           (s.cost < best_step.cost ||
            (s.cost == best_step.cost && s.rows < best_step.rows)))) {
        best = i;
        best_connected = connected;
        best_step = s;
      }
    }
    next = best;
  }
}

}  // namespace

std::vector<PlanStep> OrderTriplePatterns(
    const std::vector<TriplePattern>& triples,
    const CardinalityEstimator& estimator, bool merge_join) {
  std::vector<Candidate> cands(triples.size());
  std::map<std::string, int> var_ids;
  for (size_t i = 0; i < triples.size(); ++i) {
    const TriplePattern& tp = triples[i];
    cands[i].est = estimator.Estimate(tp);
    cands[i].is_type = IsTypePredicate(tp);
    const TermOrVar* slots[3] = {&tp.subject, &tp.predicate, &tp.object};
    for (int slot = 0; slot < 3; ++slot) {
      if (!IsVar(*slots[slot])) continue;
      const auto [it, inserted] = var_ids.emplace(
          AsVar(*slots[slot]).name, static_cast<int>(var_ids.size()));
      cands[i].var[slot] = it->second;
    }
  }
  std::vector<PlanStep> best;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<PlanStep> plan;
  for (size_t start = 0; start < cands.size(); ++start) {
    const double cost =
        Complete(start, cands, var_ids.size(), merge_join, &plan);
    if (cost < best_cost) {
      best_cost = cost;
      best = plan;
    }
  }
  return best;
}

}  // namespace sedge::sparql
