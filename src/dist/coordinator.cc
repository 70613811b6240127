#include "dist/coordinator.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "rdf/rdf_parser.h"
#include "rdf/vocabulary.h"
#include "sparql/expression.h"
#include "sparql/sparql_parser.h"
#include "util/logging.h"

namespace sedge::dist {

namespace {

using sparql::Variable;
using store::EncodedTerm;
using store::ValueSpace;

/// Variables of `a` (in a's order) that also occur in `b`.
std::vector<Variable> CommonVars(const std::vector<Variable>& a,
                                 const std::vector<Variable>& b) {
  std::vector<Variable> common;
  for (const Variable& v : a) {
    for (const Variable& w : b) {
      if (v == w) {
        common.push_back(v);
        break;
      }
    }
  }
  return common;
}

/// Byte-exact hash key of a row restricted to `cols`. Global ids are
/// content-interned, so gid equality is term equality — and kUnboundGid
/// is itself a distinct value, preserving the executor's
/// unbound-joins-unbound semantics. An empty `cols` yields the empty key
/// (single bucket: cartesian product), also mirroring the executor.
std::string RowKey(const std::vector<uint64_t>& row,
                   const std::vector<int>& cols) {
  std::string key;
  key.reserve(cols.size() * sizeof(uint64_t));
  for (const int c : cols) {
    const uint64_t v = row[static_cast<size_t>(c)];
    key.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  return key;
}

int CompareAt(const std::vector<uint64_t>& a, const std::vector<int>& acols,
              const std::vector<uint64_t>& b, const std::vector<int>& bcols) {
  for (size_t k = 0; k < acols.size(); ++k) {
    const uint64_t av = a[static_cast<size_t>(acols[k])];
    const uint64_t bv = b[static_cast<size_t>(bcols[k])];
    if (av != bv) return av < bv ? -1 : 1;
  }
  return 0;
}

}  // namespace

// ------------------------------------------------------------ GlobalTable

int Coordinator::GlobalTable::IndexOf(const Variable& v) const {
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] == v) return static_cast<int>(i);
  }
  return -1;
}

int Coordinator::GlobalTable::AddVar(const Variable& v) {
  const int existing = IndexOf(v);
  if (existing >= 0) return existing;
  vars.push_back(v);
  for (auto& row : rows) row.push_back(TermMap::kUnboundGid);
  return static_cast<int>(vars.size()) - 1;
}

Coordinator::GlobalTable Coordinator::GlobalTable::Unit() {
  GlobalTable t;
  t.rows.push_back({});
  return t;
}

// ----------------------------------------------------------- GlobalDecoder

/// sparql::ValueDecoder over global ids: residual FILTER/BIND expressions
/// evaluate against EncodedTerm{kInstance, gid} wrappers, materializing
/// terms through the coordinator's dictionary.
class Coordinator::GlobalDecoder : public sparql::ValueDecoder {
 public:
  explicit GlobalDecoder(const TermMap* map) : map_(map) {}

  rdf::Term Decode(const EncodedTerm& value) const override {
    if (value.space == ValueSpace::kUnbound) return rdf::Term::Iri("");
    return map_->TermOf(value.id);
  }

  std::optional<double> Numeric(const EncodedTerm& value) const override {
    if (value.space == ValueSpace::kUnbound) return std::nullopt;
    const rdf::Term term = map_->TermOf(value.id);
    if (!term.IsNumericLiteral()) return std::nullopt;
    return term.AsDouble();
  }

  std::string Str(const EncodedTerm& value) const override {
    if (value.space == ValueSpace::kUnbound) return "";
    return map_->TermOf(value.id).lexical();
  }

 private:
  const TermMap* map_;
};

// ------------------------------------------------------------ Construction

Coordinator::Coordinator(CoordinatorOptions options)
    : partitioner_(options.partition),
      term_map_(partitioner_.num_shards()) {
  {
    util::MutexLock lk(&opt_mu_);
    exec_options_ = options.exec;
  }
  const int n = partitioner_.num_shards();
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Database>());
  }

  met_.queries_total = metrics_.GetCounter("dist_queries_total");
  met_.subqueries_total = metrics_.GetCounter("dist_subqueries_total");
  met_.patterns_total = metrics_.GetCounter("dist_patterns_total");
  met_.pushed_join_edges_total =
      metrics_.GetCounter("dist_pushed_join_edges_total");
  met_.pushed_filters_total = metrics_.GetCounter("dist_pushed_filters_total");
  met_.type_pushdowns_total = metrics_.GetCounter("dist_type_pushdowns_total");
  met_.join_hash_total = metrics_.GetCounter("dist_join_hash_total");
  met_.join_merge_total = metrics_.GetCounter("dist_join_merge_total");
  met_.union_dedup_rows_total =
      metrics_.GetCounter("dist_union_dedup_rows_total");
  met_.inserts_routed_total = metrics_.GetCounter("dist_inserts_routed_total");
  met_.removes_routed_total = metrics_.GetCounter("dist_removes_routed_total");
  met_.query_seconds = metrics_.GetHistogram("dist_query_seconds",
                                             obs::Histogram::Unit::kSeconds);
  met_.join_seconds = metrics_.GetHistogram("dist_join_seconds",
                                            obs::Histogram::Unit::kSeconds);
  met_.fanout_shards = metrics_.GetHistogram("dist_fanout_shards",
                                             obs::Histogram::Unit::kCount);
  met_.pushdown_ratio = metrics_.GetGauge("dist_pushdown_ratio");
  met_.shards = metrics_.GetGauge("dist_shards");
  met_.shards->Set(n);
  met_.term_map_terms = metrics_.GetGauge("dist_term_map_terms");
  met_.term_map_refreshes = metrics_.GetGauge("dist_term_map_refreshes");
  met_.skew = metrics_.GetGauge("dist_shard_skew");
  met_.shard_triples.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    met_.shard_triples.push_back(metrics_.GetGauge(
        "dist_shard_triples", "shard=\"" + std::to_string(i) + "\""));
  }
}

Coordinator::~Coordinator() {
  for (auto& shard : shards_) {
    if (shard) (void)shard->WaitForCompaction();
  }
}

// ------------------------------------------------------------------- Setup

void Coordinator::LoadOntology(const ontology::Ontology& onto) {
  util::MutexLock lk(&write_mu_);
  for (auto& shard : shards_) shard->LoadOntology(onto);
  version_.fetch_add(1);
}

Status Coordinator::LoadOntologyTurtle(std::string_view text) {
  util::MutexLock lk(&write_mu_);
  for (auto& shard : shards_) {
    SEDGE_RETURN_NOT_OK(shard->LoadOntologyTurtle(text));
  }
  version_.fetch_add(1);
  return Status::OK();
}

Status Coordinator::LoadData(const rdf::Graph& graph) {
  util::MutexLock lk(&write_mu_);
  std::vector<rdf::Graph> parts(static_cast<size_t>(num_shards()));
  if (partitioner_.cloud_shard() >= 0) {
    parts[static_cast<size_t>(partitioner_.cloud_shard())] = graph;
  } else {
    for (const rdf::Triple& t : graph.triples()) {
      parts[static_cast<size_t>(partitioner_.ShardOf(t))].Add(t);
    }
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    SEDGE_RETURN_NOT_OK(shards_[i]->LoadData(parts[i]));
  }
  version_.fetch_add(1);
  UpdateSkewGaugesLocked();
  return Status::OK();
}

Status Coordinator::LoadDataTurtle(std::string_view text) {
  SEDGE_ASSIGN_OR_RETURN(rdf::Graph graph, rdf::ParseTurtle(text));
  return LoadData(graph);
}

// ------------------------------------------------------------------ Writes

Status Coordinator::Insert(const rdf::Graph& graph,
                           Database::InsertReport* report) {
  util::MutexLock lk(&write_mu_);
  std::vector<rdf::Graph> parts(static_cast<size_t>(num_shards()));
  for (const rdf::Triple& t : graph.triples()) {
    parts[static_cast<size_t>(partitioner_.ShardOf(t))].Add(t);
  }
  Database::InsertReport total;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (parts[i].empty()) continue;
    Database::InsertReport r;
    SEDGE_RETURN_NOT_OK(shards_[i]->Insert(parts[i], &r));
    total.applied += r.applied;
    total.deferred_provisional += r.deferred_provisional;
    total.rejected += r.rejected;
    total.admitted_terms += r.admitted_terms;
    met_.inserts_routed_total->Add(parts[i].size());
  }
  version_.fetch_add(1);
  UpdateSkewGaugesLocked();
  if (report != nullptr) *report = total;
  return Status::OK();
}

Status Coordinator::Insert(const rdf::Triple& triple,
                           Database::InsertReport* report) {
  rdf::Graph g;
  g.Add(triple);
  return Insert(g, report);
}

Status Coordinator::InsertTurtle(std::string_view text,
                                 Database::InsertReport* report) {
  SEDGE_ASSIGN_OR_RETURN(rdf::Graph graph, rdf::ParseTurtle(text));
  return Insert(graph, report);
}

Status Coordinator::Remove(const rdf::Graph& graph) {
  util::MutexLock lk(&write_mu_);
  std::vector<rdf::Graph> parts(static_cast<size_t>(num_shards()));
  const int cloud = partitioner_.cloud_shard();
  for (const rdf::Triple& t : graph.triples()) {
    parts[static_cast<size_t>(partitioner_.ShardOf(t))].Add(t);
    if (cloud >= 0) parts[static_cast<size_t>(cloud)].Add(t);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (parts[i].empty() || !shards_[i]->has_data()) continue;
    SEDGE_RETURN_NOT_OK(shards_[i]->Remove(parts[i]));
    met_.removes_routed_total->Add(parts[i].size());
  }
  version_.fetch_add(1);
  UpdateSkewGaugesLocked();
  return Status::OK();
}

Status Coordinator::Remove(const rdf::Triple& triple) {
  rdf::Graph g;
  g.Add(triple);
  return Remove(g);
}

Status Coordinator::RemoveTurtle(std::string_view text) {
  SEDGE_ASSIGN_OR_RETURN(rdf::Graph graph, rdf::ParseTurtle(text));
  return Remove(graph);
}

// -------------------------------------------------------------- Compaction

Status Coordinator::Compact() {
  for (auto& shard : shards_) {
    SEDGE_RETURN_NOT_OK(shard->WaitForCompaction());
    SEDGE_RETURN_NOT_OK(shard->Compact());
  }
  return Status::OK();
}

Status Coordinator::CompactShardAsync(int shard) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("no such shard");
  }
  return shards_[static_cast<size_t>(shard)]->CompactAsync();
}

Status Coordinator::CompactAsync() {
  for (auto& shard : shards_) {
    SEDGE_RETURN_NOT_OK(shard->CompactAsync());
  }
  return Status::OK();
}

Status Coordinator::WaitForCompactions() {
  for (auto& shard : shards_) {
    SEDGE_RETURN_NOT_OK(shard->WaitForCompaction());
  }
  return Status::OK();
}

// ----------------------------------------------------------- Configuration

void Coordinator::set_snapshot_isolation(bool on) {
  for (auto& shard : shards_) shard->set_snapshot_isolation(on);
}

void Coordinator::set_async_compaction(bool on) {
  for (auto& shard : shards_) shard->set_async_compaction(on);
}

void Coordinator::set_compaction_ratio(double ratio) {
  for (auto& shard : shards_) shard->set_compaction_ratio(ratio);
}

void Coordinator::set_reasoning(bool on) {
  {
    util::MutexLock lk(&opt_mu_);
    exec_options_.reasoning = on;
    ++options_version_;
  }
  for (auto& shard : shards_) shard->set_reasoning(on);
}

void Coordinator::set_merge_join(bool on) {
  {
    util::MutexLock lk(&opt_mu_);
    exec_options_.merge_join = on;
    ++options_version_;
  }
  for (auto& shard : shards_) shard->set_merge_join(on);
}

void Coordinator::set_optimizer(bool on) {
  {
    util::MutexLock lk(&opt_mu_);
    exec_options_.use_optimizer = on;
    ++options_version_;
  }
  for (auto& shard : shards_) shard->set_optimizer(on);
}

QueryEpoch Coordinator::epoch() const {
  QueryEpoch epoch;
  epoch.generation = version_.load();
  util::MutexLock lk(&opt_mu_);
  epoch.options = options_version_;
  return epoch;
}

// ----------------------------------------------------------- Introspection

uint64_t Coordinator::num_triples() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->num_triples();
  return total;
}

bool Coordinator::has_data() const {
  for (const auto& shard : shards_) {
    if (shard->has_data()) return true;
  }
  return false;
}

void Coordinator::UpdateSkewGaugesLocked() {
  uint64_t total = 0;
  uint64_t max_shard = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const uint64_t n = shards_[i]->num_triples();
    met_.shard_triples[i]->Set(static_cast<double>(n));
    total += n;
    max_shard = std::max(max_shard, n);
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(shards_.size());
  met_.skew->Set(mean > 0 ? static_cast<double>(max_shard) / mean : 0.0);
}

// ---------------------------------------------------------------- Querying

Coordinator::QueryView Coordinator::PinQueryView() const {
  QueryView view;
  {
    // Under write_mu_ so a multi-shard write batch is atomic to queries:
    // every pin predates the batch or every pin includes it, never a
    // torn mix across shards — and the content version read here names
    // exactly that pin set. The critical section is K lock-free snapshot
    // loads — execution runs entirely outside the lock.
    util::MutexLock lk(&write_mu_);
    view.pins.reserve(shards_.size());
    for (const auto& shard : shards_) view.pins.push_back(shard->snapshot());
    view.epoch.generation = version_.load();
  }
  // One option set per query: every star group and union alternative
  // runs with it, so a racing toggle lands wholly before or after.
  util::MutexLock lk(&opt_mu_);
  view.options = exec_options_;
  view.epoch.options = options_version_;
  return view;
}

namespace {

/// Sorts `t` lexicographically by `keys` (remaining columns break ties so
/// the order is total and deterministic) and marks merge eligibility.
void SortTableBy(Coordinator::GlobalTable* t,
                 const std::vector<Variable>& keys) {
  std::vector<int> cols;
  cols.reserve(t->vars.size());
  for (const Variable& v : keys) cols.push_back(t->IndexOf(v));
  for (size_t i = 0; i < t->vars.size(); ++i) {
    const int c = static_cast<int>(i);
    if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
      cols.push_back(c);
    }
  }
  std::sort(t->rows.begin(), t->rows.end(),
            [&cols](const std::vector<uint64_t>& a,
                    const std::vector<uint64_t>& b) {
              return CompareAt(a, cols, b, cols) < 0;
            });
  t->sorted_by = keys;
}

}  // namespace

Result<Coordinator::GlobalTable> Coordinator::FanOutSubquery(
    const ShardSubquery& sub, const QueryView& view) const {
  GlobalTable out;
  out.vars = sub.vars;
  // With a cloud base shard a triple can live on two shards, so a whole
  // star-group assignment can surface twice; dedup restores the set
  // semantics a single store would produce. (Within one shard a group's
  // rows are already distinct: the projection keeps every group variable,
  // so a row determines the exact triples it matched, and the store holds
  // each triple once.) Pure routing places each triple on one shard only
  // — concatenation is already exact there.
  const bool dedupe = partitioner_.cloud_shard() >= 0;
  std::set<std::vector<uint64_t>> seen;
  for (size_t s = 0; s < view.pins.size(); ++s) {
    const auto& pin = view.pins[s];
    if (pin == nullptr) continue;  // shard has no data yet
    sparql::Executor executor(pin, view.options);
    SEDGE_ASSIGN_OR_RETURN(sparql::BindingTable table,
                           executor.ExecuteEncoded(sub.query));
    met_.subqueries_total->Increment();
    shards_[s]->AccumulateQueryStats(executor);
    const uint64_t gen = pin->number();
    const store::TripleStore& store = pin->store();
    for (const auto& row : table.rows) {
      std::vector<uint64_t> grow(row.size());
      for (size_t c = 0; c < row.size(); ++c) {
        grow[c] =
            term_map_.MapShardValue(static_cast<int>(s), gen, store, row[c]);
      }
      if (dedupe && !seen.insert(grow).second) {
        met_.union_dedup_rows_total->Increment();
        continue;
      }
      out.rows.push_back(std::move(grow));
    }
  }
  return out;
}

Coordinator::GlobalTable Coordinator::JoinPair(GlobalTable left,
                                               GlobalTable right) const {
  const std::vector<Variable> common = CommonVars(left.vars, right.vars);
  std::vector<int> lcols;
  std::vector<int> rcols;
  for (const Variable& v : common) {
    lcols.push_back(left.IndexOf(v));
    rcols.push_back(right.IndexOf(v));
  }
  std::vector<size_t> right_extra;
  for (size_t i = 0; i < right.vars.size(); ++i) {
    if (left.IndexOf(right.vars[i]) < 0) right_extra.push_back(i);
  }
  GlobalTable out;
  out.vars = left.vars;
  for (const size_t c : right_extra) out.vars.push_back(right.vars[c]);

  if (!common.empty() && left.sorted_by == common &&
      right.sorted_by == common) {
    // Merge path: both inputs sorted on exactly the join variables.
    met_.join_merge_total->Increment();
    size_t i = 0;
    size_t j = 0;
    while (i < left.rows.size() && j < right.rows.size()) {
      const int c = CompareAt(left.rows[i], lcols, right.rows[j], rcols);
      if (c < 0) {
        ++i;
      } else if (c > 0) {
        ++j;
      } else {
        size_t i2 = i + 1;
        while (i2 < left.rows.size() &&
               CompareAt(left.rows[i2], lcols, left.rows[i], lcols) == 0) {
          ++i2;
        }
        size_t j2 = j + 1;
        while (j2 < right.rows.size() &&
               CompareAt(right.rows[j2], rcols, right.rows[j], rcols) == 0) {
          ++j2;
        }
        for (size_t a = i; a < i2; ++a) {
          for (size_t b = j; b < j2; ++b) {
            std::vector<uint64_t> merged = left.rows[a];
            for (const size_t c2 : right_extra) {
              merged.push_back(right.rows[b][c2]);
            }
            out.rows.push_back(std::move(merged));
          }
        }
        i = i2;
        j = j2;
      }
    }
    out.sorted_by = common;
    return out;
  }

  // Hash path (mirrors Executor::JoinTables: empty shared key joins
  // everything — the cartesian product).
  met_.join_hash_total->Increment();
  std::unordered_map<std::string, std::vector<size_t>> index;
  for (size_t j = 0; j < right.rows.size(); ++j) {
    index[RowKey(right.rows[j], rcols)].push_back(j);
  }
  for (const auto& lrow : left.rows) {
    const auto it = index.find(RowKey(lrow, lcols));
    if (it == index.end()) continue;
    for (const size_t j : it->second) {
      std::vector<uint64_t> merged = lrow;
      for (const size_t c : right_extra) merged.push_back(right.rows[j][c]);
      out.rows.push_back(std::move(merged));
    }
  }
  return out;
}

Coordinator::GlobalTable Coordinator::JoinGroups(
    std::vector<GlobalTable> tables) const {
  if (tables.empty()) return GlobalTable::Unit();
  obs::ScopedSpan span(met_.join_seconds);
  // Greedy order: start from the smallest group, then always join in the
  // smallest *connected* remaining table (cartesian only as a last
  // resort) — the coordinator-side analogue of the shard optimizer's
  // cardinality heuristic.
  size_t first = 0;
  for (size_t i = 1; i < tables.size(); ++i) {
    if (tables[i].rows.size() < tables[first].rows.size()) first = i;
  }
  GlobalTable acc = std::move(tables[first]);
  tables.erase(tables.begin() + static_cast<ptrdiff_t>(first));
  while (!tables.empty()) {
    size_t best = 0;
    bool best_connected = false;
    bool have_best = false;
    for (size_t i = 0; i < tables.size(); ++i) {
      const bool connected = !CommonVars(acc.vars, tables[i].vars).empty();
      const bool better =
          !have_best || (connected && !best_connected) ||
          (connected == best_connected &&
           tables[i].rows.size() < tables[best].rows.size());
      if (better) {
        best = i;
        best_connected = connected;
        have_best = true;
      }
    }
    GlobalTable next = std::move(tables[best]);
    tables.erase(tables.begin() + static_cast<ptrdiff_t>(best));
    acc = JoinPair(std::move(acc), std::move(next));
  }
  return acc;
}

Status Coordinator::ApplyResidual(sparql::GroupPattern residual,
                                  const QueryView& view,
                                  GlobalTable* table) const {
  // UNION blocks: evaluate each alternative as its own distributed group,
  // align columns, concatenate, then join onto the accumulated bindings —
  // exactly Executor::EvaluateGroup's shape, over global ids.
  for (sparql::UnionBlock& ub : residual.unions) {
    GlobalTable combined;
    for (sparql::GroupPattern& alt : ub.alternatives) {
      SEDGE_ASSIGN_OR_RETURN(GlobalTable t,
                             EvaluateGroupDist(std::move(alt), view));
      for (const Variable& v : t.vars) combined.AddVar(v);
      for (auto& row : t.rows) {
        std::vector<uint64_t> aligned(combined.vars.size(),
                                      TermMap::kUnboundGid);
        for (size_t c = 0; c < t.vars.size(); ++c) {
          aligned[static_cast<size_t>(combined.IndexOf(t.vars[c]))] = row[c];
        }
        combined.rows.push_back(std::move(aligned));
      }
    }
    *table = JoinPair(std::move(*table), std::move(combined));
  }

  GlobalDecoder decoder(&term_map_);
  sparql::ExpressionEvaluator evaluator(&decoder);
  const auto lookup_in = [table](const std::vector<uint64_t>& row) {
    return [table, &row](const Variable& v) -> std::optional<EncodedTerm> {
      const int c = table->IndexOf(v);
      if (c < 0 || row[static_cast<size_t>(c)] == TermMap::kUnboundGid) {
        return std::nullopt;
      }
      return EncodedTerm{ValueSpace::kInstance, row[static_cast<size_t>(c)]};
    };
  };

  // BINDs always run at the coordinator (their outputs were never pushed).
  for (const sparql::Bind& bind : residual.binds) {
    const int col = table->AddVar(bind.var);
    for (auto& row : table->rows) {
      const sparql::EvalValue value = evaluator.Evaluate(*bind.expr,
                                                         lookup_in(row));
      uint64_t gid = TermMap::kUnboundGid;
      switch (value.kind) {
        case sparql::EvalValue::Kind::kError:
          break;  // SPARQL: a failed BIND leaves the variable unbound
        case sparql::EvalValue::Kind::kBool:
          gid = term_map_.InternTerm(rdf::Term::Literal(
              value.boolean ? "true" : "false", rdf::kXsdBoolean));
          break;
        case sparql::EvalValue::Kind::kNumber:
          gid = term_map_.InternTerm(
              rdf::Term::Literal(std::to_string(value.number),
                                 rdf::kXsdDouble));
          break;
        case sparql::EvalValue::Kind::kString:
          gid = term_map_.InternTerm(rdf::Term::Literal(value.string));
          break;
        case sparql::EvalValue::Kind::kEncoded:
          if (value.encoded.space != ValueSpace::kUnbound) {
            gid = value.encoded.id;  // already a global id
          }
          break;
        case sparql::EvalValue::Kind::kTerm:
          gid = term_map_.InternTerm(value.term);
          break;
      }
      row[static_cast<size_t>(col)] = gid;
    }
  }

  // Residual (unpushed) FILTERs, after BINDs — executor order.
  for (const auto& filter : residual.filters) {
    std::vector<std::vector<uint64_t>> kept;
    kept.reserve(table->rows.size());
    for (auto& row : table->rows) {
      if (evaluator.EffectiveBool(*filter, lookup_in(row))) {
        kept.push_back(std::move(row));
      }
    }
    table->rows = std::move(kept);
    table->sorted_by.clear();
  }
  return Status::OK();
}

Result<Coordinator::GlobalTable> Coordinator::EvaluateGroupDist(
    sparql::GroupPattern group, const QueryView& view) const {
  Decomposition dec =
      Decompose(std::move(group), partitioner_.colocates_subjects());
  met_.patterns_total->Add(dec.patterns_total);
  met_.pushed_join_edges_total->Add(dec.pushed_join_edges);
  for (const ShardSubquery& g : dec.groups) {
    met_.pushed_filters_total->Add(g.pushed_filters);
    met_.type_pushdowns_total->Add(g.type_patterns);
  }

  std::vector<GlobalTable> tables;
  tables.reserve(dec.groups.size());
  for (const ShardSubquery& g : dec.groups) {
    SEDGE_ASSIGN_OR_RETURN(GlobalTable t, FanOutSubquery(g, view));
    tables.push_back(std::move(t));
  }
  // Two-group decompositions ship both sides sorted on their common
  // variables, arming JoinPair's merge path.
  if (tables.size() == 2) {
    const std::vector<Variable> common =
        CommonVars(tables[0].vars, tables[1].vars);
    if (!common.empty()) {
      SortTableBy(&tables[0], common);
      SortTableBy(&tables[1], common);
    }
  }
  GlobalTable table = JoinGroups(std::move(tables));
  SEDGE_RETURN_NOT_OK(ApplyResidual(std::move(dec.residual), view, &table));
  return table;
}

Result<Coordinator::GlobalTable> Coordinator::RunQuery(
    std::string_view text, QueryEpoch* at) const {
  const QueryView view = PinQueryView();
  if (at != nullptr) *at = view.epoch;
  uint64_t active = 0;
  for (const auto& pin : view.pins) {
    if (pin != nullptr) ++active;
  }
  if (active == 0) return Status::InvalidArgument("no data loaded");
  SEDGE_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(text));
  met_.fanout_shards->RecordValue(active);

  // Resolve SELECT * before the where-group is consumed below.
  const std::vector<Variable> projected =
      query.select.empty() ? query.MentionedVariables() : query.select;

  SEDGE_ASSIGN_OR_RETURN(GlobalTable table,
                         EvaluateGroupDist(std::move(query.where), view));

  // Modifiers, mirroring Executor::ExecuteEncoded: project, dedupe,
  // slice — in that order.
  std::vector<int> cols;
  cols.reserve(projected.size());
  for (const Variable& v : projected) cols.push_back(table.IndexOf(v));
  GlobalTable out;
  out.vars = projected;
  out.rows.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    std::vector<uint64_t> prow(cols.size(), TermMap::kUnboundGid);
    for (size_t c = 0; c < cols.size(); ++c) {
      if (cols[c] >= 0) prow[c] = row[static_cast<size_t>(cols[c])];
    }
    out.rows.push_back(std::move(prow));
  }
  if (query.distinct) {
    std::set<std::vector<uint64_t>> seen;
    std::vector<std::vector<uint64_t>> unique;
    unique.reserve(out.rows.size());
    for (auto& row : out.rows) {
      if (seen.insert(row).second) unique.push_back(std::move(row));
    }
    out.rows = std::move(unique);
  }
  if (query.offset.has_value()) {
    const size_t drop =
        std::min<size_t>(static_cast<size_t>(*query.offset), out.rows.size());
    out.rows.erase(out.rows.begin(),
                   out.rows.begin() + static_cast<ptrdiff_t>(drop));
  }
  if (query.limit.has_value() && out.rows.size() > *query.limit) {
    out.rows.resize(static_cast<size_t>(*query.limit));
  }

  met_.queries_total->Increment();
  const double pushed =
      static_cast<double>(met_.pushed_join_edges_total->value());
  const double coordinated =
      static_cast<double>(met_.join_hash_total->value()) +
      static_cast<double>(met_.join_merge_total->value());
  met_.pushdown_ratio->Set(pushed / std::max(1.0, pushed + coordinated));
  met_.term_map_terms->Set(static_cast<double>(term_map_.size()));
  met_.term_map_refreshes->Set(static_cast<double>(term_map_.refreshes()));
  return out;
}

Result<sparql::QueryResult> Coordinator::Query(std::string_view sparql,
                                               QueryEpoch* at) const {
  obs::ScopedSpan span(met_.query_seconds);
  SEDGE_ASSIGN_OR_RETURN(GlobalTable table, RunQuery(sparql, at));
  sparql::QueryResult result;
  result.var_names.reserve(table.vars.size());
  for (const Variable& v : table.vars) result.var_names.push_back(v.name);
  result.rows.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    std::vector<std::optional<rdf::Term>> decoded;
    decoded.reserve(row.size());
    for (const uint64_t gid : row) {
      if (gid == TermMap::kUnboundGid) {
        decoded.emplace_back(std::nullopt);
      } else {
        decoded.emplace_back(term_map_.TermOf(gid));
      }
    }
    result.rows.push_back(std::move(decoded));
  }
  return result;
}

Result<uint64_t> Coordinator::QueryCount(std::string_view sparql,
                                         QueryEpoch* at) const {
  obs::ScopedSpan span(met_.query_seconds);
  SEDGE_ASSIGN_OR_RETURN(GlobalTable table, RunQuery(sparql, at));
  return static_cast<uint64_t>(table.rows.size());
}

}  // namespace sedge::dist
