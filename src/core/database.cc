#include "core/database.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <streambuf>
#include <utility>

#include "rdf/rdf_parser.h"
#include "rdf/triple_codec.h"
#include "sparql/sparql_parser.h"

namespace sedge {
namespace {

// Checkpoint image framing: magic + version, generation, ontology graph
// (length-prefixed codec triples), then the TripleStore image
// (TripleStore::SaveTo). Integrity is the extent CRC's job
// (io/checkpoint.cc); this layer only checks shape.
constexpr char kImageMagic[8] = {'S', 'E', 'D', 'G', 'E', 'I', 'M', 'G'};
// v2: TripleStore images carry the provisional SchemaRegistry between the
// base layouts and the overlay mutation lists.
constexpr uint32_t kImageVersion = 2;

/// Appends everything written to the stream to one external string — the
/// checkpoint image is the whole database, so avoiding ostringstream's
/// str() copy halves the peak transient memory of a checkpoint (which
/// runs under the writer lock).
class StringSink : public std::streambuf {
 public:
  explicit StringSink(std::string* out) : out_(out) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_->append(s, static_cast<size_t>(n));
    return n;
  }
  int overflow(int ch) override {
    if (ch != traits_type::eof()) {
      out_->push_back(static_cast<char>(ch));
    }
    return ch;
  }

 private:
  std::string* out_;
};

/// Read-only stream view over an existing string — the restore-side
/// mirror of StringSink (istringstream would duplicate the whole image
/// before deserialization starts).
class StringSource : public std::streambuf {
 public:
  explicit StringSource(const std::string& s) {
    char* base = const_cast<char*>(s.data());
    setg(base, base, base + s.size());
  }
};

}  // namespace

Database::Database() {
  {
    // Parallel rebuilds by default on multi-core hosts; capped at 4 — the
    // build has three layout tasks plus per-structure fan-out, and edge
    // targets rarely benefit beyond that.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    util::MutexLock lk(&write_mu_);
    build_threads_ = static_cast<int>(std::min(4u, hw));
  }
  // Resolve every hot-path metric handle once; the registry hands out
  // stable pointers, so recording later never touches its mutex.
  met_.merge_join_extends =
      metrics_.GetCounter("query_merge_join_extends_total");
  met_.merge_join_delta_extends =
      metrics_.GetCounter("query_merge_join_delta_extends_total");
  met_.row_extends = metrics_.GetCounter("query_row_extends_total");
  met_.provisional_routes =
      metrics_.GetCounter("query_provisional_routes_total");
  met_.queries_total = metrics_.GetCounter("queries_total");
  met_.write_batches_total = metrics_.GetCounter("write_batches_total");
  met_.triples_inserted_total =
      metrics_.GetCounter("triples_inserted_total");
  met_.triples_removed_total = metrics_.GetCounter("triples_removed_total");
  met_.schema_admissions_total =
      metrics_.GetCounter("schema_admissions_total");
  met_.compactions_total = metrics_.GetCounter("compactions_total");
  met_.async_compactions_total =
      metrics_.GetCounter("async_compactions_total");
  met_.checkpoints_total = metrics_.GetCounter("checkpoints_total");
  met_.isolation_forks_total =
      metrics_.GetCounter("snapshot_isolation_forks_total");
  met_.query_seconds = metrics_.GetHistogram("query_seconds");
  met_.query_parse_seconds = metrics_.GetHistogram("query_parse_seconds");
  met_.query_execute_seconds =
      metrics_.GetHistogram("query_execute_seconds");
  met_.insert_batch_seconds = metrics_.GetHistogram("insert_batch_seconds");
  met_.isolation_fork_seconds =
      metrics_.GetHistogram("snapshot_isolation_fork_seconds");
  met_.compaction_fold_seconds =
      metrics_.GetHistogram("compaction_fold_seconds");
  met_.compaction_fork_seconds =
      metrics_.GetHistogram("compaction_fork_seconds");
  met_.compaction_relay_seconds =
      metrics_.GetHistogram("compaction_relay_seconds");
  met_.compaction_swap_seconds =
      metrics_.GetHistogram("compaction_swap_seconds");
  met_.compaction_fold_triples = metrics_.GetHistogram(
      "compaction_fold_triples", obs::Histogram::Unit::kCount);
  met_.checkpoint_seconds = metrics_.GetHistogram("checkpoint_seconds");
  met_.checkpoint_serialize_seconds =
      metrics_.GetHistogram("checkpoint_phase_seconds",
                            obs::Histogram::Unit::kSeconds,
                            "phase=\"serialize\"");
  met_.checkpoint_wal_truncate_seconds =
      metrics_.GetHistogram("checkpoint_phase_seconds",
                            obs::Histogram::Unit::kSeconds,
                            "phase=\"wal_truncate\"");
  met_.delta_overlay_adds = metrics_.GetGauge("delta_overlay_adds");
  met_.delta_overlay_tombstones =
      metrics_.GetGauge("delta_overlay_tombstones");
  met_.delta_overlay_entries = metrics_.GetGauge("delta_overlay_entries");
  met_.delta_tombstone_ratio = metrics_.GetGauge("delta_tombstone_ratio");
  met_.base_triples = metrics_.GetGauge("base_triples");
  met_.store_generation = metrics_.GetGauge("store_generation");
  met_.schema_provisional_terms =
      metrics_.GetGauge("schema_provisional_terms");
  // The overlay keeps one sorted run per layout/side; the gauge counts
  // the non-empty ones (a fold drains them all back to zero).
  metrics_.GetGauge("delta_overlay_runs");
}

Database::~Database() {
  std::thread worker;
  {
    util::MutexLock lk(&write_mu_);
    if (worker_.joinable()) worker = std::move(worker_);
  }
  if (worker.joinable()) worker.join();
  // A borrowed WAL and the block device outlive this database — detach
  // their handles into our dying registry. Under the lock: destruction
  // concurrent with an API call is a caller bug, but a stale unlocked
  // read here could detach a WAL some racing DetachWal already swapped
  // out, and the lock costs nothing on this cold path.
  util::MutexLock lk(&write_mu_);
  if (wal_ != nullptr) wal_->set_metrics(nullptr);
  if (device_ != nullptr) device_->set_metrics(nullptr);
}

// ------------------------------------------------------------------ setup

Status Database::LoadOntologyTurtle(std::string_view text) {
  SEDGE_ASSIGN_OR_RETURN(rdf::Graph graph, rdf::ParseTurtle(text));
  SEDGE_ASSIGN_OR_RETURN(ontology::Ontology onto,
                         ontology::Ontology::FromGraph(graph));
  LoadOntology(std::move(onto));
  return Status::OK();
}

void Database::LoadOntology(ontology::Ontology onto) {
  // write_mu_, not just convention: the background fold's checkpoint
  // serializes onto_ on the worker thread under this lock.
  util::MutexLock lk(&write_mu_);
  onto_ = std::move(onto);
}

Status Database::LoadDataTurtle(std::string_view text) {
  SEDGE_ASSIGN_OR_RETURN(rdf::Graph graph, rdf::ParseTurtle(text));
  return LoadData(graph);
}

Status Database::LoadData(const rdf::Graph& graph) {
  // A full reload supersedes whatever a background fold was building.
  SEDGE_RETURN_NOT_OK(WaitForCompaction());
  util::MutexLock lk(&write_mu_);
  SEDGE_RETURN_NOT_OK(LoadDataLocked(graph));
  // Device mode: the replacement base must be durable immediately —
  // otherwise later acknowledged WAL writes would replay onto the *old*
  // checkpoint after a crash, recovering a base the application never
  // ran against.
  if (storage_ != nullptr && wal_ != nullptr) {
    return CheckpointLocked();
  }
  return Status::OK();
}

util::ThreadPool* Database::BuildPoolLocked() {
  if (build_threads_ <= 1) return nullptr;
  const size_t want = static_cast<size_t>(build_threads_);
  if (pool_ == nullptr || pool_->num_threads() != want) {
    // Never replace a pool a background fold may still be running tasks
    // on; the stale size (or a null pool → sequential build) is used for
    // this fold and corrected at the next one.
    if (compaction_running_.load()) return pool_.get();
    pool_ = std::make_unique<util::ThreadPool>(want);
  }
  return pool_.get();
}

Status Database::LoadDataLocked(const rdf::Graph& graph) {
  SEDGE_ASSIGN_OR_RETURN(
      store::TripleStore store,
      store::TripleStore::Build(
          onto_, graph, nullptr,
          store::TripleStore::BuildHooks{BuildPoolLocked(), &metrics_}));
  store_ = std::make_shared<store::TripleStore>(std::move(store));
  ++store_epoch_;  // supersedes any fold forked from the replaced store
  relay_.clear();
  recording_ = false;
  generation_number_.fetch_add(1);
  PublishSnapshotLocked();
  UpdateStoreGaugesLocked();
  return Status::OK();
}

Status Database::EnsureStoreLocked() {
  if (store_ != nullptr) return Status::OK();
  return LoadDataLocked(rdf::Graph());
}

void Database::PublishSnapshotLocked() {
  auto gen = std::make_shared<const store::StoreGeneration>(
      store_, generation_number_.load(), write_generation_.load());
  // Readers may pin store_ through the published state from here on;
  // under snapshot isolation the next write batch must fork before
  // mutating it.
  store_shared_ = true;
  util::MutexLock lk(&snap_mu_);
  auto next = std::make_shared<ReadView>(*std::atomic_load(&read_state_));
  next->snap = std::move(gen);
  std::atomic_store(&read_state_,
                    std::shared_ptr<const ReadView>(std::move(next)));
}

void Database::EnsureWritableStoreLocked() {
  if (!snapshot_isolation_ || !store_shared_ || store_ == nullptr) return;
  // Same mechanics as the compaction fork: the succinct base is shared,
  // the dictionary / schema registry / sealed overlay runs are copied.
  // store_epoch_ stays untouched — an in-flight background fold remains
  // valid, because this batch lands in its relay and is replayed onto the
  // fresh base before the swap.
  obs::ScopedSpan fork_span(met_.isolation_fork_seconds);
  store_ = std::shared_ptr<store::TripleStore>(store_->ForkForWrites());
  store_shared_ = false;
  met_.isolation_forks_total->Increment();
}

void Database::UpdateStoreGaugesLocked() {
  if (store_ == nullptr) return;
  const store::delta::DeltaOverlay* delta = store_->delta();
  const uint64_t adds = delta != nullptr ? delta->num_adds() : 0;
  const uint64_t dels = delta != nullptr ? delta->num_dels() : 0;
  const uint64_t entries = adds + dels;
  met_.delta_overlay_adds->Set(static_cast<double>(adds));
  met_.delta_overlay_tombstones->Set(static_cast<double>(dels));
  met_.delta_overlay_entries->Set(static_cast<double>(entries));
  met_.delta_tombstone_ratio->Set(
      entries > 0 ? static_cast<double>(dels) / static_cast<double>(entries)
                  : 0.0);
  int runs = 0;
  if (delta != nullptr) {
    runs += (delta->object().num_adds() > 0) + (delta->object().num_dels() > 0);
    runs += (delta->datatype().num_adds() > 0) +
            (delta->datatype().num_dels() > 0);
    runs += (delta->type().num_adds() > 0) + (delta->type().num_dels() > 0);
  }
  metrics_.GetGauge("delta_overlay_runs")->Set(runs);
  met_.base_triples->Set(static_cast<double>(store_->base_num_triples()));
  met_.store_generation->Set(
      static_cast<double>(generation_number_.load()));
  met_.schema_provisional_terms->Set(
      static_cast<double>(store_->schema_registry().size()));
}

std::shared_ptr<const store::StoreGeneration> Database::snapshot() const {
  return std::atomic_load(&read_state_)->snap;
}

Database::ReadView Database::AcquireReadView() const {
  return *std::atomic_load(&read_state_);
}

QueryEpoch Database::EpochOf(const ReadView& view) {
  QueryEpoch epoch;
  if (view.snap != nullptr) {
    epoch.generation = view.snap->number();
    epoch.writes = view.snap->writes();
  }
  epoch.options = view.options_version;
  return epoch;
}

QueryEpoch Database::epoch() const {
  return EpochOf(*std::atomic_load(&read_state_));
}

void Database::set_reasoning(bool on) {
  util::MutexLock lk(&snap_mu_);
  auto next = std::make_shared<ReadView>(*std::atomic_load(&read_state_));
  next->options.reasoning = on;
  ++next->options_version;
  std::atomic_store(&read_state_,
                    std::shared_ptr<const ReadView>(std::move(next)));
}

void Database::set_merge_join(bool on) {
  util::MutexLock lk(&snap_mu_);
  auto next = std::make_shared<ReadView>(*std::atomic_load(&read_state_));
  next->options.merge_join = on;
  ++next->options_version;
  std::atomic_store(&read_state_,
                    std::shared_ptr<const ReadView>(std::move(next)));
}

void Database::set_optimizer(bool on) {
  util::MutexLock lk(&snap_mu_);
  auto next = std::make_shared<ReadView>(*std::atomic_load(&read_state_));
  next->options.use_optimizer = on;
  ++next->options_version;
  std::atomic_store(&read_state_,
                    std::shared_ptr<const ReadView>(std::move(next)));
}

sparql::Executor::Options Database::options() const {
  return std::atomic_load(&read_state_)->options;
}

const store::TripleStore& Database::store() const {
  const auto snap = snapshot();
  SEDGE_CHECK(snap != nullptr) << "store() before any data was loaded";
  return snap->store();
}

uint64_t Database::num_triples() const {
  const auto snap = snapshot();
  return snap ? snap->store().num_triples() : 0;
}

uint64_t Database::delta_size() const {
  const auto snap = snapshot();
  return snap ? snap->store().delta_size() : 0;
}

// ------------------------------------------------------------ write path

Status Database::InsertTurtle(std::string_view text, InsertReport* report) {
  SEDGE_ASSIGN_OR_RETURN(rdf::Graph graph, rdf::ParseTurtle(text));
  return Insert(graph, report);
}

Status Database::LogBatchLocked(
    io::WalRecordType type, const rdf::Triple* triples, size_t count,
    const std::vector<store::schema::Admission>& admissions) {
  if (wal_ == nullptr || (count == 0 && admissions.empty())) {
    return Status::OK();
  }
  const auto append_all = [&]() -> Status {
    // The analysis is function-local and a lambda is its own function:
    // re-assert the lock the enclosing *Locked method already holds.
    write_mu_.AssertHeld();
    // Admissions lead their batch: replay restores the vocabulary before
    // it re-applies the mutations that use it.
    for (const store::schema::Admission& a : admissions) {
      const Status st = wal_->AppendSchemaAdmit(
          static_cast<uint8_t>(a.space), a.id, a.iri);
      if (!st.ok()) {
        wal_->DiscardPending();
        return st;
      }
    }
    for (size_t i = 0; i < count; ++i) {
      const Status st = type == io::WalRecordType::kInsert
                            ? wal_->AppendInsert(triples[i])
                            : wal_->AppendRemove(triples[i]);
      if (!st.ok()) {
        // A rejected record (e.g. an oversized literal) voids the whole
        // batch: none of it is applied, so none of it may ever sync.
        wal_->DiscardPending();
        return st;
      }
    }
    return Status::OK();
  };
  SEDGE_RETURN_NOT_OK(append_all());
  // Group commit: the whole batch becomes durable with one sync.
  Status st = wal_->Sync();
  if (st.IsResourceExhausted() && storage_ != nullptr) {
    // The WAL region filled up. A checkpoint persists everything the log
    // covers and truncates it, freeing the region for this very batch.
    // (Truncate drops the still-pending batch records; re-append after.)
    // Safe even while a background fold is in flight: the image
    // serializes the *current* store — shared base plus live overlay —
    // which covers every logged mutation regardless of the rebuild.
    SEDGE_RETURN_NOT_OK(CheckpointLocked());
    SEDGE_RETURN_NOT_OK(append_all());
    st = wal_->Sync();
  }
  if (st.IsResourceExhausted()) {
    // Still over capacity against an empty log (or no checkpoint path to
    // empty it): this batch can never fit. Void it — pending records of
    // a failed batch must never linger, or every later sync would see
    // phantom capacity pressure.
    wal_->DiscardPending();
  }
  return st;
}

void Database::RecordRelayLocked(bool insert, const rdf::Triple* triples,
                                 size_t count) {
  if (!recording_) return;
  for (size_t i = 0; i < count; ++i) {
    relay_.push_back({insert, triples[i]});
  }
}

Status Database::InsertBatchLocked(const rdf::Triple* triples, size_t count,
                                   InsertReport* report) {
  obs::ScopedSpan batch_span(met_.insert_batch_seconds);
  EnsureWritableStoreLocked();
  const uint64_t schema_before = store_->schema_registry().size();
  // With a WAL, plan the batch's vocabulary admissions first so they can
  // be logged — with the exact ids Insert will assign — ahead of the
  // triples in the same group commit. Without one the extra
  // classification pass buys nothing: Insert's own admission fallback
  // assigns the identical ids.
  if (wal_ != nullptr) {
    const std::vector<store::schema::Admission> admissions =
        store_->PlanAdmissions(triples, count);
    SEDGE_RETURN_NOT_OK(LogBatchLocked(io::WalRecordType::kInsert, triples,
                                       count, admissions));
    for (const store::schema::Admission& a : admissions) {
      SEDGE_RETURN_NOT_OK(store_->RestoreAdmission(a));
    }
  }
  InsertReport local;
  for (size_t i = 0; i < count; ++i) {
    store::TripleStore::InsertOutcome outcome;
    SEDGE_RETURN_NOT_OK(store_->Insert(triples[i], &outcome));
    switch (outcome) {
      case store::TripleStore::InsertOutcome::kApplied:
        ++local.applied;
        break;
      case store::TripleStore::InsertOutcome::kProvisional:
        ++local.deferred_provisional;
        break;
      case store::TripleStore::InsertOutcome::kRejected:
        ++local.rejected;
        break;
    }
    if (outcome != store::TripleStore::InsertOutcome::kRejected) {
      RecordRelayLocked(/*insert=*/true, &triples[i], 1);
    }
  }
  store_->SealDelta();
  write_generation_.fetch_add(1);
  // Admissions either pre-installed from the WAL plan or made by Insert
  // itself; the registry growth counts both the same way.
  local.admitted_terms = store_->schema_registry().size() - schema_before;
  if (report != nullptr) *report = local;
  met_.write_batches_total->Increment();
  met_.triples_inserted_total->Add(local.applied +
                                   local.deferred_provisional);
  met_.schema_admissions_total->Add(local.admitted_terms);
  // Snapshot isolation: the batch is complete and sealed — publish it as
  // the new frozen generation (readers pinned to the previous one are
  // untouched; the next batch forks again).
  if (snapshot_isolation_) PublishSnapshotLocked();
  UpdateStoreGaugesLocked();
  batch_span.Stop();
  return MaybeCompactLocked();
}

Status Database::Insert(const rdf::Graph& graph, InsertReport* report) {
  util::MutexLock lk(&write_mu_);
  SEDGE_RETURN_NOT_OK(EnsureStoreLocked());
  return InsertBatchLocked(graph.triples().data(), graph.triples().size(),
                           report);
}

Status Database::Insert(const rdf::Triple& triple, InsertReport* report) {
  util::MutexLock lk(&write_mu_);
  SEDGE_RETURN_NOT_OK(EnsureStoreLocked());
  return InsertBatchLocked(&triple, 1, report);
}

Status Database::RemoveTurtle(std::string_view text) {
  SEDGE_ASSIGN_OR_RETURN(rdf::Graph graph, rdf::ParseTurtle(text));
  return Remove(graph);
}

Status Database::Remove(const rdf::Graph& graph) {
  util::MutexLock lk(&write_mu_);
  if (store_ == nullptr) return Status::OK();  // nothing stored
  SEDGE_RETURN_NOT_OK(LogBatchLocked(io::WalRecordType::kRemove,
                                     graph.triples().data(),
                                     graph.triples().size()));
  EnsureWritableStoreLocked();
  for (const rdf::Triple& t : graph.triples()) {
    SEDGE_RETURN_NOT_OK(store_->Remove(t));
    RecordRelayLocked(/*insert=*/false, &t, 1);
  }
  store_->SealDelta();
  write_generation_.fetch_add(1);
  met_.write_batches_total->Increment();
  met_.triples_removed_total->Add(graph.triples().size());
  if (snapshot_isolation_) PublishSnapshotLocked();
  UpdateStoreGaugesLocked();
  return MaybeCompactLocked();
}

Status Database::Remove(const rdf::Triple& triple) {
  util::MutexLock lk(&write_mu_);
  if (store_ == nullptr) return Status::OK();
  SEDGE_RETURN_NOT_OK(
      LogBatchLocked(io::WalRecordType::kRemove, &triple, 1));
  EnsureWritableStoreLocked();
  SEDGE_RETURN_NOT_OK(store_->Remove(triple));
  RecordRelayLocked(/*insert=*/false, &triple, 1);
  store_->SealDelta();
  write_generation_.fetch_add(1);
  met_.write_batches_total->Increment();
  met_.triples_removed_total->Increment();
  if (snapshot_isolation_) PublishSnapshotLocked();
  UpdateStoreGaugesLocked();
  return MaybeCompactLocked();
}

// ------------------------------------------------------------- compaction

Status Database::Compact() {
  SEDGE_RETURN_NOT_OK(WaitForCompaction());
  util::MutexLock lk(&write_mu_);
  return CompactLocked();
}

Status Database::CompactLocked() {
  // Pending provisional vocabulary alone also warrants a fold: the
  // rebuild is the epoch re-encode that turns provisional ids into real
  // LiteMat codes (and thereby switches inference on for those terms).
  if (store_ == nullptr ||
      (!store_->has_delta() && !store_->has_pending_schema())) {
    return Status::OK();
  }
  obs::ScopedSpan fold_span(met_.compaction_fold_seconds);
  const rdf::Graph merged = store_->ExportGraph();
  met_.compaction_fold_triples->RecordValue(merged.triples().size());
  SEDGE_ASSIGN_OR_RETURN(
      store::TripleStore built,
      store::TripleStore::Build(
          onto_, merged, &store_->schema_registry(),
          store::TripleStore::BuildHooks{BuildPoolLocked(), &metrics_}));
  fold_span.Stop();
  obs::ScopedSpan swap_span(met_.compaction_swap_seconds);
  store_ = std::make_shared<store::TripleStore>(std::move(built));
  ++store_epoch_;  // supersedes any fold forked from the replaced store
  relay_.clear();
  recording_ = false;
  generation_number_.fetch_add(1);
  PublishSnapshotLocked();
  swap_span.Stop();
  met_.compactions_total->Increment();
  UpdateStoreGaugesLocked();
  // Device mode: persist the fresh base before dropping the log records
  // that produced it. If we crash between the two, replaying the old
  // epoch onto the new checkpoint is an idempotent no-op, while the
  // reverse ordering would lose the folded overlay for good. Standalone
  // WAL mode has no checkpoint, so the log must NOT be truncated — it
  // keeps covering everything since load, at the cost of growing.
  if (storage_ != nullptr) {
    SEDGE_RETURN_NOT_OK(CheckpointLocked());
  }
  return Status::OK();
}

Status Database::CompactAsync() {
  util::MutexLock lk(&write_mu_);
  return CompactAsyncLocked();
}

Status Database::CompactAsyncLocked() {
  if (store_ == nullptr ||
      (!store_->has_delta() && !store_->has_pending_schema())) {
    return Status::OK();
  }
  if (compaction_running_.load()) return Status::OK();  // already folding
  if (worker_.joinable()) worker_.join();  // reap a finished worker

  // Freeze: the current store stops receiving writes forever; new writes
  // land in a fork sharing the immutable base but owning copies of the
  // dictionary and overlay. Readers pinned to either see identical data.
  obs::ScopedSpan fork_span(met_.compaction_fork_seconds);
  store_->SealDelta();
  std::shared_ptr<const store::TripleStore> frozen = store_;
  store_ = std::shared_ptr<store::TripleStore>(store_->ForkForWrites());
  const uint64_t ticket = ++store_epoch_;
  PublishSnapshotLocked();
  fork_span.Stop();
  met_.async_compactions_total->Increment();

  relay_.clear();
  recording_ = true;
  // Raw pointer captured under write_mu_ before the fold is marked
  // running (so lazy creation still happens); BuildPoolLocked and
  // set_build_threads never destroy the pool while this fold is running
  // (compaction_running_), and ~Database joins the worker before members
  // are destroyed.
  util::ThreadPool* pool = BuildPoolLocked();
  // compaction_error_ is deliberately NOT reset here: a previous fold's
  // failure (e.g. a durable-checkpoint error) stays pending until
  // WaitForCompaction() consumes it, even if auto-compaction kicks off
  // further folds in between.
  compaction_running_.store(true);

  ontology::Ontology onto = onto_;  // the worker must not race LoadOntology
  worker_ = std::thread([this, ticket, pool, frozen = std::move(frozen),
                         onto = std::move(onto)]() mutable {
    // Off the write path: O(n) export + succinct rebuild, against the
    // frozen generation only. The frozen registry's pending terms ride
    // into the rebuild (the epoch re-encode) — copied out so the frozen
    // store itself can be released before the build allocates.
    obs::ScopedSpan fold_span(met_.compaction_fold_seconds);
    const rdf::Graph merged = frozen->ExportGraph();
    met_.compaction_fold_triples->RecordValue(merged.triples().size());
    const store::schema::SchemaRegistry pending = frozen->schema_registry();
    frozen.reset();
    Result<store::TripleStore> built = store::TripleStore::Build(
        onto, merged, &pending,
        store::TripleStore::BuildHooks{pool, &metrics_});
    fold_span.Stop();
    FinishCompaction(ticket, std::move(built));
  });
  return Status::OK();
}

void Database::FinishCompaction(uint64_t ticket,
                                Result<store::TripleStore> built) {
  util::MutexLock lk(&write_mu_);
  if (store_epoch_ != ticket) {
    // The store this fold forked from was replaced (LoadData or a sync
    // fold) while the rebuild ran — the result describes a dataset that
    // no longer exists. Discard it; the replacement already published
    // (and, in device mode, checkpointed) the authoritative state.
    recording_ = false;
    relay_.clear();
    compaction_running_.store(false);
    return;
  }
  recording_ = false;
  if (!built.ok()) {
    compaction_error_ = built.status();
    relay_.clear();
    compaction_running_.store(false);
    return;
  }
  auto fresh =
      std::make_shared<store::TripleStore>(std::move(built).value());
  // Catch-up: replay every write that landed while the rebuild ran. The
  // relay is short (bounded by the write rate times the rebuild time), so
  // this pause is nothing like the full fold.
  obs::ScopedSpan relay_span(met_.compaction_relay_seconds);
  for (const RelayOp& op : relay_) {
    const Status st =
        op.insert ? fresh->Insert(op.triple) : fresh->Remove(op.triple);
    if (!st.ok()) {
      compaction_error_ = st;
      relay_.clear();
      compaction_running_.store(false);
      return;
    }
  }
  fresh->SealDelta();
  relay_.clear();
  relay_span.Stop();

  // The atomic generation swap.
  obs::ScopedSpan swap_span(met_.compaction_swap_seconds);
  store_ = std::move(fresh);
  ++store_epoch_;
  generation_number_.fetch_add(1);
  PublishSnapshotLocked();
  swap_span.Stop();
  met_.compactions_total->Increment();
  UpdateStoreGaugesLocked();

  // Durable epoch fence: checkpoint the swapped-in state (base + relay
  // overlay), then truncate the WAL. Writers are paused for the
  // checkpoint I/O only, never for the rebuild.
  if (storage_ != nullptr) {
    const Status st = CheckpointLocked();
    if (!st.ok()) compaction_error_ = st;
  }
  compaction_running_.store(false);
}

Status Database::WaitForCompaction() {
  std::thread worker;
  {
    util::MutexLock lk(&write_mu_);
    if (worker_.joinable()) worker = std::move(worker_);
  }
  if (worker.joinable()) worker.join();
  util::MutexLock lk(&write_mu_);
  const Status st = compaction_error_;
  compaction_error_ = Status::OK();
  return st;
}

Status Database::MaybeCompactLocked() {
  if (compaction_ratio_ <= 0.0 || store_ == nullptr) return Status::OK();
  const uint64_t delta = store_->delta_size();
  if (delta == 0) return Status::OK();
  const uint64_t base = store_->base_num_triples();
  if (static_cast<double>(delta) >=
      compaction_ratio_ * static_cast<double>(std::max<uint64_t>(base, 1))) {
    return async_compaction_ ? CompactAsyncLocked() : CompactLocked();
  }
  return Status::OK();
}

// ------------------------------------------------------------- durability

Status Database::AttachWal(io::WriteAheadLog* wal, bool replay) {
  SEDGE_CHECK(wal != nullptr && wal->open()) << "AttachWal needs an open WAL";
  util::MutexLock lk(&write_mu_);
  if (replay) {
    SEDGE_RETURN_NOT_OK(EnsureStoreLocked());
    EnsureWritableStoreLocked();
    uint64_t applied = 0;
    SEDGE_RETURN_NOT_OK(wal->Replay([&](const io::WalReplayRecord& r) {
      write_mu_.AssertHeld();  // lambda: re-assert AttachWal's lock
      switch (r.type) {
        case io::WalRecordType::kInsert:
          ++applied;
          RecordRelayLocked(/*insert=*/true, &r.triple, 1);
          return store_->Insert(r.triple);
        case io::WalRecordType::kRemove:
          ++applied;
          RecordRelayLocked(/*insert=*/false, &r.triple, 1);
          return store_->Remove(r.triple);
        case io::WalRecordType::kSchemaAdmit: {
          // Restore the admission with its logged id before the triples
          // that use it re-apply. Idempotent over a checkpoint-restored
          // registry that already knows the term.
          if (r.admit_space >
              static_cast<uint8_t>(
                  store::schema::TermSpace::kDatatypeProperty)) {
            return Status::IoError("WAL schema admission space malformed");
          }
          return store_->RestoreAdmission(
              {static_cast<store::schema::TermSpace>(r.admit_space),
               r.admit_id, r.admit_iri});
        }
        case io::WalRecordType::kCompactEpoch:
          return Status::OK();  // informational marker
        case io::WalRecordType::kCommit:
          return Status::OK();  // internal; never surfaced by Replay
      }
      return Status::Internal("unreachable WAL record type");
    }));
    store_->SealDelta();
    if (applied > 0) write_generation_.fetch_add(1);
    if (snapshot_isolation_) PublishSnapshotLocked();
    UpdateStoreGaugesLocked();
  }
  wal_ = wal;
  wal_->set_metrics(&metrics_);
  // The replayed overlay may already exceed the compaction trigger; fold
  // it now that truncation can record the fact in the log.
  return MaybeCompactLocked();
}

Status Database::Checkpoint() {
  SEDGE_RETURN_NOT_OK(WaitForCompaction());
  util::MutexLock lk(&write_mu_);
  return CheckpointLocked();
}

uint64_t Database::checkpoint_sequence() const {
  util::MutexLock lk(&write_mu_);
  return storage_ != nullptr ? storage_->sequence() : 0;
}

uint64_t Database::wal_epoch() const {
  util::MutexLock lk(&write_mu_);
  return wal_ != nullptr ? wal_->epoch() : 0;
}

std::string Database::SerializeImageLocked() const {
  std::string image;
  StringSink sink(&image);
  std::ostream os(&sink);
  os.write(kImageMagic, sizeof(kImageMagic));
  os.write(reinterpret_cast<const char*>(&kImageVersion),
           sizeof(kImageVersion));
  const uint64_t generation = generation_number_.load();
  os.write(reinterpret_cast<const char*>(&generation), sizeof(generation));
  rdf::WriteTripleList(os, onto_.ToGraph().triples());
  store_->SaveTo(os);
  return image;
}

Status Database::CheckpointLocked() {
  if (storage_ == nullptr) {
    return Status::Unsupported(
        "Checkpoint() needs a device-opened database (Database::Open)");
  }
  SEDGE_RETURN_NOT_OK(EnsureStoreLocked());
  obs::ScopedSpan checkpoint_span(met_.checkpoint_seconds);
  obs::ScopedSpan serialize_span(met_.checkpoint_serialize_seconds);
  const std::string image = SerializeImageLocked();
  serialize_span.Stop();
  // Extent-write and superblock-flip phases are timed inside the storage
  // layer (CheckpointStorage::set_metrics).
  SEDGE_RETURN_NOT_OK(storage_->WriteCheckpoint(
      image, generation_number_.load(), store_->num_triples()));
  // The checkpoint image covers everything the log covered (base + live
  // overlay), so the epoch fence may advance: truncate, releasing the
  // region for new batches.
  if (wal_ != nullptr) {
    obs::ScopedSpan truncate_span(met_.checkpoint_wal_truncate_seconds);
    SEDGE_RETURN_NOT_OK(wal_->Truncate(store_->num_triples()));
  }
  met_.checkpoints_total->Increment();
  return Status::OK();
}

Status Database::RestoreImage(const std::string& image) {
  StringSource source(image);
  std::istream is(&source);
  char magic[sizeof(kImageMagic)];
  is.read(magic, sizeof(magic));
  uint32_t version = 0;
  is.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!is || std::memcmp(magic, kImageMagic, sizeof(magic)) != 0 ||
      version != kImageVersion) {
    return Status::IoError("checkpoint image has a foreign header");
  }
  uint64_t generation = 0;
  is.read(reinterpret_cast<char*>(&generation), sizeof(generation));
  std::vector<rdf::Triple> onto_triples;
  SEDGE_RETURN_NOT_OK(rdf::ReadTripleList(is, &onto_triples));
  rdf::Graph onto_graph;
  for (rdf::Triple& t : onto_triples) onto_graph.Add(std::move(t));
  // Parse into locals outside the lock; install everything — ontology
  // included — under it. The old code assigned onto_ before locking,
  // which raced a background fold's SerializeImageLocked reading it on
  // the worker thread.
  SEDGE_ASSIGN_OR_RETURN(ontology::Ontology restored_onto,
                         ontology::Ontology::FromGraph(onto_graph));
  SEDGE_ASSIGN_OR_RETURN(store::TripleStore restored,
                         store::TripleStore::LoadFrom(is));
  util::MutexLock lk(&write_mu_);
  onto_ = std::move(restored_onto);
  store_ = std::make_shared<store::TripleStore>(std::move(restored));
  generation_number_.store(std::max<uint64_t>(generation, 1));
  PublishSnapshotLocked();
  return Status::OK();
}

Result<std::unique_ptr<Database>> Database::Open(
    io::SimulatedBlockDevice* device, OpenOptions options) {
  // No thread can see `db` yet, but write_mu_ is scoped around each setup
  // stage anyway: std::mutex is not recursive, and RestoreImage/AttachWal
  // below take the lock themselves.
  auto db = std::unique_ptr<Database>(new Database());
  std::string image;
  bool restore = false;
  {
    util::MutexLock lk(&db->write_mu_);
    db->onto_ = std::move(options.bootstrap_ontology);
    db->device_ = device;
    device->set_metrics(&db->metrics_);
    db->storage_ = std::make_unique<io::CheckpointStorage>(device);
    db->storage_->set_metrics(&db->metrics_);
    SEDGE_RETURN_NOT_OK(db->storage_->Open(options.wal_capacity_blocks));
    if (db->storage_->has_checkpoint()) {
      SEDGE_ASSIGN_OR_RETURN(image, db->storage_->ReadCheckpoint());
      restore = true;
    }
  }
  if (restore) {
    SEDGE_RETURN_NOT_OK(db->RestoreImage(image));
  }
  io::WriteAheadLog* wal = nullptr;
  {
    util::MutexLock lk(&db->write_mu_);
    db->owned_wal_ = std::make_unique<io::WriteAheadLog>(
        device, db->storage_->wal_region_start(),
        db->storage_->wal_capacity_blocks());
    SEDGE_RETURN_NOT_OK(db->owned_wal_->Open());
    wal = db->owned_wal_.get();
  }
  // Replay the acknowledged tail on top of the restored checkpoint
  // (idempotent: records the checkpoint already absorbed re-apply as
  // no-ops) and start logging through the owned WAL.
  SEDGE_RETURN_NOT_OK(db->AttachWal(wal, /*replay=*/true));
  return db;
}

// --------------------------------------------------------------- querying

void Database::AccumulateQueryStats(const sparql::Executor& executor) const {
  const sparql::ExecutorStats& s = executor.stats();
  met_.merge_join_extends->Add(s.merge_join_extends);
  met_.merge_join_delta_extends->Add(s.merge_join_delta_extends);
  met_.row_extends->Add(s.row_extends);
  met_.provisional_routes->Add(s.provisional_routes);
  met_.queries_total->Increment();
}

Status Database::RunQuery(std::string_view text, QueryEpoch* at,
                          sparql::QueryResult* decoded,
                          uint64_t* rows) const {
  const ReadView view = AcquireReadView();
  if (at != nullptr) *at = EpochOf(view);
  if (view.snap == nullptr) {
    return Status::InvalidArgument("no data loaded");
  }
  obs::ScopedSpan query_span(met_.query_seconds);
  obs::ScopedSpan parse_span(met_.query_parse_seconds);
  SEDGE_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(text));
  parse_span.Stop();
  obs::ScopedSpan execute_span(met_.query_execute_seconds);
  sparql::Executor executor(view.snap, view.options);
  Status status;
  if (decoded != nullptr) {
    Result<sparql::QueryResult> result = executor.Execute(query);
    status = result.status();
    if (result.ok()) *decoded = std::move(result).value();
  } else {
    Result<sparql::BindingTable> table = executor.ExecuteEncoded(query);
    status = table.status();
    if (table.ok()) *rows = table.value().rows.size();
  }
  execute_span.Stop();
  AccumulateQueryStats(executor);
  return status;
}

Result<sparql::QueryResult> Database::Query(std::string_view text,
                                            QueryEpoch* at) const {
  sparql::QueryResult result;
  SEDGE_RETURN_NOT_OK(RunQuery(text, at, &result, nullptr));
  return result;
}

Result<uint64_t> Database::QueryCount(std::string_view text,
                                      QueryEpoch* at) const {
  uint64_t rows = 0;
  SEDGE_RETURN_NOT_OK(RunQuery(text, at, nullptr, &rows));
  return rows;
}

Result<obs::QueryProfile> Database::ExplainQuery(
    std::string_view text) const {
  const ReadView view = AcquireReadView();
  const auto& snap = view.snap;
  if (snap == nullptr) {
    return Status::InvalidArgument("no data loaded");
  }
  obs::QueryProfile profile;
  profile.query.assign(text.data(), text.size());
  profile.root.name = "query";
  obs::ProfileTimer total_timer(&profile.root);

  obs::ProfileNode* parse_node = profile.root.AddChild("parse");
  obs::ProfileTimer parse_timer(parse_node);
  SEDGE_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(text));
  parse_timer.Stop();

  // The execute stage runs the real pipeline (rows materialized, dedup
  // and slicing applied) with the executor appending optimize + per-
  // pattern children underneath.
  obs::ProfileNode* execute_node = profile.root.AddChild("execute");
  sparql::Executor executor(snap, view.options);
  executor.set_profile(execute_node);
  obs::ProfileTimer execute_timer(execute_node);
  SEDGE_ASSIGN_OR_RETURN(sparql::BindingTable table,
                         executor.ExecuteEncoded(query));
  execute_timer.Stop();
  AccumulateQueryStats(executor);

  profile.rows = table.rows.size();
  const sparql::ExecutorStats& s = executor.stats();
  execute_node->AddStat("rows", static_cast<int64_t>(table.rows.size()));
  execute_node->AddStat("merge_join_extends",
                        static_cast<int64_t>(s.merge_join_extends));
  execute_node->AddStat(
      "merge_join_delta_extends",
      static_cast<int64_t>(s.merge_join_delta_extends));
  execute_node->AddStat("row_extends",
                        static_cast<int64_t>(s.row_extends));
  execute_node->AddStat("provisional_routes",
                        static_cast<int64_t>(s.provisional_routes));
  total_timer.Stop();
  return profile;
}

}  // namespace sedge
