// sedge::Database — the public entry point of SuccinctEdge.
//
// Usage (see examples/quickstart.cpp):
//
//   sedge::Database db;
//   db.LoadOntologyTurtle(ontology_ttl);   // once, "broadcast" to the edge
//   db.LoadDataTurtle(graph_ttl);          // per graph instance
//   auto result = db.Query("SELECT ?s WHERE { ?s a ex:Sensor }");
//
// LoadData (re)builds the succinct base store; reasoning, merge-join and
// optimizer toggles map to the ablation switches of the executor.
//
// Streaming writes (the delta-overlay write path):
//
//   db.InsertTurtle(observation_ttl);      // lands in the delta overlay
//   db.RemoveTurtle(stale_ttl);            // tombstones base triples
//   db.Compact();                          // folds overlay into the base
//
// Queries between writes see one consistent base ∪ delta view. Compaction
// also runs automatically once the overlay grows past
// set_compaction_ratio() times the base size (default 0.25; 0 disables).
// With set_async_compaction(true), the fold happens on a background
// thread: the overlay is frozen and handed to the rebuild while new
// writes land in a fresh fork of the store (CompactAsync), and the
// generations swap atomically when the build finishes. Queries pin the
// generation they started on (snapshot()), so a swap never frees a store
// under a running query.
//
// Durability — self-contained device mode (see examples/edge_monitor.cpp):
//
//   io::SimulatedBlockDevice device;        // the "SD card"
//   auto db = sedge::Database::Open(&device, options).value();
//   db->Insert(batch);                      // WAL group commit, then apply
//   db->Compact();                          // rebuild + device checkpoint
//                                           //   + WAL truncation
//   ...power cut...
//   auto db2 = sedge::Database::Open(&device, options).value();
//   // checkpoint restored (dictionary + succinct layouts deserialized
//   // from blocks), acknowledged WAL tail replayed — no application
//   // callback involved.
//
// The standalone-WAL mode (AttachWal on a caller-owned log) remains for
// deployments that persist the base elsewhere; without a checkpoint
// device, compaction never truncates the log.

#ifndef SEDGE_CORE_DATABASE_H_
#define SEDGE_CORE_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/query_backend.h"
#include "io/checkpoint.h"
#include "io/wal.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "ontology/ontology.h"
#include "rdf/triple.h"
#include "sparql/executor.h"
#include "sparql/result_table.h"
#include "store/schema/schema_registry.h"
#include "store/store_generation.h"
#include "store/triple_store.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace sedge {

class ThreadSafetyProbe;  // negative-compilation harness (tests/)

/// \brief In-memory, self-indexed, reasoning-enabled RDF store with an
/// optional self-contained durable lifecycle on a block device.
class Database : public QueryBackend {
 public:
  Database();
  ~Database() override;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // -- Self-contained durable open ------------------------------------------

  struct OpenOptions {
    /// Blocks reserved for the WAL region (4 KiB each; headers included).
    /// A full region forces a checkpoint + truncation on the write path.
    /// Only consulted when formatting a fresh device — an existing layout
    /// keeps its stored capacity.
    uint64_t wal_capacity_blocks = 1024;  // 4 MiB
    /// Ontology installed when the device holds no checkpoint yet (the
    /// bootstrap broadcast). A restored checkpoint's ontology wins.
    ontology::Ontology bootstrap_ontology;
  };

  /// Brings a database up from `device` with no application help: formats
  /// a fresh device, or restores the active checkpoint (deserializing the
  /// succinct base) and replays the acknowledged WAL tail. The device must
  /// outlive the returned database, which owns the log and checkpoint
  /// bookkeeping on it.
  static Result<std::unique_ptr<Database>> Open(
      io::SimulatedBlockDevice* device, OpenOptions options);
  static Result<std::unique_ptr<Database>> Open(
      io::SimulatedBlockDevice* device) {
    return Open(device, OpenOptions());
  }

  /// Serializes the full current state (ontology, dictionary, succinct
  /// base, live overlay) to the device and truncates the WAL. Requires a
  /// device-opened database; called automatically at every compaction.
  Status Checkpoint() SEDGE_EXCLUDES(write_mu_);

  /// Control-thread convenience (tests, examples): the checkpoint
  /// bookkeeping itself is only ever mutated under write_mu_ on the write
  /// path, so poke it only while no write/fold can be in flight — or use
  /// checkpoint_sequence()/wal_epoch(), which synchronize.
  const io::CheckpointStorage* storage() const SEDGE_EXCLUDES(write_mu_) {
    util::MutexLock lk(&write_mu_);
    return storage_.get();
  }

  /// Superblock flips so far (0 without a device) / current WAL epoch
  /// (0 without a log). Synchronized with the background fold's
  /// checkpoint + truncation, unlike poking storage()/wal() directly.
  uint64_t checkpoint_sequence() const SEDGE_EXCLUDES(write_mu_);
  uint64_t wal_epoch() const SEDGE_EXCLUDES(write_mu_);

  // -- Setup ----------------------------------------------------------------

  /// Parses and installs the ontology (Turtle / N-Triples).
  Status LoadOntologyTurtle(std::string_view text) SEDGE_EXCLUDES(write_mu_);
  /// Installs an already-built ontology. Serialized against the write
  /// path (a background fold's checkpoint reads the ontology under the
  /// same lock).
  void LoadOntology(ontology::Ontology onto) SEDGE_EXCLUDES(write_mu_);

  /// Parses `text` and (re)builds the store for that graph.
  Status LoadDataTurtle(std::string_view text) SEDGE_EXCLUDES(write_mu_);
  /// (Re)builds the store from `graph`.
  Status LoadData(const rdf::Graph& graph) SEDGE_EXCLUDES(write_mu_);

  // -- Streaming writes (delta overlay) -------------------------------------

  /// \brief Per-batch write accounting. The three outcome counters are
  /// disjoint and sum to the batch size: `applied` triples were fully
  /// LiteMat-encoded; `deferred_provisional` triples used at least one
  /// provisional vocabulary term (queryable immediately, subsumption
  /// inference deferred until the next compaction re-encode); `rejected`
  /// triples were malformed and dropped. `admitted_terms` counts the new
  /// vocabulary admissions this batch triggered.
  struct InsertReport {
    uint64_t applied = 0;
    uint64_t deferred_provisional = 0;
    uint64_t rejected = 0;
    uint64_t admitted_terms = 0;
  };

  /// Parses `text` and inserts every triple into the delta overlay. An
  /// empty database bootstraps an empty base store first, so a stream can
  /// start from nothing. May trigger auto-compaction afterwards. Triples
  /// with never-before-seen predicates or classes are accepted under
  /// provisional ids (see store/schema/schema_registry.h); pass `report`
  /// to learn how each triple of the batch fared.
  Status InsertTurtle(std::string_view text, InsertReport* report = nullptr)
      SEDGE_EXCLUDES(write_mu_);
  /// Inserts every triple of `graph` into the delta overlay.
  Status Insert(const rdf::Graph& graph, InsertReport* report = nullptr)
      SEDGE_EXCLUDES(write_mu_);
  /// Inserts one triple.
  Status Insert(const rdf::Triple& triple, InsertReport* report = nullptr)
      SEDGE_EXCLUDES(write_mu_);
  /// Parses `text` and removes every triple (tombstoning base triples).
  Status RemoveTurtle(std::string_view text) SEDGE_EXCLUDES(write_mu_);
  /// Removes every triple of `graph`.
  Status Remove(const rdf::Graph& graph) SEDGE_EXCLUDES(write_mu_);
  /// Removes one triple.
  Status Remove(const rdf::Triple& triple) SEDGE_EXCLUDES(write_mu_);

  // -- Compaction -----------------------------------------------------------

  /// Synchronous fold: merges base ∪ delta into a fresh succinct base
  /// (stop-the-world on the write path), then checkpoints + truncates the
  /// WAL in device mode. Waits for any in-flight background fold first.
  /// No-op without an overlay.
  Status Compact() SEDGE_EXCLUDES(write_mu_);

  /// Background fold: freezes the current overlay and hands it (with the
  /// shared immutable base) to a rebuild thread, while new writes land in
  /// a fork of the store and are relayed onto the fresh base before the
  /// atomic generation swap. Returns immediately; a fold already in
  /// flight makes this a no-op. Errors surface via WaitForCompaction()
  /// (or the next Compact()).
  Status CompactAsync() SEDGE_EXCLUDES(write_mu_);

  /// Joins an in-flight background fold (if any) and returns its result.
  Status WaitForCompaction() SEDGE_EXCLUDES(write_mu_);

  /// True while a background fold is rebuilding.
  bool compaction_in_flight() const { return compaction_running_.load(); }

  /// Routes auto-compaction through CompactAsync() instead of the
  /// synchronous fold (default off: deterministic folds for batch-style
  /// callers; streaming deployments switch it on to keep writes flowing
  /// during rebuilds). Serialized with the write path: MaybeCompactLocked
  /// consults the flag at the end of every batch.
  void set_async_compaction(bool on) SEDGE_EXCLUDES(write_mu_) {
    util::MutexLock lk(&write_mu_);
    async_compaction_ = on;
  }

  /// Worker threads for the compaction rebuild (default: min(4, hardware
  /// concurrency)). With >= 2, the succinct base build runs its layout
  /// finalizations as parallel pool tasks (see TripleStore::BuildHooks);
  /// 0 or 1 forces the sequential build. A resize while a background fold
  /// is rebuilding takes effect at the next fold.
  void set_build_threads(int n) SEDGE_EXCLUDES(write_mu_) {
    util::MutexLock lk(&write_mu_);
    build_threads_ = n < 1 ? 1 : n;
    if (!compaction_running_.load() && pool_ != nullptr &&
        pool_->num_threads() != static_cast<size_t>(build_threads_)) {
      pool_.reset();  // rebuilt lazily at the next fold
    }
  }
  int build_threads() const SEDGE_EXCLUDES(write_mu_) {
    util::MutexLock lk(&write_mu_);
    return build_threads_;
  }

  /// Overlay-size / base-size ratio that triggers auto-compaction after a
  /// write batch (default 0.25; set 0 to disable automatic compaction).
  void set_compaction_ratio(double ratio) SEDGE_EXCLUDES(write_mu_) {
    util::MutexLock lk(&write_mu_);
    compaction_ratio_ = ratio;
  }
  double compaction_ratio() const SEDGE_EXCLUDES(write_mu_) {
    util::MutexLock lk(&write_mu_);
    return compaction_ratio_;
  }

  // -- Durability (standalone write-ahead log) -------------------------------
  //
  // With a WAL attached, every Insert*/Remove* batch is appended to the
  // log and group-committed with one Sync() *before* it touches the
  // overlay: when a write call returns OK, its mutations are on the
  // device. In device mode (Open), compaction checkpoints the base and
  // truncates the log; in standalone mode nothing persists the folded
  // base, so the log is never truncated and keeps covering everything
  // since the original load (replay stays correct and idempotent).

  /// Attaches `wal` (already Open()ed). When `replay` is set, first
  /// re-applies every acknowledged record in the log to the store —
  /// reopen-after-crash. A torn or corrupt log tail (power cut mid-write)
  /// is silently cut off; only intact committed batches are applied.
  Status AttachWal(io::WriteAheadLog* wal, bool replay = true)
      SEDGE_EXCLUDES(write_mu_);
  /// Stops logging; the log itself is left untouched. Serialized with the
  /// write path — a background fold's checkpoint may be truncating the
  /// log under write_mu_ at this very moment.
  void DetachWal() SEDGE_EXCLUDES(write_mu_) {
    util::MutexLock lk(&write_mu_);
    if (wal_ != nullptr) wal_->set_metrics(nullptr);
    wal_ = nullptr;
  }
  /// Control-thread convenience, like storage(): the returned log is
  /// mutated under write_mu_ by every write batch, so inspect it only
  /// while no write/fold can be in flight (or use wal_epoch()).
  io::WriteAheadLog* wal() const SEDGE_EXCLUDES(write_mu_) {
    util::MutexLock lk(&write_mu_);
    return wal_;
  }

  // -- Generations -----------------------------------------------------------

  /// The current generation snapshot (store + base build number), or null
  /// before any data is loaded. Readers pin it for however long they need
  /// consistent lifetime guarantees; Query does this internally.
  /// Lock-free: one atomic shared_ptr load (see read_state_).
  std::shared_ptr<const store::StoreGeneration> snapshot() const;

  /// Bumped every time the succinct base is (re)built: LoadData and each
  /// compaction swap. Shorthand for snapshot()->number().
  uint64_t store_generation() const { return generation_number_.load(); }
  /// Bumped by every write batch that reached the overlay.
  uint64_t write_generation() const { return write_generation_.load(); }
  /// Live overlay entries (inserted triples + tombstones).
  uint64_t delta_size() const;

  // -- Execution switches (defaults match the paper's system) ---------------

  // The switches live in the RCU-published ReadView (not under write_mu_:
  // the writer lock is held across checkpoint I/O, and queries must not
  // stall behind it) and options() hands out a copy, so a toggle
  // concurrent with a running query gives that query one coherent option
  // set — before or after, never a torn mix.
  void set_reasoning(bool on) SEDGE_EXCLUDES(snap_mu_);
  void set_merge_join(bool on) SEDGE_EXCLUDES(snap_mu_);
  void set_optimizer(bool on) SEDGE_EXCLUDES(snap_mu_);
  sparql::Executor::Options options() const;

  /// The published generation's (number, writes) and the options
  /// version, which every set_* toggle above bumps (and nothing else).
  /// Lock-free: one atomic shared_ptr load.
  QueryEpoch epoch() const override;

  // -- Concurrent reads ------------------------------------------------------

  /// Snapshot isolation for concurrent readers (default off). When on,
  /// every write batch mutates a private fork of the store and publishes
  /// it as a new frozen generation, so a snapshot() pinned by any thread
  /// is immutable for its whole lifetime: readers execute with no locking
  /// and never observe a half-applied batch. serve::QueryService switches
  /// this on for its database. The cost is a per-batch dictionary +
  /// overlay-run copy on the (single) writer lane; leave it off for
  /// single-threaded batch loads. Turning it on does not retroactively
  /// freeze the currently published generation — it takes effect at the
  /// next write batch.
  void set_snapshot_isolation(bool on) override SEDGE_EXCLUDES(write_mu_) {
    util::MutexLock lk(&write_mu_);
    snapshot_isolation_ = on;
    // The published generation may alias the writable store; treat it as
    // shared so the next batch forks instead of mutating it in place.
    if (on) store_shared_ = true;
  }
  bool snapshot_isolation() const SEDGE_EXCLUDES(write_mu_) {
    util::MutexLock lk(&write_mu_);
    return snapshot_isolation_;
  }

  /// Snapshot of the executor counters accumulated over every
  /// Query/QueryCount since the last reset. merge_join_delta_extends > 0
  /// proves the star-join fast path ran against a live overlay — the
  /// bench smoke check asserts it. Backed by registry counters (relaxed
  /// atomics), because concurrent const queries are part of the store's
  /// concurrency contract (delta_set.h) and accumulation must stay
  /// TSan-clean against CompactAsync readers.
  sparql::ExecutorStats query_stats() const {
    sparql::ExecutorStats s;
    s.merge_join_extends = met_.merge_join_extends->value();
    s.merge_join_delta_extends = met_.merge_join_delta_extends->value();
    s.row_extends = met_.row_extends->value();
    s.provisional_routes = met_.provisional_routes->value();
    return s;
  }
  void reset_query_stats() {
    met_.merge_join_extends->Reset();
    met_.merge_join_delta_extends->Reset();
    met_.row_extends->Reset();
    met_.provisional_routes->Reset();
  }

  // -- Querying --------------------------------------------------------------

  /// Parses, optimizes and executes a SPARQL SELECT query against a
  /// pinned generation snapshot (safe against concurrent compaction
  /// swaps). Every query plans on the pinned store's live counts. `at`
  /// receives the epoch of the pinned snapshot and options.
  Result<sparql::QueryResult> Query(std::string_view sparql,
                                    QueryEpoch* at = nullptr) const override
      SEDGE_EXCLUDES(snap_mu_);

  /// Number of solutions only (skips decode; benches use this).
  Result<uint64_t> QueryCount(std::string_view sparql,
                              QueryEpoch* at = nullptr) const override
      SEDGE_EXCLUDES(snap_mu_);

  /// Runs `sparql` like Query but returns its trace profile instead of
  /// the solutions: a span tree through parse → optimize → route
  /// selection → execution, with per-triple-pattern wall times, rows
  /// produced, and merge-join vs. row-path attribution (see
  /// obs/query_profile.h). Execution is real — rows are materialized and
  /// counted — so profile timings reflect the production code path.
  Result<obs::QueryProfile> ExplainQuery(std::string_view sparql) const
      SEDGE_EXCLUDES(snap_mu_);

  // -- Observability ----------------------------------------------------------

  /// The engine-wide metrics registry: WAL / checkpoint / compaction /
  /// device / executor counters, gauges and latency histograms. Handles
  /// obtained from it stay valid for the database's lifetime; exporters
  /// (ExportJson / ExportPrometheus) may run concurrently with writes.
  obs::MetricsRegistry& metrics() const override { return metrics_; }

  /// Folds one executor's counters into query_stats(). For callers that
  /// run their own Executor against a pinned snapshot() (the shard
  /// coordinator does, per subquery) but still want the database-wide
  /// stats to cover those queries. All counters are relaxed atomics —
  /// safe from any thread.
  void AccumulateQueryStats(const sparql::Executor& executor) const;

  // -- Introspection ----------------------------------------------------------

  bool has_data() const { return snapshot() != nullptr; }
  /// The current store. Control-thread convenience (tests, benches,
  /// examples): the returned reference is guaranteed only while no
  /// generation swap can run concurrently — when a CompactAsync() fold
  /// may be in flight, pin snapshot() and read through it instead (a
  /// swap would otherwise free the store behind this reference).
  const store::TripleStore& store() const;
  /// Copy of the installed ontology. By value: the live object is
  /// re-serialized by a background fold's checkpoint on the worker
  /// thread, so a reference could be read while LoadOntology replaces it.
  ontology::Ontology ontology() const SEDGE_EXCLUDES(write_mu_) {
    util::MutexLock lk(&write_mu_);
    return onto_;
  }
  uint64_t num_triples() const;

 private:
  // The negcompile harness (tests/thread_safety_negcompile/) reaches the
  // guarded fields through this friend to prove unguarded access is a
  // compile error; nothing in the engine defines or uses it.
  friend class ::sedge::ThreadSafetyProbe;

  /// One coherent read-side view: the pinned generation, the executor
  /// options and their version, all published at the same instant — the
  /// RCU read state itself, so they can never be a torn mix. Query /
  /// QueryCount / ExplainQuery start here. Lock-free: a single atomic
  /// shared_ptr load, so a herd of reader threads admitting queries never
  /// serializes on a mutex.
  struct ReadView {
    std::shared_ptr<const store::StoreGeneration> snap;
    sparql::Executor::Options options;
    /// Bumped by every set_* toggle (and by nothing else).
    uint64_t options_version = 0;
  };
  ReadView AcquireReadView() const;
  static QueryEpoch EpochOf(const ReadView& view);
  /// The shared body of Query and QueryCount: pins one read view (its
  /// epoch goes to `at`), parses `text` and executes it on the pinned
  /// snapshot with the pinned options — decoded into `*decoded` when
  /// non-null, otherwise only counted into `*rows`.
  Status RunQuery(std::string_view text, QueryEpoch* at,
                  sparql::QueryResult* decoded, uint64_t* rows) const;

  struct RelayOp {
    bool insert;
    rdf::Triple triple;
  };

  // The *Locked helpers required write_mu_ by comment since PR 4; the
  // REQUIRES annotations make the compiler hold callers to it.
  Status EnsureStoreLocked() SEDGE_REQUIRES(write_mu_);
  /// Snapshot isolation: if the current store may be pinned by readers
  /// (it was published), replaces store_ with a private fork before the
  /// caller mutates it. The fork does NOT bump store_epoch_ — an
  /// in-flight background fold stays valid, its relay replay covers the
  /// batches applied to forks. No-op when isolation is off.
  void EnsureWritableStoreLocked() SEDGE_REQUIRES(write_mu_);
  Status LoadDataLocked(const rdf::Graph& graph) SEDGE_REQUIRES(write_mu_);
  Status CompactLocked() SEDGE_REQUIRES(write_mu_);
  Status CompactAsyncLocked() SEDGE_REQUIRES(write_mu_);
  Status CheckpointLocked() SEDGE_REQUIRES(write_mu_);
  Status MaybeCompactLocked() SEDGE_REQUIRES(write_mu_);
  /// Appends one record per admission, then one per triple, and
  /// group-commits the whole batch with a single Sync() — the commit
  /// marker covers vocabulary admissions and mutations atomically. No-op
  /// without a WAL. Called before the mutations are applied. A full WAL
  /// region (device mode) forces a checkpoint + truncation, then retries
  /// the batch once.
  Status LogBatchLocked(io::WalRecordType type, const rdf::Triple* triples,
                        size_t count,
                        const std::vector<store::schema::Admission>&
                            admissions = {}) SEDGE_REQUIRES(write_mu_);
  /// Plans a batch's vocabulary admissions, logs admissions + mutations
  /// (one group commit), installs the admissions, applies the triples,
  /// and fills `report`. The shared body of the Insert overloads;
  /// requires write_mu_ and an existing store.
  Status InsertBatchLocked(const rdf::Triple* triples, size_t count,
                           InsertReport* report) SEDGE_REQUIRES(write_mu_);
  /// Records applied mutations for the background fold's catch-up replay.
  void RecordRelayLocked(bool insert, const rdf::Triple* triples,
                         size_t count) SEDGE_REQUIRES(write_mu_);
  /// Publishes store_ as the current StoreGeneration (briefly takes
  /// snap_mu_ inside — the one place the two locks nest).
  void PublishSnapshotLocked() SEDGE_REQUIRES(write_mu_)
      SEDGE_EXCLUDES(snap_mu_);
  /// Background-thread completion: catch-up relay, swap, checkpoint.
  /// `ticket` is the store epoch the fold forked at; a mismatch means
  /// the fold was superseded and its result is discarded.
  void FinishCompaction(uint64_t ticket, Result<store::TripleStore> built)
      SEDGE_EXCLUDES(write_mu_);
  /// Restores ontology + store + generation from a checkpoint image.
  Status RestoreImage(const std::string& image) SEDGE_EXCLUDES(write_mu_);
  /// Serializes the current state into a checkpoint image.
  std::string SerializeImageLocked() const SEDGE_REQUIRES(write_mu_);

  /// Refreshes the overlay / base / schema gauges from the current store.
  void UpdateStoreGaugesLocked() SEDGE_REQUIRES(write_mu_);

  /// The build pool for parallel compaction rebuilds, created lazily (and
  /// resized lazily: never while a background fold may be running tasks on
  /// it). Returns null when build_threads_ <= 1 — the sequential build.
  util::ThreadPool* BuildPoolLocked() SEDGE_REQUIRES(write_mu_);

  // Lock hierarchy (docs/locking.md): write_mu_ serializes the write /
  // compaction / durability path; snap_mu_ serializes only *publishers*
  // of read_state_ (PublishSnapshotLocked, the option setters) and is
  // acquired inside write_mu_ by PublishSnapshotLocked — never the other
  // way around. Readers never take either lock: they atomic_load
  // read_state_.
  mutable util::Mutex write_mu_ SEDGE_ACQUIRED_BEFORE(snap_mu_);
  mutable util::Mutex snap_mu_;

  ontology::Ontology onto_ SEDGE_GUARDED_BY(write_mu_);

  // Current writable store (write_mu_) and the RCU-published read state.
  // Publishers (option toggles, PublishSnapshotLocked) copy the current
  // view, adjust it and std::atomic_store the replacement under snap_mu_;
  // readers std::atomic_load it wholesale. read_state_ cannot carry
  // SEDGE_GUARDED_BY: its whole point is that readers load it without
  // snap_mu_ — the atomic_load/atomic_store protocol is the
  // synchronization. The pointee is const, so a loaded state cannot be
  // mutated after publication. Never null (starts as an empty ReadView).
  std::shared_ptr<store::TripleStore> store_ SEDGE_GUARDED_BY(write_mu_)
      SEDGE_PT_GUARDED_BY(write_mu_);
  std::shared_ptr<const ReadView> read_state_ = std::make_shared<ReadView>();

  // Background compaction state (write_mu_ unless noted).
  std::thread worker_ SEDGE_GUARDED_BY(write_mu_);
  // Build pool for parallel rebuilds. The unique_ptr is guarded: it is
  // created/reset only under write_mu_ while no fold is in flight; the
  // fold worker uses a raw ThreadPool* captured under the lock (the pool
  // itself is internally synchronized). The destructor joins worker_
  // before members are destroyed, so the pool outlives every user.
  std::unique_ptr<util::ThreadPool> pool_ SEDGE_GUARDED_BY(write_mu_);
  int build_threads_ SEDGE_GUARDED_BY(write_mu_) = 1;
  std::atomic<bool> compaction_running_{false};
  Status compaction_error_ SEDGE_GUARDED_BY(write_mu_);
  std::vector<RelayOp> relay_ SEDGE_GUARDED_BY(write_mu_);
  bool recording_ SEDGE_GUARDED_BY(write_mu_) = false;
  bool async_compaction_ SEDGE_GUARDED_BY(write_mu_) = false;
  // Snapshot-isolation mode (write_mu_): store_shared_ marks that store_
  // is (or may be) pinned by readers via the published generation, so the
  // next write batch must fork before mutating.
  bool snapshot_isolation_ SEDGE_GUARDED_BY(write_mu_) = false;
  bool store_shared_ SEDGE_GUARDED_BY(write_mu_) = false;
  // Bumped on every store_ replacement. A background fold captures the
  // value right after installing its fork and swaps only if it still
  // matches — a LoadData (or sync fold) that replaced the store in the
  // meantime supersedes the fold, whose result is then discarded.
  uint64_t store_epoch_ SEDGE_GUARDED_BY(write_mu_) = 0;

  // Durability plumbing. In device mode owned_wal_/storage_ are owned and
  // wal_ aliases owned_wal_; in standalone mode wal_ is borrowed. The
  // log / checkpoint objects are single-writer with no lock of their own
  // (io/wal.h): PT_GUARDED_BY(write_mu_) is what makes "the WAL epoch
  // fence advances only under the writer lock" a compile-time rule.
  io::WriteAheadLog* wal_ SEDGE_GUARDED_BY(write_mu_)
      SEDGE_PT_GUARDED_BY(write_mu_) = nullptr;
  std::unique_ptr<io::WriteAheadLog> owned_wal_ SEDGE_GUARDED_BY(write_mu_)
      SEDGE_PT_GUARDED_BY(write_mu_);
  std::unique_ptr<io::CheckpointStorage> storage_
      SEDGE_GUARDED_BY(write_mu_) SEDGE_PT_GUARDED_BY(write_mu_);
  // Device-mode only: kept so the destructor can detach the device's
  // metric handles (the device outlives the registry they point into).
  io::SimulatedBlockDevice* device_ SEDGE_GUARDED_BY(write_mu_) = nullptr;

  double compaction_ratio_ SEDGE_GUARDED_BY(write_mu_) = 0.25;
  std::atomic<uint64_t> generation_number_{0};
  std::atomic<uint64_t> write_generation_{0};

  // Query is const; metrics are observability, not database state. The
  // registry outlives every component it instruments (WAL, storage,
  // device attach through set_metrics and detach before destruction).
  mutable obs::MetricsRegistry metrics_;
  // Handles resolved once in the constructor; hot paths record through
  // these without touching the registry mutex.
  struct MetricHandles {
    obs::Counter* merge_join_extends;
    obs::Counter* merge_join_delta_extends;
    obs::Counter* row_extends;
    obs::Counter* provisional_routes;
    obs::Counter* queries_total;
    obs::Counter* write_batches_total;
    obs::Counter* triples_inserted_total;
    obs::Counter* triples_removed_total;
    obs::Counter* schema_admissions_total;
    obs::Counter* compactions_total;
    obs::Counter* async_compactions_total;
    obs::Counter* checkpoints_total;
    obs::Counter* isolation_forks_total;
    obs::Histogram* query_seconds;
    obs::Histogram* query_parse_seconds;
    obs::Histogram* query_execute_seconds;
    obs::Histogram* insert_batch_seconds;
    obs::Histogram* isolation_fork_seconds;
    obs::Histogram* compaction_fold_seconds;
    obs::Histogram* compaction_fork_seconds;
    obs::Histogram* compaction_relay_seconds;
    obs::Histogram* compaction_swap_seconds;
    obs::Histogram* compaction_fold_triples;
    obs::Histogram* checkpoint_seconds;
    obs::Histogram* checkpoint_serialize_seconds;
    obs::Histogram* checkpoint_wal_truncate_seconds;
    obs::Gauge* delta_overlay_adds;
    obs::Gauge* delta_overlay_tombstones;
    obs::Gauge* delta_overlay_entries;
    obs::Gauge* delta_tombstone_ratio;
    obs::Gauge* base_triples;
    obs::Gauge* store_generation;
    obs::Gauge* schema_provisional_terms;
  } met_;
};

}  // namespace sedge

#endif  // SEDGE_CORE_DATABASE_H_
