// Crash-recovery harness for the delta-overlay write-ahead log.
//
// FailingBlockDevice cuts the device after N block writes (optionally
// tearing the N+1-th mid-block), simulating a power cut on the SD card at
// an arbitrary point of a scripted mutation history. The tests assert the
// WAL's crash contract:
//
//   1. every mutation whose write call returned OK (acknowledged) is
//      recovered by replay onto a fresh store built from the base
//      snapshot;
//   2. the recovered state is *exactly* some prefix of the logged record
//      sequence — a torn or CRC-corrupt tail never yields a frankenstate;
//   3. after a cut mid-record, the reopened Database answers queries
//      identically to the pre-crash in-memory state (acceptance
//      criterion).

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "io/failing_block_device.h"
#include "io/wal.h"
#include "rdf/vocabulary.h"
#include "util/rng.h"

namespace sedge {
namespace {

std::string Iri(const std::string& kind, uint64_t i) {
  return "http://e.org/" + kind + std::to_string(i);
}

/// Seed graph pinning every predicate/class the script uses: LiteMat ids
/// are fixed at build time, so the recovery snapshot must mention the full
/// schema (the pinned subject is never removed by the script).
rdf::Graph SeedGraph() {
  rdf::Graph seed;
  const rdf::Term pin = rdf::Term::Iri("http://e.org/pin");
  for (uint64_t p = 0; p < 3; ++p) {
    seed.Add(pin, rdf::Term::Iri(Iri("p", p)), rdf::Term::Iri(Iri("o", 0)));
  }
  for (uint64_t p = 0; p < 2; ++p) {
    seed.Add(pin, rdf::Term::Iri(Iri("dp", p)), rdf::Term::Literal("0"));
  }
  for (uint64_t c = 0; c < 3; ++c) {
    seed.Add(pin, rdf::Term::Iri(rdf::kRdfType),
             rdf::Term::Iri(Iri("C", c)));
  }
  return seed;
}

struct Mutation {
  bool insert;
  rdf::Triple triple;
};

/// Deterministic mutation script: inserts with occasional removes of
/// earlier triples, spanning all three storage layouts.
std::vector<Mutation> MutationScript(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Mutation> script;
  std::vector<rdf::Triple> inserted;
  for (int i = 0; i < n; ++i) {
    if (!inserted.empty() && rng.Bernoulli(0.3)) {
      script.push_back(
          {false, inserted[rng.Uniform(inserted.size())]});
      continue;
    }
    const std::string s = Iri("s", rng.Uniform(12));
    rdf::Triple t;
    const uint64_t kind = rng.Uniform(4);
    if (kind == 0) {
      t = {rdf::Term::Iri(s), rdf::Term::Iri(rdf::kRdfType),
           rdf::Term::Iri(Iri("C", rng.Uniform(3)))};
    } else if (kind == 1) {
      t = {rdf::Term::Iri(s), rdf::Term::Iri(Iri("dp", rng.Uniform(2))),
           rdf::Term::Literal(std::to_string(rng.Uniform(50)))};
    } else {
      t = {rdf::Term::Iri(s), rdf::Term::Iri(Iri("p", rng.Uniform(3))),
           rdf::Term::Iri(Iri("o", rng.Uniform(12)))};
    }
    script.push_back({true, t});
    inserted.push_back(t);
  }
  return script;
}

std::set<rdf::Triple> ToSet(const rdf::Graph& graph) {
  return {graph.triples().begin(), graph.triples().end()};
}

/// Oracle states after applying each script prefix to the seed.
std::vector<std::set<rdf::Triple>> OraclePrefixStates(
    const rdf::Graph& seed, const std::vector<Mutation>& script) {
  std::vector<std::set<rdf::Triple>> states;
  std::set<rdf::Triple> live = ToSet(seed);
  states.push_back(live);
  for (const Mutation& m : script) {
    if (m.insert) {
      live.insert(m.triple);
    } else {
      live.erase(m.triple);
    }
    states.push_back(live);
  }
  return states;
}

/// Builds a recovery Database: base snapshot reload + WAL replay.
void Recover(const rdf::Graph& snapshot, io::WriteAheadLog* wal,
             Database* db) {
  ASSERT_TRUE(db->LoadData(snapshot).ok());
  db->set_reasoning(false);
  db->set_compaction_ratio(0);
  ASSERT_TRUE(wal->Open().ok()) << "reads must survive the crash";
  const Status st = db->AttachWal(wal);
  ASSERT_TRUE(st.ok()) << st.ToString();
}

// The sweep: cut the device after every plausible write count, with
// several tear sizes (0 = write dropped whole, small/large = torn
// mid-block), and check invariants 1+2 at each cut point.
TEST(WalRecovery, RecoversExactlyAPrefixAtEveryCutPoint) {
  const rdf::Graph seed = SeedGraph();
  const std::vector<Mutation> script = MutationScript(/*seed=*/4242, 40);
  const auto oracle = OraclePrefixStates(seed, script);

  int cuts_exercised = 0;
  for (const uint64_t torn_bytes : {0ULL, 13ULL, 300ULL, 2000ULL, 4096ULL}) {
    for (uint64_t budget = 1; budget <= 50; budget += 3) {
      io::FailingBlockDevice device(budget, torn_bytes);
      io::WriteAheadLog wal(&device);
      ASSERT_TRUE(wal.Open().ok());  // header write fits budget >= 1

      Database db;
      ASSERT_TRUE(db.LoadData(seed).ok());
      db.set_reasoning(false);
      db.set_compaction_ratio(0);
      ASSERT_TRUE(db.AttachWal(&wal).ok());

      // Apply until the power cut; count acknowledged mutations.
      size_t acked = 0;
      size_t submitted = 0;
      for (const Mutation& m : script) {
        ++submitted;
        const Status st =
            m.insert ? db.Insert(m.triple) : db.Remove(m.triple);
        if (!st.ok()) break;
        ++acked;
      }
      if (acked == script.size()) {
        // Budget large enough that no cut happened under this script.
        continue;
      }
      ++cuts_exercised;

      Database recovered;
      io::WriteAheadLog reopened(&device);
      Recover(seed, &reopened, &recovered);

      // Invariant 2: the recovered state is exactly oracle[R] for one
      // prefix length R...
      const std::set<rdf::Triple> got = ToSet(recovered.store().ExportGraph());
      int matched_prefix = -1;
      for (size_t r = 0; r < oracle.size(); ++r) {
        if (got == oracle[r]) {
          matched_prefix = static_cast<int>(r);
          break;
        }
      }
      ASSERT_GE(matched_prefix, 0)
          << "budget " << budget << " torn " << torn_bytes
          << ": recovered state matches no script prefix";
      // ...and invariant 1: that prefix covers every acknowledged
      // mutation (it may extend into the batch whose sync failed — a
      // record can be durable without having been acknowledged, never
      // the other way around).
      EXPECT_GE(static_cast<size_t>(matched_prefix), acked)
          << "budget " << budget << " torn " << torn_bytes
          << ": an acknowledged mutation was lost";
      EXPECT_LE(static_cast<size_t>(matched_prefix), submitted);
      EXPECT_EQ(recovered.num_triples(), oracle[matched_prefix].size());
    }
  }
  // The sweep must actually have crossed the interesting region.
  ASSERT_GT(cuts_exercised, 20);
}

// Batch atomicity: multi-triple batches are one Sync() each, sealed by a
// commit marker. A power cut mid-sync may durably persist a *prefix* of a
// batch's records — replay must never apply it. The sweep cuts the device
// after every plausible write count and asserts the recovered state lands
// exactly on a batch boundary: every acknowledged batch present, the
// failed batch either fully recovered (its commit block made it just
// before the cut) or fully absent, never split down the middle.
TEST(WalRecovery, CutMidSyncNeverReplaysAPartialBatch) {
  const rdf::Graph seed = SeedGraph();

  // Multi-triple batches, each all-insert or all-remove so one batch is
  // exactly one group-committed Sync(). Removes only ever target triples
  // from strictly earlier batches, so the per-batch oracle is unambiguous.
  struct Batch {
    bool insert;
    rdf::Graph graph;
  };
  std::vector<Batch> batches;
  {
    Rng rng(1313);
    std::vector<rdf::Triple> pool;  // inserted in earlier batches
    for (int b = 0; b < 10; ++b) {
      Batch batch;
      batch.insert = !(b % 3 == 2 && pool.size() >= 6);
      // 40 records per batch: the frame stream spans several device
      // blocks, so a cut can land with a strict prefix of the batch
      // durable — the exact case the commit marker must make invisible.
      if (batch.insert) {
        for (int i = 0; i < 40; ++i) {
          const std::string s = Iri("s", rng.Uniform(12));
          rdf::Triple t;
          const uint64_t kind = rng.Uniform(4);
          if (kind == 0) {
            t = {rdf::Term::Iri(s), rdf::Term::Iri(rdf::kRdfType),
                 rdf::Term::Iri(Iri("C", rng.Uniform(3)))};
          } else if (kind == 1) {
            t = {rdf::Term::Iri(s), rdf::Term::Iri(Iri("dp", rng.Uniform(2))),
                 rdf::Term::Literal(std::to_string(rng.Uniform(50)))};
          } else {
            t = {rdf::Term::Iri(s), rdf::Term::Iri(Iri("p", rng.Uniform(3))),
                 rdf::Term::Iri(Iri("o", rng.Uniform(12)))};
          }
          batch.graph.Add(t);
          pool.push_back(t);
        }
      } else {
        for (int i = 0; i < 40; ++i) {
          batch.graph.Add(pool[rng.Uniform(pool.size())]);
        }
      }
      batches.push_back(std::move(batch));
    }
  }

  // Oracle: live set after each whole batch.
  std::vector<std::set<rdf::Triple>> oracle;
  {
    std::set<rdf::Triple> live = ToSet(seed);
    oracle.push_back(live);
    for (const Batch& batch : batches) {
      for (const rdf::Triple& t : batch.graph.triples()) {
        if (batch.insert) {
          live.insert(t);
        } else {
          live.erase(t);
        }
      }
      oracle.push_back(live);
    }
  }

  int cuts_exercised = 0;
  for (const uint64_t torn_bytes : {0ULL, 17ULL, 1000ULL, 4096ULL}) {
    for (uint64_t budget = 1; budget <= 40; budget += 2) {
      io::FailingBlockDevice device(budget, torn_bytes);
      io::WriteAheadLog wal(&device);
      ASSERT_TRUE(wal.Open().ok());

      Database db;
      ASSERT_TRUE(db.LoadData(seed).ok());
      db.set_reasoning(false);
      db.set_compaction_ratio(0);
      ASSERT_TRUE(db.AttachWal(&wal).ok());

      size_t acked = 0;
      for (const Batch& batch : batches) {
        const Status st = batch.insert ? db.Insert(batch.graph)
                                       : db.Remove(batch.graph);
        if (!st.ok()) break;
        ++acked;
      }
      if (acked == batches.size()) continue;  // budget never hit
      ++cuts_exercised;

      Database recovered;
      io::WriteAheadLog reopened(&device);
      Recover(seed, &reopened, &recovered);

      const std::set<rdf::Triple> got =
          ToSet(recovered.store().ExportGraph());
      // Exactly two states are admissible after the cut: every acked
      // batch is durable, and the single batch in flight is either fully
      // recovered (its trailing commit block landed right before the
      // cut, durable-but-unacknowledged) or fully absent — never split.
      const bool admissible =
          got == oracle[acked] || got == oracle[acked + 1];
      ASSERT_TRUE(admissible)
          << "budget " << budget << " torn " << torn_bytes << " acked "
          << acked
          << ": recovered state is not a committed-batch boundary "
             "(partial batch replayed, or an acked batch was lost)";
    }
  }
  ASSERT_GT(cuts_exercised, 15);
}

// Acceptance criterion: cut the log mid-record (a record spanning several
// blocks, only the first of which lands) and prove the reopened Database
// answers queries identically to the pre-crash state.
TEST(WalRecovery, MidRecordCutAnswersQueriesLikePreCrashState) {
  const rdf::Graph seed = SeedGraph();
  const std::vector<Mutation> script = MutationScript(/*seed=*/777, 25);

  // The final, never-acknowledged mutation: a datatype triple whose ~9 KiB
  // literal guarantees its record spans >= 3 blocks, so a one-block budget
  // cuts it mid-record.
  const rdf::Triple big = {rdf::Term::Iri(Iri("s", 1)),
                           rdf::Term::Iri(Iri("dp", 0)),
                           rdf::Term::Literal(std::string(9000, 'x'))};

  const std::vector<std::string> queries = {
      "SELECT * WHERE { ?s <" + Iri("p", 0) + "> ?o }",
      "SELECT * WHERE { ?s <" + Iri("dp", 0) + "> ?v }",
      "SELECT * WHERE { ?s a <" + Iri("C", 1) + "> }",
      "SELECT * WHERE { ?s <" + Iri("p", 1) + "> ?m . ?m <" + Iri("p", 2) +
          "> ?o }",
  };

  // Pass A: plain device, measure the block writes consumed by the
  // acknowledged history (everything before the big insert).
  uint64_t writes_before_final_sync = 0;
  {
    io::SimulatedBlockDevice device;
    io::WriteAheadLog wal(&device);
    ASSERT_TRUE(wal.Open().ok());
    Database db;
    ASSERT_TRUE(db.LoadData(seed).ok());
    db.set_reasoning(false);
    db.set_compaction_ratio(0);
    ASSERT_TRUE(db.AttachWal(&wal).ok());
    for (const Mutation& m : script) {
      ASSERT_TRUE((m.insert ? db.Insert(m.triple) : db.Remove(m.triple)).ok());
    }
    writes_before_final_sync = device.stats().writes;
  }

  // Pass B: same deterministic history on a device that survives exactly
  // one more block write — the first block of the big record lands, the
  // rest of the record is lost. Torn tail, cut mid-record.
  io::FailingBlockDevice device(writes_before_final_sync + 1,
                                /*torn_bytes=*/0);
  io::WriteAheadLog wal(&device);
  ASSERT_TRUE(wal.Open().ok());
  Database db;
  ASSERT_TRUE(db.LoadData(seed).ok());
  db.set_reasoning(false);
  db.set_compaction_ratio(0);
  ASSERT_TRUE(db.AttachWal(&wal).ok());
  for (const Mutation& m : script) {
    ASSERT_TRUE((m.insert ? db.Insert(m.triple) : db.Remove(m.triple)).ok());
  }
  EXPECT_FALSE(db.Insert(big).ok()) << "the cut batch must not be acked";
  ASSERT_TRUE(device.failed());

  // Pre-crash reference: the still-live Database (the failed insert was
  // never applied — log-before-apply).
  const auto render = [](const sparql::QueryResult& result) {
    std::vector<std::string> rows;
    for (const auto& row : result.rows) {
      std::string s;
      for (const auto& cell : row) {
        s += cell.has_value() ? cell->ToNTriples() : "UNBOUND";
        s += '\t';
      }
      rows.push_back(std::move(s));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  std::vector<std::vector<std::string>> pre_crash;
  for (const std::string& q : queries) {
    const auto r = db.Query(q);
    ASSERT_TRUE(r.ok()) << q;
    pre_crash.push_back(render(r.value()));
  }
  const uint64_t pre_crash_triples = db.num_triples();

  // Power cut; reopen on the same device.
  Database recovered;
  io::WriteAheadLog reopened(&device);
  Recover(seed, &reopened, &recovered);

  EXPECT_EQ(recovered.num_triples(), pre_crash_triples);
  EXPECT_EQ(ToSet(recovered.store().ExportGraph()),
            ToSet(db.store().ExportGraph()));
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto r = recovered.Query(queries[i]);
    ASSERT_TRUE(r.ok()) << queries[i];
    EXPECT_EQ(render(r.value()), pre_crash[i])
        << "post-recovery disagreement on: " << queries[i];
  }
  // And the torn record's triple is really gone.
  const auto absent = recovered.Query(
      "SELECT * WHERE { ?s <" + Iri("dp", 0) + "> \"" +
      std::string(9000, 'x') + "\" }");
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(absent.value().size(), 0u);
}

// A cut *between* batches (clean tail) must recover everything.
TEST(WalRecovery, CleanCutRecoversAllAcknowledgedBatches) {
  const rdf::Graph seed = SeedGraph();

  io::FailingBlockDevice device(/*writes_before_failure=*/1000);
  io::WriteAheadLog wal(&device);
  ASSERT_TRUE(wal.Open().ok());
  Database db;
  ASSERT_TRUE(db.LoadData(seed).ok());
  db.set_reasoning(false);
  db.set_compaction_ratio(0);
  ASSERT_TRUE(db.AttachWal(&wal).ok());

  // Batched graph inserts — group commit, one sync per batch.
  Rng rng(9);
  for (int b = 0; b < 6; ++b) {
    rdf::Graph batch;
    for (int i = 0; i < 15; ++i) {
      batch.Add(rdf::Term::Iri(Iri("s", rng.Uniform(20))),
                rdf::Term::Iri(Iri("p", rng.Uniform(3))),
                rdf::Term::Iri(Iri("o", rng.Uniform(20))));
    }
    ASSERT_TRUE(db.Insert(batch).ok());
  }

  Database recovered;
  io::WriteAheadLog reopened(&device);
  Recover(seed, &reopened, &recovered);
  EXPECT_EQ(recovered.num_triples(), db.num_triples());
  EXPECT_EQ(ToSet(recovered.store().ExportGraph()),
            ToSet(db.store().ExportGraph()));
}

// In standalone-WAL mode (no checkpoint device) nothing persists the
// folded base, so compaction must NOT truncate the log: recovery from the
// originally loaded data plus the full log must still reach the
// post-compaction state.
TEST(WalRecovery, CompactionWithoutCheckpointDeviceKeepsLogComplete) {
  const rdf::Graph seed = SeedGraph();
  const std::vector<Mutation> script = MutationScript(/*seed=*/55, 30);

  io::SimulatedBlockDevice device;
  io::WriteAheadLog wal(&device);
  ASSERT_TRUE(wal.Open().ok());
  Database db;
  ASSERT_TRUE(db.LoadData(seed).ok());
  db.set_reasoning(false);
  db.set_compaction_ratio(0);
  ASSERT_TRUE(db.AttachWal(&wal).ok());

  const uint64_t epoch_before = wal.epoch();
  for (size_t i = 0; i < script.size(); ++i) {
    const Mutation& m = script[i];
    ASSERT_TRUE((m.insert ? db.Insert(m.triple) : db.Remove(m.triple)).ok());
    if (i % 10 == 9) {
      ASSERT_TRUE(db.Compact().ok());
    }
  }
  EXPECT_EQ(wal.epoch(), epoch_before)
      << "no checkpoint device -> compaction must not truncate";

  Database recovered;
  io::WriteAheadLog reopened(&device);
  Recover(seed, &reopened, &recovered);
  EXPECT_EQ(ToSet(recovered.store().ExportGraph()),
            ToSet(db.store().ExportGraph()));
}

// A batch containing an unloggable triple (multi-MiB literal) is rejected
// as a whole: not applied, not in the log, and the database + log stay
// usable — log and store never diverge.
TEST(WalRecovery, OversizedBatchRejectedAtomically) {
  const rdf::Graph seed = SeedGraph();
  io::SimulatedBlockDevice device;
  io::WriteAheadLog wal(&device);
  ASSERT_TRUE(wal.Open().ok());
  Database db;
  ASSERT_TRUE(db.LoadData(seed).ok());
  db.set_reasoning(false);
  db.set_compaction_ratio(0);
  ASSERT_TRUE(db.AttachWal(&wal).ok());
  const uint64_t before = db.num_triples();

  rdf::Graph batch;
  batch.Add(rdf::Term::Iri(Iri("s", 0)), rdf::Term::Iri(Iri("p", 0)),
            rdf::Term::Iri(Iri("o", 5)));
  batch.Add(rdf::Term::Iri(Iri("s", 0)), rdf::Term::Iri(Iri("dp", 0)),
            rdf::Term::Literal(std::string(2u << 20, 'x')));
  ASSERT_FALSE(db.Insert(batch).ok());
  EXPECT_EQ(db.num_triples(), before) << "no partial application";
  EXPECT_EQ(wal.ReplayableMutations().ValueOr(99), 0u) << "nothing logged";

  // Both stay usable afterwards.
  const rdf::Triple ok_triple = {rdf::Term::Iri(Iri("s", 0)),
                                 rdf::Term::Iri(Iri("p", 0)),
                                 rdf::Term::Iri(Iri("o", 6))};
  ASSERT_TRUE(db.Insert(ok_triple).ok());
  Database recovered;
  io::WriteAheadLog reopened(&device);
  Recover(seed, &reopened, &recovered);
  EXPECT_EQ(ToSet(recovered.store().ExportGraph()),
            ToSet(db.store().ExportGraph()));
}

}  // namespace
}  // namespace sedge
