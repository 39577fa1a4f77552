// Journal-streaming replication (DESIGN.md §14): the op-log journal,
// the non-idempotent-POST client guard, replica catch-up with
// byte-identical search, epoch fencing, truncation/divergence re-seed,
// and leader-loss failover through the cluster router.

#include "replication/replicator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "common/file_util.h"
#include "common/json.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/model_lake.h"
#include "digest_reference.h"
#include "nn/trainer.h"
#include "server/client.h"
#include "server/frontend.h"
#include "server/server.h"
#include "snapshot_write_fs.h"
#include "storage/intent_journal.h"

namespace mlake::replication {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kClasses = 4;

core::LakeOptions LakeOpts(const std::string& root) {
  core::LakeOptions options;
  options.root = root;
  options.input_dim = kDim;
  options.num_classes = kClasses;
  options.probe_count = 8;
  options.replication_log = true;
  return options;
}

std::unique_ptr<nn::Model> MakeModel(uint64_t seed) {
  Rng rng(seed);
  return nn::BuildModel(nn::MlpSpec(kDim, {8}, kClasses), &rng)
      .MoveValueUnsafe();
}

metadata::ModelCard Card(const std::string& id, const std::string& task) {
  metadata::ModelCard card;
  card.model_id = id;
  card.name = id;
  card.task = task;
  card.training_datasets = {task + "/synthetic"};
  card.creator = "replication-test";
  return card;
}

// ---------------------------------------------------------------------------
// Op-log journal semantics (storage layer)
// ---------------------------------------------------------------------------

TEST(OpLogJournalTest, CommitRetainsAbortDoesNot) {
  std::string dir = MakeTempDir("mlake-oplog").ValueOrDie();
  {
    auto journal = storage::IntentJournal::Open(dir, nullptr, true)
                       .MoveValueUnsafe();
    storage::Intent a;
    a.op = "ingest";
    a.ids = {"m1"};
    uint64_t seq_a = journal.Begin(a).ValueOrDie();
    storage::Intent b;
    b.op = "ingest";
    b.ids = {"m2"};
    uint64_t seq_b = journal.Begin(b).ValueOrDie();
    ASSERT_TRUE(journal.Commit(seq_a).ok());
    // Aborted (rolled-back) intents never enter the replayable log.
    ASSERT_TRUE(journal.Abort(seq_b).ok());

    auto committed = journal.Committed(1).ValueOrDie();
    ASSERT_EQ(committed.size(), 1u);
    EXPECT_EQ(committed[0].seq, seq_a);
    EXPECT_EQ(committed[0].ids, std::vector<std::string>{"m1"});
    EXPECT_EQ(journal.last_committed_seq(), seq_a);
  }
  // The log and the seq space survive reopen.
  auto reopened = storage::IntentJournal::Open(dir, nullptr, true)
                      .MoveValueUnsafe();
  EXPECT_EQ(reopened.Committed(1).ValueOrDie().size(), 1u);
  EXPECT_EQ(reopened.last_committed_seq(), 1u);
  storage::Intent c;
  c.op = "ingest";
  // The aborted seq 2 is NOT reused pending-vs-committed-safe? It may
  // be reused (nothing on disk holds it) — what matters is strictly
  // increasing beyond everything committed.
  EXPECT_GT(reopened.Begin(c).ValueOrDie(), 1u);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(OpLogJournalTest, BeginAtPreservesLeaderSeqAndEpoch) {
  std::string dir = MakeTempDir("mlake-oplog-at").ValueOrDie();
  auto journal =
      storage::IntentJournal::Open(dir, nullptr, true).MoveValueUnsafe();
  storage::Intent entry;
  entry.op = "ingest";
  entry.ids = {"m7"};
  entry.epoch = 42;  // the leader's epoch, not this journal's (0)
  ASSERT_EQ(journal.BeginAt(7, entry).ValueOrDie(), 7u);
  ASSERT_TRUE(journal.Commit(7).ok());
  auto committed = journal.Committed(1).ValueOrDie();
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(committed[0].seq, 7u);
  EXPECT_EQ(committed[0].epoch, 42u);
  // Duplicate positions are refused; fresh Begins move past the gap.
  EXPECT_FALSE(journal.BeginAt(7, entry).ok());
  storage::Intent next;
  next.op = "ingest";
  EXPECT_GT(journal.Begin(next).ValueOrDie(), 7u);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(OpLogJournalTest, TruncateIsDurableAcrossReopen) {
  std::string dir = MakeTempDir("mlake-oplog-trunc").ValueOrDie();
  {
    auto journal =
        storage::IntentJournal::Open(dir, nullptr, true).MoveValueUnsafe();
    for (int i = 0; i < 3; ++i) {
      storage::Intent entry;
      entry.op = "ingest";
      entry.ids = {"m" + std::to_string(i)};
      uint64_t seq = journal.Begin(entry).ValueOrDie();
      ASSERT_TRUE(journal.Commit(seq).ok());
    }
    ASSERT_TRUE(journal.Truncate(2).ok());
    EXPECT_EQ(journal.truncated_upto(), 2u);
    auto committed = journal.Committed(1).ValueOrDie();
    ASSERT_EQ(committed.size(), 1u);
    EXPECT_EQ(committed[0].seq, 3u);
  }
  // Reopen: the floor holds, GC'd entries stay gone, the seq space
  // does not reuse truncated positions.
  auto reopened =
      storage::IntentJournal::Open(dir, nullptr, true).MoveValueUnsafe();
  EXPECT_EQ(reopened.truncated_upto(), 2u);
  EXPECT_EQ(reopened.last_committed_seq(), 3u);
  EXPECT_EQ(reopened.Committed(1).ValueOrDie().size(), 1u);
  storage::Intent entry;
  entry.op = "ingest";
  EXPECT_EQ(reopened.Begin(entry).ValueOrDie(), 4u);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(OpLogJournalTest, EpochIsDurableAndMonotonic) {
  std::string dir = MakeTempDir("mlake-oplog-epoch").ValueOrDie();
  {
    auto journal =
        storage::IntentJournal::Open(dir, nullptr, true).MoveValueUnsafe();
    EXPECT_EQ(journal.epoch(), 0u);
    ASSERT_TRUE(journal.SetEpoch(5).ok());
    EXPECT_FALSE(journal.SetEpoch(3).ok());  // fencing is monotonic
    EXPECT_EQ(journal.epoch(), 5u);
    // New entries are stamped with the current epoch.
    storage::Intent entry;
    entry.op = "ingest";
    uint64_t seq = journal.Begin(entry).ValueOrDie();
    ASSERT_TRUE(journal.Commit(seq).ok());
    EXPECT_EQ(journal.Committed(1).ValueOrDie()[0].epoch, 5u);
  }
  auto reopened =
      storage::IntentJournal::Open(dir, nullptr, true).MoveValueUnsafe();
  EXPECT_EQ(reopened.epoch(), 5u);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// ---------------------------------------------------------------------------
// HttpClient: non-idempotent POSTs must not ride the keep-alive retry
// ---------------------------------------------------------------------------

TEST(ReplicatedPayloadTest, OutOfRangeEmbeddingIsCorruption) {
  // A shipped card ingest whose embedding holds a double beyond float
  // range (or an inf) is a corrupt payload: refused before anything
  // is applied, never narrowed into the index.
  auto dir = MakeTempDir("mlake-repl-payload");
  ASSERT_TRUE(dir.ok());
  auto lake = core::ModelLake::Open(LakeOpts(dir.ValueUnsafe()))
                  .MoveValueUnsafe();
  for (const char* bad : {"1e39", "-1e39", "1e400"}) {
    SCOPED_TRACE(bad);
    std::string emb = std::string("[") + bad;
    for (int64_t i = 1; i < lake->EmbeddingDim(); ++i) emb += ", 0.5";
    emb += "]";
    storage::Intent entry;
    entry.seq = 1;
    entry.epoch = lake->ReplicationEpoch();
    entry.op = "ingest";
    entry.ids = {"shipped"};
    entry.payload = Json::MakeObject();
    Json cards = Json::MakeArray();
    cards.Append(Card("shipped", "sum").ToJson());
    entry.payload.Set("cards", std::move(cards));
    Json embeddings = Json::MakeArray();
    embeddings.Append(Json::Parse(emb).ValueOrDie());
    entry.payload.Set("embeddings", std::move(embeddings));
    Status st = lake->ApplyReplicated(entry, {});
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_EQ(lake->NumModels(), 0u);
  }
  lake.reset();
  ASSERT_TRUE(RemoveAll(dir.ValueUnsafe()).ok());
}

TEST(ClientIdempotencyTest, NonIdempotentPostIsNotSilentlyResent) {
  std::string dir = MakeTempDir("mlake-noretry").ValueOrDie();
  core::LakeOptions options;
  options.root = dir;
  options.input_dim = kDim;
  options.num_classes = kClasses;
  auto lake = core::ModelLake::Open(options).MoveValueUnsafe();

  server::ServerOptions server_options;
  server_options.threads = 2;
  // Time idle connections out quickly so the second request of each
  // pair below hits the keep-alive race (server closed, client's fd
  // still open).
  server_options.keep_alive_timeout_ms = 50;
  server::LakeServer server(lake.get(), server_options);
  ASSERT_TRUE(server.Start().ok());
  server::HttpClient client("127.0.0.1", server.port());

  const std::string body =
      R"({"type": "mlql", "query": "FIND MODELS LIMIT 1"})";
  // Prime a keep-alive connection, let the server close it.
  auto first = client.Post("/v1/search", body);
  ASSERT_TRUE(first.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // Non-idempotent (the default): the client must surface the dead
  // connection instead of silently resending — the server may have
  // applied a half-delivered mutation before the connection died.
  auto second = client.Post("/v1/search", body);
  EXPECT_FALSE(second.ok());

  // Opting in re-enables the transparent retry for read-only POSTs.
  auto third = client.Post("/v1/search", body);  // fresh connection, ok
  ASSERT_TRUE(third.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  auto retried = client.Post("/v1/search", body, {}, /*timeout_ms=*/0,
                             /*idempotent=*/true);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.ValueUnsafe().status, 200);

  ASSERT_TRUE(server.Stop().ok());
  lake.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// ---------------------------------------------------------------------------
// Replica catch-up, fencing, divergence repair
// ---------------------------------------------------------------------------

/// One leader lake + server with a few models, an edge and a dataset,
/// rebuilt per test (mutation tests would otherwise interfere).
class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = MakeTempDir("mlake-replication").ValueOrDie();
    leader_dir_ = JoinPath(root_, "leader");
    replica_dir_ = JoinPath(root_, "replica");
    leader_lake_ =
        core::ModelLake::Open(LakeOpts(leader_dir_)).MoveValueUnsafe();

    auto m1 = MakeModel(1);
    auto m2 = MakeModel(2);
    auto m3 = MakeModel(3);
    ASSERT_TRUE(leader_lake_->IngestModel(*m1, Card("base-sum", "sum")).ok());
    ASSERT_TRUE(leader_lake_->IngestModel(*m2, Card("ft-sum", "sum")).ok());
    ASSERT_TRUE(leader_lake_->IngestModel(*m3, Card("mean-1", "mean")).ok());
    versioning::VersionEdge edge;
    edge.parent = "base-sum";
    edge.child = "ft-sum";
    edge.type = versioning::EdgeType::kFinetune;
    ASSERT_TRUE(leader_lake_->RecordEdge(edge).ok());
    ASSERT_TRUE(
        leader_lake_->RegisterDataset("corpus/sum", {"s1", "s2"}).ok());

    server::ServerOptions server_options;
    server_options.threads = 4;
    leader_server_ = std::make_unique<server::LakeServer>(leader_lake_.get(),
                                                          server_options);
    ASSERT_TRUE(leader_server_->Start().ok());
  }

  void TearDown() override {
    replicator_.reset();
    if (replica_server_ != nullptr) ASSERT_TRUE(replica_server_->Stop().ok());
    replica_server_.reset();
    replica_lake_.reset();
    if (leader_server_ != nullptr) ASSERT_TRUE(leader_server_->Stop().ok());
    leader_server_.reset();
    leader_lake_.reset();
    ASSERT_TRUE(RemoveAll(root_).ok());
  }

  /// Opens the replica lake + Replicator against the leader server.
  void OpenReplica() {
    replica_lake_ =
        core::ModelLake::Open(LakeOpts(replica_dir_)).MoveValueUnsafe();
    ReplicaOptions options;
    options.leader_port = leader_server_->port();
    replicator_ =
        Replicator::Open(replica_lake_.get(), options).MoveValueUnsafe();
  }

  /// Starts an mlaked over the replica lake with the replication seam.
  void StartReplicaServer() {
    server::ServerOptions options;
    options.threads = 4;
    options.replication = replicator_.get();
    replica_server_ = std::make_unique<server::LakeServer>(
        replica_lake_.get(), options);
    ASSERT_TRUE(replica_server_->Start().ok());
  }

  std::string root_, leader_dir_, replica_dir_;
  std::unique_ptr<core::ModelLake> leader_lake_;
  std::unique_ptr<server::LakeServer> leader_server_;
  std::unique_ptr<core::ModelLake> replica_lake_;
  std::unique_ptr<Replicator> replicator_;
  std::unique_ptr<server::LakeServer> replica_server_;
};

TEST_F(ReplicationTest, CatchUpIsByteIdenticalAcrossSearchKinds) {
  OpenReplica();
  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GE(applied.ValueUnsafe(), 4u);  // 3 ingests + edge + dataset
  EXPECT_EQ(replicator_->AppliedSeq(), leader_lake_->ReplicationLastSeq());

  // The logical state converged exactly.
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  EXPECT_EQ(replica_lake_->ListModels(), leader_lake_->ListModels());
  EXPECT_TRUE(replica_lake_->HasEdge("base-sum", "ft-sum"));
  EXPECT_EQ(replica_lake_->DatasetShards("corpus/sum").ValueOrDie(),
            leader_lake_->DatasetShards("corpus/sum").ValueOrDie());

  // Every search family answers byte-identically through HTTP.
  StartReplicaServer();
  server::HttpClient leader_client("127.0.0.1", leader_server_->port());
  server::HttpClient replica_client("127.0.0.1", replica_server_->port());
  const std::vector<std::string> bodies = {
      R"({"type": "ann", "id": "base-sum", "k": 3})",
      R"({"type": "keyword", "query": "sum", "k": 5})",
      R"({"type": "mlql", "query": "FIND MODELS WHERE task = 'sum' LIMIT 5"})",
      R"({"type": "hybrid", "query": "sum", "id": "base-sum", "k": 3})",
  };
  for (const std::string& body : bodies) {
    auto from_leader = leader_client.Post("/v1/search", body);
    auto from_replica = replica_client.Post("/v1/search", body);
    ASSERT_TRUE(from_leader.ok()) << body;
    ASSERT_TRUE(from_replica.ok()) << body;
    ASSERT_EQ(from_leader.ValueUnsafe().status, 200)
        << from_leader.ValueUnsafe().body;
    EXPECT_EQ(from_replica.ValueUnsafe().body, from_leader.ValueUnsafe().body)
        << body;
  }

  // The watermark is visible in /statsz and the replica fences ingest.
  auto statsz = replica_client.Get("/statsz");
  ASSERT_TRUE(statsz.ok());
  auto parsed = Json::Parse(statsz.ValueUnsafe().body).ValueOrDie();
  const Json* replication = parsed.Find("replication");
  ASSERT_NE(replication, nullptr);
  EXPECT_EQ(replication->GetString("role"), "replica");
  EXPECT_EQ(static_cast<uint64_t>(replication->GetInt64("applied_seq")),
            leader_lake_->ReplicationLastSeq());
  EXPECT_TRUE(replication->GetBool("caught_up"));
  auto fenced = replica_client.Post("/v1/ingest", "{}");
  ASSERT_TRUE(fenced.ok());
  EXPECT_EQ(fenced.ValueUnsafe().status, 409);
}

TEST_F(ReplicationTest, GovernanceExportIsByteIdenticalOnCaughtUpReplica) {
  OpenReplica();
  StartReplicaServer();
  server::HttpClient leader_client("127.0.0.1", leader_server_->port());
  server::HttpClient replica_client("127.0.0.1", replica_server_->port());

  // Before the first successful sync the replica cannot vouch for its
  // watermark, so governance reads answer 503 with a Retry-After hint
  // while plain reads keep serving.
  auto stale = replica_client.Get("/v1/export");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale.ValueUnsafe().status, 503);
  EXPECT_FALSE(stale.ValueUnsafe().Header("retry-after").empty());
  // (404, not 503: the model simply has not arrived yet — plain reads
  // are answered from whatever state the replica has.)
  auto plain = replica_client.Get("/v1/models/base-sum");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.ValueUnsafe().status, 404);

  ASSERT_TRUE(replicator_->SyncOnce().ok());
  ASSERT_EQ(replicator_->AppliedSeq(), leader_lake_->ReplicationLastSeq());

  // The export excludes revision/epoch counters by design, so a
  // caught-up replica drains byte-identically to its leader.
  auto drain = [](core::ModelLake* lake) {
    auto iterator = lake->OpenExport();
    std::string out, line;
    while (iterator->Next(&line)) out += line;
    return out;
  };
  const std::string from_leader = drain(leader_lake_.get());
  ASSERT_FALSE(from_leader.empty());
  EXPECT_EQ(drain(replica_lake_.get()), from_leader);

  // The same bytes come back through the chunked HTTP endpoint, and
  // the caught-up replica now serves them itself.
  auto leader_http = leader_client.Get("/v1/export");
  auto replica_http = replica_client.Get("/v1/export");
  ASSERT_TRUE(leader_http.ok());
  ASSERT_TRUE(replica_http.ok());
  ASSERT_EQ(leader_http.ValueUnsafe().status, 200);
  ASSERT_EQ(replica_http.ValueUnsafe().status, 200);
  EXPECT_EQ(leader_http.ValueUnsafe().body, from_leader);
  EXPECT_EQ(replica_http.ValueUnsafe().body, from_leader);

  // Citation documents agree too: replaying the leader's op log drives
  // the replica's graph through the same mutation sequence, so the
  // revision the citation pins converges along with the content.
  auto leader_cite = leader_client.Get("/v1/models/ft-sum/citation");
  auto replica_cite = replica_client.Get("/v1/models/ft-sum/citation");
  ASSERT_TRUE(leader_cite.ok());
  ASSERT_TRUE(replica_cite.ok());
  ASSERT_EQ(leader_cite.ValueUnsafe().status, 200);
  EXPECT_EQ(replica_cite.ValueUnsafe().body, leader_cite.ValueUnsafe().body);
}

TEST_F(ReplicationTest, IncrementalCatchUpFollowsNewWrites) {
  OpenReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  uint64_t watermark = replicator_->AppliedSeq();

  auto m4 = MakeModel(4);
  ASSERT_TRUE(leader_lake_->IngestModel(*m4, Card("late-1", "mean")).ok());
  versioning::VersionEdge edge;
  edge.parent = "mean-1";
  edge.child = "late-1";
  edge.type = versioning::EdgeType::kFinetune;
  ASSERT_TRUE(leader_lake_->RecordEdge(edge).ok());

  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.ValueUnsafe(), 2u);
  EXPECT_GT(replicator_->AppliedSeq(), watermark);
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  EXPECT_TRUE(replica_lake_->ArtifactDigest("late-1").ok());
}

TEST_F(ReplicationTest, RedeliveryAfterLostWatermarkIsIdempotent) {
  OpenReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  std::string fingerprint = replica_lake_->ReplicationFingerprint();

  // Simulate a lost watermark: delete the state file and reopen the
  // replicator. LoadState reconciles against the replica lake's own
  // journal, and any redelivered entries are detected and skipped.
  replicator_.reset();
  ASSERT_TRUE(RemoveAll(JoinPath(replica_dir_, "replica_state.json")).ok());
  ReplicaOptions options;
  options.leader_port = leader_server_->port();
  replicator_ =
      Replicator::Open(replica_lake_.get(), options).MoveValueUnsafe();
  EXPECT_EQ(replicator_->AppliedSeq(), leader_lake_->ReplicationLastSeq());
  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.ValueUnsafe(), 0u);
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(), fingerprint);
}

TEST_F(ReplicationTest, StaleEpochShipIsFenced) {
  // The leader moves to epoch 3; the replica adopts it during catch-up.
  ASSERT_TRUE(leader_lake_->SetReplicationEpoch(3).ok());
  auto m4 = MakeModel(9);
  ASSERT_TRUE(leader_lake_->IngestModel(*m4, Card("epoch3", "sum")).ok());
  OpenReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  EXPECT_EQ(replicator_->epoch(), 3u);
  EXPECT_EQ(replica_lake_->ReplicationEpoch(), 3u);

  // A partitioned old leader (epoch 2) pushing a batch is rejected.
  Json stale = Json::MakeObject();
  stale.Set("epoch", static_cast<int64_t>(2));
  stale.Set("last_seq", static_cast<int64_t>(99));
  stale.Set("entries", Json::MakeArray());
  auto shipped = replicator_->Ship(stale);
  ASSERT_FALSE(shipped.ok());
  EXPECT_TRUE(shipped.status().IsFailedPrecondition());

  // The current leader's (empty) batch at epoch 3 is fine.
  Json fresh = Json::MakeObject();
  fresh.Set("epoch", static_cast<int64_t>(3));
  fresh.Set("last_seq",
            Json(static_cast<int64_t>(leader_lake_->ReplicationLastSeq())));
  fresh.Set("entries", Json::MakeArray());
  fresh.Set("exhausted", true);
  EXPECT_TRUE(replicator_->Ship(fresh).ok());
}

TEST_F(ReplicationTest, LogTruncationForcesSnapshotReseed) {
  // The leader GC's its whole log before the replica ever connects —
  // the replica's from_seq=1 pull answers 409 and re-seeds wholesale.
  ASSERT_TRUE(leader_lake_->TruncateReplicationLog(
                  leader_lake_->ReplicationLastSeq())
                  .ok());
  OpenReplica();
  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(replicator_->seed_installs(), 1u);
  EXPECT_EQ(replicator_->AppliedSeq(), leader_lake_->ReplicationLastSeq());
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  EXPECT_EQ(replica_lake_->ListModels(), leader_lake_->ListModels());
  EXPECT_TRUE(replica_lake_->HasEdge("base-sum", "ft-sum"));
}

TEST_F(ReplicationTest, DivergenceIsDetectedAndRepaired) {
  OpenReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());

  // Corrupt the replica out-of-band: a model the leader never saw.
  auto rogue = MakeModel(77);
  ASSERT_TRUE(
      replica_lake_->IngestModel(*rogue, Card("rogue", "sum")).ok());
  ASSERT_NE(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());

  // The periodic fingerprint exchange catches it and re-seeds.
  ASSERT_TRUE(replicator_->CheckDivergence().ok());
  EXPECT_EQ(replicator_->seed_installs(), 1u);
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  EXPECT_EQ(replica_lake_->ListModels(), leader_lake_->ListModels());
  EXPECT_FALSE(replica_lake_->ArtifactDigest("rogue").ok());
}

// ---------------------------------------------------------------------------
// Seed bootstrap: an empty replica installs the leader's published index
// generation plus its records, then replays only the log tail
// ---------------------------------------------------------------------------

/// Metadata-only models for the seed tests (the fixture's three
/// artifact models ride along, so blob fetches are covered too).
std::vector<core::CardIngest> CardBatch(core::ModelLake* lake,
                                        const std::string& prefix, int n,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<core::CardIngest> batch(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    batch[i].card = Card(StrFormat("%s-%02d", prefix.c_str(), i),
                         i % 2 == 0 ? "sum" : "mean");
    for (int64_t d = 0; d < lake->EmbeddingDim(); ++d) {
      batch[i].embedding.push_back(static_cast<float>(rng.Uniform(-1, 1)));
    }
  }
  return batch;
}

/// Every search family, the governance export and a citation answer
/// byte-identically on replica and leader.
void ExpectServesLikeLeader(int leader_port, int replica_port) {
  server::HttpClient leader("127.0.0.1", leader_port);
  server::HttpClient replica("127.0.0.1", replica_port);
  const std::vector<std::string> bodies = {
      R"({"type": "ann", "id": "base-sum", "k": 5})",
      R"({"type": "ann", "id": "seed-03", "k": 8})",
      R"({"type": "keyword", "query": "sum", "k": 10})",
      R"({"type": "keyword", "query": "mean synthetic", "k": 10})",
      R"({"type": "mlql", "query": "FIND MODELS WHERE task = 'mean' LIMIT 20"})",
      R"({"type": "hybrid", "query": "sum", "id": "base-sum", "k": 6})",
  };
  for (const std::string& body : bodies) {
    auto from_leader = leader.Post("/v1/search", body);
    auto from_replica = replica.Post("/v1/search", body);
    ASSERT_TRUE(from_leader.ok()) << body;
    ASSERT_TRUE(from_replica.ok()) << body;
    ASSERT_EQ(from_leader.ValueUnsafe().status, 200)
        << from_leader.ValueUnsafe().body;
    EXPECT_EQ(from_replica.ValueUnsafe().body, from_leader.ValueUnsafe().body)
        << body;
  }
  for (const std::string& target :
       {std::string("/v1/export"),
        std::string("/v1/models/ft-sum/citation")}) {
    auto from_leader = leader.Get(target);
    auto from_replica = replica.Get(target);
    ASSERT_TRUE(from_leader.ok()) << target;
    ASSERT_TRUE(from_replica.ok()) << target;
    ASSERT_EQ(from_replica.ValueUnsafe().status, 200) << target;
    EXPECT_EQ(from_replica.ValueUnsafe().body, from_leader.ValueUnsafe().body)
        << target;
  }
}

// Starting point 1: the leader compacted and wrote nothing since. The
// replica installs the seed, applies no log entry, reports the leader's
// generation, and its own compaction pass is a no-op.
TEST_F(ReplicationTest, EmptyReplicaBootstrapsFromPublishedGeneration) {
  ASSERT_TRUE(
      leader_lake_->IngestCards(CardBatch(leader_lake_.get(), "seed", 24, 3))
          .ok());
  ASSERT_TRUE(leader_lake_->CompactIndices().ok());
  ASSERT_GT(leader_lake_->IndexGeneration(), 0u);
  OpenReplica();
  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.ValueUnsafe(), 0u);
  EXPECT_EQ(replicator_->entries_applied(), 0u);
  EXPECT_EQ(replicator_->seed_installs(), 1u);
  EXPECT_EQ(replicator_->AppliedSeq(), leader_lake_->ReplicationLastSeq());
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  EXPECT_EQ(replica_lake_->IndexGeneration(), leader_lake_->IndexGeneration());
  ASSERT_TRUE(replica_lake_->CompactIndices().ok());
  Json passes = *replica_lake_->IndexStatsJson().Find("compactions");
  EXPECT_EQ(passes.GetInt64("published"), 0);
  EXPECT_EQ(passes.GetInt64("aborted"), 0);
  EXPECT_GE(passes.GetInt64("skipped"), 1);
  EXPECT_EQ(replica_lake_->IndexGeneration(), leader_lake_->IndexGeneration());

  StartReplicaServer();
  ExpectServesLikeLeader(leader_server_->port(), replica_server_->port());
  server::HttpClient client("127.0.0.1", replica_server_->port());
  auto statsz = client.Get("/statsz");
  ASSERT_TRUE(statsz.ok());
  auto parsed = Json::Parse(statsz.ValueUnsafe().body).ValueOrDie();
  const Json* replication = parsed.Find("replication");
  ASSERT_NE(replication, nullptr);
  EXPECT_EQ(replication->GetInt64("seed_installs"), 1);
  EXPECT_EQ(replication->GetInt64("entries_applied"), 0);

  // The replica keeps following: later writes arrive through the log.
  auto m4 = MakeModel(4);
  ASSERT_TRUE(leader_lake_->IngestModel(*m4, Card("late-1", "mean")).ok());
  auto more = replicator_->SyncOnce();
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_EQ(more.ValueUnsafe(), 1u);
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
}

// Starting point 2: the leader compacted, then took more ingests (both
// kinds), an edge and a dataset. The seed is cut at the generation; the
// replica replays exactly the later entries in the leader's batches, so
// its delta segment — and every answer — matches the leader's.
TEST_F(ReplicationTest, SeedCutAtGenerationThenTailReplays) {
  ASSERT_TRUE(
      leader_lake_->IngestCards(CardBatch(leader_lake_.get(), "seed", 24, 3))
          .ok());
  ASSERT_TRUE(leader_lake_->CompactIndices().ok());
  const uint64_t covered = leader_lake_->ReplicationLastSeq();
  ASSERT_TRUE(
      leader_lake_->IngestCards(CardBatch(leader_lake_.get(), "tail", 9, 4))
          .ok());
  auto m4 = MakeModel(4);
  ASSERT_TRUE(leader_lake_->IngestModel(*m4, Card("late-1", "mean")).ok());
  versioning::VersionEdge edge;
  edge.parent = "mean-1";
  edge.child = "late-1";
  edge.type = versioning::EdgeType::kFinetune;
  ASSERT_TRUE(leader_lake_->RecordEdge(edge).ok());
  ASSERT_TRUE(leader_lake_->RegisterDataset("corpus/late", {"s3"}).ok());
  // Four entries after the generation (the pass itself held a seq that
  // never enters the log).
  const uint64_t tail = 4;
  ASSERT_GT(leader_lake_->ReplicationLastSeq(), covered + tail - 1);

  OpenReplica();
  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.ValueUnsafe(), tail);
  EXPECT_EQ(replicator_->seed_installs(), 1u);
  EXPECT_EQ(replicator_->AppliedSeq(), leader_lake_->ReplicationLastSeq());
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  EXPECT_EQ(replica_lake_->IndexGeneration(), leader_lake_->IndexGeneration());
  Json leader_ann = *leader_lake_->IndexStatsJson().Find("ann");
  Json replica_ann = *replica_lake_->IndexStatsJson().Find("ann");
  EXPECT_EQ(replica_ann.Dump(), leader_ann.Dump());

  StartReplicaServer();
  ExpectServesLikeLeader(leader_server_->port(), replica_server_->port());
}

// The seed carries the lineage revision the generation covers, so a
// replica that replays the tail lands on the leader's revision — and on
// its citation bytes, which pin it — even when later writes move the
// revision in ways the log cannot tell apart: an edge auto-registering
// a metadata-only model (no bump for the node), or an artifact ingest
// of a model an earlier edge already made a node (no bump either).
TEST_F(ReplicationTest, SeedCarriesGraphRevisionOfItsCut) {
  versioning::VersionEdge early;
  early.parent = "base-sum";
  early.child = "late-2";  // a node before its artifact arrives
  early.type = versioning::EdgeType::kFinetune;
  ASSERT_TRUE(leader_lake_->RecordEdge(early).ok());
  ASSERT_TRUE(
      leader_lake_->IngestCards(CardBatch(leader_lake_.get(), "seed", 12, 3))
          .ok());
  ASSERT_TRUE(leader_lake_->CompactIndices().ok());
  ASSERT_TRUE(
      leader_lake_->IngestCards(CardBatch(leader_lake_.get(), "tail", 4, 4))
          .ok());
  versioning::VersionEdge to_card;
  to_card.parent = "mean-1";
  to_card.child = "tail-01";  // metadata-only, not yet a graph node
  to_card.type = versioning::EdgeType::kFinetune;
  ASSERT_TRUE(leader_lake_->RecordEdge(to_card).ok());
  auto m5 = MakeModel(5);
  ASSERT_TRUE(leader_lake_->IngestModel(*m5, Card("late-2", "sum")).ok());

  OpenReplica();
  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(replicator_->seed_installs(), 1u);
  EXPECT_EQ(applied.ValueUnsafe(), 3u);
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  StartReplicaServer();
  ExpectServesLikeLeader(leader_server_->port(), replica_server_->port());
  server::HttpClient leader("127.0.0.1", leader_server_->port());
  server::HttpClient replica("127.0.0.1", replica_server_->port());
  for (const std::string& id : {"tail-01", "late-2", "mean-1"}) {
    const std::string target = "/v1/models/" + id + "/citation";
    auto from_leader = leader.Get(target);
    auto from_replica = replica.Get(target);
    ASSERT_TRUE(from_leader.ok() && from_replica.ok()) << target;
    ASSERT_EQ(from_leader.ValueUnsafe().status, 200) << target;
    EXPECT_EQ(from_replica.ValueUnsafe().body, from_leader.ValueUnsafe().body)
        << target;
  }
}

// A leader whose seed cannot be had — refused as too large for one
// response — still bootstraps an empty replica: the replica falls back
// to the log, which the leader serves from seq 1. The stand-in leader
// forwards everything to the real one but refuses the seed the way an
// oversized one is refused.
TEST_F(ReplicationTest, OversizedSeedFallsBackToLogReplay) {
  ASSERT_TRUE(
      leader_lake_->IngestCards(CardBatch(leader_lake_.get(), "seed", 24, 3))
          .ok());
  ASSERT_TRUE(leader_lake_->CompactIndices().ok());
  ASSERT_GT(leader_lake_->ReplicationSeedSeq(), 0u);
  const int real_port = leader_server_->port();
  std::atomic<int> seed_requests{0};
  auto forward = [real_port](server::RequestContext& ctx) {
    server::HttpClient client("127.0.0.1", real_port);
    auto response = client.Get(ctx.request.target);
    if (!response.ok()) return server::ErrorResponse(response.status());
    server::HttpResponse out;  // JSON, like every forwarded route
    out.status = response.ValueUnsafe().status;
    out.body = std::move(response.ValueUnsafe().body);
    return out;
  };
  std::vector<server::Route> routes = {
      {"GET", "/v1/replication/seed",
       [&seed_requests](server::RequestContext&) {
         ++seed_requests;
         return server::ErrorResponse(Status::ResourceExhausted(
             "replication seed exceeds the cap; replay the log instead"));
       }},
      {"GET", "/v1/replication/{rest}", forward},
  };
  server::HttpFrontend stand_in(server::FrontendOptions{}, std::move(routes));
  ASSERT_TRUE(stand_in.Start().ok());

  replica_lake_ =
      core::ModelLake::Open(LakeOpts(replica_dir_)).MoveValueUnsafe();
  ReplicaOptions options;
  options.leader_port = stand_in.port();
  replicator_ =
      Replicator::Open(replica_lake_.get(), options).MoveValueUnsafe();
  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(stand_in.Stop().ok());
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(seed_requests.load(), 1);
  EXPECT_EQ(replicator_->seed_installs(), 0u);
  EXPECT_EQ(replicator_->entries_applied(), 6u);
  EXPECT_EQ(replicator_->AppliedSeq(), leader_lake_->ReplicationLastSeq());
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  StartReplicaServer();
  ExpectServesLikeLeader(leader_server_->port(), replica_server_->port());
}

/// Parks the first index snapshot write after Arm() until Release(),
/// so a test can hold a compaction pass in its lock-free write phase.
class ParkingFs final : public SnapshotWriteFs {
 public:
  using SnapshotWriteFs::SnapshotWriteFs;

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  void OnSnapshotWrite(const std::string&) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return;
    armed_ = false;
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool parked_ = false;
  bool released_ = false;
};

// A seed install never overlaps a compaction pass on the same replica.
// The replica's own pass (generation 1, from its empty catalog) is held
// while writing its files; the bootstrap seed also carries generation
// 1. The install waits for the pass, so the generation the replica
// publishes — and reopens on — is the leader's, file for file.
TEST_F(ReplicationTest, SeedInstallWaitsForRunningCompactionPass) {
  ASSERT_TRUE(
      leader_lake_->IngestCards(CardBatch(leader_lake_.get(), "seed", 24, 3))
          .ok());
  ASSERT_TRUE(leader_lake_->CompactIndices().ok());
  ASSERT_EQ(leader_lake_->IndexGeneration(), 1u);

  ParkingFs parking(JoinPath(replica_dir_, "index"));
  core::LakeOptions replica_options = LakeOpts(replica_dir_);
  replica_options.fs = &parking;
  replica_lake_ = core::ModelLake::Open(replica_options).MoveValueUnsafe();
  ReplicaOptions options;
  options.leader_port = leader_server_->port();
  replicator_ =
      Replicator::Open(replica_lake_.get(), options).MoveValueUnsafe();

  parking.Arm();
  Status pass;
  std::thread compactor([&] { pass = replica_lake_->CompactIndices(); });
  parking.WaitParked();
  Result<size_t> synced = Status::Internal("not run");
  std::thread syncer([&] { synced = replicator_->SyncOnce(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  parking.Release();
  compactor.join();
  syncer.join();
  ASSERT_TRUE(synced.ok()) << synced.status().ToString();
  EXPECT_TRUE(pass.ok() || pass.IsUnavailable()) << pass.ToString();
  EXPECT_EQ(replicator_->seed_installs(), 1u);
  EXPECT_EQ(replica_lake_->IndexGeneration(), 1u);

  for (const char* name :
       {"MANIFEST.json", "ann.1.snap", "bm25.1.snap", "lsh.1.snap",
        "ids.1.snap"}) {
    auto on_leader = ReadFile(JoinPath(JoinPath(leader_dir_, "index"), name));
    auto on_replica =
        ReadFile(JoinPath(JoinPath(replica_dir_, "index"), name));
    ASSERT_TRUE(on_leader.ok() && on_replica.ok()) << name;
    EXPECT_EQ(on_replica.ValueUnsafe(), on_leader.ValueUnsafe()) << name;
  }
  replicator_.reset();
  replica_lake_.reset();
  OpenReplica();
  EXPECT_EQ(replica_lake_->IndexGeneration(), 1u);
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  EXPECT_EQ(replicator_->entries_applied(), 0u);
  Json leader_ann = *leader_lake_->IndexStatsJson().Find("ann");
  Json replica_ann = *replica_lake_->IndexStatsJson().Find("ann");
  EXPECT_EQ(replica_ann.Dump(), leader_ann.Dump());
  StartReplicaServer();
  ExpectServesLikeLeader(leader_server_->port(), replica_server_->port());
}

// Starting point 3: no generation on the leader. Nothing is advertised,
// and the log replays from seq 1 as before.
TEST_F(ReplicationTest, WithoutGenerationTheLogReplays) {
  ASSERT_TRUE(
      leader_lake_->IngestCards(CardBatch(leader_lake_.get(), "seed", 24, 3))
          .ok());
  EXPECT_EQ(leader_lake_->ReplicationSeedSeq(), 0u);
  OpenReplica();
  auto applied = replicator_->SyncOnce();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.ValueUnsafe(), leader_lake_->ReplicationLastSeq());
  EXPECT_EQ(replicator_->seed_installs(), 0u);
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  StartReplicaServer();
  ExpectServesLikeLeader(leader_server_->port(), replica_server_->port());
}

// A diverged replica with a log of its own re-seeds at the leader's
// generation (below its own high-water mark) and replays the tail.
TEST_F(ReplicationTest, DivergedReplicaReseedsBelowItsWatermark) {
  OpenReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  ASSERT_TRUE(
      leader_lake_->IngestCards(CardBatch(leader_lake_.get(), "seed", 12, 3))
          .ok());
  ASSERT_TRUE(leader_lake_->CompactIndices().ok());
  ASSERT_TRUE(
      leader_lake_->IngestCards(CardBatch(leader_lake_.get(), "tail", 5, 4))
          .ok());
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  auto rogue = MakeModel(77);
  ASSERT_TRUE(replica_lake_->IngestModel(*rogue, Card("rogue", "sum")).ok());
  ASSERT_TRUE(replicator_->CheckDivergence().ok());
  EXPECT_EQ(replicator_->seed_installs(), 1u);
  // The seed sits at the generation; the tail comes back through the log.
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  EXPECT_EQ(replicator_->AppliedSeq(), leader_lake_->ReplicationLastSeq());
  EXPECT_EQ(replica_lake_->ReplicationFingerprint(),
            leader_lake_->ReplicationFingerprint());
  EXPECT_FALSE(replica_lake_->ArtifactDigest("rogue").ok());
  StartReplicaServer();
  ExpectServesLikeLeader(leader_server_->port(), replica_server_->port());
}

TEST_F(ReplicationTest, PromoteBumpsEpochAndAcceptsWrites) {
  OpenReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  StartReplicaServer();
  server::HttpClient client("127.0.0.1", replica_server_->port());

  // mlake promote = POST /v1/replication/promote.
  auto promoted = client.Post("/v1/replication/promote", "{}", {});
  ASSERT_TRUE(promoted.ok());
  ASSERT_EQ(promoted.ValueUnsafe().status, 200)
      << promoted.ValueUnsafe().body;
  auto body = Json::Parse(promoted.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(body.GetString("role"), "leader");
  EXPECT_FALSE(replicator_->IsReplica());
  EXPECT_GT(replicator_->epoch(), 0u);
  EXPECT_EQ(replica_lake_->ReplicationEpoch(), replicator_->epoch());

  // Ingest is no longer fenced; the write lands in the promoted lake's
  // own op log under the new epoch.
  uint64_t before = replica_lake_->ReplicationLastSeq();
  auto m5 = MakeModel(5);
  ASSERT_TRUE(replica_lake_->IngestModel(*m5, Card("post-promote", "sum"))
                  .ok());
  EXPECT_GT(replica_lake_->ReplicationLastSeq(), before);
  auto log = replica_lake_->ReplicationLogJson(before + 1, 16).ValueOrDie();
  const Json* entries = log.Find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_GE(entries->size(), 1u);
  EXPECT_EQ(static_cast<uint64_t>(
                entries->AsArray().back().GetInt64("epoch")),
            replicator_->epoch());

  // A second promote is a no-op, not an error.
  auto again = client.Post("/v1/replication/promote", "{}", {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueUnsafe().status, 200);
}

// ---------------------------------------------------------------------------
// Leader loss through the router: reads keep flowing, promote restores
// writes
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, RouterFailsReadsOverToReplicaOnLeaderLoss) {
  OpenReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  StartReplicaServer();

  cluster::RouterOptions options;
  options.cluster_size = 1;
  options.backends = {
      {"127.0.0.1", leader_server_->port(), 0},
      {"127.0.0.1", replica_server_->port(), 0},
  };
  options.heartbeat_misses_down = 1;
  options.enable_hedging = false;
  cluster::Router router(options);
  ASSERT_TRUE(router.Start().ok());
  router.TickNow();

  // Role-aware map: both backends serve reads (replica preferred), only
  // the leader takes writes.
  auto map = router.CurrentMap();
  ASSERT_NE(map, nullptr);
  ASSERT_EQ(map->replicas[0].size(), 2u);
  EXPECT_EQ(map->replicas[0][0], 1) << "reads should prefer the replica";
  ASSERT_EQ(map->writers[0].size(), 1u);
  EXPECT_EQ(map->writers[0][0], 0);

  server::HttpClient client("127.0.0.1", router.port());
  const std::string search_body =
      R"({"type": "keyword", "query": "sum", "k": 3})";
  auto before_loss = client.Post("/v1/search", search_body);
  ASSERT_TRUE(before_loss.ok());
  ASSERT_EQ(before_loss.ValueUnsafe().status, 200)
      << before_loss.ValueUnsafe().body;

  // Kill the leader. Reads must keep answering via the replica.
  ASSERT_TRUE(leader_server_->Stop().ok());
  router.TickNow();
  auto after_loss = client.Post("/v1/search", search_body);
  ASSERT_TRUE(after_loss.ok()) << after_loss.status().ToString();
  ASSERT_EQ(after_loss.ValueUnsafe().status, 200)
      << after_loss.ValueUnsafe().body;
  EXPECT_EQ(after_loss.ValueUnsafe().body, before_loss.ValueUnsafe().body);
  auto read = client.Get("/v1/models/base-sum");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.ValueUnsafe().status, 200);

  // Promote the replica; the router learns the new role from the next
  // heartbeat and the slot becomes writable again.
  server::HttpClient replica_client("127.0.0.1", replica_server_->port());
  auto promoted = replica_client.Post("/v1/replication/promote", "{}", {});
  ASSERT_TRUE(promoted.ok());
  ASSERT_EQ(promoted.ValueUnsafe().status, 200);
  router.TickNow();
  map = router.CurrentMap();
  // The dead leader is still listed (failover would walk past it), but
  // the healthy promoted replica ranks first and takes the writes.
  ASSERT_GE(map->writers[0].size(), 1u);
  EXPECT_EQ(map->writers[0][0], 1) << "promoted replica takes writes";

  ASSERT_TRUE(router.Stop().ok());
}

// ---------------------------------------------------------------------------
// Maintained fingerprint vs a rebuilt reference
// ---------------------------------------------------------------------------

/// The fingerprint rebuilt from the lake's current catalog and lineage
/// with the test-local algebra (see digest_reference.h).
std::string ReferenceFingerprint(const core::ModelLake& lake) {
  namespace ref = digest_reference;
  std::string concatenated;
  for (const char* kind : {"model", "card", "embedding", "dataset"}) {
    std::vector<ref::Bytes32> records;
    for (const std::string& id : lake.catalog()->ListIds(kind)) {
      std::string bytes =
          lake.catalog()->GetDoc(kind, id).ValueOrDie().Dump();
      records.push_back(ref::Record(kind, id, bytes));
    }
    ref::Bytes32 sum = ref::Sum(records);
    concatenated.append(sum.begin(), sum.end());
  }
  std::vector<ref::Bytes32> edges;
  for (const versioning::VersionEdge& e : lake.graph().Edges()) {
    edges.push_back(ref::Sha(StrFormat(
        "edge|%s|%s|%s|%.17g|%s", e.parent.c_str(), e.child.c_str(),
        std::string(versioning::EdgeTypeToString(e.type)).c_str(),
        e.confidence, e.params.is_null() ? "" : e.params.Dump().c_str())));
  }
  ref::Bytes32 edge_sum = ref::Sum(edges);
  concatenated.append(edge_sum.begin(), edge_sum.end());
  ref::Bytes32 out = ref::Sha(concatenated);
  return ToHex(out.data(), out.size());
}

class FingerprintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = MakeTempDir("mlake-fingerprint").ValueOrDie();
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(root_).ok()); }

  std::unique_ptr<core::ModelLake> Open(const std::string& name) {
    auto lake = core::ModelLake::Open(LakeOpts(JoinPath(root_, name)));
    EXPECT_TRUE(lake.ok()) << lake.status().ToString();
    return lake.ok() ? lake.MoveValueUnsafe() : nullptr;
  }

  /// One seeded random write: artifact or metadata-only ingest, card
  /// overwrite, lineage edge, dataset registration, or a write to a
  /// local-only kind (which must not move the fingerprint).
  void RandomWrite(core::ModelLake* lake, Rng* rng, int step) {
    std::vector<std::string> ids = lake->ListModels();
    const uint64_t dice = rng->NextBelow(8);
    if (dice == 0 || ids.size() < 3) {
      auto model = MakeModel(1000 + static_cast<uint64_t>(step));
      ASSERT_TRUE(
          lake->IngestModel(*model, Card(StrFormat("a-%03d", step), "sum"))
              .ok());
    } else if (dice == 1) {
      core::CardIngest ingest;
      ingest.card = Card(StrFormat("c-%03d", step), "mean");
      for (int64_t i = 0; i < lake->EmbeddingDim(); ++i) {
        ingest.embedding.push_back(static_cast<float>(rng->Uniform(-1, 1)));
      }
      ASSERT_TRUE(lake->IngestCards({ingest}).ok());
    } else if (dice == 2) {
      const std::string& id = ids[rng->NextBelow(ids.size())];
      metadata::ModelCard card = Card(id, step % 2 ? "sum" : "mean");
      card.creator = StrFormat("editor-%d", step);
      ASSERT_TRUE(lake->UpdateCard(card).ok());
    } else if (dice == 3) {
      // Older -> newer artifact models only, so no edge closes a cycle.
      std::vector<std::string> artifacts;
      for (const std::string& id : ids) {
        if (StartsWith(id, "a-")) artifacts.push_back(id);
      }
      if (artifacts.size() < 2) return;
      size_t i = rng->NextBelow(artifacts.size());
      size_t j = rng->NextBelow(artifacts.size());
      if (i == j) return;
      versioning::VersionEdge edge;
      edge.parent = artifacts[std::min(i, j)];
      edge.child = artifacts[std::max(i, j)];
      edge.type = static_cast<versioning::EdgeType>(rng->NextBelow(8));
      edge.confidence = rng->NextDouble();
      edge.params = Json::MakeObject();
      edge.params.Set("step", step);
      (void)lake->RecordEdge(edge);  // duplicates are refused
    } else if (dice == 4) {
      ASSERT_TRUE(lake->RegisterDataset(StrFormat("corpus/%d", step),
                                        {StrFormat("shard-%d", step)})
                      .ok());
    } else {
      // Local-only kinds: quarantine markers and the persisted graph.
      const std::string before = lake->ReplicationFingerprint();
      const std::string& id = ids[rng->NextBelow(ids.size())];
      Json marker = Json::MakeObject();
      marker.Set("reason", StrFormat("step %d", step));
      ASSERT_TRUE(lake->catalog()->PutDoc("degraded", id, marker).ok());
      EXPECT_EQ(lake->ReplicationFingerprint(), before);
      ASSERT_TRUE(lake->catalog()->DeleteDoc("degraded", id).ok());
      EXPECT_EQ(lake->ReplicationFingerprint(), before);
      Json graph_doc = lake->graph().ToJson();
      graph_doc.Set("revision",
                    static_cast<int64_t>(lake->graph().revision() + 7));
      ASSERT_TRUE(lake->catalog()->PutDoc("graph", "main", graph_doc).ok());
      EXPECT_EQ(lake->ReplicationFingerprint(), before);
    }
  }

  std::string root_;
};

// A seeded random write sequence, with an ingest rolled back on reopen
// (ModelGraph::RemoveModel drops its edges), the catalog's own
// auto-compaction, a torn catalog tail and a re-seed from another lake:
// the maintained fingerprint equals the rebuilt reference after
// every step.
TEST_F(FingerprintTest, MaintainedFingerprintMatchesReference) {
  Rng rng(5);
  auto lake = Open("a");
  ASSERT_NE(lake, nullptr);
  for (int step = 0; step < 48; ++step) {
    RandomWrite(lake.get(), &rng, step);
    ASSERT_EQ(lake->ReplicationFingerprint(), ReferenceFingerprint(*lake))
        << "step " << step;
  }
  ASSERT_GT(lake->graph().NumEdges(), 0u);

  // Card overwrites until the catalog log auto-compacts (it shrinks).
  const std::string catalog_log =
      JoinPath(JoinPath(root_, "a"), "catalog.log");
  bool compacted = false;
  std::vector<std::string> ids = lake->ListModels();
  for (int i = 0; i < 4000 && !compacted; ++i) {
    uint64_t before = FileSize(catalog_log).ValueOrDie();
    metadata::ModelCard card = Card(ids[i % ids.size()], "sum");
    card.creator = std::string(static_cast<size_t>(200 + i % 50), 'z');
    ASSERT_TRUE(lake->UpdateCard(card).ok());
    compacted = FileSize(catalog_log).ValueOrDie() < before;
  }
  EXPECT_TRUE(compacted) << "catalog auto-compaction never fired";
  EXPECT_EQ(lake->ReplicationFingerprint(), ReferenceFingerprint(*lake));

  // Ingest rollback: a pending intent for an artifact model that has
  // lineage edges is rolled back by the next Open.
  std::string victim;
  for (const versioning::VersionEdge& e : lake->graph().Edges()) {
    victim = e.child;
  }
  storage::Intent pending;
  pending.op = "ingest";
  pending.ids = {victim};
  pending.digests = {lake->ArtifactDigest(victim).ValueOrDie()};
  lake.reset();
  {
    auto journal = storage::IntentJournal::Open(
                       JoinPath(JoinPath(root_, "a"), "journal"), nullptr, true)
                       .MoveValueUnsafe();
    ASSERT_TRUE(journal.Begin(pending).ok());
  }
  lake = Open("a");
  ASSERT_NE(lake, nullptr);
  EXPECT_EQ(lake->recovery().rolled_back_intents, 1u);
  EXPECT_FALSE(lake->graph().HasModel(victim));
  EXPECT_EQ(lake->ReplicationFingerprint(), ReferenceFingerprint(*lake));

  // Torn catalog tail: replay drops it; the digests are rebuilt exactly.
  const std::string settled = lake->ReplicationFingerprint();
  lake.reset();
  ASSERT_TRUE(AppendFile(catalog_log, std::string("\x5a\x00\x00\x00\x01"
                                                  "card/torn", 14))
                  .ok());
  lake = Open("a");
  ASSERT_NE(lake, nullptr);
  EXPECT_EQ(lake->ReplicationFingerprint(), settled);
  EXPECT_EQ(lake->ReplicationFingerprint(), ReferenceFingerprint(*lake));

  // Re-seed a diverged lake from this one's manifest.
  auto other = Open("b");
  ASSERT_NE(other, nullptr);
  Rng other_rng(6);
  for (int step = 0; step < 12; ++step) {
    RandomWrite(other.get(), &other_rng, 500 + step);
  }
  ASSERT_NE(other->ReplicationFingerprint(), lake->ReplicationFingerprint());
  core::ModelLake* source = lake.get();
  auto seed = core::ReplicationSeed::Parse(
      source->EncodeReplicationSeed().ValueOrDie(), {});
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();
  ASSERT_TRUE(other
                  ->InstallReplicationSeed(
                      seed.ValueUnsafe(),
                      [source](const std::string& digest) {
                        return source->ReadBlob(digest);
                      })
                  .ok());
  EXPECT_EQ(other->ReplicationFingerprint(), ReferenceFingerprint(*other));
  EXPECT_EQ(other->ReplicationFingerprint(), lake->ReplicationFingerprint());
}

}  // namespace
}  // namespace mlake::replication
