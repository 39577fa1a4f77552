#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/hash.h"
#include "nn/trainer.h"
#include "server/client.h"
#include "server/http.h"
#include "storage/model_artifact.h"

namespace mlake::cluster {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kClasses = 4;

core::LakeOptions LakeOpts() {
  core::LakeOptions options;
  options.input_dim = kDim;
  options.num_classes = kClasses;
  options.probe_count = 12;
  return options;
}

struct TestModel {
  std::string id;
  std::string artifact;  // serialized bytes (digest = routing key)
  metadata::ModelCard card;
};

/// Trained models + a single-lake oracle server, built once: every
/// cluster arrangement must answer searches byte-identically (in the
/// "models" field) to this one merged lake.
class ClusterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    models_ = new std::vector<TestModel>;
    const char* families[] = {"sum", "mean"};
    const char* domains[] = {"legal", "news", "social", "finance"};
    for (uint64_t i = 0; i < 8; ++i) {
      nn::TaskSpec spec;
      spec.family_id = families[i % 2];
      spec.domain_id = domains[i % 4];
      spec.dim = kDim;
      spec.num_classes = kClasses;
      Rng rng(100 + i);
      nn::Dataset data = nn::SyntheticTask::Make(spec).Sample(96, &rng);
      auto model = nn::BuildModel(nn::MlpSpec(kDim, {16}, kClasses), &rng)
                       .MoveValueUnsafe();
      nn::TrainConfig config;
      config.epochs = 5;
      MLAKE_CHECK(nn::Train(model.get(), data, config).ok());

      TestModel tm;
      tm.id = std::string(domains[i % 4]) + "-" + families[i % 2] + "-" +
              std::to_string(i);
      tm.artifact = storage::SerializeArtifact(
          storage::ArtifactFromModel(*model, Json::MakeObject()));
      tm.card.model_id = tm.id;
      tm.card.name = tm.id;
      tm.card.task = families[i % 2];
      tm.card.training_datasets = {std::string(domains[i % 4]) +
                                   "/synthetic"};
      tm.card.creator = "cluster-test";
      models_->push_back(std::move(tm));
    }

    oracle_dir_ = MakeTempDir("mlake-cluster-oracle").ValueOrDie();
    core::LakeOptions options = LakeOpts();
    options.root = oracle_dir_;
    oracle_lake_ = core::ModelLake::Open(options).MoveValueUnsafe().release();
    for (const TestModel& tm : *models_) {
      ASSERT_TRUE(IngestInto(oracle_lake_, tm).ok());
    }
    server::ServerOptions server_options;
    server_options.threads = 4;
    oracle_server_ = new server::LakeServer(oracle_lake_, server_options);
    ASSERT_TRUE(oracle_server_->Start().ok());
  }

  static void TearDownTestSuite() {
    delete oracle_server_;
    oracle_server_ = nullptr;
    delete oracle_lake_;
    oracle_lake_ = nullptr;
    delete models_;
    models_ = nullptr;
    ASSERT_TRUE(RemoveAll(oracle_dir_).ok());
  }

  static Status IngestInto(core::ModelLake* lake, const TestModel& tm) {
    MLAKE_ASSIGN_OR_RETURN(storage::ModelArtifact artifact,
                           storage::ParseArtifact(tm.artifact));
    MLAKE_ASSIGN_OR_RETURN(std::unique_ptr<nn::Model> model,
                           storage::ModelFromArtifact(artifact));
    return lake->IngestModel(*model, tm.card).status();
  }

  /// A started cluster with the full model population sharded by
  /// digest. The slow background heartbeat keeps epoch ticks out of
  /// the tests' way; TickNow() drives them deterministically.
  static std::unique_ptr<InProcessCluster> MakeCluster(
      const std::string& dir, size_t shards, size_t replicas = 1,
      RouterOptions router_options = RouterOptions()) {
    InProcessClusterOptions options;
    options.shards = shards;
    options.replicas_per_shard = replicas;
    options.lake_options = LakeOpts();
    // Thread-per-connection: cover the router's connection fan-in
    // (fanout legs + heartbeat + direct test clients) so no pooled
    // keep-alive connection starves a scatter leg of a worker.
    options.server_options.threads = 12;
    if (router_options.heartbeat_interval_ms == 500) {
      router_options.heartbeat_interval_ms = 60000;
    }
    options.router_options = router_options;
    auto cluster = InProcessCluster::Create(dir, options).MoveValueUnsafe();
    for (const TestModel& tm : *models_) {
      MLAKE_CHECK(cluster->IngestArtifact(tm.artifact, tm.card).ok());
    }
    return cluster;
  }

  /// The search bodies the oracle comparison sweeps: every search kind
  /// the router handles, including MLQL with each rank family.
  static std::vector<std::string> SearchBodies() {
    const std::string& a = (*models_)[0].id;
    const std::string& b = (*models_)[1].id;
    return {
        R"({"type": "ann", "id": ")" + a + R"(", "k": 5})",
        R"({"type": "ann", "id": ")" + b + R"(", "k": 3})",
        R"({"type": "keyword", "query": "legal summarization", "k": 5})",
        R"({"type": "keyword", "query": "synthetic news model", "k": 8})",
        R"({"type": "hybrid", "query": "legal synthetic", "id": ")" + a +
            R"(", "k": 5})",
        R"({"type": "mlql", "query": "FIND MODELS RANK BY completeness() LIMIT 6"})",
        R"({"type": "mlql", "query": "FIND MODELS WHERE task = 'sum' LIMIT 10"})",
        R"({"type": "mlql", "query": "FIND MODELS RANK BY behavior_sim(')" +
            a + R"(') LIMIT 5"})",
        R"({"type": "mlql", "query": "FIND MODELS RANK BY weight_sim(')" +
            b + R"(') LIMIT 5"})",
        R"({"type": "mlql", "query": "FIND MODELS RANK BY keyword('legal synthetic') LIMIT 5"})",
        R"({"type": "mlql", "query": "FIND MODELS WHERE task = 'mean' RANK BY keyword('news') LIMIT 4"})",
    };
  }

  /// POSTs `body` to both the router and the oracle server and expects
  /// the ranked "models" lists to match byte for byte.
  static void ExpectOracleIdentical(int router_port, const std::string& body) {
    server::HttpClient router_client("127.0.0.1", router_port);
    server::HttpClient oracle_client("127.0.0.1", oracle_server_->port());
    auto routed = router_client.Post("/v1/search", body);
    auto oracle = oracle_client.Post("/v1/search", body);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString() << " " << body;
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString() << " " << body;
    ASSERT_EQ(routed.ValueUnsafe().status, 200)
        << body << " -> " << routed.ValueUnsafe().body;
    ASSERT_EQ(oracle.ValueUnsafe().status, 200)
        << body << " -> " << oracle.ValueUnsafe().body;
    auto routed_json = Json::Parse(routed.ValueUnsafe().body).ValueOrDie();
    auto oracle_json = Json::Parse(oracle.ValueUnsafe().body).ValueOrDie();
    const Json* routed_models = routed_json.Find("models");
    const Json* oracle_models = oracle_json.Find("models");
    ASSERT_NE(routed_models, nullptr) << body;
    ASSERT_NE(oracle_models, nullptr) << body;
    EXPECT_EQ(routed_models->Dump(), oracle_models->Dump()) << body;
  }

  static void RunOracleComparison(size_t shards) {
    std::string dir = MakeTempDir("mlake-cluster").ValueOrDie();
    auto cluster = MakeCluster(dir, shards);
    for (const std::string& body : SearchBodies()) {
      ExpectOracleIdentical(cluster->router_port(), body);
    }
    ASSERT_TRUE(cluster->Stop().ok());
    cluster.reset();
    ASSERT_TRUE(RemoveAll(dir).ok());
  }

  static std::vector<TestModel>* models_;
  static std::string oracle_dir_;
  static core::ModelLake* oracle_lake_;
  static server::LakeServer* oracle_server_;
};

std::vector<TestModel>* ClusterTest::models_ = nullptr;
std::string ClusterTest::oracle_dir_;
core::ModelLake* ClusterTest::oracle_lake_ = nullptr;
server::LakeServer* ClusterTest::oracle_server_ = nullptr;

TEST_F(ClusterTest, OneShardMatchesOracle) { RunOracleComparison(1); }

TEST_F(ClusterTest, TwoShardsMatchOracle) { RunOracleComparison(2); }

TEST_F(ClusterTest, FourShardsMatchOracle) { RunOracleComparison(4); }

TEST_F(ClusterTest, ModelListMergesAllShards) {
  std::string dir = MakeTempDir("mlake-cluster").ValueOrDie();
  auto cluster = MakeCluster(dir, 2);
  server::HttpClient client("127.0.0.1", cluster->router_port());
  auto response = client.Get("/v1/models");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.ValueUnsafe().status, 200);
  auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(body.GetInt64("count"), static_cast<int64_t>(models_->size()));
  ASSERT_TRUE(cluster->Stop().ok());
  cluster.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST_F(ClusterTest, DeadlineZeroMeansNoDeadline) {
  // default_deadline_ms = 0 means "no deadline" on the router exactly
  // as on mlaked: the request runs to completion and its scatter legs
  // carry no deadline — not a zero budget that expires before the
  // scatter starts.
  std::string dir = MakeTempDir("mlake-cluster").ValueOrDie();
  RouterOptions router_options;
  router_options.default_deadline_ms = 0;
  auto cluster = MakeCluster(dir, 2, 1, router_options);
  server::HttpClient client("127.0.0.1", cluster->router_port());
  auto list = client.Get("/v1/models");
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list.ValueUnsafe().status, 200) << list.ValueUnsafe().body;
  auto keyword = client.Post(
      "/v1/search", R"({"type": "keyword", "query": "legal", "k": 3})");
  ASSERT_TRUE(keyword.ok()) << keyword.status().ToString();
  EXPECT_EQ(keyword.ValueUnsafe().status, 200) << keyword.ValueUnsafe().body;
  ASSERT_TRUE(cluster->Stop().ok());
  cluster.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST_F(ClusterTest, BroadcastReadsFindTheOwner) {
  std::string dir = MakeTempDir("mlake-cluster").ValueOrDie();
  auto cluster = MakeCluster(dir, 4);
  server::HttpClient client("127.0.0.1", cluster->router_port());
  for (const TestModel& tm : *models_) {
    auto response = client.Get("/v1/models/" + tm.id);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response.ValueUnsafe().status, 200) << tm.id;
    auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();
    EXPECT_EQ(body.GetString("id"), tm.id);
  }
  auto missing = client.Get("/v1/models/no-such-model");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.ValueUnsafe().status, 404);
  ASSERT_TRUE(cluster->Stop().ok());
  cluster.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST_F(ClusterTest, IngestRoutesByDigestAndGuardsMisroutes) {
  std::string dir = MakeTempDir("mlake-cluster").ValueOrDie();
  auto cluster = MakeCluster(dir, 2);

  // A fresh model (not in models_) ingested through the router must
  // land exactly on its digest's owner shard.
  nn::TaskSpec spec;
  spec.family_id = "sum";
  spec.domain_id = "legal";
  spec.dim = kDim;
  spec.num_classes = kClasses;
  Rng rng(999);
  nn::Dataset data = nn::SyntheticTask::Make(spec).Sample(96, &rng);
  auto model = nn::BuildModel(nn::MlpSpec(kDim, {16}, kClasses), &rng)
                   .MoveValueUnsafe();
  nn::TrainConfig config;
  config.epochs = 5;
  ASSERT_TRUE(nn::Train(model.get(), data, config).ok());
  std::string bytes = storage::SerializeArtifact(
      storage::ArtifactFromModel(*model, Json::MakeObject()));

  metadata::ModelCard card;
  card.model_id = "routed-ingest";
  card.name = "routed-ingest";
  card.task = "sum";
  Json body = Json::MakeObject();
  body.Set("card", card.ToJson());
  body.Set("artifact_b64", server::Base64Encode(bytes));

  uint64_t owner = cluster->OwnerShard(bytes);
  size_t before_owner = cluster->lake(owner)->NumModels();
  size_t before_other = cluster->lake(1 - owner)->NumModels();

  server::HttpClient client("127.0.0.1", cluster->router_port());
  auto response = client.Post("/v1/ingest", body.Dump());
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.ValueUnsafe().status, 200)
      << response.ValueUnsafe().body;
  EXPECT_EQ(cluster->lake(owner)->NumModels(), before_owner + 1);
  EXPECT_EQ(cluster->lake(1 - owner)->NumModels(), before_other);

  // The same body POSTed straight at the wrong backend trips the
  // misroute guard instead of silently splitting the keyspace.
  card.model_id = "misrouted-ingest";
  body.Set("card", card.ToJson());
  server::HttpClient wrong("127.0.0.1",
                           cluster->server(1 - owner)->port());
  auto misrouted = wrong.Post("/v1/ingest", body.Dump());
  ASSERT_TRUE(misrouted.ok());
  EXPECT_GE(misrouted.ValueUnsafe().status, 400)
      << misrouted.ValueUnsafe().body;
  EXPECT_EQ(cluster->lake(1 - owner)->NumModels(), before_other);

  ASSERT_TRUE(cluster->Stop().ok());
  cluster.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST_F(ClusterTest, ShardDownFailsOverToReplica) {
  std::string dir = MakeTempDir("mlake-cluster").ValueOrDie();
  auto cluster = MakeCluster(dir, 2, /*replicas=*/2);

  // Kill the primary replica of shard 0 without telling the router
  // (no TickNow): the scatter leg's first attempt fails at the socket
  // and must fail over to the surviving twin.
  ASSERT_TRUE(cluster->server(0, 0)->Stop().ok());
  uint64_t failovers_before = cluster->router()->failovers();
  for (const std::string& body : SearchBodies()) {
    ExpectOracleIdentical(cluster->router_port(), body);
  }
  EXPECT_GT(cluster->router()->failovers(), failovers_before);

  // After a tick the epoch advances and the dead replica sorts last.
  uint64_t epoch_before = cluster->router()->CurrentMap()->epoch;
  cluster->router()->TickNow();
  cluster->router()->TickNow();  // second miss marks it down
  EXPECT_GT(cluster->router()->CurrentMap()->epoch, epoch_before);

  ASSERT_TRUE(cluster->Stop().ok());
  cluster.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST_F(ClusterTest, ShardWithNoReplicaFailsTheSearch) {
  std::string dir = MakeTempDir("mlake-cluster").ValueOrDie();
  auto cluster = MakeCluster(dir, 2, /*replicas=*/1);
  ASSERT_TRUE(cluster->server(1, 0)->Stop().ok());
  server::HttpClient client("127.0.0.1", cluster->router_port());
  auto response = client.Post(
      "/v1/search",
      R"({"type": "keyword", "query": "legal summarization", "k": 5})");
  ASSERT_TRUE(response.ok());
  // A top-k missing one shard's documents would be silently wrong, so
  // the router refuses rather than degrades.
  EXPECT_GE(response.ValueUnsafe().status, 500)
      << response.ValueUnsafe().body;
  ASSERT_TRUE(cluster->Stop().ok());
  cluster.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST_F(ClusterTest, SlowPrimaryTriggersHedgeAndStaysCorrect) {
  std::string dir = MakeTempDir("mlake-cluster").ValueOrDie();
  RouterOptions router_options;
  router_options.hedge_min_delay_ms = 25;
  auto cluster = MakeCluster(dir, 2, /*replicas=*/2, router_options);

  // Both replicas of each shard serve the same lake object, so the
  // hedged answer is the primary's answer — just from the fast twin.
  cluster->search_delay_us(0, 0)->store(400000);  // 400 ms >> hedge delay
  cluster->search_delay_us(1, 0)->store(400000);

  uint64_t fired_before = cluster->router()->hedges_fired();
  uint64_t wins_before = cluster->router()->hedge_wins();
  ExpectOracleIdentical(
      cluster->router_port(),
      R"({"type": "keyword", "query": "legal summarization", "k": 5})");
  ExpectOracleIdentical(cluster->router_port(),
                        R"({"type": "ann", "id": ")" + (*models_)[0].id +
                            R"(", "k": 5})");
  EXPECT_GT(cluster->router()->hedges_fired(), fired_before);
  EXPECT_GT(cluster->router()->hedge_wins(), wins_before);

  ASSERT_TRUE(cluster->Stop().ok());
  cluster.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST_F(ClusterTest, StatszReportsBackendsAndHedging) {
  std::string dir = MakeTempDir("mlake-cluster").ValueOrDie();
  auto cluster = MakeCluster(dir, 2, /*replicas=*/2);
  server::HttpClient client("127.0.0.1", cluster->router_port());
  auto response = client.Get("/statsz");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.ValueUnsafe().status, 200);
  auto body = Json::Parse(response.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(body.GetInt64("cluster_size"), 2);
  ASSERT_NE(body.Find("backends"), nullptr);
  EXPECT_EQ(body.Find("backends")->AsArray().size(), 4u);
  ASSERT_NE(body.Find("hedging"), nullptr);
  ASSERT_TRUE(cluster->Stop().ok());
  cluster.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace mlake::cluster
