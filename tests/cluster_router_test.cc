// Concurrency shakeout for the cluster router, aimed at the TSan CI
// job: mixed search/read traffic races the heartbeat poller, manual
// epoch ticks, and live retuning of the backends' delay seams (which
// shifts hedge behavior mid-flight). Correctness of answers is covered
// by cluster_test; here every request must merely complete sanely
// (2xx, or 5xx only when hedging/timeout races legitimately lose) with
// no data race underneath.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/file_util.h"
#include "nn/trainer.h"
#include "server/client.h"
#include "storage/model_artifact.h"

namespace mlake::cluster {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kClasses = 4;

TEST(ClusterRouterConcurrencyTest, MixedTrafficRacesTicksAndDelays) {
  std::string dir = MakeTempDir("mlake-cluster-race").ValueOrDie();

  InProcessClusterOptions options;
  options.shards = 2;
  options.replicas_per_shard = 2;
  options.lake_options.input_dim = kDim;
  options.lake_options.num_classes = kClasses;
  options.lake_options.probe_count = 8;
  // Backends are thread-per-connection and every pooled router
  // connection pins one worker for its keep-alive lifetime, so the
  // worker count must cover the router's whole connection fan-in
  // (fanout pool + heartbeat + any direct clients).
  options.server_options.threads = 16;
  // Fast heartbeat so the background poller genuinely races TickNow
  // and the request path during the test window.
  options.router_options.heartbeat_interval_ms = 20;
  options.router_options.hedge_min_delay_ms = 5;
  auto cluster =
      InProcessCluster::Create(dir, std::move(options)).MoveValueUnsafe();

  std::vector<std::string> ids;
  for (uint64_t i = 0; i < 4; ++i) {
    nn::TaskSpec spec;
    spec.family_id = i % 2 == 0 ? "sum" : "mean";
    spec.domain_id = i % 2 == 0 ? "legal" : "news";
    spec.dim = kDim;
    spec.num_classes = kClasses;
    Rng rng(7 + i);
    nn::Dataset data = nn::SyntheticTask::Make(spec).Sample(64, &rng);
    auto model = nn::BuildModel(nn::MlpSpec(kDim, {16}, kClasses), &rng)
                     .MoveValueUnsafe();
    nn::TrainConfig config;
    config.epochs = 3;
    ASSERT_TRUE(nn::Train(model.get(), data, config).ok());
    std::string bytes = storage::SerializeArtifact(
        storage::ArtifactFromModel(*model, Json::MakeObject()));
    metadata::ModelCard card;
    card.model_id = "race-" + std::to_string(i);
    card.name = card.model_id;
    card.task = spec.family_id;
    auto ingested = cluster->IngestArtifact(bytes, card);
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    ids.push_back(ingested.ValueUnsafe());
  }

  constexpr int kSearchThreads = 4;
  constexpr int kIterations = 25;
  std::atomic<int> bad_status{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kSearchThreads; ++t) {
    threads.emplace_back([&, t] {
      server::HttpClient client("127.0.0.1", cluster->router_port());
      const std::string bodies[] = {
          R"({"type": "keyword", "query": "legal summarization", "k": 3})",
          R"({"type": "ann", "id": ")" + ids[t % ids.size()] +
              R"(", "k": 3})",
          R"({"type": "mlql", "query": "FIND MODELS RANK BY completeness() LIMIT 3"})",
      };
      for (int i = 0; i < kIterations; ++i) {
        auto response = client.Post("/v1/search", bodies[i % 3]);
        if (!response.ok()) {
          ++bad_status;
        } else if (response.ValueUnsafe().status != 200 &&
                   response.ValueUnsafe().status < 500) {
          ++bad_status;  // 4xx would mean a malformed scatter, not a race
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (!done.load()) {
      cluster->router()->TickNow();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  threads.emplace_back([&] {
    int64_t flip = 0;
    while (!done.load()) {
      cluster->search_delay_us(0, 0)->store(flip % 2 == 0 ? 4000 : 0);
      cluster->search_delay_us(1, 1)->store(flip % 2 == 0 ? 0 : 4000);
      ++flip;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  threads.emplace_back([&] {
    server::HttpClient client("127.0.0.1", cluster->router_port());
    while (!done.load()) {
      (void)client.Get("/statsz");
      (void)client.Get("/v1/models");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int t = 0; t < kSearchThreads; ++t) threads[t].join();
  done.store(true);
  for (size_t t = kSearchThreads; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(bad_status.load(), 0);
  ASSERT_TRUE(cluster->Stop().ok());
  cluster.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// Every broadcast read forwards the client's full request target, query
// string included: the routed answer is byte-identical to what the
// owning backend says to the same target (a citation asked for as
// BibTeX comes back as BibTeX, not as the JSON document).
TEST(ClusterRouterQueryStringTest, BroadcastRoutesForwardQueryStrings) {
  std::string dir = MakeTempDir("mlake-cluster-query").ValueOrDie();
  InProcessClusterOptions options;
  options.shards = 2;
  options.lake_options.input_dim = kDim;
  options.lake_options.num_classes = kClasses;
  options.lake_options.probe_count = 8;
  auto cluster =
      InProcessCluster::Create(dir, std::move(options)).MoveValueUnsafe();

  std::vector<std::string> ids;
  for (uint64_t i = 0; i < 4; ++i) {
    Rng rng(40 + i);
    auto model = nn::BuildModel(nn::MlpSpec(kDim, {8}, kClasses), &rng)
                     .MoveValueUnsafe();
    std::string bytes = storage::SerializeArtifact(
        storage::ArtifactFromModel(*model, Json::MakeObject()));
    metadata::ModelCard card;
    card.model_id = "query-" + std::to_string(i);
    card.name = card.model_id;
    card.task = "sum";
    auto ingested = cluster->IngestArtifact(bytes, card);
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    ids.push_back(ingested.ValueUnsafe());
  }
  cluster->router()->TickNow();

  server::HttpClient router("127.0.0.1", cluster->router_port());
  for (const std::string& id : ids) {
    const std::vector<std::string> targets = {
        "/v1/models/" + id + "/citation?format=bibtex",
        "/v1/models/" + id + "/citation?format=json",
        "/v1/models/" + id + "/doc?v=1",
        "/v1/models/" + id + "?v=1",
        "/v1/audit/" + id + "?v=1",
        "/v1/lineage/" + id + "?v=1",
        "/v1/embedding/" + id + "?v=1",
    };
    for (const std::string& target : targets) {
      // The owner is the backend that answers 2xx.
      std::string owner_body;
      for (size_t shard = 0; shard < cluster->shards(); ++shard) {
        server::HttpClient backend("127.0.0.1",
                                   cluster->server(shard)->port());
        auto direct = backend.Get(target);
        ASSERT_TRUE(direct.ok()) << target;
        if (direct.ValueUnsafe().status / 100 == 2) {
          owner_body = direct.ValueUnsafe().body;
        }
      }
      ASSERT_FALSE(owner_body.empty()) << target;
      auto routed = router.Get(target);
      ASSERT_TRUE(routed.ok()) << target;
      ASSERT_EQ(routed.ValueUnsafe().status, 200) << target;
      EXPECT_EQ(routed.ValueUnsafe().body, owner_body) << target;
    }
  }
  // The BibTeX form really is a different answer from the default.
  auto bibtex = router.Get("/v1/models/" + ids[0] + "/citation?format=bibtex");
  auto plain = router.Get("/v1/models/" + ids[0] + "/citation");
  ASSERT_TRUE(bibtex.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_NE(bibtex.ValueUnsafe().body, plain.ValueUnsafe().body);

  // The export scatter forwards its target too: the merged dump with a
  // query string is the merged dump without one.
  auto export_plain = router.Get("/v1/export");
  auto export_query = router.Get("/v1/export?v=1");
  ASSERT_TRUE(export_plain.ok());
  ASSERT_TRUE(export_query.ok());
  ASSERT_EQ(export_query.ValueUnsafe().status, 200);
  EXPECT_EQ(export_query.ValueUnsafe().body, export_plain.ValueUnsafe().body);

  ASSERT_TRUE(cluster->Stop().ok());
  cluster.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace mlake::cluster
