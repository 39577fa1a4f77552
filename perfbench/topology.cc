#include "topology.h"

#include <chrono>
#include <thread>

#include "server/client.h"

namespace perfbench {

using mlake::Result;
using mlake::Status;
using mlake::core::ModelLake;
namespace server = mlake::server;

namespace {

constexpr size_t kIngestBatch = 1024;
const char* const kShardDirs[kShards] = {"shard0", "shard1"};

std::string ShardRoot(const std::string& dir, int shard) {
  return dir + "/" + kShardDirs[shard];
}

server::ServerOptions ShardServerOptions(int shard) {
  server::ServerOptions options;
  options.port = 0;
  options.shard_id = shard;
  options.cluster_size = kShards;
  return options;
}

/// Compacts until a pass completes (a pass returns Unavailable when a
/// background fold or mutation raced it).
Status Compact(ModelLake* lake) {
  for (int attempt = 0; attempt < 20; ++attempt) {
    Status st = lake->CompactIndices();
    if (st.ok()) return st;
    if (st.code() != mlake::StatusCode::kUnavailable) return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Status::Unavailable("compaction kept racing");
}

Status Ingest(ModelLake* lake, const Population& pop, int shard) {
  std::vector<mlake::core::CardIngest> batch;
  for (size_t i = 0; i < pop.models.size(); ++i) {
    if (shard >= 0 && pop.shard[i] != shard) continue;
    batch.push_back(pop.models[i]);
    if (batch.size() == kIngestBatch) {
      MLAKE_RETURN_NOT_OK(lake->IngestCards(batch).status());
      batch.clear();
    }
  }
  if (!batch.empty()) MLAKE_RETURN_NOT_OK(lake->IngestCards(batch).status());
  return Status::OK();
}

Status Populate(ModelLake* lake, const Population& pop, int shard) {
  MLAKE_RETURN_NOT_OK(Ingest(lake, pop, shard));
  return Compact(lake);
}

Result<std::unique_ptr<mlake::cluster::Router>> StartRouter(
    std::vector<mlake::cluster::BackendSpec> backends) {
  mlake::cluster::RouterOptions options;
  options.port = 0;
  options.backends = std::move(backends);
  options.cluster_size = kShards;
  auto router = std::make_unique<mlake::cluster::Router>(options);
  MLAKE_RETURN_NOT_OK(router->Start());
  router->TickNow();
  return router;
}

/// Blocks until the router answers a routed search with 200.
Status AwaitFirstRoutedAnswer(int port) {
  server::HttpClient client("127.0.0.1", port);
  for (int attempt = 0; attempt < 500; ++attempt) {
    auto r = client.Post("/v1/search",
                         R"({"type": "keyword", "query": "synthetic", "k": 1})");
    if (r.ok() && r.ValueUnsafe().status == 200) return Status::OK();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Status::Unavailable("router never answered");
}

}  // namespace

mlake::core::LakeOptions ShardLakeOptions(const std::string& root) {
  mlake::core::LakeOptions options;
  options.root = root;
  options.replication_log = true;
  return options;
}

Status Topology::Stop() {
  Status first;
  auto keep = [&first](Status st) {
    if (first.ok() && !st.ok()) first = st;
  };
  if (router) keep(router->Stop());
  if (replica_server) keep(replica_server->Stop());
  if (replicator) keep(replicator->Stop());
  for (auto& s : leaders) {
    if (s) keep(s->Stop());
  }
  router.reset();
  replica_server.reset();
  replicator.reset();
  replica_lake.reset();
  for (auto& s : leaders) s.reset();
  for (auto& l : lakes) l.reset();
  return first;
}

Result<std::unique_ptr<Topology>> BuildTopology(const std::string& dir,
                                                const Population& pop,
                                                double* setup_s) {
  auto topo = std::make_unique<Topology>();
  topo->dir = dir;
  const auto t0 = std::chrono::steady_clock::now();

  // Shards are independent nodes: populate them concurrently.
  Status shard_status[kShards];
  std::vector<std::thread> threads;
  for (int s = 0; s < kShards; ++s) {
    threads.emplace_back([&, s] {
      auto lake = ModelLake::Open(ShardLakeOptions(ShardRoot(dir, s)));
      if (!lake.ok()) {
        shard_status[s] = lake.status();
        return;
      }
      topo->lakes[s] = lake.MoveValueUnsafe();
      shard_status[s] = Populate(topo->lakes[s].get(), pop, s);
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& st : shard_status) MLAKE_RETURN_NOT_OK(st);

  for (int s = 0; s < kShards; ++s) {
    topo->leaders[s] = std::make_unique<server::LakeServer>(
        topo->lakes[s].get(), ShardServerOptions(s));
    MLAKE_RETURN_NOT_OK(topo->leaders[s]->Start());
  }

  MLAKE_ASSIGN_OR_RETURN(topo->replica_lake,
                         ModelLake::Open(ShardLakeOptions(dir + "/replica0")));
  mlake::replication::ReplicaOptions replica_options;
  replica_options.leader_host = "127.0.0.1";
  replica_options.leader_port = topo->leader_port(0);
  MLAKE_ASSIGN_OR_RETURN(
      topo->replicator,
      mlake::replication::Replicator::Open(topo->replica_lake.get(),
                                           replica_options));
  MLAKE_RETURN_NOT_OK(topo->replicator->SyncOnce().status());
  MLAKE_RETURN_NOT_OK(Compact(topo->replica_lake.get()));
  MLAKE_RETURN_NOT_OK(topo->replicator->Start());
  server::ServerOptions replica_server_options = ShardServerOptions(0);
  replica_server_options.replication = topo->replicator.get();
  topo->replica_server = std::make_unique<server::LakeServer>(
      topo->replica_lake.get(), replica_server_options);
  MLAKE_RETURN_NOT_OK(topo->replica_server->Start());

  MLAKE_ASSIGN_OR_RETURN(
      topo->router,
      StartRouter({{"127.0.0.1", topo->leader_port(0), 0},
                   {"127.0.0.1", topo->replica_server->port(), 0},
                   {"127.0.0.1", topo->leader_port(1), 1}}));
  MLAKE_RETURN_NOT_OK(AwaitFirstRoutedAnswer(topo->router_port()));
  *setup_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  return topo;
}

Result<std::unique_ptr<Topology>> ReopenTopology(const std::string& dir) {
  auto topo = std::make_unique<Topology>();
  topo->dir = dir;
  std::vector<mlake::cluster::BackendSpec> backends;
  for (int s = 0; s < kShards; ++s) {
    MLAKE_ASSIGN_OR_RETURN(topo->lakes[s],
                           ModelLake::Open(ShardLakeOptions(ShardRoot(dir, s))));
    topo->leaders[s] = std::make_unique<server::LakeServer>(
        topo->lakes[s].get(), ShardServerOptions(s));
    MLAKE_RETURN_NOT_OK(topo->leaders[s]->Start());
    backends.push_back({"127.0.0.1", topo->leader_port(s), s});
  }
  MLAKE_ASSIGN_OR_RETURN(topo->router, StartRouter(std::move(backends)));
  MLAKE_RETURN_NOT_OK(AwaitFirstRoutedAnswer(topo->router_port()));
  return topo;
}

Result<Oracle> BuildOracle(const std::string& dir, const Population& pop) {
  Oracle oracle;
  mlake::core::LakeOptions options;
  options.root = dir;
  // The oracle is a reference, not the measured system, and answers only
  // keyword, MLQL and hybrid requests: BM25, card scans and exact dot
  // products, none of which reads the ANN graph. So it skips compaction
  // and builds a minimal HNSW graph to keep each run short.
  options.background_compaction = false;
  options.hnsw.m = 4;
  options.hnsw.ef_construction = 8;
  options.exec = mlake::ExecutionContext::WithThreads(
      std::max(2u, std::thread::hardware_concurrency()));
  MLAKE_ASSIGN_OR_RETURN(oracle.lake, ModelLake::Open(options));
  MLAKE_RETURN_NOT_OK(Ingest(oracle.lake.get(), pop, -1));
  oracle.server = std::make_unique<server::LakeServer>(oracle.lake.get(),
                                                       server::ServerOptions());
  MLAKE_RETURN_NOT_OK(oracle.server->Start());
  return oracle;
}

mlake::Json SetOptionsJson() {
  mlake::Json lake = mlake::Json::MakeObject();
  lake.Set("root", "per shard / replica / oracle directory under the run dir");
  lake.Set("replication_log", "true on shard and replica lakes");
  mlake::Json srv = mlake::Json::MakeObject();
  srv.Set("port", 0);
  srv.Set("shard_id", "0 | 1 (oracle: unset)");
  srv.Set("cluster_size", kShards);
  srv.Set("replication", "replica 0 only: its Replicator");
  mlake::Json replica = mlake::Json::MakeObject();
  replica.Set("leader_host", "127.0.0.1");
  replica.Set("leader_port", "shard 0 leader port");
  mlake::Json router = mlake::Json::MakeObject();
  router.Set("port", 0);
  router.Set("cluster_size", kShards);
  router.Set("backends", "shard0 leader@0, shard0 replica@0, shard1 leader@1");
  mlake::Json out = mlake::Json::MakeObject();
  out.Set("lake", std::move(lake));
  out.Set("oracle_lake",
          "background_compaction false, hnsw.m 4, hnsw.ef_construction 8 "
          "(reference for keyword / mlql / hybrid only)");
  out.Set("server", std::move(srv));
  out.Set("replica", std::move(replica));
  out.Set("router", std::move(router));
  out.Set("operations",
          "IngestCards batches of 1024; CompactIndices after population; "
          "Replicator::SyncOnce before serving");
  return out;
}

}  // namespace perfbench
