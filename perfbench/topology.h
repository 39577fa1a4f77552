#ifndef PERFBENCH_TOPOLOGY_H_
#define PERFBENCH_TOPOLOGY_H_

// The measured system, stood up in one process on loopback:
//
//   Router ──> shard 0 leader (LakeServer)  <── Replicator ── shard 0 replica
//          ──> shard 0 replica (LakeServer, follows its leader over HTTP)
//          ──> shard 1 leader (LakeServer)
//
// Every server, router and lake option keeps the default `mlake serve`
// and `mlake route` use, except what SetOptionsJson() lists: ports
// (ephemeral), lake roots, shard identity, and replication_log on the
// shard lakes.

#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "common/json.h"
#include "common/result.h"
#include "core/model_lake.h"
#include "population.h"
#include "replication/replicator.h"
#include "server/server.h"

namespace perfbench {

struct Topology {
  std::string dir;
  std::unique_ptr<mlake::core::ModelLake> lakes[kShards];
  std::unique_ptr<mlake::server::LakeServer> leaders[kShards];
  std::unique_ptr<mlake::core::ModelLake> replica_lake;
  std::unique_ptr<mlake::replication::Replicator> replicator;
  std::unique_ptr<mlake::server::LakeServer> replica_server;
  std::unique_ptr<mlake::cluster::Router> router;

  int router_port() const { return router->port(); }
  int leader_port(int shard) const { return leaders[shard]->port(); }

  /// Stops the router, then the replica, then the leaders, and closes
  /// every lake. Idempotent.
  mlake::Status Stop();
  ~Topology() { (void)Stop(); }
};

/// Lake options for a shard or replica lake rooted at `root`.
mlake::core::LakeOptions ShardLakeOptions(const std::string& root);

/// Builds and starts the topology under `dir` from `pop`. `*setup_s`
/// receives the time from the first ModelLake::Open until the router
/// answered its first routed request (population ingest, compaction,
/// replica catch-up included).
mlake::Result<std::unique_ptr<Topology>> BuildTopology(const std::string& dir,
                                                       const Population& pop,
                                                       double* setup_s);

/// Starts leaders and a router (no replica) over already-populated
/// shard lakes: the reopen check after a close.
mlake::Result<std::unique_ptr<Topology>> ReopenTopology(const std::string& dir);

/// A single lake holding the whole population (the oracle routed
/// answers must equal), served on its own LakeServer.
struct Oracle {
  std::unique_ptr<mlake::core::ModelLake> lake;
  std::unique_ptr<mlake::server::LakeServer> server;
};
mlake::Result<Oracle> BuildOracle(const std::string& dir, const Population& pop);

/// Every option the benchmark sets on the system (the rest are
/// defaults).
mlake::Json SetOptionsJson();

}  // namespace perfbench

#endif  // PERFBENCH_TOPOLOGY_H_
