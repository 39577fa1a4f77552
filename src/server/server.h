#ifndef MLAKE_SERVER_SERVER_H_
#define MLAKE_SERVER_SERVER_H_

// mlaked — the lake's serving layer: a thread-pool HTTP/1.1 server
// (portable POSIX sockets, no external dependencies) exposing a
// ModelLake as a JSON API.
//
//   GET  /healthz            liveness (503 while draining)
//   GET  /v1/heartbeat       cluster heartbeat (shard identity, load,
//                            search p95) — admission-exempt
//   GET  /statsz             request metrics, admission counters, cache
//                            stats, recovery report, degraded models
//   GET  /v1/models          model listing (id, task, degraded)
//   GET  /v1/models/{id}     card + lineage
//   GET  /v1/lineage/{id}    version-graph neighborhood of one model
//
// Governance endpoints (DESIGN.md §15; on a replica these answer 503 +
// Retry-After until the watermark catches up to the leader):
//   GET  /v1/models/{id}/citation   citation document (?format=json|
//                                   text|bibtex)
//   GET  /v1/models/{id}/doc        generated model card + lineage +
//                                   audit evidence
//   GET  /v1/audit/{id}             audit questionnaire over HTTP
//   GET  /v1/export                 streaming NDJSON metadata dump of
//                                   the whole lake (chunked transfer,
//                                   O(1) memory; ETag/If-None-Match
//                                   keyed by (mutation_epoch,
//                                   index_generation) -> 304)
//   GET  /v1/embedding/{id}  raw embedding vector (cluster-internal)
//   POST /v1/search          {"type": "mlql"|"ann"|"keyword"|"hybrid", ...}
//                            plus the cluster-internal scatter types
//                            "ann_vec" | "keyword_stats" | "hybrid_parts"
//   POST /v1/ingest          {"card": {...}, "artifact_b64": "..."}
//                            (rejected with 409 on a read replica; an
//                            X-Mlake-Idempotency-Key header carrying the
//                            artifact digest makes a routed retry dedup)
//
// Replication endpoints (active when the lake keeps a replication log
// and/or ServerOptions.replication is set — see src/replication/):
//   GET  /v1/replication/log?from=N&max=M    committed log entries
//   GET  /v1/replication/blob/{digest}       artifact bytes (b64)
//   GET  /v1/replication/fingerprint         logical-state fingerprint
//   GET  /v1/replication/seed                replication seed (binary)
//   POST /v1/replication/ship                leader-pushed log batch
//   POST /v1/replication/promote             replica -> leader
//
// Transport is an HttpFrontend (server/frontend.h) driven by the route
// table in LakeServer::Routes(); /healthz and /v1/heartbeat skip its
// admission and deadlines. The lake's shared_mutex contract does the
// rest: search/read handlers run concurrently under the shared lock,
// ingest serializes under the exclusive lock.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/model_lake.h"
#include "governance/governance.h"
#include "server/frontend.h"
#include "server/http.h"
#include "server/metrics.h"

namespace mlake::server {

/// Seam between the server and the replication subsystem. The
/// replication library links against the server (it follows a leader
/// over HttpClient), so the server can only see it through this
/// interface. All methods must be thread-safe; the implementation must
/// outlive the server.
class ReplicationControl {
 public:
  virtual ~ReplicationControl() = default;
  /// True while this node is a read replica (direct ingest rejected).
  virtual bool IsReplica() const = 0;
  /// Last log seq durably applied on this node (the watermark).
  virtual uint64_t AppliedSeq() const = 0;
  /// The /statsz "replication" block: role, watermark, lag, epoch.
  virtual Json StatszJson() const = 0;
  /// Applies a leader-pushed log batch (ReplicationLogJson shape);
  /// epoch-fenced — a stale leader's ship answers FailedPrecondition.
  /// Returns {"applied_seq": N}.
  virtual Result<Json> Ship(const Json& batch) = 0;
  /// Manual promotion: stop following, durably bump the epoch, start
  /// accepting writes.
  virtual Status Promote() = 0;

  // Watermark-staleness surface (governance reads; defaults describe a
  // node that never lags, so pre-existing implementations stay valid).

  /// Entries this node still trails the leader's last known log seq by
  /// (0 when caught up — but see CaughtUp: before the first completed
  /// sync the lag is unknown and also reads 0).
  virtual uint64_t LagEntries() const { return 0; }
  /// True once this node has completed at least one sync against the
  /// leader and applied everything the leader had. Governance reads on
  /// a replica that is not caught up answer 503 instead of silently
  /// serving stale data.
  virtual bool CaughtUp() const { return true; }
  /// Client back-off to advertise with that 503, in whole seconds —
  /// implementations derive it from the watermark lag and their pull
  /// cadence (governance::RetryAfterSeconds).
  virtual int StaleRetryAfterSeconds() const { return 1; }
};

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (see LakeServer::port()).
  int port = 0;
  /// Worker pool size — the maximum number of concurrently served
  /// connections (thread-per-connection).
  int threads = 8;
  /// Maximum concurrently executing requests; the excess is rejected
  /// with 429 + Retry-After (ResourceExhausted).
  int max_inflight = 64;
  /// Maximum connections accepted but not yet picked up by a worker;
  /// beyond it the accept thread answers 429 directly and closes.
  int max_queue = 128;
  /// A keep-alive connection is closed after this many requests so a
  /// saturated pool rotates to queued connections (fairness; clients
  /// reconnect transparently). 0 = unlimited.
  int max_requests_per_connection = 1000;
  /// Idle keep-alive connections are closed after this long, freeing
  /// their worker.
  int keep_alive_timeout_ms = 30000;
  /// Deadline applied when a request carries no X-Mlake-Deadline-Ms
  /// header. 0 = none.
  int default_deadline_ms = 0;
  /// How long Stop() waits for in-flight requests to finish before
  /// force-closing their connections.
  int drain_deadline_ms = 5000;
  size_t max_body_bytes = 64u << 20;
  /// Enables GET /debug/sleep?ms=N (deterministic slow handler used by
  /// the shutdown/admission/deadline tests and nothing else).
  bool enable_debug_endpoints = false;
  /// Cluster identity. shard_id >= 0 marks this backend as shard
  /// `shard_id` of a `cluster_size`-way digest-sharded lake:
  /// /v1/ingest rejects artifacts whose digest routes to another shard
  /// (a misdirected write would silently fork the lake), and
  /// /v1/heartbeat reports the identity to the router. shard_id < 0 =
  /// standalone server, no guard.
  int shard_id = -1;
  int cluster_size = 0;
  /// Replication seam (see ReplicationControl above). Null on a
  /// standalone server or a pure leader; set on replicas so ingest is
  /// fenced and ship/promote have somewhere to land.
  ReplicationControl* replication = nullptr;
  /// Test/bench seam: extra per-request delay (µs of idle wait, not
  /// CPU) injected at the top of every /v1/search handler. Shared and
  /// atomic so tests and the cluster bench can retune a *running*
  /// server — e.g. slow one shard down so the router's hedged retry
  /// fires deterministically, or model per-shard service time in the
  /// sim_node scaling experiment. Null or <= 0 = no delay.
  std::shared_ptr<std::atomic<int64_t>> test_search_delay_us;
};

/// The wire form of index::Bm25Stats ({"live_docs": n, "total_tokens":
/// n, "df": {"term": n, ...}}), spoken by the keyword_stats scatter
/// and the "stats" a routed keyword search carries. Integer-valued
/// throughout, so stats summed across shards arrive bit-exact.
Result<index::Bm25Stats> Bm25StatsFromJson(const Json& j);
Json Bm25StatsToJson(const index::Bm25Stats& stats);

/// The /statsz endpoint label of a search of kind `type`
/// ("POST /v1/search:ann", ...), shared by mlaked and the router so the
/// per-kind latency split reads the same on both. Unknown types stay
/// under the bare route label to bound cardinality.
std::string_view SearchEndpointLabel(std::string_view type);

/// A running lake server: the route table and handlers in front of a
/// ModelLake. The lake must outlive the server; the server only ever
/// calls the lake's public (self-locking) API.
class LakeServer {
 public:
  LakeServer(core::ModelLake* lake, ServerOptions options);

  LakeServer(const LakeServer&) = delete;
  LakeServer& operator=(const LakeServer&) = delete;

  /// Binds, listens and starts the accept thread + worker pool.
  Status Start() { return frontend_.Start(); }

  /// Graceful shutdown: stops accepting, lets in-flight requests finish
  /// (bounded by drain_deadline_ms, then force-closes), joins all
  /// threads. Idempotent; also run by the destructor (the front end is
  /// the last member, so it drains before the state its handlers use
  /// goes away).
  Status Stop() { return frontend_.Stop(); }

  /// The bound port (the actual one when options.port was 0). Valid
  /// after Start().
  int port() const { return frontend_.port(); }

  bool draining() const { return frontend_.draining(); }

  const ServerOptions& options() const { return options_; }
  const MetricsRegistry& metrics() const { return frontend_.metrics(); }

  /// The /statsz document (also printed by `mlake serve` on shutdown).
  Json StatszJson() const;

 private:
  std::vector<Route> Routes();

  // Route handlers, in table order (/statsz is an inline lambda).
  HttpResponse HandleHealthz(RequestContext& ctx) const;
  /// Cluster heartbeat: shard identity, model count, index generation,
  /// inflight/draining, and the search-family p95 the router's hedging
  /// policy keys off. Admission- and deadline-exempt like /healthz.
  HttpResponse HandleHeartbeat(RequestContext& ctx) const;
  /// Raw embedding vector for one model (router-side ann resolve: the
  /// owning shard answers, every other shard 404s).
  HttpResponse HandleEmbedding(RequestContext& ctx) const;
  HttpResponse HandleModelList(RequestContext& ctx) const;
  // Governance handlers (DESIGN.md §15). Each begins with the replica
  // staleness guard below.
  HttpResponse HandleCitation(RequestContext& ctx) const;
  HttpResponse HandleModelDoc(RequestContext& ctx) const;
  HttpResponse HandleModelGet(RequestContext& ctx) const;
  HttpResponse HandleAudit(RequestContext& ctx) const;
  HttpResponse HandleExport(RequestContext& ctx) const;
  HttpResponse HandleLineage(RequestContext& ctx) const;
  /// Points ctx.label at "POST /v1/search:<kind>" for known search
  /// kinds so /statsz reports a per-kind latency split.
  HttpResponse HandleSearch(RequestContext& ctx) const;
  HttpResponse HandleIngest(RequestContext& ctx) const;
  HttpResponse HandleReplicationLog(RequestContext& ctx) const;
  HttpResponse HandleReplicationBlob(RequestContext& ctx) const;
  HttpResponse HandleReplicationFingerprint(RequestContext& ctx) const;
  HttpResponse HandleReplicationSeed(RequestContext& ctx) const;
  HttpResponse HandleReplicationShip(RequestContext& ctx) const;
  HttpResponse HandleReplicationPromote(RequestContext& ctx) const;
  HttpResponse HandleDebugSleep(RequestContext& ctx) const;

  /// Governance reads must not silently serve stale data: on a replica
  /// whose watermark trails the leader, fills `*response` with 503 +
  /// Retry-After (derived from the lag) and returns true.
  bool RejectStaleGovernanceRead(HttpResponse* response) const;

  core::ModelLake* lake_;
  ServerOptions options_;
  /// Governance counters (/statsz "governance"); mutable because const
  /// read handlers bump them.
  mutable governance::GovernanceStats governance_stats_;
  HttpFrontend frontend_;
};

}  // namespace mlake::server

#endif  // MLAKE_SERVER_SERVER_H_
