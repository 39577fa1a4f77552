#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/hash.h"
#include "common/sharding.h"
#include "common/string_util.h"
#include "index/snapshot.h"
#include "storage/model_artifact.h"
#include "versioning/model_graph.h"

namespace mlake::server {

namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedMs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               since)
      .count();
}

uint64_t ElapsedUs(Clock::time_point since) {
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - since)
                .count();
  return us < 0 ? 0 : static_cast<uint64_t>(us);
}

/// True once the connection cannot produce a response anymore: the peer
/// closed, or ForceCloseConnections() shut the socket down at the drain
/// deadline. A pipelined next request (recv > 0) is not death.
bool SocketDead(int fd) {
  char probe;
  ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  return n == 0;
}

Json RankedModelsJson(const std::vector<search::RankedModel>& models) {
  Json arr = Json::MakeArray();
  for (const auto& m : models) {
    Json j = Json::MakeObject();
    j.Set("id", m.id);
    j.Set("score", m.score);
    arr.Append(std::move(j));
  }
  return arr;
}

template <typename Score>
Json ScoredPairsJson(const std::vector<std::pair<std::string, Score>>& hits) {
  Json arr = Json::MakeArray();
  for (const auto& [id, score] : hits) {
    Json j = Json::MakeObject();
    j.Set("id", id);
    j.Set("score", static_cast<double>(score));
    arr.Append(std::move(j));
  }
  return arr;
}

/// Body parse failures are the client's fault: remap the codec's
/// Corruption to InvalidArgument so they surface as 400, not 500.
Status BodyError(const Status& status, const char* what) {
  return Status::InvalidArgument(std::string(what) + ": " + status.message());
}

/// Parses the wire form of Bm25Stats ({"live_docs": n, "total_tokens":
/// n, "df": {"term": n, ...}}). Integer-valued throughout, so summed
/// router-side stats arrive bit-exact.
Result<index::Bm25Stats> Bm25StatsFromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::InvalidArgument("stats must be an object");
  }
  index::Bm25Stats stats;
  stats.live_docs = static_cast<uint64_t>(j.GetInt64("live_docs", 0));
  stats.total_tokens = static_cast<uint64_t>(j.GetInt64("total_tokens", 0));
  const Json* df = j.Find("df");
  if (df != nullptr && df->is_object()) {
    for (const auto& [term, count] : df->AsObject()) {
      if (!count.is_number()) continue;
      stats.df[term] = static_cast<uint64_t>(count.AsInt64());
    }
  }
  return stats;
}

Json Bm25StatsToJson(const index::Bm25Stats& stats) {
  Json out = Json::MakeObject();
  out.Set("live_docs", static_cast<int64_t>(stats.live_docs));
  out.Set("total_tokens", static_cast<int64_t>(stats.total_tokens));
  Json df = Json::MakeObject();
  for (const auto& [term, count] : stats.df) {
    df.Set(term, static_cast<int64_t>(count));
  }
  out.Set("df", std::move(df));
  return out;
}

}  // namespace

LakeServer::LakeServer(core::ModelLake* lake, ServerOptions options)
    : lake_(lake), options_(std::move(options)) {
  if (options_.threads <= 0) options_.threads = 8;
  if (options_.max_inflight <= 0) options_.max_inflight = 1;
  if (options_.max_queue < 0) options_.max_queue = 0;
  // CI hook: force batching on with a chosen window so the TSan job
  // exercises the coalescing path deterministically.
  if (const char* forced = std::getenv("MLAKE_TEST_BATCH_WINDOW_US")) {
    char* end = nullptr;
    long v = std::strtol(forced, &end, 10);
    if (end != nullptr && *end == '\0' && v > 0) {
      options_.enable_batching = true;
      options_.batch_window_us = v;
    }
  }
  if (options_.batch_window_us < 0) options_.batch_window_us = 0;
  if (options_.max_batch <= 0) options_.max_batch = 1;
  if (options_.enable_batching) {
    BatcherOptions bopts;
    bopts.batch_window_us = options_.batch_window_us;
    bopts.max_batch = static_cast<size_t>(options_.max_batch);
    batcher_ = std::make_unique<SearchBatcher>(lake_, bopts);
  }
}

LakeServer::~LakeServer() { (void)Stop(); }

Status LakeServer::Start() {
  if (started_.load()) return Status::FailedPrecondition("already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status st = Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  draining_.store(false);
  start_time_ = Clock::now();
  pool_ = std::make_unique<ThreadPool>(options_.threads);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_.store(true);
  return Status::OK();
}

Status LakeServer::Stop() {
  if (!started_.load()) return Status::OK();
  draining_.store(true);

  // Wake the accept thread out of accept() (shutdown, then close after
  // the join — closing a blocking-accept fd does not reliably wake it).
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Drain: workers notice draining_ within one poll tick (idle
  // connections close; busy ones finish their in-flight request, send
  // Connection: close, and exit).
  auto deadline = Clock::now() +
                  std::chrono::milliseconds(options_.drain_deadline_ms);
  {
    std::unique_lock<std::mutex> lock(conns_mu_);
    drain_cv_.wait_until(lock, deadline, [this] {
      return active_conns_.load() == 0 && queued_conns_.load() == 0;
    });
  }
  if (active_conns_.load() != 0) {
    // Drain deadline expired: sever the remaining connections. Their
    // handlers observe the dead socket and unwind.
    ForceCloseConnections();
  }
  // Joins workers; still-queued connection tasks run first, see
  // draining_ and answer 503 immediately.
  pool_.reset();
  started_.store(false);
  return Status::OK();
}

void LakeServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (Stop) or fatal accept error
    }
    if (draining_.load()) {
      ::close(fd);
      return;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    SetNoDelay(fd);

    // Queue-depth admission: connections beyond what the pool will pick
    // up soon are turned away right here with the overload answer.
    if (queued_conns_.load(std::memory_order_relaxed) >= options_.max_queue) {
      rejected_queue_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse response = ErrorResponse(
          Status::ResourceExhausted("server overloaded: connection queue full"));
      WriteAll(fd, SerializeHttpResponse(response, /*keep_alive=*/false));
      ::close(fd);
      metrics_.Record("(admission)", response.status, 0);
      continue;
    }

    queued_conns_.fetch_add(1, std::memory_order_relaxed);
    RegisterConnection(fd);
    pool_->Submit([this, fd] { HandleConnection(fd); });
  }
}

void LakeServer::RegisterConnection(int fd) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  open_conns_.insert(fd);
}

void LakeServer::UnregisterConnection(int fd) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  open_conns_.erase(fd);
}

void LakeServer::ForceCloseConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (int fd : open_conns_) ::shutdown(fd, SHUT_RDWR);
}

LakeServer::ReadOutcome LakeServer::ReadRequest(int fd, std::string* buf,
                                                HttpRequest* request,
                                                Status* parse_error) {
  auto entered = Clock::now();
  for (;;) {
    if (!buf->empty()) {
      auto parsed = ParseHttpRequest(*buf, options_.max_body_bytes, request);
      if (!parsed.ok()) {
        *parse_error = parsed.status();
        return ReadOutcome::kMalformed;
      }
      size_t consumed = parsed.ValueUnsafe();
      if (consumed > 0) {
        buf->erase(0, consumed);
        return ReadOutcome::kRequest;
      }
    }

    pollfd pfd{fd, POLLIN, 0};
    if (draining_.load() && buf->empty()) {
      // Grace probe: bytes may already sit in the kernel buffer — a
      // request we committed to by accepting it. Only close when the
      // connection is genuinely quiet.
      int ready = ::poll(&pfd, 1, 0);
      if (ready <= 0) return ReadOutcome::kDrainingIdle;
    } else {
      int ready = ::poll(&pfd, 1, 100);
      if (ready < 0 && errno != EINTR) return ReadOutcome::kClosed;
      if (ready == 0) {
        if (ElapsedMs(entered) >=
            static_cast<int64_t>(options_.keep_alive_timeout_ms)) {
          return ReadOutcome::kIdleTimeout;
        }
        continue;
      }
    }

    char chunk[16384];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) return ReadOutcome::kClosed;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return ReadOutcome::kClosed;
    }
    buf->append(chunk, static_cast<size_t>(n));
  }
}

void LakeServer::HandleConnection(int fd) {
  queued_conns_.fetch_sub(1, std::memory_order_relaxed);
  active_conns_.fetch_add(1, std::memory_order_relaxed);

  std::string buf;
  int served = 0;
  if (draining_.load()) {
    // Accepted before the drain began but never picked up: refuse
    // cleanly instead of silently dropping the connection.
    HttpResponse response =
        ErrorResponse(Status::Unavailable("server shutting down"));
    WriteAll(fd, SerializeHttpResponse(response, /*keep_alive=*/false));
  } else {
    for (;;) {
      HttpRequest request;
      Status parse_error;
      ReadOutcome outcome = ReadRequest(fd, &buf, &request, &parse_error);
      if (outcome == ReadOutcome::kMalformed) {
        HttpResponse response = ErrorResponse(parse_error);
        WriteAll(fd, SerializeHttpResponse(response, /*keep_alive=*/false));
        metrics_.Record("(malformed)", response.status, 0);
        break;
      }
      if (outcome != ReadOutcome::kRequest) break;

      auto arrival = Clock::now();
      ++served;
      std::string endpoint;
      HttpResponse response = Dispatch(request, arrival, &endpoint, fd);
      bool keep_alive = request.KeepAlive() && !draining_.load() &&
                        (options_.max_requests_per_connection <= 0 ||
                         served < options_.max_requests_per_connection);
      bool wrote =
          WriteAll(fd, SerializeHttpResponse(response, keep_alive));
      if (wrote && response.is_streaming()) {
        // Chunked body: pump the streamer until it runs dry, then the
        // zero-chunk terminator. A mid-stream write failure means the
        // peer is gone — the framing is now broken, so just close.
        std::string chunk;
        while (wrote && response.streamer(&chunk)) {
          wrote = WriteAll(fd, SerializeChunk(chunk));
          chunk.clear();
        }
        if (wrote) wrote = WriteAll(fd, std::string(FinalChunk()));
        // Drop the streamer eagerly: it owns a shared lock on the lake
        // snapshot, which should not outlive the response.
        response.streamer = nullptr;
      }
      metrics_.Record(endpoint, response.status, ElapsedUs(arrival));
      if (!wrote || !keep_alive) break;
    }
  }

  UnregisterConnection(fd);
  ::close(fd);
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    drain_cv_.notify_all();
  }
}

HttpResponse LakeServer::Dispatch(const HttpRequest& request,
                                  Clock::time_point arrival,
                                  std::string* endpoint_label, int fd) {
  // ---- route ----------------------------------------------------------
  const std::string& path = request.path;
  std::string id;
  enum class Route {
    kHealthz, kHeartbeat, kStatsz, kModelList, kModelGet, kLineage,
    kEmbedding, kSearch, kIngest, kCitation, kModelDoc, kAudit, kExport,
    kReplLog, kReplBlob, kReplFingerprint, kReplSeed, kReplShip,
    kReplPromote, kDebugSleep, kUnmatched
  } route = Route::kUnmatched;
  if (request.method == "GET" && path == "/healthz") {
    route = Route::kHealthz;
    *endpoint_label = "GET /healthz";
  } else if (request.method == "GET" && path == "/v1/heartbeat") {
    route = Route::kHeartbeat;
    *endpoint_label = "GET /v1/heartbeat";
  } else if (request.method == "GET" && StartsWith(path, "/v1/embedding/")) {
    route = Route::kEmbedding;
    *endpoint_label = "GET /v1/embedding/{id}";
    id = path.substr(std::strlen("/v1/embedding/"));
  } else if (request.method == "GET" && path == "/statsz") {
    route = Route::kStatsz;
    *endpoint_label = "GET /statsz";
  } else if (request.method == "GET" && path == "/v1/models") {
    route = Route::kModelList;
    *endpoint_label = "GET /v1/models";
  } else if (request.method == "GET" && StartsWith(path, "/v1/models/") &&
             EndsWith(path, "/citation") &&
             path.size() >
                 std::strlen("/v1/models/") + std::strlen("/citation")) {
    // Suffix routes must match before the bare model get below.
    route = Route::kCitation;
    *endpoint_label = "GET /v1/models/{id}/citation";
    id = path.substr(std::strlen("/v1/models/"),
                     path.size() - std::strlen("/v1/models/") -
                         std::strlen("/citation"));
  } else if (request.method == "GET" && StartsWith(path, "/v1/models/") &&
             EndsWith(path, "/doc") &&
             path.size() > std::strlen("/v1/models/") + std::strlen("/doc")) {
    route = Route::kModelDoc;
    *endpoint_label = "GET /v1/models/{id}/doc";
    id = path.substr(
        std::strlen("/v1/models/"),
        path.size() - std::strlen("/v1/models/") - std::strlen("/doc"));
  } else if (request.method == "GET" && StartsWith(path, "/v1/models/")) {
    route = Route::kModelGet;
    *endpoint_label = "GET /v1/models/{id}";
    id = path.substr(std::strlen("/v1/models/"));
  } else if (request.method == "GET" && StartsWith(path, "/v1/audit/")) {
    route = Route::kAudit;
    *endpoint_label = "GET /v1/audit/{id}";
    id = path.substr(std::strlen("/v1/audit/"));
  } else if (request.method == "GET" && path == "/v1/export") {
    route = Route::kExport;
    *endpoint_label = "GET /v1/export";
  } else if (request.method == "GET" && StartsWith(path, "/v1/lineage/")) {
    route = Route::kLineage;
    *endpoint_label = "GET /v1/lineage/{id}";
    id = path.substr(std::strlen("/v1/lineage/"));
  } else if (request.method == "POST" && path == "/v1/search") {
    route = Route::kSearch;
    *endpoint_label = "POST /v1/search";
  } else if (request.method == "POST" && path == "/v1/ingest") {
    route = Route::kIngest;
    *endpoint_label = "POST /v1/ingest";
  } else if (request.method == "GET" && path == "/v1/replication/log") {
    route = Route::kReplLog;
    *endpoint_label = "GET /v1/replication/log";
  } else if (request.method == "GET" &&
             StartsWith(path, "/v1/replication/blob/")) {
    route = Route::kReplBlob;
    *endpoint_label = "GET /v1/replication/blob/{digest}";
    id = path.substr(std::strlen("/v1/replication/blob/"));
  } else if (request.method == "GET" &&
             path == "/v1/replication/fingerprint") {
    route = Route::kReplFingerprint;
    *endpoint_label = "GET /v1/replication/fingerprint";
  } else if (request.method == "GET" && path == "/v1/replication/seed") {
    route = Route::kReplSeed;
    *endpoint_label = "GET /v1/replication/seed";
  } else if (request.method == "POST" && path == "/v1/replication/ship") {
    route = Route::kReplShip;
    *endpoint_label = "POST /v1/replication/ship";
  } else if (request.method == "POST" &&
             path == "/v1/replication/promote") {
    route = Route::kReplPromote;
    *endpoint_label = "POST /v1/replication/promote";
  } else if (options_.enable_debug_endpoints && request.method == "GET" &&
             path == "/debug/sleep") {
    route = Route::kDebugSleep;
    *endpoint_label = "GET /debug/sleep";
  } else {
    *endpoint_label = "(unmatched)";
    return ErrorResponse(
        Status::NotFound(request.method + " " + path + " has no handler"));
  }

  // ---- health + heartbeat are exempt from admission and deadlines -----
  // (the router must be able to read a saturated backend's load; a 429
  // heartbeat would blind the rebalancer exactly when it matters).
  if (route == Route::kHealthz) return HandleHealthz();
  if (route == Route::kHeartbeat) return HandleHeartbeat();

  // ---- admission ------------------------------------------------------
  int inflight = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (inflight > options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    rejected_inflight_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(Status::ResourceExhausted(
        "server overloaded: " + std::to_string(inflight - 1) +
        " requests in flight"));
  }
  struct InflightRelease {
    std::atomic<int>* counter;
    ~InflightRelease() { counter->fetch_sub(1, std::memory_order_relaxed); }
  } release{&inflight_};

  // ---- deadline -------------------------------------------------------
  int64_t deadline_ms = options_.default_deadline_ms;
  std::string_view header = request.Header("x-mlake-deadline-ms");
  if (!header.empty()) {
    Result<int64_t> parsed = ParseDeadlineMs(header);
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    deadline_ms = parsed.ValueUnsafe();
  }
  bool has_deadline = deadline_ms > 0;
  auto deadline = arrival + std::chrono::milliseconds(deadline_ms);
  if (has_deadline && Clock::now() >= deadline) {
    return ErrorResponse(Status::DeadlineExceeded(
        "deadline of " + std::to_string(deadline_ms) +
        " ms expired before execution"));
  }

  // ---- handler --------------------------------------------------------
  HttpResponse response;
  switch (route) {
    case Route::kStatsz: response = HandleStatsz(); break;
    case Route::kModelList: response = HandleModelList(); break;
    case Route::kModelGet: response = HandleModelGet(id); break;
    case Route::kLineage: response = HandleLineage(id); break;
    case Route::kEmbedding: response = HandleEmbedding(id); break;
    case Route::kSearch:
      response = HandleSearch(request, endpoint_label);
      break;
    case Route::kIngest: response = HandleIngest(request); break;
    case Route::kCitation: response = HandleCitation(request, id); break;
    case Route::kModelDoc: response = HandleModelDoc(id); break;
    case Route::kAudit: response = HandleAudit(id); break;
    case Route::kExport: response = HandleExport(request); break;
    case Route::kReplLog: response = HandleReplicationLog(request); break;
    case Route::kReplBlob: response = HandleReplicationBlob(id); break;
    case Route::kReplFingerprint:
      response = HandleReplicationFingerprint();
      break;
    case Route::kReplSeed: response = HandleReplicationSeed(); break;
    case Route::kReplShip: response = HandleReplicationShip(request); break;
    case Route::kReplPromote: response = HandleReplicationPromote(); break;
    case Route::kDebugSleep:
      response = HandleDebugSleep(request, deadline, has_deadline, fd);
      break;
    case Route::kHealthz:
    case Route::kHeartbeat:
    case Route::kUnmatched:
      response = ErrorResponse(Status::Internal("unreachable route"));
      break;
  }

  // The handler itself may have spent the deadline; a late answer is a
  // missed deadline, not a success.
  if (has_deadline && response.status < 400 && Clock::now() >= deadline) {
    return ErrorResponse(Status::DeadlineExceeded(
        "deadline of " + std::to_string(deadline_ms) +
        " ms expired during execution"));
  }
  return response;
}

HttpResponse LakeServer::HandleHealthz() const {
  Json body = Json::MakeObject();
  bool draining = draining_.load();
  body.Set("status", draining ? "draining" : "ok");
  return JsonResponse(std::move(body), draining ? 503 : 200);
}

HttpResponse LakeServer::HandleHeartbeat() const {
  Json body = Json::MakeObject();
  body.Set("shard_id", options_.shard_id);
  body.Set("cluster_size", options_.cluster_size);
  body.Set("models", lake_->NumModels());
  body.Set("index_generation",
           static_cast<int64_t>(lake_->IndexGeneration()));
  body.Set("draining", draining_.load());
  body.Set("inflight", inflight_.load());
  // Replication role, for the router's read routing and failover: a
  // "replica" serves reads (with a watermark), a "leader" also takes
  // writes, a "standalone" node predates replication and does both.
  bool is_replica =
      options_.replication != nullptr && options_.replication->IsReplica();
  body.Set("role", is_replica ? "replica"
                              : (lake_->ReplicationLogEnabled()
                                     ? "leader"
                                     : "standalone"));
  if (lake_->ReplicationLogEnabled()) {
    body.Set("replication_epoch", lake_->ReplicationEpoch());
    body.Set("applied_seq", is_replica
                                ? options_.replication->AppliedSeq()
                                : lake_->ReplicationLastSeq());
  }
  // The search-family p95 (all "POST /v1/search:*" kinds merged) is
  // what the router's hedging policy keys its per-shard delay off.
  EndpointStats search = metrics_.AggregateSnapshot("POST /v1/search");
  body.Set("search_requests", search.requests);
  body.Set("search_p95_us", search.latency.PercentileUs(95));
  return JsonResponse(std::move(body));
}

HttpResponse LakeServer::HandleEmbedding(const std::string& id) const {
  auto vec = lake_->EmbeddingFor(id);
  if (!vec.ok()) return ErrorResponse(vec.status());
  Json arr = Json::MakeArray();
  for (float f : vec.ValueUnsafe()) {
    arr.Append(Json(static_cast<double>(f)));
  }
  Json body = Json::MakeObject();
  body.Set("id", id);
  body.Set("embedding", std::move(arr));
  return JsonResponse(std::move(body));
}

HttpResponse LakeServer::HandleStatsz() const { return JsonResponse(StatszJson()); }

Json LakeServer::StatszJson() const {
  Json out = Json::MakeObject();
  out.Set("models", lake_->NumModels());

  // Quarantine visibility (PR 4): degraded ids and the last recovery.
  std::vector<std::string> degraded = lake_->DegradedModels();
  Json degraded_json = Json::MakeArray();
  for (const std::string& d : degraded) degraded_json.Append(Json(d));
  out.Set("degraded_models", degraded.size());
  out.Set("degraded_model_ids", std::move(degraded_json));
  out.Set("recovery", lake_->recovery().ToJson());

  out.Set("caches", lake_->CacheStatsJson());
  out.Set("index", lake_->IndexStatsJson());
  out.Set("planner", lake_->PlannerStatsJson());

  if (batcher_ != nullptr) {
    out.Set("batching", batcher_->StatsJson());
  } else {
    Json batching = Json::MakeObject();
    batching.Set("enabled", false);
    out.Set("batching", std::move(batching));
  }

  Json server = Json::MakeObject();
  server.Set("uptime_ms", ElapsedMs(start_time_));
  server.Set("threads", options_.threads);
  server.Set("draining", draining_.load());
  server.Set("connections_accepted", connections_accepted_.load());
  server.Set("inflight", inflight_.load());
  server.Set("max_inflight", options_.max_inflight);
  server.Set("queued_connections", queued_conns_.load());
  server.Set("max_queue", options_.max_queue);
  server.Set("rejected_inflight", rejected_inflight_.load());
  server.Set("rejected_queue", rejected_queue_.load());
  out.Set("server", std::move(server));

  if (options_.replication != nullptr) {
    out.Set("replication", options_.replication->StatszJson());
  } else if (lake_->ReplicationLogEnabled()) {
    Json repl = Json::MakeObject();
    repl.Set("role", "leader");
    repl.Set("epoch", lake_->ReplicationEpoch());
    repl.Set("last_seq", lake_->ReplicationLastSeq());
    out.Set("replication", std::move(repl));
  }

  out.Set("governance", governance_stats_.ToJson());

  out.Set("endpoints", metrics_.ToJson());
  return out;
}

HttpResponse LakeServer::HandleModelList() const {
  std::vector<std::string> ids = lake_->ListModels();
  Json arr = Json::MakeArray();
  for (const std::string& model_id : ids) {
    Json entry = Json::MakeObject();
    entry.Set("id", model_id);
    auto card = lake_->CardFor(model_id);
    entry.Set("task", card.ok() ? card.ValueUnsafe().task : "");
    entry.Set("degraded", lake_->IsDegraded(model_id));
    arr.Append(std::move(entry));
  }
  Json body = Json::MakeObject();
  body.Set("count", ids.size());
  body.Set("models", std::move(arr));
  return JsonResponse(std::move(body));
}

HttpResponse LakeServer::HandleModelGet(const std::string& id) const {
  auto card = lake_->CardFor(id);
  if (!card.ok()) return ErrorResponse(card.status());
  Json body = Json::MakeObject();
  body.Set("id", id);
  body.Set("card", card.ValueUnsafe().ToJson());
  body.Set("degraded", lake_->IsDegraded(id));
  auto lineage = lake_->Lineage(id);
  body.Set("lineage", lineage.ok() ? lineage.MoveValueUnsafe() : Json());
  return JsonResponse(std::move(body));
}

HttpResponse LakeServer::HandleLineage(const std::string& id) const {
  auto lineage = lake_->Lineage(id);
  if (!lineage.ok()) return ErrorResponse(lineage.status());
  return JsonResponse(lineage.MoveValueUnsafe());
}

bool LakeServer::RejectStaleGovernanceRead(HttpResponse* response) const {
  if (options_.replication == nullptr) return false;
  if (!options_.replication->IsReplica()) return false;
  if (options_.replication->CaughtUp()) return false;
  governance_stats_.stale_rejected.fetch_add(1, std::memory_order_relaxed);
  uint64_t lag = options_.replication->LagEntries();
  *response = ErrorResponse(Status::Unavailable(
      "replica not caught up (lag " + std::to_string(lag) +
      " entries); retry against this node shortly or read the leader"));
  response->headers.emplace_back(
      "Retry-After",
      std::to_string(options_.replication->StaleRetryAfterSeconds()));
  return true;
}

HttpResponse LakeServer::HandleCitation(const HttpRequest& request,
                                        const std::string& id) const {
  HttpResponse stale;
  if (RejectStaleGovernanceRead(&stale)) return stale;
  auto doc = governance::CitationDoc(*lake_, id);
  if (!doc.ok()) return ErrorResponse(doc.status());
  governance_stats_.citations.fetch_add(1, std::memory_order_relaxed);
  std::string format = request.QueryParam("format", "json");
  if (format == "text" || format == "bibtex") {
    HttpResponse response;
    response.content_type = "text/plain; charset=utf-8";
    response.body = doc.ValueUnsafe().GetString(format);
    response.body.push_back('\n');
    return response;
  }
  if (format != "json") {
    return ErrorResponse(Status::InvalidArgument(
        "format must be one of json, text, bibtex; got \"" + format + "\""));
  }
  return JsonResponse(doc.MoveValueUnsafe());
}

HttpResponse LakeServer::HandleModelDoc(const std::string& id) const {
  HttpResponse stale;
  if (RejectStaleGovernanceRead(&stale)) return stale;
  auto doc = governance::GeneratedDoc(*lake_, id);
  if (!doc.ok()) return ErrorResponse(doc.status());
  governance_stats_.docs.fetch_add(1, std::memory_order_relaxed);
  return JsonResponse(doc.MoveValueUnsafe());
}

HttpResponse LakeServer::HandleAudit(const std::string& id) const {
  HttpResponse stale;
  if (RejectStaleGovernanceRead(&stale)) return stale;
  auto doc = governance::AuditDoc(*lake_, id);
  if (!doc.ok()) return ErrorResponse(doc.status());
  governance_stats_.audits.fetch_add(1, std::memory_order_relaxed);
  return JsonResponse(doc.MoveValueUnsafe());
}

HttpResponse LakeServer::HandleExport(const HttpRequest& request) const {
  HttpResponse stale;
  if (RejectStaleGovernanceRead(&stale)) return stale;

  // Conditional fast path: the change key is (mutation_epoch,
  // index_generation) — cheap to read without opening a snapshot. If
  // the client's tag still matches, nothing observable changed since
  // its last pull.
  std::string current_etag =
      governance::ExportEtag(lake_->MutationEpoch(), lake_->IndexGeneration());
  std::string_view if_none_match = request.Header("if-none-match");
  if (!if_none_match.empty() && if_none_match == current_etag) {
    governance_stats_.export_not_modified.fetch_add(
        1, std::memory_order_relaxed);
    HttpResponse response;
    response.status = 304;
    response.content_type.clear();
    response.headers.emplace_back("ETag", current_etag);
    return response;
  }

  // The iterator pins a consistent snapshot (shared lock) and carries
  // the change key it observed at acquisition, so the tag we send
  // always describes the body we stream — even if a writer slips in
  // between the cheap read above and here.
  auto iterator = std::shared_ptr<core::ModelLake::ExportIterator>(
      lake_->OpenExport());
  governance_stats_.exports.fetch_add(1, std::memory_order_relaxed);

  HttpResponse response;
  response.content_type = "application/x-ndjson";
  response.headers.emplace_back(
      "ETag", governance::ExportEtag(iterator->mutation_epoch(),
                                     iterator->index_generation()));
  response.streamer =
      governance::MakeExportStreamer(std::move(iterator), &governance_stats_);
  return response;
}

HttpResponse LakeServer::HandleSearch(const HttpRequest& request,
                                      std::string* endpoint_label) const {
  // Test/bench seam: idle (non-CPU) delay modeling per-shard service
  // time, or slowing one shard so the router's hedge fires.
  if (options_.test_search_delay_us != nullptr) {
    int64_t delay =
        options_.test_search_delay_us->load(std::memory_order_relaxed);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    }
  }
  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) {
    return ErrorResponse(BodyError(parsed.status(), "malformed JSON body"));
  }
  const Json& body = parsed.ValueUnsafe();
  if (!body.is_object()) {
    return ErrorResponse(Status::InvalidArgument("body must be an object"));
  }
  std::string type = body.GetString("type", "mlql");
  if (endpoint_label != nullptr &&
      (type == "mlql" || type == "ann" || type == "keyword" ||
       type == "hybrid" || type == "ann_vec" || type == "keyword_stats" ||
       type == "hybrid_parts")) {
    // Per-kind latency split in /statsz ("POST /v1/search:ann", ...);
    // unknown types stay under the bare route to bound cardinality.
    endpoint_label->append(":").append(type);
  }
  size_t k = static_cast<size_t>(body.GetInt64("k", 5));
  if (k == 0 || k > 10000) {
    return ErrorResponse(Status::InvalidArgument("k must be in [1, 10000]"));
  }

  Json out = Json::MakeObject();
  out.Set("type", type);
  if (type == "mlql") {
    std::string query = body.GetString("query");
    if (query.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("mlql search requires \"query\""));
    }
    // Cluster-internal: a scatter leg may carry an overlay — hint
    // embeddings for off-shard query models plus global BM25 stats —
    // so this shard scores its documents exactly as a merged lake
    // would.
    const Json* overlay_json = body.Find("overlay");
    search::SearchOverlay overlay;
    bool has_overlay = false;
    if (overlay_json != nullptr) {
      if (!overlay_json->is_object()) {
        return ErrorResponse(
            Status::InvalidArgument("overlay must be an object"));
      }
      has_overlay = true;
      if (const Json* embs = overlay_json->Find("embeddings");
          embs != nullptr && embs->is_object()) {
        for (const auto& [emb_id, arr] : embs->AsObject()) {
          auto vec = FloatsFromJson(arr, "overlay embedding");
          if (!vec.ok()) return ErrorResponse(vec.status());
          overlay.embeddings[emb_id] = vec.MoveValueUnsafe();
        }
      }
      if (const Json* bm25 = overlay_json->Find("bm25");
          bm25 != nullptr && bm25->is_object()) {
        const Json* stats_json = bm25->Find("stats");
        if (stats_json == nullptr) {
          return ErrorResponse(
              Status::InvalidArgument("overlay bm25 requires \"stats\""));
        }
        auto stats = Bm25StatsFromJson(*stats_json);
        if (!stats.ok()) return ErrorResponse(stats.status());
        overlay.has_bm25 = true;
        overlay.bm25_text = bm25->GetString("text");
        overlay.bm25_stats = stats.MoveValueUnsafe();
      }
    }
    auto result = has_overlay ? lake_->QueryWithOverlay(query, overlay)
                              : lake_->Query(query);
    if (!result.ok()) return ErrorResponse(result.status());
    out.Set("plan", result.ValueUnsafe().plan);
    out.Set("models", RankedModelsJson(result.ValueUnsafe().models));
  } else if (type == "ann") {
    std::string query_id = body.GetString("id");
    if (query_id.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("ann search requires \"id\""));
    }
    auto result = batcher_ != nullptr ? batcher_->RelatedModels(query_id, k)
                                      : lake_->RelatedModels(query_id, k);
    if (!result.ok()) return ErrorResponse(result.status());
    out.Set("models", RankedModelsJson(result.ValueUnsafe()));
  } else if (type == "keyword") {
    std::string query = body.GetString("query");
    if (query.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("keyword search requires \"query\""));
    }
    // Cluster-internal: with global "stats" attached, this shard's
    // documents score exactly as they would in the merged corpus
    // (bypasses the batcher — stats-carrying probes don't coalesce).
    if (const Json* stats_json = body.Find("stats"); stats_json != nullptr) {
      auto stats = Bm25StatsFromJson(*stats_json);
      if (!stats.ok()) return ErrorResponse(stats.status());
      auto result =
          lake_->KeywordScoresWithStats(query, k, stats.ValueUnsafe());
      if (!result.ok()) return ErrorResponse(result.status());
      out.Set("models", ScoredPairsJson(result.ValueUnsafe()));
      return JsonResponse(std::move(out));
    }
    auto result = batcher_ != nullptr ? batcher_->KeywordScores(query, k)
                                      : lake_->KeywordScores(query, k);
    if (!result.ok()) return ErrorResponse(result.status());
    out.Set("models", ScoredPairsJson(result.ValueUnsafe()));
  } else if (type == "keyword_stats") {
    // Cluster-internal phase 1 of distributed BM25: this shard's
    // integer contribution to the query's corpus statistics.
    std::string query = body.GetString("query");
    if (query.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("keyword_stats requires \"query\""));
    }
    out.Set("stats", Bm25StatsToJson(lake_->CollectBm25Stats(query)));
  } else if (type == "ann_vec") {
    // Cluster-internal: ann search by raw vector (the router resolves
    // the query model's embedding on its owning shard first).
    const Json* vec_json = body.Find("vec");
    if (vec_json == nullptr) {
      return ErrorResponse(
          Status::InvalidArgument("ann_vec search requires \"vec\""));
    }
    auto vec = FloatsFromJson(*vec_json, "vec");
    if (!vec.ok()) return ErrorResponse(vec.status());
    auto result = lake_->RelatedModelsByVector(
        vec.ValueUnsafe(), k, body.GetString("exclude_id"));
    if (!result.ok()) return ErrorResponse(result.status());
    out.Set("models", RankedModelsJson(result.ValueUnsafe()));
  } else if (type == "hybrid_parts") {
    // Cluster-internal: this shard's WHERE-filtered candidates with
    // their dot products against the query vector — the raw material
    // the router fuses with the global keyword ranking (RRF).
    std::string query = body.GetString("query");
    const Json* vec_json = body.Find("vec");
    if (query.empty() || vec_json == nullptr) {
      return ErrorResponse(Status::InvalidArgument(
          "hybrid_parts requires \"query\" and \"vec\""));
    }
    auto vec = FloatsFromJson(*vec_json, "vec");
    if (!vec.ok()) return ErrorResponse(vec.status());
    auto parts = lake_->HybridParts(query, vec.ValueUnsafe());
    if (!parts.ok()) return ErrorResponse(parts.status());
    Json arr = Json::MakeArray();
    for (const search::HybridCandidate& c : parts.ValueUnsafe()) {
      Json j = Json::MakeObject();
      j.Set("id", c.id);
      if (c.has_dot) j.Set("dot", c.dot);
      arr.Append(std::move(j));
    }
    out.Set("candidates", std::move(arr));
  } else if (type == "hybrid") {
    std::string query = body.GetString("query");
    std::string query_id = body.GetString("id");
    if (query.empty() || query_id.empty()) {
      return ErrorResponse(Status::InvalidArgument(
          "hybrid search requires \"query\" and \"id\""));
    }
    auto result = lake_->HybridSearch(query, query_id, k);
    if (!result.ok()) return ErrorResponse(result.status());
    out.Set("models", RankedModelsJson(result.ValueUnsafe()));
  } else {
    return ErrorResponse(Status::InvalidArgument(
        "unknown search type \"" + type +
        "\" (want mlql | ann | keyword | hybrid | ann_vec | "
        "keyword_stats | hybrid_parts)"));
  }
  return JsonResponse(std::move(out));
}

HttpResponse LakeServer::HandleIngest(const HttpRequest& request) const {
  // A read replica's state is exactly the leader's log; a direct write
  // here would fork it. Promote the node first.
  if (options_.replication != nullptr && options_.replication->IsReplica()) {
    return ErrorResponse(Status::FailedPrecondition(
        "read replica: ingest via the leader, or promote this node"));
  }
  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) {
    return ErrorResponse(BodyError(parsed.status(), "malformed JSON body"));
  }
  const Json& body = parsed.ValueUnsafe();
  if (!body.is_object()) {
    return ErrorResponse(Status::InvalidArgument("body must be an object"));
  }
  const Json* card_json = body.Find("card");
  if (card_json == nullptr) {
    return ErrorResponse(Status::InvalidArgument("ingest requires \"card\""));
  }
  auto card = metadata::ModelCard::FromJson(*card_json);
  if (!card.ok()) {
    return ErrorResponse(BodyError(card.status(), "malformed card"));
  }
  std::string artifact_b64 = body.GetString("artifact_b64");
  if (artifact_b64.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("ingest requires \"artifact_b64\""));
  }
  auto bytes = Base64Decode(artifact_b64);
  if (!bytes.ok()) {
    return ErrorResponse(BodyError(bytes.status(), "malformed artifact_b64"));
  }
  std::string digest = Sha256::HexDigest(bytes.ValueUnsafe());
  // Idempotency: a router (or any client) that could not tell whether a
  // half-delivered ingest applied retries with the artifact digest as
  // X-Mlake-Idempotency-Key. If the model already exists with exactly
  // these bytes, answer success instead of AlreadyExists — the retry
  // and the original are the same logical request.
  if (std::string_view key = request.Header("x-mlake-idempotency-key");
      !key.empty() && key == digest) {
    auto existing = lake_->ArtifactDigest(card.ValueUnsafe().model_id);
    if (existing.ok() && existing.ValueUnsafe() == digest) {
      Json out = Json::MakeObject();
      out.Set("id", card.ValueUnsafe().model_id);
      out.Set("deduped", true);
      return JsonResponse(std::move(out));
    }
  }
  // Shard guard: in a cluster a model lives on the shard its content
  // digest routes to. A misdirected write would fork the lake (the
  // router could never find the model again), so reject it here — the
  // router retries against the owner.
  if (options_.shard_id >= 0 && options_.cluster_size > 1) {
    uint64_t owner = ShardSlotForDigest(
        digest, static_cast<uint64_t>(options_.cluster_size));
    if (owner != static_cast<uint64_t>(options_.shard_id)) {
      return ErrorResponse(Status::FailedPrecondition(
          "artifact digest routes to shard " + std::to_string(owner) +
          ", not this shard (" + std::to_string(options_.shard_id) + ")"));
    }
  }
  auto artifact = storage::ParseArtifact(bytes.ValueUnsafe());
  if (!artifact.ok()) {
    return ErrorResponse(BodyError(artifact.status(), "malformed artifact"));
  }
  auto model = storage::ModelFromArtifact(artifact.ValueUnsafe());
  if (!model.ok()) {
    return ErrorResponse(BodyError(model.status(), "artifact has no model"));
  }
  auto ingested = lake_->IngestModel(*model.ValueUnsafe(), card.ValueUnsafe());
  if (!ingested.ok()) return ErrorResponse(ingested.status());

  Json out = Json::MakeObject();
  out.Set("id", ingested.ValueUnsafe());

  // Optional one-edge lineage claim: {"parent": ..., "edge_type": ...}.
  // The model is already durably ingested at this point, so an edge
  // failure is reported in-band instead of failing the request.
  std::string parent = body.GetString("parent");
  if (!parent.empty()) {
    auto type =
        versioning::EdgeTypeFromString(body.GetString("edge_type", "finetune"));
    Status edge_status =
        type.ok()
            ? lake_->RecordEdge({parent, ingested.ValueUnsafe(),
                                 type.ValueUnsafe(), Json(), 1.0})
            : type.status();
    out.Set("edge_recorded", edge_status.ok());
    if (!edge_status.ok()) out.Set("edge_error", edge_status.ToString());
  }
  return JsonResponse(std::move(out));
}

HttpResponse LakeServer::HandleReplicationLog(
    const HttpRequest& request) const {
  char* end = nullptr;
  uint64_t from = std::strtoull(request.QueryParam("from", "1").c_str(),
                                &end, 10);
  if (from == 0) from = 1;
  uint64_t max = std::strtoull(request.QueryParam("max", "64").c_str(),
                               &end, 10);
  if (max == 0 || max > 4096) max = 64;
  auto out = lake_->ReplicationLogJson(from, static_cast<size_t>(max));
  if (!out.ok()) return ErrorResponse(out.status());
  return JsonResponse(out.MoveValueUnsafe());
}

HttpResponse LakeServer::HandleReplicationBlob(
    const std::string& digest) const {
  auto bytes = lake_->ReadBlob(digest);
  if (!bytes.ok()) return ErrorResponse(bytes.status());
  Json out = Json::MakeObject();
  out.Set("digest", digest);
  out.Set("bytes_b64", Base64Encode(bytes.ValueUnsafe()));
  return JsonResponse(std::move(out));
}

HttpResponse LakeServer::HandleReplicationFingerprint() const {
  if (!lake_->ReplicationLogEnabled()) {
    return ErrorResponse(Status::FailedPrecondition(
        "replication log disabled on this lake"));
  }
  // last_seq rides along so a replica only compares fingerprints when
  // its watermark has caught up to the state the fingerprint describes.
  Json out = Json::MakeObject();
  out.Set("fingerprint", lake_->ReplicationFingerprint());
  out.Set("epoch", lake_->ReplicationEpoch());
  out.Set("last_seq", lake_->ReplicationLastSeq());
  return JsonResponse(std::move(out));
}

HttpResponse LakeServer::HandleReplicationSeed() const {
  auto manifest = lake_->ReplicationSeedJson();
  if (!manifest.ok()) return ErrorResponse(manifest.status());
  // Framed in the PR-6 snapshot container (magic, CRC'd TOC), so the
  // replica validates integrity before trusting a multi-megabyte seed.
  uint64_t upto = static_cast<uint64_t>(
      manifest.ValueUnsafe().GetInt64("upto_seq", 0));
  index::SnapshotWriter writer(index::SnapshotKind::kReplicationSeed, upto);
  std::string dump = manifest.ValueUnsafe().Dump();
  writer.AddSection("manifest", dump.data(), dump.size());
  auto container = writer.Serialize();
  if (!container.ok()) return ErrorResponse(container.status());
  Json out = Json::MakeObject();
  out.Set("upto_seq", Json(upto));
  out.Set("container_b64", Base64Encode(container.ValueUnsafe()));
  return JsonResponse(std::move(out));
}

HttpResponse LakeServer::HandleReplicationShip(
    const HttpRequest& request) const {
  if (options_.replication == nullptr) {
    return ErrorResponse(Status::FailedPrecondition(
        "not a replica: nothing accepts shipped log entries here"));
  }
  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) {
    return ErrorResponse(BodyError(parsed.status(), "malformed JSON body"));
  }
  auto out = options_.replication->Ship(parsed.ValueUnsafe());
  if (!out.ok()) return ErrorResponse(out.status());
  return JsonResponse(out.MoveValueUnsafe());
}

HttpResponse LakeServer::HandleReplicationPromote() const {
  if (options_.replication == nullptr) {
    return ErrorResponse(Status::FailedPrecondition(
        "not a replica: already " +
        std::string(lake_->ReplicationLogEnabled() ? "a leader"
                                                   : "standalone")));
  }
  Status promoted = options_.replication->Promote();
  if (!promoted.ok()) return ErrorResponse(promoted);
  Json out = Json::MakeObject();
  out.Set("role", "leader");
  out.Set("epoch", lake_->ReplicationEpoch());
  out.Set("applied_seq", options_.replication->AppliedSeq());
  return JsonResponse(std::move(out));
}

HttpResponse LakeServer::HandleDebugSleep(const HttpRequest& request,
                                          Clock::time_point deadline,
                                          bool has_deadline, int fd) const {
  long ms = std::strtol(request.QueryParam("ms", "100").c_str(), nullptr, 10);
  if (ms < 0) ms = 0;
  if (ms > 10000) ms = 10000;
  auto wake = Clock::now() + std::chrono::milliseconds(ms);
  // Sliced sleep so an expired deadline — or a severed connection (the
  // drain deadline's force-close) — is noticed promptly mid-nap.
  while (Clock::now() < wake) {
    if (has_deadline && Clock::now() >= deadline) {
      return ErrorResponse(
          Status::DeadlineExceeded("deadline expired while sleeping"));
    }
    if (SocketDead(fd)) {
      return ErrorResponse(Status::Unavailable("connection severed"));
    }
    auto next = std::min(wake, Clock::now() + std::chrono::milliseconds(5));
    std::this_thread::sleep_until(next);
  }
  Json body = Json::MakeObject();
  body.Set("slept_ms", static_cast<int64_t>(ms));
  return JsonResponse(std::move(body));
}

}  // namespace mlake::server
