#include "cluster/router.h"

#include <algorithm>
#include <climits>
#include <functional>
#include <set>
#include <unordered_map>

#include "common/hash.h"
#include "common/sharding.h"
#include "common/string_util.h"
#include "search/executor.h"
#include "search/parser.h"
#include "server/server.h"

namespace mlake::cluster {

namespace {

using server::ErrorResponse;
using server::HttpResponse;
using server::JsonResponse;
using server::RequestContext;

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline` (0 when already past; huge for
/// server::kNoDeadline).
int64_t RemainingMs(Clock::time_point deadline) {
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  Clock::now())
                .count();
  return ms < 0 ? 0 : ms;
}

/// One backend attempt's transport budget: the remaining deadline plus
/// slack, so a backend enforcing the forwarded deadline answers 504
/// in-band instead of dying as an opaque socket timeout. Clamped into
/// int range (a request without a deadline has ~forever left).
int AttemptTimeoutMs(int64_t remaining_ms) {
  return static_cast<int>(std::min<int64_t>(remaining_ms + 50, INT_MAX));
}

/// The X-Mlake-Deadline-Ms value forwarded to a backend: the remaining
/// budget, or 0 (no header) when the request has no deadline.
int64_t ForwardedDeadlineMs(Clock::time_point deadline) {
  if (deadline == server::kNoDeadline) return 0;
  return std::max<int64_t>(1, RemainingMs(deadline));
}

/// Reconstructs a Status from a backend error response so the router
/// can re-emit it through ErrorResponse with the same code family.
Status StatusFromResponse(const HttpResponse& response) {
  std::string message =
      "backend answered HTTP " + std::to_string(response.status);
  std::string code;
  if (auto parsed = Json::Parse(response.body);
      parsed.ok() && parsed.ValueUnsafe().is_object()) {
    const Json* err = parsed.ValueUnsafe().Find("error");
    if (err != nullptr && err->is_object()) {
      code = err->GetString("code");
      message = err->GetString("message", message);
    }
  }
  if (code == "NotFound") return Status::NotFound(message);
  if (code == "InvalidArgument") return Status::InvalidArgument(message);
  if (code == "AlreadyExists") return Status::AlreadyExists(message);
  if (code == "FailedPrecondition") return Status::FailedPrecondition(message);
  if (code == "OutOfRange") return Status::OutOfRange(message);
  if (code == "Unimplemented") return Status::Unimplemented(message);
  if (code == "ResourceExhausted") return Status::ResourceExhausted(message);
  if (code == "DeadlineExceeded") return Status::DeadlineExceeded(message);
  if (code == "Unavailable") return Status::Unavailable(message);
  return Status::Internal(message);
}

/// All legs answered 200? Otherwise `*relay` is the first non-200
/// backend response, re-emitted verbatim — the backend's error body is
/// exactly what a single-lake server would have said.
bool AllOk(const std::vector<HttpResponse>& legs, HttpResponse* relay) {
  for (const HttpResponse& leg : legs) {
    if (leg.status != 200) {
      *relay = leg;
      return false;
    }
  }
  return true;
}

Result<Json> ParseJsonBody(const HttpResponse& response) {
  auto parsed = Json::Parse(response.body);
  if (!parsed.ok()) {
    return Status::Internal("malformed backend response: " +
                            parsed.status().message());
  }
  if (!parsed.ValueUnsafe().is_object()) {
    return Status::Internal("backend response is not an object");
  }
  return parsed;
}

/// One merged search hit. Scores travel the wire as 17-significant-digit
/// doubles (std::to_chars out, std::from_chars back: an exact double
/// round trip), so sorting parsed legs with the executor's comparator
/// reproduces the single-lake order bit for bit.
struct MergedHit {
  double score = 0.0;
  std::string id;
};

bool ScoreDescIdAsc(const MergedHit& a, const MergedHit& b) {
  return a.score > b.score || (a.score == b.score && a.id < b.id);
}

/// Collects every leg's "models" entries into one list.
Result<std::vector<MergedHit>> CollectHits(
    const std::vector<HttpResponse>& legs) {
  std::vector<MergedHit> hits;
  for (const HttpResponse& leg : legs) {
    MLAKE_ASSIGN_OR_RETURN(Json body, ParseJsonBody(leg));
    const Json* models = body.Find("models");
    if (models == nullptr || !models->is_array()) {
      return Status::Internal("backend search response has no models array");
    }
    for (const Json& m : models->AsArray()) {
      if (!m.is_object()) continue;
      hits.push_back(MergedHit{m.GetDouble("score"), m.GetString("id")});
    }
  }
  return hits;
}

/// The "models" array of the best k hits: same comparator as the
/// executor's final sort, truncated to k.
Json TopKJson(std::vector<MergedHit> hits, size_t k) {
  std::sort(hits.begin(), hits.end(), ScoreDescIdAsc);
  if (hits.size() > k) hits.resize(k);
  Json arr = Json::MakeArray();
  for (const MergedHit& h : hits) {
    Json j = Json::MakeObject();
    j.Set("id", h.id);
    j.Set("score", h.score);
    arr.Append(std::move(j));
  }
  return arr;
}

/// Merges per-shard top-k lists. Shards hold disjoint models, so no
/// dedup is needed and each document's score is its exact global one.
Result<Json> MergeModels(const std::vector<HttpResponse>& legs, size_t k) {
  MLAKE_ASSIGN_OR_RETURN(std::vector<MergedHit> hits, CollectHits(legs));
  return TopKJson(std::move(hits), k);
}

/// The server caps k at 10000, so that is the deepest global keyword
/// ranking one scatter can assemble (documented limitation: hybrid RRF
/// ranks are exact while every shard has <= 10000 scoring documents).
constexpr int64_t kMaxServerK = 10000;

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      pool_(options_.max_idle_per_endpoint == 0 ? 1
                                                : options_.max_idle_per_endpoint),
      // No admission limits of its own: the backends enforce theirs.
      frontend_({.bind_address = options_.bind_address,
                 .port = options_.port,
                 .threads = options_.threads,
                 .max_requests_per_connection =
                     options_.max_requests_per_connection,
                 .keep_alive_timeout_ms = options_.keep_alive_timeout_ms,
                 .default_deadline_ms = options_.default_deadline_ms,
                 .drain_deadline_ms = options_.drain_deadline_ms,
                 .max_body_bytes = options_.max_body_bytes},
                Routes()) {
  if (options_.fanout_threads <= 0) {
    options_.fanout_threads =
        std::max<int>(8, 2 * static_cast<int>(options_.backends.size()));
  }
  if (options_.heartbeat_interval_ms <= 0) options_.heartbeat_interval_ms = 500;
  if (options_.heartbeat_timeout_ms <= 0) options_.heartbeat_timeout_ms = 250;
  if (options_.heartbeat_misses_down <= 0) options_.heartbeat_misses_down = 1;
  if (options_.hedge_min_delay_ms < 0) options_.hedge_min_delay_ms = 0;
  for (size_t i = 0; i < options_.backends.size(); ++i) {
    backends_.push_back(std::make_unique<BackendState>());
  }
}

Router::~Router() { (void)Stop(); }

std::shared_ptr<const ShardMap> Router::CurrentMap() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  return map_;
}

Status Router::Start() {
  if (started_.load()) return Status::FailedPrecondition("already started");
  if (options_.backends.empty()) {
    return Status::InvalidArgument("router needs at least one backend");
  }
  int max_shard = 0;
  for (const BackendSpec& b : options_.backends) {
    if (b.shard_id < 0) {
      return Status::InvalidArgument("backend " + b.host + ":" +
                                     std::to_string(b.port) +
                                     " has no shard assignment");
    }
    max_shard = std::max(max_shard, b.shard_id);
  }
  cluster_size_ = options_.cluster_size > 0
                      ? static_cast<size_t>(options_.cluster_size)
                      : static_cast<size_t>(max_shard) + 1;
  std::vector<int> per_slot(cluster_size_, 0);
  for (const BackendSpec& b : options_.backends) {
    if (static_cast<size_t>(b.shard_id) < cluster_size_) {
      per_slot[static_cast<size_t>(b.shard_id)]++;
    }
  }
  for (size_t slot = 0; slot < cluster_size_; ++slot) {
    if (per_slot[slot] == 0) {
      return Status::InvalidArgument("shard " + std::to_string(slot) +
                                     " has no backend");
    }
  }

  fanout_pool_ = std::make_unique<ThreadPool>(options_.fanout_threads);

  // Synchronous first poll: the front end starts with a live map, so a
  // request racing the first heartbeat tick never sees unknown health.
  PollBackendsOnce();
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    PublishMapLocked();
  }
  Status st = frontend_.Start();
  if (!st.ok()) {
    fanout_pool_.reset();
    return st;
  }
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = false;
  }
  heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
  started_.store(true);
  return Status::OK();
}

Status Router::Stop() {
  if (!started_.load()) return Status::OK();
  // Drain first: in-flight scatters still need the fanout pool, and
  // the heartbeat keeps the shard map current meanwhile.
  Status st = frontend_.Stop();
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
    hb_cv_.notify_all();
  }
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  fanout_pool_.reset();
  started_.store(false);
  return st;
}

std::vector<server::Route> Router::Routes() {
  auto bind = [this](auto handler) { return std::bind_front(handler, this); };
  // Reads broadcast: the owner answers, everyone else 404s. Governance
  // reads (citation, doc, audit) take the same path: the shard map
  // ranks caught-up replicas ahead of their leader, and a stale
  // replica's 503 is retryable — the leg fails over to the leader — so
  // these prefer replicas without risking stale answers.
  return {
      {"GET", "/healthz", bind(&Router::HandleHealthz), /*exempt=*/true},
      {"GET", "/statsz",
       [this](RequestContext&) { return JsonResponse(StatszJson()); }},
      {"GET", "/v1/models", bind(&Router::HandleModelList)},
      {"GET", "/v1/models/{id}/citation", bind(&Router::HandleBroadcast)},
      {"GET", "/v1/models/{id}/doc", bind(&Router::HandleBroadcast)},
      {"GET", "/v1/models/{id}", bind(&Router::HandleBroadcast)},
      {"GET", "/v1/audit/{id}", bind(&Router::HandleBroadcast)},
      {"GET", "/v1/export", bind(&Router::HandleExport)},
      {"GET", "/v1/lineage/{id}", bind(&Router::HandleBroadcast)},
      {"GET", "/v1/embedding/{id}", bind(&Router::HandleBroadcast)},
      {"POST", "/v1/search", bind(&Router::HandleSearch)},
      {"POST", "/v1/ingest", bind(&Router::HandleIngest)},
  };
}

// ---------------------------------------------------------------------------
// Heartbeats and the versioned shard map
// ---------------------------------------------------------------------------

void Router::HeartbeatLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(hb_mu_);
      if (hb_cv_.wait_for(
              lock, std::chrono::milliseconds(options_.heartbeat_interval_ms),
              [this] { return hb_stop_; })) {
        return;
      }
    }
    TickNow();
  }
}

void Router::TickNow() {
  PollBackendsOnce();
  std::lock_guard<std::mutex> lock(map_mu_);
  PublishMapLocked();
}

void Router::PollBackendsOnce() {
  for (size_t i = 0; i < options_.backends.size(); ++i) {
    const BackendSpec& spec = options_.backends[i];
    BackendState& state = *backends_[i];
    auto lease = pool_.Acquire(spec.host, spec.port);
    auto result =
        lease->Get("/v1/heartbeat", {}, options_.heartbeat_timeout_ms);
    if (!result.ok() || result.ValueUnsafe().status != 200) {
      if (!result.ok()) lease.Discard();
      int misses = state.misses.fetch_add(1, std::memory_order_relaxed) + 1;
      if (misses >= options_.heartbeat_misses_down) {
        state.healthy.store(false, std::memory_order_relaxed);
      }
      continue;
    }
    auto body = Json::Parse(result.ValueUnsafe().body);
    if (!body.ok() || !body.ValueUnsafe().is_object()) continue;
    const Json& hb = body.ValueUnsafe();
    state.misses.store(0, std::memory_order_relaxed);
    state.healthy.store(true, std::memory_order_relaxed);
    state.draining.store(hb.GetBool("draining"), std::memory_order_relaxed);
    state.inflight.store(hb.GetInt64("inflight"), std::memory_order_relaxed);
    state.models.store(hb.GetInt64("models"), std::memory_order_relaxed);
    state.index_generation.store(hb.GetInt64("index_generation"),
                                 std::memory_order_relaxed);
    state.p95_us.store(static_cast<int64_t>(hb.GetDouble("search_p95_us")),
                       std::memory_order_relaxed);
    state.is_replica.store(hb.GetString("role") == "replica",
                           std::memory_order_relaxed);
    state.applied_seq.store(
        static_cast<uint64_t>(hb.GetInt64("applied_seq")),
        std::memory_order_relaxed);
    state.replication_epoch.store(
        static_cast<uint64_t>(hb.GetInt64("replication_epoch")),
        std::memory_order_relaxed);
    state.heartbeats_ok.fetch_add(1, std::memory_order_relaxed);
  }
}

void Router::PublishMapLocked() {
  std::vector<BackendHealth> health(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    const BackendState& s = *backends_[i];
    health[i].healthy = s.healthy.load(std::memory_order_relaxed);
    health[i].draining = s.draining.load(std::memory_order_relaxed);
    health[i].is_replica = s.is_replica.load(std::memory_order_relaxed);
    health[i].inflight = s.inflight.load(std::memory_order_relaxed);
    health[i].p95_us = s.p95_us.load(std::memory_order_relaxed);
  }
  ShardMap next =
      BuildShardMap(options_.backends, health, cluster_size_, epoch_ + 1);
  // Epoch bumps only on a real assignment change: the deterministic
  // replica ordering makes the comparison structural, so a quiet
  // cluster keeps one epoch and in-flight drains are the exception,
  // not the rule. A role flip (promote) changes the writer lists even
  // when the read order holds, so both are compared.
  if (map_ != nullptr && next.replicas == map_->replicas &&
      next.writers == map_->writers) {
    return;
  }
  epoch_ += 1;
  next.epoch = epoch_;
  map_ = std::make_shared<const ShardMap>(std::move(next));
}

// ---------------------------------------------------------------------------
// Scatter-gather with hedged retries
// ---------------------------------------------------------------------------

void Router::LaunchAttempt(const std::shared_ptr<LegCall>& call, int backend,
                           int attempt_index, const std::string& method,
                           const std::string& path, const std::string& body,
                           Clock::time_point deadline) {
  const int64_t deadline_ms = ForwardedDeadlineMs(deadline);
  const int timeout_ms =
      AttemptTimeoutMs(std::max<int64_t>(1, RemainingMs(deadline)));
  {
    std::lock_guard<std::mutex> lock(call->mu);
    call->launched++;
    call->outstanding++;
  }
  const BackendSpec& spec = options_.backends[static_cast<size_t>(backend)];
  std::string host = spec.host;
  int port = spec.port;
  fanout_pool_->Submit([this, call, host, port, attempt_index, method, path,
                        body, timeout_ms, deadline_ms] {
    std::vector<std::pair<std::string, std::string>> headers;
    if (deadline_ms > 0) {
      headers.emplace_back("X-Mlake-Deadline-Ms", std::to_string(deadline_ms));
    }
    auto lease = pool_.Acquire(host, port);
    // Scatter legs are read-only (/v1/search families), so the POSTs are
    // idempotent and may ride the client's keep-alive-race retry.
    Result<HttpResponse> result =
        method == "GET" ? lease->Get(path, headers, timeout_ms)
                        : lease->Post(path, body, headers, timeout_ms,
                                      /*idempotent=*/true);
    // 503 (draining / shutting down) is retryable on a replica; any
    // other HTTP status is the backend's definitive answer.
    bool retryable =
        !result.ok() || result.ValueUnsafe().status == 503;
    if (!result.ok()) lease.Discard();
    std::lock_guard<std::mutex> lock(call->mu);
    call->outstanding--;
    if (!retryable) {
      if (!call->have_response) {
        call->have_response = true;
        call->response = result.MoveValueUnsafe();
        call->winner = attempt_index;
      }
    } else {
      call->error = result.ok()
                        ? Status::Unavailable("backend answered 503")
                        : result.status();
    }
    call->cv.notify_all();
  });
}

Result<std::vector<server::HttpResponse>> Router::Scatter(
    const std::string& method, const std::string& path,
    const std::string& body, Clock::time_point deadline) {
  std::shared_ptr<const ShardMap> map = CurrentMap();
  if (map == nullptr || map->cluster_size() != cluster_size_) {
    return Status::Unavailable("no shard map published yet");
  }
  if (RemainingMs(deadline) <= 0) {
    return Status::DeadlineExceeded("deadline expired before scatter");
  }

  // Per-leg runtime: the LegCall (shared with attempt tasks) plus the
  // monitor's bookkeeping (which replica fires next, hedge deadline).
  struct LegRun {
    std::vector<int> replicas;
    std::shared_ptr<LegCall> call = std::make_shared<LegCall>();
    Clock::time_point hedge_at;
    size_t next_replica = 1;
    bool hedged = false;
    int hedge_attempt = -1;
  };
  std::vector<LegRun> legs(cluster_size_);

  // Launch every slot's primary up front; the monitor below never holds
  // a fanout-pool slot itself, so attempts cannot starve behind waits.
  for (size_t slot = 0; slot < cluster_size_; ++slot) {
    LegRun& leg = legs[slot];
    leg.replicas = map->replicas[slot];
    if (leg.replicas.empty()) {
      return Status::Unavailable("shard " + std::to_string(slot) +
                                 " has no backend");
    }
    int primary = leg.replicas[0];
    // Hedge when the primary exceeds a multiple of its own advertised
    // p95 (floor for cold backends with no history yet).
    int64_t p95_ms =
        backends_[static_cast<size_t>(primary)]->p95_us.load(
            std::memory_order_relaxed) /
        1000;
    int64_t hedge_ms = std::max<int64_t>(
        options_.hedge_min_delay_ms,
        static_cast<int64_t>(static_cast<double>(p95_ms) *
                             options_.hedge_p95_multiplier));
    bool can_hedge = options_.enable_hedging && leg.replicas.size() > 1;
    leg.hedge_at = can_hedge
                       ? std::min(deadline, Clock::now() + std::chrono::milliseconds(
                                                hedge_ms))
                       : deadline;
    LaunchAttempt(leg.call, primary, 0, method, path, body, deadline);
  }

  // Pass 1 — hedging: visit legs in hedge-deadline order. A leg whose
  // primary failed outright fails over immediately; one that is merely
  // slow gets a second attempt on the next replica.
  std::vector<size_t> order(cluster_size_);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return legs[a].hedge_at < legs[b].hedge_at;
  });
  for (size_t slot : order) {
    LegRun& leg = legs[slot];
    std::unique_lock<std::mutex> lock(leg.call->mu);
    while (!leg.call->have_response && Clock::now() < leg.hedge_at) {
      if (leg.call->outstanding == 0) {
        // Every launched attempt failed: fail over, don't wait.
        if (leg.next_replica >= leg.replicas.size() ||
            RemainingMs(deadline) <= 0) {
          break;
        }
        int backend = leg.replicas[leg.next_replica++];
        int attempt = leg.call->launched;
        failovers_.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        LaunchAttempt(leg.call, backend, attempt, method, path, body,
                      deadline);
        lock.lock();
        continue;
      }
      leg.call->cv.wait_until(lock, leg.hedge_at);
    }
    if (!leg.call->have_response && leg.call->outstanding > 0 &&
        options_.enable_hedging && !leg.hedged &&
        leg.next_replica < leg.replicas.size() && RemainingMs(deadline) > 0) {
      int backend = leg.replicas[leg.next_replica++];
      leg.hedged = true;
      leg.hedge_attempt = leg.call->launched;
      hedges_fired_.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      LaunchAttempt(leg.call, backend, leg.hedge_attempt, method, path,
                    body, deadline);
    }
  }

  // Pass 2 — completion: wait each leg out (keeping failover alive),
  // up to the request deadline. Abandoned attempts finish in the
  // background against their shared LegCall.
  std::vector<HttpResponse> out(cluster_size_);
  for (size_t slot = 0; slot < cluster_size_; ++slot) {
    LegRun& leg = legs[slot];
    std::unique_lock<std::mutex> lock(leg.call->mu);
    for (;;) {
      if (leg.call->have_response) break;
      if (leg.call->outstanding == 0) {
        if (leg.next_replica < leg.replicas.size() &&
            RemainingMs(deadline) > 0) {
          int backend = leg.replicas[leg.next_replica++];
          int attempt = leg.call->launched;
          failovers_.fetch_add(1, std::memory_order_relaxed);
          lock.unlock();
          LaunchAttempt(leg.call, backend, attempt, method, path, body,
                        deadline);
          lock.lock();
          continue;
        }
        // Exhausted every replica: the whole scatter fails — a top-k
        // missing one shard's documents would be silently wrong.
        return leg.call->error;
      }
      if (Clock::now() >= deadline) {
        return Status::DeadlineExceeded("shard " + std::to_string(slot) +
                                        " did not answer before the deadline");
      }
      leg.call->cv.wait_until(lock, deadline);
    }
    if (leg.hedged && leg.call->winner == leg.hedge_attempt) {
      hedge_wins_.fetch_add(1, std::memory_order_relaxed);
    }
    out[slot] = leg.call->response;
  }
  return out;
}

Result<server::HttpResponse> Router::BroadcastFirst(const std::string& path,
                                                    Clock::time_point deadline) {
  MLAKE_ASSIGN_OR_RETURN(std::vector<HttpResponse> legs,
                         Scatter("GET", path, "", deadline));
  for (HttpResponse& leg : legs) {
    if (leg.status / 100 == 2) return std::move(leg);
  }
  // Nobody owns it. Prefer a "real" error over the owner-miss 404s.
  for (HttpResponse& leg : legs) {
    if (leg.status != 404) return std::move(leg);
  }
  return std::move(legs[0]);
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

HttpResponse Router::HandleHealthz(RequestContext&) {
  Json body = Json::MakeObject();
  bool draining = frontend_.draining();
  body.Set("status", draining ? "draining" : "ok");
  std::shared_ptr<const ShardMap> map = CurrentMap();
  body.Set("epoch", static_cast<int64_t>(map != nullptr ? map->epoch : 0));
  body.Set("cluster_size", static_cast<int64_t>(cluster_size_));
  return JsonResponse(std::move(body), draining ? 503 : 200);
}

Json Router::StatszJson() const {
  Json out = Json::MakeObject();
  out.Set("cluster_size", static_cast<int64_t>(cluster_size_));
  std::shared_ptr<const ShardMap> map = CurrentMap();
  out.Set("epoch", static_cast<int64_t>(map != nullptr ? map->epoch : 0));
  if (map != nullptr) out.Set("shard_map", map->ToJson());

  Json backends = Json::MakeArray();
  for (size_t i = 0; i < options_.backends.size(); ++i) {
    const BackendSpec& spec = options_.backends[i];
    const BackendState& s = *backends_[i];
    Json b = Json::MakeObject();
    b.Set("host", spec.host);
    b.Set("port", spec.port);
    b.Set("shard_id", spec.shard_id);
    b.Set("healthy", s.healthy.load(std::memory_order_relaxed));
    b.Set("draining", s.draining.load(std::memory_order_relaxed));
    b.Set("inflight", s.inflight.load(std::memory_order_relaxed));
    b.Set("search_p95_us", s.p95_us.load(std::memory_order_relaxed));
    b.Set("models", s.models.load(std::memory_order_relaxed));
    b.Set("index_generation",
          s.index_generation.load(std::memory_order_relaxed));
    b.Set("heartbeats_ok", s.heartbeats_ok.load(std::memory_order_relaxed));
    b.Set("consecutive_misses", s.misses.load(std::memory_order_relaxed));
    b.Set("role", s.is_replica.load(std::memory_order_relaxed)
                      ? "replica"
                      : "writer");
    b.Set("applied_seq",
          Json(s.applied_seq.load(std::memory_order_relaxed)));
    b.Set("replication_epoch",
          Json(s.replication_epoch.load(std::memory_order_relaxed)));
    backends.Append(std::move(b));
  }
  out.Set("backends", std::move(backends));

  Json hedging = Json::MakeObject();
  hedging.Set("enabled", options_.enable_hedging);
  hedging.Set("fired", hedges_fired_.load(std::memory_order_relaxed));
  hedging.Set("wins", hedge_wins_.load(std::memory_order_relaxed));
  hedging.Set("failovers", failovers_.load(std::memory_order_relaxed));
  out.Set("hedging", std::move(hedging));

  Json server_json = frontend_.StatsJson();
  server_json.Set("fanout_threads", options_.fanout_threads);
  out.Set("server", std::move(server_json));

  out.Set("endpoints", frontend_.metrics().ToJson());
  return out;
}

HttpResponse Router::HandleModelList(RequestContext& ctx) {
  auto legs = Scatter("GET", "/v1/models", "", ctx.deadline);
  if (!legs.ok()) return ErrorResponse(legs.status());
  HttpResponse relay;
  if (!AllOk(legs.ValueUnsafe(), &relay)) return relay;

  // Concatenate and re-sort by id — each shard lists its own models in
  // id order, so the merged view matches a single lake's listing.
  std::vector<Json> entries;
  for (const HttpResponse& leg : legs.ValueUnsafe()) {
    auto body = ParseJsonBody(leg);
    if (!body.ok()) return ErrorResponse(body.status());
    const Json* models = body.ValueUnsafe().Find("models");
    if (models == nullptr || !models->is_array()) continue;
    for (const Json& entry : models->AsArray()) entries.push_back(entry);
  }
  std::sort(entries.begin(), entries.end(), [](const Json& a, const Json& b) {
    return a.GetString("id") < b.GetString("id");
  });
  Json arr = Json::MakeArray();
  for (Json& entry : entries) arr.Append(std::move(entry));
  Json body = Json::MakeObject();
  body.Set("count", entries.size());
  body.Set("models", std::move(arr));
  return JsonResponse(std::move(body));
}

HttpResponse Router::HandleBroadcast(RequestContext& ctx) {
  // The raw target, query string included: backends answer e.g.
  // `citation?format=bibtex` differently from the bare path.
  auto result = BroadcastFirst(ctx.request.target, ctx.deadline);
  if (!result.ok()) return ErrorResponse(result.status());
  return result.MoveValueUnsafe();
}

HttpResponse Router::HandleExport(RequestContext& ctx) {
  auto legs = Scatter("GET", ctx.request.target, "", ctx.deadline);
  if (!legs.ok()) return ErrorResponse(legs.status());
  HttpResponse relay;
  if (!AllOk(legs.ValueUnsafe(), &relay)) return relay;

  // Merge the per-shard NDJSON dumps into one lake-wide dump. Records
  // keep their shard-emitted bytes verbatim (the determinism contract
  // lives in the record bytes, not the framing): models re-sort by id
  // globally, edges and datasets deduplicate on their full record line
  // (cross-shard lineage edges are recorded on both endpoints' shards)
  // and sort, headers/footers are rebuilt from the merged counts.
  std::vector<std::pair<std::string, std::string>> models;  // id -> line
  std::set<std::string> edges;
  std::set<std::string> datasets;
  std::string header_line;
  for (const HttpResponse& leg : legs.ValueUnsafe()) {
    size_t start = 0;
    const std::string& text = leg.body;
    while (start < text.size()) {
      size_t eol = text.find('\n', start);
      if (eol == std::string::npos) eol = text.size();
      std::string line = text.substr(start, eol - start);
      start = eol + 1;
      if (line.empty()) continue;
      auto record = Json::Parse(line);
      if (!record.ok() || !record.ValueUnsafe().is_object()) {
        return ErrorResponse(Status::Internal(
            "malformed export record from a shard: " + line.substr(0, 120)));
      }
      const Json& rec = record.ValueUnsafe();
      std::string kind = rec.GetString("kind");
      if (kind == "header") {
        if (header_line.empty()) header_line = line;
      } else if (kind == "model") {
        models.emplace_back(rec.GetString("id"), line);
      } else if (kind == "edge") {
        edges.insert(line);
      } else if (kind == "dataset") {
        datasets.insert(line);
      }  // footer: rebuilt below
    }
  }
  std::sort(models.begin(), models.end());

  auto header = Json::Parse(header_line);
  if (!header.ok() || !header.ValueUnsafe().is_object()) {
    return ErrorResponse(Status::Internal("no export header from any shard"));
  }
  Json counts = Json::MakeObject();
  counts.Set("models", models.size());
  counts.Set("edges", edges.size());
  counts.Set("datasets", datasets.size());
  header.ValueUnsafe().Set("counts", std::move(counts));

  HttpResponse out;
  out.content_type = "application/x-ndjson";
  out.body = header.ValueUnsafe().Dump();
  out.body.push_back('\n');
  for (const auto& [id, line] : models) {
    out.body.append(line);
    out.body.push_back('\n');
  }
  for (const std::string& line : edges) {
    out.body.append(line);
    out.body.push_back('\n');
  }
  for (const std::string& line : datasets) {
    out.body.append(line);
    out.body.push_back('\n');
  }
  Json footer = Json::MakeObject();
  footer.Set("kind", std::string("footer"));
  footer.Set("records", models.size() + edges.size() + datasets.size());
  out.body.append(footer.Dump());
  out.body.push_back('\n');
  return out;
}

HttpResponse Router::HandleSearch(RequestContext& ctx) {
  const Clock::time_point deadline = ctx.deadline;
  auto parsed = Json::Parse(ctx.request.body);
  if (!parsed.ok()) {
    return ErrorResponse(Status::InvalidArgument("malformed JSON body: " +
                                                 parsed.status().message()));
  }
  const Json& body = parsed.ValueUnsafe();
  if (!body.is_object()) {
    return ErrorResponse(Status::InvalidArgument("body must be an object"));
  }
  std::string type = body.GetString("type", "mlql");
  ctx.label = server::SearchEndpointLabel(type);
  int64_t k_raw = body.GetInt64("k", 5);
  if (k_raw <= 0 || k_raw > kMaxServerK) {
    return ErrorResponse(Status::InvalidArgument("k must be in [1, 10000]"));
  }
  size_t k = static_cast<size_t>(k_raw);

  if (type == "mlql") {
    std::string query = body.GetString("query");
    if (query.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("mlql search requires \"query\""));
    }
    return SearchMlql(query, deadline);
  } else if (type == "ann" || type == "ann_vec") {
    return SearchAnn(body, k, deadline);
  } else if (type == "keyword") {
    std::string query = body.GetString("query");
    if (query.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("keyword search requires \"query\""));
    }
    return SearchKeyword(body, k, deadline);
  } else if (type == "hybrid") {
    std::string text = body.GetString("query");
    std::string query_id = body.GetString("id");
    if (text.empty() || query_id.empty()) {
      return ErrorResponse(Status::InvalidArgument(
          "hybrid search requires \"query\" and \"id\""));
    }
    return SearchHybrid(text, query_id, k, "hybrid",
                        search::HybridSearchMlql(text, query_id, k), deadline);
  }
  return ErrorResponse(Status::InvalidArgument(
      "unknown search type \"" + type +
      "\" (the router serves mlql | ann | keyword | hybrid)"));
}

HttpResponse Router::SearchMlql(const std::string& query,
                                Clock::time_point deadline) {
  auto parsed = search::ParseQuery(query);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const search::Query& q = parsed.ValueUnsafe();

  // Hybrid-ranked queries take the parts path: RRF needs the *global*
  // keyword and similarity rankings, which no single shard can see.
  if (q.has_rank && q.rank.function == "hybrid" && q.rank.args.size() == 2 &&
      q.rank.args[0].kind == search::Literal::Kind::kString &&
      q.rank.args[1].kind == search::Literal::Kind::kString) {
    return SearchHybrid(q.rank.args[0].string_value,
                        q.rank.args[1].string_value, q.limit, "mlql", query,
                        deadline);
  }

  Json leg_body = Json::MakeObject();
  leg_body.Set("type", "mlql");
  leg_body.Set("query", query);

  // Overlay: whatever cross-shard context a leg needs so its local
  // scores are bit-identical to a merged lake's.
  Json overlay = Json::MakeObject();
  bool has_overlay = false;
  if (q.has_rank &&
      (q.rank.function == "behavior_sim" || q.rank.function == "weight_sim") &&
      q.rank.args.size() == 1 &&
      q.rank.args[0].kind == search::Literal::Kind::kString) {
    // The rank-target model lives on one shard; every other shard gets
    // its embedding as a hint (consulted only after a local miss).
    const std::string& rank_id = q.rank.args[0].string_value;
    auto vec = ResolveEmbedding(rank_id, deadline);
    if (!vec.ok()) return ErrorResponse(vec.status());
    Json embeddings = Json::MakeObject();
    embeddings.Set(rank_id, FloatsToJson(vec.ValueUnsafe()));
    overlay.Set("embeddings", std::move(embeddings));
    has_overlay = true;
  }
  if (q.has_rank && q.rank.function == "keyword" && q.rank.args.size() == 1 &&
      q.rank.args[0].kind == search::Literal::Kind::kString) {
    const std::string& text = q.rank.args[0].string_value;
    auto stats = GlobalKeywordStats(text, deadline);
    if (!stats.ok()) return ErrorResponse(stats.status());
    Json bm25 = Json::MakeObject();
    bm25.Set("text", text);
    bm25.Set("stats", stats.MoveValueUnsafe());
    overlay.Set("bm25", std::move(bm25));
    has_overlay = true;
  }
  if (has_overlay) leg_body.Set("overlay", std::move(overlay));

  auto legs = Scatter("POST", "/v1/search", leg_body.Dump(), deadline);
  if (!legs.ok()) return ErrorResponse(legs.status());
  HttpResponse relay;
  if (!AllOk(legs.ValueUnsafe(), &relay)) return relay;
  auto merged = MergeModels(legs.ValueUnsafe(), q.limit);
  if (!merged.ok()) return ErrorResponse(merged.status());

  Json out = Json::MakeObject();
  out.Set("type", "mlql");
  out.Set("plan",
          StrFormat("cluster scatter over %zu shards%s; merge top-%zu",
                    cluster_size_, has_overlay ? " (with overlay)" : "",
                    q.limit));
  out.Set("models", merged.MoveValueUnsafe());
  return JsonResponse(std::move(out));
}

HttpResponse Router::SearchKeyword(const Json& body, size_t k,
                                   Clock::time_point deadline) {
  std::string query = body.GetString("query");
  auto stats = GlobalKeywordStats(query, deadline);
  if (!stats.ok()) return ErrorResponse(stats.status());

  Json leg_body = Json::MakeObject();
  leg_body.Set("type", "keyword");
  leg_body.Set("query", query);
  leg_body.Set("k", static_cast<int64_t>(k));
  leg_body.Set("stats", stats.MoveValueUnsafe());
  auto legs = Scatter("POST", "/v1/search", leg_body.Dump(), deadline);
  if (!legs.ok()) return ErrorResponse(legs.status());
  HttpResponse relay;
  if (!AllOk(legs.ValueUnsafe(), &relay)) return relay;
  auto merged = MergeModels(legs.ValueUnsafe(), k);
  if (!merged.ok()) return ErrorResponse(merged.status());

  Json out = Json::MakeObject();
  out.Set("type", "keyword");
  out.Set("models", merged.MoveValueUnsafe());
  return JsonResponse(std::move(out));
}

HttpResponse Router::SearchAnn(const Json& body, size_t k,
                               Clock::time_point deadline) {
  std::string exclude_id;
  Json vec_json;
  if (const Json* vec = body.Find("vec"); vec != nullptr) {
    // ann_vec passthrough: the caller already has the query vector.
    vec_json = *vec;
    exclude_id = body.GetString("exclude_id");
  } else {
    std::string query_id = body.GetString("id");
    if (query_id.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("ann search requires \"id\""));
    }
    auto resolved = ResolveEmbedding(query_id, deadline);
    if (!resolved.ok()) return ErrorResponse(resolved.status());
    vec_json = FloatsToJson(resolved.ValueUnsafe());
    exclude_id = query_id;
  }

  Json leg_body = Json::MakeObject();
  leg_body.Set("type", "ann_vec");
  leg_body.Set("vec", std::move(vec_json));
  leg_body.Set("k", static_cast<int64_t>(k));
  if (!exclude_id.empty()) leg_body.Set("exclude_id", exclude_id);
  auto legs = Scatter("POST", "/v1/search", leg_body.Dump(), deadline);
  if (!legs.ok()) return ErrorResponse(legs.status());
  HttpResponse relay;
  if (!AllOk(legs.ValueUnsafe(), &relay)) return relay;
  auto merged = MergeModels(legs.ValueUnsafe(), k);
  if (!merged.ok()) return ErrorResponse(merged.status());

  Json out = Json::MakeObject();
  out.Set("type", "ann");
  out.Set("models", merged.MoveValueUnsafe());
  return JsonResponse(std::move(out));
}

HttpResponse Router::SearchHybrid(const std::string& text,
                                  const std::string& query_id, size_t k,
                                  const char* type_label,
                                  const std::string& parts_query,
                                  Clock::time_point deadline) {
  // RRF needs three global views: the query model's embedding, the
  // globally-ranked BM25 list, and every shard's WHERE-surviving
  // candidates with their dot products. Assemble all three, then fuse
  // exactly as RankCandidates' hybrid branch does.
  auto query_vec = ResolveEmbedding(query_id, deadline);
  if (!query_vec.ok()) return ErrorResponse(query_vec.status());
  auto stats = GlobalKeywordStats(text, deadline);
  if (!stats.ok()) return ErrorResponse(stats.status());

  // Global keyword ranking (deepest list one scatter can carry — see
  // kMaxServerK; the executor uses its unbounded internal list, so
  // rank parity holds while every shard has <= 10000 scoring docs).
  Json kw_body = Json::MakeObject();
  kw_body.Set("type", "keyword");
  kw_body.Set("query", text);
  kw_body.Set("k", kMaxServerK);
  kw_body.Set("stats", stats.MoveValueUnsafe());
  auto kw_legs = Scatter("POST", "/v1/search", kw_body.Dump(), deadline);
  if (!kw_legs.ok()) return ErrorResponse(kw_legs.status());
  HttpResponse relay;
  if (!AllOk(kw_legs.ValueUnsafe(), &relay)) return relay;
  auto kw_hits = CollectHits(kw_legs.ValueUnsafe());
  if (!kw_hits.ok()) return ErrorResponse(kw_hits.status());
  std::sort(kw_hits.ValueUnsafe().begin(), kw_hits.ValueUnsafe().end(),
            ScoreDescIdAsc);
  std::unordered_map<std::string, size_t> keyword_rank;
  for (size_t i = 0; i < kw_hits.ValueUnsafe().size(); ++i) {
    keyword_rank[kw_hits.ValueUnsafe()[i].id] = i;
  }

  // Per-shard candidates + dot products.
  Json parts_body = Json::MakeObject();
  parts_body.Set("type", "hybrid_parts");
  parts_body.Set("query", parts_query);
  parts_body.Set("vec", FloatsToJson(query_vec.ValueUnsafe()));
  parts_body.Set("k", 1);  // unused by the handler; satisfies validation
  auto parts_legs =
      Scatter("POST", "/v1/search", parts_body.Dump(), deadline);
  if (!parts_legs.ok()) return ErrorResponse(parts_legs.status());
  if (!AllOk(parts_legs.ValueUnsafe(), &relay)) return relay;

  std::vector<search::HybridCandidate> candidates;
  for (const HttpResponse& leg : parts_legs.ValueUnsafe()) {
    auto leg_json = ParseJsonBody(leg);
    if (!leg_json.ok()) return ErrorResponse(leg_json.status());
    const Json* arr = leg_json.ValueUnsafe().Find("candidates");
    if (arr == nullptr || !arr->is_array()) {
      return ErrorResponse(
          Status::Internal("hybrid_parts response has no candidates"));
    }
    for (const Json& c : arr->AsArray()) {
      if (!c.is_object()) continue;
      search::HybridCandidate cand;
      cand.id = c.GetString("id");
      if (const Json* dot = c.Find("dot"); dot != nullptr && dot->is_number()) {
        cand.has_dot = true;
        cand.dot = dot->AsDouble();
      }
      candidates.push_back(std::move(cand));
    }
  }

  // Similarity ranking over candidates with embeddings — the same
  // (-dot, id) ascending sort as the executor.
  std::vector<std::pair<double, std::string>> by_similarity;
  for (const search::HybridCandidate& c : candidates) {
    if (c.has_dot) by_similarity.emplace_back(-c.dot, c.id);
  }
  std::sort(by_similarity.begin(), by_similarity.end());
  std::unordered_map<std::string, size_t> embedding_rank;
  for (size_t i = 0; i < by_similarity.size(); ++i) {
    embedding_rank[by_similarity[i].second] = i;
  }

  // Fuse: keyword contribution first, then similarity — the addition
  // order matters for bit-identical doubles.
  std::vector<MergedHit> fused;
  fused.reserve(candidates.size());
  for (const search::HybridCandidate& c : candidates) {
    double score = 0.0;
    if (auto it = keyword_rank.find(c.id); it != keyword_rank.end()) {
      score += 1.0 / (search::kRrfOffset + static_cast<double>(it->second));
    }
    if (auto it = embedding_rank.find(c.id); it != embedding_rank.end()) {
      score += 1.0 / (search::kRrfOffset + static_cast<double>(it->second));
    }
    fused.push_back(MergedHit{score, c.id});
  }
  Json out = Json::MakeObject();
  out.Set("type", type_label);
  if (std::string_view(type_label) == "mlql") {
    out.Set("plan", StrFormat("cluster scatter over %zu shards (hybrid RRF); "
                              "merge top-%zu",
                              cluster_size_, k));
  }
  out.Set("models", TopKJson(std::move(fused), k));
  return JsonResponse(std::move(out));
}

Result<std::vector<float>> Router::ResolveEmbedding(
    const std::string& id, Clock::time_point deadline) {
  MLAKE_ASSIGN_OR_RETURN(HttpResponse response,
                         BroadcastFirst("/v1/embedding/" + id, deadline));
  if (response.status != 200) return StatusFromResponse(response);
  MLAKE_ASSIGN_OR_RETURN(Json body, ParseJsonBody(response));
  const Json* emb = body.Find("embedding");
  if (emb == nullptr) {
    return Status::Internal("embedding response has no vector");
  }
  return FloatsFromJson(*emb, "embedding response", StatusCode::kInternal);
}

Result<Json> Router::GlobalKeywordStats(const std::string& query,
                                        Clock::time_point deadline) {
  Json leg_body = Json::MakeObject();
  leg_body.Set("type", "keyword_stats");
  leg_body.Set("query", query);
  leg_body.Set("k", 1);  // unused by the handler; satisfies validation
  MLAKE_ASSIGN_OR_RETURN(
      std::vector<HttpResponse> legs,
      Scatter("POST", "/v1/search", leg_body.Dump(), deadline));
  HttpResponse relay;
  if (!AllOk(legs, &relay)) return StatusFromResponse(relay);

  // Integer sums — exact regardless of shard count or order.
  index::Bm25Stats total;
  for (const HttpResponse& leg : legs) {
    MLAKE_ASSIGN_OR_RETURN(Json body, ParseJsonBody(leg));
    const Json* stats = body.Find("stats");
    if (stats == nullptr || !stats->is_object()) {
      return Status::Internal("keyword_stats response has no stats");
    }
    MLAKE_ASSIGN_OR_RETURN(index::Bm25Stats part,
                           server::Bm25StatsFromJson(*stats));
    total.Merge(part);
  }
  return server::Bm25StatsToJson(total);
}

HttpResponse Router::HandleIngest(RequestContext& ctx) {
  const Clock::time_point deadline = ctx.deadline;
  auto parsed = Json::Parse(ctx.request.body);
  if (!parsed.ok()) {
    return ErrorResponse(Status::InvalidArgument("malformed JSON body: " +
                                                 parsed.status().message()));
  }
  if (!parsed.ValueUnsafe().is_object()) {
    return ErrorResponse(Status::InvalidArgument("body must be an object"));
  }
  std::string artifact_b64 = parsed.ValueUnsafe().GetString("artifact_b64");
  if (artifact_b64.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("ingest requires \"artifact_b64\""));
  }
  auto bytes = server::Base64Decode(artifact_b64);
  if (!bytes.ok()) {
    return ErrorResponse(Status::InvalidArgument("malformed artifact_b64: " +
                                                 bytes.status().message()));
  }
  // Placement is by content digest — any router instance computes the
  // same owner with no directory service.
  std::string digest = Sha256::HexDigest(bytes.ValueUnsafe());
  uint64_t owner =
      ShardSlotForDigest(digest, static_cast<uint64_t>(cluster_size_));

  std::shared_ptr<const ShardMap> map = CurrentMap();
  if (map == nullptr || owner >= map->cluster_size()) {
    return ErrorResponse(Status::Unavailable("no shard map published yet"));
  }
  if (map->replicas[owner].empty()) {
    return ErrorResponse(Status::Unavailable(
        "shard " + std::to_string(owner) + " has no backend"));
  }
  // Writes only go to backends whose heartbeat claims a writable role —
  // a read replica would just answer 409. An empty writer list means
  // the slot's leader is down and no replica has been promoted.
  const std::vector<int>& writers =
      owner < map->writers.size() ? map->writers[owner] : map->replicas[owner];
  if (writers.empty()) {
    return ErrorResponse(Status::FailedPrecondition(
        "shard " + std::to_string(owner) +
        " has no writable backend (leader down?): `mlake promote` a "
        "replica"));
  }

  // Sequential failover down the writer list. The POST is never
  // silently resent by the client (non-idempotent); instead each
  // attempt carries the artifact digest as an idempotency key, so a
  // shard that already applied a half-delivered attempt answers the
  // next one with the existing id instead of AlreadyExists.
  Status last_error = Status::Unavailable("no replica attempted");
  for (size_t attempt = 0; attempt < writers.size(); ++attempt) {
    int64_t remaining = RemainingMs(deadline);
    if (remaining <= 0) {
      return ErrorResponse(
          Status::DeadlineExceeded("deadline expired during ingest routing"));
    }
    const BackendSpec& spec =
        options_.backends[static_cast<size_t>(writers[attempt])];
    std::vector<std::pair<std::string, std::string>> headers = {
        {"X-Mlake-Idempotency-Key", digest}};
    if (int64_t forward = ForwardedDeadlineMs(deadline); forward > 0) {
      headers.emplace_back("X-Mlake-Deadline-Ms", std::to_string(forward));
    }
    auto lease = pool_.Acquire(spec.host, spec.port);
    auto result = lease->Post("/v1/ingest", ctx.request.body, headers,
                              AttemptTimeoutMs(remaining));
    if (result.ok()) {
      if (attempt > 0) failovers_.fetch_add(1, std::memory_order_relaxed);
      return result.MoveValueUnsafe();
    }
    lease.Discard();
    last_error = result.status();
  }
  return ErrorResponse(last_error);
}

}  // namespace mlake::cluster
