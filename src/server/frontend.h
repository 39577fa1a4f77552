#ifndef MLAKE_SERVER_FRONTEND_H_
#define MLAKE_SERVER_FRONTEND_H_

// HttpFrontend — the one HTTP/1.1 front end of mlaked (LakeServer) and
// the cluster router. It owns the listener, a blocking accept thread,
// the thread-per-connection keep-alive workers (100 ms poll tick),
// chunked streaming, admission, deadlines, drain and per-endpoint
// metrics; its owner contributes only a route table (see Route) of
// handlers.
//
// Admission: connections beyond max_queue are answered 429 by the
// accept thread, requests beyond max_inflight 429 before their handler
// runs. Deadline: the X-Mlake-Deadline-Ms header, else
// default_deadline_ms, 0 meaning none; a 504 when it expires before
// the handler runs or before its answer is written.
//
// Drain (Stop): the listener closes; every worker finishes its
// in-flight request. An idle keep-alive connection gets one poll(0)
// grace probe first, so request bytes already in the kernel buffer are
// still served, and a connection accepted before the drain but picked
// up after it gets a clean 503. Whatever is open at drain_deadline_ms
// is force-closed.

#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "server/http.h"
#include "server/metrics.h"

namespace mlake::server {

using Clock = std::chrono::steady_clock;

/// The deadline of a request that carries none.
inline constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

/// What a route handler sees of one request.
struct RequestContext {
  const HttpRequest& request;
  /// The `{name}` capture of the matched pattern; empty when the
  /// pattern has none.
  std::string_view id;
  /// Absolute deadline, kNoDeadline when the request has none (and
  /// always for exempt routes).
  Clock::time_point deadline;
  /// The connection's socket, so a long handler can notice a peer
  /// severed by the drain deadline.
  int fd;
  /// /statsz endpoint label; starts as the route's label. A handler
  /// may point it at other static storage (e.g. a per-kind label).
  std::string_view label;

  bool has_deadline() const { return deadline != kNoDeadline; }
};

/// One route-table entry, e.g. {"GET", "/v1/models/{id}/citation", h}.
/// A pattern is a literal path with at most one `{name}` placeholder,
/// which captures the non-empty rest of the path between the literal
/// prefix and suffix, '/' included (lakegen ids look like
/// "sum/legal-base-3"). The first match in table order wins, so suffix
/// routes must precede their bare prefix. "METHOD pattern" is the
/// /statsz endpoint label. Matching is string_view compares over the
/// table: no regex, no allocation per request.
struct Route {
  std::string_view method;
  std::string_view pattern;  // must outlive the front end (literals)
  std::function<HttpResponse(RequestContext&)> handler;
  /// Skips admission and deadlines (health and heartbeat probes).
  bool exempt = false;
};

/// Transport settings, filled by the owner from its ServerOptions or
/// RouterOptions (same names, same meaning; INT_MAX = unbounded).
struct FrontendOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;
  int threads = 8;
  int max_inflight = INT_MAX;
  int max_queue = INT_MAX;
  int max_requests_per_connection = 1000;
  int keep_alive_timeout_ms = 30000;
  int default_deadline_ms = 0;
  int drain_deadline_ms = 5000;
  size_t max_body_bytes = 64u << 20;
};

class HttpFrontend {
 public:
  HttpFrontend(FrontendOptions options, std::vector<Route> routes);
  ~HttpFrontend();

  HttpFrontend(const HttpFrontend&) = delete;
  HttpFrontend& operator=(const HttpFrontend&) = delete;

  /// Binds, listens and starts the accept thread + worker pool.
  Status Start();
  /// Graceful drain (see the header comment), then joins all threads.
  /// Idempotent.
  Status Stop();

  /// The bound port (the actual one when options.port was 0).
  int port() const { return port_; }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  const MetricsRegistry& metrics() const { return metrics_; }

  int inflight() const { return inflight_.load(std::memory_order_relaxed); }

  /// The /statsz "server" block: uptime_ms, threads, draining,
  /// connections_accepted, inflight, max_inflight, queued_connections,
  /// max_queue, rejected_inflight, rejected_queue.
  Json StatsJson() const;

 private:
  struct CompiledRoute {
    Route route;
    std::string_view prefix;  // the whole pattern when there is no capture
    std::string_view suffix;
    bool capture = false;
    std::string label;  // "METHOD pattern"
  };

  /// How one connection's read loop ended: a request, unparseable
  /// bytes, or nothing more to serve (peer closed, idle timeout, idle
  /// at drain).
  enum class ReadOutcome { kRequest, kMalformed, kDone };

  void AcceptLoop();
  void ServeConnection(int fd);
  ReadOutcome ReadRequest(int fd, std::string* buf, HttpRequest* request,
                          Status* parse_error);
  HttpResponse Dispatch(const HttpRequest& request, Clock::time_point arrival,
                        int fd, std::string_view* label);
  void ForceCloseConnections();

  FrontendOptions options_;
  std::vector<CompiledRoute> routes_;
  MetricsRegistry metrics_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> pool_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> queued_conns_{0};
  std::atomic<int> inflight_{0};
  std::atomic<int> active_conns_{0};
  std::atomic<uint64_t> rejected_queue_{0};
  std::atomic<uint64_t> rejected_inflight_{0};
  std::atomic<uint64_t> connections_accepted_{0};

  /// Open connection fds, for force-close at the drain deadline.
  std::mutex conns_mu_;
  std::set<int> open_conns_;
  std::condition_variable drain_cv_;

  Clock::time_point start_time_;
};

}  // namespace mlake::server

#endif  // MLAKE_SERVER_FRONTEND_H_
