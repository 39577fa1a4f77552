#include "server/frontend.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mlake::server {

namespace {

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

/// Matches `path` against a compiled pattern; fills `*id` with the
/// capture (non-empty) when the pattern has one.
bool MatchPath(std::string_view prefix, std::string_view suffix, bool capture,
               std::string_view path, std::string_view* id) {
  if (!capture) return path == prefix;
  if (path.size() <= prefix.size() + suffix.size() ||
      !path.starts_with(prefix) || !path.ends_with(suffix)) {
    return false;
  }
  *id = path.substr(prefix.size(),
                    path.size() - prefix.size() - suffix.size());
  return true;
}

}  // namespace

HttpFrontend::HttpFrontend(FrontendOptions options, std::vector<Route> routes)
    : options_(std::move(options)) {
  if (options_.threads <= 0) options_.threads = 8;
  if (options_.max_inflight <= 0) options_.max_inflight = 1;
  if (options_.max_queue < 0) options_.max_queue = 0;
  routes_.reserve(routes.size());
  for (Route& route : routes) {
    CompiledRoute compiled;
    std::string_view pattern = route.pattern;
    size_t open = pattern.find('{');
    size_t close = pattern.find('}', open);
    if (open != std::string_view::npos && close != std::string_view::npos) {
      compiled.capture = true;
      compiled.prefix = pattern.substr(0, open);
      compiled.suffix = pattern.substr(close + 1);
    } else {
      compiled.prefix = pattern;
    }
    compiled.label = std::string(route.method) + " " + std::string(pattern);
    compiled.route = std::move(route);
    routes_.push_back(std::move(compiled));
  }
}

HttpFrontend::~HttpFrontend() { (void)Stop(); }

Json HttpFrontend::StatsJson() const {
  Json out = Json::MakeObject();
  out.Set("uptime_ms", ElapsedMs(start_time_));
  out.Set("threads", options_.threads);
  out.Set("draining", draining());
  out.Set("connections_accepted", connections_accepted_.load());
  out.Set("inflight", inflight());
  out.Set("max_inflight", options_.max_inflight);
  out.Set("queued_connections", queued_conns_.load());
  out.Set("max_queue", options_.max_queue);
  out.Set("rejected_inflight", rejected_inflight_.load());
  out.Set("rejected_queue", rejected_queue_.load());
  return out;
}

Status HttpFrontend::Start() {
  if (started_.load()) return Status::FailedPrecondition("already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  auto fail = [this](Status status) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  };
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return fail(
        Status::InvalidArgument("bad bind address: " + options_.bind_address));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail(Status::IOError(std::string("bind: ") + std::strerror(errno)));
  }
  if (::listen(listen_fd_, 128) < 0) {
    return fail(
        Status::IOError(std::string("listen: ") + std::strerror(errno)));
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

Status HttpFrontend::Stop() {
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

void HttpFrontend::AcceptLoop() {
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
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      open_conns_.insert(fd);
    }
    pool_->Submit([this, fd] { ServeConnection(fd); });
  }
}

void HttpFrontend::ForceCloseConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (int fd : open_conns_) ::shutdown(fd, SHUT_RDWR);
}

HttpFrontend::ReadOutcome HttpFrontend::ReadRequest(int fd, std::string* buf,
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
      if (ready <= 0) return ReadOutcome::kDone;
    } else {
      int ready = ::poll(&pfd, 1, 100);
      if (ready < 0 && errno != EINTR) return ReadOutcome::kDone;
      if (ready == 0) {
        if (ElapsedMs(entered) >=
            static_cast<int64_t>(options_.keep_alive_timeout_ms)) {
          return ReadOutcome::kDone;
        }
        continue;
      }
    }

    char chunk[16384];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) return ReadOutcome::kDone;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return ReadOutcome::kDone;
    }
    buf->append(chunk, static_cast<size_t>(n));
  }
}

void HttpFrontend::ServeConnection(int fd) {
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
      std::string_view label;
      HttpResponse response = Dispatch(request, arrival, fd, &label);
      bool keep_alive = request.KeepAlive() && !draining_.load() &&
                        (options_.max_requests_per_connection <= 0 ||
                         served < options_.max_requests_per_connection);
      bool wrote = WriteAll(fd, SerializeHttpResponse(response, keep_alive));
      if (wrote && response.is_streaming()) {
        // Chunked body: pump the streamer until it runs dry, then the
        // zero-chunk terminator. A mid-stream write failure means the
        // peer is gone — the framing is now broken, so just close.
        std::string chunk;
        while (wrote && response.streamer(&chunk)) {
          wrote = WriteAll(fd, SerializeChunk(chunk));
          chunk.clear();
        }
        if (wrote) wrote = WriteAll(fd, FinalChunk());
        // Drop the streamer eagerly: it may pin a lake snapshot, which
        // should not outlive the response.
        response.streamer = nullptr;
      }
      metrics_.Record(label, response.status, ElapsedUs(arrival));
      if (!wrote || !keep_alive) break;
    }
  }

  {
    // Erase before close: a force-close must never hit a reused fd.
    std::lock_guard<std::mutex> lock(conns_mu_);
    open_conns_.erase(fd);
    ::close(fd);
    active_conns_.fetch_sub(1, std::memory_order_relaxed);
  }
  drain_cv_.notify_all();
}

HttpResponse HttpFrontend::Dispatch(const HttpRequest& request,
                                    Clock::time_point arrival, int fd,
                                    std::string_view* label) {
  const CompiledRoute* route = nullptr;
  std::string_view id;
  for (const CompiledRoute& candidate : routes_) {
    if (request.method == candidate.route.method &&
        MatchPath(candidate.prefix, candidate.suffix, candidate.capture,
                  request.path, &id)) {
      route = &candidate;
      break;
    }
  }
  if (route == nullptr) {
    *label = "(unmatched)";
    return ErrorResponse(Status::NotFound(request.method + " " + request.path +
                                          " has no handler"));
  }
  RequestContext ctx{request, id, kNoDeadline, fd, route->label};
  *label = ctx.label;

  // Health and heartbeat are exempt from admission and deadlines: a
  // 429 heartbeat would blind the router's rebalancer exactly when the
  // node is saturated.
  if (route->route.exempt) {
    HttpResponse response = route->route.handler(ctx);
    *label = ctx.label;
    return response;
  }

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

  // ---- deadline (0 = none) ----------------------------------------------
  int64_t deadline_ms = options_.default_deadline_ms;
  std::string_view header = request.Header("x-mlake-deadline-ms");
  if (!header.empty()) {
    Result<int64_t> parsed = ParseDeadlineMs(header);
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    deadline_ms = parsed.ValueUnsafe();
  }
  if (deadline_ms > 0) {
    ctx.deadline = arrival + std::chrono::milliseconds(deadline_ms);
    if (Clock::now() >= ctx.deadline) {
      return ErrorResponse(Status::DeadlineExceeded(
          "deadline of " + std::to_string(deadline_ms) +
          " ms expired before execution"));
    }
  }

  HttpResponse response = route->route.handler(ctx);
  *label = ctx.label;

  // The handler itself may have spent the deadline; a late answer is a
  // missed deadline, not a success.
  if (ctx.has_deadline() && response.status < 400 &&
      Clock::now() >= ctx.deadline) {
    return ErrorResponse(Status::DeadlineExceeded(
        "deadline of " + std::to_string(deadline_ms) +
        " ms expired during execution"));
  }
  return response;
}

}  // namespace mlake::server
