#ifndef MLAKE_SERVER_CLIENT_H_
#define MLAKE_SERVER_CLIENT_H_

// Minimal blocking HTTP/1.1 client over POSIX sockets — what the server
// tests and bench/micro_server drive the lake server with. One client
// owns one keep-alive connection; it reconnects transparently when the
// server rotates the connection (max_requests_per_connection) or an
// idle timeout closed it. HttpClientPool adds a small keyed keep-alive
// pool on top — the router leases a warm connection per backend call
// (hedged retries need two concurrent connections to distinct
// replicas, which a single shared client cannot provide).

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "server/http.h"

namespace mlake::server {

/// The largest response body an HttpClient accepts; a larger one fails
/// the call with ResourceExhausted.
inline constexpr size_t kMaxResponseBytes = size_t{256} << 20;

class HttpClient {
 public:
  HttpClient(std::string host, int port);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Blocking GET/POST. A request on a reused connection that dies
  /// before any response byte arrives *may* be retried once on a fresh
  /// connection (the keep-alive race: the server may close between our
  /// send and its read) — but only when the request is idempotent:
  /// always for GET, and for POST only when the caller passes
  /// `idempotent = true`. A non-idempotent POST (ingest, replication
  /// ship) is never silently re-sent, because the server may have
  /// applied the half-delivered request before the connection died;
  /// such callers attach an idempotency key / sequence instead and
  /// retry at their own layer. `timeout_ms` overrides the client
  /// default for this one round trip (<= 0 keeps the default) —
  /// scatter-gather callers derive it per request from the caller's
  /// deadline.
  Result<HttpResponse> Get(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& headers = {},
      int timeout_ms = 0);
  Result<HttpResponse> Post(
      const std::string& path, const std::string& body,
      const std::vector<std::pair<std::string, std::string>>& headers = {},
      int timeout_ms = 0, bool idempotent = false);

  /// Per-round-trip timeout (connect + response), default 30 s.
  void set_timeout_ms(int ms) { timeout_ms_ = ms; }

  const std::string& host() const { return host_; }
  int port() const { return port_; }
  /// True when the connection is open and already served a request
  /// (i.e. a pool reuse would ride an existing keep-alive socket).
  bool connected() const { return fd_ >= 0; }

  void Close();

 private:
  Status Connect();
  Result<HttpResponse> RoundTrip(
      const std::string& method, const std::string& path,
      const std::string& body,
      const std::vector<std::pair<std::string, std::string>>& headers,
      int timeout_ms, bool idempotent);

  std::string host_;
  int port_;
  int fd_ = -1;
  bool reused_ = false;  // current connection already served a request
  int timeout_ms_ = 30000;
};

/// A small keyed keep-alive connection pool. `Acquire` hands out an
/// exclusive `Lease` on a warm HttpClient for host:port (or a fresh one
/// when the idle list is empty); the lease returns the client — with
/// its keep-alive socket still open — when destroyed. At most
/// `max_idle_per_endpoint` idle clients are kept per endpoint; excess
/// returns simply close. Thread-safe; leases themselves are not shared.
class HttpClientPool {
 public:
  explicit HttpClientPool(size_t max_idle_per_endpoint = 4);

  HttpClientPool(const HttpClientPool&) = delete;
  HttpClientPool& operator=(const HttpClientPool&) = delete;

  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    ~Lease() { Release(); }

    HttpClient* operator->() { return client_.get(); }
    HttpClient& operator*() { return *client_; }
    explicit operator bool() const { return client_ != nullptr; }

    /// Drops the connection instead of pooling it (call after a
    /// transport error so the next lease starts from a clean socket).
    void Discard();

   private:
    friend class HttpClientPool;
    Lease(HttpClientPool* pool, std::string key,
          std::unique_ptr<HttpClient> client)
        : pool_(pool), key_(std::move(key)), client_(std::move(client)) {}
    void Release();

    HttpClientPool* pool_ = nullptr;
    std::string key_;
    std::unique_ptr<HttpClient> client_;
  };

  Lease Acquire(const std::string& host, int port);

  /// Idle connections currently pooled for host:port (test/stats hook).
  size_t IdleCount(const std::string& host, int port) const;

 private:
  void Return(const std::string& key, std::unique_ptr<HttpClient> client);

  mutable std::mutex mu_;
  size_t max_idle_;
  std::unordered_map<std::string, std::vector<std::unique_ptr<HttpClient>>>
      idle_;
};

}  // namespace mlake::server

#endif  // MLAKE_SERVER_CLIENT_H_
