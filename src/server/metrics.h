#ifndef MLAKE_SERVER_METRICS_H_
#define MLAKE_SERVER_METRICS_H_

// Request metrics for mlaked (and reusable by the CLI and benches):
// per-endpoint counters and fixed-bucket latency histograms behind a
// lock-striped registry. Recording takes one short critical section on
// the recording thread's stripe; snapshots merge all stripes, so a
// /statsz scrape never stalls the request path on a global lock.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"

namespace mlake::server {

/// Upper bucket bounds in microseconds; the last bucket is unbounded.
/// Roughly log-spaced from 50us to 1s — the range an in-process lake
/// call can plausibly take.
inline constexpr uint64_t kLatencyBucketBoundsUs[] = {
    50,     100,    200,    500,     1000,    2000,    5000,
    10000,  20000,  50000,  100000,  200000,  500000,  1000000};
inline constexpr size_t kLatencyBucketCount =
    sizeof(kLatencyBucketBoundsUs) / sizeof(kLatencyBucketBoundsUs[0]) + 1;

/// Fixed-bucket latency histogram. Percentiles are estimated by linear
/// interpolation inside the bucket that crosses the requested rank
/// (exact `max` is tracked separately, so p100 never overshoots it).
struct LatencyHistogram {
  uint64_t buckets[kLatencyBucketCount] = {};
  uint64_t count = 0;
  uint64_t sum_us = 0;
  uint64_t max_us = 0;

  void Record(uint64_t us);
  void Merge(const LatencyHistogram& other);
  /// p in [0, 100]; 0 when the histogram is empty.
  double PercentileUs(double p) const;
  /// Evaluates `n` percentiles (ascending `ps`, each in [0, 100]) in a
  /// single pass over the buckets — the cheap form heartbeat payloads
  /// use to get p50/p95/p99 without re-walking the histogram per value.
  void PercentilesUs(const double* ps, double* out, size_t n) const;
  double MeanUs() const { return count == 0 ? 0.0 : double(sum_us) / count; }

  /// {"count", "mean_us", "p50_us", "p90_us", "p95_us", "p99_us",
  ///  "max_us"}.
  Json ToJson() const;
};

/// Counters of one endpoint (e.g. "POST /v1/search").
struct EndpointStats {
  uint64_t requests = 0;
  uint64_t responses_2xx = 0;
  uint64_t responses_4xx = 0;
  uint64_t responses_5xx = 0;
  /// 429 admission rejections (a subset of responses_4xx).
  uint64_t rejected = 0;
  /// 504 deadline expiries (a subset of responses_5xx).
  uint64_t deadline_exceeded = 0;
  LatencyHistogram latency;

  void Merge(const EndpointStats& other);
  Json ToJson() const;
};

/// Lock-striped endpoint registry. A recording thread locks only the
/// stripe its thread id hashes to; `Snapshot`/`ToJson` lock stripes one
/// at a time and merge. Endpoint labels should be route templates
/// ("GET /v1/models/{id}"), not raw paths, to keep cardinality bounded.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(size_t stripes = 8);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void Record(std::string_view endpoint, int http_status,
              uint64_t latency_us);

  /// Merged per-endpoint view (stable order: endpoint name).
  std::map<std::string, EndpointStats> Snapshot() const;

  /// Merged stats of every endpoint whose label starts with `prefix`
  /// (empty prefix = everything). One pass over the stripes; used by
  /// the heartbeat to report a single search latency histogram across
  /// the "POST /v1/search*" label family.
  EndpointStats AggregateSnapshot(std::string_view prefix) const;

  /// {"<endpoint>": EndpointStats json, ...} plus an "_total" rollup.
  Json ToJson() const;

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::map<std::string, EndpointStats, std::less<>> by_endpoint;
  };

  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace mlake::server

#endif  // MLAKE_SERVER_METRICS_H_
