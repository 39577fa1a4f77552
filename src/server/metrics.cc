#include "server/metrics.h"

#include <algorithm>
#include <thread>

namespace mlake::server {

namespace {

size_t BucketFor(uint64_t us) {
  size_t bucket = 0;
  while (bucket < kLatencyBucketCount - 1 &&
         us > kLatencyBucketBoundsUs[bucket]) {
    ++bucket;
  }
  return bucket;
}

}  // namespace

void LatencyHistogram::Record(uint64_t us) {
  ++buckets[BucketFor(us)];
  ++count;
  sum_us += us;
  max_us = std::max(max_us, us);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kLatencyBucketCount; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum_us += other.sum_us;
  max_us = std::max(max_us, other.max_us);
}

double LatencyHistogram::PercentileUs(double p) const {
  double out = 0.0;
  PercentilesUs(&p, &out, 1);
  return out;
}

void LatencyHistogram::PercentilesUs(const double* ps, double* out,
                                     size_t n) const {
  if (n == 0) return;
  if (count == 0) {
    std::fill(out, out + n, 0.0);
    return;
  }
  size_t pi = 0;
  uint64_t seen = 0;
  for (size_t i = 0; i < kLatencyBucketCount && pi < n; ++i) {
    if (buckets[i] == 0) continue;
    uint64_t below = seen;  // samples strictly before this bucket
    seen += buckets[i];
    double lo =
        i == 0 ? 0.0 : static_cast<double>(kLatencyBucketBoundsUs[i - 1]);
    double hi = i == kLatencyBucketCount - 1
                    ? static_cast<double>(max_us)
                    : static_cast<double>(kLatencyBucketBoundsUs[i]);
    hi = std::min(hi, static_cast<double>(max_us));
    if (hi < lo) hi = lo;
    while (pi < n) {
      // Rank of the requested percentile, 1-based (nearest-rank
      // method, interpolated within the crossing bucket).
      double p = std::clamp(ps[pi], 0.0, 100.0);
      double rank = p / 100.0 * static_cast<double>(count);
      if (rank < 1.0) rank = 1.0;
      if (rank > static_cast<double>(seen)) break;
      // frac spans (0, 1] across the bucket's own samples, so the
      // bucket's last sample lands exactly on `hi` — in particular a
      // lone sample in the overflow bucket reports max_us, not the
      // bucket's lower bound.
      double frac = (rank - static_cast<double>(below)) /
                    static_cast<double>(buckets[i]);
      out[pi++] = lo + (hi - lo) * frac;
    }
  }
  for (; pi < n; ++pi) out[pi] = static_cast<double>(max_us);
}

Json LatencyHistogram::ToJson() const {
  static constexpr double kPs[] = {50, 90, 95, 99};
  double vals[4];
  PercentilesUs(kPs, vals, 4);
  Json out = Json::MakeObject();
  out.Set("count", count);
  out.Set("mean_us", MeanUs());
  out.Set("p50_us", vals[0]);
  out.Set("p90_us", vals[1]);
  out.Set("p95_us", vals[2]);
  out.Set("p99_us", vals[3]);
  out.Set("max_us", max_us);
  return out;
}

void EndpointStats::Merge(const EndpointStats& other) {
  requests += other.requests;
  responses_2xx += other.responses_2xx;
  responses_4xx += other.responses_4xx;
  responses_5xx += other.responses_5xx;
  rejected += other.rejected;
  deadline_exceeded += other.deadline_exceeded;
  latency.Merge(other.latency);
}

Json EndpointStats::ToJson() const {
  Json out = Json::MakeObject();
  out.Set("requests", requests);
  out.Set("responses_2xx", responses_2xx);
  out.Set("responses_4xx", responses_4xx);
  out.Set("responses_5xx", responses_5xx);
  out.Set("rejected", rejected);
  out.Set("deadline_exceeded", deadline_exceeded);
  out.Set("latency", latency.ToJson());
  return out;
}

MetricsRegistry::MetricsRegistry(size_t stripes) {
  if (stripes == 0) stripes = 1;
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

void MetricsRegistry::Record(std::string_view endpoint, int http_status,
                             uint64_t latency_us) {
  size_t index =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      stripes_.size();
  Stripe& stripe = *stripes_[index];
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.by_endpoint.find(endpoint);
  if (it == stripe.by_endpoint.end()) {
    it = stripe.by_endpoint.emplace(std::string(endpoint), EndpointStats{})
             .first;
  }
  EndpointStats& stats = it->second;
  ++stats.requests;
  if (http_status >= 500) {
    ++stats.responses_5xx;
  } else if (http_status >= 400) {
    ++stats.responses_4xx;
  } else {
    ++stats.responses_2xx;
  }
  if (http_status == 429) ++stats.rejected;
  if (http_status == 504) ++stats.deadline_exceeded;
  stats.latency.Record(latency_us);
}

std::map<std::string, EndpointStats> MetricsRegistry::Snapshot() const {
  std::map<std::string, EndpointStats> merged;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const auto& [endpoint, stats] : stripe->by_endpoint) {
      merged[endpoint].Merge(stats);
    }
  }
  return merged;
}

EndpointStats MetricsRegistry::AggregateSnapshot(
    std::string_view prefix) const {
  EndpointStats merged;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const auto& [endpoint, stats] : stripe->by_endpoint) {
      if (endpoint.size() < prefix.size() ||
          std::string_view(endpoint).substr(0, prefix.size()) != prefix) {
        continue;
      }
      merged.Merge(stats);
    }
  }
  return merged;
}

Json MetricsRegistry::ToJson() const {
  Json out = Json::MakeObject();
  EndpointStats total;
  for (const auto& [endpoint, stats] : Snapshot()) {
    total.Merge(stats);
    out.Set(endpoint, stats.ToJson());
  }
  out.Set("_total", total.ToJson());
  return out;
}

}  // namespace mlake::server
