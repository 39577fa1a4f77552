#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Sample statistics, seeded arrival schedules and key-popularity draws
// for the lake benchmark. Header-only.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"

namespace perfbench {

/// Exact percentile of raw samples by linear interpolation between the
/// closest ranks (the definition numpy calls "linear"): p in [0, 100].
/// Returns 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples[0];
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

/// The highest percentile (among 99, 95, 90, 75, 50) that leaves at
/// least `min_beyond` samples above it in a sample of `n`.
inline double SupportedTail(size_t n, size_t min_beyond = 10) {
  for (double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (100.0 - p) >=
        100.0 * static_cast<double>(min_beyond)) {
      return p;
    }
  }
  return 50.0;
}

/// Metric names the benchmark prints: [A-Za-z0-9_.-]+, at most 64
/// characters, starting with a letter or digit.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

/// Zipf(s) over ranks [0, n): rank r is drawn with weight 1/(r+1)^s.
/// Inverse-CDF sampling over a precomputed table.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Draw(mlake::Rng* rng) const {
    const double u = rng->NextDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Poisson arrival offsets (seconds from the start) at `rate_per_s`
/// over [0, seconds): exponential inter-arrival gaps drawn from `rng`.
inline std::vector<double> PoissonArrivals(double rate_per_s, double seconds,
                                           mlake::Rng* rng) {
  std::vector<double> out;
  if (rate_per_s <= 0.0) return out;
  double t = 0.0;
  while (true) {
    const double u = 1.0 - rng->NextDouble();  // (0, 1]
    t += -std::log(u) / rate_per_s;
    if (t >= seconds) break;
    out.push_back(t);
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
