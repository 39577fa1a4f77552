// Self-test of the benchmark's own machinery: exact percentile math,
// schedule determinism for a given seed, and metric-name validity (the
// names in BENCHMARK.json when run from the root of a checkout).
// Prints each failed check and exits non-zero when any failed.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/json.h"
#include "population.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  const std::vector<double> v = {4, 1, 3, 2};
  Check(Near(Percentile(v, 0), 1), "p0 is the minimum");
  Check(Near(Percentile(v, 100), 4), "p100 is the maximum");
  Check(Near(Percentile(v, 50), 2.5), "p50 interpolates between ranks");
  Check(Near(Percentile(v, 25), 1.75), "p25 interpolates between ranks");
  Check(Near(Percentile({7}, 99), 7), "single sample");
  Check(Near(Percentile({}, 50), 0), "empty sample");
  std::vector<double> big;
  for (int i = 1; i <= 1000; ++i) big.push_back(i);
  Check(Near(Percentile(big, 99), 990.01), "p99 of 1..1000");
  Check(SupportedTail(1000) == 99, "1000 samples support p99");
  Check(SupportedTail(999) == 95, "999 samples support p95");
  Check(SupportedTail(200) == 95, "200 samples support p95");
  Check(SupportedTail(100) == 90, "100 samples support p90");
  Check(SupportedTail(40) == 75, "40 samples support p75");
  Check(SupportedTail(10) == 50, "10 samples support only p50");
}

void TestNames() {
  Check(ValidMetricName("search_p50_ms"), "plain name");
  Check(ValidMetricName("cluster.read_self_us"), "dotted name");
  Check(ValidMetricName("a-b.c_9"), "mixed name");
  Check(!ValidMetricName(""), "empty name");
  Check(!ValidMetricName(".x"), "leading dot");
  Check(!ValidMetricName("bad name"), "space");
  Check(!ValidMetricName("p99%"), "percent");
  Check(!ValidMetricName(std::string(65, 'a')), "65 characters");

  auto text = mlake::ReadFile("BENCHMARK.json");
  if (!text.ok()) return;  // not at the root of a checkout
  auto doc = mlake::Json::Parse(text.ValueUnsafe());
  Check(doc.ok(), "BENCHMARK.json parses");
  if (!doc.ok()) return;
  for (const char* list : {"workloads", "end_to_end", "per_layer"}) {
    const mlake::Json* arr = doc.ValueUnsafe().Find(list);
    Check(arr != nullptr && arr->is_array(), std::string(list) + " present");
    if (arr == nullptr || !arr->is_array()) continue;
    for (const mlake::Json& m : arr->AsArray()) {
      const std::string name = m.GetString("name");
      Check(ValidMetricName(name), std::string(list) + " name " + name);
      if (std::string(list) != "workloads") {
        Check(FindWorkload(name) == nullptr, "metric named like a workload");
      } else {
        Check(FindWorkload(name) != nullptr, "unknown workload " + name);
      }
    }
  }
}

bool SameSchedules(const Schedules& a, const Schedules& b) {
  auto same = [](const std::vector<Scheduled>& x,
                 const std::vector<Scheduled>& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].due_s != y[i].due_s || x[i].request.body != y[i].request.body ||
          x[i].request.path != y[i].request.path ||
          x[i].request.kind != y[i].request.kind) {
        return false;
      }
    }
    return true;
  };
  if (a.readers.size() != b.readers.size()) return false;
  for (size_t t = 0; t < a.readers.size(); ++t) {
    if (!same(a.readers[t], b.readers[t])) return false;
  }
  return same(a.writer, b.writer) && same(a.exports, b.exports);
}

void TestSchedules() {
  mlake::Rng r1(5), r2(5);
  Check(PoissonArrivals(100, 5, &r1) == PoissonArrivals(100, 5, &r2),
        "Poisson arrivals repeat for a seed");
  mlake::Rng r3(6);
  const auto many = PoissonArrivals(1000, 20, &r3);
  Check(std::fabs(static_cast<double>(many.size()) - 20000) < 600,
        "Poisson arrival count near rate * seconds");
  Zipf zipf(1000, 1.0);
  std::vector<int> hits(1000);
  mlake::Rng r4(9);
  for (int i = 0; i < 100000; ++i) ++hits[zipf.Draw(&r4)];
  Check(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[500],
        "Zipf ranks are drawn in popularity order");

  // Kind decks keep exact shares over 100 draws and never bunch a kind.
  const std::vector<std::pair<Kind, double>> mix = {
      {Kind::kModel, 0.35}, {Kind::kAnn, 0.30}, {Kind::kKeyword, 0.15},
      {Kind::kLineage, 0.10}, {Kind::kHybrid, 0.10}};
  mlake::Rng r5(2);
  KindDeck deck(mix, &r5);
  std::vector<Kind> drawn;
  for (int i = 0; i < 200; ++i) drawn.push_back(deck.Next());
  for (const auto& [kind, share] : mix) {
    int n = 0;
    for (int i = 0; i < 100; ++i) n += drawn[i] == kind;
    Check(n == static_cast<int>(std::lround(share * 100)),
          std::string("deck share of ") + KindName(kind));
    int window = 0;
    for (int i = 100; i < 120; ++i) window += drawn[i] == kind;
    Check(std::abs(window - share * 20) <= 1.0,
          std::string("deck spreads ") + KindName(kind));
  }

  const Population pop_a = MakePopulation(3, 400);
  const Population pop_b = MakePopulation(3, 400);
  Check(pop_a.models[17].card.model_id == pop_b.models[17].card.model_id &&
            pop_a.models[17].embedding == pop_b.models[17].embedding &&
            pop_a.popular == pop_b.popular,
        "population repeats for a seed");
  const RequestFactory fa(pop_a, 3), fb(pop_b, 3);
  for (const WorkloadSpec& spec : Workloads()) {
    size_t wa = 0, wb = 0, wc = 0;
    const Schedules a = MakeSchedules(spec, fa, 3, 2.0, &wa);
    const Schedules b = MakeSchedules(spec, fb, 3, 2.0, &wb);
    const Schedules c = MakeSchedules(spec, fa, 4, 2.0, &wc);
    Check(SameSchedules(a, b) && wa == wb,
          spec.name + ": schedule repeats for a seed");
    Check(!SameSchedules(a, c), spec.name + ": another seed, another schedule");
  }
  Check(fa.mlql_pool().size() > 512, "MLQL pool exceeds the plan cache");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestNames();
  perfbench::TestSchedules();
  if (perfbench::failures == 0) std::fprintf(stderr, "selftest ok\n");
  return perfbench::failures == 0 ? 0 : 1;
}
