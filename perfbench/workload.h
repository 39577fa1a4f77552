#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Workload definitions, seeded request schedules, and the open- and
// closed-loop load generators that drive the router.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "population.h"
#include "stats.h"

namespace perfbench {

enum class Kind { kModel, kLineage, kCitation, kAnn, kKeyword, kMlql, kHybrid,
                  kIngest, kExport };
inline constexpr int kNumKinds = 9;

enum class Klass { kRead, kSearch, kWrite, kExport };

Klass ClassOf(Kind kind);
const char* KindName(Kind kind);
/// Per-kind latency limit used by slo_miss_frac.
double LimitMs(Kind kind);

struct WorkloadSpec {
  std::string name;
  std::string why;
  /// Offered rate of the read/search stream and its kind mix.
  double rate = 0;
  std::vector<std::pair<Kind, double>> mix;
  /// Discover-style keyword vocabulary (df 600..10000) instead of the
  /// selective model-number token (df = 1).
  bool broad_keywords = false;
  /// Routed ingests per second (0 = read-only workload).
  double write_rate = 0;
  /// Seconds between routed /v1/export drains (0 = none).
  double export_interval_s = 0;
  /// How the read/search stream is spread over generator threads (one
  /// connection each): every group sends the kinds it lists, at their
  /// share of `rate`, split evenly over its connections. Discover gives
  /// each heavy kind (mlql, hybrid: full card scans) a connection of its
  /// own, so no request is timed while queued in the client behind a
  /// scan of another kind.
  struct Group {
    std::vector<Kind> kinds;
    int connections = 1;
  };
  std::vector<Group> groups;
  std::vector<std::string> layers;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);
int ReadConnections(const WorkloadSpec& spec);
mlake::Json WorkloadJson(const WorkloadSpec& spec);

/// Request kinds in exact mix proportions, evenly interleaved (smooth
/// weighted round robin): any window of the sequence holds each kind
/// close to its share, so a short run sends the same mix every time and
/// heavy kinds never bunch up. The seed only rotates the start.
class KindDeck {
 public:
  KindDeck(const std::vector<std::pair<Kind, double>>& mix, mlake::Rng* rng);
  Kind Next();

 private:
  std::vector<std::pair<Kind, double>> mix_;
  std::vector<double> current_;
};

/// One HTTP request to send, with what a correct answer must contain.
struct Request {
  Kind kind = Kind::kModel;
  bool post = false;
  std::string path;
  std::string body;
  /// Substring a 200 answer must contain ("" = any 200).
  std::string expect;
  /// Index into the write inputs (ingests only).
  int write_index = -1;
};

struct Scheduled {
  double due_s = 0;
  Request request;
};

/// Draws requests of every kind from the population with the seeded
/// skew: model ids Zipf(1) over the popularity order, MLQL texts
/// Zipf(1) over a pool larger than the plan cache.
class RequestFactory {
 public:
  RequestFactory(const Population& pop, uint64_t seed);
  Request Make(Kind kind, bool broad_keywords, mlake::Rng* rng) const;
  const std::vector<std::string>& mlql_pool() const { return mlql_pool_; }
  const std::string& PopularId(mlake::Rng* rng) const;

 private:
  const Population& pop_;
  Zipf model_zipf_;
  Zipf mlql_zipf_;
  std::vector<std::string> mlql_pool_;
};

/// A workload's seeded inputs for one open-loop phase: one schedule per
/// read thread, plus the writer's and the prober's schedules.
struct Schedules {
  std::vector<std::vector<Scheduled>> readers;
  std::vector<Scheduled> writer;   // ingests
  std::vector<Scheduled> exports;  // run by the prober thread
};

Schedules MakeSchedules(const WorkloadSpec& spec, const RequestFactory& factory,
                        uint64_t seed, double seconds, size_t* writes_used);

struct Sample {
  Kind kind = Kind::kModel;
  double latency_ms = 0;  // completion - due
  double late_ms = 0;     // send - due
  double due_s = 0;       // offset in the phase (open loop)
  bool ok = false;
  bool wrong = false;     // answered 200 with a wrong/missing answer
  int status = 0;
};

/// One span: {name, start, end, parent, request id}. Times are ns from
/// the tracer's epoch.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = 0;
};

class Tracer {
 public:
  Tracer();
  int64_t Now() const;
  /// Records a finished span; thread-safe (per-thread buffers merged at
  /// the end keep recording off the shared path).
  int64_t Record(std::vector<Span>* local, std::string name, int64_t start,
                 int64_t end, int64_t parent, int64_t request);
  int64_t NextRequestId() { return next_request_.fetch_add(1); }
  int64_t NextSpanId() { return next_span_.fetch_add(1); }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<int64_t> next_request_{1};
  std::atomic<int64_t> next_span_{1};
};

struct OpenLoopResult {
  std::vector<Sample> samples;
  double seconds = 0;  // length of the phase
  std::chrono::steady_clock::time_point ended;  // when the phase ended

  std::vector<double> visibility_ms;
  std::vector<std::string> acked_ids;
  uint64_t probe_timeouts = 0;
  uint64_t probes = 0;  // visibility probes sent (routed GETs)
  uint64_t lag_entries_max = 0;
  std::vector<Span> spans;
};

struct LoadContext {
  int router_port = 0;
  const std::vector<WriteInput>* writes = nullptr;
  /// Samples the replica's lag (entries behind its leader).
  std::function<uint64_t()> replica_lag;
  /// The replica's applied log seq (visibility probes wait for it).
  std::function<uint64_t()> replica_applied;
  /// Counts completed cycles of the system's periodic background work
  /// (null = none): a timed phase starts and ends where this count
  /// advances, so every run times whole cycles of it.
  std::function<uint64_t()> cycles;
  Tracer* tracer = nullptr;  // null = untraced
};

/// A timed phase lasts at least its minimum, then until `cycles`
/// advances, but at most this much longer.
inline constexpr double kCycleCapS = 8.0;

/// Blocks until `ctx.cycles` advances (at most kCycleCapS; at once when
/// there is no counter).
void AwaitCycleBoundary(const LoadContext& ctx);

/// Sends every scheduled request due in the phase: at least `min_s`
/// seconds, then up to the next cycle boundary. The schedules must run
/// for min_s + kCycleCapS.
OpenLoopResult RunOpenLoop(const Schedules& schedules, const LoadContext& ctx,
                           double min_s);

struct ClosedLoopResult {
  std::vector<Sample> samples;
  double seconds = 0;
};

/// One connection per list, each sending its (read/search) requests
/// back to back (zero think time) for at least `min_s` seconds, then up
/// to the next cycle boundary.
ClosedLoopResult RunClosedLoop(const std::vector<std::vector<Request>>& lists,
                               const LoadContext& ctx, double min_s);

/// Checks an HTTP answer against the request's expectation.
bool AnswerMatches(const Request& request, int status, const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
