// lakebench: the lake's end-to-end benchmark.
//
//   lakebench --workload browse|discover|publish --seed N --seconds S
//             --trace 0|1 [--dir DIR]
//
// Stands up router -> two shard leaders -> one read replica of shard 0
// on loopback over a 10,000-model population built from the seed
// (timed once as setup_s), checks a seeded sample of routed search
// answers against their references, drives the workload open loop at
// its fixed offered rate (Poisson arrivals, each request timed from when
// it was due), then closed loop over its read/search mix (peak
// throughput), and finally checks that every acknowledged ingest is
// readable through the router, also after the shard lakes are closed
// and reopened. Both timed phases start and end on boundaries of the
// replica's fingerprint-exchange cycle, which keeps a core busy for
// seconds at a time: the open loop runs at least 75% of --seconds, the
// peak phase at least 10%, each then up to the next boundary.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the open loop
// untraced and traced (half the time each), peels each layer, and
// prints the per-layer metrics. The last stdout line is the result
// object; the line before it is the full report: every end-to-end
// metric of the workload with sample counts, host and config metadata.
// DIR keeps samples.csv (raw open-loop samples) and, traced,
// spans.jsonl. Exit status: 0 ok, 1 a correctness check failed, 2 bad
// usage or the system could not be set up, 3 the open loop fell behind
// its schedule (the run is invalid).

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/file_util.h"
#include "common/string_util.h"
#include "layers.h"
#include "population.h"
#include "server/client.h"
#include "stats.h"
#include "topology.h"
#include "workload.h"

#ifndef LAKEBENCH_BUILD_TYPE
#define LAKEBENCH_BUILD_TYPE "unknown"
#endif
#ifndef LAKEBENCH_COMPILER
#define LAKEBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using mlake::Json;

// Minimum length of the open loop and of the peak phase, as shares of
// --seconds; each phase then runs on to the next cycle boundary (see
// LoadContext::cycles), which takes the rest on average.
constexpr double kOpenShare = 0.75;
constexpr double kPeakShare = 0.1;
// The run is invalid when the open loop's backlog grew: requests due in
// the last fifth of the phase were sent this late (median) or later.
constexpr double kBacklogLimitMs = 250;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string dir = ".bench_run";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

int Fail(int code, const std::string& message) {
  std::fprintf(stderr, "lakebench: %s\n", message.c_str());
  return code;
}

/// CPU seconds (user + system) this process has used so far.
double CpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Starts the next timed phase on a cycle boundary: at once when the
/// phase before ended on one just now, else at the next.
void AwaitBoundaryAfter(const OpenLoopResult& before, const LoadContext& ctx) {
  if (std::chrono::steady_clock::now() - before.ended >
      std::chrono::milliseconds(50)) {
    AwaitCycleBoundary(ctx);
  }
}

/// Writes out the dirty pages of the filesystem holding `dir`.
void SyncFilesystem(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)syncfs(fd);
  close(fd);
}

std::string GitCommit() {
  // The checkout the benchmark runs from need not be a git repository;
  // read .git/HEAD when there is one.
  auto head = mlake::ReadFile(".git/HEAD");
  if (!head.ok()) return "unknown";
  std::string h(mlake::Trim(head.ValueUnsafe()));
  if (h.rfind("ref: ", 0) == 0) {
    auto ref = mlake::ReadFile(".git/" + h.substr(5));
    if (!ref.ok()) return "unknown";
    h = std::string(mlake::Trim(ref.ValueUnsafe()));
  }
  return h;
}

/// Per-class latency summary, the tail named for what the sample
/// supports: p99 where the class has >= 1000 samples, else the highest
/// percentile with >= 10 samples beyond it.
void AddClass(const std::string& prefix, const std::vector<double>& ms,
              MetricSet* report, Json* counts) {
  if (ms.empty()) return;
  report->Add(prefix + "_p50_ms", Percentile(ms, 50), "ms");
  const double tail = SupportedTail(ms.size());
  if (tail > 50) {
    report->Add(mlake::StrFormat("%s_p%d_ms", prefix.c_str(),
                                 static_cast<int>(tail)),
                Percentile(ms, tail), "ms");
  }
  counts->Set(prefix, static_cast<uint64_t>(ms.size()));
}

std::vector<double> LatenciesOf(const std::vector<Sample>& samples,
                                Klass klass) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (ClassOf(s.kind) == klass && s.ok) out.push_back(s.latency_ms);
  }
  return out;
}

/// The exact reference for a routed ann answer: the top-k merge of what
/// each shard lake's own index returns for the query vector, ordered by
/// (score desc, id asc) like the router's merge. A single lake's HNSW
/// graph over the whole population is a different approximation, so its
/// neighbours are not a reference for the sharded answer.
Json ShardMergedAnn(Topology* topo, const std::string& id, size_t k) {
  std::vector<float> vec;
  for (auto& lake : topo->lakes) {
    auto e = lake->EmbeddingFor(id);
    if (e.ok()) vec = e.MoveValueUnsafe();
  }
  std::vector<mlake::search::RankedModel> all;
  for (auto& lake : topo->lakes) {
    auto part = lake->RelatedModelsByVector(vec, k, id);
    if (!part.ok()) return Json();
    all.insert(all.end(), part.ValueUnsafe().begin(), part.ValueUnsafe().end());
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.score != b.score ? a.score > b.score : a.id < b.id;
  });
  if (all.size() > k) all.resize(k);
  Json out = Json::MakeArray();
  for (const auto& m : all) {
    Json j = Json::MakeObject();
    j.Set("id", m.id);
    j.Set("score", m.score);
    out.Append(std::move(j));
  }
  return out;
}

/// Compares a seeded sample of routed answers with their references,
/// "models" lists byte for byte: keyword, mlql and hybrid against a
/// single lake holding the same population; ann against the merge of
/// the shards' own answers (see ShardMergedAnn).
bool OracleCheck(Topology* topo, int oracle_port, const RequestFactory& factory,
                 uint64_t seed, std::string* error) {
  mlake::Rng rng(seed * 0x3C6EF372FE94F82BULL + 23);
  std::vector<Request> sample;
  for (int i = 0; i < 6; ++i) sample.push_back(factory.Make(Kind::kAnn, false, &rng));
  for (int i = 0; i < 3; ++i) sample.push_back(factory.Make(Kind::kKeyword, false, &rng));
  for (int i = 0; i < 5; ++i) sample.push_back(factory.Make(Kind::kKeyword, true, &rng));
  for (int i = 0; i < 8; ++i) sample.push_back(factory.Make(Kind::kMlql, true, &rng));
  for (int i = 0; i < 4; ++i) sample.push_back(factory.Make(Kind::kHybrid, true, &rng));
  mlake::server::HttpClient routed("127.0.0.1", topo->router_port());
  mlake::server::HttpClient oracle("127.0.0.1", oracle_port);
  for (const Request& r : sample) {
    auto a = routed.Post(r.path, r.body);
    auto ja = a.ok() ? Json::Parse(a.ValueUnsafe().body)
                     : mlake::Result<Json>(a.status());
    const Json* ma = ja.ok() ? ja.ValueUnsafe().Find("models") : nullptr;
    std::string reference;
    if (r.kind == Kind::kAnn) {
      auto body = Json::Parse(r.body).ValueOrDie();
      reference = ShardMergedAnn(topo, body.GetString("id"),
                                 static_cast<size_t>(body.GetInt64("k"))).Dump();
    } else {
      auto b = oracle.Post(r.path, r.body);
      auto jb = b.ok() ? Json::Parse(b.ValueUnsafe().body)
                       : mlake::Result<Json>(b.status());
      const Json* mb = jb.ok() ? jb.ValueUnsafe().Find("models") : nullptr;
      reference = mb != nullptr ? mb->Dump() : "-";
    }
    if (ma == nullptr || ma->Dump() != reference) {
      *error = "oracle check: routed answer differs from its reference: " +
               r.body + "\n routed: " + (ma ? ma->Dump() : "-") +
               "\n reference: " + reference;
      return false;
    }
  }
  return true;
}

/// Every id must answer 200 on a routed GET.
bool AllReadable(int router_port, const std::vector<std::string>& ids,
                 std::string* error) {
  mlake::server::HttpClient client("127.0.0.1", router_port);
  for (const std::string& id : ids) {
    auto r = client.Get("/v1/models/" + id);
    if (!r.ok() || r.ValueUnsafe().status != 200) {
      *error = "acknowledged ingest not readable through the router: " + id;
      return false;
    }
  }
  return true;
}

/// Waits until the replica holds everything its leader committed.
void AwaitReplica(Topology* topo) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (topo->replica_lake->ReplicationLastSeq() >=
        topo->lakes[0]->ReplicationLastSeq()) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Closed-loop request lists: the workload's read/search mix. Ingests
/// stay out of the closed loop: their fsync-bound lock hold times make a
/// write-bearing peak swing with the host's disk far beyond any bound.
std::vector<std::vector<Request>> ClosedLists(const WorkloadSpec& spec,
                                              const RequestFactory& factory,
                                              uint64_t seed, int threads) {
  std::vector<std::vector<Request>> lists(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    mlake::Rng rng(seed * 0x9FB21C651E98DF25ULL + static_cast<uint64_t>(t) + 31);
    KindDeck deck(spec.mix, &rng);
    const size_t n = spec.rate >= 1000 ? 8192 : 1024;
    for (size_t i = 0; i < n; ++i) {
      Kind kind = deck.Next();
      lists[t].push_back(factory.Make(kind, spec.broad_keywords, &rng));
    }
  }
  return lists;
}

/// Raw open-loop samples, one line each: phase, kind, due offset (s),
/// latency from due (ms), send lateness (ms), HTTP status, ok.
void WriteSamples(const std::string& path, const OpenLoopResult& open,
                  const OpenLoopResult& traced) {
  std::ofstream out(path);
  out << "phase,kind,due_s,latency_ms,late_ms,status,ok\n";
  for (const auto* run : {&open, &traced}) {
    for (const Sample& s : run->samples) {
      out << (run == &open ? "open" : "traced") << ',' << KindName(s.kind)
          << ',' << s.due_s << ',' << s.latency_ms << ',' << s.late_ms << ','
          << s.status << ',' << (s.ok ? 1 : 0) << '\n';
    }
  }
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    Json j = Json::MakeObject();
    j.Set("name", s.name);
    j.Set("start_ns", s.start_ns);
    j.Set("end_ns", s.end_ns);
    j.Set("id", s.id);
    j.Set("parent", s.parent);
    j.Set("request", s.request);
    out << j.Dump() << "\n";
  }
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) return Fail(2, "unknown workload " + args.workload);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double open_s = args.seconds * kOpenShare;
  const double peak_s = args.seconds * kPeakShare;
  const double phase_s = args.trace ? open_s / 2 : open_s;

  // Wall time of each phase of the run (report only).
  Json phases = Json::MakeObject();
  auto phase_start = std::chrono::steady_clock::now();
  auto end_phase = [&](const char* name) {
    const auto now = std::chrono::steady_clock::now();
    phases.Set(name, std::chrono::duration<double>(now - phase_start).count());
    phase_start = now;
  };

  // ---- inputs (generated before any timing) ----
  const Population pop = MakePopulation(args.seed, kPopulation);
  const RequestFactory factory(pop, args.seed);
  size_t open_writes = 0;
  const Schedules schedules =
      MakeSchedules(*spec, factory, args.seed, phase_s + kCycleCapS, &open_writes);
  size_t traced_writes = 0;
  Schedules traced_schedules;
  if (args.trace) {
    traced_schedules = MakeSchedules(*spec, factory, args.seed + 1000003,
                                     phase_s + kCycleCapS, &traced_writes);
    for (auto& item : traced_schedules.writer) {
      item.request.write_index += static_cast<int>(open_writes);
    }
  }
  const bool writes_on = spec->write_rate > 0;
  const std::vector<WriteInput> writes =
      writes_on ? MakeWrites(args.seed, 0, open_writes + traced_writes)
                : std::vector<WriteInput>();
  const auto closed =
      ClosedLists(*spec, factory, args.seed, static_cast<int>(nproc));
  const auto warm =
      ClosedLists(*spec, factory, args.seed + 77, static_cast<int>(nproc));

  end_phase("inputs");
  (void)mlake::RemoveAll(args.dir);
  if (!mlake::CreateDirs(args.dir).ok()) return Fail(2, "cannot create " + args.dir);

  // ---- setup (timed) ----
  // One set-up per run: it takes ~15 s on a 4-vCPU host, so repeating it
  // would not fit the run budget; the spread shows across runs.
  double setup_s = 0;
  auto built = BuildTopology(args.dir + "/topo", pop, &setup_s);
  if (!built.ok()) return Fail(2, "setup: " + built.status().ToString());
  std::unique_ptr<Topology> topo = built.MoveValueUnsafe();

  end_phase("setup");
  bool correct = true;
  std::string error;
  {
    auto oracle = BuildOracle(args.dir + "/oracle", pop);
    if (!oracle.ok()) return Fail(2, "oracle: " + oracle.status().ToString());
    correct = OracleCheck(topo.get(), oracle.ValueUnsafe().server->port(),
                          factory, args.seed, &error);
    (void)oracle.ValueUnsafe().server->Stop();
  }
  (void)mlake::RemoveAll(args.dir + "/oracle");
  end_phase("oracle");

  LoadContext ctx;
  ctx.router_port = topo->router_port();
  ctx.writes = &writes;
  mlake::replication::Replicator* replicator = topo->replicator.get();
  ctx.replica_lag = [replicator] { return replicator->LagEntries(); };
  ctx.replica_applied = [replicator] { return replicator->AppliedSeq(); };
  // The replica compares fingerprints with its leader every
  // fingerprint_interval_polls polls (default options); each exchange
  // keeps a core busy for seconds. A cycle ends with the first poll
  // after an exchange, so timed phases hold whole exchanges.
  const int64_t interval =
      mlake::replication::ReplicaOptions().fingerprint_interval_polls;
  if (interval > 0) {
    ctx.cycles = [replicator, interval]() -> uint64_t {
      const int64_t polls = replicator->StatszJson().GetInt64("polls", 0);
      return polls >= 1 ? static_cast<uint64_t>((polls - 1) / interval) : 0;
    };
  }

  // Flush what set-up and the oracle wrote, so the kernel's writeback
  // of it does not land in the timed phases.
  SyncFilesystem(args.dir);
  // Warm-up: fill caches and finish lazy set-up before timing (a fixed
  // 2 s: no cycle boundary needed).
  LoadContext warm_ctx = ctx;
  warm_ctx.cycles = nullptr;
  (void)RunClosedLoop(warm, warm_ctx, 2.0);

  end_phase("warmup");
  // Every thread of the system and of the generator lives in this
  // process, so its CPU time over the open loop, per request sent
  // (visibility probes included), is the CPU cost of serving (and
  // sending) the workload.
  AwaitCycleBoundary(ctx);
  const double cpu_before = CpuSeconds();
  const OpenLoopResult open = RunOpenLoop(schedules, ctx, phase_s);
  const double cpu_ms_per_req =
      (CpuSeconds() - cpu_before) * 1e3 /
      static_cast<double>(std::max<size_t>(1, open.samples.size() + open.probes));
  end_phase("open_loop");
  std::vector<std::string> acked = open.acked_ids;

  OpenLoopResult traced;
  Tracer tracer;
  ClosedLoopResult peak;
  MetricSet layers;
  MetricSet layer_extras;
  std::vector<Span> spans;
  if (args.trace) {
    LoadContext traced_ctx = ctx;
    traced_ctx.tracer = &tracer;
    AwaitBoundaryAfter(open, ctx);
    traced = RunOpenLoop(traced_schedules, traced_ctx, phase_s);
    acked.insert(acked.end(), traced.acked_ids.begin(), traced.acked_ids.end());
    spans = traced.spans;
    LayerInputs in;
    in.spec = spec;
    in.pop = &pop;
    in.factory = &factory;
    in.topo = topo.get();
    in.seed = args.seed;
    in.scratch_dir = args.dir + "/scratch";
    for (const auto& stream : schedules.readers) {
      for (const Scheduled& item : stream) in.requests.push_back(item.request);
    }
    in.traced = &traced;
    in.tracer = &tracer;
    if (correct && !MeasureLayers(in, &layers, &layer_extras, &spans, &error)) {
      correct = false;
    }
  } else {
    AwaitBoundaryAfter(open, ctx);
    peak = RunClosedLoop(closed, ctx, peak_s);
  }

  end_phase(args.trace ? "traced_and_layers" : "peak");
  // ---- durability: acked writes readable now and after a reopen ----
  AwaitReplica(topo.get());
  if (correct) correct = AllReadable(topo->router_port(), acked, &error);
  const uint64_t failovers = topo->router->failovers();
  const uint64_t hedges = topo->router->hedges_fired();
  (void)topo->Stop();
  if (correct && !acked.empty()) {
    auto reopened = ReopenTopology(topo->dir);
    if (!reopened.ok()) {
      correct = false;
      error = "reopen: " + reopened.status().ToString();
    } else {
      correct = AllReadable(reopened.ValueUnsafe()->router_port(), acked, &error);
      (void)reopened.ValueUnsafe()->Stop();
    }
  }
  const std::string topo_dir = topo->dir;
  topo.reset();
  end_phase("durability");

  // ---- metrics ----
  std::vector<Sample> all = open.samples;
  all.insert(all.end(), peak.samples.begin(), peak.samples.end());
  uint64_t attempted = all.size() + traced.samples.size();
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t slo_miss = 0;
  std::vector<double> late;
  std::vector<double> final_late;
  for (const std::vector<Sample>* v :
       std::initializer_list<const std::vector<Sample>*>{&open.samples,
                                                         &traced.samples}) {
    for (const Sample& s : *v) {
      late.push_back(s.late_ms);
      if (s.due_s >= 0.8 * open.seconds) final_late.push_back(s.late_ms);
      if (!s.ok || s.latency_ms > LimitMs(s.kind)) ++slo_miss;
    }
  }
  for (const std::vector<Sample>* v :
       std::initializer_list<const std::vector<Sample>*>{&all,
                                                         &traced.samples}) {
    for (const Sample& s : *v) {
      if (!s.ok) ++failed;
      if (s.wrong) ++wrong;
    }
  }
  failed += open.probe_timeouts + traced.probe_timeouts;
  if (wrong > 0) {
    correct = false;
    if (error.empty()) error = std::to_string(wrong) + " wrong answers";
  }
  const double gen_late_p99 = Percentile(late, 99);
  const double backlog_ms = Percentile(final_late, 50);
  const bool valid = backlog_ms < kBacklogLimitMs;
  const size_t open_count = open.samples.size() + traced.samples.size();

  MetricSet report;
  Json counts = Json::MakeObject();
  report.Add("setup_s", setup_s, "s");
  AddClass("search", LatenciesOf(open.samples, Klass::kSearch), &report, &counts);
  AddClass("read", LatenciesOf(open.samples, Klass::kRead), &report, &counts);
  AddClass("write", LatenciesOf(open.samples, Klass::kWrite), &report, &counts);
  if (!open.visibility_ms.empty()) {
    report.Add("visibility_p50_ms", Percentile(open.visibility_ms, 50), "ms");
    counts.Set("visibility", static_cast<uint64_t>(open.visibility_ms.size()));
  }
  const std::vector<double> exports = LatenciesOf(open.samples, Klass::kExport);
  if (!exports.empty()) {
    report.Add("export_p50_ms", Percentile(exports, 50), "ms");
    counts.Set("export", static_cast<uint64_t>(exports.size()));
  }
  if (!args.trace) {
    report.Add("peak_rps", static_cast<double>(peak.samples.size()) / peak.seconds,
               "req/s");
  }
  report.Add("slo_miss_frac",
             open_count ? static_cast<double>(slo_miss) / open_count : 0, "ratio");
  report.Add("error_frac",
             attempted ? static_cast<double>(failed) / attempted : 0, "ratio");
  report.Add("cpu_ms_per_req", cpu_ms_per_req, "ms");
  report.Add("rss_mb", PeakRssMb(), "MB");
  report.Add("bench.gen_late_p99_ms", gen_late_p99, "ms");

  Json meta = Json::MakeObject();
  meta.Set("nproc", static_cast<uint64_t>(nproc));
  meta.Set("build_type", LAKEBENCH_BUILD_TYPE);
  meta.Set("compiler", LAKEBENCH_COMPILER);
  meta.Set("git_commit", GitCommit());
  meta.Set("population", static_cast<uint64_t>(kPopulation));
  meta.Set("seed", args.seed);
  meta.Set("seconds", args.seconds);
  meta.Set("open_loop_s", open.seconds);
  meta.Set("peak_s", peak.seconds);
  meta.Set("generator_connections",
           ReadConnections(*spec) + (writes_on ? 2 : 0));
  meta.Set("flush_policy", "fsync on every ingest commit (lake default)");
  meta.Set("workload", WorkloadJson(*spec));
  meta.Set("options_set", SetOptionsJson());
  meta.Set("sample_counts", std::move(counts));
  Json by_kind = Json::MakeObject();
  for (int k = 0; k < kNumKinds; ++k) {
    std::vector<double> v;
    for (const Sample& s : open.samples) {
      if (s.ok && s.kind == static_cast<Kind>(k)) v.push_back(s.latency_ms);
    }
    if (v.empty()) continue;
    Json j = Json::MakeObject();
    j.Set("n", static_cast<uint64_t>(v.size()));
    j.Set("p50_ms", Percentile(v, 50));
    j.Set("p90_ms", Percentile(v, 90));
    by_kind.Set(KindName(static_cast<Kind>(k)), std::move(j));
  }
  meta.Set("open_loop_by_kind", std::move(by_kind));
  meta.Set("phase_s", std::move(phases));
  meta.Set("router_failovers", failovers);
  meta.Set("router_hedges", hedges);
  meta.Set("final_fifth_late_p50_ms", backlog_ms);
  meta.Set("visibility_probes", open.probes);
  meta.Set("valid", valid);
  if (!error.empty()) meta.Set("error", error);

  // Tracing overhead of the classes only some workloads send.
  for (Klass klass : {Klass::kRead, Klass::kWrite}) {
    const std::vector<double> a = LatenciesOf(open.samples, klass);
    const std::vector<double> b = LatenciesOf(traced.samples, klass);
    if (a.empty() || b.empty()) continue;
    layer_extras.Add(klass == Klass::kRead ? "trace.overhead_read_p50_ms"
                                           : "trace.overhead_write_p50_ms",
                     Percentile(b, 50) - Percentile(a, 50), "ms");
  }
  Json full = Json::MakeObject();
  full.Set("report", report.json());
  full.Set("meta", std::move(meta));
  if (args.trace) {
    full.Set("layers", layers.json());
    full.Set("layers_workload_specific", layer_extras.json());
  }
  std::printf("%s\n", full.Dump().c_str());

  WriteSamples(args.dir + "/samples.csv", open, traced);
  if (args.trace) WriteSpans(args.dir + "/spans.jsonl", spans);
  (void)mlake::RemoveAll(topo_dir);
  (void)mlake::RemoveAll(args.dir + "/scratch");

  if (!correct) std::fprintf(stderr, "lakebench: INCORRECT: %s\n", error.c_str());
  if (!valid) {
    return Fail(3, mlake::StrFormat(
                       "the open loop fell behind its schedule (median "
                       "lateness %.1f ms over its last fifth)",
                       backlog_ms));
  }

  // The result line: the gated metric set.
  MetricSet gated;
  if (args.trace) {
    gated = layers;
    // Tracing overhead: traced minus untraced open-loop figures.
    const std::vector<double> plain = LatenciesOf(open.samples, Klass::kSearch);
    const std::vector<double> with = LatenciesOf(traced.samples, Klass::kSearch);
    gated.Add("trace.overhead_search_p50_ms",
              Percentile(with, 50) - Percentile(plain, 50), "ms");
    gated.Add("trace.overhead_search_p95_ms",
              Percentile(with, 95) - Percentile(plain, 95), "ms");
    gated.Add("bench.gen_late_p99_ms", gen_late_p99, "ms");
  } else {
    // Latencies and peak_rps are in the report line only. On a shared
    // 4-vCPU VM their run-to-run spread is wider than any bound a gate
    // may use: whole runs read 1.5-2x slower than the runs minutes
    // before them at the same CPU time per request (the host delays
    // waking idle vCPUs, and every routed request crosses many
    // threads), so search p50 and peak_rps spread 0.2-0.9 IQR/median
    // over 5-10 runs, runs of one seed included.
    gated.Add("setup_s", setup_s, "s");
    gated.Add("cpu_ms_per_req", cpu_ms_per_req, "ms");
    gated.Add("rss_mb", PeakRssMb(), "MB");
  }
  if (!gated.AllNamesValid() || !report.AllNamesValid()) {
    return Fail(2, "invalid metric name");
  }
  Json result = Json::MakeObject();
  result.Set("correct", correct);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", gated.json());
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lakebench --workload browse|discover|publish "
                 "--seed N --seconds S --trace 0|1 [--dir DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
