#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

#include "common/string_util.h"
#include "server/client.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using mlake::Rng;
using mlake::StrFormat;

Klass ClassOf(Kind kind) {
  switch (kind) {
    case Kind::kModel:
    case Kind::kLineage:
    case Kind::kCitation:
      return Klass::kRead;
    case Kind::kIngest:
      return Klass::kWrite;
    case Kind::kExport:
      return Klass::kExport;
    default:
      return Klass::kSearch;
  }
}

const char* KindName(Kind kind) {
  static const char* const names[kNumKinds] = {
      "model", "lineage", "citation", "ann", "keyword",
      "mlql",  "hybrid",  "ingest",   "export"};
  return names[static_cast<int>(kind)];
}

double LimitMs(Kind kind) {
  switch (kind) {
    case Kind::kModel:
    case Kind::kLineage:
    case Kind::kCitation:
      return 10;
    case Kind::kAnn:
    case Kind::kKeyword:
      return 50;
    case Kind::kMlql:
    case Kind::kHybrid:
      return 1000;
    case Kind::kIngest:
      return 50;
    case Kind::kExport:
      return 2000;
  }
  return 0;
}

const std::vector<WorkloadSpec>& Workloads() {
  // Each generator connection is a blocking HTTP/1.1 client, so a rate
  // keeps its connections lightly loaded (75 req/s each: ~15% busy at
  // the ~2 ms routed search of a 4-vCPU host while a fingerprint
  // exchange holds a core): busier connections queue requests behind
  // one another whenever the host slows, and the run then measures the
  // client's queue instead of the lake.
  static const std::vector<WorkloadSpec> specs = [] {
    const std::vector<std::pair<Kind, double>> browse_mix = {
        {Kind::kModel, 0.35},   {Kind::kLineage, 0.10}, {Kind::kCitation, 0.10},
        {Kind::kAnn, 0.30},     {Kind::kKeyword, 0.15}};
    std::vector<WorkloadSpec> v(3);
    v[0].name = "browse";
    v[0].why =
        "cheap point reads, ann and df=1 keyword: HTTP, JSON, router fan-out, "
        "batcher and HNSW probe carry the time";
    v[0].rate = 300;
    v[0].mix = browse_mix;
    v[0].groups = {{{Kind::kModel, Kind::kLineage, Kind::kCitation, Kind::kAnn,
                     Kind::kKeyword},
                    4}};
    v[0].layers = {"cluster", "server", "common", "index(hnsw)", "core(ann)"};
    v[1].name = "discover";
    v[1].why =
        "broad keyword, ann, MLQL and hybrid: BM25 scoring, card scans, "
        "plan cache and RRF carry the time";
    v[1].rate = 15;
    v[1].mix = {{Kind::kKeyword, 0.60},
                {Kind::kAnn, 0.25},
                {Kind::kMlql, 0.12},
                {Kind::kHybrid, 0.03}};
    v[1].broad_keywords = true;
    v[1].groups = {{{Kind::kKeyword, Kind::kAnn}, 2},
                   {{Kind::kMlql}, 1},
                   {{Kind::kHybrid}, 1}};
    v[1].layers = {"index(bm25)", "search", "core(keyword,mlql,hybrid)"};
    v[2].name = "publish";
    v[2].why =
        "browse reads beside routed artifact ingests, visibility probes and "
        "exports: storage, embed, replication and lock interference";
    v[2].rate = 150;
    v[2].mix = browse_mix;
    // One writer connection: an ingest of a 4 KB-1 MB artifact takes
    // ~40-100 ms routed, so 5/s keeps it as lightly loaded as the readers.
    v[2].write_rate = 5;
    v[2].export_interval_s = 4;
    v[2].groups = {{v[0].groups[0].kinds, 2}};
    v[2].layers = {"storage", "embed", "replication", "governance",
                   "core(ingest)", "cluster(write)"};
    return v;
  }();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

int ReadConnections(const WorkloadSpec& spec) {
  int n = 0;
  for (const auto& g : spec.groups) n += g.connections;
  return n;
}

mlake::Json WorkloadJson(const WorkloadSpec& spec) {
  mlake::Json mix = mlake::Json::MakeObject();
  for (const auto& [kind, share] : spec.mix) mix.Set(KindName(kind), share);
  mlake::Json limits = mlake::Json::MakeObject();
  for (int k = 0; k < kNumKinds; ++k) {
    limits.Set(KindName(static_cast<Kind>(k)), LimitMs(static_cast<Kind>(k)));
  }
  mlake::Json layers = mlake::Json::MakeArray();
  for (const std::string& l : spec.layers) layers.Append(l);
  mlake::Json out = mlake::Json::MakeObject();
  out.Set("name", spec.name);
  out.Set("why", spec.why);
  out.Set("offered_rps", spec.rate);
  out.Set("mix", std::move(mix));
  out.Set("keyword_terms", spec.broad_keywords ? "df 600..10000" : "df 1");
  out.Set("ingest_rps", spec.write_rate);
  out.Set("export_interval_s", spec.export_interval_s);
  mlake::Json groups = mlake::Json::MakeArray();
  for (const auto& g : spec.groups) {
    mlake::Json kinds = mlake::Json::MakeArray();
    for (Kind k : g.kinds) kinds.Append(KindName(k));
    mlake::Json j = mlake::Json::MakeObject();
    j.Set("kinds", std::move(kinds));
    j.Set("connections", g.connections);
    groups.Append(std::move(j));
  }
  out.Set("read_connection_groups", std::move(groups));
  out.Set("latency_limits_ms", std::move(limits));
  out.Set("layers", std::move(layers));
  return out;
}

// ------------------------------------------------------------ requests

namespace {

constexpr size_t kMlqlPool = 2048;  // > kPlanCacheCap (512)

template <typename T>
const T& Pick(const std::vector<T>& v, Rng* rng) {
  return v[rng->NextBelow(v.size())];
}

std::string MlqlText(size_t shape, Rng* rng) {
  // Every shape has well over kMlqlPool / 4 distinct texts.
  static const int ks[] = {5, 10, 15, 20, 25};
  const int k = ks[rng->NextBelow(5)];
  switch (shape % 4) {
    case 0:
      return StrFormat(
          "FIND MODELS WHERE task = '%s' AND license = '%s' RANK BY "
          "keyword('%s %s') LIMIT %d",
          Pick(Families(), rng).c_str(), Pick(Licenses(), rng).c_str(),
          Pick(Domains(), rng).c_str(), Pick(Architectures(), rng).c_str(), k);
    case 1:
      return StrFormat(
          "FIND MODELS WHERE tag('%s') AND creator = '%s' AND license = '%s' "
          "LIMIT %d",
          Pick(Domains(), rng).c_str(), Pick(Creators(), rng).c_str(),
          Pick(Licenses(), rng).c_str(), k);
    case 2:
      return StrFormat(
          "FIND MODELS WHERE task = '%s' AND creator = '%s' AND license != "
          "'%s' RANK BY completeness() LIMIT %d",
          Pick(Families(), rng).c_str(), Pick(Creators(), rng).c_str(),
          Pick(Licenses(), rng).c_str(), k);
    default:
      return StrFormat(
          "FIND MODELS WHERE license = '%s' RANK BY keyword('%s %s') LIMIT %d",
          Pick(Licenses(), rng).c_str(), Pick(Families(), rng).c_str(),
          Pick(Domains(), rng).c_str(), k);
  }
}

std::string BroadKeywords(Rng* rng) {
  switch (rng->NextBelow(4)) {
    case 0:
      return Pick(Domains(), rng) + " " + Pick(Families(), rng);
    case 1:
      return "synthetic " + Pick(Families(), rng);
    case 2:
      return Pick(Architectures(), rng) + " " + Pick(Domains(), rng) + " model";
    default:
      return Pick(Families(), rng);
  }
}

std::string Quoted(const std::string& s) { return mlake::Json(s).Dump(); }

}  // namespace

RequestFactory::RequestFactory(const Population& pop, uint64_t seed)
    : pop_(pop), model_zipf_(pop.models.size(), 1.0),
      mlql_zipf_(kMlqlPool, 1.0) {
  Rng rng(seed * 0xBF58476D1CE4E5B9ULL + 11);
  // The template cycles with the pool rank, so the popular texts have
  // the same shapes under every seed; the seed picks their parameters.
  std::set<std::string> seen;
  while (mlql_pool_.size() < kMlqlPool) {
    std::string text = MlqlText(mlql_pool_.size(), &rng);
    if (seen.insert(text).second) mlql_pool_.push_back(std::move(text));
  }
}

const std::string& RequestFactory::PopularId(Rng* rng) const {
  return pop_.models[pop_.popular[model_zipf_.Draw(rng)]].card.model_id;
}

Request RequestFactory::Make(Kind kind, bool broad_keywords, Rng* rng) const {
  Request r;
  r.kind = kind;
  switch (kind) {
    case Kind::kModel: {
      const std::string& id = PopularId(rng);
      r.path = "/v1/models/" + id;
      r.expect = Quoted(id);
      break;
    }
    case Kind::kLineage: {
      const std::string& id = PopularId(rng);
      r.path = "/v1/lineage/" + id;
      r.expect = Quoted(id);
      break;
    }
    case Kind::kCitation: {
      const std::string& id = PopularId(rng);
      r.path = "/v1/models/" + id + "/citation";
      r.expect = Quoted(id);
      break;
    }
    case Kind::kAnn: {
      r.post = true;
      r.path = "/v1/search";
      r.body = R"({"type": "ann", "id": )" + Quoted(PopularId(rng)) +
               R"(, "k": 10})";
      r.expect = "\"score\"";
      break;
    }
    case Kind::kKeyword: {
      r.post = true;
      r.path = "/v1/search";
      if (broad_keywords) {
        r.body = R"({"type": "keyword", "query": )" +
                 Quoted(BroadKeywords(rng)) + R"(, "k": 10})";
        r.expect = "\"score\"";
      } else {
        // The five-digit model number is a df = 1 token: the model
        // itself must come back.
        const std::string& id = PopularId(rng);
        r.body = R"({"type": "keyword", "query": )" +
                 Quoted(id.substr(id.size() - 5)) + R"(, "k": 10})";
        r.expect = Quoted(id);
      }
      break;
    }
    case Kind::kMlql: {
      r.post = true;
      r.path = "/v1/search";
      r.body = R"({"type": "mlql", "query": )" +
               Quoted(mlql_pool_[mlql_zipf_.Draw(rng)]) + "}";
      r.expect = "\"models\"";
      break;
    }
    case Kind::kHybrid: {
      r.post = true;
      r.path = "/v1/search";
      r.body = R"({"type": "hybrid", "query": )" +
               Quoted(Pick(Domains(), rng) + " " + Pick(Families(), rng)) +
               R"(, "id": )" + Quoted(PopularId(rng)) + R"(, "k": 10})";
      r.expect = "\"models\"";
      break;
    }
    case Kind::kIngest:
      r.post = true;
      r.path = "/v1/ingest";
      break;
    case Kind::kExport:
      r.path = "/v1/export";
      r.expect = "\"footer\"";
      break;
  }
  return r;
}

KindDeck::KindDeck(const std::vector<std::pair<Kind, double>>& mix,
                   Rng* rng)
    : mix_(mix), current_(mix.size(), 0.0) {
  for (uint64_t skip = rng->NextBelow(100); skip > 0; --skip) Next();
}

Kind KindDeck::Next() {
  double total = 0;
  size_t best = 0;
  for (size_t i = 0; i < mix_.size(); ++i) {
    current_[i] += mix_[i].second;
    total += mix_[i].second;
    if (current_[i] > current_[best]) best = i;
  }
  current_[best] -= total;
  return mix_[best].first;
}

Schedules MakeSchedules(const WorkloadSpec& spec, const RequestFactory& factory,
                        uint64_t seed, double seconds, size_t* writes_used) {
  Schedules out;
  uint64_t stream = 0;
  for (const WorkloadSpec::Group& group : spec.groups) {
    std::vector<std::pair<Kind, double>> mix;
    double share = 0;
    for (const auto& [kind, w] : spec.mix) {
      if (std::find(group.kinds.begin(), group.kinds.end(), kind) !=
          group.kinds.end()) {
        mix.push_back({kind, w});
        share += w;
      }
    }
    // Superposed Poisson streams are Poisson: each connection carries
    // its group's rate / connections.
    const double rate = spec.rate * share / group.connections;
    for (int c = 0; c < group.connections; ++c, ++stream) {
      Rng rng(seed * 0x2545F4914F6CDD1DULL + stream * 101 + 5);
      KindDeck deck(mix, &rng);
      std::vector<Scheduled> items;
      for (double due : PoissonArrivals(rate, seconds, &rng)) {
        items.push_back({due, factory.Make(deck.Next(), spec.broad_keywords,
                                           &rng)});
      }
      out.readers.push_back(std::move(items));
    }
  }
  size_t writes = 0;
  if (spec.write_rate > 0) {
    Rng rng(seed * 0x5851F42D4C957F2DULL + 17);
    for (double due : PoissonArrivals(spec.write_rate, seconds, &rng)) {
      Request r = factory.Make(Kind::kIngest, false, &rng);
      r.write_index = static_cast<int>(writes++);
      out.writer.push_back({due, std::move(r)});
    }
  }
  if (spec.export_interval_s > 0) {
    Rng unused(0);
    for (double due = spec.export_interval_s / 2; due < seconds;
         due += spec.export_interval_s) {
      out.exports.push_back({due, factory.Make(Kind::kExport, false, &unused)});
    }
  }
  *writes_used = writes;
  return out;
}

bool AnswerMatches(const Request& request, int status,
                   const std::string& body) {
  if (status != 200) return false;
  return request.expect.empty() ||
         body.find(request.expect) != std::string::npos;
}

// --------------------------------------------------------------- tracer

Tracer::Tracer() : epoch_(Clock::now()) {}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int64_t Tracer::Record(std::vector<Span>* local, std::string name,
                       int64_t start, int64_t end, int64_t parent,
                       int64_t request) {
  const int64_t id = NextSpanId();
  local->push_back({std::move(name), start, end, id, parent, request});
  return id;
}

// ----------------------------------------------------------- generators

namespace {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Answer {
  int status = 0;
  std::string body;
  bool transport_ok = false;
};

Answer Send(mlake::server::HttpClient* client, const Request& r,
            const std::vector<WriteInput>* writes) {
  Answer a;
  mlake::Result<mlake::server::HttpResponse> resp =
      r.kind == Kind::kIngest
          ? client->Post(r.path, (*writes)[static_cast<size_t>(r.write_index)].body)
      : r.post ? client->Post(r.path, r.body, {}, 0, /*idempotent=*/true)
               : client->Get(r.path);
  if (!resp.ok()) return a;
  a.transport_ok = true;
  a.status = resp.ValueUnsafe().status;
  a.body = std::move(resp.ValueUnsafe().body);
  return a;
}

Sample Judge(const Request& r, const Answer& a,
             const std::vector<WriteInput>* writes) {
  Sample s;
  s.kind = r.kind;
  s.status = a.status;
  if (!a.transport_ok) return s;
  if (r.kind == Kind::kIngest) {
    const std::string& id = (*writes)[static_cast<size_t>(r.write_index)].id;
    s.ok = a.status == 200 && a.body.find(Quoted(id)) != std::string::npos;
  } else {
    s.ok = AnswerMatches(r, a.status, a.body);
  }
  s.wrong = a.status == 200 && !s.ok;
  return s;
}

struct PendingProbe {
  std::string id;
  Clock::time_point ack;
  bool probed = false;
  uint64_t applied = 0;  // the replica's applied seq at the last probe
  Clock::time_point last;
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The end of a timed phase, polled by the load threads: the phase ends
/// at the first check at least `min_s` in at which `ctx.cycles` has
/// advanced past its value at `min_s`, or at min_s + kCycleCapS.
class PhaseEnd {
 public:
  PhaseEnd(const LoadContext& ctx, double min_s) : ctx_(ctx), min_s_(min_s) {}

  /// The phase's end in seconds from its start, or infinity while it
  /// goes on at `now_s`.
  double At(double now_s) {
    std::lock_guard<std::mutex> lock(mu_);
    if (end_s_ < kNever || now_s < min_s_) return end_s_;
    if (!ctx_.cycles) {
      end_s_ = min_s_;
    } else if (now_s >= min_s_ + kCycleCapS) {
      end_s_ = now_s;
    } else if (now_s - checked_s_ >= 0.001) {
      checked_s_ = now_s;
      const uint64_t c = ctx_.cycles();
      if (!armed_) {
        armed_ = true;
        start_count_ = c;
      } else if (c != start_count_) {
        end_s_ = now_s;
      }
    }
    return end_s_;
  }

 private:
  static constexpr double kNever = std::numeric_limits<double>::infinity();
  const LoadContext& ctx_;
  const double min_s_;
  std::mutex mu_;
  bool armed_ = false;
  uint64_t start_count_ = 0;
  double checked_s_ = -1;
  double end_s_ = kNever;
};

}  // namespace

void AwaitCycleBoundary(const LoadContext& ctx) {
  if (!ctx.cycles) return;
  const Clock::time_point start = Clock::now();
  const uint64_t c0 = ctx.cycles();
  while (ctx.cycles() == c0 && SecondsSince(start) < kCycleCapS) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

OpenLoopResult RunOpenLoop(const Schedules& schedules, const LoadContext& ctx,
                           double min_s) {
  OpenLoopResult result;
  std::mutex mu;  // guards result merges and the probe queue
  std::vector<PendingProbe> pending;
  std::atomic<bool> writer_done{schedules.writer.empty()};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  PhaseEnd end(ctx, min_s);
  Tracer* tracer = ctx.tracer;
  const auto due_at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };

  // One stream of scheduled requests on one connection. `on_ack` sees
  // each successful answer (the writer feeds the visibility prober).
  auto run_stream = [&](const std::vector<Scheduled>& stream,
                        const std::function<void(const Request&,
                                                 Clock::time_point)>& on_ack) {
    mlake::server::HttpClient client("127.0.0.1", ctx.router_port);
    std::vector<Sample> samples;
    std::vector<Span> spans;
    samples.reserve(stream.size());
    for (const Scheduled& item : stream) {
      const Clock::time_point due = due_at(item.due_s);
      std::this_thread::sleep_until(due);
      if (item.due_s >= end.At(SecondsSince(start))) break;
      const Clock::time_point sent = Clock::now();
      const int64_t t_sent = tracer ? tracer->Now() : 0;
      Answer a = Send(&client, item.request, ctx.writes);
      const Clock::time_point done = Clock::now();
      Sample s = Judge(item.request, a, ctx.writes);
      s.latency_ms = MsBetween(due, done);
      s.late_ms = MsBetween(due, sent);
      s.due_s = item.due_s;
      if (tracer) {
        const int64_t t_done = tracer->Now();
        const int64_t req = tracer->NextRequestId();
        const int64_t t_due =
            t_sent - static_cast<int64_t>(s.late_ms * 1e6);
        const int64_t root =
            tracer->Record(&spans, std::string("request.") +
                                       KindName(item.request.kind),
                           t_due, t_done, -1, req);
        tracer->Record(&spans, "router.call", t_sent, t_done, root, req);
      }
      if (s.ok && on_ack) on_ack(item.request, done);
      samples.push_back(s);
    }
    std::lock_guard<std::mutex> lock(mu);
    result.samples.insert(result.samples.end(), samples.begin(), samples.end());
    result.spans.insert(result.spans.end(), spans.begin(), spans.end());
  };

  std::vector<std::thread> threads;
  for (const auto& stream : schedules.readers) {
    threads.emplace_back([&] { run_stream(stream, nullptr); });
  }
  if (!schedules.writer.empty()) {
    threads.emplace_back([&] {
      run_stream(schedules.writer, [&](const Request& r, Clock::time_point ack) {
        const WriteInput& w = (*ctx.writes)[static_cast<size_t>(r.write_index)];
        std::lock_guard<std::mutex> lock(mu);
        result.acked_ids.push_back(w.id);
        // Visibility is measured on the replicated shard: routed reads
        // of shard 0 go to its replica first.
        if (w.owner_shard == 0) pending.push_back({w.id, ack});
      });
      writer_done.store(true);
    });
  }
  if (!schedules.writer.empty() || !schedules.exports.empty()) {
    // The prober: visibility probes, lag samples and scheduled exports,
    // all on one connection.
    threads.emplace_back([&] {
      mlake::server::HttpClient client("127.0.0.1", ctx.router_port);
      size_t next_export = 0;
      std::vector<Sample> samples;
      std::vector<double> visibility;
      uint64_t timeouts = 0;
      uint64_t probes = 0;
      uint64_t lag_max = 0;
      while (true) {
        const Clock::time_point now = Clock::now();
        if (next_export < schedules.exports.size() &&
            schedules.exports[next_export].due_s >= end.At(SecondsSince(start))) {
          next_export = schedules.exports.size();  // due after the phase
        }
        if (next_export < schedules.exports.size() &&
            now >= due_at(schedules.exports[next_export].due_s)) {
          const Scheduled& item = schedules.exports[next_export++];
          const Clock::time_point due = due_at(item.due_s);
          Answer a = Send(&client, item.request, ctx.writes);
          Sample s = Judge(item.request, a, ctx.writes);
          s.latency_ms = MsBetween(due, Clock::now());
          s.late_ms = MsBetween(due, now);
          samples.push_back(s);
          continue;
        }
        if (ctx.replica_lag) lag_max = std::max(lag_max, ctx.replica_lag());
        std::vector<PendingProbe> batch;
        {
          std::lock_guard<std::mutex> lock(mu);
          batch.swap(pending);
        }
        std::vector<PendingProbe> still;
        const uint64_t applied = ctx.replica_applied ? ctx.replica_applied() : 0;
        for (PendingProbe& p : batch) {
          // A write turns visible on the replica when it applies it, so
          // after the first probe the next waits for the replica to
          // apply something (or 100 ms): a few probes per write, each
          // sent within 2 ms of the apply.
          if (p.probed && applied == p.applied &&
              MsBetween(p.last, Clock::now()) < 100) {
            still.push_back(std::move(p));
            continue;
          }
          auto r = client.Get("/v1/models/" + p.id);
          ++probes;
          const Clock::time_point t = Clock::now();
          if (r.ok() && r.ValueUnsafe().status == 200) {
            visibility.push_back(MsBetween(p.ack, t));
          } else if (MsBetween(p.ack, t) > 10000) {
            ++timeouts;
          } else {
            p.probed = true;
            p.applied = applied;
            p.last = t;
            still.push_back(std::move(p));
          }
        }
        bool done;
        {
          std::lock_guard<std::mutex> lock(mu);
          pending.insert(pending.end(), still.begin(), still.end());
          done = writer_done.load() && pending.empty() &&
                 next_export >= schedules.exports.size();
        }
        if (done) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      std::lock_guard<std::mutex> lock(mu);
      result.samples.insert(result.samples.end(), samples.begin(),
                            samples.end());
      result.visibility_ms = std::move(visibility);
      result.probe_timeouts = timeouts;
      result.probes = probes;
      result.lag_entries_max = lag_max;
    });
  }
  for (auto& t : threads) t.join();
  result.seconds = end.At(SecondsSince(start));
  if (std::isinf(result.seconds)) result.seconds = SecondsSince(start);
  result.ended = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(result.seconds));
  return result;
}

ClosedLoopResult RunClosedLoop(const std::vector<std::vector<Request>>& lists,
                               const LoadContext& ctx, double min_s) {
  ClosedLoopResult result;
  std::mutex mu;
  const Clock::time_point start = Clock::now();
  PhaseEnd end(ctx, min_s);
  std::vector<std::thread> threads;
  for (const auto& list : lists) {
    threads.emplace_back([&] {
      mlake::server::HttpClient client("127.0.0.1", ctx.router_port);
      std::vector<Sample> samples;
      for (size_t i = 0;
           SecondsSince(start) < end.At(SecondsSince(start)) && !list.empty();
           ++i) {
        const Request& r = list[i % list.size()];
        const Clock::time_point sent = Clock::now();
        Sample s = Judge(r, Send(&client, r, ctx.writes), ctx.writes);
        s.latency_ms = MsBetween(sent, Clock::now());
        s.due_s = MsBetween(start, sent) / 1e3;
        samples.push_back(s);
      }
      std::lock_guard<std::mutex> lock(mu);
      result.samples.insert(result.samples.end(), samples.begin(),
                            samples.end());
    });
  }
  for (auto& t : threads) t.join();
  result.seconds = end.At(SecondsSince(start));
  // Requests in flight at the end finish after it; count them in.
  result.seconds = std::max(result.seconds, SecondsSince(start));
  return result;
}

}  // namespace perfbench
