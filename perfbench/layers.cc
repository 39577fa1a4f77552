#include "layers.h"

#include <chrono>
#include <functional>
#include <map>

#include "common/file_util.h"
#include "common/fs.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "embed/embedder.h"
#include "index/hnsw_index.h"
#include "index/inverted_index.h"
#include "search/parser.h"
#include "server/client.h"
#include "server/http.h"
#include "stats.h"
#include "storage/model_artifact.h"

namespace perfbench {

using mlake::Json;
using Clock = std::chrono::steady_clock;

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  Json m = Json::MakeObject();
  m.Set("value", value);
  m.Set("unit", unit);
  json_.Set(name, std::move(m));
  names_.push_back(name);
}

bool MetricSet::AllNamesValid() const {
  for (const std::string& n : names_) {
    if (!ValidMetricName(n)) return false;
  }
  return true;
}

namespace {

constexpr size_t kPeelPerKind = 60;
constexpr size_t kPeelSlowKind = 12;  // mlql / hybrid peels
constexpr size_t kScratchWrites = 16;

double UsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

/// Times `fn` and records it as a span under `parent`.
struct SpanScope {
  const LayerInputs& in;
  std::vector<Span>* spans;
  int64_t request;
  int64_t parent;

  double Time(const std::string& name, const std::function<void()>& fn) {
    const int64_t start = in.tracer->Now();
    const Clock::time_point t = Clock::now();
    fn();
    const double us = UsSince(t);
    in.tracer->Record(spans, name, start, in.tracer->Now(), parent, request);
    return us;
  }
};

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

/// Per-class peel samples (microseconds) plus what the probes saw.
struct Peel {
  std::map<Klass, std::vector<double>> routed, direct, inproc;
  std::map<Kind, std::vector<double>> core, routed_kind;
  std::vector<std::string> bodies;       // routed answers (JSON probes)
  std::vector<std::string> raw_requests; // HTTP requests (parse probe)
  uint64_t cards_scanned = 0;
  uint64_t results = 0;
  bool wrong = false;
  std::string error;
};

std::string RawRequest(const Request& r) {
  std::string raw = (r.post ? "POST " : "GET ") + r.path +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (r.post) {
    raw += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(r.body.size()) + "\r\n";
  }
  return raw + "\r\n" + r.body;
}

/// The peel sample: up to kPeelPerKind requests of each read and search
/// kind (kPeelSlowKind for mlql / hybrid), taken from the run's own
/// requests and topped up from the factory for kinds the workload does
/// not send, so every layer is measured on every workload.
std::vector<Request> PeelSample(const LayerInputs& in) {
  std::map<Kind, std::vector<Request>> by_kind;
  const Kind kinds[] = {Kind::kModel, Kind::kLineage, Kind::kCitation,
                        Kind::kAnn,   Kind::kKeyword, Kind::kMlql,
                        Kind::kHybrid};
  auto cap = [](Kind k) {
    return k == Kind::kMlql || k == Kind::kHybrid ? kPeelSlowKind
                                                  : kPeelPerKind;
  };
  for (const Request& r : in.requests) {
    auto& v = by_kind[r.kind];
    if (v.size() < cap(r.kind)) v.push_back(r);
  }
  mlake::Rng rng(in.seed * 0xA0761D6478BD642FULL + 41);
  std::vector<Request> out;
  for (Kind k : kinds) {
    auto& v = by_kind[k];
    while (v.size() < cap(k)) {
      v.push_back(in.factory->Make(k, in.spec->broad_keywords, &rng));
    }
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

std::string IdOf(const Request& r) {
  if (r.post) {
    auto j = Json::Parse(r.body);
    return j.ok() ? j.ValueUnsafe().GetString("id") : std::string();
  }
  // /v1/models/{id}, /v1/lineage/{id}, /v1/models/{id}/citation
  for (const std::string prefix : {"/v1/models/", "/v1/lineage/"}) {
    if (r.path.rfind(prefix, 0) == 0) {
      const std::string rest = r.path.substr(prefix.size());
      return rest.substr(0, rest.find('/'));
    }
  }
  return std::string();
}

/// Shard slot owning a population id.
int OwnerOf(const LayerInputs& in, const std::string& id) {
  for (int s = 0; s < kShards; ++s) {
    if (in.topo->lakes[s]->CardFor(id).ok()) return s;
  }
  return 0;
}

/// The backend the router reads shard `s` from (replica first).
int BackendPort(const LayerInputs& in, int s) {
  return s == 0 ? in.topo->replica_server->port() : in.topo->leader_port(s);
}

/// The in-process lake call a backend makes for `r` on `lake`.
bool InProcess(const Request& r, mlake::core::ModelLake* lake,
               const std::string& id) {
  switch (r.kind) {
    case Kind::kModel:
      return lake->CardFor(id).ok() && lake->Lineage(id).ok();
    case Kind::kLineage:
      return lake->Lineage(id).ok();
    case Kind::kCitation:
      return lake->CitationDoc(id).ok();
    default:
      break;
  }
  const Json body = Json::Parse(r.body).ValueOrDie();
  const size_t k = static_cast<size_t>(body.GetInt64("k", 5));
  switch (r.kind) {
    case Kind::kAnn:
      return lake->RelatedModels(id, k).ok();
    case Kind::kKeyword:
      return lake->KeywordScores(body.GetString("query"), k).ok();
    case Kind::kMlql:
      return lake->Query(body.GetString("query")).ok();
    case Kind::kHybrid:
      return lake->HybridSearch(body.GetString("query"), id, k).ok();
    default:
      return false;
  }
}

Peel RunPeel(const LayerInputs& in, std::vector<Span>* spans) {
  Peel peel;
  mlake::server::HttpClient routed("127.0.0.1", in.topo->router_port());
  std::vector<std::unique_ptr<mlake::server::HttpClient>> direct;
  for (int s = 0; s < kShards; ++s) {
    direct.push_back(std::make_unique<mlake::server::HttpClient>(
        "127.0.0.1", BackendPort(in, s)));
  }
  auto send = [](mlake::server::HttpClient* c, const Request& r,
                 std::string* body) {
    auto resp = r.post ? c->Post(r.path, r.body) : c->Get(r.path);
    if (!resp.ok()) return 0;
    if (body != nullptr) *body = resp.ValueUnsafe().body;
    return resp.ValueUnsafe().status;
  };
  for (const Request& r : PeelSample(in)) {
    const int64_t req = in.tracer->NextRequestId();
    const int64_t start = in.tracer->Now();
    const int64_t root_id = in.tracer->NextSpanId();
    SpanScope scope{in, spans, req, root_id};
    const Klass klass = ClassOf(r.kind);
    const std::string id = IdOf(r);
    // Reads, ann and hybrid are answered by the id's owner; keyword and
    // mlql by every shard (the router waits for the slowest leg).
    const bool owner_only = klass == Klass::kRead || r.kind == Kind::kAnn ||
                            r.kind == Kind::kHybrid;
    const int owner = owner_only ? OwnerOf(in, id) : -1;

    std::string answer;
    int status = 0;
    const double t_routed =
        scope.Time("routed", [&] { status = send(&routed, r, &answer); });
    if (!AnswerMatches(r, status, answer)) {
      peel.wrong = true;
      peel.error = "peel: routed answer wrong for " + r.path + " " + r.body;
      return peel;
    }
    peel.bodies.push_back(answer);
    peel.raw_requests.push_back(RawRequest(r));

    double t_direct = 0, t_inproc = 0;
    for (int s = 0; s < kShards; ++s) {
      if (owner_only && s != owner) continue;
      std::string shard_answer;
      int shard_status = 0;
      t_direct = std::max(
          t_direct, scope.Time("direct.shard" + std::to_string(s), [&] {
            shard_status = send(direct[s].get(), r, &shard_answer);
          }));
      if (shard_status != 200) {
        peel.wrong = true;
        peel.error = "peel: backend answer " + std::to_string(shard_status) +
                     " for " + r.path + " " + r.body;
        return peel;
      }
      if (r.kind == Kind::kMlql) {
        auto j = Json::Parse(shard_answer);
        if (j.ok()) {
          const std::string plan = j.ValueUnsafe().GetString("plan");
          const size_t at = plan.find("scan ");
          if (at != std::string::npos) {
            peel.cards_scanned += std::strtoull(plan.c_str() + at + 5,
                                                nullptr, 10);
          }
          if (const Json* m = j.ValueUnsafe().Find("models")) {
            peel.results += m->size();
          }
        }
      }
      mlake::core::ModelLake* lake = s == 0 ? in.topo->replica_lake.get()
                                            : in.topo->lakes[s].get();
      bool ok = true;
      t_inproc = std::max(
          t_inproc, scope.Time("inproc.shard" + std::to_string(s),
                               [&] { ok = InProcess(r, lake, id); }));
      if (!ok) {
        peel.wrong = true;
        peel.error = "peel: in-process call failed for " + r.body + r.path;
        return peel;
      }
    }
    in.tracer->Record(spans, std::string("peel.") + KindName(r.kind), start,
                      in.tracer->Now(), -1, req);
    spans->back().id = root_id;
    peel.routed[klass].push_back(t_routed);
    peel.direct[klass].push_back(t_direct);
    peel.inproc[klass].push_back(t_inproc);
    peel.core[r.kind].push_back(t_inproc);
    peel.routed_kind[r.kind].push_back(t_routed);
  }
  return peel;
}

/// Scratch clusters for the write peel: routed ingests go to cluster A
/// (router + two leaders), direct ingests to cluster B's owning leader,
/// in-process ingests to lake C; then a scratch replica of A's shard 0
/// catches up in one SyncOnce. The live population is never written.
struct WritePeel {
  std::vector<double> routed, direct, inproc;
  double apply_ms_per_entry = 0;
  bool ok = true;
  std::string error;
};

WritePeel RunWritePeel(const LayerInputs& in, std::vector<Span>* spans) {
  WritePeel out;
  auto fail = [&out](const std::string& e) {
    out.ok = false;
    out.error = "write peel: " + e;
    return out;
  };
  const std::vector<WriteInput> writes =
      MakeWrites(in.seed, 900000, kScratchWrites);
  // Cluster A and B: empty shard lakes behind servers.
  auto a = std::make_unique<Topology>();
  auto b = std::make_unique<Topology>();
  for (auto* t : {a.get(), b.get()}) {
    t->dir = in.scratch_dir + (t == a.get() ? "/a" : "/b");
    for (int s = 0; s < kShards; ++s) {
      auto lake = mlake::core::ModelLake::Open(
          ShardLakeOptions(t->dir + "/shard" + std::to_string(s)));
      if (!lake.ok()) return fail(lake.status().ToString());
      t->lakes[s] = lake.MoveValueUnsafe();
      mlake::server::ServerOptions options;
      options.shard_id = s;
      options.cluster_size = kShards;
      t->leaders[s] = std::make_unique<mlake::server::LakeServer>(
          t->lakes[s].get(), options);
      if (!t->leaders[s]->Start().ok()) return fail("server start");
    }
  }
  mlake::cluster::RouterOptions router_options;
  router_options.backends = {{"127.0.0.1", a->leader_port(0), 0},
                             {"127.0.0.1", a->leader_port(1), 1}};
  router_options.cluster_size = kShards;
  a->router = std::make_unique<mlake::cluster::Router>(router_options);
  if (!a->router->Start().ok()) return fail("router start");
  a->router->TickNow();
  auto c = mlake::core::ModelLake::Open(
      ShardLakeOptions(in.scratch_dir + "/c"));
  if (!c.ok()) return fail(c.status().ToString());

  mlake::server::HttpClient routed("127.0.0.1", a->router_port());
  mlake::server::HttpClient direct0("127.0.0.1", b->leader_port(0));
  mlake::server::HttpClient direct1("127.0.0.1", b->leader_port(1));
  for (const WriteInput& w : writes) {
    const int64_t req = in.tracer->NextRequestId();
    SpanScope scope{in, spans, req, -1};
    int status_a = 0, status_b = 0;
    out.routed.push_back(scope.Time("write.routed", [&] {
      auto r = routed.Post("/v1/ingest", w.body);
      status_a = r.ok() ? r.ValueUnsafe().status : 0;
    }));
    mlake::server::HttpClient& owner = w.owner_shard == 0 ? direct0 : direct1;
    out.direct.push_back(scope.Time("write.direct", [&] {
      auto r = owner.Post("/v1/ingest", w.body);
      status_b = r.ok() ? r.ValueUnsafe().status : 0;
    }));
    if (status_a != 200 || status_b != 200) return fail("ingest refused");
    // The in-process call a backend makes after decoding the body.
    auto body = Json::Parse(w.body).ValueOrDie();
    auto bytes =
        mlake::server::Base64Decode(body.GetString("artifact_b64")).ValueOrDie();
    auto model = mlake::storage::ModelFromArtifact(
        mlake::storage::ParseArtifact(bytes).ValueOrDie());
    auto card = mlake::metadata::ModelCard::FromJson(*body.Find("card"));
    if (!model.ok() || !card.ok()) return fail("artifact decode");
    bool ok = false;
    out.inproc.push_back(scope.Time("write.inproc", [&] {
      ok = c.ValueUnsafe()->IngestModel(*model.ValueUnsafe(),
                                        card.ValueUnsafe()).ok();
    }));
    if (!ok) return fail("in-process ingest");
  }

  // Replication: a fresh replica of A's shard 0 applies the burst.
  auto replica_lake = mlake::core::ModelLake::Open(
      ShardLakeOptions(in.scratch_dir + "/replica"));
  if (!replica_lake.ok()) return fail(replica_lake.status().ToString());
  mlake::replication::ReplicaOptions replica_options;
  replica_options.leader_port = a->leader_port(0);
  auto replicator = mlake::replication::Replicator::Open(
      replica_lake.ValueUnsafe().get(), replica_options);
  if (!replicator.ok()) return fail(replicator.status().ToString());
  const Clock::time_point t = Clock::now();
  auto applied = replicator.ValueUnsafe()->SyncOnce();
  const double ms = UsSince(t) / 1000.0;
  if (!applied.ok()) return fail(applied.status().ToString());
  out.apply_ms_per_entry =
      applied.ValueUnsafe() > 0 ? ms / static_cast<double>(applied.ValueUnsafe())
                                : 0;
  (void)replicator.ValueUnsafe()->Stop();
  (void)a->Stop();
  (void)b->Stop();
  return out;
}

template <typename Fn>
std::vector<double> TimeEach(size_t n, Fn fn) {
  std::vector<double> out;
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point t = Clock::now();
    fn(i);
    out.push_back(UsSince(t));
  }
  return out;
}

/// Throughput in MB/s of `fn` over `total_bytes`.
double MbPerS(double total_bytes, const std::function<void()>& fn) {
  const Clock::time_point t = Clock::now();
  fn();
  const double s = UsSince(t) / 1e6;
  return s > 0 ? total_bytes / 1e6 / s : 0;
}

std::vector<std::string> KeywordQueries(const std::vector<Request>& sample) {
  std::vector<std::string> out;
  for (const Request& r : sample) {
    if (r.kind == Kind::kKeyword) {
      out.push_back(Json::Parse(r.body).ValueOrDie().GetString("query"));
    }
  }
  return out;
}

/// Number at j[block][key], 0 when absent.
double Field(const Json& j, const char* block, const char* key) {
  const Json* b = j.Find(block);
  return b != nullptr ? b->GetDouble(key) : 0;
}

}  // namespace

bool MeasureLayers(const LayerInputs& in, MetricSet* out, MetricSet* extras,
                   std::vector<Span>* spans, std::string* error) {
  Topology* topo = in.topo;
  mlake::core::ModelLake* lake0 = topo->lakes[0].get();

  // ---- cluster / server / core peels (live topology, reads only) ----
  const Peel peel = RunPeel(in, spans);
  if (peel.wrong) {
    *error = peel.error;
    return false;
  }
  const WritePeel wp = RunWritePeel(in, spans);
  if (!wp.ok) {
    *error = wp.error;
    return false;
  }
  auto at = [](const std::map<Klass, std::vector<double>>& m, Klass k) {
    auto it = m.find(k);
    return it == m.end() ? 0.0 : Median(it->second);
  };
  out->Add("cluster.read_self_us",
           at(peel.routed, Klass::kRead) - at(peel.direct, Klass::kRead), "us");
  out->Add("cluster.search_self_us",
           at(peel.routed, Klass::kSearch) - at(peel.direct, Klass::kSearch),
           "us");
  out->Add("cluster.write_self_us", Median(wp.routed) - Median(wp.direct), "us");
  out->Add("cluster.hedges", static_cast<double>(topo->router->hedges_fired()),
           "count");
  out->Add("cluster.failovers", static_cast<double>(topo->router->failovers()),
           "count");

  out->Add("server.read_self_us",
           at(peel.direct, Klass::kRead) - at(peel.inproc, Klass::kRead), "us");
  out->Add("server.search_self_us",
           at(peel.direct, Klass::kSearch) - at(peel.inproc, Klass::kSearch),
           "us");
  out->Add("server.write_self_us", Median(wp.direct) - Median(wp.inproc), "us");
  {
    std::vector<double> parse;
    for (const std::string& raw : peel.raw_requests) {
      for (int rep = 0; rep < 20; ++rep) {
        mlake::server::HttpRequest request;
        const Clock::time_point t = Clock::now();
        auto n = mlake::server::ParseHttpRequest(raw, 64u << 20, &request);
        parse.push_back(UsSince(t));
        if (!n.ok()) {
          *error = "ParseHttpRequest rejected a benchmark request";
          return false;
        }
      }
    }
    out->Add("server.http_parse_us", Median(parse), "us");
  }
  {
    double rejected = 0, batches = 0, batched = 0;
    for (mlake::server::LakeServer* s :
         {topo->leaders[0].get(), topo->leaders[1].get(),
          topo->replica_server.get()}) {
      const Json st = s->StatszJson();
      rejected += Field(st, "server", "rejected_inflight") +
                  Field(st, "server", "rejected_queue");
      batches += Field(st, "batching", "batches");
      batched += Field(st, "batching", "batched_requests");
    }
    out->Add("server.rejected", rejected, "count");
    out->Add("server.batch_mean", batches > 0 ? batched / batches : 0,
             "requests");
  }

  auto core_at = [&](Kind k) {
    auto it = peel.core.find(k);
    return it == peel.core.end() ? 0.0 : Median(it->second);
  };
  out->Add("core.keyword_us", core_at(Kind::kKeyword), "us");
  out->Add("core.ann_us", core_at(Kind::kAnn), "us");
  out->Add("core.mlql_us", core_at(Kind::kMlql), "us");
  out->Add("core.hybrid_us", core_at(Kind::kHybrid), "us");
  out->Add("core.read_us", at(peel.inproc, Klass::kRead), "us");
  out->Add("core.ingest_us", Median(wp.inproc), "us");
  {
    double hits = 0, total = 0;
    for (mlake::core::ModelLake* l :
         {topo->lakes[0].get(), topo->lakes[1].get(), topo->replica_lake.get()}) {
      const auto stats = l->PlanCacheStats();
      hits += static_cast<double>(stats.hits);
      total += static_cast<double>(stats.hits + stats.misses);
    }
    out->Add("core.plan_cache_hit_frac", total > 0 ? hits / total : 0, "ratio");
  }

  // ---- search: parser and scan work ----
  {
    const auto& pool = in.factory->mlql_pool();
    bool parse_ok = true;
    const auto t = TimeEach(256, [&](size_t i) {
      parse_ok &= mlake::search::ParseQuery(pool[i % pool.size()]).ok();
    });
    if (!parse_ok) {
      *error = "ParseQuery rejected a benchmark MLQL text";
      return false;
    }
    out->Add("search.parse_us", Median(t), "us");
    out->Add("search.cards_scanned_per_result",
             peel.results > 0 ? static_cast<double>(peel.cards_scanned) /
                                    static_cast<double>(peel.results)
                              : 0,
             "cards");
  }

  // ---- index: standalone BM25 / HNSW over shard 0's cards, base+delta ----
  const std::vector<Request> sample = PeelSample(in);
  {
    std::vector<const mlake::core::CardIngest*> cards;
    for (size_t i = 0; i < in.pop->models.size(); ++i) {
      if (in.pop->shard[i] == 0) cards.push_back(&in.pop->models[i]);
    }
    const size_t base = cards.size() * 9 / 10;
    mlake::Fs* fs = mlake::RealFs();
    (void)mlake::CreateDirs(in.scratch_dir + "/index");
    mlake::index::InvertedIndex bm25_base;
    mlake::index::HnswIndex hnsw_base(DefaultEmbeddingDim());
    for (size_t i = 0; i < base; ++i) {
      bm25_base.Add(cards[i]->card.model_id, cards[i]->card.SearchText());
      (void)hnsw_base.Add(static_cast<int64_t>(i), cards[i]->embedding);
    }
    const std::string bm25_path = in.scratch_dir + "/index/bm25.snap";
    const std::string hnsw_path = in.scratch_dir + "/index/hnsw.snap";
    mlake::index::InvertedIndex bm25;
    mlake::index::HnswIndex hnsw(DefaultEmbeddingDim());
    if (!bm25_base.SaveSnapshot(fs, bm25_path, 1).ok() ||
        !hnsw_base.SaveSnapshot(fs, hnsw_path, 1).ok() ||
        !bm25.LoadSnapshot(fs, bm25_path).ok() ||
        !hnsw.LoadSnapshot(fs, hnsw_path).ok()) {
      *error = "index snapshot round trip failed";
      return false;
    }
    for (size_t i = base; i < cards.size(); ++i) {
      bm25.Add(cards[i]->card.model_id, cards[i]->card.SearchText());
      (void)hnsw.Add(static_cast<int64_t>(i), cards[i]->embedding);
    }
    const std::vector<std::string> queries = KeywordQueries(sample);
    const auto bm25_t = TimeEach(queries.size(), [&](size_t i) {
      (void)bm25.Search(queries[i], 10);
    });
    out->Add("index.bm25_us", Median(bm25_t), "us");
    const auto hnsw_t = TimeEach(200, [&](size_t i) {
      (void)hnsw.Search(cards[(i * 7919) % cards.size()]->embedding, 11);
    });
    out->Add("index.hnsw_us", Median(hnsw_t), "us");
    double df = 0;
    for (const std::string& q : queries) {
      for (const auto& [term, n] : lake0->CollectBm25Stats(q).df) {
        df += static_cast<double>(n);
      }
    }
    out->Add("index.bm25_df_per_query",
             queries.empty() ? 0 : df / static_cast<double>(queries.size()),
             "docs");
    double delta = 0;
    for (mlake::core::ModelLake* l : {topo->lakes[0].get(), topo->lakes[1].get()}) {
      const Json stats = l->IndexStatsJson();
      delta += Field(stats, "ann", "delta");
    }
    out->Add("index.delta_docs", delta, "docs");
  }

  // ---- storage / embed / common over the workload's artifacts ----
  {
    const std::vector<std::string> artifacts = MakeArtifacts(in.seed, 12);
    double bytes = 0;
    for (const std::string& a : artifacts) bytes += static_cast<double>(a.size());
    const std::string payload(4096, 'x');
    const auto fsync = TimeEach(16, [&](size_t i) {
      (void)mlake::WriteFileAtomic(mlake::RealFs(),
                                   in.scratch_dir + "/fsync_probe_" +
                                       std::to_string(i % 4),
                                   payload);
    });
    out->Add("storage.fsync_us", Median(fsync), "us");
    out->Add("storage.sha256_mb_s", MbPerS(bytes, [&] {
               for (const auto& a : artifacts) (void)mlake::Sha256::HexDigest(a);
             }),
             "MB/s");
    out->Add("storage.crc32_mb_s", MbPerS(bytes, [&] {
               for (const auto& a : artifacts) (void)mlake::Crc32(a);
             }),
             "MB/s");
    std::vector<std::unique_ptr<mlake::nn::Model>> models;
    const auto parse = TimeEach(artifacts.size(), [&](size_t i) {
      auto parsed = mlake::storage::ParseArtifact(artifacts[i]);
      if (parsed.ok()) {
        auto m = mlake::storage::ModelFromArtifact(parsed.ValueUnsafe());
        if (m.ok()) models.push_back(m.MoveValueUnsafe());
      }
    });
    out->Add("storage.artifact_parse_us", Median(parse), "us");
    const mlake::embed::BehavioralEmbedder embedder(
        lake0->probes(), lake0->options().num_classes);
    const auto embed = TimeEach(models.size(), [&](size_t i) {
      (void)embedder.Embed(models[i].get());
    });
    out->Add("embed.embed_us", Median(embed), "us");

    std::vector<std::string> encoded;
    for (const auto& a : artifacts) encoded.push_back(mlake::server::Base64Encode(a));
    out->Add("common.base64_decode_mb_s", MbPerS(bytes, [&] {
               for (const auto& e : encoded) (void)mlake::server::Base64Decode(e);
             }),
             "MB/s");
    std::vector<Json> parsed;
    const auto jp = TimeEach(peel.bodies.size(), [&](size_t i) {
      auto j = Json::Parse(peel.bodies[i]);
      if (j.ok()) parsed.push_back(j.MoveValueUnsafe());
    });
    out->Add("common.json_parse_us", Median(jp), "us");
    const auto jd = TimeEach(parsed.size(), [&](size_t i) {
      (void)parsed[i].Dump();
    });
    out->Add("common.json_dump_us", Median(jd), "us");
  }

  // ---- replication / governance ----
  out->Add("replication.apply_ms_per_entry", wp.apply_ms_per_entry, "ms");
  out->Add("replication.lag_entries_max",
           static_cast<double>(in.traced->lag_entries_max), "entries");
  out->Add("replication.stale_503",
           Field(topo->replica_server->StatszJson(), "governance",
                   "stale_rejected"),
           "count");
  {
    double bytes = 0;
    const Clock::time_point t = Clock::now();
    auto it = lake0->OpenExport();
    std::string line;
    while (it->Next(&line)) bytes += static_cast<double>(line.size());
    const double s = UsSince(t) / 1e6;
    out->Add("governance.export_mb_s", s > 0 ? bytes / 1e6 / s : 0, "MB/s");
  }

  // ---- whole path: queueing under load ----
  // Loaded p50 of each kind in the traced open loop minus the unloaded
  // routed p50 of the same kind, weighted by the kind's share of the
  // class in the open loop.
  std::map<Kind, std::vector<double>> loaded;
  for (const Sample& s : in.traced->samples) {
    if (s.ok) loaded[s.kind].push_back(s.latency_ms * 1000.0);
  }
  auto wait_us = [&](Klass klass, bool* present) {
    double total = 0, n = 0;
    for (const auto& [kind, v] : loaded) {
      if (ClassOf(kind) != klass) continue;
      const double unloaded = kind == Kind::kIngest
                                  ? Median(wp.routed)
                                  : Median(peel.routed_kind.at(kind));
      total += static_cast<double>(v.size()) * (Median(v) - unloaded);
      n += static_cast<double>(v.size());
    }
    *present = n > 0;
    return n > 0 ? total / n : 0;
  };
  bool present = false;
  out->Add("queue.search_wait_us", wait_us(Klass::kSearch, &present), "us");
  const double read_wait = wait_us(Klass::kRead, &present);
  if (present) extras->Add("queue.read_wait_us", read_wait, "us");
  const double write_wait = wait_us(Klass::kWrite, &present);
  if (present) extras->Add("queue.write_wait_us", write_wait, "us");
  return true;
}

}  // namespace perfbench
