// micro_governance: governance-layer baselines (DESIGN.md §15).
//
// Builds a 10k-model metadata lake (streaming generator, the scale
// tier the export acceptance bar pins) and records the numbers the
// governance endpoints care about:
//
//   export_drain   full-lake NDJSON export drained through the library
//                  iterator — records/s, models/s, MB/s, and a
//                  determinism check (two drains must byte-match).
//   export_http    the same export pulled through mlaked's chunked
//                  /v1/export endpoint, plus the conditional-request
//                  path (If-None-Match → 304) round-trip time.
//   citation/doc/audit  per-document build latency (p50/p99) over a
//                  rotating sample of models, library-level.
//
// Emits BENCH_governance.json (shared JsonBench schema).
//
// Usage: micro_governance [--quick] [--out PATH]
//   --quick  CI-sized run (1k models, fewer document samples)
//   --out    JSON path (default: BENCH_governance.json in the cwd)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/exp_util.h"
#include "common/file_util.h"
#include "core/model_lake.h"
#include "governance/governance.h"
#include "lakegen/lakegen.h"
#include "server/client.h"
#include "server/metrics.h"
#include "server/server.h"

namespace mlake::bench {
namespace {

using Clock = std::chrono::steady_clock;

core::LakeOptions LakeOpts(const std::string& root) {
  core::LakeOptions options;
  options.root = root;
  options.probe_count = 4;
  options.background_compaction = false;
  return options;
}

struct DrainResult {
  std::string body;
  size_t records = 0;
  double seconds = 0.0;
};

DrainResult Drain(core::ModelLake* lake) {
  DrainResult result;
  auto start = Clock::now();
  auto iterator = lake->OpenExport();
  std::string line;
  while (iterator->Next(&line)) {
    result.body += line;
    ++result.records;
  }
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

/// Times one document builder over a rotating id sample.
Json DocEntry(const std::string& name, const std::vector<std::string>& ids,
              size_t calls,
              const std::function<Result<Json>(const std::string&)>& build) {
  server::LatencyHistogram latency;
  for (size_t i = 0; i < calls; ++i) {
    auto start = Clock::now();
    auto doc = build(ids[i % ids.size()]);
    auto us = std::chrono::duration<double, std::micro>(Clock::now() - start)
                  .count();
    Check(doc.status(), name.c_str());
    latency.Record(static_cast<uint64_t>(us < 0 ? 0 : us));
  }
  Json entry = Json::MakeObject();
  entry.Set("name", name);
  entry.Set("calls", calls);
  entry.Set("p50_us", latency.PercentileUs(50));
  entry.Set("p99_us", latency.PercentileUs(99));
  entry.Set("mean_us", latency.MeanUs());
  entry.Set("ns_per_op", latency.MeanUs() * 1000.0);
  std::printf("  %-24s p50 %8.0f us  p99 %8.0f us  (%zu calls)\n",
              name.c_str(), latency.PercentileUs(50),
              latency.PercentileUs(99), calls);
  return entry;
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_governance.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: micro_governance [--quick] [--out PATH]\n");
      return 2;
    }
  }

  Banner("micro_governance", "governance layer: export + document latency");

  const size_t num_models = quick ? 1000 : 10000;
  const size_t doc_calls = quick ? 100 : 400;

  std::printf("generating %zu-model metadata lake...\n", num_models);
  TempDir root("mlake-micro-governance");
  auto lake =
      Unwrap(core::ModelLake::Open(LakeOpts(JoinPath(root.path(), "lake"))),
             "ModelLake::Open");
  lakegen::StreamGenConfig config;
  config.num_models = num_models;
  config.batch_size = 1024;
  config.seed = 11;
  auto gen_start = Clock::now();
  Unwrap(lakegen::GenerateStreamingLake(lake.get(), config),
         "GenerateStreamingLake");
  double gen_seconds =
      std::chrono::duration<double>(Clock::now() - gen_start).count();
  std::printf("  generated in %.2f s\n", gen_seconds);

  // The streaming generator records no lineage, so give the citation
  // heritage walk something to chase: a finetune chain through the
  // first 64 models.
  std::vector<std::string> ids = lake->ListModels();
  for (size_t i = 1; i < ids.size() && i < 64; ++i) {
    versioning::VersionEdge edge;
    edge.parent = ids[i - 1];
    edge.child = ids[i];
    edge.type = versioning::EdgeType::kFinetune;
    Check(lake->RecordEdge(edge), "RecordEdge");
  }

  Json entries = Json::MakeArray();

  // -- export_drain: library iterator, twice (determinism check) --------
  std::printf("\nexport_drain: full-lake NDJSON through the iterator:\n");
  DrainResult first = Drain(lake.get());
  DrainResult second = Drain(lake.get());
  const bool deterministic = first.body == second.body;
  const double export_seconds = std::min(first.seconds, second.seconds);
  const double export_mb = double(first.body.size()) / (1024.0 * 1024.0);
  const double export_models_per_s =
      export_seconds > 0 ? double(num_models) / export_seconds : 0.0;
  const double export_mb_per_s =
      export_seconds > 0 ? export_mb / export_seconds : 0.0;
  {
    Json entry = Json::MakeObject();
    entry.Set("name", "export_drain");
    entry.Set("models", num_models);
    entry.Set("records", first.records);
    entry.Set("bytes", first.body.size());
    entry.Set("seconds", export_seconds);
    entry.Set("models_per_s", export_models_per_s);
    entry.Set("mb_per_s", export_mb_per_s);
    entry.Set("deterministic", deterministic);
    entry.Set("ns_per_op", first.records > 0
                               ? export_seconds * 1e9 / double(first.records)
                               : 0.0);
    entries.Append(std::move(entry));
  }
  std::printf("  %zu records (%.1f MB) in %.3f s  (%.0f models/s, "
              "%.1f MB/s), drains %s\n",
              first.records, export_mb, export_seconds, export_models_per_s,
              export_mb_per_s, deterministic ? "byte-match" : "DIVERGE");

  // -- export_http: chunked /v1/export + the 304 path -------------------
  std::printf("\nexport_http: chunked GET /v1/export off mlaked:\n");
  server::ServerOptions server_options;
  server_options.threads = 4;
  server::LakeServer server(lake.get(), server_options);
  Check(server.Start(), "server Start");
  server::HttpClient client("127.0.0.1", server.port());

  auto http_start = Clock::now();
  auto response = client.Get("/v1/export");
  double http_seconds =
      std::chrono::duration<double>(Clock::now() - http_start).count();
  bool http_ok = response.ok() && response.ValueUnsafe().status == 200;
  bool http_matches = http_ok && response.ValueUnsafe().body == first.body;
  std::string etag =
      http_ok ? std::string(response.ValueUnsafe().Header("etag")) : "";

  auto cond_start = Clock::now();
  auto not_modified = client.Get("/v1/export", {{"If-None-Match", etag}});
  double cond_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                             cond_start)
                       .count();
  bool cond_ok =
      not_modified.ok() && not_modified.ValueUnsafe().status == 304;
  {
    Json entry = Json::MakeObject();
    entry.Set("name", "export_http");
    entry.Set("seconds", http_seconds);
    entry.Set("mb_per_s",
              http_seconds > 0 ? export_mb / http_seconds : 0.0);
    entry.Set("matches_library", http_matches);
    entry.Set("not_modified_us", cond_us);
    entry.Set("not_modified_ok", cond_ok);
    entry.Set("ns_per_op", http_seconds * 1e9);
    entries.Append(std::move(entry));
  }
  std::printf("  200 in %.3f s (%.1f MB/s), body %s library; "
              "If-None-Match -> %s in %.0f us\n",
              http_seconds,
              http_seconds > 0 ? export_mb / http_seconds : 0.0,
              http_matches ? "matches" : "DIVERGES",
              cond_ok ? "304" : "NOT 304", cond_us);
  Check(server.Stop(), "server Stop");

  // -- document latency: citation / doc / audit --------------------------
  std::printf("\ndocument latency (%zu calls each, rotating ids):\n",
              doc_calls);
  const core::ModelLake& lake_ref = *lake;
  entries.Append(DocEntry("citation_doc", ids, doc_calls,
                          [&](const std::string& id) {
                            return lake_ref.CitationDoc(id);
                          }));
  entries.Append(DocEntry("generated_doc", ids, doc_calls,
                          [&](const std::string& id) {
                            return governance::GeneratedDoc(lake_ref, id);
                          }));
  entries.Append(DocEntry("audit_doc", ids, doc_calls,
                          [&](const std::string& id) {
                            return governance::AuditDoc(lake_ref, id);
                          }));

  Json report = Json::MakeObject();
  report.Set("suite", "governance");

  Json meta = Json::MakeObject();
  meta.Set("cores", static_cast<int64_t>(std::thread::hardware_concurrency()));
  meta.Set("models", num_models);
  meta.Set("doc_calls", doc_calls);
  meta.Set("gen_seconds", gen_seconds);
  meta.Set("quick", quick);
  report.Set("meta", std::move(meta));
  report.Set("entries", std::move(entries));

  Json derived = Json::MakeObject();
  derived.Set("export_models_per_s", export_models_per_s);
  derived.Set("export_mb_per_s", export_mb_per_s);
  report.Set("derived", std::move(derived));

  Check(mlake::WriteFile(out, report.Dump(2) + "\n"), "WriteFile");
  std::printf("\nwrote %s\n", out.c_str());
  if (!deterministic || !http_ok || !http_matches || !cond_ok) return 1;
  return 0;
}

}  // namespace
}  // namespace mlake::bench

int main(int argc, char** argv) { return mlake::bench::Main(argc, argv); }
