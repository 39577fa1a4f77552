// micro_scale: lake-scale baseline for the incremental disk-backed
// index layer. Streams a metadata-only population into a lake at
// several tiers (10k; 100k; 1M behind --huge), then measures, per tier:
//
//   - streaming ingest throughput (models/s, O(batch) memory)
//   - trailing IngestCards batch latency before and after compaction
//     (the amortized per-ingest index cost — flat across tiers)
//   - CompactIndices wall time (the O(lake) cost paid once per
//     generation, amortized O(1) per ingested model), and the cost of
//     a second pass with no mutation in between (a no-op skip)
//   - reopen cost: snapshot load (mmap + reconcile) vs full rebuild
//   - search p50/p99 over the snapshot-backed lake (flat across tiers)
//   - resident set size after the snapshot-backed reopen
//   - top-k identity between the snapshot-loaded and rebuilt indexes
//
// Emits BENCH_scale.json in the shared JsonBench schema.
//
// Usage: micro_scale [--quick] [--huge] [--out PATH]
//   --quick  10k tier only (CI)
//   --huge   adds the 1M tier
//   --out    JSON path (default: BENCH_scale.json in the cwd)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/exp_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/model_lake.h"
#include "lakegen/lakegen.h"

namespace mlake::bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// VmRSS in MB from /proc/self/status (0.0 where unavailable).
double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

core::LakeOptions ScaleOptions(const std::string& root) {
  core::LakeOptions options;
  options.root = root;
  // probe_count 8 x num_classes 8 = 64-dim embeddings: big enough for
  // family structure, small enough that the catalog stays disk-friendly
  // at 1M models.
  options.probe_count = 8;
  options.exec = ExecutionContext::WithThreads(
      std::max(2u, std::thread::hardware_concurrency()));
  // The bench measures compaction explicitly; the background trigger
  // would race the timers.
  options.background_compaction = false;
  return options;
}

/// One deterministic extra IngestCards batch (ids disjoint from the
/// streamed population), timed.
double TimeExtraBatch(core::ModelLake* lake, size_t batch_size,
                      size_t* extra_serial) {
  Rng rng(0x5ca1eULL + *extra_serial);
  std::vector<core::CardIngest> batch(batch_size);
  const int64_t dim = lake->EmbeddingDim();
  for (size_t i = 0; i < batch_size; ++i) {
    metadata::ModelCard card;
    card.model_id = StrFormat("bench/extra-%05zu", (*extra_serial)++);
    card.name = card.model_id;
    card.task = "retrieval";
    card.tags = {"bench"};
    card.description = "Trailing bench batch for ingest-latency measurement.";
    card.training_datasets = {"retrieval/news"};
    std::vector<float> vec(static_cast<size_t>(dim));
    double norm_sq = 0.0;
    for (float& x : vec) {
      x = static_cast<float>(rng.Normal());
      norm_sq += static_cast<double>(x) * x;
    }
    for (float& x : vec) x /= static_cast<float>(std::sqrt(norm_sq));
    batch[i].card = std::move(card);
    batch[i].embedding = std::move(vec);
  }
  auto t0 = Clock::now();
  Check(lake->IngestCards(batch).status(), "IngestCards extra batch");
  return MsSince(t0);
}

std::vector<std::vector<float>> QuerySet(int64_t dim, size_t count) {
  std::vector<std::vector<float>> queries(count);
  Rng qrng(0x9e37ULL);
  for (auto& q : queries) {
    q.resize(static_cast<size_t>(dim));
    double norm_sq = 0.0;
    for (float& x : q) {
      x = static_cast<float>(qrng.Normal());
      norm_sq += static_cast<double>(x) * x;
    }
    for (float& x : q) x /= static_cast<float>(std::sqrt(norm_sq));
  }
  return queries;
}

/// ANN + BM25 results for an identity check between two lake opens.
std::string SearchFingerprint(core::ModelLake* lake,
                              const std::vector<std::vector<float>>& queries) {
  std::string fp;
  for (const auto& q : queries) {
    auto hits = Unwrap(lake->NearestModels(q, 10), "NearestModels");
    for (const auto& [id, dist] : hits) {
      fp += id;
      fp += StrFormat("@%.6f;", dist);
    }
    fp += "|";
  }
  for (const char* text : {"synthetic summarization legal",
                           "retrieval news model", "sentiment social"}) {
    auto hits = Unwrap(lake->KeywordScores(text, 10), "KeywordScores");
    for (const auto& [id, score] : hits) {
      fp += id;
      fp += StrFormat("@%.6f;", score);
    }
    fp += "|";
  }
  return fp;
}

void RunTier(JsonBench* bench, size_t tier) {
  std::string label = StrFormat("%zu", tier);
  std::printf("\n== tier %s ==\n", label.c_str());
  TempDir dir("mlake_scale");
  const std::string root = JoinPath(dir.path(), "lake");
  size_t extra_serial = 0;

  double ingest_s = 0.0;
  double batch_before_ms = 0.0;
  double compact_ms = 0.0;
  double batch_after_ms = 0.0;
  double compact_noop_ms = 0.0;
  {
    auto lake = Unwrap(core::ModelLake::Open(ScaleOptions(root)), "Open");
    lakegen::StreamGenConfig gen;
    gen.num_models = tier;
    gen.batch_size = 1024;
    auto t0 = Clock::now();
    auto streamed =
        Unwrap(lakegen::GenerateStreamingLake(lake.get(), gen), "stream");
    ingest_s = MsSince(t0) / 1000.0;
    std::printf("  streamed %zu models in %.1fs (%.0f models/s)\n",
                streamed.num_models, ingest_s, tier / ingest_s);

    // Per-batch ingest latency with the delta at its largest...
    batch_before_ms = TimeExtraBatch(lake.get(), 1024, &extra_serial);
    // ...the once-per-generation fold...
    auto t1 = Clock::now();
    Check(lake->CompactIndices(), "CompactIndices");
    compact_ms = MsSince(t1);
    // ...and the per-batch latency against a compacted base. The first
    // post-compaction batch seeds an empty delta graph (small, mostly
    // sequential insert waves), so it is warmup; the second is the
    // steady-state cost.
    double warmup_ms = TimeExtraBatch(lake.get(), 1024, &extra_serial);
    batch_after_ms = TimeExtraBatch(lake.get(), 1024, &extra_serial);
    std::printf(
        "  batch(1024): %.1f ms pre-compact, %.1f ms warmup, %.1f ms "
        "post-compact; compact %.1f ms\n",
        batch_before_ms, warmup_ms, batch_after_ms, compact_ms);
    // Fold the trailing batch in so the identity check below compares a
    // pure snapshot generation against a from-scratch rebuild. (With
    // models still in the delta the comparison would be base-graph +
    // delta-graph vs one union graph — a different approximate ANN
    // structure by design; BM25/LSH merge exactly either way.)
    Check(lake->CompactIndices(), "CompactIndices(final)");
    // Nothing changed since that pass: this one must skip the rebuild.
    auto t_noop = Clock::now();
    Check(lake->CompactIndices(), "CompactIndices(no-op)");
    compact_noop_ms = MsSince(t_noop);
    std::printf("  no-op compact %.3f ms\n", compact_noop_ms);
  }

  // Reopen from snapshot (mmap + reconcile of the post-compaction
  // batch) vs full catalog rebuild.
  auto t2 = Clock::now();
  auto snap_lake = Unwrap(core::ModelLake::Open(ScaleOptions(root)),
                          "Open(snapshot)");
  double open_snapshot_ms = MsSince(t2);
  double rss_mb = RssMb();

  const int64_t dim = snap_lake->EmbeddingDim();
  std::vector<std::vector<float>> queries = QuerySet(dim, 256);

  // Search latency distribution over the snapshot-backed lake.
  std::vector<double> lat_us;
  lat_us.reserve(queries.size());
  for (const auto& q : queries) {
    auto t3 = Clock::now();
    auto hits = Unwrap(snap_lake->NearestModels(q, 10), "NearestModels");
    lat_us.push_back(MsSince(t3) * 1000.0);
    if (hits.empty()) std::abort();
  }
  std::sort(lat_us.begin(), lat_us.end());
  double p50_us = lat_us[lat_us.size() / 2];
  double p99_us = lat_us[(lat_us.size() * 99) / 100];

  std::string snap_fp = SearchFingerprint(snap_lake.get(), queries);
  snap_lake.reset();

  core::LakeOptions rebuild_options = ScaleOptions(root);
  rebuild_options.load_index_snapshots = false;
  auto t4 = Clock::now();
  auto rebuild_lake = Unwrap(core::ModelLake::Open(rebuild_options),
                             "Open(rebuild)");
  double open_rebuild_ms = MsSince(t4);
  std::string rebuild_fp = SearchFingerprint(rebuild_lake.get(), queries);
  rebuild_lake.reset();

  bool identical = snap_fp == rebuild_fp;
  std::printf(
      "  open: %.1f ms snapshot vs %.1f ms rebuild (%.1fx); search p50 "
      "%.0f us p99 %.0f us; rss %.0f MB; identical=%s\n",
      open_snapshot_ms, open_rebuild_ms, open_rebuild_ms / open_snapshot_ms,
      p50_us, p99_us, rss_mb, identical ? "yes" : "NO");
  if (!identical) {
    std::fprintf(stderr,
                 "FATAL tier %s: snapshot-loaded search differs from "
                 "rebuilt search\n",
                 label.c_str());
    std::abort();
  }

  bench->Derived("ingest_models_per_s@" + label, tier / ingest_s);
  bench->Derived("ingest_batch1024_ms_precompact@" + label, batch_before_ms);
  bench->Derived("ingest_batch1024_ms_postcompact@" + label, batch_after_ms);
  bench->Derived("compact_ms@" + label, compact_ms);
  bench->Derived("compact_us_per_model_amortized@" + label,
                 compact_ms * 1000.0 / tier);
  bench->Derived("compact_noop_ms@" + label, compact_noop_ms);
  bench->Derived("open_snapshot_ms@" + label, open_snapshot_ms);
  bench->Derived("open_rebuild_ms@" + label, open_rebuild_ms);
  bench->Derived("open_speedup@" + label, open_rebuild_ms / open_snapshot_ms);
  bench->Derived("search_p50_us@" + label, p50_us);
  bench->Derived("search_p99_us@" + label, p99_us);
  bench->Derived("rss_mb@" + label, rss_mb);
  bench->Derived("search_identical@" + label, identical ? 1.0 : 0.0);
}

int Main(int argc, char** argv) {
  bool quick = false;
  bool huge = false;
  std::string out = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--huge") == 0) {
      huge = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: micro_scale [--quick] [--huge] [--out PATH]\n");
      return 2;
    }
  }

  Banner("micro_scale",
         "streaming lakegen + incremental disk-backed index scale");
  JsonBench bench("scale");
  bench.Meta("quick", quick);
  bench.Meta("huge", huge);
  bench.Meta("threads", static_cast<int64_t>(
                            std::thread::hardware_concurrency()));
  bench.Meta("cores",
             static_cast<int64_t>(std::thread::hardware_concurrency()));
  bench.Meta("build_type", MLAKE_BUILD_TYPE);

  std::vector<size_t> tiers = {10000};
  if (!quick) tiers.push_back(100000);
  if (huge) tiers.push_back(1000000);
  for (size_t tier : tiers) RunTier(&bench, tier);

  Check(bench.WriteFile(out), "WriteFile");
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace mlake::bench

int main(int argc, char** argv) { return mlake::bench::Main(argc, argv); }
