// E7 — End-to-end lake pipeline (Figure 2), serial vs parallel.
//
// Paper anchor: Figure 2's system design and §5 "Model Inference":
// models flow through ingest (artifact -> blob store -> catalog ->
// embedding -> indices), the lake is reopened (index rebuild from the
// catalog), and user queries run against the indexer. This harness
// times every stage on a 100+ model lake twice — once serial
// (threads=1) and once on a shared thread pool sized to the machine —
// and then proves the two lakes are indistinguishable: same artifact
// digests, same embeddings, same query results, same recovered
// heritage. Determinism at any thread count is a hard contract of the
// execution layer, not an aspiration.

#include <cstdio>
#include <thread>

#include "bench/exp_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/model_lake.h"
#include "lakegen/lakegen.h"

namespace {

using namespace mlake;

struct QueryCase {
  const char* label;
  std::string mlql;
};

struct StageTimes {
  double build_s = 0.0;
  double fsck_s = 0.0;
  double open_s = 0.0;
  std::vector<double> query_ms;
  double card_ms = 0.0;
  double heritage_ms = 0.0;
};

/// Everything observable about a finished lake; two runs at different
/// thread counts must produce equal fingerprints.
struct Fingerprint {
  std::vector<std::string> model_ids;
  std::vector<std::string> artifact_digests;
  std::vector<std::vector<float>> embeddings;
  std::vector<std::string> query_hits;  // per query case, ids joined
  size_t heritage_edges = 0;
  size_t num_models = 0;

  bool operator==(const Fingerprint& other) const {
    return model_ids == other.model_ids &&
           artifact_digests == other.artifact_digests &&
           embeddings == other.embeddings &&
           query_hits == other.query_hits &&
           heritage_edges == other.heritage_edges &&
           num_models == other.num_models;
  }
};

std::vector<QueryCase> MakeQueryCases(const lakegen::LakeGenResult& gen) {
  std::string some_model = gen.models.front().id;
  std::string some_dataset = gen.datasets.front();
  return {
      {"MLQL: metadata filter + default rank",
       "FIND MODELS WHERE task = 'summarization' LIMIT 10"},
      {"MLQL: trained_on (LSH + card scan)",
       "FIND MODELS WHERE trained_on('" + some_dataset + "') LIMIT 10"},
      {"MLQL: ANN fast path (behavior_sim)",
       "FIND MODELS RANK BY behavior_sim('" + some_model + "') LIMIT 10"},
      {"MLQL: compound filter + metric rank",
       "FIND MODELS WHERE num_params > 100 AND NOT tag('legal') "
       "RANK BY metric('" + some_dataset + ":test') LIMIT 10"},
  };
}

/// Runs the full pipeline with `threads` workers; fills times and the
/// lake fingerprint.
void RunPipeline(int threads, StageTimes* times, Fingerprint* print) {
  bench::TempDir dir(StrFormat("mlake-e7-t%d", threads));
  core::LakeOptions options;
  options.root = JoinPath(dir.path(), "lake");
  options.exec = threads <= 1 ? ExecutionContext::Serial()
                              : ExecutionContext::WithThreads(threads);

  Stopwatch sw;
  lakegen::LakeGenResult gen;
  {
    auto lake = bench::Unwrap(core::ModelLake::Open(options),
                              "ModelLake::Open");
    lakegen::LakeGenConfig config;
    config.num_families = 6;
    config.domains_per_family = 2;
    config.num_bases = 24;
    config.children_per_base_min = 3;
    config.children_per_base_max = 4;
    config.seed = 99;
    gen = bench::Unwrap(lakegen::GenerateLake(lake.get(), config),
                        "GenerateLake");
    times->build_s = sw.ElapsedSeconds();

    sw.Restart();
    auto corrupted = bench::Unwrap(lake->FsckArtifacts(), "Fsck");
    times->fsck_s = sw.ElapsedSeconds();
    if (!corrupted.empty()) {
      std::fprintf(stderr, "FATAL fsck found corruption\n");
      std::abort();
    }
  }

  // Cold open — rebuild all in-memory indices from the catalog.
  sw.Restart();
  auto lake = bench::Unwrap(core::ModelLake::Open(options),
                            "ModelLake::Open (reopen)");
  times->open_s = sw.ElapsedSeconds();

  // Query latencies by plan type + result capture for the determinism
  // check.
  std::vector<QueryCase> cases = MakeQueryCases(gen);
  for (const QueryCase& qc : cases) {
    (void)lake->Query(qc.mlql);  // warm-up
    sw.Restart();
    const int kRuns = 50;
    search::QueryResult last;
    for (int i = 0; i < kRuns; ++i) {
      last = bench::Unwrap(lake->Query(qc.mlql), "Query");
    }
    times->query_ms.push_back(sw.ElapsedMillis() / kRuns);
    std::vector<std::string> hit_ids;
    for (const search::RankedModel& m : last.models) hit_ids.push_back(m.id);
    print->query_hits.push_back(Join(hit_ids, ","));
  }

  // Application layer.
  std::string some_model = gen.models.front().id;
  sw.Restart();
  (void)bench::Unwrap(lake->GenerateCard(some_model), "GenerateCard");
  (void)bench::Unwrap(lake->AuditModel(some_model), "AuditModel");
  (void)bench::Unwrap(lake->CitationDoc(some_model), "CitationDoc");
  times->card_ms = sw.ElapsedMillis();
  sw.Restart();
  auto recovered = bench::Unwrap(lake->RecoverHeritage(), "RecoverHeritage");
  times->heritage_ms = sw.ElapsedMillis();
  print->heritage_edges = recovered.graph.NumEdges();

  // Fingerprint the lake: every artifact digest and embedding, in id
  // order.
  print->model_ids = lake->ListModels();
  print->num_models = lake->NumModels();
  for (const std::string& id : print->model_ids) {
    auto doc = bench::Unwrap(lake->catalog()->GetDoc("model", id),
                             "GetDoc(model)");
    print->artifact_digests.push_back(doc.GetString("artifact_digest"));
    print->embeddings.push_back(
        bench::Unwrap(lake->EmbeddingFor(id), "EmbeddingFor"));
  }
}

void Row(const char* label, double serial, double parallel,
         const char* unit) {
  double speedup = parallel > 0.0 ? serial / parallel : 0.0;
  std::printf("%-40s %9.2f%s %9.2f%s %7.2fx\n", label, serial, unit,
              parallel, unit, speedup);
}

}  // namespace

int main() {
  bench::Banner("E7", "End-to-end pipeline: serial vs shared thread pool");

  // Floor at 2 so the pool code path is exercised (and the determinism
  // check is meaningful) even on single-core machines.
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 2) hw = 2;

  StageTimes serial_times, parallel_times;
  Fingerprint serial_print, parallel_print;
  std::printf("running threads=1 ...\n");
  RunPipeline(1, &serial_times, &serial_print);
  std::printf("running threads=%d ...\n\n", hw);
  RunPipeline(hw, &parallel_times, &parallel_print);

  std::printf("%-40s %10s %10s %8s\n", "stage",
              "threads=1", StrFormat("threads=%d", hw).c_str(), "speedup");
  bench::Rule();
  Row("train+ingest (lakegen, batch ingest)", serial_times.build_s,
      parallel_times.build_s, "s");
  Row("fsck (verify every artifact)", serial_times.fsck_s,
      parallel_times.fsck_s, "s");
  Row("cold open (rebuild BM25+ANN+LSH)", serial_times.open_s,
      parallel_times.open_s, "s");
  for (size_t i = 0; i < serial_times.query_ms.size(); ++i) {
    Row(StrFormat("query case %zu (50 runs avg)", i + 1).c_str(),
        serial_times.query_ms[i], parallel_times.query_ms[i], "ms");
  }
  Row("card+audit+cite", serial_times.card_ms, parallel_times.card_ms,
      "ms");
  Row("RecoverHeritage (whole lake)", serial_times.heritage_ms,
      parallel_times.heritage_ms, "ms");

  double serial_total = serial_times.build_s + serial_times.fsck_s +
                        serial_times.open_s +
                        1e-3 * serial_times.heritage_ms;
  double parallel_total = parallel_times.build_s + parallel_times.fsck_s +
                          parallel_times.open_s +
                          1e-3 * parallel_times.heritage_ms;
  bench::Rule();
  Row("end-to-end (build+fsck+open+heritage)", serial_total, parallel_total,
      "s");

  bool identical = serial_print == parallel_print;
  std::printf(
      "\ndeterminism: %zu models, %zu artifact digests, %zu embeddings, "
      "%zu query cases, %zu heritage edges -> %s\n",
      serial_print.num_models, serial_print.artifact_digests.size(),
      serial_print.embeddings.size(), serial_print.query_hits.size(),
      serial_print.heritage_edges,
      identical ? "IDENTICAL at both thread counts"
                : "MISMATCH (determinism bug!)");
  if (!identical) return 1;

  std::printf(
      "\nexpected shape: ingest dominates (training) and scales with\n"
      "cores; queries are milliseconds either way; the lakes are\n"
      "byte-identical regardless of thread count.\n");
  return 0;
}
