// Regression test for the execution layer's core contract: a lake built
// at threads=1 and a lake built at threads=8 are indistinguishable —
// same model ids, same artifact digests, same embeddings, same query
// results, same recovered heritage. Every parallel path is statically
// partitioned and reduced in index order, and every random draw happens
// in a sequential planning phase (seeded forks captured per task), so
// scheduling can never leak into the output.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/model_lake.h"
#include "lakegen/lakegen.h"

namespace mlake {
namespace {

struct LakeSnapshot {
  std::vector<std::string> model_ids;
  std::vector<std::string> artifact_digests;
  std::vector<std::vector<float>> embeddings;
  std::string lake_graph_json;
  std::string recovered_heritage_json;
  std::vector<std::string> related;  // RelatedModels(id, 3) ids, joined
  std::vector<std::string> query_hits;
};

LakeSnapshot BuildLake(const std::string& root, const ExecutionContext& exec,
                       uint64_t seed, bool caches = true) {
  core::LakeOptions options;
  options.root = root;
  options.exec = exec;
  if (!caches) {
    // The pre-caching storage configuration: copying reads, hash on
    // every read, no caches.
    options.blob_mmap = false;
    options.blob_verify = storage::VerifyMode::kAlways;
    options.artifact_cache_bytes = 0;
    options.embedding_cache_bytes = 0;
  }
  auto lake = core::ModelLake::Open(options).MoveValueUnsafe();

  lakegen::LakeGenConfig config;
  config.num_families = 2;
  config.domains_per_family = 2;
  config.num_bases = 3;
  config.children_per_base_min = 1;
  config.children_per_base_max = 2;
  config.train_samples = 128;
  config.test_samples = 64;
  config.base_train.epochs = 6;
  config.finetune_train.epochs = 3;
  config.seed = seed;
  auto gen = lakegen::GenerateLake(lake.get(), config);
  EXPECT_TRUE(gen.ok()) << gen.status().ToString();

  LakeSnapshot snap;
  snap.model_ids = lake->ListModels();
  for (const std::string& id : snap.model_ids) {
    auto model_doc = lake->catalog()->GetDoc("model", id);
    EXPECT_TRUE(model_doc.ok());
    snap.artifact_digests.push_back(
        model_doc.ValueUnsafe().GetString("artifact_digest"));
    auto embedding = lake->EmbeddingFor(id);
    EXPECT_TRUE(embedding.ok());
    snap.embeddings.push_back(embedding.MoveValueUnsafe());
    auto related = lake->RelatedModels(id, 3);
    EXPECT_TRUE(related.ok());
    std::string joined;
    for (const auto& r : related.ValueUnsafe()) joined += r.id + ",";
    snap.related.push_back(joined);
  }
  snap.lake_graph_json = lake->graph().ToJson().Dump(0);

  versioning::HeritageConfig heritage;
  auto recovered = lake->RecoverHeritage(heritage);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  snap.recovered_heritage_json =
      recovered.ValueUnsafe().graph.ToJson().Dump(0);

  for (const char* mlql :
       {"FIND MODELS WHERE task = 'summarization' LIMIT 5",
        "FIND MODELS WHERE num_params > 100 LIMIT 10"}) {
    auto result = lake->Query(mlql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::string joined;
    for (const auto& m : result.ValueUnsafe().models) joined += m.id + ",";
    snap.query_hits.push_back(joined);
  }
  return snap;
}

TEST(LakeDeterminismTest, IdenticalAtOneAndEightThreads) {
  auto dir = MakeTempDir("mlake-determinism");
  ASSERT_TRUE(dir.ok());
  const std::string root = dir.ValueUnsafe();

  LakeSnapshot serial = BuildLake(JoinPath(root, "serial"),
                                  ExecutionContext::Serial(), 42);
  LakeSnapshot pooled = BuildLake(JoinPath(root, "pooled"),
                                  ExecutionContext::WithThreads(8), 42);

  EXPECT_EQ(serial.model_ids, pooled.model_ids);
  EXPECT_EQ(serial.artifact_digests, pooled.artifact_digests);
  EXPECT_EQ(serial.embeddings, pooled.embeddings);
  EXPECT_EQ(serial.lake_graph_json, pooled.lake_graph_json);
  EXPECT_EQ(serial.recovered_heritage_json, pooled.recovered_heritage_json);
  EXPECT_EQ(serial.related, pooled.related);
  EXPECT_EQ(serial.query_hits, pooled.query_hits);

  ASSERT_TRUE(RemoveAll(root).ok());
}

TEST(LakeDeterminismTest, CachesOnAndOffAreByteIdentical) {
  // PR 3 contract: the storage caches and the zero-copy read path sit
  // below the lake's semantics — a lake built and read with caches on
  // is indistinguishable from one built and read with the legacy
  // configuration (copying reads, verify-always, no caches).
  auto dir = MakeTempDir("mlake-determinism-cache");
  ASSERT_TRUE(dir.ok());
  const std::string root = dir.ValueUnsafe();

  LakeSnapshot cached = BuildLake(JoinPath(root, "cached"),
                                  ExecutionContext::Serial(), 42,
                                  /*caches=*/true);
  LakeSnapshot uncached = BuildLake(JoinPath(root, "uncached"),
                                    ExecutionContext::Serial(), 42,
                                    /*caches=*/false);

  EXPECT_EQ(cached.model_ids, uncached.model_ids);
  EXPECT_EQ(cached.artifact_digests, uncached.artifact_digests);
  EXPECT_EQ(cached.embeddings, uncached.embeddings);
  EXPECT_EQ(cached.lake_graph_json, uncached.lake_graph_json);
  EXPECT_EQ(cached.recovered_heritage_json, uncached.recovered_heritage_json);
  EXPECT_EQ(cached.related, uncached.related);
  EXPECT_EQ(cached.query_hits, uncached.query_hits);

  // Same lake, read back warm (cache hit) and legacy-cold: every
  // artifact and embedding must round-trip bit-identically.
  core::LakeOptions warm_options;
  warm_options.root = JoinPath(root, "cached");
  auto warm = core::ModelLake::Open(warm_options).MoveValueUnsafe();
  core::LakeOptions cold_options;
  cold_options.root = JoinPath(root, "cached");
  cold_options.blob_mmap = false;
  cold_options.blob_verify = storage::VerifyMode::kAlways;
  cold_options.artifact_cache_bytes = 0;
  cold_options.embedding_cache_bytes = 0;
  auto cold = core::ModelLake::Open(cold_options).MoveValueUnsafe();
  for (const std::string& id : warm->ListModels()) {
    // First warm read populates the caches, second is served by them.
    ASSERT_TRUE(warm->LoadArtifact(id).ok());
    auto warm_artifact = warm->LoadArtifact(id);
    auto cold_artifact = cold->LoadArtifact(id);
    ASSERT_TRUE(warm_artifact.ok());
    ASSERT_TRUE(cold_artifact.ok());
    EXPECT_EQ(storage::SerializeArtifact(*warm_artifact.ValueUnsafe()),
              storage::SerializeArtifact(*cold_artifact.ValueUnsafe()));
    ASSERT_TRUE(warm->EmbeddingFor(id).ok());
    EXPECT_EQ(warm->EmbeddingFor(id).ValueOrDie(),
              cold->EmbeddingFor(id).ValueOrDie());
  }
  auto stats = warm->CacheStats();
  EXPECT_GT(stats.artifacts.hits, 0u);
  EXPECT_GT(stats.embeddings.hits, 0u);

  ASSERT_TRUE(RemoveAll(root).ok());
}

TEST(LakeDeterminismTest, OneThreadPoolMatchesSerialPath) {
  // threads=1 exercises the pool code path (queueing, TaskGroup) while
  // the serial context never touches the pool; both must agree.
  auto dir = MakeTempDir("mlake-determinism1");
  ASSERT_TRUE(dir.ok());
  const std::string root = dir.ValueUnsafe();

  LakeSnapshot serial = BuildLake(JoinPath(root, "serial"),
                                  ExecutionContext::Serial(), 7);
  LakeSnapshot one = BuildLake(JoinPath(root, "one"),
                               ExecutionContext::WithThreads(1), 7);

  EXPECT_EQ(serial.artifact_digests, one.artifact_digests);
  EXPECT_EQ(serial.embeddings, one.embeddings);
  EXPECT_EQ(serial.recovered_heritage_json, one.recovered_heritage_json);

  ASSERT_TRUE(RemoveAll(root).ok());
}

/// Streams the same metadata-only population (three IngestCards
/// batches plus two datasets) into a lake, compacts it, and returns the
/// bytes of every file in its index dir by name.
std::map<std::string, std::string> CompactedIndexFiles(
    const std::string& root, const ExecutionContext* exec) {
  core::LakeOptions options;
  options.root = root;
  options.probe_count = 4;
  options.background_compaction = false;
  if (exec != nullptr) options.exec = *exec;
  auto lake = core::ModelLake::Open(options).MoveValueUnsafe();
  const size_t dim = static_cast<size_t>(lake->EmbeddingDim());
  Rng rng(2024);
  for (int b = 0; b < 3; ++b) {
    std::vector<core::CardIngest> batch(200);
    for (size_t i = 0; i < batch.size(); ++i) {
      metadata::ModelCard& card = batch[i].card;
      card.model_id = StrFormat("det/%d-%03zu", b, i);
      card.name = card.model_id;
      card.task = i % 3 == 0 ? "summarization" : "retrieval";
      card.tags = {"determinism", i % 2 == 0 ? "legal" : "news"};
      card.training_datasets = {"synthetic/news"};
      batch[i].embedding.resize(dim);
      for (float& x : batch[i].embedding) {
        x = static_cast<float>(rng.Normal());
      }
    }
    EXPECT_TRUE(lake->IngestCards(batch).ok());
  }
  EXPECT_TRUE(lake->RegisterDataset("det/a", {"s1", "s2", "s3"}).ok());
  EXPECT_TRUE(lake->RegisterDataset("det/b", {"s2", "s3", "s4"}).ok());
  EXPECT_TRUE(lake->CompactIndices().ok());

  const std::string index_dir = JoinPath(root, "index");
  std::map<std::string, std::string> files;
  const std::vector<std::string> names = ListDir(index_dir).ValueOrDie();
  for (const std::string& name : names) {
    files[name] = ReadFile(JoinPath(index_dir, name)).ValueOrDie();
  }
  return files;
}

TEST(LakeDeterminismTest, SnapshotFilesIdenticalSerialAndDefaultPool) {
  // Compaction on the default (process-wide, multi-core) pool writes
  // the same ann/bm25/lsh/ids snapshot bytes as a serial lake: HNSW's
  // bulk build is thread-count-invariant and the rest is built in
  // catalog order.
  auto dir = MakeTempDir("mlake-determinism-snap");
  ASSERT_TRUE(dir.ok());
  const std::string root = dir.ValueUnsafe();

  const ExecutionContext serial = ExecutionContext::Serial();
  auto serial_files = CompactedIndexFiles(JoinPath(root, "serial"), &serial);
  auto pooled_files = CompactedIndexFiles(JoinPath(root, "pooled"), nullptr);
  // On a multi-core host the default lake really takes the pool path.
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_GT(core::LakeOptions().exec.parallelism(), 1);
  }

  for (const char* name : {"ann.1.snap", "bm25.1.snap", "lsh.1.snap",
                           "ids.1.snap", "MANIFEST.json"}) {
    SCOPED_TRACE(name);
    ASSERT_EQ(serial_files.count(name), 1u);
    ASSERT_EQ(pooled_files.count(name), 1u);
    EXPECT_TRUE(serial_files[name] == pooled_files[name]);
  }
  EXPECT_EQ(serial_files.size(), pooled_files.size());

  ASSERT_TRUE(RemoveAll(root).ok());
}

}  // namespace
}  // namespace mlake
