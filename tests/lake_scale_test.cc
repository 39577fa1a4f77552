// Lake-level tests for the incremental index lifecycle: metadata-only
// card ingest, compaction + snapshot reopen equivalence, stale-snapshot
// reconciliation, O(batch) rollback under injected faults, and the
// stats surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_fs.h"
#include "common/file_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/model_lake.h"
#include "lakegen/lakegen.h"
#include "snapshot_write_fs.h"

namespace mlake::core {
namespace {

class LakeScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mlake-scale");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.ValueUnsafe();
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  LakeOptions Options(const std::string& name, Fs* fs = nullptr) {
    LakeOptions options;
    options.root = JoinPath(dir_, name);
    options.probe_count = 4;  // small embedding dim, fast tests
    options.background_compaction = false;
    options.fs = fs;
    if (fs != nullptr) options.retry = RetryPolicy::None();
    return options;
  }

  static std::vector<CardIngest> MakeBatch(int64_t dim, size_t n,
                                           uint64_t seed,
                                           const std::string& prefix) {
    Rng rng(seed);
    std::vector<CardIngest> batch(n);
    for (size_t i = 0; i < n; ++i) {
      metadata::ModelCard card;
      card.model_id = StrFormat("%s-%03zu", prefix.c_str(), i);
      card.name = card.model_id;
      card.task = i % 2 == 0 ? "summarization" : "retrieval";
      card.tags = {"scale"};
      card.training_datasets = {"synthetic/news"};
      card.creator = "scale-test";
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
    return batch;
  }

  /// ANN + keyword results over a fixed probe set.
  static std::string Fingerprint(ModelLake* lake, int64_t dim) {
    std::string fp;
    Rng rng(99);
    for (int q = 0; q < 8; ++q) {
      std::vector<float> query(static_cast<size_t>(dim));
      for (float& x : query) x = static_cast<float>(rng.Normal());
      auto hits = lake->NearestModels(query, 5).MoveValueUnsafe();
      for (const auto& [id, dist] : hits) {
        fp += id + StrFormat("@%.6f;", dist);
      }
      fp += "|";
    }
    for (const char* text : {"summarization", "retrieval scale"}) {
      auto hits = lake->KeywordScores(text, 5).MoveValueUnsafe();
      for (const auto& [id, score] : hits) {
        fp += id + StrFormat("@%.6f;", score);
      }
      fp += "|";
    }
    return fp;
  }

  std::string dir_;
};

TEST_F(LakeScaleTest, IngestCardsBasics) {
  auto lake = ModelLake::Open(Options("basic")).MoveValueUnsafe();
  const int64_t dim = lake->EmbeddingDim();
  auto batch = MakeBatch(dim, 10, 1, "m");
  auto ids = lake->IngestCards(batch);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(ids.ValueUnsafe().size(), 10u);
  EXPECT_EQ(lake->NumModels(), 10u);

  // Cards round-trip and the models are searchable.
  auto card = lake->CardFor("m-000");
  ASSERT_TRUE(card.ok());
  EXPECT_EQ(card.ValueUnsafe().task, "summarization");
  auto hits = lake->NearestModels(batch[3].embedding, 1).MoveValueUnsafe();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, "m-003");

  // Metadata-only models have no artifact to load — a clean
  // FailedPrecondition, not a crash or NotFound.
  EXPECT_TRUE(lake->LoadModel("m-000").status().IsFailedPrecondition());
  // And the lake-wide artifact sweep skips them.
  auto fsck = lake->FsckArtifacts();
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck.ValueUnsafe().empty());
}

TEST_F(LakeScaleTest, IngestCardsValidates) {
  auto lake = ModelLake::Open(Options("validate")).MoveValueUnsafe();
  const int64_t dim = lake->EmbeddingDim();

  auto batch = MakeBatch(dim, 2, 2, "v");
  ASSERT_TRUE(lake->IngestCards(batch).ok());
  // Duplicate against the lake.
  EXPECT_TRUE(lake->IngestCards(batch).status().IsAlreadyExists());
  // Duplicate within one batch.
  auto dup = MakeBatch(dim, 1, 3, "w");
  dup.push_back(dup[0]);
  EXPECT_TRUE(lake->IngestCards(dup).status().IsAlreadyExists());
  // Wrong embedding dim.
  auto bad = MakeBatch(dim, 1, 4, "x");
  bad[0].embedding.pop_back();
  EXPECT_TRUE(lake->IngestCards(bad).status().IsInvalidArgument());
  // A rejected batch leaves the lake untouched.
  EXPECT_EQ(lake->NumModels(), 2u);
}

TEST_F(LakeScaleTest, CompactedSnapshotReopenEqualsRebuild) {
  LakeOptions options = Options("equiv");
  std::string fp_before;
  int64_t dim = 0;
  {
    auto lake = ModelLake::Open(options).MoveValueUnsafe();
    dim = lake->EmbeddingDim();
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 40, 5, "a")).ok());
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 40, 6, "b")).ok());
    ASSERT_TRUE(lake->CompactIndices().ok());
    fp_before = Fingerprint(lake.get(), dim);
  }

  // Snapshot-backed reopen: at a fully compacted generation the loaded
  // indexes are the saved ones, so search is identical to both the
  // pre-close lake and a from-scratch rebuild.
  {
    auto lake = ModelLake::Open(options).MoveValueUnsafe();
    Json stats = lake->IndexStatsJson();
    EXPECT_EQ(stats.GetInt64("generation"), 1);
    EXPECT_EQ(Fingerprint(lake.get(), dim), fp_before);
  }
  {
    LakeOptions rebuild = options;
    rebuild.load_index_snapshots = false;
    auto lake = ModelLake::Open(rebuild).MoveValueUnsafe();
    EXPECT_EQ(Fingerprint(lake.get(), dim), fp_before);
  }
}

TEST_F(LakeScaleTest, StaleSnapshotReconcilesMembership) {
  LakeOptions options = Options("stale");
  int64_t dim = 0;
  {
    auto lake = ModelLake::Open(options).MoveValueUnsafe();
    dim = lake->EmbeddingDim();
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 30, 7, "base")).ok());
    ASSERT_TRUE(lake->CompactIndices().ok());
    // Mutate past the snapshot: the manifest still names generation 1,
    // but the catalog now holds 10 extra models.
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 10, 8, "extra")).ok());
  }

  auto lake = ModelLake::Open(options).MoveValueUnsafe();
  EXPECT_EQ(lake->NumModels(), 40u);
  Json stats = lake->IndexStatsJson();
  EXPECT_EQ(stats.GetInt64("generation"), 1);

  // Every model — snapshot-covered and reconciled alike — is found by
  // exact-merging search (BM25) and by the ANN index.
  auto keyword = lake->KeywordScores("scale", 64).MoveValueUnsafe();
  EXPECT_EQ(keyword.size(), 40u);
  auto batch = MakeBatch(dim, 10, 8, "extra");
  auto hits = lake->NearestModels(batch[4].embedding, 1).MoveValueUnsafe();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, "extra-004");
}

TEST_F(LakeScaleTest, UpdateCardInvalidatesSnapshots) {
  LakeOptions options = Options("invalidate");
  int64_t dim = 0;
  {
    auto lake = ModelLake::Open(options).MoveValueUnsafe();
    dim = lake->EmbeddingDim();
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 12, 9, "m")).ok());
    ASSERT_TRUE(lake->CompactIndices().ok());
    metadata::ModelCard card = lake->CardFor("m-001").MoveValueUnsafe();
    card.description = "edited after compaction";
    ASSERT_TRUE(lake->UpdateCard(card).ok());
  }
  // The card edit durably dropped the manifest: the reopen rebuilds
  // from the catalog (generation 0) and serves the edited card's text.
  auto lake = ModelLake::Open(options).MoveValueUnsafe();
  Json stats = lake->IndexStatsJson();
  EXPECT_EQ(stats.GetInt64("generation"), 0);
  auto hits = lake->KeywordScores("edited after compaction", 5)
                  .MoveValueUnsafe();
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].first, "m-001");
}

TEST_F(LakeScaleTest, FailedCardIngestRollsBackIncrementally) {
  // Template lake: 20 healthy metadata-only models.
  int64_t dim = 0;
  std::string fp_before;
  {
    auto lake =
        ModelLake::Open(Options("rollback-template")).MoveValueUnsafe();
    dim = lake->EmbeddingDim();
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 20, 10, "keep")).ok());
    fp_before = Fingerprint(lake.get(), dim);
  }
  auto clone = [&](const std::string& name) {
    std::filesystem::copy(JoinPath(dir_, "rollback-template"),
                          JoinPath(dir_, name),
                          std::filesystem::copy_options::recursive);
  };

  // Probe the mutating-op count of (open, ingest the doomed batch) on
  // an identical clone — serial exec makes the sequence reproducible.
  uint64_t open_ops = 0, total_ops = 0;
  {
    clone("rollback-probe");
    FaultInjectingFs fs(RealFs(), FaultPlan{});
    auto lake =
        ModelLake::Open(Options("rollback-probe", &fs)).MoveValueUnsafe();
    open_ops = fs.mutating_ops();
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 20, 11, "doomed")).ok());
    total_ops = fs.mutating_ops();
    ASSERT_GT(total_ops, open_ops + 4);
  }

  // Fail the batch mid-apply: catalog docs and index entries for a
  // prefix of the batch exist by then and must all roll back.
  clone("rollback-trial");
  FaultPlan failing;
  failing.fail_ops = {open_ops + (total_ops - open_ops) / 2};
  FaultInjectingFs fail_fs(RealFs(), failing);
  auto lake =
      ModelLake::Open(Options("rollback-trial", &fail_fs)).MoveValueUnsafe();
  auto failed = lake->IngestCards(MakeBatch(dim, 20, 11, "doomed"));
  ASSERT_FALSE(failed.ok());
  EXPECT_GT(fail_fs.injected_errors(), 0u);

  // All-or-nothing: no doomed model survives anywhere — catalog,
  // keyword index, or ANN.
  EXPECT_EQ(lake->NumModels(), 20u);
  for (const std::string& id : lake->ListModels()) {
    EXPECT_EQ(id.rfind("keep", 0), 0u) << id;
  }
  EXPECT_TRUE(lake->KeywordScores("doomed", 40).MoveValueUnsafe().empty());
  EXPECT_EQ(Fingerprint(lake.get(), dim), fp_before);

  // And the lake remains ingestable after the rollback.
  ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 5, 12, "after")).ok());
  EXPECT_EQ(lake->NumModels(), 25u);
}

TEST_F(LakeScaleTest, IndexStatsJsonShape) {
  auto lake = ModelLake::Open(Options("stats")).MoveValueUnsafe();
  const int64_t dim = lake->EmbeddingDim();
  ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 15, 13, "s")).ok());

  Json stats = lake->IndexStatsJson();
  EXPECT_EQ(stats.GetInt64("generation"), 0);
  const Json* ann = stats.Find("ann");
  ASSERT_NE(ann, nullptr);
  EXPECT_EQ(ann->GetInt64("base"), 0);
  EXPECT_EQ(ann->GetInt64("delta"), 15);
  EXPECT_EQ(ann->GetInt64("live"), 15);
  const Json* bm25 = stats.Find("bm25");
  ASSERT_NE(bm25, nullptr);
  EXPECT_EQ(bm25->GetInt64("live"), 15);

  ASSERT_TRUE(lake->CompactIndices().ok());
  stats = lake->IndexStatsJson();
  EXPECT_EQ(stats.GetInt64("generation"), 1);
  ann = stats.Find("ann");
  ASSERT_NE(ann, nullptr);
  EXPECT_EQ(ann->GetInt64("base"), 15);
  EXPECT_EQ(ann->GetInt64("delta"), 0);
  EXPECT_EQ(ann->GetInt64("snapshot_generation"), 1);
  EXPECT_GE(stats.GetDouble("last_compaction_ms"), 0.0);
  const Json* passes = stats.Find("compactions");
  ASSERT_NE(passes, nullptr);
  EXPECT_EQ(passes->GetInt64("published"), 1);
  EXPECT_EQ(passes->GetInt64("aborted"), 0);
  EXPECT_EQ(passes->GetInt64("skipped"), 0);

  // Nothing changed since that pass: the next one is counted as skipped.
  ASSERT_TRUE(lake->CompactIndices().ok());
  stats = lake->IndexStatsJson();
  passes = stats.Find("compactions");
  ASSERT_NE(passes, nullptr);
  EXPECT_EQ(passes->GetInt64("published"), 1);
  EXPECT_EQ(passes->GetInt64("skipped"), 1);
}

/// Name, size and bytes of every file under the lake's index dir.
std::map<std::string, std::string> IndexFiles(const std::string& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(JoinPath(root, "index"))) {
    files[entry.path().filename().string()] =
        ReadFile(entry.path().string()).ValueOrDie();
  }
  return files;
}

TEST_F(LakeScaleTest, CompactionWithoutMutationIsANoOp) {
  LakeOptions options = Options("noop");
  auto lake = ModelLake::Open(options).MoveValueUnsafe();
  const int64_t dim = lake->EmbeddingDim();
  ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 30, 21, "n")).ok());
  ASSERT_TRUE(lake->RegisterDataset("noop/a", {"x", "y", "z"}).ok());
  ASSERT_TRUE(lake->CompactIndices().ok());
  ASSERT_EQ(lake->IndexGeneration(), 1u);
  const auto files = IndexFiles(options.root);
  const auto manifest_time = std::filesystem::last_write_time(
      JoinPath(options.root, "index/MANIFEST.json"));

  // A second pass with no mutation in between builds and writes
  // nothing: same generation, same manifest, same index files.
  ASSERT_TRUE(lake->CompactIndices().ok());
  EXPECT_EQ(lake->IndexGeneration(), 1u);
  EXPECT_EQ(IndexFiles(options.root), files);
  EXPECT_EQ(std::filesystem::last_write_time(
                JoinPath(options.root, "index/MANIFEST.json")),
            manifest_time);

  // Each index-affecting mutation makes the next pass publish a new
  // generation; a pass right after it is a no-op again.
  uint64_t gen = 1;
  auto expect_publishes = [&](const char* what) {
    SCOPED_TRACE(what);
    ASSERT_TRUE(lake->CompactIndices().ok());
    EXPECT_EQ(lake->IndexGeneration(), ++gen);
    ASSERT_TRUE(lake->CompactIndices().ok());
    EXPECT_EQ(lake->IndexGeneration(), gen);
  };
  ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 5, 22, "more")).ok());
  expect_publishes("IngestCards");
  metadata::ModelCard card = lake->CardFor("n-003").MoveValueUnsafe();
  card.description = "edited between passes";
  ASSERT_TRUE(lake->UpdateCard(card).ok());
  expect_publishes("UpdateCard");
  ASSERT_TRUE(lake->RegisterDataset("noop/b", {"y", "z", "w"}).ok());
  expect_publishes("RegisterDataset");

  // A manifest removed behind the lake's back is not "still in place":
  // the pass runs again and writes a fresh generation.
  ASSERT_TRUE(
      RemoveFile(JoinPath(options.root, "index/MANIFEST.json")).ok());
  expect_publishes("manifest removed");

  Json passes = *lake->IndexStatsJson().Find("compactions");
  EXPECT_EQ(passes.GetInt64("published"), 5);
  EXPECT_EQ(passes.GetInt64("skipped"), 5);
  EXPECT_EQ(passes.GetInt64("aborted"), 0);
}

TEST_F(LakeScaleTest, BackgroundCompactionTriggersAndConverges) {
  LakeOptions options = Options("background");
  options.background_compaction = true;
  options.compact_min_delta = 32;  // tiny threshold for the test
  options.compact_growth = 0.0;
  auto lake = ModelLake::Open(options).MoveValueUnsafe();
  const int64_t dim = lake->EmbeddingDim();
  ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 40, 14, "bg")).ok());

  // The trigger fired at ingest time; wait (bounded) for the pass.
  for (int i = 0; i < 200; ++i) {
    if (lake->IndexStatsJson().GetInt64("generation") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  Json stats = lake->IndexStatsJson();
  EXPECT_GE(stats.GetInt64("generation"), 1);
  const Json* ann = stats.Find("ann");
  ASSERT_NE(ann, nullptr);
  EXPECT_EQ(ann->GetInt64("live"), 40);
  // Search still serves every model after the swap.
  EXPECT_EQ(lake->KeywordScores("scale", 64).MoveValueUnsafe().size(), 40u);
}

/// Counts the snapshot files written into one index dir.
class SnapshotWriteCounter final : public SnapshotWriteFs {
 public:
  using SnapshotWriteFs::SnapshotWriteFs;
  size_t snapshot_writes() const { return snapshot_writes_.load(); }

 private:
  void OnSnapshotWrite(const std::string&) override { ++snapshot_writes_; }
  std::atomic<size_t> snapshot_writes_{0};
};

// A bulk load at the production threshold: the background pass the
// fourth batch triggers is overtaken by the fifth, and it must give up
// before writing anything. Every snapshot file ever written belongs to
// a generation that was published.
TEST_F(LakeScaleTest, BulkLoadWritesOnlyPublishedGenerations) {
  SnapshotWriteCounter fs(JoinPath(JoinPath(dir_, "bulk"), "index"));
  LakeOptions options = Options("bulk", &fs);
  options.background_compaction = true;
  options.compact_min_delta = 4096;
  auto lake = ModelLake::Open(options).MoveValueUnsafe();
  const int64_t dim = lake->EmbeddingDim();
  for (int b = 0; b < 5; ++b) {
    ASSERT_TRUE(lake->IngestCards(MakeBatch(dim, 1024, 500 + b,
                                            StrFormat("bulk%d", b)))
                    .ok());
  }
  ASSERT_TRUE(lake->CompactIndices().ok());

  Json passes = *lake->IndexStatsJson().Find("compactions");
  const int64_t published = passes.GetInt64("published");
  EXPECT_GE(published, 1) << passes.Dump();
  EXPECT_EQ(fs.snapshot_writes(), static_cast<size_t>(4 * published))
      << passes.Dump();
  // The index dir holds exactly the published generation and its
  // manifest.
  EXPECT_EQ(IndexFiles(options.root).size(), 5u);
  EXPECT_EQ(lake->NumModels(), 5u * 1024u);
  lake.reset();
  auto reopened = ModelLake::Open(Options("bulk")).MoveValueUnsafe();
  EXPECT_EQ(reopened->IndexGeneration(), static_cast<uint64_t>(published));
}

TEST_F(LakeScaleTest, StreamingGeneratorFeedsTheLake) {
  auto lake = ModelLake::Open(Options("stream")).MoveValueUnsafe();
  lakegen::StreamGenConfig config;
  config.num_models = 200;
  config.batch_size = 64;
  config.num_families = 4;
  auto gen = lakegen::GenerateStreamingLake(lake.get(), config);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(lake->NumModels(), 200u);
  EXPECT_EQ(gen.ValueUnsafe().datasets.size(),
            lake->ListDatasets().size());

  // Nearest-neighbor structure recovers family clustering: a model's
  // neighbors are dominated by its own family.
  auto ids = lake->ListModels();
  auto card = lake->CardFor(ids[0]).MoveValueUnsafe();
  auto related = lake->RelatedModels(ids[0], 10);
  ASSERT_TRUE(related.ok());
  size_t same_family = 0;
  for (const auto& m : related.ValueUnsafe()) {
    if (lake->CardFor(m.id).MoveValueUnsafe().task == card.task) {
      ++same_family;
    }
  }
  EXPECT_GT(same_family, 5u);
}

}  // namespace
}  // namespace mlake::core
