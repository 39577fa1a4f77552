#include "core/model_lake.h"

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/string_util.h"
#include "nn/trainer.h"

namespace mlake::core {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kClasses = 4;

class ModelLakeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mlake-lake");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.ValueUnsafe();
    options_.root = dir_;
    options_.input_dim = kDim;
    options_.num_classes = kClasses;
    options_.probe_count = 12;
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  nn::Dataset Task(const std::string& family, const std::string& domain,
                   size_t n, uint64_t seed) {
    nn::TaskSpec spec;
    spec.family_id = family;
    spec.domain_id = domain;
    spec.dim = kDim;
    spec.num_classes = kClasses;
    Rng rng(seed);
    return nn::SyntheticTask::Make(spec).Sample(n, &rng);
  }

  std::unique_ptr<nn::Model> TrainModel(const nn::Dataset& data,
                                        uint64_t seed) {
    Rng rng(seed);
    auto model = nn::BuildModel(nn::MlpSpec(kDim, {16}, kClasses), &rng)
                     .MoveValueUnsafe();
    nn::TrainConfig config;
    config.epochs = 10;
    MLAKE_CHECK(nn::Train(model.get(), data, config).ok());
    return model;
  }

  metadata::ModelCard Card(const std::string& id, const std::string& task,
                           const std::string& dataset) {
    metadata::ModelCard card;
    card.model_id = id;
    card.name = id;
    card.task = task;
    card.training_datasets = {dataset};
    card.creator = "test-suite";
    return card;
  }

  std::string dir_;
  LakeOptions options_;
};

TEST_F(ModelLakeTest, IngestLoadRoundTrip) {
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  nn::Dataset data = Task("sum", "legal", 128, 1);
  auto model = TrainModel(data, 2);
  auto id = lake->IngestModel(*model, Card("m1", "sum", "sum/legal"));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(id.ValueUnsafe(), "m1");
  EXPECT_EQ(lake->NumModels(), 1u);

  auto loaded = lake->LoadModel("m1");
  ASSERT_TRUE(loaded.ok());
  Tensor y1 = model->Forward(data.x);
  Tensor y2 = loaded.ValueUnsafe()->Forward(data.x);
  for (int64_t i = 0; i < y1.NumElements(); ++i) {
    ASSERT_FLOAT_EQ(y1.data()[i], y2.data()[i]);
  }
  EXPECT_EQ(lake->CardFor("m1").ValueOrDie().task, "sum");
}

TEST_F(ModelLakeTest, RejectsBadIngests) {
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  auto model = TrainModel(Task("sum", "legal", 64, 3), 4);
  metadata::ModelCard no_id;
  EXPECT_TRUE(lake->IngestModel(*model, no_id).status().IsInvalidArgument());

  ASSERT_TRUE(lake->IngestModel(*model, Card("dup", "sum", "d")).ok());
  EXPECT_TRUE(lake->IngestModel(*model, Card("dup", "sum", "d"))
                  .status()
                  .IsAlreadyExists());

  Rng rng(5);
  auto wrong_dims =
      nn::BuildModel(nn::MlpSpec(kDim + 4, {8}, kClasses), &rng)
          .MoveValueUnsafe();
  EXPECT_TRUE(lake->IngestModel(*wrong_dims, Card("w", "sum", "d"))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ModelLakeTest, PersistsAcrossReopen) {
  nn::Dataset data = Task("sum", "legal", 128, 6);
  {
    auto lake = ModelLake::Open(options_).MoveValueUnsafe();
    auto m1 = TrainModel(data, 7);
    ASSERT_TRUE(lake->IngestModel(*m1, Card("m1", "sum", "sum/legal")).ok());
    ASSERT_TRUE(lake->RegisterDataset("sum/legal", {"s1", "s2"}).ok());
    versioning::VersionEdge edge;
    edge.parent = "m1";
    edge.child = "m2";
    edge.type = versioning::EdgeType::kFinetune;
    auto m2 = TrainModel(data, 8);
    ASSERT_TRUE(lake->IngestModel(*m2, Card("m2", "sum", "sum/legal")).ok());
    ASSERT_TRUE(lake->RecordEdge(edge).ok());
  }
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  EXPECT_EQ(lake->NumModels(), 2u);
  EXPECT_TRUE(lake->graph().HasEdge("m1", "m2"));
  EXPECT_EQ(lake->DatasetShards("sum/legal").ValueOrDie().size(), 2u);
  // Indices rebuilt: keyword + related-model search still work.
  auto hits = lake->KeywordScores("sum", 10).ValueOrDie();
  EXPECT_EQ(hits.size(), 2u);
  auto related = lake->RelatedModels("m1", 1).ValueOrDie();
  ASSERT_EQ(related.size(), 1u);
  EXPECT_EQ(related[0].id, "m2");
}

TEST_F(ModelLakeTest, RelatedModelsFindsSameTaskModels) {
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  nn::Dataset task_a = Task("task-a", "d", 128, 9);
  nn::Dataset task_b = Task("task-b", "d", 128, 10);
  // Two models per task family.
  ASSERT_TRUE(
      lake->IngestModel(*TrainModel(task_a, 11), Card("a1", "a", "da")).ok());
  ASSERT_TRUE(
      lake->IngestModel(*TrainModel(task_a, 12), Card("a2", "a", "da")).ok());
  ASSERT_TRUE(
      lake->IngestModel(*TrainModel(task_b, 13), Card("b1", "b", "db")).ok());
  auto related = lake->RelatedModels("a1", 1).ValueOrDie();
  ASSERT_EQ(related.size(), 1u);
  EXPECT_EQ(related[0].id, "a2");
}

TEST_F(ModelLakeTest, MlqlEndToEnd) {
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  nn::Dataset legal = Task("sum", "legal", 128, 14);
  nn::Dataset medical = Task("sum", "medical", 128, 15);
  ASSERT_TRUE(lake->RegisterDataset("sum/legal", {"l1", "l2"}).ok());
  ASSERT_TRUE(lake->RegisterDataset("sum/medical", {"m1", "m2"}).ok());
  ASSERT_TRUE(lake->IngestModel(*TrainModel(legal, 16),
                                Card("legal-model", "sum", "sum/legal"))
                  .ok());
  ASSERT_TRUE(lake->IngestModel(*TrainModel(medical, 17),
                                Card("medical-model", "sum", "sum/medical"))
                  .ok());

  auto result =
      lake->Query("FIND MODELS WHERE trained_on('sum/legal')").ValueOrDie();
  ASSERT_EQ(result.models.size(), 1u);
  EXPECT_EQ(result.models[0].id, "legal-model");

  auto by_task = lake->Query("FIND MODELS WHERE task = 'sum' LIMIT 10")
                     .ValueOrDie();
  EXPECT_EQ(by_task.models.size(), 2u);

  auto ann = lake->Query("FIND MODELS RANK BY behavior_sim('legal-model')")
                 .ValueOrDie();
  ASSERT_EQ(ann.models.size(), 1u);
  EXPECT_EQ(ann.models[0].id, "medical-model");
}

// The plan cache also files each parse under its canonical rendering;
// a rendering that rounds numbers would hand this first query's plan to
// the second.
TEST_F(ModelLakeTest, PlanCacheAliasKeepsDistinctNumbersApart) {
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  metadata::ModelCard card = Card("big", "sum", "sum/legal");
  card.num_params = 123456;
  ASSERT_TRUE(
      lake->IngestModel(*TrainModel(Task("sum", "legal", 64, 40), 41), card)
          .ok());
  auto above =
      lake->Query("FIND MODELS WHERE num_params >= 123456.4 LIMIT 10")
          .ValueOrDie();
  EXPECT_TRUE(above.models.empty());
  auto at = lake->Query("FIND MODELS WHERE num_params >= 123456 LIMIT 10")
                .ValueOrDie();
  ASSERT_EQ(at.models.size(), 1u);
  EXPECT_EQ(at.models[0].id, "big");
}

TEST_F(ModelLakeTest, BenchmarkingEvaluatesStoredModels) {
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  nn::Dataset train = Task("sum", "legal", 192, 18);
  nn::Dataset test = Task("sum", "legal", 96, 19);
  ASSERT_TRUE(lake->IngestModel(*TrainModel(train, 20),
                                Card("m", "sum", "sum/legal"))
                  .ok());
  ASSERT_TRUE(lake->RegisterBenchmark("sum/legal:test", test).ok());
  EXPECT_TRUE(lake->RegisterBenchmark("sum/legal:test", test)
                  .IsAlreadyExists());
  auto acc = lake->EvaluateModel("m", "sum/legal:test");
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(acc.ValueUnsafe(), 0.7);
  EXPECT_TRUE(lake->EvaluateModel("m", "ghost-bench").status().IsNotFound());
  EXPECT_EQ(lake->ListBenchmarks(),
            std::vector<std::string>{"sum/legal:test"});
}

TEST_F(ModelLakeTest, GenerateCardFillsMissingFields) {
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  nn::Dataset data = Task("sum", "legal", 192, 21);
  nn::Dataset test = Task("sum", "legal", 96, 22);
  ASSERT_TRUE(lake->RegisterBenchmark("sum/legal:test", test).ok());

  // Three documented models of the same task + one undocumented model.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(lake->IngestModel(
                        *TrainModel(data, 23 + static_cast<uint64_t>(i)),
                        Card(StrFormat("doc-%d", i), "sum", "sum/legal"))
                    .ok());
  }
  auto undocumented_model = TrainModel(data, 30);
  metadata::ModelCard bare;
  bare.model_id = "mystery";
  ASSERT_TRUE(lake->IngestModel(*undocumented_model, bare).ok());

  double before = metadata::CompletenessScore(
      lake->CardFor("mystery").ValueOrDie());
  auto draft = lake->GenerateCard("mystery");
  ASSERT_TRUE(draft.ok()) << draft.status().ToString();
  double after = metadata::CompletenessScore(draft.ValueUnsafe());
  EXPECT_GT(after, before);
  // Intrinsics recovered from the artifact.
  EXPECT_FALSE(draft.ValueUnsafe().architecture.empty());
  EXPECT_GT(draft.ValueUnsafe().num_params, 0);
  // Task inferred from behavioral neighbors (all are 'sum').
  EXPECT_EQ(draft.ValueUnsafe().task, "sum");
  // Metrics filled from the registered benchmark.
  ASSERT_FALSE(draft.ValueUnsafe().metrics.empty());
  EXPECT_EQ(draft.ValueUnsafe().metrics[0].benchmark, "sum/legal:test");
  EXPECT_FALSE(draft.ValueUnsafe().description.empty());
}

TEST_F(ModelLakeTest, GenerateCardUsesRecordedLineage) {
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  nn::Dataset data = Task("sum", "legal", 128, 31);
  ASSERT_TRUE(lake->IngestModel(*TrainModel(data, 32),
                                Card("parent", "sum", "sum/legal"))
                  .ok());
  ASSERT_TRUE(lake->IngestModel(*TrainModel(data, 33),
                                Card("child", "sum", "sum/legal"))
                  .ok());
  versioning::VersionEdge edge;
  edge.parent = "parent";
  edge.child = "child";
  edge.type = versioning::EdgeType::kLora;
  ASSERT_TRUE(lake->RecordEdge(edge).ok());

  auto draft = lake->GenerateCard("child").ValueOrDie();
  EXPECT_EQ(draft.lineage.base_model_id, "parent");
  EXPECT_EQ(draft.lineage.method, "lora");
  // Parent's draft warns about downstream dependents.
  auto parent_draft = lake->GenerateCard("parent").ValueOrDie();
  bool has_downstream_note = false;
  for (const std::string& note : parent_draft.risk_notes) {
    if (note.find("downstream") != std::string::npos) {
      has_downstream_note = true;
    }
  }
  EXPECT_TRUE(has_downstream_note);
}

TEST_F(ModelLakeTest, AuditReportsConsistencyAndIntegrity) {
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  nn::Dataset data = Task("sum", "legal", 128, 34);
  ASSERT_TRUE(lake->IngestModel(*TrainModel(data, 35),
                                Card("good", "sum", "sum/legal"))
                  .ok());

  metadata::ModelCard liar = Card("liar", "sum", "sum/legal");
  liar.lineage = {"good", "finetune"};  // claimed but never recorded
  ASSERT_TRUE(lake->IngestModel(*TrainModel(data, 36), liar).ok());

  Json good_report = lake->AuditModel("good").ValueOrDie();
  EXPECT_TRUE(good_report.GetBool("artifact_intact"));
  EXPECT_TRUE(good_report.GetBool("lineage_claim_consistent"));
  EXPECT_TRUE(good_report.GetBool("documents_training_data"));
  EXPECT_TRUE(good_report.GetBool("passes"));

  Json liar_report = lake->AuditModel("liar").ValueOrDie();
  EXPECT_FALSE(liar_report.GetBool("lineage_claim_consistent"));
  EXPECT_FALSE(liar_report.GetBool("passes"));
}

TEST_F(ModelLakeTest, CitationPinsGraphRevision) {
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  nn::Dataset data = Task("sum", "legal", 128, 37);
  ASSERT_TRUE(lake->IngestModel(*TrainModel(data, 38),
                                Card("base", "sum", "sum/legal"))
                  .ok());
  ASSERT_TRUE(lake->IngestModel(*TrainModel(data, 39),
                                Card("derived", "sum", "sum/legal"))
                  .ok());

  Json cite1 = lake->CitationDoc("derived").ValueOrDie();
  Json cite1_again = lake->CitationDoc("derived").ValueOrDie();
  EXPECT_TRUE(cite1 == cite1_again) << "stable when the graph is unchanged";

  versioning::VersionEdge edge;
  edge.parent = "base";
  edge.child = "derived";
  edge.type = versioning::EdgeType::kFinetune;
  ASSERT_TRUE(lake->RecordEdge(edge).ok());

  Json cite2 = lake->CitationDoc("derived").ValueOrDie();
  EXPECT_GT(cite2.GetInt64("graph_revision"), cite1.GetInt64("graph_revision"));
  // Lineage path now includes the parent.
  ASSERT_EQ(cite2.Find("lineage_path")->size(), 2u);
  EXPECT_NE(cite2.GetString("text").find("base -> derived"),
            std::string::npos);
  EXPECT_TRUE(lake->CitationDoc("ghost").status().IsNotFound());
}

TEST_F(ModelLakeTest, FsckDetectsCorruptedArtifacts) {
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  nn::Dataset data = Task("sum", "legal", 128, 40);
  ASSERT_TRUE(lake->IngestModel(*TrainModel(data, 41),
                                Card("victim", "sum", "sum/legal"))
                  .ok());
  EXPECT_TRUE(lake->FsckArtifacts().ValueOrDie().empty());

  // Corrupt the blob on disk.
  Json model_doc = lake->catalog()->GetDoc("model", "victim").ValueOrDie();
  std::string digest = model_doc.GetString("artifact_digest");
  std::string path = JoinPath(JoinPath(dir_, "blobs/objects"),
                              digest.substr(0, 2) + "/" + digest);
  std::string bytes = ReadFile(path).ValueOrDie();
  bytes[bytes.size() / 2] ^= 0xFF;
  ASSERT_TRUE(WriteFile(path, bytes).ok());

  auto corrupted = lake->FsckArtifacts().ValueOrDie();
  EXPECT_EQ(corrupted, std::vector<std::string>{"victim"});
  EXPECT_TRUE(lake->LoadModel("victim").status().IsCorruption());
}

TEST_F(ModelLakeTest, HeritageRecoveryThroughTheLake) {
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  nn::Dataset data = Task("sum", "legal", 160, 42);
  auto base = TrainModel(data, 43);
  ASSERT_TRUE(
      lake->IngestModel(*base, Card("base", "sum", "sum/legal")).ok());
  // Child: a real fine-tune toward a different family (enough training
  // that the kurtosis direction signal is reliable).
  auto child = base->Clone();
  nn::TrainConfig light;
  light.epochs = 6;
  light.lr = 2e-3f;
  ASSERT_TRUE(
      nn::Train(child.get(), Task("other", "d", 96, 44), light).ok());
  ASSERT_TRUE(
      lake->IngestModel(*child, Card("child", "other", "other/d")).ok());
  // An unrelated model.
  ASSERT_TRUE(lake->IngestModel(*TrainModel(Task("x", "d", 160, 45), 46),
                                Card("stranger", "x", "x/d"))
                  .ok());

  auto recovered = lake->RecoverHeritage();
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.ValueUnsafe().graph.HasEdge("base", "child"));
  EXPECT_TRUE(recovered.ValueUnsafe().graph.Parents("stranger").empty());
}

TEST_F(ModelLakeTest, UpdateCardReindexesKeywordSearch) {
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  nn::Dataset data = Task("sum", "legal", 128, 47);
  ASSERT_TRUE(lake->IngestModel(*TrainModel(data, 48),
                                Card("m", "sum", "sum/legal"))
                  .ok());
  EXPECT_TRUE(lake->KeywordScores("wombat", 5).ValueOrDie().empty());
  metadata::ModelCard card = lake->CardFor("m").ValueOrDie();
  card.description = "now about wombat detection";
  ASSERT_TRUE(lake->UpdateCard(card).ok());
  EXPECT_EQ(lake->KeywordScores("wombat", 5).ValueOrDie().size(), 1u);
  metadata::ModelCard ghost;
  ghost.model_id = "ghost";
  EXPECT_TRUE(lake->UpdateCard(ghost).IsNotFound());
}

TEST_F(ModelLakeTest, HybridSearchFusesBothSignals) {
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  nn::Dataset task_a = Task("task-a", "d", 128, 60);
  nn::Dataset task_b = Task("task-b", "d", 128, 61);
  // a2 behaves like a1 but its card says nothing; b1 has a keyword-rich
  // card but different behavior. Hybrid should rank a2 (embedding signal)
  // above b1 (keyword-only signal is diluted by rank fusion when the
  // embedding rank is poor) or at minimum return both with a2 present.
  metadata::ModelCard a1 = Card("a1", "alpha-task", "da");
  a1.description = "the alpha reference model";
  ASSERT_TRUE(lake->IngestModel(*TrainModel(task_a, 62), a1).ok());
  metadata::ModelCard a2;
  a2.model_id = "a2";  // undocumented twin
  ASSERT_TRUE(lake->IngestModel(*TrainModel(task_a, 63), a2).ok());
  metadata::ModelCard b1 = Card("b1", "alpha-task", "db");
  b1.description = "alpha alpha alpha keyword stuffing";
  ASSERT_TRUE(lake->IngestModel(*TrainModel(task_b, 64), b1).ok());

  auto hybrid = lake->HybridSearch("alpha", "a1", 3);
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
  ASSERT_EQ(hybrid.ValueUnsafe().size(), 2u);
  // The undocumented behavioral twin is found despite its empty card.
  bool found_twin = false;
  for (const auto& m : hybrid.ValueUnsafe()) {
    if (m.id == "a2") found_twin = true;
    EXPECT_NE(m.id, "a1");  // query model excluded
  }
  EXPECT_TRUE(found_twin);
}

TEST_F(ModelLakeTest, TrainedOnFindsOverlappingDatasetVersions) {
  // "find models trained on versions of the dataset" (§5 holistic mgmt).
  auto lake = ModelLake::Open(options_).MoveValueUnsafe();
  std::vector<std::string> v1, v2, other;
  for (int i = 0; i < 12; ++i) v1.push_back(StrFormat("core#%d", i));
  v2 = v1;  // v2 shares 12 of 18 shards with v1
  for (int i = 0; i < 6; ++i) {
    v2.push_back(StrFormat("extra#%d", i));
    v1.push_back(StrFormat("old#%d", i));
  }
  for (int i = 0; i < 18; ++i) other.push_back(StrFormat("elsewhere#%d", i));
  ASSERT_TRUE(lake->RegisterDataset("corpus-v1", v1).ok());
  ASSERT_TRUE(lake->RegisterDataset("corpus-v2", v2).ok());
  ASSERT_TRUE(lake->RegisterDataset("other", other).ok());

  nn::Dataset data = Task("sum", "legal", 128, 49);
  ASSERT_TRUE(lake->IngestModel(*TrainModel(data, 50),
                                Card("on-v1", "sum", "corpus-v1"))
                  .ok());
  ASSERT_TRUE(lake->IngestModel(*TrainModel(data, 51),
                                Card("on-v2", "sum", "corpus-v2"))
                  .ok());
  ASSERT_TRUE(lake->IngestModel(*TrainModel(data, 52),
                                Card("on-other", "sum", "other"))
                  .ok());

  // Querying v1 with a 0.3 overlap threshold finds both versions.
  auto hits = lake->TrainedOn("corpus-v1", 0.3).ValueOrDie();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].first, "on-v1");
  EXPECT_EQ(hits[1].first, "on-v2");
  // Exact-name-only threshold.
  auto strict = lake->TrainedOn("corpus-v1", 0.99).ValueOrDie();
  ASSERT_EQ(strict.size(), 1u);
  EXPECT_EQ(strict[0].first, "on-v1");
}

}  // namespace
}  // namespace mlake::core
