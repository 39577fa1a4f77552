// Quickstart: open a lake, train and ingest two models, run searches,
// inspect lineage and citations.
//
//   ./build/examples/quickstart [lake-dir]
//
// If no directory is given a temp dir is used and removed on exit.

#include <cstdio>

#include "common/file_util.h"
#include "core/model_lake.h"
#include "nn/trainer.h"
#include "nn/transform.h"

namespace {

using mlake::Rng;
using mlake::Status;
using mlake::Tensor;

mlake::nn::Dataset MakeData(const std::string& family,
                            const std::string& domain, size_t n,
                            uint64_t seed) {
  mlake::nn::TaskSpec spec;
  spec.family_id = family;
  spec.domain_id = domain;
  spec.dim = 32;
  spec.num_classes = 8;
  Rng rng(seed);
  return mlake::nn::SyntheticTask::Make(spec).Sample(n, &rng);
}

Status Run(const std::string& root) {
  // 1. Open (or create) a lake.
  mlake::core::LakeOptions options;
  options.root = root;
  MLAKE_ASSIGN_OR_RETURN(auto lake, mlake::core::ModelLake::Open(options));
  std::printf("opened lake at %s\n", root.c_str());

  // 2. Train a base model on a synthetic "legal summarization" task.
  mlake::nn::Dataset train = MakeData("summarization", "legal", 384, 1);
  mlake::nn::Dataset test = MakeData("summarization", "legal", 128, 2);
  Rng rng(3);
  MLAKE_ASSIGN_OR_RETURN(
      auto base, mlake::nn::BuildModel(
                     mlake::nn::MlpSpec(32, {64}, 8, "relu"), &rng));
  mlake::nn::TrainConfig config;
  config.epochs = 14;
  MLAKE_ASSIGN_OR_RETURN(auto report,
                         mlake::nn::Train(base.get(), train, config));
  std::printf("trained base model: train acc %.3f\n",
              report.final_accuracy);

  // 3. Document and ingest it.
  MLAKE_RETURN_NOT_OK(lake->RegisterDataset(
      "summarization/legal", {"legal#0", "legal#1", "legal#2"}));
  MLAKE_RETURN_NOT_OK(
      lake->RegisterBenchmark("summarization/legal:test", test));

  mlake::metadata::ModelCard card;
  card.model_id = "acme/legal-summarizer";
  card.name = "ACME legal summarizer";
  card.description =
      "Summarizes legal documents and simplifies them for non-experts.";
  card.task = "summarization";
  card.tags = {"legal", "english"};
  card.training_datasets = {"summarization/legal"};
  card.creator = "acme";
  card.license = "apache-2.0";
  MLAKE_RETURN_NOT_OK(lake->IngestModel(*base, card).status());
  std::printf("ingested %s\n", card.model_id.c_str());

  // 4. Derive a fine-tuned child and record the lineage edge.
  auto child = base->Clone();
  mlake::nn::Dataset medical = MakeData("summarization", "medical", 384, 4);
  config.epochs = 8;
  MLAKE_RETURN_NOT_OK(
      mlake::nn::Finetune(child.get(), medical, config).status());

  mlake::metadata::ModelCard child_card = card;
  child_card.model_id = "acme/medical-summarizer";
  child_card.name = "ACME medical summarizer";
  child_card.tags = {"medical", "english"};
  child_card.training_datasets = {"summarization/medical"};
  child_card.lineage = {"acme/legal-summarizer", "finetune"};
  MLAKE_RETURN_NOT_OK(lake->IngestModel(*child, child_card).status());

  mlake::versioning::VersionEdge edge;
  edge.parent = "acme/legal-summarizer";
  edge.child = "acme/medical-summarizer";
  edge.type = mlake::versioning::EdgeType::kFinetune;
  MLAKE_RETURN_NOT_OK(lake->RecordEdge(edge));
  std::printf("recorded lineage edge (graph revision %llu)\n",
              static_cast<unsigned long long>(lake->graph().revision()));

  // 5. Declarative search (MLQL).
  MLAKE_ASSIGN_OR_RETURN(
      auto result,
      lake->Query("FIND MODELS WHERE task = 'summarization' AND "
                  "tag('legal') LIMIT 5"));
  std::printf("\nMLQL: tag('legal') summarizers  [plan: %s]\n",
              result.plan.c_str());
  for (const auto& m : result.models) {
    std::printf("  %-28s score %.3f\n", m.id.c_str(), m.score);
  }

  // 6. Model-as-query related-model search.
  MLAKE_ASSIGN_OR_RETURN(auto related,
                         lake->RelatedModels("acme/legal-summarizer", 3));
  std::printf("\nrelated to acme/legal-summarizer:\n");
  for (const auto& m : related) {
    std::printf("  %-28s similarity %.3f\n", m.id.c_str(), m.score);
  }

  // 7. Benchmarking through the lake.
  MLAKE_ASSIGN_OR_RETURN(double acc,
                         lake->EvaluateModel("acme/legal-summarizer",
                                             "summarization/legal:test"));
  std::printf("\nbenchmark accuracy on summarization/legal:test: %.3f\n",
              acc);

  // 8. Citation pinned to the version-graph revision.
  MLAKE_ASSIGN_OR_RETURN(mlake::Json citation,
                         lake->CitationDoc("acme/medical-summarizer"));
  std::printf("\ncitation: %s\n", citation.GetString("text").c_str());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  bool cleanup = false;
  if (argc > 1) {
    root = argv[1];
  } else {
    auto tmp = mlake::MakeTempDir("mlake-quickstart");
    if (!tmp.ok()) {
      std::fprintf(stderr, "error: %s\n", tmp.status().ToString().c_str());
      return 1;
    }
    root = tmp.ValueUnsafe();
    cleanup = true;
  }
  Status st = Run(root);
  if (cleanup) (void)mlake::RemoveAll(root);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
