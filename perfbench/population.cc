#include "population.h"

#include <cmath>
#include <numeric>

#include "common/hash.h"
#include "common/random.h"
#include "common/sharding.h"
#include "common/string_util.h"
#include "nn/model.h"
#include "server/http.h"
#include "storage/model_artifact.h"

namespace perfbench {

using mlake::Rng;

const std::vector<std::string>& Families() {
  // Twelve families give each family token a document frequency near
  // 10000 / 12 = 833, inside the 600..10000 band discover queries use.
  static const std::vector<std::string> v = {
      "summarization", "translation",    "sentiment", "tagging",
      "answering",     "paraphrase",     "moderation", "retrieval",
      "captioning",    "classification", "detection",  "generation"};
  return v;
}

const std::vector<std::string>& Domains() {
  static const std::vector<std::string> v = {"legal",   "medical", "news",
                                             "finance", "social",  "scientific"};
  return v;
}

const std::vector<std::string>& Creators() {
  static const std::vector<std::string> v = {
      "acme", "deltaml", "orbit", "northwind", "lumen", "quanta", "helix",
      "vertex"};
  return v;
}

const std::vector<std::string>& Licenses() {
  static const std::vector<std::string> v = {"apache", "mit", "cc", "openrail"};
  return v;
}

const std::vector<std::string>& Architectures() {
  static const std::vector<std::string> v = {"mlp", "resmlp", "transformer",
                                             "convnet"};
  return v;
}

int64_t DefaultEmbeddingDim() {
  mlake::core::LakeOptions defaults;
  return static_cast<int64_t>(defaults.probe_count) * defaults.num_classes;
}

namespace {

std::vector<float> UnitVector(std::vector<float> v) {
  double norm_sq = 0.0;
  for (float x : v) norm_sq += static_cast<double>(x) * x;
  const float inv =
      norm_sq > 0.0 ? static_cast<float>(1.0 / std::sqrt(norm_sq)) : 0.0f;
  for (float& x : v) x *= inv;
  return v;
}

mlake::metadata::ModelCard MakeCard(const std::string& id, size_t family,
                                    size_t domain, Rng* rng) {
  mlake::metadata::ModelCard card;
  card.model_id = id;
  card.name = id;
  card.task = Families()[family];
  card.tags = {Domains()[domain]};
  card.architecture = Architectures()[rng->NextBelow(Architectures().size())];
  card.description = mlake::StrFormat("Synthetic %s model for %s text.",
                                      card.task.c_str(), card.tags[0].c_str());
  card.training_datasets = {card.task + "/" + card.tags[0]};
  card.creator = Creators()[rng->NextBelow(Creators().size())];
  card.license = Licenses()[rng->NextBelow(Licenses().size())];
  return card;
}

}  // namespace

Population MakePopulation(uint64_t seed, size_t n) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const size_t dim = static_cast<size_t>(DefaultEmbeddingDim());
  std::vector<std::vector<float>> centroids(Families().size());
  for (auto& c : centroids) {
    c.resize(dim);
    for (float& x : c) x = static_cast<float>(rng.Normal());
    c = UnitVector(std::move(c));
  }
  Population pop;
  pop.models.resize(n);
  pop.shard.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t family = rng.NextBelow(Families().size());
    const size_t domain = rng.NextBelow(Domains().size());
    const std::string id = mlake::StrFormat(
        "pb-%s-%s-%05zu", Families()[family].c_str(),
        Domains()[domain].c_str(), i);
    pop.models[i].card = MakeCard(id, family, domain, &rng);
    std::vector<float> v = centroids[family];
    for (float& x : v) x += static_cast<float>(0.25 * rng.Normal());
    pop.models[i].embedding = UnitVector(std::move(v));
    pop.shard[i] = static_cast<int>(mlake::ShardSlotForId(id, kShards));
  }
  pop.popular.resize(n);
  std::iota(pop.popular.begin(), pop.popular.end(), size_t{0});
  for (size_t i = n; i > 1; --i) {
    std::swap(pop.popular[i - 1], pop.popular[rng.NextBelow(i)]);
  }
  return pop;
}

namespace {

/// A serialized single-hidden-layer MLP (lake-default io dims) whose
/// size is the `quantile` (in [0, 1)) of the log-uniform law over
/// [4 KiB, 1 MiB].
std::string MakeArtifact(double quantile, Rng* rng) {
  const mlake::core::LakeOptions defaults;
  const double target = std::exp(std::log(4096.0) +
                                 quantile * (std::log(1048576.0) - std::log(4096.0)));
  // Parameters of in -> h -> classes: (in + 1 + classes) * h + classes.
  const double per_unit =
      4.0 * static_cast<double>(defaults.input_dim + 1 + defaults.num_classes);
  const int64_t hidden =
      std::max<int64_t>(4, static_cast<int64_t>(target / per_unit));
  auto model = mlake::nn::BuildModel(
      mlake::nn::MlpSpec(defaults.input_dim, {hidden}, defaults.num_classes),
      rng);
  if (!model.ok()) return std::string();
  return mlake::storage::SerializeArtifact(mlake::storage::ArtifactFromModel(
      *model.ValueUnsafe(), mlake::Json::MakeObject()));
}

}  // namespace

std::vector<WriteInput> MakeWrites(uint64_t seed, size_t first_seq,
                                   size_t count) {
  Rng rng(seed * 0xD1B54A32D192ED03ULL + first_seq + 7);
  // Stratified sizes: every block of kStrata consecutive writes draws
  // one size from each 1/kStrata slice of the law, in seeded order, so
  // the bytes a run ingests hardly vary with the seed.
  constexpr size_t kStrata = 16;
  std::vector<size_t> strata(kStrata);
  std::vector<WriteInput> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % kStrata == 0) {
      for (size_t k = 0; k < kStrata; ++k) strata[k] = k;
      for (size_t k = kStrata; k > 1; --k) {
        std::swap(strata[k - 1], strata[rng.NextBelow(k)]);
      }
    }
    const double quantile =
        (static_cast<double>(strata[i % kStrata]) + rng.NextDouble()) / kStrata;
    const size_t seq = first_seq + i;
    const size_t family = rng.NextBelow(Families().size());
    const size_t domain = rng.NextBelow(Domains().size());
    WriteInput w;
    w.id = mlake::StrFormat("pb-%s-%s-w%05zu", Families()[family].c_str(),
                            Domains()[domain].c_str(), seq);
    mlake::metadata::ModelCard card = MakeCard(w.id, family, domain, &rng);
    card.architecture = "mlp";
    const std::string artifact = MakeArtifact(quantile, &rng);
    w.artifact_bytes = artifact.size();
    w.owner_shard = static_cast<int>(mlake::ShardSlotForDigest(
        mlake::Sha256::HexDigest(artifact), kShards));
    mlake::Json body = mlake::Json::MakeObject();
    body.Set("card", card.ToJson());
    body.Set("artifact_b64", mlake::server::Base64Encode(artifact));
    w.body = body.Dump();
    out.push_back(std::move(w));
  }
  return out;
}

std::vector<std::string> MakeArtifacts(uint64_t seed, size_t count) {
  Rng rng(seed * 0x94D049BB133111EBULL + 3);
  std::vector<std::string> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(MakeArtifact(rng.NextDouble(), &rng));
  }
  return out;
}

}  // namespace perfbench
