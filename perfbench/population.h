#ifndef PERFBENCH_POPULATION_H_
#define PERFBENCH_POPULATION_H_

// The benchmark's model population and write inputs, all derived from
// the workload seed. The shape is fixed across seeds (vocabulary sizes,
// document frequencies, artifact size range); the seed moves which
// model draws which family/domain/creator, the embedding noise, which
// models are popular, and the artifact weights.

#include <cstdint>
#include <string>
#include <vector>

#include "core/model_lake.h"

namespace perfbench {

inline constexpr size_t kPopulation = 10000;
inline constexpr int kShards = 2;

/// Card vocabulary. Every population card carries one family (task),
/// one domain (tag), one architecture, "synthetic" and "model" in its
/// search text, plus a five-digit model number that no other card has.
const std::vector<std::string>& Families();
const std::vector<std::string>& Domains();
const std::vector<std::string>& Creators();
const std::vector<std::string>& Licenses();
const std::vector<std::string>& Architectures();

struct Population {
  std::vector<mlake::core::CardIngest> models;  // in id order
  /// Popularity order: popular[r] is the model index at Zipf rank r.
  std::vector<size_t> popular;
  /// Shard slot of each model (ShardSlotForId over kShards).
  std::vector<int> shard;
};

/// Embedding dimension of a lake opened with default LakeOptions.
int64_t DefaultEmbeddingDim();

Population MakePopulation(uint64_t seed, size_t n);

/// One routed ingest: an artifact-backed model whose id carries a
/// unique "w<seq>" token.
struct WriteInput {
  std::string id;
  std::string body;      // POST /v1/ingest JSON
  size_t artifact_bytes = 0;
  int owner_shard = 0;   // ShardSlotForDigest of the artifact
};

/// `count` writes with sequence numbers [first_seq, first_seq + count).
/// Artifact sizes are log-uniform over [4 KiB, 1 MiB].
std::vector<WriteInput> MakeWrites(uint64_t seed, size_t first_seq,
                                   size_t count);

/// Serialized artifacts of the same size law (layer probes: hashing,
/// parsing, embedding).
std::vector<std::string> MakeArtifacts(uint64_t seed, size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_POPULATION_H_
