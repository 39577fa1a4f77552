// The replication seed as a byte-parsing boundary: encode/parse round
// trips, and a seeded, deterministic mutation loop over a valid seed
// container (truncations, bit flips in the header, TOC and sections,
// edited CSR offsets and counts with their checksums patched so the
// structural checks are reached). Every mutant is either refused with a
// non-OK Status that leaves the replica exactly as it was, or installs
// a state equal to the fingerprint it declares.

#include "core/replication_seed.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/model_lake.h"
#include "replication/replicator.h"

namespace mlake::replication {
namespace {

core::LakeOptions LakeOpts(const std::string& root) {
  core::LakeOptions options;
  options.root = root;
  options.probe_count = 4;
  options.replication_log = true;
  return options;
}

std::vector<core::CardIngest> Cards(core::ModelLake* lake,
                                    const std::string& prefix, int n,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<core::CardIngest> batch(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    batch[i].card.model_id = StrFormat("%s-%02d", prefix.c_str(), i);
    batch[i].card.name = batch[i].card.model_id;
    batch[i].card.task = i % 2 == 0 ? "sum" : "mean";
    batch[i].card.creator = "seed-fuzz";
    for (int64_t d = 0; d < lake->EmbeddingDim(); ++d) {
      batch[i].embedding.push_back(static_cast<float>(rng.Uniform(-1, 1)));
    }
  }
  return batch;
}

/// Where one named section sits inside a container (see
/// index/snapshot.h for the header and TOC layout).
struct SectionSpan {
  size_t index = 0;
  size_t offset = 0;
  size_t size = 0;
};

std::vector<std::pair<std::string, SectionSpan>> Sections(
    const std::string& bytes) {
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + 32, 8);
  std::vector<std::pair<std::string, SectionSpan>> out;
  for (uint64_t i = 0; i < count; ++i) {
    const char* e = bytes.data() + 48 + i * 32;
    SectionSpan span;
    span.index = i;
    std::memcpy(&span.offset, e + 16, 8);
    std::memcpy(&span.size, e + 24, 8);
    out.emplace_back(std::string(e, strnlen(e, 16)), span);
  }
  return out;
}

/// Re-stamps section `name`'s checksum in the trailing "crc" section.
void PatchCrc(std::string* bytes, const std::string& name) {
  auto sections = Sections(*bytes);
  const SectionSpan& crc = sections.back().second;
  for (const auto& [n, span] : sections) {
    if (n != name) continue;
    uint32_t value = Crc32(bytes->data() + span.offset, span.size);
    std::memcpy(bytes->data() + crc.offset + 4 * span.index, &value, 4);
  }
}

class ReplicationSeedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = MakeTempDir("mlake-seed").ValueOrDie();
    leader_ = core::ModelLake::Open(LakeOpts(JoinPath(root_, "leader")))
                  .MoveValueUnsafe();
    ASSERT_TRUE(leader_->IngestCards(Cards(leader_.get(), "m", 20, 1)).ok());
    ASSERT_TRUE(leader_->RegisterDataset("corpus/a", {"s1", "s2"}).ok());
    versioning::VersionEdge edge;
    edge.parent = "m-00";
    edge.child = "m-01";
    edge.type = versioning::EdgeType::kFinetune;
    edge.params = Json::MakeObject();
    edge.params.Set("lr", 0.01);
    ASSERT_TRUE(leader_->RecordEdge(edge).ok());
    ASSERT_TRUE(leader_->CompactIndices().ok());
    // A tail past the generation, so the cut excludes real records.
    ASSERT_TRUE(leader_->IngestCards(Cards(leader_.get(), "t", 3, 2)).ok());
    ASSERT_TRUE(leader_->RegisterDataset("corpus/b", {"s3"}).ok());
    seed_ = leader_->EncodeReplicationSeed().ValueOrDie();
  }

  void TearDown() override {
    leader_.reset();
    ASSERT_TRUE(RemoveAll(root_).ok());
  }

  std::string root_;
  std::unique_ptr<core::ModelLake> leader_;
  std::string seed_;
};

TEST_F(ReplicationSeedTest, CutAtGenerationRoundTrips) {
  auto parsed = core::ReplicationSeed::Parse(seed_, {});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const core::ReplicationSeed& seed = parsed.ValueUnsafe();
  EXPECT_EQ(seed.generation(), leader_->IndexGeneration());
  EXPECT_EQ(seed.records(0).size(), 20u);  // the tail's 3 models are cut
  EXPECT_EQ(seed.records(3).size(), 1u);   // corpus/b came later
  ASSERT_EQ(seed.edges().size(), 1u);
  EXPECT_EQ(seed.edges()[0].params.GetDouble("lr"), 0.01);
  EXPECT_FALSE(seed.index_file(0).empty());

  auto replica = core::ModelLake::Open(LakeOpts(JoinPath(root_, "replica")))
                     .MoveValueUnsafe();
  ASSERT_TRUE(replica->InstallReplicationSeed(seed, nullptr).ok());
  EXPECT_EQ(replica->ReplicationFingerprint(), seed.fingerprint());
  EXPECT_EQ(replica->ReplicationLastSeq(), seed.seq());
  EXPECT_EQ(replica->IndexGeneration(), leader_->IndexGeneration());
  EXPECT_EQ(replica->NumModels(), 20u);
  // Installing the same seed again changes nothing.
  ASSERT_TRUE(replica->InstallReplicationSeed(seed, nullptr).ok());
  EXPECT_EQ(replica->ReplicationFingerprint(), seed.fingerprint());
}

TEST_F(ReplicationSeedTest, MutatedSeedsAreRefusedOrInstallWhatTheyDeclare) {
  auto replica = core::ModelLake::Open(LakeOpts(JoinPath(root_, "replica")))
                     .MoveValueUnsafe();
  ReplicaOptions options;
  options.leader_port = 1;  // never contacted: the seeds need no blobs
  auto replicator =
      Replicator::Open(replica.get(), options).MoveValueUnsafe();

  const auto sections = Sections(seed_);
  std::vector<std::string> tables = {"rec_id_off", "rec_off", "edge_off",
                                     "meta"};
  Rng rng(20251022);
  size_t refused = 0, installed = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::string mutant = seed_;
    const uint64_t kind = rng.NextBelow(6);
    if (kind == 0) {
      mutant.resize(rng.NextBelow(mutant.size()));
    } else if (kind == 1) {
      mutant[rng.NextBelow(48)] ^= static_cast<char>(1u << rng.NextBelow(8));
    } else if (kind == 2) {
      size_t toc = sections.size() * 32;
      mutant[48 + rng.NextBelow(toc)] ^=
          static_cast<char>(1u << rng.NextBelow(8));
    } else if (kind == 3) {
      const SectionSpan& span =
          sections[rng.NextBelow(sections.size())].second;
      if (span.size == 0) continue;
      mutant[span.offset + rng.NextBelow(span.size)] ^=
          static_cast<char>(1u << rng.NextBelow(8));
    } else {
      // An edited offset, length or count, with its checksum patched so
      // the shape checks (not the CRC) have to catch it.
      const std::string& name = tables[rng.NextBelow(tables.size())];
      for (const auto& [n, span] : sections) {
        if (n != name || span.size < 8) continue;
        size_t word = rng.NextBelow(span.size / 8);
        if (name == "meta" && word == 1) word = 0;  // keep the epoch
        uint64_t value = 0;
        std::memcpy(&value, mutant.data() + span.offset + 8 * word, 8);
        const uint64_t choice = rng.NextBelow(4);
        value = choice == 0   ? value + 1
                : choice == 1 ? value - 1
                : choice == 2 ? value + rng.NextBelow(64)
                              : ~uint64_t{0} - rng.NextBelow(4);
        std::memcpy(mutant.data() + span.offset + 8 * word, &value, 8);
        if (kind == 4) PatchCrc(&mutant, name);
      }
    }
    const std::string before = replica->ReplicationFingerprint();
    const uint64_t watermark = replicator->AppliedSeq();
    Status status = replicator->InstallSeed(mutant);
    if (!status.ok()) {
      ++refused;
      EXPECT_EQ(replica->ReplicationFingerprint(), before) << "trial " << trial;
      EXPECT_EQ(replicator->AppliedSeq(), watermark) << "trial " << trial;
      continue;
    }
    ++installed;
    auto declared = core::ReplicationSeed::Parse(mutant, {});
    ASSERT_TRUE(declared.ok()) << "trial " << trial;
    EXPECT_EQ(replica->ReplicationFingerprint(),
              declared.ValueUnsafe().fingerprint())
        << "trial " << trial;
    EXPECT_EQ(replicator->AppliedSeq(), declared.ValueUnsafe().seq());
  }
  EXPECT_GT(refused, 300u);
  // The untouched seed still installs, and exactly.
  ASSERT_TRUE(replicator->InstallSeed(seed_).ok());
  EXPECT_EQ(replica->ReplicationFingerprint(),
            core::ReplicationSeed::Parse(seed_, {}).ValueOrDie().fingerprint());
  std::printf("refused %zu, installed %zu\n", refused, installed);
}

}  // namespace
}  // namespace mlake::replication
