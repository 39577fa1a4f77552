// The replica-apply crash matrix: a child process applying a streamed
// leader log batch (the real Replicator::Ship path, inline blobs, no
// network) is really killed at EVERY mutating filesystem op, in both
// crash styles. The parent then reopens the replica, replays the same
// batch — redelivery must be detected and skipped for whatever survived
// — and asserts the replica converges to the leader's exact logical
// state. This is the acceptance test for crash-safe replica catch-up.

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_fs.h"
#include "common/file_util.h"
#include "common/random.h"
#include "core/model_lake.h"
#include "nn/trainer.h"
#include "replication/replicator.h"
#include "server/http.h"
#include "server/server.h"

namespace mlake::replication {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kClasses = 4;

class ReplicationCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = MakeTempDir("mlake-repl-crash").ValueOrDie();

    // The leader: two models, one edge, one dataset — every replicated
    // op kind is in the batch.
    std::string leader_dir = JoinPath(root_, "leader");
    auto leader =
        core::ModelLake::Open(Options(leader_dir)).MoveValueUnsafe();
    auto m1 = MakeModel(11);
    auto m2 = MakeModel(12);
    ASSERT_TRUE(leader->IngestModel(*m1, Card("r1")).ok());
    ASSERT_TRUE(leader->IngestModel(*m2, Card("r2")).ok());
    versioning::VersionEdge edge;
    edge.parent = "r1";
    edge.child = "r2";
    edge.type = versioning::EdgeType::kFinetune;
    ASSERT_TRUE(leader->RecordEdge(edge).ok());
    ASSERT_TRUE(leader->RegisterDataset("crash/ds", {"s1"}).ok());

    // Freeze the leader's log as one Ship batch with inline blobs (the
    // leader-push wire shape; no HTTP so the child is self-contained).
    Json log = leader->ReplicationLogJson(1, 100).ValueOrDie();
    batch_ = Json::MakeObject();
    batch_.Set("epoch", log.GetInt64("epoch"));
    batch_.Set("last_seq", log.GetInt64("last_seq"));
    batch_.Set("exhausted", true);
    Json blobs = Json::MakeObject();
    const Json* entries = log.Find("entries");
    ASSERT_NE(entries, nullptr);
    for (const Json& entry : entries->AsArray()) {
      const Json* digests = entry.Find("digests");
      if (digests == nullptr) continue;
      for (const Json& digest : digests->AsArray()) {
        std::string bytes = leader->ReadBlob(digest.AsString()).ValueOrDie();
        blobs.Set(digest.AsString(), server::Base64Encode(bytes));
      }
    }
    batch_.Set("entries", *entries);
    batch_.Set("blobs", std::move(blobs));
    leader_fingerprint_ = leader->ReplicationFingerprint();
    leader_last_seq_ = leader->ReplicationLastSeq();

    // The template every trial starts from: an empty replica lake.
    template_dir_ = JoinPath(root_, "template");
    {
      auto replica =
          core::ModelLake::Open(Options(template_dir_)).MoveValueUnsafe();
    }
  }

  void TearDown() override { ASSERT_TRUE(RemoveAll(root_).ok()); }

  static core::LakeOptions Options(const std::string& root,
                                   Fs* fs = nullptr) {
    core::LakeOptions options;
    options.root = root;
    options.input_dim = kDim;
    options.num_classes = kClasses;
    options.probe_count = 8;
    options.exec = {};  // serial: the op sequence must be deterministic
    options.fs = fs;
    options.retry = RetryPolicy::None();
    options.replication_log = true;
    return options;
  }

  static std::unique_ptr<nn::Model> MakeModel(uint64_t seed) {
    Rng rng(seed);
    return nn::BuildModel(nn::MlpSpec(kDim, {8}, kClasses), &rng)
        .MoveValueUnsafe();
  }

  static metadata::ModelCard Card(const std::string& id) {
    metadata::ModelCard card;
    card.model_id = id;
    card.name = id;
    card.task = "classify";
    card.training_datasets = {"synthetic/" + id};
    card.creator = "repl-crash";
    return card;
  }

  /// Open the replica under `fs` and apply the frozen batch through the
  /// real Replicator::Ship path. 0 = applied; 3/4/5 = failed without
  /// crashing (open / replicator / ship respectively).
  int OpenAndShip(const std::string& trial, Fs* fs) {
    auto opened = core::ModelLake::Open(Options(trial, fs));
    if (!opened.ok()) return 3;
    auto lake = opened.MoveValueUnsafe();
    ReplicaOptions options;
    options.fs = fs;
    auto replicator = Replicator::Open(lake.get(), options);
    if (!replicator.ok()) return 4;
    return replicator.ValueUnsafe()->Ship(batch_).ok() ? 0 : 5;
  }

  std::string CloneTemplate(const std::string& name) {
    std::string trial = JoinPath(root_, name);
    std::filesystem::copy(template_dir_, trial,
                          std::filesystem::copy_options::recursive);
    return trial;
  }

  template <typename Body>
  int ForkAndWait(Body body) {
    fflush(nullptr);
    pid_t pid = fork();
    if (pid == 0) {
      _exit(body());
    }
    int wstatus = 0;
    if (waitpid(pid, &wstatus, 0) != pid) return -1;
    return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  }

  /// The post-crash contract: the replica reopens (journal rollback),
  /// fsck is clean, and replaying the same batch converges it to the
  /// leader's exact logical state with the watermark at last_seq.
  void ExpectRecoversAndConverges(const std::string& trial,
                                  const std::string& label) {
    {
      auto opened = core::ModelLake::Open(Options(trial));
      ASSERT_TRUE(opened.ok()) << label << ": " << opened.status().ToString();
      auto lake = opened.MoveValueUnsafe();
      auto fsck = lake->FsckArtifacts();
      ASSERT_TRUE(fsck.ok()) << label;
      EXPECT_TRUE(fsck.ValueUnsafe().empty()) << label;

      ReplicaOptions options;
      auto replicator = Replicator::Open(lake.get(), options);
      ASSERT_TRUE(replicator.ok())
          << label << ": " << replicator.status().ToString();
      auto shipped = replicator.ValueUnsafe()->Ship(batch_);
      ASSERT_TRUE(shipped.ok()) << label << ": "
                                << shipped.status().ToString();
      EXPECT_EQ(replicator.ValueUnsafe()->AppliedSeq(), leader_last_seq_)
          << label;
      EXPECT_EQ(lake->ReplicationFingerprint(), leader_fingerprint_)
          << label;
      std::vector<std::string> want = {"r1", "r2"};
      EXPECT_EQ(lake->ListModels(), want) << label;
      EXPECT_TRUE(lake->HasEdge("r1", "r2")) << label;
      EXPECT_TRUE(lake->DatasetShards("crash/ds").ok()) << label;
    }
    // No atomic-write temp residue anywhere in the trial tree.
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(trial)) {
      EXPECT_FALSE(IsTmpFileName(entry.path().filename().string()))
          << label << ": stray " << entry.path();
    }
  }

  std::string root_;
  std::string template_dir_;
  Json batch_;
  std::string leader_fingerprint_;
  uint64_t leader_last_seq_ = 0;
};

TEST_F(ReplicationCrashTest, EveryApplyCrashPointRecoversAndConverges) {
  // Probe the mutating-op count of one full apply on a clone (serial
  // execution makes the sequence reproducible across clones).
  uint64_t probe_total = 0;
  {
    std::string probe = CloneTemplate("count");
    FaultInjectingFs fs(RealFs(), FaultPlan{});
    ASSERT_EQ(OpenAndShip(probe, &fs), 0);
    probe_total = fs.mutating_ops();
    ASSERT_TRUE(RemoveAll(probe).ok());
  }
  ASSERT_GT(probe_total, 0u);

  size_t trials = 0;
  for (CrashStyle style : {CrashStyle::kBeforeOp, CrashStyle::kTornOp}) {
    for (uint64_t crash_op = 1; crash_op <= probe_total; ++crash_op) {
      std::string label =
          std::string(style == CrashStyle::kBeforeOp ? "before" : "torn") +
          "-op-" + std::to_string(crash_op);
      std::string trial = CloneTemplate(label);
      int exit_code = ForkAndWait([&] {
        FaultPlan plan;
        plan.crash_at_op = crash_op;
        plan.crash_style = style;
        plan.crash_exits_process = true;
        FaultInjectingFs fs(RealFs(), plan);
        return OpenAndShip(trial, &fs);
      });
      ASSERT_EQ(exit_code, kCrashExitCode) << label;
      ExpectRecoversAndConverges(trial, label);
      ASSERT_TRUE(RemoveAll(trial).ok());
      ++trials;
    }
  }
  EXPECT_EQ(trials, 2 * probe_total);
}

// The seed-install crash matrix: a leader with a published index
// generation and a tail of later writes, served over loopback; a child
// process bootstraps an empty replica through the real
// Replicator::SyncOnce (seed fetch, blob fetch, record / index-file /
// watermark install, tail replay) and is killed at every mutating
// filesystem op — after the records, after the files, before the
// watermark and everywhere between. The reopened replica must converge
// to the leader without ever replaying the seeded log prefix over a
// half-installed catalog.
TEST_F(ReplicationCrashTest, EverySeedInstallCrashPointRecoversAndConverges) {
  std::string leader_dir = JoinPath(root_, "seed-leader");
  auto leader = core::ModelLake::Open(Options(leader_dir)).MoveValueUnsafe();
  auto m1 = MakeModel(21);
  ASSERT_TRUE(leader->IngestModel(*m1, Card("s1")).ok());
  std::vector<core::CardIngest> cards(6);
  for (size_t i = 0; i < cards.size(); ++i) {
    cards[i].card = Card("c" + std::to_string(i));
    cards[i].embedding.assign(static_cast<size_t>(leader->EmbeddingDim()),
                              0.1f * static_cast<float>(i + 1));
  }
  ASSERT_TRUE(leader->IngestCards(cards).ok());
  versioning::VersionEdge edge;
  edge.parent = "s1";
  edge.child = "c0";
  edge.type = versioning::EdgeType::kFinetune;
  ASSERT_TRUE(leader->RecordEdge(edge).ok());
  ASSERT_TRUE(leader->RegisterDataset("seed/ds", {"a", "b"}).ok());
  ASSERT_TRUE(leader->CompactIndices().ok());
  // The tail the replica replays after the seed: two entries.
  auto m2 = MakeModel(22);
  ASSERT_TRUE(leader->IngestModel(*m2, Card("s2")).ok());
  ASSERT_TRUE(leader->RegisterDataset("seed/late", {"c"}).ok());
  constexpr uint64_t kTailEntries = 2;

  server::ServerOptions server_options;
  server_options.threads = 2;
  server::LakeServer server(leader.get(), server_options);
  ASSERT_TRUE(server.Start().ok());
  const std::string fingerprint = leader->ReplicationFingerprint();
  const uint64_t last_seq = leader->ReplicationLastSeq();
  const uint64_t generation = leader->IndexGeneration();

  auto sync = [&](const std::string& trial, Fs* fs) {
    auto opened = core::ModelLake::Open(Options(trial, fs));
    if (!opened.ok()) return 3;
    auto lake = opened.MoveValueUnsafe();
    ReplicaOptions options;
    options.leader_port = server.port();
    options.fs = fs;
    auto replicator = Replicator::Open(lake.get(), options);
    if (!replicator.ok()) return 4;
    return replicator.ValueUnsafe()->SyncOnce().ok() ? 0 : 5;
  };

  uint64_t probe_total = 0;
  {
    std::string probe = CloneTemplate("seed-count");
    FaultInjectingFs fs(RealFs(), FaultPlan{});
    ASSERT_EQ(sync(probe, &fs), 0);
    probe_total = fs.mutating_ops();
    ASSERT_TRUE(RemoveAll(probe).ok());
  }
  ASSERT_GT(probe_total, 0u);

  for (CrashStyle style : {CrashStyle::kBeforeOp, CrashStyle::kTornOp}) {
    for (uint64_t crash_op = 1; crash_op <= probe_total; ++crash_op) {
      std::string label =
          std::string(style == CrashStyle::kBeforeOp ? "seed-before" :
                                                       "seed-torn") +
          "-op-" + std::to_string(crash_op);
      std::string trial = CloneTemplate(label);
      int exit_code = ForkAndWait([&] {
        FaultPlan plan;
        plan.crash_at_op = crash_op;
        plan.crash_style = style;
        plan.crash_exits_process = true;
        FaultInjectingFs fs(RealFs(), plan);
        return sync(trial, &fs);
      });
      ASSERT_EQ(exit_code, kCrashExitCode) << label;
      {
        auto lake = core::ModelLake::Open(Options(trial)).MoveValueUnsafe();
        auto fsck = lake->FsckArtifacts();
        ASSERT_TRUE(fsck.ok()) << label;
        EXPECT_TRUE(fsck.ValueUnsafe().empty()) << label;
        ReplicaOptions options;
        options.leader_port = server.port();
        auto replicator =
            Replicator::Open(lake.get(), options).MoveValueUnsafe();
        auto synced = replicator->SyncOnce();
        ASSERT_TRUE(synced.ok()) << label << ": "
                                 << synced.status().ToString();
        EXPECT_LE(replicator->entries_applied(), kTailEntries) << label;
        EXPECT_EQ(replicator->AppliedSeq(), last_seq) << label;
        EXPECT_EQ(lake->ReplicationFingerprint(), fingerprint) << label;
        EXPECT_EQ(lake->IndexGeneration(), generation) << label;
        EXPECT_TRUE(lake->HasEdge("s1", "c0")) << label;
      }
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(trial)) {
        EXPECT_FALSE(IsTmpFileName(entry.path().filename().string()))
            << label << ": stray " << entry.path();
      }
      ASSERT_TRUE(RemoveAll(trial).ok());
    }
  }
  ASSERT_TRUE(server.Stop().ok());
}

// A crash-free apply followed by a redelivered batch is a no-op: every
// entry is detected as already applied and the state stays identical.
TEST_F(ReplicationCrashTest, RedeliveredBatchIsIdempotent) {
  std::string trial = CloneTemplate("redeliver");
  ASSERT_EQ(OpenAndShip(trial, nullptr), 0);
  auto lake = core::ModelLake::Open(Options(trial)).MoveValueUnsafe();
  ReplicaOptions options;
  auto replicator = Replicator::Open(lake.get(), options).MoveValueUnsafe();
  auto shipped = replicator->Ship(batch_);
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
  EXPECT_EQ(shipped.ValueUnsafe().GetInt64("applied"), 0);
  EXPECT_EQ(lake->ReplicationFingerprint(), leader_fingerprint_);
}

}  // namespace
}  // namespace mlake::replication

#endif  // defined(__unix__) || defined(__APPLE__)
