#ifndef MLAKE_REPLICATION_REPLICATOR_H_
#define MLAKE_REPLICATION_REPLICATOR_H_

// Journal-streaming replication (DESIGN.md §14).
//
// A leader lake opened with LakeOptions.replication_log keeps every
// committed intent as a replayable op-log entry; this module is the
// replica side. A Replicator follows one leader over the plain HTTP
// API: it pulls committed entries (GET /v1/replication/log), fetches
// the artifact blobs they reference (GET /v1/replication/blob/{digest},
// digest-verified), and applies each entry through the replica lake's
// normal journaled ingest path at the *leader's* seq and epoch — so the
// replica's log is a prefix of the leader's and its catalog, indexes
// and search responses are byte-identical once caught up.
//
// Durability & crash recovery: the watermark {applied_seq, epoch} is
// persisted to <root>/replica_state.json (WriteFileAtomic on the Fs
// seam, so FaultInjectingFs crash tests cover it) after every applied
// entry. A replica killed mid-apply reopens, the lake's own journal
// rolls back the half-applied entry, and the puller resumes from the
// durable watermark; redelivered entries are detected (ids already
// present with matching digests) and skipped.
//
// Fencing: every log batch carries the leader's epoch. A batch whose
// epoch is below the replica's durable epoch is rejected with
// FailedPrecondition — a partitioned old leader cannot roll the replica
// back. Higher epochs are adopted durably. Promote() bumps the epoch
// past everything seen and stops following; the server then routes
// writes here.
//
// Seeds: an empty replica (watermark 0) whose leader advertises a
// `seed_seq` (GET /v1/replication/fingerprint; > 0 when the leader has
// a published index generation) installs a replication seed
// (core/replication_seed.h, GET /v1/replication/seed) instead of
// replaying the log prefix: the leader's catalog records as stored
// bytes, its lineage edges and the generation's four snapshot files,
// cut at the seq the generation covers. The replica then replays only
// the tail through the normal apply path. A seed over the size cap
// (kMaxSeedBytes) is refused before anything is installed, and the
// replica replays the log from seq 1 instead. The same seed repairs divergence: every
// `fingerprint_interval_polls` caught-up polls the replica compares
// logical-state fingerprints with the leader. Both sides read
// ModelLake::ReplicationFingerprint, which is O(1): the catalog and the
// lineage graph keep order-independent digests up to date on every
// write, so an exchange costs microseconds, not a scan of the lake. A
// mismatch (or a log GET answered 409 because the leader truncated past
// our watermark, or a Corruption during apply) installs a fresh seed.
// A seed is verified whole (checksums, shapes, its fingerprint against
// its own records) before anything changes, and `seed_pending` in the
// state file marks an install in progress, so a replica killed part
// way re-installs before it replays any entry.

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "common/fs.h"
#include "common/json.h"
#include "common/result.h"
#include "common/status.h"
#include "core/model_lake.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/intent_journal.h"

namespace mlake::replication {

struct ReplicaOptions {
  std::string leader_host = "127.0.0.1";
  int leader_port = 0;
  /// Background puller cadence while caught up.
  int poll_interval_ms = 200;
  /// Max log entries per pull.
  int batch_max = 64;
  /// Fingerprint exchange every N caught-up polls (0 = never).
  int fingerprint_interval_polls = 8;
  /// Per-round-trip HTTP timeout for leader calls.
  int timeout_ms = 10000;
  /// Filesystem seam for the durable watermark (FaultInjectingFs in
  /// crash tests). nullptr = real filesystem.
  Fs* fs = nullptr;
};

/// Follows one leader, applies its log to `lake`, serves the server's
/// ReplicationControl seam. The lake must be opened with
/// LakeOptions.replication_log and must outlive the Replicator.
class Replicator : public server::ReplicationControl {
 public:
  /// Loads (or initializes) the durable watermark. Does not contact the
  /// leader yet.
  static Result<std::unique_ptr<Replicator>> Open(core::ModelLake* lake,
                                                  ReplicaOptions options);
  ~Replicator() override;

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Starts the background puller thread. Idempotent.
  Status Start();
  /// Stops and joins the puller. Idempotent; also run by the destructor.
  Status Stop();

  /// One synchronous catch-up pass: pulls log batches until the leader
  /// reports the log exhausted, re-seeding on truncation/divergence.
  /// Returns the number of entries applied. Test and startup seam — the
  /// background puller runs exactly this.
  Result<size_t> SyncOnce();

  /// Compares fingerprints with the leader (only meaningful when caught
  /// up) and re-seeds on mismatch. Exposed for tests.
  Status CheckDivergence();

  /// Installs a replication seed (the body GET /v1/replication/seed
  /// answers) and moves the watermark to its seq. A seed that fails
  /// verification is refused with the replica unchanged. The pull path
  /// runs exactly this; exposed for tests and pushed seeds.
  Status InstallSeed(std::string_view seed_bytes);

  // ---- server::ReplicationControl --------------------------------------
  bool IsReplica() const override { return is_replica_.load(); }
  uint64_t AppliedSeq() const override { return applied_seq_.load(); }
  Json StatszJson() const override;
  Result<Json> Ship(const Json& batch) override;
  Status Promote() override;
  /// Entries behind the leader's last observed log seq. Reads 0 before
  /// the first completed sync (the lag is simply unknown then —
  /// CaughtUp() is the gate, this is the magnitude).
  uint64_t LagEntries() const override;
  /// True once at least one sync has completed AND the watermark has
  /// reached the leader's last observed seq. Governance reads answer
  /// 503 until then.
  bool CaughtUp() const override;
  /// Retry-After to advertise with that 503: how long clearing the
  /// current lag should take at our pull cadence, clamped to [1, 30] s.
  int StaleRetryAfterSeconds() const override;

  uint64_t epoch() const { return epoch_.load(); }
  /// Seeds installed since Open (bootstrap and divergence repair).
  uint64_t seed_installs() const { return seed_installs_.load(); }
  /// Log entries applied since Open.
  uint64_t entries_applied() const { return entries_applied_.load(); }

 private:
  Replicator(core::ModelLake* lake, ReplicaOptions options);

  Status LoadState();
  /// Durably persists {applied_seq, epoch} (atomic write + dir fsync).
  Status PersistState();

  /// Applies one ReplicationLogJson-shaped batch under apply_mu_.
  /// `*applied` gains the number of entries newly applied; fencing and
  /// epoch adoption happen here.
  Status ApplyBatchLocked(const Json& batch, size_t* applied);
  Status ApplyEntryLocked(const storage::Intent& entry,
                          const Json* inline_blobs, size_t* applied);
  /// True when `entry` is already reflected in the lake (redelivery
  /// after a lost watermark); Corruption when the lake holds a
  /// *different* answer for one of the entry's ids.
  Result<bool> AlreadyApplied(const storage::Intent& entry) const;

  Result<std::string> FetchBlob(const std::string& digest);
  /// An empty replica's first step: installs the leader's seed when it
  /// advertises one, and leaves the log to do the work when it does not
  /// or when the seed is refused as too large.
  Status BootstrapFromSeedLocked();
  /// Fetches the leader's seed and installs it.
  Status ReseedFromLeaderLocked();
  Status InstallSeedLocked(std::string_view seed_bytes);
  Status CheckDivergenceLocked();

  void PullLoop();

  core::ModelLake* lake_;
  ReplicaOptions options_;
  Fs* fs_;  // never null
  std::string state_path_;

  /// Serializes every apply path (puller, Ship, re-seed, promote) and
  /// guards client_.
  std::mutex apply_mu_;
  std::unique_ptr<server::HttpClient> client_;

  std::atomic<uint64_t> applied_seq_{0};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> leader_last_seq_{0};
  std::atomic<bool> is_replica_{true};
  /// Set after the first successful full sync (or accepted Ship batch);
  /// until then leader_last_seq_ is not trustworthy and the node must
  /// not claim to be caught up.
  std::atomic<bool> synced_{false};
  /// A seed install began and has not finished (durable in the state
  /// file); the next sync installs a seed before anything else.
  bool seed_pending_ = false;

  std::atomic<bool> running_{false};
  std::thread puller_;

  // Observability (surfaced via StatszJson).
  std::atomic<uint64_t> entries_applied_{0};
  std::atomic<uint64_t> polls_{0};
  std::atomic<uint64_t> seed_installs_{0};
  std::atomic<uint64_t> rejected_stale_epoch_{0};
  std::atomic<uint64_t> pull_errors_{0};
};

}  // namespace mlake::replication

#endif  // MLAKE_REPLICATION_REPLICATOR_H_
