#ifndef MLAKE_STORAGE_INTENT_JOURNAL_H_
#define MLAKE_STORAGE_INTENT_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/json.h"
#include "common/result.h"
#include "common/status.h"

namespace mlake::storage {

/// One pending multi-step lake mutation, written durably *before* the
/// mutation starts touching blobs and catalog entries.
struct Intent {
  uint64_t seq = 0;              ///< Journal sequence number (file name).
  uint64_t epoch = 0;            ///< Replication epoch at Begin time.
  std::string op;                ///< Mutation kind, e.g. "ingest".
  std::vector<std::string> ids;  ///< Model ids the mutation will create.
  /// Content digests the mutation will write (artifact + any sidecar
  /// blobs), so recovery can garbage-collect exactly what the crashed
  /// mutation may have left behind.
  std::vector<std::string> digests;
  /// Optional replay payload (cards, embeddings, edge parameters) so a
  /// retained entry can be re-applied on a replica without access to
  /// the leader's in-memory state. Null when the journal only guards
  /// local rollback.
  Json payload;

  Json ToJson() const;
  static Result<Intent> FromJson(const Json& j);
};

/// Write-ahead intent journal under `<dir>` (one JSON file per pending
/// intent, named `<seq>.intent`).
///
/// Protocol for an all-or-nothing mutation:
///   1. `Begin(intent)` — durably records what is about to change
///      (atomic write + dir fsync) and returns the sequence number.
///   2. apply the mutation (blob puts, catalog docs, index persists).
///   3. make the mutation durable (catalog sync), then `Commit(seq)`.
///
/// A crash anywhere in 2–3 leaves the intent file behind; `Pending()`
/// on reopen surfaces it so the caller can roll the mutation back
/// (delete the listed catalog docs and unreferenced blobs). A crash
/// *during* rollback re-surfaces the same intent on the next open —
/// rollback must therefore be idempotent.
///
/// Two commit modes:
///   - rollback-only (default): Commit removes the intent file. The
///     journal holds pending intents only; history is not kept.
///   - retain_committed: Commit *renames* `<seq>.intent` to `<seq>.op`,
///     turning the journal into a replayable op log with strictly
///     increasing seqs. `Committed()` streams the log for replication;
///     `Truncate()` garbage-collects applied prefixes durably.
class IntentJournal {
 public:
  /// Opens (creating) the journal directory. `fs` = nullptr uses the
  /// real filesystem. With `retain_committed`, committed entries are
  /// kept as `<seq>.op` files instead of removed.
  static Result<IntentJournal> Open(const std::string& dir, Fs* fs = nullptr,
                                    bool retain_committed = false);

  /// Durably records `intent` (seq is assigned and epoch stamped from
  /// the journal's current epoch, both written into the file; seq is
  /// returned). Assigned seqs are strictly increasing across the
  /// journal's lifetime, including across reopens and Truncate().
  Result<uint64_t> Begin(const Intent& intent);

  /// Begin() at a caller-chosen seq — the replica apply path, which
  /// must preserve the leader's log positions so the replica's log is a
  /// prefix of the leader's (gaps where non-shipped ops sat are fine).
  /// The intent's own epoch stamp is kept (the leader's, not this
  /// journal's). Refuses a seq already present as pending or committed.
  Result<uint64_t> BeginAt(uint64_t seq, const Intent& intent);

  /// Marks intent `seq` committed (the mutation is fully applied and
  /// durable). In rollback-only mode this removes the intent file; in
  /// retain_committed mode it renames the file to `<seq>.op` so the
  /// entry stays replayable. Either way the journal directory is
  /// fsynced, because the commit record must survive a crash — or the
  /// next open would roll back a fully-applied mutation. OK when the
  /// intent file is already gone (Commit after a replayed rollback, or
  /// a re-run Commit after a crash between rename and fsync) — Commit
  /// is idempotent.
  Status Commit(uint64_t seq);

  /// Removes intent `seq` without committing it (the mutation was
  /// rolled back). Unlike Commit in retain_committed mode, the entry
  /// never enters the replayable log — a rolled-back ingest must not be
  /// shipped to replicas. OK when the file is already gone.
  Status Abort(uint64_t seq);

  /// All pending (uncommitted) intents, oldest first.
  Result<std::vector<Intent>> Pending() const;

  /// Up to `max` committed entries with seq >= `from_seq`, oldest
  /// first. Only meaningful in retain_committed mode (otherwise empty).
  Result<std::vector<Intent>> Committed(uint64_t from_seq,
                                        size_t max = SIZE_MAX) const;

  /// Highest seq ever committed by this journal, including entries
  /// Truncate() has since GC'd (0 when none). Maintained in memory and
  /// recovered from the on-disk log + truncation floor on Open.
  uint64_t last_committed_seq() const { return last_committed_seq_; }

  /// Durably removes committed entries with seq <= `upto_seq` (log GC).
  /// A truncation-floor marker is persisted *before* any entry is
  /// removed and the directory is fsynced afterwards, so a crash
  /// mid-truncate can neither resurrect an applied entry as pending
  /// nor let a reopen reuse a truncated seq.
  Status Truncate(uint64_t upto_seq);

  /// Replica seed adoption: durably makes `seq` the log floor and
  /// removes every committed entry, whatever its seq, so the entries
  /// after the seed can be applied at the leader's positions. Unlike
  /// Truncate the floor may move down (a seed cut below this journal's
  /// old high-water mark). The marker is written before any entry is
  /// removed, so a crash mid-reset reopens with the floor in place.
  Status ResetTo(uint64_t seq);

  /// The log floor: committed entries at or below it are gone (Truncate
  /// raises it; ResetTo sets it). 0 when never truncated.
  uint64_t truncated_upto() const { return truncated_upto_; }

  /// Replication epoch (term). 0 until SetEpoch persists a value; the
  /// epoch survives reopen via an EPOCH file in the journal dir.
  uint64_t epoch() const { return epoch_; }

  /// Durably raises the epoch. Lowering is refused (fencing must be
  /// monotonic).
  Status SetEpoch(uint64_t epoch);

  /// Removes stray temp files left by crashed Begin() writes. Adds the
  /// count removed to `*removed` when non-null.
  Status RemoveStrayTmp(size_t* removed = nullptr);

  const std::string& dir() const { return dir_; }
  bool retain_committed() const { return retain_committed_; }

 private:
  IntentJournal(std::string dir, Fs* fs, bool retain)
      : dir_(std::move(dir)), fs_(fs), retain_committed_(retain) {}

  std::string PathFor(uint64_t seq) const;
  std::string CommittedPathFor(uint64_t seq) const;

  std::string dir_;
  Fs* fs_;  // never null
  bool retain_committed_ = false;
  uint64_t next_seq_ = 1;
  uint64_t last_committed_seq_ = 0;
  uint64_t truncated_upto_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace mlake::storage

#endif  // MLAKE_STORAGE_INTENT_JOURNAL_H_
