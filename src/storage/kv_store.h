#ifndef MLAKE_STORAGE_KV_STORE_H_
#define MLAKE_STORAGE_KV_STORE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/result.h"
#include "common/status.h"

namespace mlake::storage {

/// Durable key-value store backed by an append-only log with an
/// in-memory index — the metadata engine under the lake catalog.
///
/// Record format (little-endian):
///   u32 crc32 over [type, key, value]
///   u8  type (1 = put, 2 = delete)
///   length-prefixed key, length-prefixed value (empty for delete)
///
/// `Open` replays the log to rebuild the index; a torn or corrupt tail
/// record (e.g. a crash mid-append) is detected via CRC and the log is
/// truncated at the last valid record, so a crashed writer never poisons
/// the store. The truncation itself is fsynced (file + directory), so
/// the repaired state survives a second crash. A failed append is
/// truncated back to the last known-good length, so one I/O error does
/// not strand a torn record in front of later appends. `Compact()`
/// rewrites only live records through an atomic rename.
/// Automatic compaction policy for a KvStore: the log is rewritten when
/// it holds more than `max_garbage_ratio` times the live data and
/// exceeds `min_log_bytes` (so small stores never churn).
struct KvCompactionPolicy {
  double max_garbage_ratio = 4.0;
  uint64_t min_log_bytes = 64 * 1024;
  /// Disables automatic compaction entirely (manual Compact() only).
  bool automatic = true;
};

/// What a Put or Delete displaced, for callers that keep state derived
/// from the index in step with it (Catalog's digests). `applied` turns
/// true once the index has taken the write, which can precede an error
/// from the auto-compaction that follows it.
struct KvPrior {
  bool applied = false;
  /// The key's value before the write; nullopt when it was absent.
  std::optional<std::string> value;
};

class KvStore {
 public:
  /// `fs` is the filesystem seam every durable op goes through; nullptr
  /// means the real filesystem (see common/fs.h).
  static Result<std::unique_ptr<KvStore>> Open(
      const std::string& path, const KvCompactionPolicy& policy = {},
      Fs* fs = nullptr);

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// `prior` (optional) receives the value the write displaced.
  Status Put(const std::string& key, std::string_view value,
             KvPrior* prior = nullptr);

  Result<std::string> Get(const std::string& key) const;

  bool Contains(const std::string& key) const;

  /// Removes a key. OK even if absent (idempotent). `prior` as in Put.
  Status Delete(const std::string& key, KvPrior* prior = nullptr);

  /// All keys with the given prefix, sorted.
  std::vector<std::string> ScanPrefix(const std::string& prefix) const;

  /// Calls fn(key, value) for every key with the given prefix, in key
  /// order, without copying values.
  void ForEachPrefix(
      const std::string& prefix,
      const std::function<void(const std::string& key,
                               const std::string& value)>& fn) const;

  size_t Count() const { return index_.size(); }

  /// Bytes in the log file; the live/log ratio drives auto-compaction.
  uint64_t LogBytes() const { return log_bytes_; }

  /// Bytes the live records would occupy after compaction.
  uint64_t LiveBytes() const { return live_bytes_; }

  /// Number of automatic compactions performed so far.
  uint64_t CompactionCount() const { return compaction_count_; }

  /// Rewrites the log with only live records. Safe against crashes
  /// (temp + rename).
  Status Compact();

  /// Flushes the log to stable storage (no-op under MLAKE_NO_FSYNC or
  /// when the log does not exist yet). Appends are not individually
  /// fsynced; callers that need a durability point (the lake's intent
  /// commit) call this once per batch.
  Status Sync();

  const std::string& path() const { return path_; }

 private:
  KvStore(std::string path, const KvCompactionPolicy& policy, Fs* fs)
      : path_(std::move(path)), policy_(policy), fs_(fs) {}

  Status Replay();
  Status AppendRecord(uint8_t type, const std::string& key,
                      std::string_view value);
  Status MaybeAutoCompact();
  static std::string EncodeRecord(uint8_t type, const std::string& key,
                                  std::string_view value);
  static uint64_t RecordSize(const std::string& key, std::string_view value);

  std::string path_;
  KvCompactionPolicy policy_;
  Fs* fs_;  // never null; the storage seam (common/fs.h)
  std::map<std::string, std::string> index_;
  uint64_t log_bytes_ = 0;
  uint64_t live_bytes_ = 0;
  uint64_t compaction_count_ = 0;
};

}  // namespace mlake::storage

#endif  // MLAKE_STORAGE_KV_STORE_H_
