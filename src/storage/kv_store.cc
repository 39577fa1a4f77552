#include "storage/kv_store.h"

#include <filesystem>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/logging.h"
#include "tensor/serialize.h"

namespace mlake::storage {

namespace {
constexpr uint8_t kTypePut = 1;
constexpr uint8_t kTypeDelete = 2;
}  // namespace

Result<std::unique_ptr<KvStore>> KvStore::Open(
    const std::string& path, const KvCompactionPolicy& policy, Fs* fs) {
  if (fs == nullptr) fs = RealFs();
  std::unique_ptr<KvStore> store(new KvStore(path, policy, fs));
  MLAKE_RETURN_NOT_OK(store->Replay());
  MLAKE_RETURN_NOT_OK(store->MaybeAutoCompact());
  return store;
}

uint64_t KvStore::RecordSize(const std::string& key, std::string_view value) {
  // crc (4) + type (1) + two length prefixes (4 each) + payloads.
  return 13 + key.size() + value.size();
}

Status KvStore::MaybeAutoCompact() {
  if (!policy_.automatic) return Status::OK();
  if (log_bytes_ <= policy_.min_log_bytes) return Status::OK();
  if (static_cast<double>(log_bytes_) <=
      policy_.max_garbage_ratio *
          static_cast<double>(live_bytes_ > 0 ? live_bytes_ : 1)) {
    return Status::OK();
  }
  MLAKE_RETURN_NOT_OK(Compact());
  ++compaction_count_;
  return Status::OK();
}

std::string KvStore::EncodeRecord(uint8_t type, const std::string& key,
                                  std::string_view value) {
  std::string body;
  body.push_back(static_cast<char>(type));
  PutLengthPrefixed(&body, key);
  PutLengthPrefixed(&body, value);
  std::string record;
  PutU32(&record, Crc32(body));
  record += body;
  return record;
}

Status KvStore::Replay() {
  index_.clear();
  log_bytes_ = 0;
  live_bytes_ = 0;
  if (!fs_->FileExists(path_)) return Status::OK();
  MLAKE_ASSIGN_OR_RETURN(std::string log, fs_->ReadFile(path_));
  ByteReader reader(log);
  size_t valid_end = 0;
  while (!reader.Done()) {
    uint32_t crc;
    size_t record_start = reader.position();
    if (!reader.GetU32(&crc)) break;
    std::string_view type_byte;
    if (!reader.GetBytes(1, &type_byte)) break;
    std::string_view key, value;
    if (!reader.GetLengthPrefixed(&key)) break;
    if (!reader.GetLengthPrefixed(&value)) break;
    // CRC covers [type..value-end].
    std::string_view body(log.data() + record_start + 4,
                          reader.position() - record_start - 4);
    if (Crc32(body) != crc) break;
    uint8_t type = static_cast<uint8_t>(type_byte[0]);
    if (type == kTypePut) {
      std::string key_str(key);
      auto it = index_.find(key_str);
      if (it != index_.end()) {
        live_bytes_ -= RecordSize(key_str, it->second);
      }
      live_bytes_ += RecordSize(key_str, value);
      index_[std::move(key_str)] = std::string(value);
    } else if (type == kTypeDelete) {
      std::string key_str(key);
      auto it = index_.find(key_str);
      if (it != index_.end()) {
        live_bytes_ -= RecordSize(key_str, it->second);
        index_.erase(it);
      }
    } else {
      break;  // unknown record: treat as corrupt tail
    }
    valid_end = reader.position();
  }
  if (valid_end < log.size()) {
    MLAKE_LOG_WARNING << "kv store " << path_ << ": truncating "
                      << (log.size() - valid_end)
                      << " corrupt tail bytes (torn write recovery)";
    MLAKE_RETURN_NOT_OK(fs_->Truncate(path_, valid_end));
    // The repair must itself be durable: without the file+dir sync a
    // second crash could resurrect the torn tail (or lose the inode
    // size change) and re-poison the next replay.
    if (FsyncEnabled()) {
      MLAKE_RETURN_NOT_OK(fs_->SyncFile(path_));
      MLAKE_RETURN_NOT_OK(
          fs_->SyncDir(std::filesystem::path(path_).parent_path().string()));
    }
  }
  log_bytes_ = valid_end;
  return Status::OK();
}

Status KvStore::AppendRecord(uint8_t type, const std::string& key,
                             std::string_view value) {
  std::string record = EncodeRecord(type, key, value);
  Status st = fs_->AppendFile(path_, record);
  if (!st.ok()) {
    // The append may have landed partially (short write). Cut the log
    // back to the last known-good length so later appends do not write
    // behind a torn record — CRC replay would stop at the tear and
    // silently drop everything after it.
    if (fs_->FileExists(path_)) {
      Status trunc = fs_->Truncate(path_, log_bytes_);
      if (!trunc.ok()) {
        MLAKE_LOG_WARNING << "kv store " << path_
                          << ": cannot truncate after failed append ("
                          << trunc.ToString()
                          << "); store is read-consistent but the log "
                             "tail is dirty until next reopen";
      }
    }
    return st;
  }
  log_bytes_ += record.size();
  return Status::OK();
}

Status KvStore::Put(const std::string& key, std::string_view value,
                    KvPrior* prior) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  MLAKE_RETURN_NOT_OK(AppendRecord(kTypePut, key, value));
  auto [it, inserted] = index_.try_emplace(key);
  if (!inserted) {
    live_bytes_ -= RecordSize(key, it->second);
    if (prior != nullptr) prior->value = std::move(it->second);
  }
  live_bytes_ += RecordSize(key, value);
  it->second.assign(value);
  if (prior != nullptr) prior->applied = true;
  return MaybeAutoCompact();
}

Result<std::string> KvStore::Get(const std::string& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return Status::NotFound("key not found: " + key);
  }
  return it->second;
}

bool KvStore::Contains(const std::string& key) const {
  return index_.count(key) > 0;
}

Status KvStore::Delete(const std::string& key, KvPrior* prior) {
  auto it = index_.find(key);
  if (it == index_.end()) return Status::OK();
  // Tombstone lands in the log before the index forgets the key (same
  // order as Put): a failed append is then a clean no-op, instead of an
  // in-memory delete that a reopen silently resurrects.
  MLAKE_RETURN_NOT_OK(AppendRecord(kTypeDelete, key, ""));
  live_bytes_ -= RecordSize(key, it->second);
  if (prior != nullptr) {
    prior->applied = true;
    prior->value = std::move(it->second);
  }
  index_.erase(it);
  return MaybeAutoCompact();
}

std::vector<std::string> KvStore::ScanPrefix(const std::string& prefix) const {
  std::vector<std::string> keys;
  ForEachPrefix(prefix, [&keys](const std::string& key, const std::string&) {
    keys.push_back(key);
  });
  return keys;
}

void KvStore::ForEachPrefix(
    const std::string& prefix,
    const std::function<void(const std::string& key,
                             const std::string& value)>& fn) const {
  for (auto it = index_.lower_bound(prefix); it != index_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    fn(it->first, it->second);
  }
}

Status KvStore::Compact() {
  std::string compacted;
  for (const auto& [key, value] : index_) {
    compacted += EncodeRecord(kTypePut, key, value);
  }
  MLAKE_RETURN_NOT_OK(WriteFileAtomic(fs_, path_, compacted));
  log_bytes_ = compacted.size();
  return Status::OK();
}

Status KvStore::Sync() {
  if (!FsyncEnabled()) return Status::OK();
  if (!fs_->FileExists(path_)) return Status::OK();
  return fs_->SyncFile(path_);
}

}  // namespace mlake::storage
