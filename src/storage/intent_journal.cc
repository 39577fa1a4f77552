#include "storage/intent_journal.h"

#include <algorithm>

#include "common/file_util.h"

namespace mlake::storage {

namespace {
constexpr std::string_view kIntentSuffix = ".intent";
constexpr std::string_view kCommittedSuffix = ".op";
// Durable truncation floor: Truncate() writes the highest GC'd seq here
// before removing anything, so a crashed GC can't resurrect entries and
// a fully-truncated journal still reopens with strictly-increasing seqs.
constexpr std::string_view kTruncatedMarker = "TRUNCATED";
// Durable replication epoch (term) for fencing stale leaders.
constexpr std::string_view kEpochMarker = "EPOCH";

/// Parses "<seq><suffix>" -> seq; 0 when the name doesn't match.
uint64_t SeqFromName(const std::string& name, std::string_view suffix) {
  if (name.size() <= suffix.size()) return 0;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return 0;
  }
  std::string stem = name.substr(0, name.size() - suffix.size());
  if (stem.empty()) return 0;
  uint64_t seq = 0;
  for (char c : stem) {
    if (c < '0' || c > '9') return 0;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

Result<uint64_t> ReadCounterFile(Fs* fs, const std::string& path) {
  if (!fs->FileExists(path)) return uint64_t{0};
  MLAKE_ASSIGN_OR_RETURN(std::string raw, fs->ReadFile(path));
  uint64_t value = 0;
  for (char c : raw) {
    if (c == '\n' || c == '\r') break;
    if (c < '0' || c > '9') {
      return Status::Corruption("journal marker " + path +
                                ": non-numeric content");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}
}  // namespace

Json Intent::ToJson() const {
  Json ids_json = Json::MakeArray();
  for (const std::string& id : ids) ids_json.Append(Json(id));
  Json digests_json = Json::MakeArray();
  for (const std::string& d : digests) digests_json.Append(Json(d));
  Json j = Json::MakeObject();
  j.Set("seq", Json(seq));
  if (epoch != 0) j.Set("epoch", Json(epoch));
  j.Set("op", Json(op));
  j.Set("ids", std::move(ids_json));
  j.Set("digests", std::move(digests_json));
  if (!payload.is_null()) j.Set("payload", payload);
  return j;
}

Result<Intent> Intent::FromJson(const Json& j) {
  if (!j.is_object()) return Status::Corruption("intent: not an object");
  Intent intent;
  intent.seq = static_cast<uint64_t>(j.GetInt64("seq", 0));
  intent.epoch = static_cast<uint64_t>(j.GetInt64("epoch", 0));
  intent.op = j.GetString("op");
  if (intent.op.empty()) return Status::Corruption("intent: missing op");
  const Json* ids = j.Find("ids");
  if (ids != nullptr && ids->is_array()) {
    for (const Json& id : ids->AsArray()) {
      if (!id.is_string()) return Status::Corruption("intent: non-string id");
      intent.ids.push_back(id.AsString());
    }
  }
  const Json* digests = j.Find("digests");
  if (digests != nullptr && digests->is_array()) {
    for (const Json& d : digests->AsArray()) {
      if (!d.is_string()) {
        return Status::Corruption("intent: non-string digest");
      }
      intent.digests.push_back(d.AsString());
    }
  }
  const Json* payload = j.Find("payload");
  if (payload != nullptr) intent.payload = *payload;
  return intent;
}

Result<IntentJournal> IntentJournal::Open(const std::string& dir, Fs* fs,
                                          bool retain_committed) {
  if (fs == nullptr) fs = RealFs();
  IntentJournal journal(dir, fs, retain_committed);
  MLAKE_RETURN_NOT_OK(fs->CreateDirs(dir));
  // Resume the sequence above every file present — pending *and*
  // committed, including ones whose content is unreadable, so neither a
  // corrupt pending intent nor a retained log entry can cause a seq
  // collision on reopen.
  MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> names, fs->ListDir(dir));
  for (const std::string& name : names) {
    uint64_t committed = SeqFromName(name, kCommittedSuffix);
    if (committed > journal.last_committed_seq_) {
      journal.last_committed_seq_ = committed;
    }
    uint64_t seq = SeqFromName(name, kIntentSuffix);
    if (seq == 0) seq = committed;
    if (seq >= journal.next_seq_) journal.next_seq_ = seq + 1;
  }
  MLAKE_ASSIGN_OR_RETURN(
      journal.truncated_upto_,
      ReadCounterFile(fs, JoinPath(dir, std::string(kTruncatedMarker))));
  if (journal.truncated_upto_ >= journal.next_seq_) {
    journal.next_seq_ = journal.truncated_upto_ + 1;
  }
  if (journal.truncated_upto_ > journal.last_committed_seq_) {
    journal.last_committed_seq_ = journal.truncated_upto_;
  }
  MLAKE_ASSIGN_OR_RETURN(
      journal.epoch_,
      ReadCounterFile(fs, JoinPath(dir, std::string(kEpochMarker))));
  return journal;
}

std::string IntentJournal::PathFor(uint64_t seq) const {
  return JoinPath(dir_, std::to_string(seq) + std::string(kIntentSuffix));
}

std::string IntentJournal::CommittedPathFor(uint64_t seq) const {
  return JoinPath(dir_, std::to_string(seq) + std::string(kCommittedSuffix));
}

Result<uint64_t> IntentJournal::Begin(const Intent& intent) {
  uint64_t seq = next_seq_++;
  Intent stamped = intent;
  stamped.seq = seq;
  stamped.epoch = epoch_;
  // WriteFileAtomic fsyncs the file and the journal dir, so the intent
  // is on disk before the caller mutates anything it describes.
  MLAKE_RETURN_NOT_OK(
      WriteFileAtomic(fs_, PathFor(seq), stamped.ToJson().Dump()));
  return seq;
}

Result<uint64_t> IntentJournal::BeginAt(uint64_t seq, const Intent& intent) {
  if (seq == 0) return Status::InvalidArgument("BeginAt: seq must be > 0");
  if (seq <= truncated_upto_) {
    return Status::FailedPrecondition(
        "BeginAt: seq " + std::to_string(seq) + " already truncated (floor " +
        std::to_string(truncated_upto_) + ")");
  }
  if (fs_->FileExists(PathFor(seq)) ||
      fs_->FileExists(CommittedPathFor(seq))) {
    return Status::AlreadyExists("BeginAt: seq " + std::to_string(seq) +
                                 " already in the journal");
  }
  Intent stamped = intent;
  stamped.seq = seq;  // epoch kept: the originating leader's stamp
  MLAKE_RETURN_NOT_OK(
      WriteFileAtomic(fs_, PathFor(seq), stamped.ToJson().Dump()));
  if (seq >= next_seq_) next_seq_ = seq + 1;
  return seq;
}

Status IntentJournal::Commit(uint64_t seq) {
  std::string path = PathFor(seq);
  if (!fs_->FileExists(path)) return Status::OK();
  if (retain_committed_) {
    // The rename is the commit record: the entry leaves the pending set
    // atomically but stays on disk as a replayable log entry.
    MLAKE_RETURN_NOT_OK(fs_->Rename(path, CommittedPathFor(seq)));
  } else {
    // The removal is the commit record.
    MLAKE_RETURN_NOT_OK(fs_->RemoveFile(path));
  }
  if (FsyncEnabled()) {
    MLAKE_RETURN_NOT_OK(fs_->SyncDir(dir_));
  }
  if (seq > last_committed_seq_) last_committed_seq_ = seq;
  return Status::OK();
}

Status IntentJournal::Abort(uint64_t seq) {
  std::string path = PathFor(seq);
  if (!fs_->FileExists(path)) return Status::OK();
  MLAKE_RETURN_NOT_OK(fs_->RemoveFile(path));
  if (FsyncEnabled()) {
    MLAKE_RETURN_NOT_OK(fs_->SyncDir(dir_));
  }
  return Status::OK();
}

Result<std::vector<Intent>> IntentJournal::Pending() const {
  MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> names, fs_->ListDir(dir_));
  std::vector<uint64_t> seqs;
  for (const std::string& name : names) {
    uint64_t seq = SeqFromName(name, kIntentSuffix);
    if (seq != 0) seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());
  std::vector<Intent> pending;
  for (uint64_t seq : seqs) {
    MLAKE_ASSIGN_OR_RETURN(std::string raw, fs_->ReadFile(PathFor(seq)));
    MLAKE_ASSIGN_OR_RETURN(Json j, Json::Parse(raw));
    MLAKE_ASSIGN_OR_RETURN(Intent intent, Intent::FromJson(j));
    intent.seq = seq;  // the file name is authoritative
    pending.push_back(std::move(intent));
  }
  return pending;
}

Result<std::vector<Intent>> IntentJournal::Committed(uint64_t from_seq,
                                                     size_t max) const {
  MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> names, fs_->ListDir(dir_));
  std::vector<uint64_t> seqs;
  for (const std::string& name : names) {
    uint64_t seq = SeqFromName(name, kCommittedSuffix);
    if (seq >= from_seq && seq != 0) seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());
  if (seqs.size() > max) seqs.resize(max);
  std::vector<Intent> committed;
  for (uint64_t seq : seqs) {
    MLAKE_ASSIGN_OR_RETURN(std::string raw,
                           fs_->ReadFile(CommittedPathFor(seq)));
    MLAKE_ASSIGN_OR_RETURN(Json j, Json::Parse(raw));
    MLAKE_ASSIGN_OR_RETURN(Intent intent, Intent::FromJson(j));
    intent.seq = seq;  // the file name is authoritative
    committed.push_back(std::move(intent));
  }
  return committed;
}

Status IntentJournal::Truncate(uint64_t upto_seq) {
  if (upto_seq <= truncated_upto_) return Status::OK();
  // Persist the floor before removing anything: after a crash anywhere
  // past this write, reopen sees the marker and keeps next_seq_ above
  // the truncated range even if every entry file is already gone.
  MLAKE_RETURN_NOT_OK(
      WriteFileAtomic(fs_, JoinPath(dir_, std::string(kTruncatedMarker)),
                      std::to_string(upto_seq) + "\n"));
  truncated_upto_ = upto_seq;
  if (upto_seq > last_committed_seq_) last_committed_seq_ = upto_seq;
  MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> names, fs_->ListDir(dir_));
  for (const std::string& name : names) {
    uint64_t seq = SeqFromName(name, kCommittedSuffix);
    if (seq != 0 && seq <= upto_seq) {
      MLAKE_RETURN_NOT_OK(fs_->RemoveFile(JoinPath(dir_, name)));
    }
  }
  // One dir fsync covers every removal: the GC is durable, so a crash
  // can't resurrect an applied entry into a later Committed() scan.
  if (FsyncEnabled()) {
    MLAKE_RETURN_NOT_OK(fs_->SyncDir(dir_));
  }
  return Status::OK();
}

Status IntentJournal::ResetTo(uint64_t seq) {
  MLAKE_RETURN_NOT_OK(
      WriteFileAtomic(fs_, JoinPath(dir_, std::string(kTruncatedMarker)),
                      std::to_string(seq) + "\n"));
  truncated_upto_ = seq;
  last_committed_seq_ = seq;
  if (seq >= next_seq_) next_seq_ = seq + 1;
  MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> names, fs_->ListDir(dir_));
  for (const std::string& name : names) {
    if (SeqFromName(name, kCommittedSuffix) != 0) {
      MLAKE_RETURN_NOT_OK(fs_->RemoveFile(JoinPath(dir_, name)));
    }
  }
  if (FsyncEnabled()) {
    MLAKE_RETURN_NOT_OK(fs_->SyncDir(dir_));
  }
  return Status::OK();
}

Status IntentJournal::SetEpoch(uint64_t epoch) {
  if (epoch < epoch_) {
    return Status::FailedPrecondition(
        "journal epoch is monotonic: have " + std::to_string(epoch_) +
        ", refusing " + std::to_string(epoch));
  }
  if (epoch == epoch_) return Status::OK();
  MLAKE_RETURN_NOT_OK(
      WriteFileAtomic(fs_, JoinPath(dir_, std::string(kEpochMarker)),
                      std::to_string(epoch) + "\n"));
  epoch_ = epoch;
  return Status::OK();
}

Status IntentJournal::RemoveStrayTmp(size_t* removed) {
  return RemoveStrayTmpFiles(fs_, dir_, removed);
}

}  // namespace mlake::storage
