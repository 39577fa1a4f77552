#include "storage/catalog.h"

namespace mlake::storage {

namespace {

Status ValidateKey(const std::string& kind, const std::string& id) {
  if (kind.empty() || id.empty()) {
    return Status::InvalidArgument("catalog: empty kind or id");
  }
  if (kind.find('/') != std::string::npos) {
    return Status::InvalidArgument("catalog: kind must not contain '/'");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Catalog>> Catalog::Open(
    const std::string& path, Fs* fs,
    const std::vector<std::string>& digest_kinds) {
  MLAKE_ASSIGN_OR_RETURN(std::unique_ptr<KvStore> kv,
                         KvStore::Open(path, {}, fs));
  std::unique_ptr<Catalog> catalog(new Catalog(std::move(kv)));
  // Built over the replayed index, so torn-tail truncation, compaction
  // and reopen all start from exact digests and counts.
  for (const std::string& kind : digest_kinds) {
    const std::string prefix = kind + "/";
    KindSummary& summary = catalog->summaries_[kind];
    catalog->kv_->ForEachPrefix(
        prefix, [&](const std::string& key, const std::string& value) {
          summary.digest.Add(RecordHash(
              kind, std::string_view(key).substr(prefix.size()), value));
          ++summary.count;
        });
  }
  return catalog;
}

void Catalog::UpdateDigest(const std::string& kind, const std::string& id,
                           const KvPrior& prior, const std::string* current) {
  if (!prior.applied) return;
  auto it = summaries_.find(kind);
  if (it == summaries_.end()) return;
  KindSummary& summary = it->second;
  if (prior.value.has_value()) {
    summary.digest.Remove(RecordHash(kind, id, *prior.value));
    --summary.count;
  }
  if (current != nullptr) {
    summary.digest.Add(RecordHash(kind, id, *current));
    ++summary.count;
  }
}

Status Catalog::PutDoc(const std::string& kind, const std::string& id,
                       const Json& doc) {
  MLAKE_RETURN_NOT_OK(ValidateKey(kind, id));
  const std::string bytes = doc.Dump();
  KvPrior prior;
  Status st = kv_->Put(KeyFor(kind, id), bytes, &prior);
  UpdateDigest(kind, id, prior, &bytes);
  return st;
}

Result<Json> Catalog::GetDoc(const std::string& kind,
                             const std::string& id) const {
  MLAKE_ASSIGN_OR_RETURN(std::string raw, kv_->Get(KeyFor(kind, id)));
  return Json::Parse(raw);
}

bool Catalog::Contains(const std::string& kind, const std::string& id) const {
  return kv_->Contains(KeyFor(kind, id));
}

Status Catalog::DeleteDoc(const std::string& kind, const std::string& id) {
  // A '/' in kind would alias another kind's key and bypass its digest.
  MLAKE_RETURN_NOT_OK(ValidateKey(kind, id));
  KvPrior prior;
  Status st = kv_->Delete(KeyFor(kind, id), &prior);
  UpdateDigest(kind, id, prior, nullptr);
  return st;
}

SetDigest Catalog::KindDigest(const std::string& kind) const {
  auto it = summaries_.find(kind);
  return it == summaries_.end() ? SetDigest() : it->second.digest;
}

size_t Catalog::KindCount(const std::string& kind) const {
  auto it = summaries_.find(kind);
  if (it != summaries_.end()) return it->second.count;
  size_t count = 0;
  kv_->ForEachPrefix(kind + "/",
                     [&](const std::string&, const std::string&) { ++count; });
  return count;
}

std::vector<std::string> Catalog::ListIds(const std::string& kind) const {
  std::string prefix = kind + "/";
  std::vector<std::string> ids;
  for (const std::string& key : kv_->ScanPrefix(prefix)) {
    ids.push_back(key.substr(prefix.size()));
  }
  return ids;
}

}  // namespace mlake::storage
