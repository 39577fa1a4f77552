#ifndef MLAKE_STORAGE_CATALOG_H_
#define MLAKE_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/json.h"
#include "common/result.h"
#include "storage/kv_store.h"

namespace mlake::storage {

/// Namespaced JSON-document catalog on top of the KV store.
///
/// Keys are "<kind>/<id>" where kind is one of the lake's entity kinds
/// ("model", "card", "edge", "benchmark", ...). All lake metadata that
/// is not raw weights lives here.
///
/// Each kind named in `digest_kinds` at Open keeps a SetDigest over its
/// documents, one RecordHash(kind, id, stored bytes) per document, and
/// a document count. Open builds both once over the replayed index;
/// PutDoc and DeleteDoc then keep them exact in O(document), so
/// KindDigest and KindCount are O(1) and always equal what a rescan of
/// the kind would give. Other kinds are never hashed, so a large
/// local-only document (the lake's persisted graph, rewritten on every
/// lineage change) costs no extra hashing per write.
class Catalog {
 public:
  /// `fs` is the storage seam (nullptr = real filesystem).
  static Result<std::unique_ptr<Catalog>> Open(
      const std::string& path, Fs* fs = nullptr,
      const std::vector<std::string>& digest_kinds = {});

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  Status PutDoc(const std::string& kind, const std::string& id,
                const Json& doc);

  Result<Json> GetDoc(const std::string& kind, const std::string& id) const;

  bool Contains(const std::string& kind, const std::string& id) const;

  Status DeleteDoc(const std::string& kind, const std::string& id);

  /// All ids of a kind, sorted.
  std::vector<std::string> ListIds(const std::string& kind) const;

  /// The digest of every document of `kind`. Kinds not named in
  /// `digest_kinds` at Open have none and read as the empty set.
  SetDigest KindDigest(const std::string& kind) const;

  /// The number of documents of `kind`: O(1) for kinds named in
  /// `digest_kinds` at Open, a prefix scan for the others.
  size_t KindCount(const std::string& kind) const;

  /// Compacts the underlying log.
  Status Compact() { return kv_->Compact(); }

  /// Durability point: fsyncs the underlying log (see KvStore::Sync).
  Status Sync() { return kv_->Sync(); }

 private:
  explicit Catalog(std::unique_ptr<KvStore> kv) : kv_(std::move(kv)) {}

  static std::string KeyFor(const std::string& kind, const std::string& id) {
    return kind + "/" + id;
  }

  /// Moves `kind`'s digest and count from `prior` to `current`
  /// (nullptr = absent) when the write reached the index and the kind
  /// is digested.
  void UpdateDigest(const std::string& kind, const std::string& id,
                    const KvPrior& prior, const std::string* current);

  struct KindSummary {
    SetDigest digest;
    size_t count = 0;
  };

  std::unique_ptr<KvStore> kv_;
  std::map<std::string, KindSummary> summaries_;  // digested kind -> summary
};

}  // namespace mlake::storage

#endif  // MLAKE_STORAGE_CATALOG_H_
