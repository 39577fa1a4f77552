#include "core/model_lake.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "index/snapshot.h"
#include "nn/loss.h"
#include "search/parser.h"
#include "nn/trainer.h"
#include "tensor/ops.h"

namespace mlake::core {

namespace {

/// Entry cap of the parse-once MLQL plan cache (a parsed AST is tiny;
/// the cap only bounds pathological many-distinct-query workloads).
constexpr size_t kPlanCacheCap = 512;

/// Snapshot file name of one index at one generation.
std::string SnapName(const char* prefix, uint64_t generation) {
  return StrFormat("%s.%llu.snap", prefix,
                   static_cast<unsigned long long>(generation));
}

const char kIndexManifestName[] = "MANIFEST.json";

/// Offset arrays in the ids snapshot must be non-decreasing from 0 to
/// `limit`.
bool OffsetsWellFormed(const uint64_t* off, size_t count, uint64_t limit) {
  if (count == 0 || off[0] != 0 || off[count - 1] != limit) return false;
  for (size_t i = 1; i < count; ++i) {
    if (off[i] < off[i - 1]) return false;
  }
  return true;
}

/// Flattens `items` into a CSR string table (offsets + bytes).
void BuildStringTable(const std::vector<std::string>& items,
                      std::vector<uint64_t>* offsets, std::string* bytes) {
  offsets->assign(items.size() + 1, 0);
  bytes->clear();
  for (size_t i = 0; i < items.size(); ++i) {
    *bytes += items[i];
    (*offsets)[i + 1] = bytes->size();
  }
}

}  // namespace

Result<std::unique_ptr<ModelLake>> ModelLake::Open(LakeOptions options) {
  if (options.root.empty()) {
    return Status::InvalidArgument("LakeOptions.root must be set");
  }
  std::unique_ptr<ModelLake> lake(new ModelLake(std::move(options)));
  MLAKE_RETURN_NOT_OK(lake->Initialize());
  return lake;
}

Status ModelLake::Initialize() {
  fs_ = options_.fs != nullptr ? options_.fs : RealFs();
  MLAKE_RETURN_NOT_OK(fs_->CreateDirs(options_.root));
  storage::BlobStoreOptions blob_options;
  blob_options.verify = options_.blob_verify;
  blob_options.use_mmap = options_.blob_mmap;
  blob_options.fs = fs_;
  blob_options.retry = options_.retry;
  MLAKE_ASSIGN_OR_RETURN(storage::BlobStore blobs,
                         storage::BlobStore::Open(
                             JoinPath(options_.root, "blobs"), blob_options));
  blobs_ = std::make_unique<storage::BlobStore>(std::move(blobs));
  MLAKE_ASSIGN_OR_RETURN(
      catalog_,
      storage::Catalog::Open(JoinPath(options_.root, "catalog.log"), fs_,
                             ReplicatedKinds()));
  MLAKE_ASSIGN_OR_RETURN(
      storage::IntentJournal journal,
      storage::IntentJournal::Open(JoinPath(options_.root, "journal"), fs_,
                                   options_.replication_log));
  journal_ = std::make_unique<storage::IntentJournal>(std::move(journal));

  artifact_cache_ = std::make_unique<
      storage::ShardedLruCache<std::string, storage::ModelArtifact>>(
      options_.artifact_cache_bytes, options_.cache_shards);
  embedding_cache_ = std::make_unique<
      storage::ShardedLruCache<std::string, std::vector<float>>>(
      options_.embedding_cache_bytes, options_.cache_shards);

  probes_ = nn::MakeProbeSet(options_.input_dim, options_.probe_count,
                             options_.probe_seed);
  MLAKE_ASSIGN_OR_RETURN(
      embedder_,
      embed::MakeEmbedder(options_.embedder, probes_, options_.num_classes));
  embedder_key_ = Sha256::HexDigest(StrFormat(
      "%s|%lld|%zu|%llu|%lld|%lld", options_.embedder.c_str(),
      static_cast<long long>(embedder_->Dim()), options_.probe_count,
      static_cast<unsigned long long>(options_.probe_seed),
      static_cast<long long>(options_.input_dim),
      static_cast<long long>(options_.num_classes)));

  ann_ = std::make_unique<index::HnswIndex>(embedder_->Dim(), options_.hnsw);
  dataset_lsh_ = std::make_unique<index::MinHashLsh>(options_.minhash_bands,
                                                     options_.minhash_rows);

  if (catalog_->Contains("graph", "main")) {
    MLAKE_ASSIGN_OR_RETURN(Json graph_doc, catalog_->GetDoc("graph", "main"));
    MLAKE_ASSIGN_OR_RETURN(graph_, versioning::ModelGraph::FromJson(
                                       graph_doc));
  }

  // Crash recovery must run before the indices are built: it edits the
  // catalog (intent rollback), and the indices must reflect the
  // recovered state, not the crashed one.
  MLAKE_RETURN_NOT_OK(Recover());

  for (const std::string& id : catalog_->ListIds("degraded")) {
    degraded_.insert(id);
  }
  return LoadOrRebuildIndices();
}

ModelLake::~ModelLake() {
  {
    std::lock_guard<std::mutex> g(compact_mu_);
    compact_stop_ = true;
  }
  compact_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
}

Status ModelLake::Recover() {
  recovery_ = RecoveryReport();

  // 1. Roll back mutations that began but never committed. Oldest
  // first; each rollback is idempotent, so a crash mid-recovery just
  // replays on the next open.
  MLAKE_ASSIGN_OR_RETURN(std::vector<storage::Intent> pending,
                         journal_->Pending());
  for (const storage::Intent& intent : pending) {
    // Apply-then-log ops (record_edge, register_dataset) journal only
    // *after* their mutation is durable, so a pending intent means the
    // mutation already applied — completing the Commit just finishes
    // the interrupted log append. Everything else is a write-ahead
    // intent: roll the mutation back and Abort so the entry never
    // enters the replayable log.
    if (intent.op == "record_edge" || intent.op == "register_dataset") {
      MLAKE_RETURN_NOT_OK(journal_->Commit(intent.seq));
      continue;
    }
    MLAKE_LOG_WARNING << "lake " << options_.root
                      << ": rolling back incomplete " << intent.op
                      << " intent #" << intent.seq << " (" << intent.ids.size()
                      << " model(s))";
    MLAKE_RETURN_NOT_OK(RollbackIntent(intent));
    MLAKE_RETURN_NOT_OK(journal_->Abort(intent.seq));
    ++recovery_.rolled_back_intents;
    recovery_.rolled_back_ids.insert(recovery_.rolled_back_ids.end(),
                                     intent.ids.begin(), intent.ids.end());
  }

  // 2. Sweep stray temp files (atomic writes that crashed between
  // temp-write and rename): lake root (catalog.log tmp), journal dir,
  // blob buckets.
  MLAKE_RETURN_NOT_OK(RemoveStrayTmpFiles(fs_, options_.root,
                                          &recovery_.tmp_files_removed));
  MLAKE_RETURN_NOT_OK(RemoveStrayTmpFiles(fs_, IndexDir(),
                                          &recovery_.tmp_files_removed));
  MLAKE_RETURN_NOT_OK(journal_->RemoveStrayTmp(&recovery_.tmp_files_removed));
  MLAKE_RETURN_NOT_OK(blobs_->RemoveStrayTmp(&recovery_.tmp_files_removed));

  // 3. Orphan blobs: content written by a crashed mutation whose intent
  // already rolled back (or pre-journal debris). Unreferenced by any
  // model doc -> unreachable -> safe to delete.
  MLAKE_ASSIGN_OR_RETURN(recovery_.orphan_blobs_removed,
                         GcOrphanBlobsUnlocked());
  return Status::OK();
}

Status ModelLake::RollbackIntent(const storage::Intent& intent) {
  if (intent.op == "record_edge" || intent.op == "register_dataset") {
    // Apply-then-log ops: the intent is written only after the mutation
    // is durable, so there is nothing to undo (see Recover).
    return Status::OK();
  }
  if (intent.op == "compact") {
    // A compaction intent names no models; the mutation is the set of
    // snapshot files plus the atomic manifest swap. Deleting every
    // index file the *current* manifest does not name lands on exactly
    // one generation — the old one if the crash hit before the rename,
    // the new one after — and is idempotent.
    return GcIndexFilesUnlocked();
  }
  for (const std::string& id : intent.ids) {
    for (const char* kind : {"model", "card", "embedding", "degraded"}) {
      if (catalog_->Contains(kind, id)) {
        MLAKE_RETURN_NOT_OK(catalog_->DeleteDoc(kind, id));
      }
    }
    graph_.RemoveModel(id);
    degraded_.erase(id);
  }
  // Blobs are content-addressed and deduplicated: only delete an intent
  // digest when no surviving model still references it.
  std::set<std::string> referenced;
  for (const std::string& id : catalog_->ListIds("model")) {
    auto digest = DigestForUnlocked(id);
    if (digest.ok()) referenced.insert(digest.MoveValueUnsafe());
  }
  for (const std::string& digest : intent.digests) {
    if (referenced.count(digest) > 0) continue;
    if (blobs_->Contains(digest)) {
      MLAKE_RETURN_NOT_OK(blobs_->Delete(digest));
    }
  }
  MLAKE_RETURN_NOT_OK(PersistGraph());
  // Make the rollback durable before the intent is committed away.
  return catalog_->Sync();
}

Result<size_t> ModelLake::GcOrphanBlobsUnlocked() {
  std::set<std::string> referenced;
  for (const std::string& id : catalog_->ListIds("model")) {
    auto digest = DigestForUnlocked(id);
    if (digest.ok()) referenced.insert(digest.MoveValueUnsafe());
  }
  MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> digests, blobs_->List());
  size_t removed = 0;
  for (const std::string& digest : digests) {
    if (referenced.count(digest) > 0) continue;
    MLAKE_RETURN_NOT_OK(blobs_->Delete(digest));
    ++removed;
  }
  return removed;
}

std::string ModelLake::IndexDir() const {
  return JoinPath(options_.root, "index");
}

std::string ModelLake::IndexManifestPath() const {
  return JoinPath(IndexDir(), kIndexManifestName);
}

Status ModelLake::ReadIndexInputs(IndexInputs* out) const {
  const ExecutionContext& exec = options_.exec;
  // Catalog reads are const and safe concurrently; the JSON parse is the
  // cost, so every kind parses in parallel into catalog-order slots.
  out->model_ids = catalog_->ListIds("model");
  out->digests.assign(out->model_ids.size(), std::string());
  MLAKE_RETURN_NOT_OK(
      ParallelFor(exec, 0, out->model_ids.size(), [&](size_t i) -> Status {
        MLAKE_ASSIGN_OR_RETURN(Json model_doc,
                               catalog_->GetDoc("model", out->model_ids[i]));
        out->digests[i] = model_doc.GetString("artifact_digest");
        return Status::OK();
      }));

  out->card_ids = catalog_->ListIds("card");
  out->texts.assign(out->card_ids.size(), std::string());
  MLAKE_RETURN_NOT_OK(
      ParallelFor(exec, 0, out->card_ids.size(), [&](size_t i) -> Status {
        MLAKE_ASSIGN_OR_RETURN(Json card_doc,
                               catalog_->GetDoc("card", out->card_ids[i]));
        MLAKE_ASSIGN_OR_RETURN(metadata::ModelCard card,
                               metadata::ModelCard::FromJson(card_doc));
        out->texts[i] = card.SearchText();
        return Status::OK();
      }));

  out->embedding_ids = catalog_->ListIds("embedding");
  out->vectors.assign(out->embedding_ids.size(), std::vector<float>());
  MLAKE_RETURN_NOT_OK(ParallelFor(
      exec, 0, out->embedding_ids.size(), [&](size_t i) -> Status {
        MLAKE_ASSIGN_OR_RETURN(
            Json doc, catalog_->GetDoc("embedding", out->embedding_ids[i]));
        MLAKE_ASSIGN_OR_RETURN(
            out->vectors[i],
            FloatsFromJson(doc, "embedding doc", StatusCode::kCorruption));
        return Status::OK();
      }));

  out->dataset_names = catalog_->ListIds("dataset");
  out->signatures.assign(out->dataset_names.size(), {});
  return ParallelFor(
      exec, 0, out->dataset_names.size(), [&](size_t i) -> Status {
        MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> shards,
                               DatasetShardsUnlocked(out->dataset_names[i]));
        out->signatures[i] = DatasetSignature(shards);
        return Status::OK();
      });
}

Status ModelLake::BuildIndexSet(IndexInputs inputs, IndexSet* out) const {
  out->ann =
      std::make_unique<index::HnswIndex>(embedder_->Dim(), options_.hnsw);
  out->lsh = std::make_unique<index::MinHashLsh>(options_.minhash_bands,
                                                 options_.minhash_rows);
  for (size_t i = 0; i < inputs.model_ids.size(); ++i) {
    out->digest_by_id[inputs.model_ids[i]] = std::move(inputs.digests[i]);
  }
  // The inverted index and the LSH are single threaded: feed them in
  // catalog order.
  for (size_t i = 0; i < inputs.card_ids.size(); ++i) {
    out->bm25.Add(inputs.card_ids[i], inputs.texts[i]);
  }
  // Embeddings -> one bulk ANN build (parallel neighbor search inside).
  std::vector<int64_t> internal_ids(inputs.embedding_ids.size());
  for (size_t i = 0; i < internal_ids.size(); ++i) {
    internal_ids[i] = static_cast<int64_t>(i);
  }
  out->ann_ids = std::move(inputs.embedding_ids);
  MLAKE_RETURN_NOT_OK(
      out->ann->Build(internal_ids, inputs.vectors, options_.exec));
  for (size_t i = 0; i < inputs.dataset_names.size(); ++i) {
    MLAKE_RETURN_NOT_OK(
        out->lsh->Add(inputs.dataset_names[i], inputs.signatures[i]));
  }
  out->dataset_names = std::move(inputs.dataset_names);
  return Status::OK();
}

void ModelLake::InstallIndexSet(IndexSet set) {
  ann_ = std::move(set.ann);
  ann_ids_ = std::move(set.ann_ids);
  bm25_ = std::move(set.bm25);
  dataset_lsh_ = std::move(set.lsh);
  digest_by_id_ = std::move(set.digest_by_id);
}

Status ModelLake::RebuildIndices() {
  IndexInputs inputs;
  MLAKE_RETURN_NOT_OK(ReadIndexInputs(&inputs));
  IndexSet fresh;
  MLAKE_RETURN_NOT_OK(BuildIndexSet(std::move(inputs), &fresh));
  InstallIndexSet(std::move(fresh));
  index_generation_ = 0;
  return Status::OK();
}

Status ModelLake::LoadOrRebuildIndices() {
  if (options_.load_index_snapshots) {
    Status loaded = LoadIndexSnapshots();
    if (loaded.ok()) return Status::OK();
    if (!loaded.IsNotFound()) {
      // Snapshots are a cache of the catalog; anything wrong with them
      // (corruption, truncation, config mismatch) degrades to a full
      // rebuild rather than failing the open.
      MLAKE_LOG_WARNING << "lake " << options_.root
                        << ": index snapshots unusable ("
                        << loaded.ToString() << "); rebuilding from catalog";
    }
  }
  return RebuildIndices();
}

Status ModelLake::WriteIdsSnapshot(const IndexSet& set,
                                   const std::string& path,
                                   uint64_t generation) const {
  // Sidecar for the three index snapshots: the internal-id -> model-id
  // table (HNSW rows), the parallel digest table, and the dataset names
  // behind the LSH entries. All CSR string tables.
  std::vector<std::string> digests(set.ann_ids.size());
  for (size_t i = 0; i < set.ann_ids.size(); ++i) {
    auto it = set.digest_by_id.find(set.ann_ids[i]);
    if (it != set.digest_by_id.end()) digests[i] = it->second;
  }
  std::vector<uint64_t> id_off, dig_off, ds_off;
  std::string id_bytes, dig_bytes, ds_bytes;
  BuildStringTable(set.ann_ids, &id_off, &id_bytes);
  BuildStringTable(digests, &dig_off, &dig_bytes);
  BuildStringTable(set.dataset_names, &ds_off, &ds_bytes);

  std::vector<uint64_t> meta = {set.ann_ids.size(), set.dataset_names.size()};
  index::SnapshotWriter writer(index::SnapshotKind::kLakeIds, generation);
  writer.AddArray("meta", meta);
  writer.AddArray("id_off", id_off);
  writer.AddSection("id_bytes", id_bytes.data(), id_bytes.size());
  writer.AddArray("dig_off", dig_off);
  writer.AddSection("dig_bytes", dig_bytes.data(), dig_bytes.size());
  writer.AddArray("ds_off", ds_off);
  writer.AddSection("ds_bytes", ds_bytes.data(), ds_bytes.size());
  return writer.WriteTo(fs_, path);
}

Status ModelLake::LoadIndexSetFromFiles(const std::string& ann_path,
                                        const std::string& bm25_path,
                                        const std::string& lsh_path,
                                        const std::string& ids_path,
                                        IndexSet* out) const {
  out->ann =
      std::make_unique<index::HnswIndex>(embedder_->Dim(), options_.hnsw);
  out->lsh = std::make_unique<index::MinHashLsh>(options_.minhash_bands,
                                                 options_.minhash_rows);
  MLAKE_RETURN_NOT_OK(out->ann->LoadSnapshot(fs_, ann_path));
  MLAKE_RETURN_NOT_OK(out->bm25.LoadSnapshot(fs_, bm25_path));
  MLAKE_RETURN_NOT_OK(out->lsh->LoadSnapshot(fs_, lsh_path));

  MLAKE_ASSIGN_OR_RETURN(index::SnapshotReader snap,
                         index::SnapshotReader::Open(
                             fs_, ids_path, index::SnapshotKind::kLakeIds));
  MLAKE_ASSIGN_OR_RETURN(auto meta, snap.Array<uint64_t>("meta"));
  if (meta.second != 2) {
    return Status::Corruption("ids snapshot meta malformed: " + ids_path);
  }
  const size_t n_models = static_cast<size_t>(meta.first[0]);
  const size_t n_datasets = static_cast<size_t>(meta.first[1]);
  MLAKE_ASSIGN_OR_RETURN(auto id_off, snap.Array<uint64_t>("id_off"));
  MLAKE_ASSIGN_OR_RETURN(auto id_bytes, snap.Section("id_bytes"));
  MLAKE_ASSIGN_OR_RETURN(auto dig_off, snap.Array<uint64_t>("dig_off"));
  MLAKE_ASSIGN_OR_RETURN(auto dig_bytes, snap.Section("dig_bytes"));
  MLAKE_ASSIGN_OR_RETURN(auto ds_off, snap.Array<uint64_t>("ds_off"));
  MLAKE_ASSIGN_OR_RETURN(auto ds_bytes, snap.Section("ds_bytes"));
  if (id_off.second != n_models + 1 || dig_off.second != n_models + 1 ||
      ds_off.second != n_datasets + 1 ||
      !OffsetsWellFormed(id_off.first, id_off.second, id_bytes.size()) ||
      !OffsetsWellFormed(dig_off.first, dig_off.second, dig_bytes.size()) ||
      !OffsetsWellFormed(ds_off.first, ds_off.second, ds_bytes.size())) {
    return Status::Corruption("ids snapshot tables malformed: " + ids_path);
  }
  out->ann_ids.reserve(n_models);
  for (size_t i = 0; i < n_models; ++i) {
    out->ann_ids.emplace_back(
        id_bytes.substr(static_cast<size_t>(id_off.first[i]),
                        static_cast<size_t>(id_off.first[i + 1] -
                                            id_off.first[i])));
    out->digest_by_id[out->ann_ids.back()] = std::string(
        dig_bytes.substr(static_cast<size_t>(dig_off.first[i]),
                         static_cast<size_t>(dig_off.first[i + 1] -
                                             dig_off.first[i])));
  }
  out->dataset_names.reserve(n_datasets);
  for (size_t i = 0; i < n_datasets; ++i) {
    out->dataset_names.emplace_back(
        ds_bytes.substr(static_cast<size_t>(ds_off.first[i]),
                        static_cast<size_t>(ds_off.first[i + 1] -
                                            ds_off.first[i])));
  }
  // The four files must come from one compaction pass; a torn mix of
  // generations would desynchronize internal ids from model ids.
  if (out->ann->BaseSize() != n_models || out->bm25.BaseSize() != n_models) {
    return Status::Corruption("index snapshot generations mismatched");
  }
  return Status::OK();
}

Result<ModelLake::IndexManifest> ModelLake::ReadIndexManifest() const {
  if (!fs_->FileExists(IndexManifestPath())) {
    return Status::NotFound("no index manifest");
  }
  MLAKE_ASSIGN_OR_RETURN(std::string bytes, fs_->ReadFile(IndexManifestPath()));
  MLAKE_ASSIGN_OR_RETURN(Json j, Json::Parse(bytes));
  IndexManifest manifest;
  manifest.generation = static_cast<uint64_t>(j.GetInt64("generation", 0));
  manifest.ann = j.GetString("ann");
  manifest.bm25 = j.GetString("bm25");
  manifest.lsh = j.GetString("lsh");
  manifest.ids = j.GetString("ids");
  manifest.covered_seq = static_cast<uint64_t>(j.GetInt64("covered_seq", 0));
  manifest.graph_revision =
      static_cast<uint64_t>(j.GetInt64("graph_revision", 0));
  if (manifest.generation == 0 || manifest.ann.empty() ||
      manifest.bm25.empty() || manifest.lsh.empty() || manifest.ids.empty()) {
    return Status::Corruption("index manifest malformed");
  }
  return manifest;
}

Status ModelLake::WriteIndexManifest(const IndexManifest& manifest) {
  Json j = Json::MakeObject();
  j.Set("generation", static_cast<int64_t>(manifest.generation));
  j.Set("ann", manifest.ann);
  j.Set("bm25", manifest.bm25);
  j.Set("lsh", manifest.lsh);
  j.Set("ids", manifest.ids);
  j.Set("covered_seq", Json(manifest.covered_seq));
  j.Set("graph_revision", Json(manifest.graph_revision));
  return WriteFileAtomic(fs_, IndexManifestPath(), j.Dump(2));
}

Status ModelLake::LoadIndexSnapshots() {
  MLAKE_ASSIGN_OR_RETURN(IndexManifest manifest, ReadIndexManifest());
  const uint64_t gen = manifest.generation;
  const std::string& ann_name = manifest.ann;
  const std::string& bm25_name = manifest.bm25;
  const std::string& lsh_name = manifest.lsh;
  const std::string& ids_name = manifest.ids;
  IndexSet set;
  MLAKE_RETURN_NOT_OK(LoadIndexSetFromFiles(
      JoinPath(IndexDir(), ann_name), JoinPath(IndexDir(), bm25_name),
      JoinPath(IndexDir(), lsh_name), JoinPath(IndexDir(), ids_name), &set));

  // The snapshot is a point-in-time cache; the catalog is truth. Models
  // and datasets are immutable per id once written (card edits
  // invalidate the manifest before touching the catalog), so a
  // membership diff fully reconciles the two.
  {
    std::vector<std::string> cat_ids = catalog_->ListIds("model");
    std::set<std::string> cat(cat_ids.begin(), cat_ids.end());
    std::unordered_map<std::string, size_t> snap_pos;
    snap_pos.reserve(set.ann_ids.size());
    for (size_t i = 0; i < set.ann_ids.size(); ++i) {
      snap_pos[set.ann_ids[i]] = i;
    }
    for (const auto& [id, pos] : snap_pos) {
      if (cat.count(id) > 0) continue;
      Status removed = set.ann->Remove(static_cast<int64_t>(pos));
      if (!removed.ok() && !removed.IsNotFound()) return removed;
      set.bm25.Remove(id);
      set.digest_by_id.erase(id);
    }
    std::vector<std::string> added;
    for (const std::string& id : cat_ids) {
      if (snap_pos.count(id) == 0) added.push_back(id);
    }
    if (!added.empty()) {
      std::vector<std::string> digests(added.size());
      std::vector<std::string> texts(added.size());
      std::vector<std::vector<float>> vecs(added.size());
      MLAKE_RETURN_NOT_OK(ParallelFor(
          options_.exec, 0, added.size(), [&](size_t i) -> Status {
            MLAKE_ASSIGN_OR_RETURN(Json model_doc,
                                   catalog_->GetDoc("model", added[i]));
            digests[i] = model_doc.GetString("artifact_digest");
            MLAKE_ASSIGN_OR_RETURN(Json card_doc,
                                   catalog_->GetDoc("card", added[i]));
            MLAKE_ASSIGN_OR_RETURN(metadata::ModelCard card,
                                   metadata::ModelCard::FromJson(card_doc));
            texts[i] = card.SearchText();
            MLAKE_ASSIGN_OR_RETURN(Json emb_doc,
                                   catalog_->GetDoc("embedding", added[i]));
            MLAKE_ASSIGN_OR_RETURN(
                vecs[i], FloatsFromJson(emb_doc, "embedding doc",
                                        StatusCode::kCorruption));
            return Status::OK();
          }));
      std::vector<int64_t> internal_ids(added.size());
      for (size_t i = 0; i < added.size(); ++i) {
        set.bm25.Add(added[i], texts[i]);
        set.digest_by_id[added[i]] = digests[i];
        internal_ids[i] = static_cast<int64_t>(set.ann_ids.size());
        set.ann_ids.push_back(added[i]);
      }
      MLAKE_RETURN_NOT_OK(set.ann->Build(internal_ids, vecs, options_.exec));
    }
  }
  {
    std::vector<std::string> cat_names = catalog_->ListIds("dataset");
    std::set<std::string> cat(cat_names.begin(), cat_names.end());
    std::set<std::string> snap(set.dataset_names.begin(),
                               set.dataset_names.end());
    for (const std::string& name : set.dataset_names) {
      if (cat.count(name) == 0) set.lsh->Remove(name);
    }
    for (const std::string& name : cat_names) {
      if (snap.count(name) > 0) continue;
      MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> shards,
                             DatasetShardsUnlocked(name));
      MLAKE_RETURN_NOT_OK(set.lsh->Add(name, DatasetSignature(shards)));
    }
  }
  InstallIndexSet(std::move(set));
  index_generation_ = gen;
  manifest_ = std::move(manifest);
  return Status::OK();
}

Status ModelLake::GcIndexFilesUnlocked() {
  std::set<std::string> keep = {kIndexManifestName};
  if (auto manifest = ReadIndexManifest(); manifest.ok()) {
    const IndexManifest& m = manifest.ValueUnsafe();
    keep.insert({m.ann, m.bm25, m.lsh, m.ids});
  }
  auto files = fs_->ListDir(IndexDir());
  if (!files.ok()) return Status::OK();  // no index dir yet
  for (const std::string& name : files.ValueUnsafe()) {
    if (keep.count(name) > 0) continue;
    MLAKE_RETURN_NOT_OK(fs_->RemoveFile(JoinPath(IndexDir(), name)));
  }
  return Status::OK();
}

Status ModelLake::InvalidateIndexSnapshotsUnlocked() {
  manifest_.reset();
  if (!fs_->FileExists(IndexManifestPath())) return Status::OK();
  MLAKE_RETURN_NOT_OK(fs_->RemoveFile(IndexManifestPath()));
  return fs_->SyncDir(IndexDir());
}

Status ModelLake::CompactIndices() {
  // One pass at a time; the pass itself holds the lake lock only for
  // short critical sections, so reads and ingests proceed while the
  // bulk build and the file writes run.
  std::lock_guard<std::mutex> run(compact_run_mu_);
  const auto t0 = std::chrono::steady_clock::now();

  // Phase 1 (shared lock): parse the build inputs from the catalog.
  // The build is deterministic given the catalog, so its result is
  // bit-identical to what a cold Open() would build — which is also why
  // a pass with nothing new since the generation this lake last
  // published (same epoch, same generation, manifest still on disk)
  // would only rewrite the same files, and is skipped. The log seq and
  // graph revision read here are the ones the generation covers.
  uint64_t epoch;
  IndexManifest manifest;
  IndexInputs inputs;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    epoch = mutation_epoch_;
    if (published_generation_ != 0 &&
        published_generation_ == index_generation_ &&
        published_epoch_ == epoch && fs_->FileExists(IndexManifestPath())) {
      ++passes_skipped_;
      return Status::OK();
    }
    manifest.covered_seq = journal_->last_committed_seq();
    manifest.graph_revision = graph_.revision();
    MLAKE_RETURN_NOT_OK(ReadIndexInputs(&inputs));
  }

  // Phase 2 (no lake lock): build. Writers proceed meanwhile; one that
  // lands makes this set stale, and the pass gives up before it
  // journals or writes anything (a bulk load's next batch overtakes the
  // background pass its previous batch triggered).
  IndexSet fresh;
  MLAKE_RETURN_NOT_OK(BuildIndexSet(std::move(inputs), &fresh));
  auto abort_pass = [this] {
    ++passes_aborted_;
    return Status::Unavailable("lake mutated during compaction; pass aborted");
  };
  if (mutation_epoch_ != epoch) return abort_pass();
  MLAKE_RETURN_NOT_OK(fs_->CreateDirs(IndexDir()));

  // Phase 3: journal the intent, then write the four snapshot files
  // (each via WriteFileAtomic) without the lake lock. A crash anywhere
  // in here leaves the intent pending; recovery deletes whatever files
  // the manifest does not name.
  storage::Intent intent;
  intent.op = "compact";
  uint64_t gen;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (mutation_epoch_ != epoch) return abort_pass();
    gen = index_generation_ + 1;
    MLAKE_ASSIGN_OR_RETURN(intent.seq, journal_->Begin(intent));
  }
  manifest.generation = gen;
  manifest.ann = SnapName("ann", gen);
  manifest.bm25 = SnapName("bm25", gen);
  manifest.lsh = SnapName("lsh", gen);
  manifest.ids = SnapName("ids", gen);
  Status wrote =
      fresh.ann->SaveSnapshot(fs_, JoinPath(IndexDir(), manifest.ann), gen);
  if (wrote.ok()) {
    wrote = fresh.bm25.SaveSnapshot(fs_, JoinPath(IndexDir(), manifest.bm25),
                                    gen);
  }
  if (wrote.ok()) {
    wrote = fresh.lsh->SaveSnapshot(fs_, JoinPath(IndexDir(), manifest.lsh),
                                    gen);
  }
  if (wrote.ok()) {
    wrote = WriteIdsSnapshot(fresh, JoinPath(IndexDir(), manifest.ids), gen);
  }

  // Phase 4 (exclusive lock): publish. If the lake mutated during the
  // writes the fresh set is stale — abort the swap, GC the orphaned
  // files, and let the next scheduled pass pick up the newer state.
  Status outcome;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    outcome = wrote;
    if (outcome.ok() && epoch != mutation_epoch_) outcome = abort_pass();
    if (outcome.ok()) outcome = WriteIndexManifest(manifest);
    if (outcome.ok()) {
      // Serve the base segment from the files just written (mmap) so a
      // long-lived lake sheds the heap copy; if the reload fails for
      // any reason the in-memory fresh set has identical contents.
      IndexSet loaded;
      Status reloaded = LoadIndexSetFromFiles(
          JoinPath(IndexDir(), manifest.ann),
          JoinPath(IndexDir(), manifest.bm25),
          JoinPath(IndexDir(), manifest.lsh),
          JoinPath(IndexDir(), manifest.ids), &loaded);
      InstallIndexSet(reloaded.ok() ? std::move(loaded) : std::move(fresh));
      index_generation_ = gen;
      published_generation_ = gen;
      published_epoch_ = epoch;
      manifest_ = manifest;
      ++passes_published_;
    }
    // GC covers both exits: superseded old-generation files after a
    // swap, orphaned new-generation files after an abort or a failed
    // write. Runs before the intent resolves so a crash re-runs it.
    Status gc = GcIndexFilesUnlocked();
    if (!gc.ok()) {
      MLAKE_LOG_WARNING << "lake " << options_.root
                        << ": index gc after compaction failed ("
                        << gc.ToString() << ")";
    }
    // A pass is local housekeeping that is never shipped, so its intent
    // leaves the journal rather than entering the replayable log: on a
    // replica a retained entry would hold a seq its leader ships later.
    Status resolved = journal_->Abort(intent.seq);
    if (outcome.ok()) outcome = resolved;
    // Under the exclusive lock: IndexStatsJson reads it shared.
    last_compact_ms_ =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  }
  return outcome;
}

void ModelLake::MaybeScheduleCompactionLocked() {
  if (!options_.background_compaction) return;
  const size_t delta = ann_->DeltaSize();
  const size_t growth = static_cast<size_t>(
      static_cast<double>(ann_->BaseSize()) * options_.compact_growth);
  if (delta < std::max(options_.compact_min_delta, growth)) return;
  std::lock_guard<std::mutex> g(compact_mu_);
  if (compact_stop_) return;
  // Lazy thread start: small lakes (tests, tools) never cross the
  // threshold and never pay for — or fork across — a live thread.
  if (!compactor_.joinable()) {
    compactor_ = std::thread([this] { CompactorLoop(); });
  }
  compact_requested_ = true;
  compact_cv_.notify_one();
}

void ModelLake::CompactorLoop() {
  std::unique_lock<std::mutex> lock(compact_mu_);
  while (true) {
    compact_cv_.wait(lock,
                     [this] { return compact_stop_ || compact_requested_; });
    if (compact_stop_) return;
    compact_requested_ = false;
    lock.unlock();
    Status compacted = CompactIndices();
    if (!compacted.ok() && !compacted.IsUnavailable()) {
      MLAKE_LOG_WARNING << "lake " << options_.root
                        << ": background compaction failed ("
                        << compacted.ToString() << ")";
    }
    lock.lock();
  }
}

Json ModelLake::IndexStatsJson() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto seg = [](size_t base, size_t delta, size_t tombstones, size_t live,
                uint64_t generation) {
    Json j = Json::MakeObject();
    j.Set("base", static_cast<int64_t>(base));
    j.Set("delta", static_cast<int64_t>(delta));
    j.Set("tombstones", static_cast<int64_t>(tombstones));
    j.Set("live", static_cast<int64_t>(live));
    j.Set("snapshot_generation", static_cast<int64_t>(generation));
    return j;
  };
  Json out = Json::MakeObject();
  out.Set("generation", static_cast<int64_t>(index_generation_));
  out.Set("last_compaction_ms", last_compact_ms_);
  Json passes = Json::MakeObject();
  passes.Set("published", passes_published_.load());
  passes.Set("aborted", passes_aborted_.load());
  passes.Set("skipped", passes_skipped_.load());
  out.Set("compactions", std::move(passes));
  out.Set("ann", seg(ann_->BaseSize(), ann_->DeltaSize(), ann_->Tombstones(),
                     ann_->Size(), ann_->snapshot_generation()));
  out.Set("bm25",
          seg(bm25_.BaseSize(), bm25_.DeltaSize(), bm25_.Tombstones(),
              bm25_.NumDocs(), bm25_.snapshot_generation()));
  out.Set("lsh",
          seg(dataset_lsh_->BaseSize(), dataset_lsh_->DeltaSize(),
              dataset_lsh_->Tombstones(), dataset_lsh_->Size(),
              dataset_lsh_->snapshot_generation()));
  return out;
}

index::MinHashSignature ModelLake::DatasetSignature(
    const std::vector<std::string>& shards) const {
  return index::ComputeMinHash(shards,
                               options_.minhash_bands * options_.minhash_rows);
}

Status ModelLake::PersistGraph() {
  return catalog_->PutDoc("graph", "main", graph_.ToJson());
}

Status ModelLake::IndexModel(const std::string& id,
                             const metadata::ModelCard& card) {
  bm25_.Add(id, card.SearchText());
  return Status::OK();
}

Status ModelLake::ValidateIngest(
    const IngestRequest& request,
    const std::vector<std::string>& batch_ids) const {
  const metadata::ModelCard& card = request.card;
  if (request.model == nullptr) {
    return Status::InvalidArgument("IngestRequest.model is required");
  }
  if (card.model_id.empty()) {
    return Status::InvalidArgument("card.model_id is required");
  }
  if (catalog_->Contains("model", card.model_id)) {
    return Status::AlreadyExists("model already in lake: " + card.model_id);
  }
  if (std::find(batch_ids.begin(), batch_ids.end(), card.model_id) !=
      batch_ids.end()) {
    return Status::AlreadyExists("duplicate model id in ingest batch: " +
                                 card.model_id);
  }
  std::vector<std::string> problems = metadata::ValidateCard(card);
  if (!problems.empty()) {
    // Lakes accept imperfect documentation (that is the paper's reality)
    // but reject structurally broken cards.
    for (const std::string& p : problems) {
      if (p.find("model_id") != std::string::npos) {
        return Status::InvalidArgument("invalid card: " + p);
      }
    }
  }
  if (request.model->spec().input_dim != options_.input_dim ||
      request.model->spec().num_classes != options_.num_classes) {
    return Status::InvalidArgument(
        "model io dims do not match this lake's shared input/output space");
  }
  return Status::OK();
}

Result<std::string> ModelLake::IngestModel(const nn::Model& model,
                                           const metadata::ModelCard& card) {
  std::vector<IngestRequest> batch(1);
  batch[0].model = &model;
  batch[0].card = card;
  MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> ids, IngestModels(batch));
  return ids.front();
}

Result<std::vector<std::string>> ModelLake::IngestModels(
    const std::vector<IngestRequest>& batch) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return IngestModelsLocked(batch);
}

Result<std::vector<std::string>> ModelLake::IngestModelsLocked(
    const std::vector<IngestRequest>& batch) {
  // Phase 0: validate everything before writing anything — a rejected
  // batch leaves the lake untouched.
  std::vector<std::string> ids;
  ids.reserve(batch.size());
  for (const IngestRequest& request : batch) {
    MLAKE_RETURN_NOT_OK(ValidateIngest(request, ids));
    ids.push_back(request.card.model_id);
  }

  // Phase 1 (parallel, pure): serialize artifacts, hash them for the
  // intent, and compute embeddings. Each task owns slot i; results land
  // in batch order. Nothing durable has changed yet.
  std::vector<std::string> artifact_bytes(batch.size());
  std::vector<std::string> digests(batch.size());
  MLAKE_RETURN_NOT_OK(
      ParallelFor(options_.exec, 0, batch.size(), [&](size_t i) {
        Json meta = Json::MakeObject();
        meta.Set("model_id", batch[i].card.model_id);
        storage::ModelArtifact artifact =
            storage::ArtifactFromModel(*batch[i].model, meta);
        artifact_bytes[i] = storage::SerializeArtifact(artifact);
        digests[i] = Sha256::HexDigest(artifact_bytes[i]);
      }));

  std::vector<nn::Model*> models(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    // Embed runs a forward pass (mutates per-model scratch); the batch
    // API takes const models, matching IngestModel's historic contract.
    models[i] = const_cast<nn::Model*>(batch[i].model);
  }
  MLAKE_ASSIGN_OR_RETURN(std::vector<std::vector<float>> embeddings,
                         embedder_->EmbedAll(models, options_.exec));

  // Phase 2: durably journal the intent before touching any durable
  // state. From here the batch is all-or-nothing: a crash leaves the
  // intent behind and the next Open() rolls the batch back.
  storage::Intent intent;
  intent.op = "ingest";
  intent.ids = ids;
  intent.digests = digests;
  if (options_.replication_log) {
    // Replay payload: the cards. Artifact bytes ship by digest and the
    // embedding is recomputed deterministically from them, so cards are
    // all a replica needs beyond the blobs.
    Json cards = Json::MakeArray();
    for (const IngestRequest& request : batch) {
      cards.Append(request.card.ToJson());
    }
    Json payload = Json::MakeObject();
    payload.Set("cards", std::move(cards));
    intent.payload = std::move(payload);
  }
  MLAKE_ASSIGN_OR_RETURN(intent.seq, BeginIntentLocked(intent));

  // Phase 3: apply the mutation (blobs, catalog, indices, graph).
  const size_t pre_ann_ids = ann_ids_.size();
  const size_t pre_ann_delta = ann_->DeltaSize();
  Status applied = ApplyIngest(batch, digests, artifact_bytes, embeddings);
  if (applied.ok()) {
    // Batch durability point, then commit the intent away. A crash
    // between Sync and Commit replays a rollback of a fully-applied
    // batch on the next open — which is correct (the caller never saw
    // the ingest succeed) and consistent.
    applied = catalog_->Sync();
    if (applied.ok()) applied = journal_->Commit(intent.seq);
  }
  if (!applied.ok()) {
    // Best-effort immediate rollback. The indexes support incremental
    // removal, so undoing the batch is O(batch), not O(lake). If the
    // disk rollback itself fails (filesystem still erroring), the
    // intent stays pending and the next Open() finishes the job.
    // Abort, not Commit: a rolled-back batch must never enter the
    // replayable log a replica would ship.
    Status rolled_back = RollbackIntent(intent);
    if (rolled_back.ok()) {
      rolled_back = journal_->Abort(intent.seq);
    }
    if (!rolled_back.ok()) {
      MLAKE_LOG_WARNING << "lake " << options_.root
                        << ": ingest rollback incomplete ("
                        << rolled_back.ToString()
                        << "); will be replayed on next open";
    }
    RollbackBatchIndexesLocked(ids, pre_ann_ids, pre_ann_delta);
    ++mutation_epoch_;
    return applied;
  }
  ++mutation_epoch_;
  MaybeScheduleCompactionLocked();
  return ids;
}

void ModelLake::RollbackBatchIndexesLocked(const std::vector<std::string>& ids,
                                           size_t pre_ann_ids,
                                           size_t pre_ann_delta) {
  for (const std::string& id : ids) {
    bm25_.Remove(id);
    digest_by_id_.erase(id);
  }
  // The batch's vectors were appended to the ANN delta tail; peel them
  // off. A partially applied batch may have appended fewer than
  // ids.size() rows, so measure rather than assume.
  const size_t appended = ann_->DeltaSize() - pre_ann_delta;
  if (appended > 0) {
    Status truncated = ann_->TruncateTail(appended);
    if (!truncated.ok()) {
      MLAKE_LOG_WARNING << "lake " << options_.root
                        << ": ANN tail truncate after aborted ingest failed ("
                        << truncated.ToString() << "); rebuilding";
      Status rebuilt = RebuildIndices();
      if (!rebuilt.ok()) {
        MLAKE_LOG_WARNING << "lake " << options_.root
                          << ": index rebuild after aborted ingest failed ("
                          << rebuilt.ToString() << "); reopen the lake";
      }
      return;  // rebuild already resized ann_ids_
    }
  }
  ann_ids_.resize(pre_ann_ids);
}

Result<std::vector<std::string>> ModelLake::IngestCards(
    const std::vector<CardIngest>& batch) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return IngestCardsLocked(batch);
}

Result<std::vector<std::string>> ModelLake::IngestCardsLocked(
    const std::vector<CardIngest>& batch) {
  std::vector<std::string> ids;
  ids.reserve(batch.size());
  for (const CardIngest& item : batch) {
    const std::string& id = item.card.model_id;
    if (id.empty()) {
      return Status::InvalidArgument("card.model_id is required");
    }
    if (catalog_->Contains("model", id)) {
      return Status::AlreadyExists("model already in lake: " + id);
    }
    if (std::find(ids.begin(), ids.end(), id) != ids.end()) {
      return Status::AlreadyExists("duplicate model id in ingest batch: " +
                                   id);
    }
    if (static_cast<int64_t>(item.embedding.size()) != embedder_->Dim()) {
      return Status::InvalidArgument(StrFormat(
          "embedding for %s has dim %zu, lake expects %lld", id.c_str(),
          item.embedding.size(), static_cast<long long>(embedder_->Dim())));
    }
    ids.push_back(id);
  }
  if (ids.empty()) return ids;

  storage::Intent intent;
  intent.op = "ingest";
  intent.ids = ids;
  if (options_.replication_log) {
    // Metadata-only ingests have no artifact to recompute from, so the
    // payload carries the embeddings inline alongside the cards.
    Json cards = Json::MakeArray();
    Json embeddings_json = Json::MakeArray();
    for (const CardIngest& item : batch) {
      cards.Append(item.card.ToJson());
      embeddings_json.Append(FloatsToJson(item.embedding));
    }
    Json payload = Json::MakeObject();
    payload.Set("cards", std::move(cards));
    payload.Set("embeddings", std::move(embeddings_json));
    intent.payload = std::move(payload);
  }
  MLAKE_ASSIGN_OR_RETURN(intent.seq, BeginIntentLocked(intent));

  const size_t pre_ann_ids = ann_ids_.size();
  const size_t pre_ann_delta = ann_->DeltaSize();
  Status applied = ApplyCards(batch);
  if (applied.ok()) {
    applied = catalog_->Sync();
    if (applied.ok()) applied = journal_->Commit(intent.seq);
  }
  if (!applied.ok()) {
    Status rolled_back = RollbackIntent(intent);
    if (rolled_back.ok()) {
      rolled_back = journal_->Abort(intent.seq);
    }
    if (!rolled_back.ok()) {
      MLAKE_LOG_WARNING << "lake " << options_.root
                        << ": card-ingest rollback incomplete ("
                        << rolled_back.ToString()
                        << "); will be replayed on next open";
    }
    RollbackBatchIndexesLocked(ids, pre_ann_ids, pre_ann_delta);
    ++mutation_epoch_;
    return applied;
  }
  ++mutation_epoch_;
  MaybeScheduleCompactionLocked();
  return ids;
}

Status ModelLake::ApplyCards(const std::vector<CardIngest>& batch) {
  std::vector<int64_t> internal_ids(batch.size());
  std::vector<std::vector<float>> embeddings(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const metadata::ModelCard& card = batch[i].card;
    Json model_doc = Json::MakeObject();
    model_doc.Set("artifact_digest", std::string());
    model_doc.Set("metadata_only", true);
    MLAKE_RETURN_NOT_OK(catalog_->PutDoc("model", card.model_id, model_doc));
    MLAKE_RETURN_NOT_OK(
        catalog_->PutDoc("card", card.model_id, card.ToJson()));
    MLAKE_RETURN_NOT_OK(catalog_->PutDoc("embedding", card.model_id,
                                         FloatsToJson(batch[i].embedding)));
    bm25_.Add(card.model_id, card.SearchText());
    digest_by_id_[card.model_id] = std::string();
    internal_ids[i] = static_cast<int64_t>(ann_ids_.size());
    ann_ids_.push_back(card.model_id);
    embeddings[i] = batch[i].embedding;
  }
  // No graph node and no PersistGraph: metadata-only models carry no
  // recorded lineage, and the graph JSON stays proportional to the
  // artifact-backed population.
  return ann_->Build(internal_ids, embeddings, options_.exec);
}

int64_t ModelLake::EmbeddingDim() const { return embedder_->Dim(); }

Status ModelLake::ApplyIngest(
    const std::vector<IngestRequest>& batch,
    const std::vector<std::string>& digests,
    const std::vector<std::string>& artifact_bytes,
    const std::vector<std::vector<float>>& embeddings) {
  // Blobs first (content-addressed, idempotent), then catalog docs,
  // BM25, graph nodes — all in batch order.
  for (size_t i = 0; i < batch.size(); ++i) {
    MLAKE_ASSIGN_OR_RETURN(std::string digest,
                           blobs_->Put(artifact_bytes[i]));
    if (digest != digests[i]) {
      return Status::Internal("artifact digest mismatch for " +
                              batch[i].card.model_id);
    }
  }
  std::vector<int64_t> internal_ids(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const metadata::ModelCard& card = batch[i].card;
    Json model_doc = Json::MakeObject();
    model_doc.Set("artifact_digest", digests[i]);
    model_doc.Set("arch", batch[i].model->spec().ToJson());
    model_doc.Set("num_params", batch[i].model->spec().input_dim == 0
                                    ? Json(0)
                                    : Json(batch[i].model->NumParams()));
    MLAKE_RETURN_NOT_OK(catalog_->PutDoc("model", card.model_id, model_doc));
    MLAKE_RETURN_NOT_OK(catalog_->PutDoc("card", card.model_id,
                                         card.ToJson()));
    MLAKE_RETURN_NOT_OK(catalog_->PutDoc("embedding", card.model_id,
                                         FloatsToJson(embeddings[i])));
    MLAKE_RETURN_NOT_OK(IndexModel(card.model_id, card));
    digest_by_id_[card.model_id] = digests[i];
    internal_ids[i] = static_cast<int64_t>(ann_ids_.size());
    ann_ids_.push_back(card.model_id);
    graph_.AddModel(card.model_id);
  }

  // One bulk ANN extension (parallel inside, deterministic at any
  // thread count), then persist the graph once for the batch.
  MLAKE_RETURN_NOT_OK(ann_->Build(internal_ids, embeddings, options_.exec));
  return PersistGraph();
}

Result<std::unique_ptr<nn::Model>> ModelLake::LoadModel(
    const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return LoadModelUnlocked(id);
}

Result<std::shared_ptr<const storage::ModelArtifact>> ModelLake::LoadArtifact(
    const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (degraded_.count(id) > 0) {
    return Status::FailedPrecondition(
        "model is degraded (artifact quarantined): " + id);
  }
  MLAKE_ASSIGN_OR_RETURN(std::string digest, DigestForUnlocked(id));
  return LoadArtifactUnlocked(digest);
}

Result<std::string> ModelLake::DigestForUnlocked(const std::string& id) const {
  std::string digest;
  if (auto it = digest_by_id_.find(id); it != digest_by_id_.end()) {
    digest = it->second;
  } else {
    // Fallback for ids the map has not seen (defensive; the map tracks
    // every ingest and Open rebuild).
    MLAKE_ASSIGN_OR_RETURN(Json model_doc, catalog_->GetDoc("model", id));
    digest = model_doc.GetString("artifact_digest");
  }
  if (digest.empty()) {
    // Metadata-only models (IngestCards) are cataloged and searchable
    // but have no checkpoint behind them.
    return Status::FailedPrecondition(
        "model has no stored artifact (metadata-only): " + id);
  }
  return digest;
}

Result<std::shared_ptr<const storage::ModelArtifact>>
ModelLake::LoadArtifactUnlocked(const std::string& digest) const {
  if (digest.empty()) return Status::Corruption("model doc missing digest");
  if (auto cached = artifact_cache_->Get(digest)) return cached;
  // Miss path: borrow the blob bytes (mmap view, digest verified per
  // policy) and decode in place — no whole-file copy.
  MLAKE_ASSIGN_OR_RETURN(storage::BlobView view, blobs_->GetView(digest));
  MLAKE_ASSIGN_OR_RETURN(storage::ModelArtifact artifact,
                         storage::ParseArtifact(view.bytes()));
  auto shared =
      std::make_shared<const storage::ModelArtifact>(std::move(artifact));
  artifact_cache_->Put(digest, shared, storage::ArtifactMemoryBytes(*shared));
  return shared;
}

Result<std::unique_ptr<nn::Model>> ModelLake::LoadModelUnlocked(
    const std::string& id) const {
  if (degraded_.count(id) > 0) {
    return Status::FailedPrecondition(
        "model is degraded (artifact quarantined): " + id);
  }
  MLAKE_ASSIGN_OR_RETURN(std::string digest, DigestForUnlocked(id));
  MLAKE_ASSIGN_OR_RETURN(std::shared_ptr<const storage::ModelArtifact> artifact,
                         LoadArtifactUnlocked(digest));
  return storage::ModelFromArtifact(*artifact);
}

Status ModelLake::UpdateCard(const metadata::ModelCard& card) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!catalog_->Contains("model", card.model_id)) {
    return Status::NotFound("model not in lake: " + card.model_id);
  }
  // A card edit changes index content without changing membership, so
  // it is invisible to the snapshot-vs-catalog diff on the next open.
  // Durably drop the manifest first: crash after this point and the
  // next open rebuilds from the catalog (which has the new card).
  MLAKE_RETURN_NOT_OK(InvalidateIndexSnapshotsUnlocked());
  MLAKE_RETURN_NOT_OK(catalog_->PutDoc("card", card.model_id, card.ToJson()));
  bm25_.Add(card.model_id, card.SearchText());  // replaces
  ++mutation_epoch_;
  return Status::OK();
}

std::vector<std::string> ModelLake::ListModelsUnlocked() const {
  return catalog_->ListIds("model");
}

std::vector<std::string> ModelLake::SearchableModelIdsUnlocked() const {
  std::vector<std::string> ids = ListModelsUnlocked();
  if (degraded_.empty()) return ids;
  ids.erase(std::remove_if(ids.begin(), ids.end(),
                           [this](const std::string& id) {
                             return degraded_.count(id) > 0;
                           }),
            ids.end());
  return ids;
}

std::vector<std::string> ModelLake::ListModels() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ListModelsUnlocked();
}

size_t ModelLake::NumModels() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return catalog_->KindCount("model");
}

Result<std::vector<std::string>> ModelLake::FsckArtifacts() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Quarantined models are known-bad and no longer served; fsck checks
  // the serving set.
  std::vector<std::string> ids = SearchableModelIdsUnlocked();
  std::vector<uint8_t> bad(ids.size(), 0);
  MLAKE_RETURN_NOT_OK(
      ParallelFor(options_.exec, 0, ids.size(), [&](size_t i) -> Status {
        auto digest = DigestForUnlocked(ids[i]);
        if (!digest.ok()) {
          // Metadata-only models have no artifact to verify.
          if (!digest.status().IsFailedPrecondition()) bad[i] = 1;
          return Status::OK();
        }
        // Forced digest re-hash over an mmap view plus a decode-free
        // CRC walk: fsck never materializes a checkpoint on the heap.
        auto view = blobs_->GetView(digest.ValueUnsafe(),
                                    storage::VerifyMode::kAlways);
        if (!view.ok() ||
            !storage::VerifyArtifact(view.ValueUnsafe().bytes()).ok()) {
          bad[i] = 1;
        }
        return Status::OK();
      }));
  std::vector<std::string> corrupted;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (bad[i]) corrupted.push_back(ids[i]);
  }
  return corrupted;
}

Status ModelLake::QuarantineModelLocked(const std::string& id,
                                        const std::string& reason) {
  MLAKE_ASSIGN_OR_RETURN(std::string digest, DigestForUnlocked(id));
  Status moved = blobs_->Quarantine(digest);
  // NotFound = the blob is already gone (deleted or quarantined by an
  // earlier pass); the models still need their degraded mark.
  if (!moved.ok() && !moved.IsNotFound()) return moved;
  // Content addressing deduplicates identical checkpoints, so one bad
  // blob can back several ids — degrade all of them.
  for (const auto& [other_id, other_digest] : digest_by_id_) {
    if (other_digest != digest) continue;
    Json doc = Json::MakeObject();
    doc.Set("digest", digest);
    doc.Set("reason", reason);
    MLAKE_RETURN_NOT_OK(catalog_->PutDoc("degraded", other_id, doc));
    degraded_.insert(other_id);
  }
  return catalog_->Sync();
}

Status ModelLake::QuarantineModel(const std::string& id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!catalog_->Contains("model", id)) {
    return Status::NotFound("model not in lake: " + id);
  }
  return QuarantineModelLocked(id, "manual quarantine");
}

std::vector<std::string> ModelLake::DegradedModels() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return {degraded_.begin(), degraded_.end()};
}

bool ModelLake::IsDegraded(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return degraded_.count(id) > 0;
}

Json RecoveryReport::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("rolled_back_intents", rolled_back_intents);
  Json ids = Json::MakeArray();
  for (const std::string& id : rolled_back_ids) ids.Append(Json(id));
  j.Set("rolled_back_ids", std::move(ids));
  j.Set("orphan_blobs_removed", orphan_blobs_removed);
  j.Set("tmp_files_removed", tmp_files_removed);
  return j;
}

Json FsckReport::ToJson() const {
  Json j = Json::MakeObject();
  Json bad = Json::MakeArray();
  for (const std::string& id : corrupted) bad.Append(Json(id));
  j.Set("corrupted_models", std::move(bad));
  Json q = Json::MakeArray();
  for (const std::string& d : quarantined) q.Append(Json(d));
  j.Set("quarantined_blobs", std::move(q));
  j.Set("orphan_blobs_removed", orphan_blobs_removed);
  j.Set("tmp_files_removed", tmp_files_removed);
  return j;
}

Result<FsckReport> ModelLake::FsckRepair() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  FsckReport report;

  // 1. Verify the serving set (parallel digest re-hash + CRC walk, the
  // same check as FsckArtifacts).
  std::vector<std::string> ids = SearchableModelIdsUnlocked();
  std::vector<uint8_t> bad(ids.size(), 0);
  MLAKE_RETURN_NOT_OK(
      ParallelFor(options_.exec, 0, ids.size(), [&](size_t i) -> Status {
        auto digest = DigestForUnlocked(ids[i]);
        if (!digest.ok()) {
          // Metadata-only models have no artifact to verify.
          if (!digest.status().IsFailedPrecondition()) bad[i] = 1;
          return Status::OK();
        }
        auto view = blobs_->GetView(digest.ValueUnsafe(),
                                    storage::VerifyMode::kAlways);
        if (!view.ok() ||
            !storage::VerifyArtifact(view.ValueUnsafe().bytes()).ok()) {
          bad[i] = 1;
        }
        return Status::OK();
      }));

  // 2. Quarantine the corrupt ones (sequential: catalog writes).
  std::set<std::string> quarantined_digests;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!bad[i]) continue;
    report.corrupted.push_back(ids[i]);
    auto digest = DigestForUnlocked(ids[i]);
    MLAKE_RETURN_NOT_OK(
        QuarantineModelLocked(ids[i], "fsck: artifact verification failed"));
    if (digest.ok()) quarantined_digests.insert(digest.MoveValueUnsafe());
  }
  report.quarantined.assign(quarantined_digests.begin(),
                            quarantined_digests.end());

  // 3. Housekeeping: stray temp files + orphan blobs.
  MLAKE_RETURN_NOT_OK(
      RemoveStrayTmpFiles(fs_, options_.root, &report.tmp_files_removed));
  MLAKE_RETURN_NOT_OK(journal_->RemoveStrayTmp(&report.tmp_files_removed));
  MLAKE_RETURN_NOT_OK(blobs_->RemoveStrayTmp(&report.tmp_files_removed));
  MLAKE_ASSIGN_OR_RETURN(report.orphan_blobs_removed, GcOrphanBlobsUnlocked());
  return report;
}

// -------------------------------------------------------------- datasets

Status ModelLake::RegisterDataset(const std::string& name,
                                  const std::vector<std::string>& shards) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return RegisterDatasetLocked(name, shards);
}

Status ModelLake::RegisterDatasetLocked(
    const std::string& name, const std::vector<std::string>& shards) {
  if (name.empty() || shards.empty()) {
    return Status::InvalidArgument("dataset needs a name and shards");
  }
  if (catalog_->Contains("dataset", name)) {
    return Status::AlreadyExists("dataset already registered: " + name);
  }
  Json doc = Json::MakeObject();
  Json arr = Json::MakeArray();
  for (const std::string& s : shards) arr.Append(Json(s));
  doc.Set("shards", std::move(arr));
  MLAKE_RETURN_NOT_OK(catalog_->PutDoc("dataset", name, doc));
  ++mutation_epoch_;
  MLAKE_RETURN_NOT_OK(dataset_lsh_->Add(name, DatasetSignature(shards)));
  if (!options_.replication_log) return Status::OK();
  // Apply-then-log, like RecordEdgeLocked.
  MLAKE_RETURN_NOT_OK(catalog_->Sync());
  storage::Intent intent;
  intent.op = "register_dataset";
  Json payload = Json::MakeObject();
  payload.Set("name", name);
  Json shards_json = Json::MakeArray();
  for (const std::string& s : shards) shards_json.Append(Json(s));
  payload.Set("shards", std::move(shards_json));
  intent.payload = std::move(payload);
  MLAKE_ASSIGN_OR_RETURN(intent.seq, BeginIntentLocked(intent));
  return journal_->Commit(intent.seq);
}

Result<std::vector<std::string>> ModelLake::DatasetShardsUnlocked(
    const std::string& name) const {
  MLAKE_ASSIGN_OR_RETURN(Json doc, catalog_->GetDoc("dataset", name));
  std::vector<std::string> shards;
  if (const Json* arr = doc.Find("shards");
      arr != nullptr && arr->is_array()) {
    for (const Json& s : arr->AsArray()) {
      if (s.is_string()) shards.push_back(s.AsString());
    }
  }
  return shards;
}

Result<std::vector<std::string>> ModelLake::DatasetShards(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return DatasetShardsUnlocked(name);
}

std::vector<std::string> ModelLake::ListDatasets() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return catalog_->ListIds("dataset");
}

// --------------------------------------------------------------- lineage

Status ModelLake::RecordEdge(const versioning::VersionEdge& edge) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return RecordEdgeLocked(edge);
}

Status ModelLake::RecordEdgeLocked(const versioning::VersionEdge& edge) {
  MLAKE_RETURN_NOT_OK(graph_.AddEdge(edge));
  MLAKE_RETURN_NOT_OK(PersistGraph());
  // Edges are governance-export content, so recording one must move the
  // (mutation_epoch, index_generation) change key or /v1/export pollers
  // would keep getting 304 against a stale ETag. The other consumers of
  // the epoch only get more conservative: a mid-pass compaction aborts
  // its swap and retries, and the stats/plan caches rebuild lazily.
  ++mutation_epoch_;
  if (!options_.replication_log) return Status::OK();
  // Apply-then-log: make the edge durable first, then append + commit
  // the log entry so replicas replay it. A crash between Sync and
  // Commit leaves a pending intent whose mutation already applied;
  // Recover completes the Commit (never rolls it back). A crash before
  // Begin loses only the log entry — the periodic fingerprint exchange
  // catches the divergence and a re-seed repairs it.
  MLAKE_RETURN_NOT_OK(catalog_->Sync());
  storage::Intent intent;
  intent.op = "record_edge";
  Json payload = Json::MakeObject();
  payload.Set("parent", edge.parent);
  payload.Set("child", edge.child);
  payload.Set("type", std::string(versioning::EdgeTypeToString(edge.type)));
  payload.Set("confidence", edge.confidence);
  if (!edge.params.is_null()) payload.Set("params", edge.params);
  intent.payload = std::move(payload);
  MLAKE_ASSIGN_OR_RETURN(intent.seq, BeginIntentLocked(intent));
  return journal_->Commit(intent.seq);
}

// ----------------------------------------------------------- replication

Result<uint64_t> ModelLake::BeginIntentLocked(const storage::Intent& intent) {
  if (forced_seq_ == 0) return journal_->Begin(intent);
  storage::Intent stamped = intent;
  stamped.epoch = forced_epoch_;
  return journal_->BeginAt(forced_seq_, stamped);
}

Result<Json> ModelLake::ReplicationLogJson(uint64_t from_seq,
                                           size_t max) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!options_.replication_log) {
    return Status::FailedPrecondition("replication log disabled on this lake");
  }
  if (journal_->truncated_upto() != 0 &&
      from_seq <= journal_->truncated_upto()) {
    return Status::FailedPrecondition(StrFormat(
        "log truncated through seq %llu; re-seed from a snapshot",
        static_cast<unsigned long long>(journal_->truncated_upto())));
  }
  MLAKE_ASSIGN_OR_RETURN(std::vector<storage::Intent> entries,
                         journal_->Committed(from_seq, max));
  // Exhaustion is judged before filtering local-only ops: when this
  // scan drained the log, the replica may fast-forward its watermark to
  // last_seq even though some seqs below it were never shipped.
  const bool exhausted = entries.size() < max;
  Json arr = Json::MakeArray();
  for (const storage::Intent& entry : entries) {
    if (entry.op == "compact") continue;  // local housekeeping, not state
    arr.Append(entry.ToJson());
  }
  Json out = Json::MakeObject();
  out.Set("epoch", Json(journal_->epoch()));
  out.Set("last_seq", Json(journal_->last_committed_seq()));
  out.Set("exhausted", Json(exhausted));
  out.Set("entries", std::move(arr));
  return out;
}

Result<std::string> ModelLake::ReadBlob(const std::string& digest) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return blobs_->Get(digest);
}

std::string ModelLake::ReplicationFingerprint() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<SetDigest> kinds;
  for (const std::string& kind : ReplicatedKinds()) {
    kinds.push_back(catalog_->KindDigest(kind));
  }
  return FingerprintHex(kinds, graph_.edge_digest());
}

const ModelLake::IndexManifest* ModelLake::SeedManifestUnlocked() const {
  if (!manifest_.has_value() || manifest_->covered_seq == 0 ||
      manifest_->covered_seq > journal_->last_committed_seq() ||
      journal_->truncated_upto() > manifest_->covered_seq) {
    return nullptr;
  }
  return &*manifest_;
}

uint64_t ModelLake::ReplicationSeedSeq() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!options_.replication_log) return 0;
  const IndexManifest* manifest = SeedManifestUnlocked();
  return manifest != nullptr ? manifest->covered_seq : 0;
}

Result<std::string> ModelLake::EncodeReplicationSeed() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!options_.replication_log) {
    return Status::FailedPrecondition("replication log disabled on this lake");
  }
  SeedContents seed;
  seed.epoch = journal_->epoch();
  seed.seq = journal_->last_committed_seq();
  seed.graph_revision = graph_.revision();
  const IndexManifest* manifest = SeedManifestUnlocked();
  if (manifest != nullptr) {
    seed.seq = manifest->covered_seq;
    seed.generation = manifest->generation;
    seed.graph_revision = manifest->graph_revision;
  }

  // The cut: everything committed entries after seed.seq wrote. Leader
  // writes after a generation only add (ingest, register_dataset and
  // record_edge refuse to overwrite; a card update removes the
  // manifest), so the catalog minus those records is the state at the
  // cut exactly.
  std::set<std::string> later_models;
  std::set<std::string> later_datasets;
  std::set<std::pair<std::string, std::string>> later_edges;
  MLAKE_ASSIGN_OR_RETURN(std::vector<storage::Intent> tail,
                         journal_->Committed(seed.seq + 1));
  for (const storage::Intent& entry : tail) {
    if (entry.op == "ingest") {
      later_models.insert(entry.ids.begin(), entry.ids.end());
    } else if (entry.op == "register_dataset") {
      later_datasets.insert(entry.payload.GetString("name"));
    } else if (entry.op == "record_edge") {
      later_edges.emplace(entry.payload.GetString("parent"),
                          entry.payload.GetString("child"));
    }
  }

  std::vector<SetDigest> kind_digests;
  for (const std::string& kind : ReplicatedKinds()) {
    const std::set<std::string>& later =
        kind == "dataset" ? later_datasets : later_models;
    SetDigest digest = catalog_->KindDigest(kind);
    auto& records = seed.records.emplace_back();
    catalog_->ForEachStoredDoc(
        kind, [&](std::string_view id, std::string_view bytes) {
          if (later.count(std::string(id)) > 0) {
            digest.Remove(RecordHash(kind, id, bytes));
          } else {
            records.emplace_back(id, bytes);
          }
        });
    kind_digests.push_back(digest);
  }
  SetDigest edge_digest = graph_.edge_digest();
  for (const versioning::VersionEdge& edge : graph_.Edges()) {
    if (later_edges.count({edge.parent, edge.child}) > 0) {
      edge_digest.Remove(versioning::EdgeHash(edge));
    } else {
      seed.edges.push_back(edge);
    }
  }
  seed.fingerprint = Fingerprint(kind_digests, edge_digest);

  // The records and the index files are nearly all of the container;
  // a seed past the cap is refused before anything is read or encoded.
  auto too_large = [](size_t bytes) {
    return Status::ResourceExhausted(StrFormat(
        "replication seed of %zu bytes exceeds the %zu-byte cap; replay "
        "the log instead",
        bytes, kMaxSeedBytes));
  };
  size_t size = 0;
  for (const auto& records : seed.records) {
    for (const auto& [id, bytes] : records) size += id.size() + bytes.size();
  }
  if (manifest != nullptr) {
    const std::string* names[kSeedIndexFiles] = {
        &manifest->ann, &manifest->bm25, &manifest->lsh, &manifest->ids};
    for (size_t i = 0; i < kSeedIndexFiles; ++i) {
      MLAKE_ASSIGN_OR_RETURN(uint64_t file_size,
                             fs_->FileSize(JoinPath(IndexDir(), *names[i])));
      size += static_cast<size_t>(file_size);
    }
    if (size > kMaxSeedBytes) return too_large(size);
    for (size_t i = 0; i < kSeedIndexFiles; ++i) {
      MLAKE_ASSIGN_OR_RETURN(seed.index_files[i],
                             fs_->ReadFile(JoinPath(IndexDir(), *names[i])));
    }
  }
  if (size > kMaxSeedBytes) return too_large(size);
  MLAKE_ASSIGN_OR_RETURN(std::string encoded, EncodeSeed(std::move(seed)));
  if (encoded.size() > kMaxSeedBytes) return too_large(encoded.size());
  return encoded;
}

Status ModelLake::ApplyReplicated(
    const storage::Intent& entry,
    const std::map<std::string, std::string>& blob_bytes) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!options_.replication_log) {
    return Status::FailedPrecondition("replication log disabled on this lake");
  }
  if (entry.seq == 0) {
    return Status::InvalidArgument("replicated entry needs a seq");
  }
  forced_seq_ = entry.seq;
  forced_epoch_ = entry.epoch;
  Status applied = [&]() -> Status {
    if (entry.op == "ingest" && !entry.digests.empty()) {
      if (entry.digests.size() != entry.ids.size()) {
        return Status::Corruption("replicated ingest: ids/digests mismatch");
      }
      const Json* cards = entry.payload.Find("cards");
      if (cards == nullptr || !cards->is_array() ||
          cards->AsArray().size() != entry.ids.size()) {
        return Status::Corruption("replicated ingest: bad cards payload");
      }
      // Decode every artifact and verify its bytes against the shipped
      // digest before anything durable changes.
      std::vector<std::unique_ptr<nn::Model>> models;
      models.reserve(entry.ids.size());
      std::vector<IngestRequest> batch(entry.ids.size());
      for (size_t i = 0; i < entry.ids.size(); ++i) {
        auto it = blob_bytes.find(entry.digests[i]);
        if (it == blob_bytes.end()) {
          return Status::InvalidArgument("missing blob bytes for digest " +
                                         entry.digests[i]);
        }
        if (Sha256::HexDigest(it->second) != entry.digests[i]) {
          return Status::Corruption("blob bytes do not match digest " +
                                    entry.digests[i]);
        }
        MLAKE_ASSIGN_OR_RETURN(storage::ModelArtifact artifact,
                               storage::ParseArtifact(it->second));
        MLAKE_ASSIGN_OR_RETURN(std::unique_ptr<nn::Model> model,
                               storage::ModelFromArtifact(artifact));
        MLAKE_ASSIGN_OR_RETURN(
            batch[i].card, metadata::ModelCard::FromJson(cards->AsArray()[i]));
        if (batch[i].card.model_id != entry.ids[i]) {
          return Status::Corruption("replicated ingest: card/id mismatch for " +
                                    entry.ids[i]);
        }
        models.push_back(std::move(model));
        batch[i].model = models.back().get();
      }
      MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> ids,
                             IngestModelsLocked(batch));
      // Determinism check: re-serializing the decoded artifacts must
      // land on the leader's digests, or this replica just diverged.
      for (size_t i = 0; i < ids.size(); ++i) {
        auto it = digest_by_id_.find(ids[i]);
        if (it == digest_by_id_.end() || it->second != entry.digests[i]) {
          return Status::Corruption("replicated ingest: digest diverged for " +
                                    ids[i]);
        }
      }
      return Status::OK();
    }
    if (entry.op == "ingest") {
      // Metadata-only batch: cards + embeddings ride in the payload.
      const Json* cards = entry.payload.Find("cards");
      const Json* embeddings = entry.payload.Find("embeddings");
      if (cards == nullptr || !cards->is_array() || embeddings == nullptr ||
          !embeddings->is_array() ||
          cards->AsArray().size() != embeddings->AsArray().size()) {
        return Status::Corruption("replicated card ingest: bad payload");
      }
      std::vector<CardIngest> batch(cards->AsArray().size());
      for (size_t i = 0; i < batch.size(); ++i) {
        MLAKE_ASSIGN_OR_RETURN(
            batch[i].card, metadata::ModelCard::FromJson(cards->AsArray()[i]));
        MLAKE_ASSIGN_OR_RETURN(batch[i].embedding,
                               FloatsFromJson(embeddings->AsArray()[i],
                                              "replicated embedding",
                                              StatusCode::kCorruption));
      }
      Result<std::vector<std::string>> ids = IngestCardsLocked(batch);
      return ids.ok() ? Status::OK() : ids.status();
    }
    if (entry.op == "record_edge") {
      versioning::VersionEdge edge;
      edge.parent = entry.payload.GetString("parent");
      edge.child = entry.payload.GetString("child");
      MLAKE_ASSIGN_OR_RETURN(
          edge.type,
          versioning::EdgeTypeFromString(entry.payload.GetString("type")));
      edge.confidence = entry.payload.GetDouble("confidence", 1.0);
      if (const Json* params = entry.payload.Find("params")) {
        edge.params = *params;
      }
      return RecordEdgeLocked(edge);
    }
    if (entry.op == "register_dataset") {
      std::string name = entry.payload.GetString("name");
      std::vector<std::string> shards;
      if (const Json* arr = entry.payload.Find("shards");
          arr != nullptr && arr->is_array()) {
        for (const Json& s : arr->AsArray()) {
          if (s.is_string()) shards.push_back(s.AsString());
        }
      }
      return RegisterDatasetLocked(name, shards);
    }
    return Status::InvalidArgument("unknown replicated op: " + entry.op);
  }();
  forced_seq_ = 0;
  forced_epoch_ = 0;
  return applied;
}

Status ModelLake::InstallReplicationSeed(
    const ReplicationSeed& seed,
    const std::function<Result<std::string>(const std::string&)>& fetch_blob) {
  // Same order as CompactIndices: no pass writes the index directory
  // while the seed's generation goes in.
  std::lock_guard<std::mutex> run(compact_run_mu_);
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!options_.replication_log) {
    return Status::FailedPrecondition("replication log disabled on this lake");
  }
  // Everything that can be refused is checked before the first write.
  const auto& models = seed.records(0);
  std::vector<std::string> digests(models.size());
  MLAKE_RETURN_NOT_OK(
      ParallelFor(options_.exec, 0, models.size(), [&](size_t i) -> Status {
        auto doc = Json::Parse(models[i].bytes);
        if (!doc.ok() || !doc.ValueUnsafe().is_object()) {
          return Status::Corruption("seed: model doc is not an object");
        }
        digests[i] = doc.ValueUnsafe().GetString("artifact_digest");
        return Status::OK();
      }));
  std::map<std::string, std::string> missing_blobs;
  for (const std::string& digest : digests) {
    if (digest.empty() || blobs_->Contains(digest) ||
        missing_blobs.count(digest) > 0) {
      continue;
    }
    MLAKE_ASSIGN_OR_RETURN(std::string bytes, fetch_blob(digest));
    if (Sha256::HexDigest(bytes) != digest) {
      return Status::Corruption("seed blob does not match digest " + digest);
    }
    missing_blobs.emplace(digest, std::move(bytes));
  }

  // 1. The old generation stops describing the catalog first.
  MLAKE_RETURN_NOT_OK(InvalidateIndexSnapshotsUnlocked());
  for (const auto& [digest, bytes] : missing_blobs) {
    MLAKE_ASSIGN_OR_RETURN(std::string stored, blobs_->Put(bytes));
    (void)stored;
  }

  // 2. Records by diff: local records the seed lacks go, differing or
  // missing ones are written with one log append per kind.
  for (size_t k = 0; k < ReplicatedKinds().size(); ++k) {
    const std::string& kind = ReplicatedKinds()[k];
    const auto& records = seed.records(k);
    std::vector<std::string> extra;
    std::vector<storage::Catalog::StoredDoc> changed;
    size_t i = 0;
    catalog_->ForEachStoredDoc(
        kind, [&](std::string_view id, std::string_view bytes) {
          for (; i < records.size() && records[i].id < id; ++i) {
            changed.push_back({records[i].id, records[i].bytes,
                               records[i].hash});
          }
          if (i < records.size() && records[i].id == id) {
            if (records[i].bytes != bytes) {
              changed.push_back({records[i].id, records[i].bytes,
                                 records[i].hash});
            }
            ++i;
          } else {
            extra.emplace_back(id);
          }
        });
    for (; i < records.size(); ++i) {
      changed.push_back({records[i].id, records[i].bytes, records[i].hash});
    }
    for (const std::string& id : extra) {
      MLAKE_RETURN_NOT_OK(catalog_->DeleteDoc(kind, id));
    }
    MLAKE_RETURN_NOT_OK(catalog_->PutStoredDocs(kind, changed));
  }
  // Seeded artifacts are verified or already held; quarantine resets.
  for (const std::string& id : catalog_->ListIds("degraded")) {
    MLAKE_RETURN_NOT_OK(catalog_->DeleteDoc("degraded", id));
  }
  degraded_.clear();

  // 3. Lineage, wholesale: nodes for artifact-backed models, then the
  // seed's edges (already checked to form a valid graph).
  versioning::ModelGraph fresh;
  for (size_t i = 0; i < models.size(); ++i) {
    if (!digests[i].empty()) fresh.AddModel(std::string(models[i].id));
  }
  for (const versioning::VersionEdge& edge : seed.edges()) {
    MLAKE_RETURN_NOT_OK(fresh.AddEdge(edge));
  }
  fresh.set_revision(seed.graph_revision());
  graph_ = std::move(fresh);
  MLAKE_RETURN_NOT_OK(PersistGraph());
  MLAKE_RETURN_NOT_OK(catalog_->Sync());

  // 4. The seed's index generation, written and published as this
  // lake's own.
  IndexManifest manifest;
  if (seed.generation() > 0) {
    MLAKE_RETURN_NOT_OK(fs_->CreateDirs(IndexDir()));
    manifest.generation = seed.generation();
    manifest.ann = SnapName("ann", seed.generation());
    manifest.bm25 = SnapName("bm25", seed.generation());
    manifest.lsh = SnapName("lsh", seed.generation());
    manifest.ids = SnapName("ids", seed.generation());
    manifest.covered_seq = seed.seq();
    manifest.graph_revision = seed.graph_revision();
    const std::string* names[kSeedIndexFiles] = {
        &manifest.ann, &manifest.bm25, &manifest.lsh, &manifest.ids};
    for (size_t i = 0; i < kSeedIndexFiles; ++i) {
      MLAKE_RETURN_NOT_OK(WriteFileAtomic(fs_, JoinPath(IndexDir(), *names[i]),
                                          seed.index_file(i)));
    }
    MLAKE_RETURN_NOT_OK(WriteIndexManifest(manifest));
  }

  // 5. The local log restarts at the seed's seq under its epoch.
  MLAKE_RETURN_NOT_OK(journal_->ResetTo(seed.seq()));
  if (seed.epoch() > journal_->epoch()) {
    MLAKE_RETURN_NOT_OK(journal_->SetEpoch(seed.epoch()));
  }

  // 6. Indexes: the shipped generation (reconciled against the catalog
  // like any snapshot load), or a rebuild from the catalog.
  ++mutation_epoch_;
  Status loaded = seed.generation() > 0
                      ? LoadIndexSnapshots()
                      : Status::NotFound("seed carries no index generation");
  if (loaded.ok()) {
    published_generation_ = index_generation_;
    published_epoch_ = mutation_epoch_;
  } else {
    if (!loaded.IsNotFound()) {
      MLAKE_LOG_WARNING << "lake " << options_.root
                        << ": seeded index generation unusable ("
                        << loaded.ToString() << "); rebuilding from catalog";
      MLAKE_RETURN_NOT_OK(InvalidateIndexSnapshotsUnlocked());
    }
    MLAKE_RETURN_NOT_OK(RebuildIndices());
  }
  return GcIndexFilesUnlocked();
}

uint64_t ModelLake::ReplicationEpoch() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return journal_->epoch();
}

uint64_t ModelLake::ReplicationLastSeq() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return journal_->last_committed_seq();
}

Status ModelLake::SetReplicationEpoch(uint64_t epoch) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return journal_->SetEpoch(epoch);
}

Result<uint64_t> ModelLake::BumpReplicationEpoch() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  uint64_t next = journal_->epoch() + 1;
  MLAKE_RETURN_NOT_OK(journal_->SetEpoch(next));
  return next;
}

Status ModelLake::TruncateReplicationLog(uint64_t upto_seq) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return journal_->Truncate(upto_seq);
}

Result<std::string> ModelLake::ArtifactDigest(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (auto it = digest_by_id_.find(id); it != digest_by_id_.end()) {
    return it->second;
  }
  MLAKE_ASSIGN_OR_RETURN(Json model_doc, catalog_->GetDoc("model", id));
  return model_doc.GetString("artifact_digest");
}

bool ModelLake::HasEdge(const std::string& parent,
                        const std::string& child) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return graph_.HasEdge(parent, child);
}

Result<Json> ModelLake::Lineage(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!catalog_->Contains("model", id)) {
    return Status::NotFound("model not in lake: " + id);
  }
  auto string_array = [](const std::vector<std::string>& ids) {
    Json a = Json::MakeArray();
    for (const std::string& s : ids) a.Append(Json(s));
    return a;
  };
  Json out = Json::MakeObject();
  out.Set("id", id);
  out.Set("parents", string_array(graph_.Parents(id)));
  out.Set("children", string_array(graph_.Children(id)));
  out.Set("ancestors", string_array(graph_.Ancestors(id)));
  out.Set("descendants", string_array(graph_.Descendants(id)));
  Json edges = Json::MakeArray();
  for (const versioning::VersionEdge& e : graph_.Edges()) {
    if (e.parent != id && e.child != id) continue;
    Json ej = Json::MakeObject();
    ej.Set("parent", e.parent);
    ej.Set("child", e.child);
    ej.Set("type", std::string(versioning::EdgeTypeToString(e.type)));
    ej.Set("confidence", e.confidence);
    edges.Append(std::move(ej));
  }
  out.Set("edges", std::move(edges));
  out.Set("graph_revision", graph_.revision());
  return out;
}

Result<versioning::HeritageResult> ModelLake::RecoverHeritage(
    const versioning::HeritageConfig& config) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Degraded models have no readable weights; heritage runs over the
  // healthy remainder rather than failing the whole analysis.
  std::vector<std::string> ids = SearchableModelIdsUnlocked();
  if (!degraded_.empty()) {
    MLAKE_LOG_WARNING << "heritage recovery skipping " << degraded_.size()
                      << " degraded model(s)";
  }
  // Metadata-only models (IngestCards) have no weights to compare;
  // heritage runs over the artifact-backed population.
  ids.erase(std::remove_if(ids.begin(), ids.end(),
                           [this](const std::string& id) {
                             return !DigestForUnlocked(id).ok();
                           }),
            ids.end());
  std::vector<versioning::WeightSummary> summaries(ids.size());
  // Artifact load + flatten per model is pure and slot-owned: safe and
  // deterministic to parallelize. Works on the decoded artifact (via
  // the artifact cache) instead of rebuilding a live model: the
  // artifact stores weights in NamedParams order, so concatenating its
  // tensors is exactly Model::FlattenParams without the weight-init +
  // LoadStateDict round trip.
  MLAKE_RETURN_NOT_OK(
      ParallelFor(options_.exec, 0, ids.size(), [&](size_t i) -> Status {
        MLAKE_ASSIGN_OR_RETURN(std::string digest,
                               DigestForUnlocked(ids[i]));
        MLAKE_ASSIGN_OR_RETURN(
            std::shared_ptr<const storage::ModelArtifact> artifact,
            LoadArtifactUnlocked(digest));
        summaries[i].id = ids[i];
        summaries[i].arch_signature = artifact->spec.Signature();
        int64_t total = 0;
        for (const auto& [name, tensor] : artifact->weights) {
          total += tensor.NumElements();
        }
        Tensor flat({total});
        int64_t offset = 0;
        for (const auto& [name, tensor] : artifact->weights) {
          std::copy(tensor.data(), tensor.data() + tensor.NumElements(),
                    flat.data() + offset);
          offset += tensor.NumElements();
        }
        summaries[i].flat_weights = std::move(flat);
        return Status::OK();
      }));
  versioning::HeritageConfig effective = config;
  if (effective.exec.pool == nullptr) effective.exec = options_.exec;
  return versioning::RecoverHeritage(summaries, effective);
}

// ---------------------------------------------------------------- search

Result<search::QueryResult> ModelLake::Query(std::string_view mlql) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  MLAKE_ASSIGN_OR_RETURN(std::shared_ptr<const search::Query> plan,
                         CachedPlanUnlocked(mlql));
  UnlockedView view(this);
  MLAKE_ASSIGN_OR_RETURN(search::QueryResult result,
                         search::ExecuteQuery(view, *plan));
  {
    std::lock_guard<std::mutex> plan_lock(plan_mu_);
    last_plan_ = result.plan;
  }
  return result;
}

Result<search::QueryResult> ModelLake::QueryWithOverlay(
    std::string_view mlql, const search::SearchOverlay& overlay) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  MLAKE_ASSIGN_OR_RETURN(std::shared_ptr<const search::Query> plan,
                         CachedPlanUnlocked(mlql));
  OverlayView view(this, &overlay);
  MLAKE_ASSIGN_OR_RETURN(search::QueryResult result,
                         search::ExecuteQuery(view, *plan));
  {
    std::lock_guard<std::mutex> plan_lock(plan_mu_);
    last_plan_ = result.plan;
  }
  return result;
}

index::Bm25Stats ModelLake::CollectBm25Stats(const std::string& text) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return bm25_.CollectStats(text);
}

Result<std::vector<std::pair<std::string, double>>>
ModelLake::KeywordScoresWithStats(const std::string& text, size_t k,
                                  const index::Bm25Stats& stats) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return MapTextHitsUnlocked(
      bm25_.SearchWithStats(text, k + degraded_.size(), stats), k);
}

Result<std::vector<search::RankedModel>> ModelLake::RelatedModelsByVector(
    const std::vector<float>& query, size_t k,
    const std::string& exclude_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Same over-fetch as RelatedModelsUnlocked: +1 because the excluded
  // model (if local) matches itself.
  MLAKE_ASSIGN_OR_RETURN(auto neighbors, NearestModelsUnlocked(query, k + 1));
  return RelatedFromNeighbors(exclude_id, neighbors, k);
}

Result<std::vector<search::HybridCandidate>> ModelLake::HybridParts(
    std::string_view mlql, const std::vector<float>& query_vec) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  MLAKE_ASSIGN_OR_RETURN(std::shared_ptr<const search::Query> plan,
                         CachedPlanUnlocked(mlql));
  UnlockedView view(this);
  return search::CollectHybridParts(view, *plan, query_vec);
}

uint64_t ModelLake::IndexGeneration() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return index_generation_;
}

uint64_t ModelLake::MutationEpoch() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return mutation_epoch_;
}

Result<std::shared_ptr<const search::Query>> ModelLake::CachedPlanUnlocked(
    std::string_view mlql) const {
  std::string key(mlql);
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    if (plan_epoch_ != mutation_epoch_ ||
        plan_generation_ != index_generation_) {
      plan_cache_.clear();
      plan_epoch_ = mutation_epoch_;
      plan_generation_ = index_generation_;
    }
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      ++plan_hits_;
      return it->second;
    }
    ++plan_misses_;
  }
  // Parse outside plan_mu_ so a slow parse never blocks cache hits on
  // other readers.
  MLAKE_ASSIGN_OR_RETURN(search::Query parsed, search::ParseQuery(mlql));
  auto plan = std::make_shared<const search::Query>(std::move(parsed));
  std::string normalized = search::ToString(*plan);
  std::lock_guard<std::mutex> lock(plan_mu_);
  if (plan_cache_.size() + 2 > kPlanCacheCap) plan_cache_.clear();
  // Alias the canonical rendering to the same parse so formatting
  // variants of one query (spacing, keyword case) share a cache entry.
  plan_cache_.emplace(std::move(key), plan);
  plan_cache_.emplace(std::move(normalized), plan);
  return plan;
}

ModelLake::PlanCacheCounters ModelLake::PlanCacheStats() const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  return PlanCacheCounters{plan_hits_, plan_misses_, plan_cache_.size()};
}

Json ModelLake::PlannerStatsJson() const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  Json cache = Json::MakeObject();
  cache.Set("hits", static_cast<int64_t>(plan_hits_));
  cache.Set("misses", static_cast<int64_t>(plan_misses_));
  cache.Set("entries", static_cast<int64_t>(plan_cache_.size()));
  Json out = Json::MakeObject();
  out.Set("plan_cache", cache);
  out.Set("last_plan", last_plan_);
  return out;
}

search::SearchContext::CatalogStats ModelLake::StatsUnlocked() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (stats_valid_ && stats_epoch_ == mutation_epoch_) return stats_cache_;
  search::SearchContext::CatalogStats stats;
  stats.valid = true;
  std::vector<std::string> ids = SearchableModelIdsUnlocked();
  stats.num_models = ids.size();
  stats.ann_live = ann_->Size();
  stats.bm25_live = bm25_.NumDocs();
  for (const std::string& id : ids) {
    auto card = CardForUnlocked(id);
    if (!card.ok()) continue;
    const metadata::ModelCard& c = card.ValueUnsafe();
    if (!c.task.empty()) ++stats.field_counts["task"][c.task];
    if (!c.creator.empty()) ++stats.field_counts["creator"][c.creator];
    if (!c.license.empty()) ++stats.field_counts["license"][c.license];
    if (!c.architecture.empty()) {
      ++stats.field_counts["architecture"][c.architecture];
    }
  }
  stats_cache_ = std::move(stats);
  stats_epoch_ = mutation_epoch_;
  stats_valid_ = true;
  return stats_cache_;
}

search::SearchContext::CatalogStats ModelLake::Stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return StatsUnlocked();
}

std::vector<search::RankedModel> ModelLake::RelatedFromNeighbors(
    const std::string& id,
    const std::vector<std::pair<std::string, float>>& neighbors, size_t k) {
  std::vector<search::RankedModel> out;
  for (const auto& [other, distance] : neighbors) {
    if (other == id) continue;
    if (out.size() >= k) break;
    out.push_back(search::RankedModel{other, 1.0 - distance});
  }
  return out;
}

Result<std::vector<search::RankedModel>> ModelLake::RelatedModelsUnlocked(
    const std::string& id, size_t k) const {
  MLAKE_ASSIGN_OR_RETURN(std::vector<float> query, EmbeddingForUnlocked(id));
  MLAKE_ASSIGN_OR_RETURN(auto neighbors, NearestModelsUnlocked(query, k + 1));
  return RelatedFromNeighbors(id, neighbors, k);
}

Result<std::vector<search::RankedModel>> ModelLake::RelatedModels(
    const std::string& id, size_t k) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return RelatedModelsUnlocked(id, k);
}

Result<std::vector<search::RankedModel>> ModelLake::HybridSearch(
    const std::string& text, const std::string& query_model_id,
    size_t k) const {
  // Query() takes the shared lock itself.
  MLAKE_ASSIGN_OR_RETURN(
      search::QueryResult result,
      Query(search::HybridSearchMlql(text, query_model_id, k)));
  return result.models;
}

std::vector<std::string> ModelLake::AllModelIds() const {
  // Search surface, not admin surface: degraded models are filtered so
  // queries never rank a model whose artifact is quarantined.
  std::shared_lock<std::shared_mutex> lock(mu_);
  return SearchableModelIdsUnlocked();
}

Result<metadata::ModelCard> ModelLake::CardForUnlocked(
    const std::string& id) const {
  MLAKE_ASSIGN_OR_RETURN(Json doc, catalog_->GetDoc("card", id));
  return metadata::ModelCard::FromJson(doc);
}

Result<metadata::ModelCard> ModelLake::CardFor(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return CardForUnlocked(id);
}

Result<std::vector<float>> ModelLake::EmbeddingForUnlocked(
    const std::string& id) const {
  // Cache key: content digest + embedder config. Keyed by digest (not
  // id) so identical checkpoints share one entry, and so the key is
  // immutable — a digest always means the same bytes. Only values
  // parsed from the catalog are cached (never freshly computed ones),
  // so a cached read is bit-identical to an uncached one.
  std::string key;
  if (embedding_cache_->enabled()) {
    if (auto digest = DigestForUnlocked(id); digest.ok()) {
      key = digest.ValueUnsafe() + "|" + embedder_key_;
      if (auto cached = embedding_cache_->Get(key)) return *cached;
    }
  }
  MLAKE_ASSIGN_OR_RETURN(Json doc, catalog_->GetDoc("embedding", id));
  MLAKE_ASSIGN_OR_RETURN(
      std::vector<float> vec,
      FloatsFromJson(doc, "embedding doc", StatusCode::kCorruption));
  if (!key.empty()) {
    embedding_cache_->Put(key,
                          std::make_shared<const std::vector<float>>(vec),
                          vec.size() * sizeof(float) + key.size());
  }
  return vec;
}

Result<std::vector<float>> ModelLake::EmbeddingFor(
    const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return EmbeddingForUnlocked(id);
}

std::vector<std::pair<std::string, float>> ModelLake::MapNeighborsUnlocked(
    const std::vector<index::Neighbor>& hits, size_t k) const {
  std::vector<std::pair<std::string, float>> out;
  out.reserve(std::min(hits.size(), k));
  for (const index::Neighbor& n : hits) {
    if (out.size() >= k) break;
    const std::string& id = ann_ids_[static_cast<size_t>(n.id)];
    if (degraded_.count(id) > 0) continue;
    out.emplace_back(id, n.distance);
  }
  return out;
}

Result<std::vector<std::pair<std::string, float>>>
ModelLake::NearestModelsUnlocked(const std::vector<float>& query,
                                 size_t k) const {
  // Degraded models stay in the ANN graph (HNSW has no remove) but are
  // filtered out of results; over-fetch so k healthy hits survive.
  MLAKE_ASSIGN_OR_RETURN(std::vector<index::Neighbor> hits,
                         ann_->Search(query, k + degraded_.size()));
  return MapNeighborsUnlocked(hits, k);
}

Result<std::vector<std::pair<std::string, float>>> ModelLake::NearestModels(
    const std::vector<float>& query, size_t k) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return NearestModelsUnlocked(query, k);
}

std::vector<std::pair<std::string, double>> ModelLake::MapTextHitsUnlocked(
    const std::vector<index::TextHit>& hits, size_t k) const {
  std::vector<std::pair<std::string, double>> out;
  for (const index::TextHit& hit : hits) {
    if (out.size() >= k) break;
    if (degraded_.count(hit.doc_id) > 0) continue;
    out.emplace_back(hit.doc_id, hit.score);
  }
  return out;
}

Result<std::vector<std::pair<std::string, double>>>
ModelLake::KeywordScoresUnlocked(const std::string& text, size_t k) const {
  return MapTextHitsUnlocked(bm25_.Search(text, k + degraded_.size()), k);
}

Result<std::vector<std::pair<std::string, double>>> ModelLake::KeywordScores(
    const std::string& text, size_t k) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return KeywordScoresUnlocked(text, k);
}

Result<std::vector<std::pair<std::string, double>>>
ModelLake::TrainedOnUnlocked(const std::string& dataset,
                             double min_overlap) const {
  // Resolve the query dataset to the set of datasets overlapping it.
  std::map<std::string, double> related_datasets;
  related_datasets[dataset] = 1.0;
  if (catalog_->Contains("dataset", dataset)) {
    MLAKE_ASSIGN_OR_RETURN(std::vector<std::string> shards,
                           DatasetShardsUnlocked(dataset));
    for (const auto& hit :
         dataset_lsh_->Query(DatasetSignature(shards), min_overlap)) {
      auto it = related_datasets.find(hit.id);
      if (it == related_datasets.end() || it->second < hit.jaccard) {
        related_datasets[hit.id] = hit.jaccard;
      }
    }
  }
  // Models whose cards claim training on any related dataset.
  std::vector<std::pair<std::string, double>> out;
  for (const std::string& id : SearchableModelIdsUnlocked()) {
    auto card = CardForUnlocked(id);
    if (!card.ok()) continue;
    double best = 0.0;
    for (const std::string& trained : card.ValueUnsafe().training_datasets) {
      auto it = related_datasets.find(trained);
      if (it != related_datasets.end()) best = std::max(best, it->second);
    }
    if (best >= min_overlap || best == 1.0) {
      if (best > 0.0) out.emplace_back(id, best);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second || (a.second == b.second && a.first < b.first);
  });
  return out;
}

Result<std::vector<std::pair<std::string, double>>> ModelLake::TrainedOn(
    const std::string& dataset, double min_overlap) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return TrainedOnUnlocked(dataset, min_overlap);
}

bool ModelLake::IsDescendantOfUnlocked(const std::string& id,
                                       const std::string& ancestor) const {
  if (!graph_.HasModel(ancestor)) return false;
  std::vector<std::string> descendants = graph_.Descendants(ancestor);
  return std::find(descendants.begin(), descendants.end(), id) !=
         descendants.end();
}

bool ModelLake::IsDescendantOf(const std::string& id,
                               const std::string& ancestor) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return IsDescendantOfUnlocked(id, ancestor);
}

// ------------------------------------------------------- unlocked view

std::vector<std::string> ModelLake::UnlockedView::AllModelIds() const {
  return lake_->SearchableModelIdsUnlocked();
}
search::SearchContext::CatalogStats ModelLake::UnlockedView::Stats() const {
  return lake_->StatsUnlocked();
}
Result<metadata::ModelCard> ModelLake::UnlockedView::CardFor(
    const std::string& id) const {
  return lake_->CardForUnlocked(id);
}
Result<std::vector<float>> ModelLake::UnlockedView::EmbeddingFor(
    const std::string& id) const {
  return lake_->EmbeddingForUnlocked(id);
}
Result<std::vector<std::pair<std::string, float>>>
ModelLake::UnlockedView::NearestModels(const std::vector<float>& query,
                                       size_t k) const {
  return lake_->NearestModelsUnlocked(query, k);
}
Result<std::vector<std::pair<std::string, double>>>
ModelLake::UnlockedView::KeywordScores(const std::string& text,
                                       size_t k) const {
  return lake_->KeywordScoresUnlocked(text, k);
}
Result<std::vector<std::pair<std::string, double>>>
ModelLake::UnlockedView::TrainedOn(const std::string& dataset,
                                   double min_overlap) const {
  return lake_->TrainedOnUnlocked(dataset, min_overlap);
}
bool ModelLake::UnlockedView::IsDescendantOf(
    const std::string& id, const std::string& ancestor) const {
  return lake_->IsDescendantOfUnlocked(id, ancestor);
}

// ------------------------------------------------------- overlay view

std::vector<std::string> ModelLake::OverlayView::AllModelIds() const {
  return lake_->SearchableModelIdsUnlocked();
}
search::SearchContext::CatalogStats ModelLake::OverlayView::Stats() const {
  return lake_->StatsUnlocked();
}
Result<metadata::ModelCard> ModelLake::OverlayView::CardFor(
    const std::string& id) const {
  return lake_->CardForUnlocked(id);
}
Result<std::vector<float>> ModelLake::OverlayView::EmbeddingFor(
    const std::string& id) const {
  // Local first: a model the shard owns always resolves locally, so an
  // overlay can never shadow (or corrupt) owned state. The hint only
  // fills lookups that would otherwise fail — off-shard query models.
  auto local = lake_->EmbeddingForUnlocked(id);
  if (local.ok()) return local;
  auto it = overlay_->embeddings.find(id);
  if (it != overlay_->embeddings.end()) return it->second;
  return local;
}
Result<std::vector<std::pair<std::string, float>>>
ModelLake::OverlayView::NearestModels(const std::vector<float>& query,
                                      size_t k) const {
  return lake_->NearestModelsUnlocked(query, k);
}
Result<std::vector<std::pair<std::string, double>>>
ModelLake::OverlayView::KeywordScores(const std::string& text,
                                      size_t k) const {
  if (overlay_->has_bm25 && text == overlay_->bm25_text) {
    return lake_->MapTextHitsUnlocked(
        lake_->bm25_.SearchWithStats(text, k + lake_->degraded_.size(),
                                     overlay_->bm25_stats),
        k);
  }
  return lake_->KeywordScoresUnlocked(text, k);
}
Result<std::vector<std::pair<std::string, double>>>
ModelLake::OverlayView::TrainedOn(const std::string& dataset,
                                  double min_overlap) const {
  return lake_->TrainedOnUnlocked(dataset, min_overlap);
}
bool ModelLake::OverlayView::IsDescendantOf(
    const std::string& id, const std::string& ancestor) const {
  return lake_->IsDescendantOfUnlocked(id, ancestor);
}

// ----------------------------------------------------------- benchmarking

Status ModelLake::RegisterBenchmark(const std::string& name,
                                    nn::Dataset data) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (name.empty()) return Status::InvalidArgument("benchmark needs a name");
  if (data.size() == 0) return Status::InvalidArgument("empty benchmark");
  if (benchmarks_.count(name) > 0) {
    return Status::AlreadyExists("benchmark exists: " + name);
  }
  benchmarks_[name] = std::move(data);
  return Status::OK();
}

std::vector<std::string> ModelLake::ListBenchmarks() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, data] : benchmarks_) names.push_back(name);
  return names;
}

Result<double> ModelLake::EvaluateModelUnlocked(
    const std::string& id, const std::string& benchmark) const {
  auto it = benchmarks_.find(benchmark);
  if (it == benchmarks_.end()) {
    return Status::NotFound("benchmark not registered: " + benchmark);
  }
  MLAKE_ASSIGN_OR_RETURN(std::unique_ptr<nn::Model> model,
                         LoadModelUnlocked(id));
  return nn::EvaluateAccuracy(model.get(), it->second);
}

Result<double> ModelLake::EvaluateModel(const std::string& id,
                                        const std::string& benchmark) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return EvaluateModelUnlocked(id, benchmark);
}

// ----------------------------------------------------------- applications

Result<metadata::ModelCard> ModelLake::GenerateCard(
    const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  MLAKE_ASSIGN_OR_RETURN(metadata::ModelCard card, CardForUnlocked(id));
  MLAKE_ASSIGN_OR_RETURN(Json model_doc, catalog_->GetDoc("model", id));

  // Intrinsics: always recoverable from the artifact.
  if (const Json* arch = model_doc.Find("arch"); arch != nullptr) {
    auto spec = nn::ArchSpec::FromJson(*arch);
    if (spec.ok()) card.architecture = spec.ValueUnsafe().Signature();
  }
  card.num_params = model_doc.GetInt64("num_params", card.num_params);

  // Lineage: the recorded version graph is authoritative when present.
  std::vector<std::string> parents = graph_.Parents(id);
  if (!parents.empty()) {
    for (const versioning::VersionEdge& e : graph_.Edges()) {
      if (e.child == id) {
        card.lineage.base_model_id = e.parent;
        card.lineage.method = std::string(
            versioning::EdgeTypeToString(e.type));
        break;
      }
    }
  }

  // Task and training data: if missing, infer by majority vote over the
  // behaviorally nearest documented models (content-based annotation).
  // Inferred fields are flagged so reviewers can tell drafted values
  // from creator-provided ones.
  if (card.task.empty() || card.training_datasets.empty()) {
    auto related = RelatedModelsUnlocked(id, 5);
    if (related.ok()) {
      std::map<std::string, int> task_votes;
      std::map<std::string, int> dataset_votes;
      for (const search::RankedModel& r : related.ValueUnsafe()) {
        auto other = CardForUnlocked(r.id);
        if (!other.ok()) continue;
        if (!other.ValueUnsafe().task.empty()) {
          ++task_votes[other.ValueUnsafe().task];
        }
        for (const std::string& d : other.ValueUnsafe().training_datasets) {
          ++dataset_votes[d];
        }
      }
      auto winner = [](const std::map<std::string, int>& votes,
                       int min_votes) {
        std::string best;
        int best_votes = 0;
        for (const auto& [key, n] : votes) {
          if (n > best_votes) {
            best = key;
            best_votes = n;
          }
        }
        return best_votes >= min_votes ? best : std::string();
      };
      if (card.task.empty()) {
        std::string task = winner(task_votes, 2);
        if (!task.empty()) {
          card.task = task;
          card.tags.push_back("task-inferred-from-lake");
        }
      }
      if (card.training_datasets.empty()) {
        std::string dataset = winner(dataset_votes, 2);
        if (!dataset.empty()) {
          card.training_datasets.push_back(dataset);
          card.tags.push_back("training-data-inferred-from-lake");
          card.risk_notes.push_back(
              "training data inferred from related models, not verified");
        }
      }
    }
  }

  // Metrics: evaluate on every registered benchmark.
  for (const auto& [name, data] : benchmarks_) {
    bool already = false;
    for (const metadata::MetricEntry& m : card.metrics) {
      if (m.benchmark == name && m.metric == "accuracy") already = true;
    }
    if (already) continue;
    auto acc = EvaluateModelUnlocked(id, name);
    if (acc.ok()) {
      card.metrics.push_back(
          metadata::MetricEntry{name, "accuracy", acc.ValueUnsafe()});
    }
  }

  // Intended use / risks from what the lake now knows.
  if (card.intended_use.empty() && !card.task.empty()) {
    card.intended_use.push_back("classification for task family '" +
                                card.task + "'");
  }
  for (const metadata::MetricEntry& m : card.metrics) {
    if (m.metric == "accuracy" && m.value < 0.5) {
      card.risk_notes.push_back("low accuracy (" +
                                StrFormat("%.2f", m.value) + ") on " +
                                m.benchmark);
    }
  }
  std::vector<std::string> children = graph_.Children(id);
  if (!children.empty()) {
    card.risk_notes.push_back(StrFormat(
        "%zu downstream model(s) derive from this model; defects propagate",
        children.size()));
  }
  if (card.description.empty()) {
    card.description = StrFormat(
        "Auto-generated: %s model with %lld parameters%s.",
        card.architecture.c_str(),
        static_cast<long long>(card.num_params),
        card.task.empty() ? ""
                          : (" for task '" + card.task + "'").c_str());
  }
  return card;
}

Result<Json> ModelLake::AuditModel(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  MLAKE_ASSIGN_OR_RETURN(metadata::ModelCard card, CardForUnlocked(id));
  Json report = Json::MakeObject();
  report.Set("model_id", id);
  report.Set("card_completeness", metadata::CompletenessScore(card));
  Json problems = Json::MakeArray();
  for (const std::string& p : metadata::ValidateCard(card)) {
    problems.Append(Json(p));
  }
  report.Set("card_problems", std::move(problems));
  report.Set("documents_training_data", !card.training_datasets.empty());
  report.Set("documents_metrics", !card.metrics.empty());
  report.Set("documents_risks", !card.risk_notes.empty());

  // Lineage consistency: does the card's claim match the recorded graph?
  std::vector<std::string> parents = graph_.Parents(id);
  bool recorded = !parents.empty();
  report.Set("lineage_recorded", recorded);
  bool consistent = true;
  if (!card.lineage.base_model_id.empty()) {
    consistent = std::find(parents.begin(), parents.end(),
                           card.lineage.base_model_id) != parents.end();
  }
  report.Set("lineage_claim_consistent", consistent);

  // Artifact integrity: forced digest check over a view — the audit
  // never materializes the checkpoint. A quarantined model reports
  // intact=false with the quarantined flag set; a metadata-only model
  // reports has_artifact=false; the audit itself never errors on
  // degradation.
  auto digest = DigestForUnlocked(id);
  if (!digest.ok() && !digest.status().IsFailedPrecondition()) {
    return digest.status();
  }
  bool has_artifact = digest.ok();
  bool quarantined = degraded_.count(id) > 0;
  bool intact =
      has_artifact && !quarantined &&
      blobs_->GetView(digest.ValueUnsafe(), storage::VerifyMode::kAlways)
          .ok();
  report.Set("has_artifact", has_artifact);
  report.Set("artifact_intact", intact);
  report.Set("quarantined", quarantined);

  // Benchmark coverage.
  report.Set("benchmarks_reported", card.metrics.size());

  // Overall: a model "passes" audit when its artifact (if it has one)
  // is intact, its lineage claim (if any) is consistent, and it
  // documents training data.
  report.Set("passes", (!has_artifact || intact) && consistent &&
                           !card.training_datasets.empty());
  return report;
}

ModelLake::LakeCacheStats ModelLake::CacheStats() const {
  LakeCacheStats stats;
  stats.artifacts = artifact_cache_->Stats();
  stats.embeddings = embedding_cache_->Stats();
  return stats;
}

Json ModelLake::CacheStatsJson() const {
  LakeCacheStats stats = CacheStats();
  Json out = Json::MakeObject();
  out.Set("artifact_cache", storage::CacheStatsToJson(stats.artifacts));
  out.Set("embedding_cache", storage::CacheStatsToJson(stats.embeddings));
  return out;
}

// ------------------------------------------------------------- governance

namespace {

/// The export's (and citation heritage's) edge order: the same
/// content-derived key the replication fingerprint sorts by, so leader
/// and replica agree without consulting insertion order.
std::string ExportEdgeKey(const versioning::VersionEdge& e) {
  return StrFormat("%s|%s|%s|%.17g|%s", e.parent.c_str(), e.child.c_str(),
                   std::string(versioning::EdgeTypeToString(e.type)).c_str(),
                   e.confidence,
                   e.params.is_null() ? "" : e.params.Dump().c_str());
}

}  // namespace

Result<Json> ModelLake::CitationDoc(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!catalog_->Contains("model", id)) {
    return Status::NotFound("model not in lake: " + id);
  }

  // Lineage path from the deepest root: deterministic, taking the
  // lexicographically-first parent at every hop.
  std::vector<std::string> path;
  std::string current = id;
  while (true) {
    path.push_back(current);
    std::vector<std::string> parents = graph_.Parents(current);
    if (parents.empty()) break;
    current = parents.front();
  }
  std::reverse(path.begin(), path.end());

  auto card = CardForUnlocked(id);
  std::string creator =
      card.ok() ? card.ValueUnsafe().creator : std::string();
  std::string license =
      card.ok() ? card.ValueUnsafe().license : std::string();
  std::string created_at =
      card.ok() ? card.ValueUnsafe().created_at : std::string();
  std::string title = card.ok() && !card.ValueUnsafe().name.empty()
                          ? card.ValueUnsafe().name
                          : id;

  std::string digest;
  if (auto d = DigestForUnlocked(id); d.ok()) digest = d.MoveValueUnsafe();

  Json doc = Json::MakeObject();
  doc.Set("schema", std::string("mlake.citation"));
  doc.Set("schema_version", int64_t{1});
  doc.Set("model_id", id);
  doc.Set("title", title);
  doc.Set("creator", creator);
  doc.Set("license", license);
  doc.Set("created_at", created_at);
  doc.Set("artifact_digest", digest);
  doc.Set("metadata_only", digest.empty());
  doc.Set("degraded", degraded_.count(id) > 0);
  doc.Set("graph_revision", graph_.revision());

  Json path_json = Json::MakeArray();
  for (const std::string& p : path) path_json.Append(Json(p));
  doc.Set("lineage_path", std::move(path_json));

  // Heritage chain: one record per hop of the path, carrying the edge
  // that justifies it. Multiple recorded edges between the same pair
  // pick the ExportEdgeKey-smallest — deterministic like everything
  // else in this document.
  Json heritage = Json::MakeArray();
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const versioning::VersionEdge* best = nullptr;
    std::string best_key;
    for (const versioning::VersionEdge& e : graph_.Edges()) {
      if (e.parent != path[i] || e.child != path[i + 1]) continue;
      std::string key = ExportEdgeKey(e);
      if (best == nullptr || key < best_key) {
        best = &e;
        best_key = std::move(key);
      }
    }
    Json hop = Json::MakeObject();
    hop.Set("parent", path[i]);
    hop.Set("child", path[i + 1]);
    if (best != nullptr) {
      hop.Set("type",
              std::string(versioning::EdgeTypeToString(best->type)));
      hop.Set("confidence", best->confidence);
    }
    heritage.Append(std::move(hop));
  }
  doc.Set("heritage", std::move(heritage));

  std::string text = StrFormat(
      "%s%s. Model Lake catalog, version-graph revision %llu. Lineage: %s.",
      creator.empty() ? "" : (creator + ". ").c_str(), id.c_str(),
      static_cast<unsigned long long>(graph_.revision()),
      Join(path, " -> ").c_str());
  doc.Set("text", text);

  std::string bibtex = StrFormat(
      "@misc{%s,\n"
      "  title = {%s},\n"
      "  author = {%s},\n"
      "  howpublished = {Model Lake catalog},\n"
      "  note = {version-graph revision %llu%s%s; lineage %s}\n"
      "}",
      id.c_str(), title.c_str(),
      creator.empty() ? "unknown" : creator.c_str(),
      static_cast<unsigned long long>(graph_.revision()),
      digest.empty() ? "" : "; artifact sha256:",
      digest.c_str(), Join(path, " -> ").c_str());
  doc.Set("bibtex", bibtex);
  return doc;
}

ModelLake::ExportIterator::ExportIterator(const ModelLake* lake)
    : lake_(lake), lock_(lake->mu_) {
  mutation_epoch_ = lake_->mutation_epoch_;
  index_generation_ = lake_->index_generation_;
  model_ids_ = lake_->catalog_->ListIds("model");        // sorted
  dataset_names_ = lake_->catalog_->ListIds("dataset");  // sorted
  for (const versioning::VersionEdge& e : lake_->graph_.Edges()) {
    edges_.push_back(e);
  }
  std::sort(edges_.begin(), edges_.end(),
            [](const versioning::VersionEdge& a,
               const versioning::VersionEdge& b) {
              return ExportEdgeKey(a) < ExportEdgeKey(b);
            });
}

bool ModelLake::ExportIterator::Next(std::string* line) {
  line->clear();
  // Skip past exhausted list stages (including empty ones).
  auto exhausted = [this] {
    return (stage_ == Stage::kModels && cursor_ >= model_ids_.size()) ||
           (stage_ == Stage::kEdges && cursor_ >= edges_.size()) ||
           (stage_ == Stage::kDatasets && cursor_ >= dataset_names_.size());
  };
  while (exhausted()) {
    stage_ = static_cast<Stage>(static_cast<int>(stage_) + 1);
    cursor_ = 0;
  }
  if (stage_ == Stage::kDone) return false;

  Json record = Json::MakeObject();
  switch (stage_) {
    case Stage::kHeader: {
      record.Set("kind", std::string("header"));
      record.Set("schema", std::string("mlake.export"));
      record.Set("schema_version", int64_t{1});
      Json counts = Json::MakeObject();
      counts.Set("models", Json(static_cast<uint64_t>(model_ids_.size())));
      counts.Set("edges", Json(static_cast<uint64_t>(edges_.size())));
      counts.Set("datasets",
                 Json(static_cast<uint64_t>(dataset_names_.size())));
      record.Set("counts", std::move(counts));
      stage_ = Stage::kModels;
      cursor_ = 0;
      break;
    }
    case Stage::kModels: {
      const std::string& id = model_ids_[cursor_++];
      record.Set("kind", std::string("model"));
      record.Set("id", id);
      // Catalog docs ship verbatim — the byte-identity anchor (the
      // replica re-put these exact bytes at apply time).
      if (auto doc = lake_->catalog_->GetDoc("model", id); doc.ok()) {
        record.Set("model", doc.MoveValueUnsafe());
      }
      if (auto doc = lake_->catalog_->GetDoc("card", id); doc.ok()) {
        record.Set("card", doc.MoveValueUnsafe());
      }
      record.Set("degraded", lake_->degraded_.count(id) > 0);
      break;
    }
    case Stage::kEdges: {
      const versioning::VersionEdge& e = edges_[cursor_++];
      record.Set("kind", std::string("edge"));
      record.Set("parent", e.parent);
      record.Set("child", e.child);
      record.Set("type", std::string(versioning::EdgeTypeToString(e.type)));
      record.Set("confidence", e.confidence);
      if (!e.params.is_null()) record.Set("params", e.params);
      break;
    }
    case Stage::kDatasets: {
      const std::string& name = dataset_names_[cursor_++];
      record.Set("kind", std::string("dataset"));
      record.Set("name", name);
      if (auto doc = lake_->catalog_->GetDoc("dataset", name); doc.ok()) {
        record.Set("doc", doc.MoveValueUnsafe());
      }
      break;
    }
    case Stage::kFooter: {
      record.Set("kind", std::string("footer"));
      record.Set("records",
                 Json(static_cast<uint64_t>(model_ids_.size() +
                                            edges_.size() +
                                            dataset_names_.size())));
      stage_ = Stage::kDone;
      break;
    }
    case Stage::kDone:
      return false;
  }
  *line = record.Dump();
  line->push_back('\n');
  ++records_emitted_;
  return true;
}

std::unique_ptr<ModelLake::ExportIterator> ModelLake::OpenExport() const {
  return std::unique_ptr<ExportIterator>(new ExportIterator(this));
}

}  // namespace mlake::core
