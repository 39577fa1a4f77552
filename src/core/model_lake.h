#ifndef MLAKE_CORE_MODEL_LAKE_H_
#define MLAKE_CORE_MODEL_LAKE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fs.h"
#include "common/json.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "core/replication_seed.h"
#include "embed/embedder.h"
#include "index/hnsw_index.h"
#include "index/inverted_index.h"
#include "index/minhash_lsh.h"
#include "metadata/model_card.h"
#include "nn/dataset.h"
#include "nn/model.h"
#include "search/context.h"
#include "search/executor.h"
#include "storage/blob_store.h"
#include "storage/cache.h"
#include "storage/catalog.h"
#include "storage/intent_journal.h"
#include "storage/model_artifact.h"
#include "versioning/heritage.h"
#include "versioning/model_graph.h"

namespace mlake::core {

/// Configuration of a lake instance.
///
/// All models in one lake share an input space (input_dim) and output
/// arity (num_classes) so that the extrinsic probe set is meaningful
/// across the lake — the benchmark-lake simplification documented in
/// DESIGN.md.
struct LakeOptions {
  std::string root;

  int64_t input_dim = 32;
  int64_t num_classes = 8;

  /// Shared extrinsic probe set.
  size_t probe_count = 24;
  uint64_t probe_seed = 20250325;

  /// Model embedder used for the ANN index: "behavioral",
  /// "weight_stats" or "fisher".
  std::string embedder = "behavioral";

  index::HnswConfig hnsw;

  /// MinHash/LSH sizing for dataset-overlap search. 32 bands x 2 rows
  /// keeps recall high down to Jaccard ~0.3 (sibling-domain overlap).
  size_t minhash_bands = 32;
  size_t minhash_rows = 2;

  /// Execution context for every parallel path inside the lake:
  /// batch-ingest embedding and delta ANN build, compaction, index
  /// rebuild on Open, the replica apply path, heritage recovery, fsck.
  /// Default is the process-wide pool (ExecutionContext::Shared(), one
  /// worker per core, shared by every lake in the process); pass
  /// ExecutionContext::Serial() to opt out or WithThreads(n) for a
  /// private pool. All parallel paths are deterministic-by-construction
  /// (statically partitioned, reduced in index order), so lake
  /// contents, snapshot files and query results are identical at any
  /// thread count.
  ExecutionContext exec = ExecutionContext::Shared();

  // ----------------------------------------------------- storage layer
  // (PR 3: zero-copy reads + caching. Caches sit on the read path only,
  // so lake contents are byte-identical with caches on or off.)

  /// Blob digest verification policy (see storage::VerifyMode).
  /// Default verifies each checkpoint's SHA-256 once per process
  /// instead of on every read.
  storage::VerifyMode blob_verify = storage::VerifyMode::kOnFirstRead;

  /// Serve checkpoint reads through mmap views (zero-copy); falls back
  /// to copying reads automatically where mmap is unavailable.
  bool blob_mmap = true;

  /// Byte budget of the decoded-artifact cache (keyed by content
  /// digest). 0 disables it.
  size_t artifact_cache_bytes = size_t{256} << 20;

  /// Byte budget of the embedding cache (keyed by digest + embedder
  /// config). 0 disables it.
  size_t embedding_cache_bytes = size_t{32} << 20;

  /// Shards per cache (per-shard mutexes bound reader contention).
  size_t cache_shards = 8;

  // ------------------------------------------------- robustness layer
  // (PR 4: crash-consistent mutations + graceful degradation.)

  /// Filesystem seam (common/fs.h) threaded through every durable lake
  /// component — blobs, catalog, intent journal. nullptr = the real
  /// filesystem; tests pass a FaultInjectingFs to rehearse crashes.
  Fs* fs = nullptr;

  /// Transient-I/O retry policy for blob reads/writes
  /// (Status::IsTransient errors only). RetryPolicy::None() disables.
  RetryPolicy retry;

  // ---------------------------------------------- index lifecycle
  // (PR 6: incremental disk-backed indexes + background compaction.)

  /// Serve the search indexes from the mmap-backed snapshot generation
  /// in <root>/index when a valid manifest exists (load = mmap + header
  /// validation, no per-model catalog parse), reconciling models and
  /// datasets added or removed since the snapshot incrementally.
  /// Snapshots are a pure cache: any mismatch or validation failure
  /// falls back to a full catalog rebuild, so results can never be
  /// wrong, only slower to reach.
  bool load_index_snapshots = true;

  /// Background compaction: once the ANN delta segment holds at least
  /// max(compact_min_delta, base_size * compact_growth) elements after
  /// an ingest, a background pass folds the delta into a new snapshot
  /// generation (CompactIndices). The geometric growth term keeps the
  /// amortized per-ingest index cost O(1). The default min keeps small
  /// (test-sized) lakes from ever compacting implicitly.
  bool background_compaction = true;
  size_t compact_min_delta = 4096;
  double compact_growth = 0.5;

  // ---------------------------------------------- replication layer
  // (PR 9: journal-streaming replication.)

  /// Promote the intent journal into a replayable op log: committed
  /// entries are retained as `<seq>.op` files (strictly increasing
  /// seqs, epoch-stamped) and ingest/lineage/dataset mutations record a
  /// replay payload, so a leader can stream the log to read replicas.
  /// Off by default — a standalone lake keeps the delete-on-commit
  /// journal and pays nothing.
  bool replication_log = false;
};

/// What Open() had to clean up from an earlier crash (all zeros on a
/// clean open).
struct RecoveryReport {
  /// Incomplete ingest intents rolled back (journal replay).
  size_t rolled_back_intents = 0;
  /// Model ids removed by those rollbacks.
  std::vector<std::string> rolled_back_ids;
  /// Blobs deleted because no model doc references them.
  size_t orphan_blobs_removed = 0;
  /// Stray `*.tmp.*` files removed (lake root, journal, blob buckets).
  size_t tmp_files_removed = 0;

  /// What `/statsz` exposes so operators can see recovery state without
  /// shelling into the box.
  Json ToJson() const;
};

/// Outcome of a repairing fsck pass (FsckRepair / `mlake fsck --repair`).
struct FsckReport {
  /// Model ids whose artifact failed verification this pass.
  std::vector<std::string> corrupted;
  /// Blob digests moved to quarantine (deduplicated: one digest may
  /// back several corrupted ids).
  std::vector<std::string> quarantined;
  size_t orphan_blobs_removed = 0;
  size_t tmp_files_removed = 0;

  Json ToJson() const;
};

/// One (model, card) pair of a batch ingest.
struct IngestRequest {
  const nn::Model* model = nullptr;
  metadata::ModelCard card;
};

/// One metadata-only (card, embedding) pair for IngestCards — the
/// streaming lake-generation path, which populates the catalog and
/// every index without materializing a checkpoint artifact.
struct CardIngest {
  metadata::ModelCard card;
  /// Must be EmbeddingDim() floats.
  std::vector<float> embedding;
};

/// The model lake (paper Figure 2): content-addressed model storage, a
/// JSON metadata catalog, model embeddings with an ANN index, keyword
/// search over cards, dataset-overlap search, a version graph, and the
/// application layer (MLQL queries, related-model search, documentation
/// generation, auditing, citation, benchmarking).
///
/// Thread-safety contract (the lake's first explicit one): a
/// `std::shared_mutex` guards all in-memory and on-disk state.
///   - Read APIs (`Query`, `RelatedModels`, `ListModels`, `NumModels`,
///     `LoadModel`, `CardFor`, `RecoverHeritage`, audits, ...) take the
///     lock shared: any number of threads may call them concurrently.
///   - Mutating APIs (`IngestModel`, `IngestModels`, `UpdateCard`,
///     `RecordEdge`, `RegisterDataset`, `RegisterBenchmark`) take it
///     exclusive: they serialize against each other and against all
///     readers, so a reader never observes a half-ingested batch
///     (no torn index/catalog states).
///   - Exceptions: `graph()`, `catalog()` and `probes()` hand out
///     direct references and are only safe while no ingest runs
///     concurrently; they exist for tools and tests.
class ModelLake : public search::SearchContext {
 public:
  /// Opens (or creates) a lake at options.root, rebuilding in-memory
  /// indices from the catalog (parallelized over options.exec).
  static Result<std::unique_ptr<ModelLake>> Open(LakeOptions options);

  ModelLake(const ModelLake&) = delete;
  ModelLake& operator=(const ModelLake&) = delete;

  /// Stops the background compactor (waiting for an in-flight pass).
  ~ModelLake() override;

  // ------------------------------------------------------------ ingest

  /// Stores the model artifact (content-addressed), the card, the
  /// embedding, and updates every index. The card's model_id names the
  /// model and must be unique in the lake.
  Result<std::string> IngestModel(const nn::Model& model,
                                  const metadata::ModelCard& card);

  /// Batch ingest: validates the whole batch up front (duplicate ids —
  /// in the lake or within the batch — reject the batch atomically
  /// before anything is written), then pipelines it: artifact
  /// serialization and embedding run in parallel on `options().exec`,
  /// catalog writes and index updates apply sequentially in batch
  /// order, and the ANN index is extended with one bulk `Build`.
  /// Holds the exclusive lock for the duration; readers block but
  /// never observe a partial batch. Returns the ingested ids in batch
  /// order.
  Result<std::vector<std::string>> IngestModels(
      const std::vector<IngestRequest>& batch);

  /// Metadata-only batch ingest: stores cards and embeddings (no
  /// artifact — LoadModel/LoadArtifact on such ids fail with
  /// FailedPrecondition) and updates every index incrementally.
  /// Journaled and all-or-nothing like IngestModels, but O(batch)
  /// memory and time regardless of lake size: no artifact
  /// serialization, no forward passes, no index rebuild. This is the
  /// streaming lake-generation path. Returns the ingested ids in batch
  /// order.
  Result<std::vector<std::string>> IngestCards(
      const std::vector<CardIngest>& batch);

  /// Embedding dimensionality of this lake's embedder — what
  /// CardIngest.embedding must supply.
  int64_t EmbeddingDim() const;

  /// Reconstructs the live model from its stored artifact (served from
  /// the decoded-artifact cache when resident).
  Result<std::unique_ptr<nn::Model>> LoadModel(const std::string& id) const;

  /// The decoded artifact itself — the cheap path for read-heavy lake
  /// tasks (weight comparison, CKA, heritage) that never need a live
  /// model. Shared with the artifact cache: the pointer stays valid
  /// after eviction.
  Result<std::shared_ptr<const storage::ModelArtifact>> LoadArtifact(
      const std::string& id) const;

  Status UpdateCard(const metadata::ModelCard& card);

  /// ListModels and NumModels share one catalog scan path under the
  /// shared lock, so they agree with each other (and with the indices)
  /// even while another thread's ingest batch is pending.
  std::vector<std::string> ListModels() const;
  size_t NumModels() const;

  /// Verifies every stored artifact against its digest (parallel over
  /// options.exec); returns the ids of corrupted models (empty =
  /// healthy). Models already quarantined are skipped — they are known
  /// bad and no longer served.
  Result<std::vector<std::string>> FsckArtifacts() const;

  /// Repair mode (`mlake fsck --repair`): verifies every artifact,
  /// quarantines corrupt blobs (marking their models degraded so the
  /// rest of the lake stays searchable), garbage-collects orphan blobs
  /// and removes stray temp files. Exclusive lock; safe to run on a
  /// live lake.
  Result<FsckReport> FsckRepair();

  /// Moves `id`'s blob to quarantine and marks every model sharing that
  /// content digest degraded. Degraded models stop being served by
  /// LoadModel/search/heritage but keep their catalog entries for
  /// forensics; re-ingesting repaired bytes under a new id restores the
  /// content.
  Status QuarantineModel(const std::string& id);

  /// Ids currently degraded (quarantined artifact), sorted.
  std::vector<std::string> DegradedModels() const;

  bool IsDegraded(const std::string& id) const;

  /// What the last Open() recovered (rolled-back intents, GC'd blobs).
  const RecoveryReport& recovery() const { return recovery_; }

  // ---------------------------------------------------------- datasets

  /// Registers a dataset (its shard ids) for overlap search.
  Status RegisterDataset(const std::string& name,
                         const std::vector<std::string>& shards);
  Result<std::vector<std::string>> DatasetShards(
      const std::string& name) const;
  std::vector<std::string> ListDatasets() const;

  // ----------------------------------------------------------- lineage

  /// Records a ground-truth derivation edge and persists the graph.
  Status RecordEdge(const versioning::VersionEdge& edge);

  /// Direct reference — see the thread-safety contract above.
  const versioning::ModelGraph& graph() const { return graph_; }

  /// Lineage of one model as JSON — parents, children, transitive
  /// ancestors/descendants, the recorded edges touching `id`, and the
  /// graph revision — computed in one shared-lock critical section so
  /// concurrent callers (the HTTP lineage endpoint) get a consistent
  /// snapshot without ever touching `graph()` unlocked. NotFound when
  /// `id` is not in the lake.
  Result<Json> Lineage(const std::string& id) const;

  /// Reconstructs lineage from stored weights alone (no history).
  /// Model loading and the O(n²) distance matrix run on options.exec
  /// unless config.exec carries its own pool.
  Result<versioning::HeritageResult> RecoverHeritage(
      const versioning::HeritageConfig& config = {}) const;

  // ------------------------------------------------------------ search

  /// Executes an MLQL query. The shared lock is held once for the
  /// whole plan, so the result is a consistent snapshot.
  Result<search::QueryResult> Query(std::string_view mlql) const;

  /// Query() with cross-shard context (search::SearchOverlay): hint
  /// embeddings for off-shard model ids and global BM25 statistics.
  /// With a default-constructed overlay this is exactly Query(). The
  /// cluster scatter path — each shard answers with scores
  /// bit-identical to the merged lake's, so the router's (score desc,
  /// id asc) merge of per-shard top-k is the merged lake's top-k.
  Result<search::QueryResult> QueryWithOverlay(
      std::string_view mlql, const search::SearchOverlay& overlay) const;

  /// This shard's integer contribution to `text`'s BM25 corpus
  /// statistics (phase 1 of distributed keyword search; contributions
  /// sum exactly at the router).
  index::Bm25Stats CollectBm25Stats(const std::string& text) const;

  /// KeywordScores with externally supplied (global) corpus
  /// statistics — phase 2 of distributed keyword search. With
  /// `stats == CollectBm25Stats(text)` this is bit-identical to
  /// KeywordScores(text, k).
  Result<std::vector<std::pair<std::string, double>>> KeywordScoresWithStats(
      const std::string& text, size_t k, const index::Bm25Stats& stats) const;

  /// Related-model search by raw embedding vector, skipping
  /// `exclude_id` (the query model, which may live on another shard).
  /// Score = 1 - cosine distance, like RelatedModels. The cluster
  /// ann scatter probe: the router resolves the query model's
  /// embedding on its owner, then fans the vector out to every shard.
  Result<std::vector<search::RankedModel>> RelatedModelsByVector(
      const std::vector<float>& query, size_t k,
      const std::string& exclude_id) const;

  /// The shard-local half of a distributed hybrid ranking (see
  /// search::CollectHybridParts): parses `mlql` (plan cache shared
  /// with Query), evaluates its WHERE over this shard's models and
  /// returns the survivors with their dot products against
  /// `query_vec`. One shared-lock critical section.
  Result<std::vector<search::HybridCandidate>> HybridParts(
      std::string_view mlql, const std::vector<float>& query_vec) const;

  /// Model-as-query related-model search via the ANN index.
  Result<std::vector<search::RankedModel>> RelatedModels(
      const std::string& id, size_t k) const;

  /// Hybrid search (§5 roadmap): reciprocal-rank fusion of BM25 keyword
  /// relevance and embedding similarity to `query_model_id`. Robust to
  /// card rot on one side and embedding blind spots on the other.
  Result<std::vector<search::RankedModel>> HybridSearch(
      const std::string& text, const std::string& query_model_id,
      size_t k) const;

  // SearchContext implementation (used by the MLQL executor). Each
  // call takes the shared lock itself; `Query` instead holds the lock
  // once and executes against an internal unlocked view (shared_mutex
  // is not reentrant, so nesting would deadlock against a waiting
  // writer).
  std::vector<std::string> AllModelIds() const override;
  /// Catalog statistics for the MLQL cost-based planner: model count,
  /// index live sizes, and per-field value histograms. Rebuilt lazily —
  /// one O(n) card scan per mutation epoch, then served from cache.
  search::SearchContext::CatalogStats Stats() const override;
  Result<metadata::ModelCard> CardFor(const std::string& id) const override;
  Result<std::vector<float>> EmbeddingFor(
      const std::string& id) const override;
  Result<std::vector<std::pair<std::string, float>>> NearestModels(
      const std::vector<float>& query, size_t k) const override;
  Result<std::vector<std::pair<std::string, double>>> KeywordScores(
      const std::string& text, size_t k) const override;
  Result<std::vector<std::pair<std::string, double>>> TrainedOn(
      const std::string& dataset, double min_overlap) const override;
  bool IsDescendantOf(const std::string& id,
                      const std::string& ancestor) const override;

  // ------------------------------------------------------ replication
  // (Meaningful when options().replication_log is set; see
  // DESIGN.md §14. All take the lake lock themselves.)

  /// True when the journal is retained as a replayable op log.
  bool ReplicationLogEnabled() const { return options_.replication_log; }

  /// Shippable batch of committed log entries with seq >= `from_seq`:
  /// {"epoch", "last_seq", "exhausted", "entries": [intent json...]}.
  /// Local-only ops leave gaps: a compaction pass holds a seq but never
  /// enters the log (older logs that kept "compact" entries have them
  /// filtered out); `exhausted` tells the replica it may fast-forward
  /// its watermark to `last_seq` across such gaps. Entries are served
  /// from any retained seq, seq 1 included, so a replica that cannot
  /// take a seed can always replay the log.
  Result<Json> ReplicationLogJson(uint64_t from_seq, size_t max) const;

  /// The seq a replication seed would be cut at when the lake has a
  /// usable published index generation (its manifest records
  /// covered_seq and the log is retained past it), 0 otherwise. O(1):
  /// read from the in-memory copy of the manifest. An empty replica
  /// installs a seed instead of replaying the log when this is > 0.
  uint64_t ReplicationSeedSeq() const;

  /// Raw blob bytes by content digest (the replication blob fetch).
  Result<std::string> ReadBlob(const std::string& digest) const;

  /// Hex SHA-256 over the lake's replicated logical state: the
  /// catalog's model/card/embedding/dataset digests and the lineage
  /// edge digest (DESIGN.md §14). Each is an order-independent
  /// SetDigest that its owner keeps exact on every write, so this is
  /// O(1), not a scan of the lake. Local-only kinds ("graph/main",
  /// "degraded"), index internals and the graph revision counter are
  /// excluded: compaction timing, quarantine and rolled-back ingests
  /// may differ between leader and replica without any logical
  /// divergence. Equal fingerprints ⇒ the replica has converged (a
  /// fault detector, not an authenticator).
  std::string ReplicationFingerprint() const;

  /// The replication seed (core/replication_seed.h, DESIGN.md §14): the
  /// replicated catalog records as stored bytes, the lineage edges and
  /// the fingerprint of exactly that state. With a usable published
  /// index generation (its manifest records covered_seq and the log is
  /// retained past it) the seed is cut at covered_seq — the catalog
  /// minus what later committed entries wrote — and carries that
  /// generation's four snapshot files. Otherwise it is cut at the last
  /// committed seq and carries no files. A seed larger than
  /// kMaxSeedBytes is refused with ResourceExhausted before it is
  /// encoded; a replica bootstrapping then replays the log instead.
  Result<std::string> EncodeReplicationSeed() const;

  /// Applies one shipped log entry at its original seq + epoch through
  /// the normal journaled all-or-nothing ingest path, so the replica's
  /// catalog, indexes and log stay byte-compatible with the leader's.
  /// `blob_bytes` maps each digest the entry references to its artifact
  /// bytes (fetched from the leader); bytes are digest-verified before
  /// anything is applied.
  Status ApplyReplicated(const storage::Intent& entry,
                         const std::map<std::string, std::string>& blob_bytes);

  /// Makes this lake's replicated state exactly `seed`'s: fetches
  /// (digest-verified, via `fetch_blob`) any artifact it lacks, installs
  /// the records by diff (deleting local records the seed lacks), sets
  /// lineage wholesale, resets the local log to the seed's seq and
  /// adopts its epoch. A seed carrying an index generation is written
  /// to <root>/index and adopted as this lake's published generation at
  /// the current mutation epoch, so the next CompactIndices is a no-op;
  /// otherwise the indexes are rebuilt from the catalog. The old
  /// manifest is removed before any record changes, so a crash part
  /// way reopens on a catalog rebuild; installing the same seed again
  /// completes it. Waits for a running compaction pass, so the two
  /// never write the index directory at once.
  Status InstallReplicationSeed(
      const ReplicationSeed& seed,
      const std::function<Result<std::string>(const std::string&)>&
          fetch_blob);

  /// Replication epoch (fencing term) and log high-water mark.
  uint64_t ReplicationEpoch() const;
  uint64_t ReplicationLastSeq() const;
  /// Durably raises the epoch (monotonic; lowering is refused).
  Status SetReplicationEpoch(uint64_t epoch);
  /// Epoch+1, durably — leader promotion.
  Result<uint64_t> BumpReplicationEpoch();
  /// Log GC / reseed floor: durably removes committed entries <= upto.
  Status TruncateReplicationLog(uint64_t upto_seq);

  /// id -> artifact content digest ("" for metadata-only models).
  Result<std::string> ArtifactDigest(const std::string& id) const;

  /// Whether a recorded lineage edge exists (shared-lock safe, unlike
  /// graph()).
  bool HasEdge(const std::string& parent, const std::string& child) const;

  // ------------------------------------------------------ benchmarking

  /// Registers an evaluation dataset under a benchmark name (in-memory;
  /// benchmark suites are regenerable from task specs).
  Status RegisterBenchmark(const std::string& name, nn::Dataset data);
  std::vector<std::string> ListBenchmarks() const;

  /// Accuracy of a stored model on a registered benchmark.
  Result<double> EvaluateModel(const std::string& id,
                               const std::string& benchmark) const;

  // ------------------------------------------------------ applications

  /// Documentation generation (paper §6): drafts a card for `id` from
  /// lake analyses — architecture/size from the artifact, metrics from
  /// registered benchmarks, lineage from the version graph, task/tags
  /// inferred by majority vote over behaviorally-nearest documented
  /// models.
  Result<metadata::ModelCard> GenerateCard(const std::string& id) const;

  /// Auditing (paper §6): evidence-backed questionnaire answers about
  /// documentation completeness, lineage consistency, artifact
  /// integrity and benchmark coverage.
  Result<Json> AuditModel(const std::string& id) const;

  // ------------------------------------------------------- governance
  // (PR 10: online governance services; see DESIGN.md §15. The lake
  // contributes the shared-lock primitives, src/governance/ the HTTP
  // shaping.)

  /// Citation (paper §6), pinned to the current version-graph revision
  /// (model_id, graph_revision, lineage_path, text — it changes exactly
  /// when the graph does), plus the card's attribution fields, the full
  /// heritage chain with per-hop edge types, the artifact digest,
  /// quarantine state, and a BibTeX-ish text block. One shared-lock
  /// critical section, so every field describes the same snapshot. NotFound when `id` is not in
  /// the lake; degraded models still cite (flagged).
  Result<Json> CitationDoc(const std::string& id) const;

  /// Streaming point-in-time export of the lake's logical metadata as
  /// NDJSON records (schema mlake.export, see DESIGN.md §15): header,
  /// sorted model records (catalog model/card docs verbatim), sorted
  /// lineage edges, sorted datasets, footer. The iterator holds the
  /// lake's shared lock for its lifetime — writers queue behind an
  /// in-flight export, readers proceed — and emits one record per
  /// Next() call, so resident memory stays O(ids), never O(payload).
  /// Docs ship verbatim and ordering is content-determined, so two
  /// caught-up replicas produce byte-identical exports (the same
  /// property ReplicationFingerprint checks; revision/epoch counters
  /// are excluded for the same reason).
  class ExportIterator {
   public:
    ExportIterator(ExportIterator&&) = default;
    ExportIterator& operator=(ExportIterator&&) = default;

    /// Appends the next NDJSON line (record JSON + '\n') to `*line`
    /// (cleared first). Returns false when the export is complete.
    bool Next(std::string* line);

    /// Records emitted so far (header and footer included).
    size_t records_emitted() const { return records_emitted_; }

    /// Counts fixed at open time (what the header declares).
    size_t num_models() const { return model_ids_.size(); }

    /// The change key of the snapshot this export describes, captured
    /// under the same lock acquisition as the record lists — what the
    /// /v1/export ETag is derived from, so tag and body always agree.
    uint64_t mutation_epoch() const { return mutation_epoch_; }
    uint64_t index_generation() const { return index_generation_; }

   private:
    friend class ModelLake;
    explicit ExportIterator(const ModelLake* lake);

    enum class Stage { kHeader, kModels, kEdges, kDatasets, kFooter, kDone };

    const ModelLake* lake_;
    std::shared_lock<std::shared_mutex> lock_;
    std::vector<std::string> model_ids_;
    std::vector<std::string> dataset_names_;
    std::vector<versioning::VersionEdge> edges_;  // export-sorted
    uint64_t mutation_epoch_ = 0;
    uint64_t index_generation_ = 0;
    Stage stage_ = Stage::kHeader;
    size_t cursor_ = 0;
    size_t records_emitted_ = 0;
  };

  /// Opens a streaming export at the current snapshot. The returned
  /// iterator pins the snapshot (shared lock) until destroyed.
  std::unique_ptr<ExportIterator> OpenExport() const;

  /// Monotone counter bumped by every content mutation (ingest, card
  /// update, dataset registration, lineage edge, reseed). Paired with
  /// IndexGeneration() it is the change-detection key the governance
  /// export ETag uses.
  uint64_t MutationEpoch() const;

  // ------------------------------------------------------------- misc

  /// Counters of the lake's two storage caches.
  struct LakeCacheStats {
    storage::CacheStats artifacts;
    storage::CacheStats embeddings;
  };
  LakeCacheStats CacheStats() const;

  /// CacheStats as JSON ({"artifact_cache": {...}, "embedding_cache":
  /// {...}}); what `mlake stats` and the benches print.
  Json CacheStatsJson() const;

  /// Rebuilds the indexes from the catalog, writes them as a new
  /// mmap-backed snapshot generation under <root>/index (journaled: a
  /// crash at any point recovers to either the old or the new
  /// generation), and swaps the lake onto the snapshot-backed result.
  /// Because the fold is a deterministic rebuild in catalog order, the
  /// compacted index answers queries identically to a from-scratch
  /// rebuild. Safe on a live lake: only the catalog parse holds the
  /// lock (shared), the build holds none. Returns Unavailable (and
  /// changes nothing) when a mutation lands mid-pass — before the files
  /// are written when it lands during the build — and the caller or the
  /// next background trigger retries. A no-op pass — no mutation since the
  /// last generation this lake published, whose manifest is still in
  /// place — returns OK at once: it builds and writes nothing and keeps
  /// the generation.
  Status CompactIndices();

  /// Per-index base/delta/tombstone counts, the loaded snapshot
  /// generation, the last compaction duration and the compaction pass
  /// counters ({"compactions": {"published", "aborted", "skipped"}}) —
  /// the index surface of `/statsz` and `mlake stats`.
  Json IndexStatsJson() const;

  /// The loaded index snapshot generation (0 = built from the catalog)
  /// — what a cluster backend reports on its heartbeat.
  uint64_t IndexGeneration() const;

  /// Counters of the parse-once MLQL plan cache behind Query().
  struct PlanCacheCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    size_t entries = 0;
  };
  PlanCacheCounters PlanCacheStats() const;

  /// Planner surface of `/statsz`: plan-cache counters and the plan the
  /// executor chose for the most recent MLQL query.
  Json PlannerStatsJson() const;

  const Tensor& probes() const { return probes_; }
  const LakeOptions& options() const { return options_; }
  storage::Catalog* catalog() { return catalog_.get(); }
  const storage::Catalog* catalog() const { return catalog_.get(); }

 private:
  /// SearchContext view without locking — what `Query` (and other
  /// composite reads that already hold the shared lock) executes
  /// against.
  class UnlockedView : public search::SearchContext {
   public:
    explicit UnlockedView(const ModelLake* lake) : lake_(lake) {}
    std::vector<std::string> AllModelIds() const override;
    search::SearchContext::CatalogStats Stats() const override;
    Result<metadata::ModelCard> CardFor(const std::string& id) const override;
    Result<std::vector<float>> EmbeddingFor(
        const std::string& id) const override;
    Result<std::vector<std::pair<std::string, float>>> NearestModels(
        const std::vector<float>& query, size_t k) const override;
    Result<std::vector<std::pair<std::string, double>>> KeywordScores(
        const std::string& text, size_t k) const override;
    Result<std::vector<std::pair<std::string, double>>> TrainedOn(
        const std::string& dataset, double min_overlap) const override;
    bool IsDescendantOf(const std::string& id,
                        const std::string& ancestor) const override;

   private:
    const ModelLake* lake_;
  };

  /// UnlockedView plus a SearchOverlay: EmbeddingFor falls back to the
  /// overlay's hint vectors when the local lookup misses, and
  /// KeywordScores on the overlay's exact text is answered with the
  /// overlay's global BM25 statistics. Everything else delegates
  /// unchanged.
  class OverlayView : public search::SearchContext {
   public:
    OverlayView(const ModelLake* lake, const search::SearchOverlay* overlay)
        : lake_(lake), overlay_(overlay) {}
    std::vector<std::string> AllModelIds() const override;
    search::SearchContext::CatalogStats Stats() const override;
    Result<metadata::ModelCard> CardFor(const std::string& id) const override;
    Result<std::vector<float>> EmbeddingFor(
        const std::string& id) const override;
    Result<std::vector<std::pair<std::string, float>>> NearestModels(
        const std::vector<float>& query, size_t k) const override;
    Result<std::vector<std::pair<std::string, double>>> KeywordScores(
        const std::string& text, size_t k) const override;
    Result<std::vector<std::pair<std::string, double>>> TrainedOn(
        const std::string& dataset, double min_overlap) const override;
    bool IsDescendantOf(const std::string& id,
                        const std::string& ancestor) const override;

   private:
    const ModelLake* lake_;
    const search::SearchOverlay* overlay_;
  };

  explicit ModelLake(LakeOptions options) : options_(std::move(options)) {}

  /// The lake's derived index state as one unit: built fresh from the
  /// catalog (rebuild, compaction) or loaded from a snapshot
  /// generation, then installed under the exclusive lock in one swap so
  /// readers never observe a half-replaced index set.
  struct IndexSet {
    std::unique_ptr<index::HnswIndex> ann;
    std::vector<std::string> ann_ids;
    index::InvertedIndex bm25;
    std::unique_ptr<index::MinHashLsh> lsh;
    std::map<std::string, std::string> digest_by_id;
    /// Dataset names the LSH holds (for the ids snapshot + reconcile).
    std::vector<std::string> dataset_names;
  };

  /// What a from-scratch index build reads from the catalog, in
  /// catalog order: parsed under the lake lock (shared suffices), then
  /// built into an IndexSet without it.
  struct IndexInputs {
    std::vector<std::string> model_ids;
    std::vector<std::string> digests;
    std::vector<std::string> card_ids;
    std::vector<std::string> texts;
    std::vector<std::string> embedding_ids;
    std::vector<std::vector<float>> vectors;
    std::vector<std::string> dataset_names;
    std::vector<index::MinHashSignature> signatures;
  };

  /// The generation <root>/index/MANIFEST.json publishes.
  struct IndexManifest {
    uint64_t generation = 0;
    /// Snapshot file names inside IndexDir().
    std::string ann, bm25, lsh, ids;
    /// The last committed log seq whose state the generation holds
    /// exactly (read with the catalog the pass built from); 0 when the
    /// manifest predates the field. What a replication seed cuts at.
    uint64_t covered_seq = 0;
    /// The lineage graph's revision at covered_seq (read under the same
    /// lock), which a seed cut there hands to the replica's graph.
    uint64_t graph_revision = 0;
  };

  Status Initialize();
  Status RebuildIndices();
  /// Parses the build inputs (parallel over options.exec). Caller holds
  /// mu_; shared suffices.
  Status ReadIndexInputs(IndexInputs* out) const;
  /// Builds a fresh IndexSet from `inputs`, deterministic in their
  /// order. Touches no lake state, so it needs no lock.
  Status BuildIndexSet(IndexInputs inputs, IndexSet* out) const;
  /// The manifest a replication seed may be cut at: published, recording
  /// a covered_seq, and with the log retained past it; nullptr when
  /// there is none. Caller holds mu_.
  const IndexManifest* SeedManifestUnlocked() const;
  /// Reads MANIFEST.json; NotFound when there is none.
  Result<IndexManifest> ReadIndexManifest() const;
  Status WriteIndexManifest(const IndexManifest& manifest);
  void InstallIndexSet(IndexSet set);
  /// Open()-time index bring-up: snapshot load + reconcile when enabled
  /// and present, full catalog rebuild otherwise.
  Status LoadOrRebuildIndices();
  /// Loads the snapshot generation named by <root>/index/MANIFEST.json,
  /// reconciles it against the catalog (models/datasets ingested or
  /// rolled back since the snapshot), and installs it. NotFound when no
  /// manifest exists.
  Status LoadIndexSnapshots();
  /// Loads the four snapshot files of one generation into `out`
  /// (mmap-backed base segments, empty deltas).
  Status LoadIndexSetFromFiles(const std::string& ann_path,
                               const std::string& bm25_path,
                               const std::string& lsh_path,
                               const std::string& ids_path,
                               IndexSet* out) const;
  /// Writes the id table / digest table / dataset-name table companion
  /// snapshot (SnapshotKind::kLakeIds).
  Status WriteIdsSnapshot(const IndexSet& set, const std::string& path,
                          uint64_t generation) const;
  /// Deletes index-dir files not referenced by the current manifest —
  /// crashed-compaction debris and superseded generations. Idempotent;
  /// also the rollback action of a "compact" intent.
  Status GcIndexFilesUnlocked();
  /// Removes MANIFEST.json (durably) so the next open rebuilds from the
  /// catalog — required before any mutation the snapshot/catalog diff
  /// cannot represent (card text updates).
  Status InvalidateIndexSnapshotsUnlocked();
  /// Wakes (lazily starting) the background compactor when the delta
  /// has outgrown the compaction threshold. Caller holds mu_ exclusive.
  void MaybeScheduleCompactionLocked();
  void CompactorLoop();
  std::string IndexDir() const;
  std::string IndexManifestPath() const;
  /// Open()-time crash recovery: rolls back pending intents, removes
  /// stray temp files, garbage-collects orphan blobs. Fills recovery_.
  Status Recover();
  /// Undoes everything a (possibly partial) mutation described by
  /// `intent` may have applied on disk: catalog docs, graph nodes, and
  /// blobs no surviving model references. Idempotent — a crash during
  /// rollback just replays it on the next open.
  Status RollbackIntent(const storage::Intent& intent);
  /// Deletes blobs no model doc references; returns how many.
  Result<size_t> GcOrphanBlobsUnlocked();
  /// Quarantine under the exclusive lock (FsckRepair's per-id step).
  Status QuarantineModelLocked(const std::string& id,
                               const std::string& reason);
  Status PersistGraph();
  index::MinHashSignature DatasetSignature(
      const std::vector<std::string>& shards) const;

  // Unlocked implementations; callers hold the appropriate lock.
  Status ValidateIngest(const IngestRequest& request,
                        const std::vector<std::string>& batch_ids) const;
  Status IndexModel(const std::string& id, const metadata::ModelCard& card);
  Result<std::vector<std::string>> IngestModelsLocked(
      const std::vector<IngestRequest>& batch);
  Result<std::vector<std::string>> IngestCardsLocked(
      const std::vector<CardIngest>& batch);
  /// Journals `intent` — at forced_seq_ (replica apply, preserving the
  /// leader's seq + epoch stamp) when set, else with a fresh local seq.
  Result<uint64_t> BeginIntentLocked(const storage::Intent& intent);
  Status RecordEdgeLocked(const versioning::VersionEdge& edge);
  Status RegisterDatasetLocked(const std::string& name,
                               const std::vector<std::string>& shards);
  /// The mutation phase of IngestCards (catalog docs + incremental
  /// index updates; no blobs, no graph).
  Status ApplyCards(const std::vector<CardIngest>& batch);
  /// Incremental index rollback of a failed ingest batch: removes the
  /// batch's BM25 docs and digest entries and truncates the ANN delta
  /// tail — O(batch), not O(lake). Caller holds mu_ exclusive.
  void RollbackBatchIndexesLocked(const std::vector<std::string>& ids,
                                  size_t pre_ann_ids, size_t pre_ann_delta);
  /// The mutation phase of an ingest (blobs, catalog docs, indices,
  /// graph). Runs under a journaled intent; any failure triggers
  /// rollback in IngestModelsLocked.
  Status ApplyIngest(const std::vector<IngestRequest>& batch,
                     const std::vector<std::string>& digests,
                     const std::vector<std::string>& artifact_bytes,
                     const std::vector<std::vector<float>>& embeddings);
  std::vector<std::string> ListModelsUnlocked() const;
  /// ListModelsUnlocked minus degraded ids — what search/query paths
  /// iterate so a quarantined model never surfaces in results.
  std::vector<std::string> SearchableModelIdsUnlocked() const;
  Result<std::unique_ptr<nn::Model>> LoadModelUnlocked(
      const std::string& id) const;
  /// id -> artifact digest via the in-memory map (catalog fallback).
  Result<std::string> DigestForUnlocked(const std::string& id) const;
  /// Digest -> decoded artifact through the artifact cache; the cache
  /// miss path is GetView (zero-copy) + ParseArtifact.
  Result<std::shared_ptr<const storage::ModelArtifact>> LoadArtifactUnlocked(
      const std::string& digest) const;
  Result<metadata::ModelCard> CardForUnlocked(const std::string& id) const;
  Result<std::vector<float>> EmbeddingForUnlocked(
      const std::string& id) const;
  Result<std::vector<std::pair<std::string, float>>> NearestModelsUnlocked(
      const std::vector<float>& query, size_t k) const;
  /// Maps raw ANN hits through ann_ids_, drops degraded ids, caps at k
  /// — the shared tail of NearestModelsUnlocked and the batch probe.
  std::vector<std::pair<std::string, float>> MapNeighborsUnlocked(
      const std::vector<index::Neighbor>& hits, size_t k) const;
  /// Drops degraded ids from BM25 hits and caps at k — the shared tail
  /// of KeywordScoresUnlocked and the batch probe.
  std::vector<std::pair<std::string, double>> MapTextHitsUnlocked(
      const std::vector<index::TextHit>& hits, size_t k) const;
  Result<std::vector<std::pair<std::string, double>>> KeywordScoresUnlocked(
      const std::string& text, size_t k) const;
  /// Lazily (re)computes the planner's catalog statistics for the
  /// current mutation epoch. Caller holds mu_ (shared suffices:
  /// stats_mu_ serializes the rebuild).
  search::SearchContext::CatalogStats StatsUnlocked() const;
  /// Parse-once plan-cache lookup for Query(). Caller holds mu_
  /// (shared suffices: plan_mu_ guards the map).
  Result<std::shared_ptr<const search::Query>> CachedPlanUnlocked(
      std::string_view mlql) const;
  Result<std::vector<std::pair<std::string, double>>> TrainedOnUnlocked(
      const std::string& dataset, double min_overlap) const;
  bool IsDescendantOfUnlocked(const std::string& id,
                              const std::string& ancestor) const;
  Result<std::vector<std::string>> DatasetShardsUnlocked(
      const std::string& name) const;
  Result<std::vector<search::RankedModel>> RelatedModelsUnlocked(
      const std::string& id, size_t k) const;
  /// Turns a model's mapped neighbors into RankedModels, skipping the
  /// model itself — the shared tail of RelatedModelsUnlocked and the
  /// batch probe (score = 1 - cosine distance).
  static std::vector<search::RankedModel> RelatedFromNeighbors(
      const std::string& id,
      const std::vector<std::pair<std::string, float>>& neighbors, size_t k);
  Result<double> EvaluateModelUnlocked(const std::string& id,
                                       const std::string& benchmark) const;

  LakeOptions options_;
  Fs* fs_ = nullptr;  ///< resolved from options_.fs; never null after Open
  std::unique_ptr<storage::BlobStore> blobs_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::unique_ptr<storage::IntentJournal> journal_;
  /// Ids whose artifact is quarantined. Maintained under the writer
  /// lock; loaded from catalog kind "degraded" on Open.
  std::set<std::string> degraded_;
  RecoveryReport recovery_;
  std::unique_ptr<embed::ModelEmbedder> embedder_;
  Tensor probes_;

  /// Read-path caches. Internally synchronized (per-shard mutexes), so
  /// shared-lock readers may populate them concurrently; mutable for
  /// exactly that reason. Keys are content digests, which makes stale
  /// entries impossible: the same digest always decodes to the same
  /// artifact, and deleting/re-ingesting a model id changes the digest
  /// the catalog points at, never the digest's meaning.
  mutable std::unique_ptr<
      storage::ShardedLruCache<std::string, storage::ModelArtifact>>
      artifact_cache_;
  mutable std::unique_ptr<
      storage::ShardedLruCache<std::string, std::vector<float>>>
      embedding_cache_;
  /// Hash of (embedder name, dim, probe config): the second half of the
  /// embedding-cache key, so lakes sharing a process never mix
  /// embeddings from different embedder configurations.
  std::string embedder_key_;
  /// model id -> artifact digest, maintained under the writer lock at
  /// ingest and rebuilt on Open; saves a catalog JSON parse on every
  /// load.
  std::map<std::string, std::string> digest_by_id_;

  /// Readers/writer lock over all lake state (see class comment).
  mutable std::shared_mutex mu_;

  std::unique_ptr<index::HnswIndex> ann_;
  std::vector<std::string> ann_ids_;  // ANN internal id -> model id
  index::InvertedIndex bm25_;
  std::unique_ptr<index::MinHashLsh> dataset_lsh_;

  versioning::ModelGraph graph_;
  std::map<std::string, nn::Dataset> benchmarks_;

  /// When non-zero, BeginIntentLocked journals at this seq with this
  /// epoch instead of assigning fresh ones — the replica apply path
  /// replaying a leader entry at its original log position. Only ever
  /// set under the exclusive lock for the duration of one apply.
  uint64_t forced_seq_ = 0;
  uint64_t forced_epoch_ = 0;

  /// Generation of the snapshot the current base segments came from
  /// (0 = built from the catalog, no snapshot loaded).
  uint64_t index_generation_ = 0;
  /// Bumped under the exclusive lock by every index-affecting mutation;
  /// a compaction pass aborts when the epoch moved under it. Atomic
  /// because the pass re-reads it after its lock-free build.
  std::atomic<uint64_t> mutation_epoch_{0};
  double last_compact_ms_ = 0.0;
  /// Mutation epoch and generation of the last pass this lake published
  /// (generation 0 = none yet): while both still hold, a pass would
  /// rebuild the same files, so CompactIndices skips it.
  uint64_t published_epoch_ = 0;
  uint64_t published_generation_ = 0;
  /// The manifest on disk, kept in memory: set where it is written or
  /// loaded, cleared where it is removed (nullopt = none, or one that
  /// failed to load).
  std::optional<IndexManifest> manifest_;
  /// Compaction pass outcomes since Open: published a generation,
  /// aborted because the epoch moved, skipped as a no-op. Atomic
  /// because a skip is counted under the shared lock.
  std::atomic<uint64_t> passes_published_{0};
  std::atomic<uint64_t> passes_aborted_{0};
  std::atomic<uint64_t> passes_skipped_{0};

  /// Background compactor, started lazily on the first trigger so
  /// small lakes never spawn a thread.
  std::thread compactor_;
  std::mutex compact_mu_;  // guards the request/stop flags below
  std::condition_variable compact_cv_;
  bool compact_requested_ = false;
  bool compact_stop_ = false;
  /// Serializes compaction passes (explicit calls vs the background
  /// thread) and seed installs, which write the same index directory.
  /// Taken before mu_.
  std::mutex compact_run_mu_;

  // ---- cost-based planner state (PR 7) ----

  /// Catalog statistics served to the MLQL planner, rebuilt lazily
  /// when the mutation epoch moves: one O(n) card scan per epoch, not
  /// per query. stats_mu_ serializes the rebuild; callers hold mu_
  /// shared, so the epoch they validate against cannot move under them.
  mutable std::mutex stats_mu_;
  mutable search::SearchContext::CatalogStats stats_cache_;
  mutable uint64_t stats_epoch_ = 0;
  mutable bool stats_valid_ = false;

  /// Parse-once MLQL plan cache: query text -> parsed AST, with the
  /// normalized AST rendering aliased to the same entry so formatting
  /// variants of one query share a plan. Entries are pure parses and
  /// can never be semantically stale; the cache is still cleared when
  /// the mutation epoch or snapshot generation moves (conservative
  /// hygiene, and it bounds growth alongside the entry cap).
  mutable std::mutex plan_mu_;
  mutable std::unordered_map<std::string,
                             std::shared_ptr<const search::Query>>
      plan_cache_;
  mutable uint64_t plan_epoch_ = 0;
  mutable uint64_t plan_generation_ = 0;
  mutable uint64_t plan_hits_ = 0;
  mutable uint64_t plan_misses_ = 0;
  /// The plan the executor chose for the most recent Query() (under
  /// plan_mu_; surfaced by PlannerStatsJson for /statsz).
  mutable std::string last_plan_;
};

}  // namespace mlake::core

#endif  // MLAKE_CORE_MODEL_LAKE_H_
