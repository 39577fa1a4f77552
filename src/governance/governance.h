#ifndef MLAKE_GOVERNANCE_GOVERNANCE_H_
#define MLAKE_GOVERNANCE_GOVERNANCE_H_

// The governance layer (DESIGN.md §15): the paper's §6 applications —
// citation, documentation generation, auditing — plus a machine-
// readable whole-lake metadata export, shaped as online services.
//
// The split with core: ModelLake contributes the shared-lock
// primitives (CitationDoc, OpenExport, AuditModel, GenerateCard,
// Lineage), this library the service documents built from them —
// schema-versioned JSON envelopes, the streaming export adapter the
// HTTP layer pumps, the ETag change key, the replica-staleness
// Retry-After policy, and the GovernanceStats counters /statsz shows.
// mlaked's handlers stay thin transcoders over these.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/json.h"
#include "common/result.h"
#include "core/model_lake.h"

namespace mlake::governance {

/// Schema version stamped on every governance document. Policy (see
/// DESIGN.md §15): additive fields do not bump it; removing or
/// renaming a field, or changing record ordering, does.
inline constexpr int64_t kSchemaVersion = 1;

/// Counters behind the "governance" block of /statsz. Internally
/// atomic: handlers on different connections bump them concurrently.
struct GovernanceStats {
  std::atomic<uint64_t> citations{0};
  std::atomic<uint64_t> docs{0};
  std::atomic<uint64_t> audits{0};
  std::atomic<uint64_t> exports{0};
  std::atomic<uint64_t> export_records{0};
  std::atomic<uint64_t> export_bytes{0};
  /// /v1/export answered 304 off the ETag, no iterator opened.
  std::atomic<uint64_t> export_not_modified{0};
  /// Governance reads rejected with 503 because this replica's
  /// watermark lagged the leader (satellite: no silent staleness).
  std::atomic<uint64_t> stale_rejected{0};

  Json ToJson() const;
};

/// The /v1/export entity tag: a strong ETag over the lake's change key
/// (mutation_epoch, index_generation). Every content mutation moves
/// the epoch (lineage edges included — see RecordEdgeLocked), so an
/// unchanged tag implies an unchanged export body.
std::string ExportEtag(uint64_t mutation_epoch, uint64_t index_generation);

/// How long a stale replica tells a governance client to back off:
/// the time to drain `lag_entries` at the pull cadence (batches of
/// `batch_max` every `poll_interval_ms`), rounded up, clamped to
/// [1, 30] seconds. A replica that has never completed a poll passes
/// lag 0 with caught_up false and gets the 1s floor.
int RetryAfterSeconds(uint64_t lag_entries, int batch_max,
                      int poll_interval_ms);

/// Generated documentation for one model (GET /v1/models/{id}/doc):
/// the synthesized card (GenerateCard — catalog metadata, graph
/// lineage, probe-inferred task/datasets, benchmark metrics), the
/// recorded lineage edges, and the audit evidence, in one envelope.
/// Each section reflects the same lake but is computed in its own
/// critical section; the envelope is advisory documentation, not a
/// transactional snapshot.
Result<Json> GeneratedDoc(const core::ModelLake& lake, const std::string& id);

/// Audit document for one model (GET /v1/audit/{id}): AuditModel's
/// evidence-backed questionnaire in the governance envelope, with the
/// quarantine flag surfaced at the top level.
Result<Json> AuditDoc(const core::ModelLake& lake, const std::string& id);

/// Wraps a lake export iterator as the pull callback the HTTP layer's
/// chunked writer pumps: each call packs whole NDJSON records up to
/// ~`chunk_bytes` into `*chunk` and returns false when the export is
/// done. Owns the iterator (and so the lake's shared lock) until the
/// callback is destroyed; counts records/bytes into `stats` when
/// non-null. Memory stays O(chunk), never O(lake).
std::function<bool(std::string*)> MakeExportStreamer(
    std::shared_ptr<core::ModelLake::ExportIterator> iterator,
    GovernanceStats* stats, size_t chunk_bytes = size_t{64} << 10);

}  // namespace mlake::governance

#endif  // MLAKE_GOVERNANCE_GOVERNANCE_H_
