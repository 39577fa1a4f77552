#include "governance/governance.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace mlake::governance {

Json GovernanceStats::ToJson() const {
  Json out = Json::MakeObject();
  out.Set("citations", Json(citations.load()));
  out.Set("docs", Json(docs.load()));
  out.Set("audits", Json(audits.load()));
  out.Set("exports", Json(exports.load()));
  out.Set("export_records", Json(export_records.load()));
  out.Set("export_bytes", Json(export_bytes.load()));
  out.Set("export_not_modified", Json(export_not_modified.load()));
  out.Set("stale_rejected", Json(stale_rejected.load()));
  return out;
}

std::string ExportEtag(uint64_t mutation_epoch, uint64_t index_generation) {
  return StrFormat("\"%llu-%llu\"",
                   static_cast<unsigned long long>(mutation_epoch),
                   static_cast<unsigned long long>(index_generation));
}

int RetryAfterSeconds(uint64_t lag_entries, int batch_max,
                      int poll_interval_ms) {
  if (batch_max <= 0) batch_max = 1;
  if (poll_interval_ms <= 0) poll_interval_ms = 1000;
  // Polls needed to drain the lag, times the poll cadence, rounded up
  // to whole seconds.
  uint64_t polls =
      (lag_entries + static_cast<uint64_t>(batch_max) - 1) /
      static_cast<uint64_t>(batch_max);
  uint64_t ms = polls * static_cast<uint64_t>(poll_interval_ms);
  uint64_t seconds = (ms + 999) / 1000;
  if (seconds < 1) seconds = 1;
  if (seconds > 30) seconds = 30;
  return static_cast<int>(seconds);
}

Result<Json> GeneratedDoc(const core::ModelLake& lake,
                          const std::string& id) {
  MLAKE_ASSIGN_OR_RETURN(metadata::ModelCard card, lake.GenerateCard(id));
  Json doc = Json::MakeObject();
  doc.Set("schema", std::string("mlake.modeldoc"));
  doc.Set("schema_version", kSchemaVersion);
  doc.Set("model_id", id);
  doc.Set("degraded", lake.IsDegraded(id));
  doc.Set("card", card.ToJson());
  if (auto lineage = lake.Lineage(id); lineage.ok()) {
    doc.Set("lineage", lineage.MoveValueUnsafe());
  }
  // The audit section is the doc's provenance evidence: artifact
  // integrity, lineage-claim consistency, documentation coverage.
  if (auto audit = lake.AuditModel(id); audit.ok()) {
    doc.Set("audit", audit.MoveValueUnsafe());
  }
  return doc;
}

Result<Json> AuditDoc(const core::ModelLake& lake, const std::string& id) {
  MLAKE_ASSIGN_OR_RETURN(Json report, lake.AuditModel(id));
  Json doc = Json::MakeObject();
  doc.Set("schema", std::string("mlake.audit"));
  doc.Set("schema_version", kSchemaVersion);
  doc.Set("model_id", id);
  doc.Set("quarantined", report.GetBool("quarantined", false));
  doc.Set("degraded", lake.IsDegraded(id));
  doc.Set("passes", report.GetBool("passes", false));
  doc.Set("report", std::move(report));
  return doc;
}

std::function<bool(std::string*)> MakeExportStreamer(
    std::shared_ptr<core::ModelLake::ExportIterator> iterator,
    GovernanceStats* stats, size_t chunk_bytes) {
  return [iterator, stats, chunk_bytes](std::string* chunk) {
    chunk->clear();
    std::string line;
    size_t records = 0;
    while (chunk->size() < chunk_bytes && iterator->Next(&line)) {
      chunk->append(line);
      ++records;
    }
    if (stats != nullptr && records > 0) {
      stats->export_records.fetch_add(records, std::memory_order_relaxed);
      stats->export_bytes.fetch_add(chunk->size(),
                                    std::memory_order_relaxed);
    }
    return !chunk->empty();
  };
}

}  // namespace mlake::governance
