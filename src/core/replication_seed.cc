#include "core/replication_seed.h"

#include <cstring>
#include <utility>

#include "common/json.h"

namespace mlake::core {

namespace {

constexpr size_t kMetaWords = 9;
const char* const kFileSections[kSeedIndexFiles] = {"file_ann", "file_bm25",
                                                    "file_lsh", "file_ids"};

/// Flattens `n` items into a CSR table: offsets (u64, n + 1), bytes.
template <typename Get>
std::pair<std::vector<uint64_t>, std::string> Table(size_t n, Get get) {
  std::vector<uint64_t> off(n + 1, 0);
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) total += get(i).size();
  std::string bytes;
  bytes.reserve(total);
  for (size_t i = 0; i < n; ++i) {
    std::string_view item = get(i);
    bytes.append(item.data(), item.size());
    off[i + 1] = bytes.size();
  }
  return {std::move(off), std::move(bytes)};
}

/// Reads a CSR table back as views; Corruption unless the offsets start
/// at 0, never decrease and end at the byte count.
Result<std::vector<std::string_view>> ReadTable(
    const index::SnapshotReader& reader, const char* off_name,
    const char* bytes_name, size_t n) {
  MLAKE_ASSIGN_OR_RETURN(auto off, reader.Array<uint64_t>(off_name));
  MLAKE_ASSIGN_OR_RETURN(std::string_view bytes, reader.Section(bytes_name));
  if (off.second != n + 1 || off.first[0] != 0 ||
      off.first[n] != bytes.size()) {
    return Status::Corruption(std::string("seed table malformed: ") +
                              off_name);
  }
  std::vector<std::string_view> items(n);
  for (size_t i = 0; i < n; ++i) {
    if (off.first[i + 1] < off.first[i]) {
      return Status::Corruption(std::string("seed table offsets decrease: ") +
                                off_name);
    }
    items[i] = bytes.substr(static_cast<size_t>(off.first[i]),
                            static_cast<size_t>(off.first[i + 1] -
                                                off.first[i]));
  }
  return items;
}

Json EdgeToJson(const versioning::VersionEdge& e) {
  Json j = Json::MakeObject();
  j.Set("parent", e.parent);
  j.Set("child", e.child);
  j.Set("type", std::string(versioning::EdgeTypeToString(e.type)));
  j.Set("confidence", e.confidence);
  if (!e.params.is_null()) j.Set("params", e.params);
  return j;
}

Result<versioning::VersionEdge> EdgeFromJson(std::string_view text) {
  MLAKE_ASSIGN_OR_RETURN(Json j, Json::Parse(text));
  if (!j.is_object()) return Status::Corruption("seed edge: not an object");
  versioning::VersionEdge edge;
  edge.parent = j.GetString("parent");
  edge.child = j.GetString("child");
  if (edge.parent.empty() || edge.child.empty()) {
    return Status::Corruption("seed edge: missing endpoint");
  }
  auto type = versioning::EdgeTypeFromString(j.GetString("type"));
  if (!type.ok()) return Status::Corruption(type.status().message());
  edge.type = type.ValueUnsafe();
  edge.confidence = j.GetDouble("confidence", 1.0);
  if (const Json* params = j.Find("params")) edge.params = *params;
  return edge;
}

}  // namespace

const std::vector<std::string>& ReplicatedKinds() {
  static const std::vector<std::string> kinds = {"model", "card",
                                                 "embedding", "dataset"};
  return kinds;
}

SetDigest::Hash Fingerprint(const std::vector<SetDigest>& kind_digests,
                            const SetDigest& edge_digest) {
  Sha256 hasher;
  for (const SetDigest& digest : kind_digests) {
    SetDigest::Hash bytes = digest.bytes();
    hasher.Update(bytes.data(), bytes.size());
  }
  SetDigest::Hash edges = edge_digest.bytes();
  hasher.Update(edges.data(), edges.size());
  return hasher.Finish();
}

std::string FingerprintHex(const std::vector<SetDigest>& kind_digests,
                           const SetDigest& edge_digest) {
  SetDigest::Hash out = Fingerprint(kind_digests, edge_digest);
  return ToHex(out.data(), out.size());
}

Result<std::string> EncodeSeed(SeedContents contents) {
  const size_t kinds = ReplicatedKinds().size();
  if (contents.records.size() != kinds) {
    return Status::InvalidArgument("seed needs one record list per kind");
  }
  index::SnapshotWriter writer(index::SnapshotKind::kReplicationSeed,
                               contents.seq);
  // Per-section checksums (the container's own CRC covers only its
  // TOC), collected in section order for the closing "crc" section.
  std::vector<uint32_t> crcs;
  auto add = [&](const char* name, std::string data) {
    crcs.push_back(Crc32(data));
    writer.AddSection(name, std::move(data));
  };
  auto add_offsets = [&](const char* name, const std::vector<uint64_t>& v) {
    add(name, std::string(reinterpret_cast<const char*>(v.data()),
                          v.size() * sizeof(uint64_t)));
  };

  std::vector<uint64_t> meta = {contents.seq, contents.epoch,
                                contents.generation, contents.graph_revision};
  std::vector<std::pair<std::string_view, std::string_view>> all;
  for (const auto& list : contents.records) {
    meta.push_back(list.size());
    all.insert(all.end(), list.begin(), list.end());
  }
  meta.push_back(contents.edges.size());
  add_offsets("meta", meta);
  add("fingerprint",
      std::string(reinterpret_cast<const char*>(contents.fingerprint.data()),
                  contents.fingerprint.size()));
  auto ids = Table(all.size(), [&](size_t i) { return all[i].first; });
  add_offsets("rec_id_off", ids.first);
  add("rec_ids", std::move(ids.second));
  auto docs = Table(all.size(), [&](size_t i) { return all[i].second; });
  add_offsets("rec_off", docs.first);
  add("rec_bytes", std::move(docs.second));
  std::vector<std::string> edge_json(contents.edges.size());
  for (size_t i = 0; i < edge_json.size(); ++i) {
    edge_json[i] = EdgeToJson(contents.edges[i]).Dump();
  }
  auto edges = Table(edge_json.size(), [&](size_t i) {
    return std::string_view(edge_json[i]);
  });
  add_offsets("edge_off", edges.first);
  add("edge_json", std::move(edges.second));
  if (contents.generation > 0) {
    for (size_t i = 0; i < kSeedIndexFiles; ++i) {
      add(kFileSections[i], std::move(contents.index_files[i]));
    }
  }
  writer.AddArray("crc", crcs);
  return writer.Serialize();
}

Result<ReplicationSeed> ReplicationSeed::Parse(std::string_view bytes,
                                               const ExecutionContext& exec) {
  ReplicationSeed seed;
  MLAKE_ASSIGN_OR_RETURN(
      seed.reader_,
      index::SnapshotReader::FromBytes(bytes,
                                       index::SnapshotKind::kReplicationSeed));
  const index::SnapshotReader& reader = seed.reader_;

  // 1. Every section against its checksum; "crc" is the last section.
  const std::vector<std::string> names = reader.SectionNames();
  if (names.empty() || names.back() != "crc") {
    return Status::Corruption("seed: checksum section missing");
  }
  MLAKE_ASSIGN_OR_RETURN(auto crcs, reader.Array<uint32_t>("crc"));
  if (crcs.second != names.size() - 1) {
    return Status::Corruption("seed: checksum count mismatch");
  }
  for (size_t i = 0; i + 1 < names.size(); ++i) {
    MLAKE_ASSIGN_OR_RETURN(std::string_view section, reader.Section(names[i]));
    if (Crc32(section) != crcs.first[i]) {
      return Status::Corruption("seed: checksum mismatch in section " +
                                names[i]);
    }
  }

  // 2. Shapes.
  MLAKE_ASSIGN_OR_RETURN(auto meta, reader.Array<uint64_t>("meta"));
  const size_t kinds = ReplicatedKinds().size();
  if (meta.second != kMetaWords) {
    return Status::Corruption("seed: meta malformed");
  }
  seed.seq_ = meta.first[0];
  seed.epoch_ = meta.first[1];
  seed.generation_ = meta.first[2];
  seed.graph_revision_ = meta.first[3];
  if (reader.generation() != seed.seq_) {
    return Status::Corruption("seed: header seq disagrees with meta");
  }
  uint64_t total = 0;
  for (size_t k = 0; k < kinds; ++k) {
    if (meta.first[4 + k] > bytes.size()) {
      return Status::Corruption("seed: record count out of range");
    }
    total += meta.first[4 + k];
  }
  const uint64_t n_edges = meta.first[4 + kinds];
  if (total > bytes.size() || n_edges > bytes.size()) {
    return Status::Corruption("seed: count out of range");
  }
  MLAKE_ASSIGN_OR_RETURN(std::string_view declared,
                         reader.Section("fingerprint"));
  if (declared.size() != 32) {
    return Status::Corruption("seed: fingerprint malformed");
  }
  MLAKE_ASSIGN_OR_RETURN(
      std::vector<std::string_view> ids,
      ReadTable(reader, "rec_id_off", "rec_ids", static_cast<size_t>(total)));
  MLAKE_ASSIGN_OR_RETURN(
      std::vector<std::string_view> docs,
      ReadTable(reader, "rec_off", "rec_bytes", static_cast<size_t>(total)));
  MLAKE_ASSIGN_OR_RETURN(
      std::vector<std::string_view> edge_texts,
      ReadTable(reader, "edge_off", "edge_json", static_cast<size_t>(n_edges)));
  for (size_t i = 0; i < kSeedIndexFiles; ++i) {
    const bool present = reader.HasSection(kFileSections[i]);
    if (present != (seed.generation_ > 0)) {
      return Status::Corruption("seed: index files disagree with generation");
    }
    if (present) {
      MLAKE_ASSIGN_OR_RETURN(seed.index_files_[i],
                             reader.Section(kFileSections[i]));
    }
  }

  // 3. Records: grouped by kind, ids non-empty and strictly increasing.
  seed.records_.resize(kinds);
  size_t cursor = 0;
  for (size_t k = 0; k < kinds; ++k) {
    const size_t n = static_cast<size_t>(meta.first[4 + k]);
    std::vector<Record>& list = seed.records_[k];
    list.resize(n);
    for (size_t i = 0; i < n; ++i, ++cursor) {
      if (ids[cursor].empty() || (i > 0 && ids[cursor] <= list[i - 1].id)) {
        return Status::Corruption("seed: record ids not strictly increasing");
      }
      list[i].id = ids[cursor];
      list[i].bytes = docs[cursor];
    }
  }
  // Edges must form a graph AddEdge accepts (no duplicate, self-loop or
  // cycle), so installing them cannot fail halfway.
  versioning::ModelGraph lineage;
  seed.edges_.reserve(edge_texts.size());
  for (std::string_view text : edge_texts) {
    MLAKE_ASSIGN_OR_RETURN(versioning::VersionEdge edge, EdgeFromJson(text));
    Status added = lineage.AddEdge(edge);
    if (!added.ok()) return Status::Corruption("seed: " + added.message());
    seed.edges_.push_back(std::move(edge));
  }

  // 4. The declared fingerprint must be the records' and edges' own.
  std::vector<SetDigest> kind_digests(kinds);
  for (size_t k = 0; k < kinds; ++k) {
    std::vector<Record>& list = seed.records_[k];
    const std::string& kind = ReplicatedKinds()[k];
    MLAKE_RETURN_NOT_OK(ParallelFor(exec, 0, list.size(), [&](size_t i) {
      list[i].hash = RecordHash(kind, list[i].id, list[i].bytes);
    }));
    for (const Record& record : list) kind_digests[k].Add(record.hash);
  }
  seed.fingerprint_ = FingerprintHex(kind_digests, lineage.edge_digest());
  if (seed.fingerprint_ !=
      ToHex(reinterpret_cast<const uint8_t*>(declared.data()), 32)) {
    return Status::Corruption("seed: contents do not match its fingerprint");
  }
  return seed;
}

}  // namespace mlake::core
