#ifndef MLAKE_CORE_REPLICATION_SEED_H_
#define MLAKE_CORE_REPLICATION_SEED_H_

// The replication seed (DESIGN.md §14): a leader's replicated state cut
// at one log seq, shipped as one MLSNAP01 container so an empty (or
// diverged) replica installs it instead of replaying the JSON op log.
//
// Sections (all integers little-endian, every section 8-byte aligned by
// the container):
//   meta        u64[9]  seq, epoch, index generation (0 = no index
//                       files), graph revision, record counts of the
//                       four replicated kinds, edge count
//   fingerprint 32 B    SHA-256 the replica's ReplicationFingerprint
//                       will read once the seed is installed
//   rec_id_off  u64[n+1], rec_ids   CSR table of record ids
//   rec_off     u64[n+1], rec_bytes CSR table of stored record bytes
//                       (grouped by kind in ReplicatedKinds() order,
//                       ids strictly increasing within a kind)
//   edge_off    u64[e+1], edge_json CSR table, one lineage edge as a
//                       small JSON object each
//   file_ann, file_bm25, file_lsh, file_ids
//                       the four snapshot files of the index generation
//                       the seed carries (present iff generation > 0)
//   crc         u32 per section above, in TOC order (the last section)
//
// Records travel as the leader's stored bytes, so the replica's
// maintained digests — and hence its fingerprint — equal the leader's
// by construction; no side builds a Json tree of the payload.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "index/snapshot.h"
#include "versioning/model_graph.h"

namespace mlake::core {

/// The catalog kinds that are replicated state, in fingerprint order.
/// Local-only kinds ("graph", "degraded", ...) are never digested.
const std::vector<std::string>& ReplicatedKinds();

/// SHA-256 over the per-kind digests (ReplicatedKinds() order) and the
/// lineage edge digest; its hex form is what
/// ModelLake::ReplicationFingerprint reports.
SetDigest::Hash Fingerprint(const std::vector<SetDigest>& kind_digests,
                            const SetDigest& edge_digest);
std::string FingerprintHex(const std::vector<SetDigest>& kind_digests,
                           const SetDigest& edge_digest);

/// The four index snapshot files of one generation, in the order the
/// seed sections (and IndexManifest) name them: ann, bm25, lsh, ids.
inline constexpr size_t kSeedIndexFiles = 4;

/// The largest seed a leader encodes: what server::HttpClient accepts
/// as one response body. A lake whose seed would be larger refuses it
/// (ResourceExhausted), and an empty replica replays the log instead.
inline constexpr size_t kMaxSeedBytes = size_t{256} << 20;

/// What a leader puts into a seed. Views must outlive EncodeSeed.
struct SeedContents {
  uint64_t seq = 0;
  uint64_t epoch = 0;
  /// Index generation of `index_files`; 0 = none ship.
  uint64_t generation = 0;
  uint64_t graph_revision = 0;
  /// One list per ReplicatedKinds() entry: (id, stored bytes), ids
  /// strictly increasing.
  std::vector<std::vector<std::pair<std::string_view, std::string_view>>>
      records;
  std::vector<versioning::VersionEdge> edges;
  std::array<std::string, kSeedIndexFiles> index_files;
  /// The fingerprint of exactly these records and edges (32 bytes).
  SetDigest::Hash fingerprint{};
};

/// Serializes a seed container.
Result<std::string> EncodeSeed(SeedContents contents);

/// A decoded seed whose every byte has been checked: section checksums,
/// table shapes, edge records, and the declared fingerprint against the
/// records and edges themselves. Views point into the reader's owned
/// copy of the container, so they live as long as the seed.
class ReplicationSeed {
 public:
  /// One record in stored form with its RecordHash.
  struct Record {
    std::string_view id;
    std::string_view bytes;
    SetDigest::Hash hash;
  };

  /// Decodes and verifies `bytes` (record hashing runs on `exec`).
  /// Anything malformed or inconsistent is a Corruption (or
  /// InvalidArgument) error; a seed that parses is exactly the state
  /// its fingerprint declares.
  static Result<ReplicationSeed> Parse(std::string_view bytes,
                                       const ExecutionContext& exec);

  uint64_t seq() const { return seq_; }
  uint64_t epoch() const { return epoch_; }
  uint64_t generation() const { return generation_; }
  uint64_t graph_revision() const { return graph_revision_; }
  /// Hex form, comparable with ModelLake::ReplicationFingerprint.
  const std::string& fingerprint() const { return fingerprint_; }

  /// Records of ReplicatedKinds()[kind], ids strictly increasing.
  const std::vector<Record>& records(size_t kind) const {
    return records_[kind];
  }
  const std::vector<versioning::VersionEdge>& edges() const { return edges_; }
  /// Bytes of index file `i` (ann, bm25, lsh, ids); empty when the seed
  /// carries no generation.
  std::string_view index_file(size_t i) const { return index_files_[i]; }

 private:
  index::SnapshotReader reader_;
  uint64_t seq_ = 0;
  uint64_t epoch_ = 0;
  uint64_t generation_ = 0;
  uint64_t graph_revision_ = 0;
  std::string fingerprint_;
  std::vector<std::vector<Record>> records_;
  std::vector<versioning::VersionEdge> edges_;
  std::array<std::string_view, kSeedIndexFiles> index_files_;
};

}  // namespace mlake::core

#endif  // MLAKE_CORE_REPLICATION_SEED_H_
