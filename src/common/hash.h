#ifndef MLAKE_COMMON_HASH_H_
#define MLAKE_COMMON_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mlake {

/// FNV-1a 64-bit hash; used for cheap in-memory hashing (index buckets,
/// minhash base permutations). Not collision-resistant.
uint64_t Fnv1a64(const void* data, size_t len);
uint64_t Fnv1a64(std::string_view s);

/// CRC-32 (IEEE polynomial, reflected). Used for per-section integrity
/// checks in the model artifact format and the log-structured KV store.
uint32_t Crc32(const void* data, size_t len);
uint32_t Crc32(std::string_view s);

/// Incremental SHA-256. Used for content addressing in the blob store:
/// a model artifact's identity is the digest of its bytes.
class Sha256 {
 public:
  Sha256();

  /// Absorbs `len` bytes.
  void Update(const void* data, size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }

  /// Finalizes and returns the 32-byte digest. The object must not be
  /// updated afterwards; call Reset() to reuse.
  std::array<uint8_t, 32> Finish();

  void Reset();

  /// One-shot convenience returning a lowercase hex digest.
  static std::string HexDigest(std::string_view data);
  static std::string HexDigest(const void* data, size_t len);

 private:
  void ProcessBlock(const uint8_t* block);

  uint32_t h_[8];
  uint8_t buffer_[64];
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
};

/// Order-independent digest of a multiset of records: the sum, modulo
/// 2^256, of every record's 32-byte hash. Inserting a record adds its
/// hash and erasing one subtracts it, so a digest kept in step with a
/// set costs O(record) per mutation and always equals the digest built
/// anew over the same records, in any order. It is a fault
/// detector, not an authenticator: someone who picks the records can
/// make two sets collide.
class SetDigest {
 public:
  using Hash = std::array<uint8_t, 32>;

  void Add(const Hash& record);
  void Remove(const Hash& record);

  /// The sum as 32 little-endian bytes (all zero for the empty set).
  Hash bytes() const;

  bool operator==(const SetDigest& other) const {
    return limbs_ == other.limbs_;
  }
  bool operator!=(const SetDigest& other) const { return !(*this == other); }

 private:
  std::array<uint64_t, 4> limbs_{};  // little-endian 64-bit limbs
};

/// SHA-256 over length-prefixed (kind, id, bytes): the per-record hash
/// that SetDigest combines.
SetDigest::Hash RecordHash(std::string_view kind, std::string_view id,
                           std::string_view bytes);

/// Lowercase hex encoding of a byte buffer.
std::string ToHex(const uint8_t* data, size_t len);

}  // namespace mlake

#endif  // MLAKE_COMMON_HASH_H_
