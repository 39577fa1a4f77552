// Reference implementation of the lake's replication digests: the
// same algebra as SetDigest / RecordHash in common/hash.h, written
// independently (hand-built length prefixes, byte-wise carries), so a
// bug in the maintained digests cannot hide behind a shared
// implementation. Only SHA-256 itself is shared; hash_test pins it to
// published vectors.

#ifndef MLAKE_TESTS_DIGEST_REFERENCE_H_
#define MLAKE_TESTS_DIGEST_REFERENCE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"

namespace mlake::digest_reference {

using Bytes32 = std::array<uint8_t, 32>;

inline Bytes32 Sha(std::string_view data) {
  Sha256 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

/// 8-byte little-endian length, then the bytes.
inline std::string LengthPrefixed(std::string_view field) {
  std::string out;
  uint64_t n = field.size();
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((n >> (8 * i)) & 0xff));
  }
  out.append(field);
  return out;
}

inline Bytes32 Record(std::string_view kind, std::string_view id,
                      std::string_view bytes) {
  return Sha(LengthPrefixed(kind) + LengthPrefixed(id) +
             LengthPrefixed(bytes));
}

/// Sum modulo 2^256 of little-endian 32-byte numbers.
inline Bytes32 Sum(const std::vector<Bytes32>& terms) {
  Bytes32 acc{};
  for (const Bytes32& term : terms) {
    unsigned carry = 0;
    for (size_t i = 0; i < acc.size(); ++i) {
      unsigned s = unsigned{acc[i]} + unsigned{term[i]} + carry;
      acc[i] = static_cast<uint8_t>(s & 0xff);
      carry = s >> 8;
    }
  }
  return acc;
}

}  // namespace mlake::digest_reference

#endif  // MLAKE_TESTS_DIGEST_REFERENCE_H_
