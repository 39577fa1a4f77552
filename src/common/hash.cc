#include "common/hash.h"

#include <bit>
#include <cstring>

namespace mlake {

uint64_t Fnv1a64(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Fnv1a64(std::string_view s) { return Fnv1a64(s.data(), s.size()); }

namespace {

/// Slicing-by-8 tables: entries[0] is the classic byte-at-a-time table;
/// entries[k][b] is the CRC of byte b followed by k zero bytes, so one
/// step folds eight input bytes with eight independent lookups.
struct Crc32Table {
  uint32_t entries[8][256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      entries[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xFF] ^ (prev >> 8);
      }
    }
  }
};

const Crc32Table& GetCrc32Table() {
  static const Crc32Table* table = new Crc32Table();
  return *table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  const auto& t = GetCrc32Table().entries;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = 0xFFFFFFFFu;
  // Byte steps up to an 8-byte boundary, then eight bytes per step
  // (two little-endian words; the CRC is reflected, so the low word
  // absorbs the running state), then the tail byte by byte.
  while (len > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    c = t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
    --len;
  }
  while (len >= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    if constexpr (std::endian::native == std::endian::big) {
      lo = __builtin_bswap32(lo);
      hi = __builtin_bswap32(hi);
    }
    lo ^= c;
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    c = t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
    --len;
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(std::string_view s) { return Crc32(s.data(), s.size()); }

namespace {

constexpr uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

Sha256::Sha256() { Reset(); }

void Sha256::Reset() {
  static constexpr uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  std::memcpy(h_, kInit, sizeof(h_));
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::ProcessBlock(const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += h;
}

void Sha256::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    size_t need = 64 - buffer_len_;
    size_t take = len < need ? len : need;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == 64) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    ProcessBlock(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

std::array<uint8_t, 32> Sha256::Finish() {
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad = 0x80;
  Update(&pad, 1);
  uint8_t zero = 0;
  while (buffer_len_ != 56) {
    Update(&zero, 1);
  }
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  // Bypass total_len_ accounting for the length suffix.
  std::memcpy(buffer_ + 56, len_bytes, 8);
  ProcessBlock(buffer_);
  buffer_len_ = 0;

  std::array<uint8_t, 32> digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return digest;
}

std::string Sha256::HexDigest(std::string_view data) {
  return HexDigest(data.data(), data.size());
}

std::string Sha256::HexDigest(const void* data, size_t len) {
  Sha256 hasher;
  hasher.Update(data, len);
  auto digest = hasher.Finish();
  return ToHex(digest.data(), digest.size());
}

namespace {

uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

void SetDigest::Add(const Hash& record) {
  uint64_t carry = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t x = LoadLe64(record.data() + 8 * i);
    uint64_t sum = limbs_[i] + x;
    uint64_t carry_out = sum < x ? 1 : 0;
    limbs_[i] = sum + carry;
    carry_out |= limbs_[i] < sum ? 1 : 0;
    carry = carry_out;
  }
}

void SetDigest::Remove(const Hash& record) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t x = LoadLe64(record.data() + 8 * i);
    uint64_t diff = limbs_[i] - x;
    uint64_t borrow_out = limbs_[i] < x ? 1 : 0;
    borrow_out |= diff < borrow ? 1 : 0;
    limbs_[i] = diff - borrow;
    borrow = borrow_out;
  }
}

SetDigest::Hash SetDigest::bytes() const {
  Hash out;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    for (size_t b = 0; b < 8; ++b) {
      out[8 * i + b] = static_cast<uint8_t>(limbs_[i] >> (8 * b));
    }
  }
  return out;
}

SetDigest::Hash RecordHash(std::string_view kind, std::string_view id,
                           std::string_view bytes) {
  Sha256 hasher;
  for (std::string_view field : {kind, id, bytes}) {
    uint8_t len[8];
    for (size_t b = 0; b < 8; ++b) {
      len[b] = static_cast<uint8_t>(static_cast<uint64_t>(field.size()) >>
                                    (8 * b));
    }
    hasher.Update(len, sizeof(len));
    hasher.Update(field);
  }
  return hasher.Finish();
}

std::string ToHex(const uint8_t* data, size_t len) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(len * 2);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xF]);
  }
  return out;
}

}  // namespace mlake
