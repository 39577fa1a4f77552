#include "common/hash.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mlake {
namespace {

// Known-answer tests against published vectors.

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(
      Sha256::HexDigest(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(
      Sha256::HexDigest("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, NistTwoBlockMessage) {
  EXPECT_EQ(
      Sha256::HexDigest(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(
      Sha256::HexDigest(input),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data =
      "the quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways. 0123456789";
  // Feed in irregular chunk sizes (1, 2, 3, ... bytes).
  Sha256 hasher;
  size_t pos = 0, chunk = 1;
  while (pos < data.size()) {
    size_t take = std::min(chunk, data.size() - pos);
    hasher.Update(data.data() + pos, take);
    pos += take;
    chunk = (chunk % 17) + 1;
  }
  auto digest = hasher.Finish();
  EXPECT_EQ(ToHex(digest.data(), digest.size()),
            Sha256::HexDigest(data));
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 hasher;
  hasher.Update("abc");
  (void)hasher.Finish();
  hasher.Reset();
  hasher.Update("abc");
  auto digest = hasher.Finish();
  EXPECT_EQ(
      ToHex(digest.data(), digest.size()),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, PaddingBoundaries) {
  // Lengths around the 55/56/64-byte padding edges must all be distinct
  // and stable.
  std::string prev;
  for (size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u}) {
    std::string digest = Sha256::HexDigest(std::string(len, 'x'));
    EXPECT_EQ(digest.size(), 64u);
    EXPECT_NE(digest, prev);
    prev = digest;
  }
}

TEST(Crc32Test, KnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32(""), 0u); }

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data = "some payload worth protecting";
  uint32_t clean = Crc32(data);
  for (size_t byte = 0; byte < data.size(); byte += 5) {
    std::string corrupted = data;
    corrupted[byte] ^= 0x40;
    EXPECT_NE(Crc32(corrupted), clean) << "flip at byte " << byte;
  }
}

TEST(Fnv1aTest, KnownVectors) {
  // FNV-1a 64 published vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1aTest, SensitiveToOrder) {
  EXPECT_NE(Fnv1a64("ab"), Fnv1a64("ba"));
}

TEST(ToHexTest, Encodes) {
  uint8_t bytes[] = {0x00, 0x0f, 0xa5, 0xff};
  EXPECT_EQ(ToHex(bytes, 4), "000fa5ff");
  EXPECT_EQ(ToHex(bytes, 0), "");
}

TEST(SetDigestTest, AddThenRemoveIsEmpty) {
  SetDigest digest;
  SetDigest::Hash a = RecordHash("model", "m1", "{}");
  SetDigest::Hash b = RecordHash("card", "m1", "{\"x\":1}");
  digest.Add(a);
  digest.Add(b);
  EXPECT_NE(digest, SetDigest());
  digest.Remove(a);
  digest.Remove(b);
  EXPECT_EQ(digest, SetDigest());
  EXPECT_EQ(digest.bytes(), SetDigest::Hash{});
}

TEST(SetDigestTest, OrderIndependent) {
  std::vector<SetDigest::Hash> records;
  for (int i = 0; i < 20; ++i) {
    records.push_back(RecordHash("k", std::to_string(i), "v"));
  }
  SetDigest forward, backward;
  for (const auto& r : records) forward.Add(r);
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    backward.Add(*it);
  }
  EXPECT_EQ(forward, backward);
  backward.Remove(records[7]);
  EXPECT_NE(forward, backward);
}

TEST(SetDigestTest, CarriesAndBorrowsAcrossLimbs) {
  SetDigest::Hash all_ones;
  all_ones.fill(0xff);
  SetDigest::Hash one{};
  one[0] = 1;
  // (2^256 - 1) + 1 wraps to zero, carrying through every limb.
  SetDigest digest;
  digest.Add(all_ones);
  digest.Add(one);
  EXPECT_EQ(digest, SetDigest());
  // 0 - 1 borrows through every limb back to 2^256 - 1.
  digest.Remove(one);
  EXPECT_EQ(digest.bytes(), all_ones);
  // 2^64 (carry into limb 1) minus 1 leaves limb 0 all ones.
  SetDigest::Hash low_ones{};
  for (int i = 0; i < 8; ++i) low_ones[i] = 0xff;
  SetDigest limb;
  limb.Add(low_ones);
  limb.Add(one);
  SetDigest::Hash expected{};
  expected[8] = 1;
  EXPECT_EQ(limb.bytes(), expected);
  limb.Remove(one);
  EXPECT_EQ(limb.bytes(), low_ones);
}

TEST(RecordHashTest, FieldsAreLengthPrefixed) {
  // Moving a byte across a field boundary must change the hash.
  EXPECT_NE(RecordHash("ab", "c", ""), RecordHash("a", "bc", ""));
  EXPECT_NE(RecordHash("a", "", "b"), RecordHash("a", "b", ""));
  EXPECT_EQ(RecordHash("a", "b", "c"), RecordHash("a", "b", "c"));
}

}  // namespace
}  // namespace mlake
