// Property tests for the JSON codec: randomly generated documents must
// survive dump -> parse -> dump round trips (both compact and pretty),
// random byte mutations of valid documents must never crash the
// parser (they may parse or fail cleanly, but must not abort), and the
// number codec must agree with the printf/strtod reference on random
// doubles and random number-shaped tokens.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/json.h"
#include "common/random.h"
#include "common/string_util.h"
#include "json_number_reference.h"

namespace mlake {
namespace {

/// Generates a random JSON value with bounded depth/size.
Json RandomJson(Rng* rng, int depth) {
  double dice = rng->NextDouble();
  if (depth <= 0 || dice < 0.35) {
    // Scalar.
    switch (rng->NextBelow(4)) {
      case 0:
        return Json(nullptr);
      case 1:
        return Json(rng->Bernoulli(0.5));
      case 2: {
        // Mix integers and awkward doubles.
        if (rng->Bernoulli(0.5)) {
          return Json(rng->UniformInt(-1000000, 1000000));
        }
        return Json(rng->Uniform(-1e6, 1e6));
      }
      default: {
        // Strings with escapes and control characters.
        std::string s;
        size_t len = rng->NextBelow(20);
        for (size_t i = 0; i < len; ++i) {
          static const char kAlphabet[] =
              "abcXYZ 019\"\\\n\t\r\x01\x1f/\xc3\xa9";
          s.push_back(kAlphabet[rng->NextBelow(sizeof(kAlphabet) - 1)]);
        }
        return Json(std::move(s));
      }
    }
  }
  if (dice < 0.68) {
    Json arr = Json::MakeArray();
    size_t n = rng->NextBelow(5);
    for (size_t i = 0; i < n; ++i) {
      arr.Append(RandomJson(rng, depth - 1));
    }
    return arr;
  }
  Json obj = Json::MakeObject();
  size_t n = rng->NextBelow(5);
  for (size_t i = 0; i < n; ++i) {
    obj.Set(StrFormat("k%zu", i), RandomJson(rng, depth - 1));
  }
  return obj;
}

/// The bytes Json's number scanner consumes.
constexpr char kNumberBytes[] = "0123456789+-.eE";

bool HasInfinity(const Json& doc) {
  if (doc.is_number()) return std::isinf(doc.AsDouble());
  if (doc.is_array()) {
    for (const Json& v : doc.AsArray()) {
      if (HasInfinity(v)) return true;
    }
  }
  if (doc.is_object()) {
    for (const auto& [k, v] : doc.AsObject()) {
      if (HasInfinity(v)) return true;
    }
  }
  return false;
}

class JsonRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonRoundTripTest, RandomDocumentsRoundTrip) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    Json doc = RandomJson(&rng, 4);
    // Compact round trip.
    auto compact = Json::Parse(doc.Dump());
    ASSERT_TRUE(compact.ok()) << doc.Dump();
    ASSERT_TRUE(compact.ValueUnsafe() == doc) << doc.Dump();
    // Pretty round trip.
    auto pretty = Json::Parse(doc.Dump(2));
    ASSERT_TRUE(pretty.ok());
    ASSERT_TRUE(pretty.ValueUnsafe() == doc);
    // Idempotence: dump(parse(dump(x))) == dump(x).
    ASSERT_EQ(compact.ValueUnsafe().Dump(), doc.Dump());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripTest,
                         ::testing::Values(11, 22, 33));

TEST(JsonFuzzTest, MutatedDocumentsNeverCrash) {
  Rng rng(7);
  size_t parsed_ok = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string text = RandomJson(&rng, 3).Dump();
    // Apply 1-4 random byte mutations.
    size_t mutations = rng.NextBelow(4) + 1;
    for (size_t m = 0; m < mutations && !text.empty(); ++m) {
      size_t pos = rng.NextBelow(text.size());
      switch (rng.NextBelow(5)) {
        case 0:
          text[pos] = static_cast<char>(rng.NextBelow(256));
          break;
        case 1:
          text.erase(pos, 1);
          break;
        case 2:
          text.insert(pos, 1, static_cast<char>(rng.NextBelow(128)));
          break;
        case 3:
          // Number-targeted: overwrite with a byte the number scanner
          // takes, so tokens like "1e+-5", "-.", "1.2.3" get exercised.
          text[pos] = kNumberBytes[rng.NextBelow(sizeof(kNumberBytes) - 1)];
          break;
        default:
          text.insert(pos, 1,
                      kNumberBytes[rng.NextBelow(sizeof(kNumberBytes) - 1)]);
      }
    }
    auto parsed = Json::Parse(text);
    if (parsed.ok()) {
      ++parsed_ok;
      // Whatever parsed must round trip.
      auto again = Json::Parse(parsed.ValueUnsafe().Dump());
      ASSERT_TRUE(again.ok());
      if (HasInfinity(parsed.ValueUnsafe())) {
        // An out-of-range literal (1e400) parses to an infinity, as with
        // strtod, and infinities dump as null: only the dump is fixed.
        ASSERT_EQ(again.ValueUnsafe().Dump(), parsed.ValueUnsafe().Dump());
      } else {
        ASSERT_TRUE(again.ValueUnsafe() == parsed.ValueUnsafe());
      }
    } else {
      ++rejected;
      EXPECT_TRUE(parsed.status().IsCorruption());
    }
  }
  // Sanity: the fuzz actually exercised both paths.
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_GT(rejected, 0u);
}

/// A double from uniformly random bits: every exponent, subnormals,
/// and (rarely) NaN or infinity.
double RandomBitsDouble(Rng* rng) {
  uint64_t bits = rng->NextU64();
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

class JsonNumberCodecTest : public ::testing::TestWithParam<uint64_t> {};

// Dumped bytes equal the printf reference bytes, and parse back to the
// same bits (and to the strtod value of those bytes), over random bit
// patterns, small integers and float-widened values (the lake's
// embeddings are floats widened to double).
TEST_P(JsonNumberCodecTest, DumpAndParseMatchReferenceOnRandomDoubles) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200000; ++trial) {
    double d;
    switch (trial % 4) {
      case 0:
      case 1:
        d = RandomBitsDouble(&rng);
        break;
      case 2:
        d = static_cast<double>(static_cast<float>(rng.Normal()));
        break;
      default:
        d = static_cast<double>(rng.UniformInt(-(int64_t{1} << 54),
                                               int64_t{1} << 54));
    }
    std::string text = Json(d).Dump();
    ASSERT_EQ(text, json_reference::RefNumberText(d));
    if (text == "null") continue;
    double want = 0.0;
    ASSERT_TRUE(json_reference::RefParseNumber(text, &want)) << text;
    auto parsed = Json::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    ASSERT_TRUE(
        json_reference::SameBits(parsed.ValueUnsafe().AsDouble(), want))
        << text;
    ASSERT_TRUE(want == d) << text;
  }
}

// Random strings over the scanner's alphabet: the parser accepts
// exactly the tokens strtod consumes in full, with bit-equal values.
TEST_P(JsonNumberCodecTest, ParseMatchesStrtodOnRandomTokens) {
  Rng rng(GetParam());
  size_t accepted = 0;
  for (int trial = 0; trial < 200000; ++trial) {
    std::string token;
    size_t len = rng.NextBelow(12) + 1;
    for (size_t i = 0; i < len; ++i) {
      // Digits twice as likely, so well-formed tokens are common.
      token.push_back(rng.Bernoulli(0.5)
                          ? static_cast<char>('0' + rng.NextBelow(10))
                          : kNumberBytes[rng.NextBelow(
                                sizeof(kNumberBytes) - 1)]);
    }
    if (rng.Bernoulli(0.1)) {
      token += 'e';
      token += std::to_string(rng.UniformInt(-400, 400));
    }
    double want = 0.0;
    bool ok = json_reference::RefParseNumber(token, &want);
    auto parsed = Json::Parse(token);
    ASSERT_EQ(parsed.ok(), ok) << token;
    if (!ok) continue;
    ++accepted;
    ASSERT_TRUE(
        json_reference::SameBits(parsed.ValueUnsafe().AsDouble(), want))
        << token;
  }
  EXPECT_GT(accepted, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonNumberCodecTest,
                         ::testing::Values(101, 202, 303));

TEST(JsonFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage;
    size_t len = rng.NextBelow(64);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    auto parsed = Json::Parse(garbage);
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsCorruption());
    }
  }
}

}  // namespace
}  // namespace mlake
