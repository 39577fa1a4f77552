// Reference number codec for the JSON layer: the printf/strtod pair the
// lake's stored and wire bytes were first defined by. Json::Dump must
// print every double byte-for-byte as RefNumberText does, and
// Json::Parse must accept exactly the number tokens RefParseNumber
// accepts, with bit-equal values.

#ifndef MLAKE_TESTS_JSON_NUMBER_REFERENCE_H_
#define MLAKE_TESTS_JSON_NUMBER_REFERENCE_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

namespace mlake::json_reference {

/// "%lld" for exact integers below 2^53, "%.17g" otherwise, "null" for
/// NaN and infinities.
inline std::string RefNumberText(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";
  char buf[40];
  if (std::nearbyint(d) == d && std::fabs(d) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
  }
  return buf;
}

/// strtod over the whole token: accepted iff it consumes every byte.
inline bool RefParseNumber(std::string_view token, double* out) {
  std::string owned(token);
  char* end = nullptr;
  *out = std::strtod(owned.c_str(), &end);
  return !owned.empty() && end == owned.c_str() + owned.size();
}

/// Bit equality: tells -0 from +0, which == does not.
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace mlake::json_reference

#endif  // MLAKE_TESTS_JSON_NUMBER_REFERENCE_H_
