#ifndef MLAKE_COMMON_STRING_UTIL_H_
#define MLAKE_COMMON_STRING_UTIL_H_

#include <climits>
#include <cstdarg>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mlake {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits `s` on any whitespace run, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Parses a base-10 unsigned integer: one or more ASCII digits and
/// nothing else (no sign, no whitespace). nullopt on empty input, any
/// other byte, or a value above 2^64 - 1.
std::optional<uint64_t> ParseUint(std::string_view s);

/// ParseUint narrowed to an int in [0, max]: nullopt on anything
/// ParseUint rejects or a value above `max`. The checked parser behind
/// integer command-line flags.
std::optional<int> ParseBoundedInt(std::string_view s, int max = INT_MAX);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Lowercased alphanumeric tokens of `s` (non-alphanumerics are
/// separators). The shared tokenizer for BM25 and keyword search.
std::vector<std::string> TokenizeWords(std::string_view s);

/// Formats a byte count as a human-readable string ("1.5 MiB").
std::string HumanBytes(uint64_t bytes);

}  // namespace mlake

#endif  // MLAKE_COMMON_STRING_UTIL_H_
