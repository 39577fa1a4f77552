#include "common/string_util.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <string>

namespace mlake {
namespace {

TEST(SplitTest, Basic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitWhitespaceTest, DropsEmptyFields) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("MiXeD 123 !"), "mixed 123 !");
}

TEST(TrimTest, StripsEnds) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StartsEndsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("model-lake", "model"));
  EXPECT_FALSE(StartsWith("model", "model-lake"));
  EXPECT_TRUE(EndsWith("card.json", ".json"));
  EXPECT_FALSE(EndsWith("card.json", ".yaml"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(EqualsIgnoreCaseTest, Basic) {
  EXPECT_TRUE(EqualsIgnoreCase("WHERE", "where"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("where", "wher"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
}

TEST(StrFormatTest, Formats) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("no args"), "no args");
  // Long output beyond any static buffer.
  std::string long_arg(5000, 'y');
  EXPECT_EQ(StrFormat("%s", long_arg.c_str()).size(), 5000u);
}

TEST(TokenizeWordsTest, LowercasesAndSplitsOnNonAlnum) {
  EXPECT_EQ(TokenizeWords("Legal-Summarization v2, for US courts!"),
            (std::vector<std::string>{"legal", "summarization", "v2", "for",
                                      "us", "courts"}));
  EXPECT_TRUE(TokenizeWords("...").empty());
  EXPECT_TRUE(TokenizeWords("").empty());
}

TEST(HumanBytesTest, Units) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(1536 * 1024), "1.5 MiB");
  EXPECT_EQ(HumanBytes(0), "0 B");
}

TEST(ParseUintTest, AcceptsDigitsOnly) {
  EXPECT_EQ(ParseUint("0"), 0u);
  EXPECT_EQ(ParseUint("42"), 42u);
  EXPECT_EQ(ParseUint("007"), 7u);
}

TEST(ParseBoundedIntTest, AcceptsValuesUpToTheBound) {
  EXPECT_EQ(ParseBoundedInt("0"), 0);
  EXPECT_EQ(ParseBoundedInt("8080"), 8080);
  EXPECT_EQ(ParseBoundedInt("2147483647"), INT_MAX);
  EXPECT_EQ(ParseBoundedInt("1024", 1024), 1024);
}

TEST(ParseBoundedIntTest, RejectsJunkAndOutOfRange) {
  // `--port junk` and friends must be usage errors, not port 0.
  EXPECT_FALSE(ParseBoundedInt("junk").has_value());
  EXPECT_FALSE(ParseBoundedInt("").has_value());
  EXPECT_FALSE(ParseBoundedInt("80x").has_value());
  EXPECT_FALSE(ParseBoundedInt("-1").has_value());
  // Values that used to wrap around int.
  EXPECT_FALSE(ParseBoundedInt("2147483648").has_value());
  EXPECT_FALSE(ParseBoundedInt("99999999999999999999999").has_value());
  EXPECT_FALSE(ParseBoundedInt("1025", 1024).has_value());
}

TEST(ParseUintTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParseUint("").has_value());
}

TEST(ParseUintTest, RejectsSign) {
  EXPECT_FALSE(ParseUint("-1").has_value());
  EXPECT_FALSE(ParseUint("+1").has_value());
  EXPECT_FALSE(ParseUint("-").has_value());
}

TEST(ParseUintTest, RejectsWhitespace) {
  EXPECT_FALSE(ParseUint(" 1").has_value());
  EXPECT_FALSE(ParseUint("1 ").has_value());
  EXPECT_FALSE(ParseUint("1\t").has_value());
  EXPECT_FALSE(ParseUint(" ").has_value());
}

TEST(ParseUintTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseUint("12abc").has_value());
  EXPECT_FALSE(ParseUint("0x10").has_value());
  EXPECT_FALSE(ParseUint("1.0").has_value());
  EXPECT_FALSE(ParseUint(std::string_view("1\0", 2)).has_value());
}

TEST(ParseUintTest, MaxValueAndOverflow) {
  EXPECT_EQ(ParseUint("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(ParseUint("18446744073709551616").has_value());  // 2^64
  EXPECT_FALSE(ParseUint("18446744073709551620").has_value());
  EXPECT_FALSE(ParseUint("99999999999999999999").has_value());
  EXPECT_FALSE(ParseUint("184467440737095516150").has_value());
}

TEST(ParseUintTest, ReadsOnlyTheGivenView) {
  // A view into a longer buffer: the bytes past its end are not read.
  std::string buffer = "123456";
  EXPECT_EQ(ParseUint(std::string_view(buffer).substr(0, 3)), 123u);
}

}  // namespace
}  // namespace mlake
