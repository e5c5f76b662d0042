#include "base/string_util.h"

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace pdx {
namespace {

TEST(StrCatTest, ConcatenatesMixedTypes) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(StrCat(), "");
  EXPECT_EQ(StrCat("solo"), "solo");
}

TEST(StrJoinTest, JoinsWithSeparator) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(StrJoin(parts, ", "), "a, b, c");
  EXPECT_EQ(StrJoin(std::vector<std::string>{}, ","), "");
  EXPECT_EQ(StrJoin(std::vector<int>{1, 2, 3}, "-"), "1-2-3");
}

TEST(StrSplitTest, SplitsAndKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n x \r"), "x");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_FALSE(StartsWith("bar", "foo"));
}

TEST(ParseInt64InRangeTest, AcceptsWholeNumbersInRange) {
  EXPECT_EQ(ParseInt64InRange("0", 0, 256).value(), 0);
  EXPECT_EQ(ParseInt64InRange("256", 0, 256).value(), 256);
  EXPECT_EQ(ParseInt64InRange("-3", -5, 5).value(), -3);
  EXPECT_EQ(ParseInt64InRange("9223372036854775807", 1, INT64_MAX).value(),
            INT64_MAX);
}

TEST(ParseInt64InRangeTest, RejectsGarbageAndOutOfRange) {
  for (const char* text : {"", "abc", "10x", "x10", " 4", "4 ", "+4", "1.5",
                           "-3", "257", "100000",
                           "99999999999999999999"}) {
    StatusOr<int64_t> parsed = ParseInt64InRange(text, 0, 256);
    EXPECT_FALSE(parsed.ok()) << "'" << text << "'";
    if (!parsed.ok()) {
      EXPECT_NE(parsed.status().ToString().find("[0, 256]"),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace pdx
