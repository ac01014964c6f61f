#include "cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace vulcan::cli {
namespace {

TEST(ToolsCli, ParseU64AcceptsOnlyWholeDecimals) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("4x2"));
  EXPECT_FALSE(parse_u64("abc"));
  EXPECT_FALSE(parse_u64("-5"));
  EXPECT_FALSE(parse_u64(" 5"));
  EXPECT_FALSE(parse_u64("5 "));
  EXPECT_FALSE(parse_u64("18446744073709551616"));
}

TEST(ToolsCli, ParseUnsignedRejectsValuesPastUintMax) {
  EXPECT_EQ(parse_unsigned("2"), 2u);
  EXPECT_EQ(parse_unsigned("4294967295"), 4294967295u);
  EXPECT_FALSE(parse_unsigned("4294967296"));
  EXPECT_FALSE(parse_unsigned("two"));
  EXPECT_FALSE(parse_unsigned("-1"));
}

TEST(ToolsCli, ParseDoubleAcceptsFiniteNumbersOnly) {
  EXPECT_EQ(parse_double("2.5"), 2.5);
  EXPECT_EQ(parse_double("3e6"), 3e6);
  EXPECT_EQ(parse_double("-3"), -3.0);
  EXPECT_EQ(parse_double("20"), 20.0);
  EXPECT_FALSE(parse_double(""));
  EXPECT_FALSE(parse_double("abc"));
  EXPECT_FALSE(parse_double("1.5s"));
  EXPECT_FALSE(parse_double("inf"));
  EXPECT_FALSE(parse_double("nan"));
}

TEST(ToolsCli, ParseOnOffKnowsBothSpellings) {
  EXPECT_EQ(parse_on_off("on"), true);
  EXPECT_EQ(parse_on_off("1"), true);
  EXPECT_EQ(parse_on_off("true"), true);
  EXPECT_EQ(parse_on_off("off"), false);
  EXPECT_EQ(parse_on_off("0"), false);
  EXPECT_EQ(parse_on_off("false"), false);
  EXPECT_FALSE(parse_on_off("yes"));
  EXPECT_FALSE(parse_on_off(""));
}

/// Owns the argv strings an Args walks.
struct Argv {
  explicit Argv(std::vector<std::string> words) : words_(std::move(words)) {
    for (std::string& w : words_) ptrs_.push_back(w.data());
  }
  Args args() { return Args(static_cast<int>(ptrs_.size()), ptrs_.data()); }

 private:
  std::vector<std::string> words_;
  std::vector<char*> ptrs_;
};

TEST(ToolsCli, ArgsWalksFlagsAndTypedValues) {
  Argv argv({"tool", "--seed", "7", "--bare", "--seconds", "2.5", "--admission",
             "off", "--audit", "--name", "x"});
  Args args = argv.args();
  ASSERT_TRUE(args.more());
  EXPECT_EQ(args.flag(), "--seed");
  EXPECT_EQ(args.u64(), 7u);
  EXPECT_EQ(args.flag(), "--bare");
  EXPECT_EQ(args.flag(), "--seconds");
  EXPECT_EQ(args.non_negative(), 2.5);
  EXPECT_EQ(args.flag(), "--admission");
  EXPECT_FALSE(args.on_off());
  EXPECT_EQ(args.flag(), "--audit");
  EXPECT_STREQ(args.next_or("full"), "full");
  EXPECT_EQ(args.flag(), "--name");
  EXPECT_STREQ(args.next_or("fallback"), "x");
  EXPECT_FALSE(args.more());
}

TEST(ToolsCliDeathTest, MalformedValueExitsTwoNamingTheFlag) {
  Argv seed({"tool", "--seed", "4x2"});
  EXPECT_EXIT(
      {
        Args args = seed.args();
        args.flag();
        args.u64();
      },
      ::testing::ExitedWithCode(2), "invalid value for --seed: 4x2");

  Argv jobs({"tool", "--jobs", "two"});
  EXPECT_EXIT(
      {
        Args args = jobs.args();
        args.flag();
        args.uint();
      },
      ::testing::ExitedWithCode(2), "invalid value for --jobs: two");

  Argv margin({"tool", "--admission-margin", "-3"});
  EXPECT_EXIT(
      {
        Args args = margin.args();
        args.flag();
        args.non_negative();
      },
      ::testing::ExitedWithCode(2), "invalid value for --admission-margin: -3");
}

TEST(ToolsCliDeathTest, MissingValueExitsTwo) {
  Argv argv({"tool", "--seconds"});
  EXPECT_EXIT(
      {
        Args args = argv.args();
        args.flag();
        args.real();
      },
      ::testing::ExitedWithCode(2), "missing value for --seconds");
}

}  // namespace
}  // namespace vulcan::cli
