// Copyright 2026 The Microbrowse Authors
//
// Tests for the flag parser of mbctl and mbserved: both value spellings
// ("--flag value" and "--flag=value"), the first-flag index, and the hard
// errors for unknown flags, missing values, values given to boolean flags
// and integers past int64.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mbctl_flags.h"

namespace microbrowse {
namespace {

/// Parses `args` as the flags of an mbctl command that declares the value
/// flags --out / --seed / --trace-out and the boolean flag --rhs.
Result<Flags> ParseArgs(std::vector<std::string> args) {
  args.insert(args.begin(), {"mbctl", "generate"});
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Flags::Parse(static_cast<int>(argv.size()), argv.data(), 2,
                      {"--out", "--seed", "--trace-out"}, {"--rhs"});
}

TEST(MbctlFlagsTest, SeparateValueSpelling) {
  auto flags = ParseArgs({"--out", "corpus.tsv", "--trace-out", "x.json", "--seed", "-5"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->Get("--out"), "corpus.tsv");
  EXPECT_EQ(flags->Get("--trace-out"), "x.json");
  EXPECT_EQ(*flags->GetInt("--seed", 0), -5);
}

TEST(MbctlFlagsTest, InlineValueSpelling) {
  auto flags = ParseArgs({"--out=corpus.tsv", "--trace-out=x.json", "--seed=-5", "--rhs"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->Get("--out"), "corpus.tsv");
  EXPECT_EQ(flags->Get("--trace-out"), "x.json");
  EXPECT_EQ(*flags->GetInt("--seed", 0), -5);
  EXPECT_TRUE(flags->Has("--rhs"));
}

TEST(MbctlFlagsTest, InlineValueKeepsLaterEqualsSigns) {
  auto flags = ParseArgs({"--out=dir/a=b.tsv"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->Get("--out"), "dir/a=b.tsv");
}

TEST(MbctlFlagsTest, UnknownInlineFlagIsRejected) {
  auto flags = ParseArgs({"--unknown=1"});
  ASSERT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(flags.status().message().find("unknown flag '--unknown'"), std::string::npos)
      << flags.status().ToString();
}

TEST(MbctlFlagsTest, MissingValuesAreRejected) {
  EXPECT_FALSE(ParseArgs({"--out"}).ok());
  EXPECT_FALSE(ParseArgs({"--out="}).ok());
}

TEST(MbctlFlagsTest, BooleanFlagTakesNoInlineValue) {
  auto flags = ParseArgs({"--rhs=1"});
  ASSERT_FALSE(flags.ok());
  EXPECT_NE(flags.status().message().find("takes no value"), std::string::npos);
}

TEST(MbctlFlagsTest, BareArgumentIsRejected) {
  EXPECT_FALSE(ParseArgs({"corpus.tsv"}).ok());
}

TEST(MbctlFlagsTest, ParsingStartsAtTheGivenIndex) {
  // mbserved has no command word, so its flags start at argv[1].
  std::vector<std::string> args = {"mbserved", "--out=x.tsv", "--rhs"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  auto from_one = Flags::Parse(3, argv.data(), 1, {"--out"}, {"--rhs"});
  ASSERT_TRUE(from_one.ok()) << from_one.status().ToString();
  EXPECT_EQ(from_one->Get("--out"), "x.tsv");
  EXPECT_TRUE(from_one->Has("--rhs"));
  // From index 2, argv[1] is taken for a command word and never parsed.
  auto from_two = Flags::Parse(3, argv.data(), 2, {"--out"}, {"--rhs"});
  ASSERT_TRUE(from_two.ok()) << from_two.status().ToString();
  EXPECT_FALSE(from_two->Has("--out"));
  EXPECT_TRUE(from_two->Has("--rhs"));
}

TEST(MbctlFlagsTest, IntegerPastInt64IsARangeError) {
  auto flags = ParseArgs({"--seed", "99999999999999999999"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  auto seed = flags->GetInt("--seed", 0, 0, 1000);
  ASSERT_FALSE(seed.ok());
  EXPECT_EQ(seed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(seed.status().message().find("out of range"), std::string::npos)
      << seed.status().ToString();
}

}  // namespace
}  // namespace microbrowse
