// Copyright 2026 The Microbrowse Authors
//
// Tests for mbctl's flag parser: both value spellings ("--flag value" and
// "--flag=value"), and the hard errors for unknown flags, missing values
// and values given to boolean flags.

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
  return Flags::Parse(static_cast<int>(argv.size()), argv.data(),
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

}  // namespace
}  // namespace microbrowse
