#include "common/cli.h"

#include <gtest/gtest.h>

#include <vector>

namespace wsn {
namespace {

CliParser make_parser() {
  CliParser cli("prog", "test program");
  cli.add_option("size", "mesh size", "32");
  cli.add_option("spacing", "meters", "0.5");
  cli.add_flag("verbose", "print more");
  return cli;
}

bool parse(CliParser& cli, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return cli.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {}));
  EXPECT_EQ(cli.get("size"), "32");
  EXPECT_EQ(cli.get_u64("size"), 32u);
  EXPECT_DOUBLE_EQ(cli.get_f64("spacing"), 0.5);
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(Cli, SpaceSeparatedValue) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--size", "64"}));
  EXPECT_EQ(cli.get_u64("size"), 64u);
}

TEST(Cli, EqualsSeparatedValue) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--size=128", "--spacing=0.25"}));
  EXPECT_EQ(cli.get_u64("size"), 128u);
  EXPECT_DOUBLE_EQ(cli.get_f64("spacing"), 0.25);
}

TEST(Cli, FlagPresence) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--verbose"}));
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, PositionalArgumentsCollected) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"input.csv", "--size", "8", "more"}));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.csv");
  EXPECT_EQ(cli.positional()[1], "more");
}

TEST(Cli, UnknownOptionFails) {
  CliParser cli = make_parser();
  EXPECT_FALSE(parse(cli, {"--nope"}));
}

TEST(Cli, MissingValueFails) {
  CliParser cli = make_parser();
  EXPECT_FALSE(parse(cli, {"--size"}));
}

TEST(Cli, FlagWithValueFails) {
  CliParser cli = make_parser();
  EXPECT_FALSE(parse(cli, {"--verbose=yes"}));
}

// A malformed number is the user's mistake, not the program's: a message
// naming the option and the text, the usage block, and the exit status
// the program gave the parser.
TEST(Cli, NonNumericValueIsAUsageError) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--size", "abc", "--spacing=12x"}));
  EXPECT_EXIT((void)cli.get_u64("size"), testing::ExitedWithCode(1),
              "prog: option --size expects an unsigned integer, got 'abc'"
              "(.|\n)*--size +mesh size \\(default: 32\\)");
  EXPECT_EXIT((void)cli.get_f64("spacing"), testing::ExitedWithCode(1),
              "option --spacing expects a number, got '12x'");

  CliParser tool("tool", "test tool", 2);
  tool.add_option("limit", "rows", "10");
  ASSERT_TRUE(parse(tool, {"--limit="}));
  EXPECT_EXIT((void)tool.get_u64("limit"), testing::ExitedWithCode(2),
              "option --limit expects an unsigned integer, got ''");
}

TEST(Cli, HelpShortCircuits) {
  CliParser cli = make_parser();
  EXPECT_FALSE(parse(cli, {"--help"}));
}

TEST(Cli, UsageListsOptionsAndDefaults) {
  CliParser cli = make_parser();
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--size"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("default: 32"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(Cli, LastOccurrenceWins) {
  CliParser cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--size", "1", "--size", "2"}));
  EXPECT_EQ(cli.get_u64("size"), 2u);
}

}  // namespace
}  // namespace wsn
