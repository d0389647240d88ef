#include "util/flags.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace util {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "binary");
  return FlagParser(static_cast<int>(args.size()), args.data());
}

TEST(FlagParserTest, EqualsSyntax) {
  auto flags = Parse({"--rounds=20", "--profile=mnist"});
  EXPECT_EQ(flags.GetInt("rounds", 0), 20);
  EXPECT_EQ(flags.GetString("profile", ""), "mnist");
}

TEST(FlagParserTest, SpaceSyntax) {
  auto flags = Parse({"--rounds", "15", "--alpha", "0.05"});
  EXPECT_EQ(flags.GetInt("rounds", 0), 15);
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 0.05);
}

TEST(FlagParserTest, BareSwitchIsTrue) {
  auto flags = Parse({"--quiet", "--verbose=false"});
  EXPECT_TRUE(flags.GetBool("quiet", false));
  EXPECT_FALSE(flags.GetBool("verbose", true));
}

TEST(FlagParserTest, FallbacksWhenAbsent) {
  auto flags = Parse({});
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 1.5), 1.5);
  EXPECT_TRUE(flags.GetBool("missing", true));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagParserTest, PositionalArgumentsPreserved) {
  auto flags = Parse({"first", "--k=v", "second"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "first");
  EXPECT_EQ(flags.positional()[1], "second");
}

TEST(FlagParserTest, BoolVariantsAccepted) {
  auto flags = Parse({"--a=YES", "--b=0", "--c=on", "--d=Off"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
}

TEST(FlagParserTest, MalformedValuesThrow) {
  auto flags = Parse({"--n=abc", "--x=1.2.3", "--b=maybe"});
  EXPECT_THROW(flags.GetInt("n", 0), CheckError);
  EXPECT_THROW(flags.GetDouble("x", 0.0), CheckError);
  EXPECT_THROW(flags.GetBool("b", false), CheckError);
}

TEST(FlagParserTest, NegativeNumbersParse) {
  auto flags = Parse({"--offset=-3", "--scale=-0.5"});
  EXPECT_EQ(flags.GetInt("offset", 0), -3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 0.0), -0.5);
}

TEST(FlagParserTest, Uint64ParsesFullRange) {
  auto flags = Parse({"--seed=18446744073709551615", "--zero=0"});
  EXPECT_EQ(flags.GetUint64("seed", 7), 18446744073709551615ull);
  EXPECT_EQ(flags.GetUint64("zero", 7), 0u);
  EXPECT_EQ(flags.GetUint64("missing", 7), 7u);
}

TEST(FlagParserTest, Uint64RejectsSignsSuffixesAndOverflow) {
  // strtoull would wrap "-1" to 2^64 - 1 and read "7x" as 7.
  for (const char* bad : {"-1", "7x", "+7", " 7", "", "1.0",
                          "18446744073709551616"}) {
    EXPECT_THROW(ParseUint64(bad, "seeds"), CheckError) << bad;
  }
  auto flags = Parse({"--seed=-1"});
  EXPECT_THROW(flags.GetUint64("seed", 7), CheckError);
}

TEST(FlagParserTest, NamesListsAllFlags) {
  auto flags = Parse({"--a=1", "--b"});
  auto names = flags.Names();
  EXPECT_EQ(names.size(), 2u);
}

TEST(FlagParserTest, RejectUnknownPassesKnownFlags) {
  auto flags = Parse({"--rounds=20", "--quiet"});
  EXPECT_NO_THROW(flags.RejectUnknown({"rounds", "quiet", "seed"}));
}

TEST(FlagParserTest, RejectUnknownThrowsNamingOffenders) {
  auto flags = Parse({"--rounds=20", "--ronuds=21"});
  try {
    flags.RejectUnknown({"rounds"});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("--ronuds"), std::string::npos);
  }
}

TEST(FlagParserTest, RejectUnknownIgnoresPositionals) {
  auto flags = Parse({"7", "--seed=3"});
  EXPECT_NO_THROW(flags.RejectUnknown({"seed"}));
}

}  // namespace
}  // namespace util
