#include "common/flags.hpp"

#include <gtest/gtest.h>

namespace bofl {
namespace {

FlagParser parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return {static_cast<int>(args.size()), args.data()};
}

TEST(Flags, KeyValueForms) {
  const FlagParser flags = parse({"--a=1", "--b", "2", "--c"});
  EXPECT_EQ(flags.get("a", ""), "1");
  EXPECT_EQ(flags.get("b", ""), "2");
  EXPECT_EQ(flags.get("c", ""), "true");
  EXPECT_TRUE(flags.has("a"));
  EXPECT_FALSE(flags.has("missing"));
  EXPECT_EQ(flags.get("missing", "fallback"), "fallback");
}

TEST(Flags, PositionalArguments) {
  const FlagParser flags = parse({"first", "--k", "v", "second"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"first", "second"}));
}

TEST(Flags, NumericParsing) {
  const FlagParser flags = parse({"--ratio=2.5", "--rounds", "40"});
  EXPECT_DOUBLE_EQ(flags.get_double("ratio", 0.0), 2.5);
  EXPECT_EQ(flags.get_int("rounds", 0), 40);
  EXPECT_DOUBLE_EQ(flags.get_double("absent", 7.5), 7.5);
  EXPECT_EQ(flags.get_int("absent", -3), -3);
}

TEST(Flags, NumericRejectsGarbage) {
  const FlagParser flags = parse({"--ratio=fast", "--rounds=many"});
  EXPECT_THROW((void)flags.get_double("ratio", 0.0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_int("rounds", 0), std::invalid_argument);
}

TEST(Flags, BooleanSwitches) {
  const FlagParser flags =
      parse({"--on", "--explicit=true", "--off=false", "--one=1"});
  EXPECT_TRUE(flags.get_bool("on"));
  EXPECT_TRUE(flags.get_bool("explicit"));
  EXPECT_FALSE(flags.get_bool("off"));
  EXPECT_TRUE(flags.get_bool("one"));
  EXPECT_FALSE(flags.get_bool("absent"));
  EXPECT_TRUE(flags.get_bool("absent", true));
}

TEST(Flags, LastOccurrenceWins) {
  const FlagParser flags = parse({"--k=1", "--k=2"});
  EXPECT_EQ(flags.get("k", ""), "2");
}

TEST(Flags, KeysAreSorted) {
  const FlagParser flags = parse({"--zeta=1", "--alpha=2"});
  EXPECT_EQ(flags.keys(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(Flags, NegativeNumberAsValue) {
  // "-3" does not start with "--", so it is consumed as the value.
  const FlagParser flags = parse({"--offset", "-3"});
  EXPECT_EQ(flags.get_int("offset", 0), -3);
}

TEST(Flags, IntegerOutOfRangeRejected) {
  const FlagParser flags = parse({"--rounds", "99999999999999999999",
                                  "--offset=-99999999999999999999"});
  EXPECT_THROW((void)flags.get_int("rounds", 0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_int("offset", 0), std::invalid_argument);
}

// Counts (clients, shards, threads) must not wrap a negative value into a
// huge std::size_t; these cases only parse, nothing is built from them.
TEST(Flags, CountRejectsNegativeAndOutOfRange) {
  const FlagParser flags =
      parse({"--clients", "-1", "--threads=-3", "--rounds",
             "99999999999999999999", "--shards", "many"});
  EXPECT_THROW((void)flags.get_count("clients", 0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_count("threads", 0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_count("rounds", 0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_count("shards", 0), std::invalid_argument);
}

TEST(Flags, CountParsesNonNegativeValues) {
  const FlagParser flags = parse({"--clients=2000", "--threads", "0"});
  EXPECT_EQ(flags.get_count("clients", 7), 2000u);
  EXPECT_EQ(flags.get_count("threads", 7), 0u);
  EXPECT_EQ(flags.get_count("absent", 7), 7u);
}

TEST(Flags, BareDoubleDashRejected) {
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

}  // namespace
}  // namespace bofl
