#include "mcsim/util/args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace mcsim {
namespace {

ArgParser parser() {
  return ArgParser("test", {"procs", "mode", "rate"}, {"csv", "verbose"});
}

void parse(ArgParser& p, std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  p.parse(static_cast<int>(v.size()), v.data());
}

TEST(Args, SpaceSeparatedValues) {
  auto p = parser();
  parse(p, {"--procs", "8", "--mode", "cleanup"});
  EXPECT_EQ(p.valueOr("procs", ""), "8");
  EXPECT_EQ(p.valueOr("mode", ""), "cleanup");
  EXPECT_EQ(p.intOr("procs", 0), 8);
}

TEST(Args, EqualsSyntax) {
  auto p = parser();
  parse(p, {"--procs=16", "--rate=2.5"});
  EXPECT_EQ(p.intOr("procs", 0), 16);
  EXPECT_DOUBLE_EQ(p.numberOr("rate", 0.0), 2.5);
}

TEST(Args, Flags) {
  auto p = parser();
  parse(p, {"--csv"});
  EXPECT_TRUE(p.hasFlag("csv"));
  EXPECT_FALSE(p.hasFlag("verbose"));
}

TEST(Args, Positional) {
  // Every argument must be an option: a bare word is refused by name.
  auto p = parser();
  try {
    parse(p, {"--csv", "input.dax"});
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "unexpected argument 'input.dax' for test");
  }
}

TEST(Args, DefaultsWhenAbsent) {
  auto p = parser();
  parse(p, {});
  EXPECT_EQ(p.valueOr("mode", "regular"), "regular");
  EXPECT_EQ(p.intOr("procs", 4), 4);
  EXPECT_DOUBLE_EQ(p.numberOr("rate", 1.5), 1.5);
  EXPECT_FALSE(p.value("mode").has_value());
}

TEST(Args, UnknownOptionRejected) {
  auto p = parser();
  EXPECT_THROW(parse(p, {"--bogus", "1"}), std::invalid_argument);
}

TEST(Args, ReadingAnUndeclaredNameIsALogicError) {
  // A reader asked for a name the parser was not given is a program bug:
  // std::logic_error, not the std::invalid_argument of a bad command line.
  auto p = parser();
  parse(p, {"--procs", "8", "--csv"});
  const auto bug = [](auto read) {
    try {
      read();
    } catch (const std::invalid_argument&) {
      return std::string("invalid_argument");
    } catch (const std::logic_error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(bug([&] { p.value("bogus"); }),
            "--bogus is not a value option of test");
  EXPECT_EQ(bug([&] { p.intOr("jobs", 1); }),
            "--jobs is not a value option of test");
  EXPECT_EQ(bug([&] { p.u64Or("seed", 1); }),
            "--seed is not a value option of test");
  EXPECT_EQ(bug([&] { p.intListOr("csv", {}); }),
            "--csv is not a value option of test");
  EXPECT_EQ(bug([&] { p.hasFlag("procs"); }), "--procs is not a flag of test");
  EXPECT_EQ(bug([&] { p.hasFlag("json"); }), "--json is not a flag of test");
}

TEST(Args, MissingValueRejected) {
  auto p = parser();
  EXPECT_THROW(parse(p, {"--procs"}), std::invalid_argument);
}

TEST(Args, DuplicateRejected) {
  auto p = parser();
  EXPECT_THROW(parse(p, {"--procs", "1", "--procs", "2"}),
               std::invalid_argument);
  auto q = parser();
  EXPECT_THROW(parse(q, {"--csv", "--csv"}), std::invalid_argument);
}

TEST(Args, FlagWithValueRejected) {
  auto p = parser();
  EXPECT_THROW(parse(p, {"--csv=yes"}), std::invalid_argument);
}

TEST(Args, BadNumbersRejected) {
  auto p = parser();
  parse(p, {"--procs", "eight", "--rate", "fast"});
  EXPECT_THROW(p.intOr("procs", 0), std::invalid_argument);
  EXPECT_THROW(p.numberOr("rate", 0.0), std::invalid_argument);
}

/// The message of the std::invalid_argument `read` throws ("" if none).
template <class Read>
std::string refusal(Read read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Args, ListsParseEveryItem) {
  auto p = parser();
  parse(p, {"--procs", "8,4,16", "--rate=0.5,2,1e3"});
  EXPECT_EQ(p.intListOr("procs", {}), (std::vector<int>{8, 4, 16}));
  EXPECT_EQ(p.numberListOr("rate", {}), (std::vector<double>{0.5, 2.0, 1e3}));
  EXPECT_EQ(p.intListOr("mode", {1, 2}), (std::vector<int>{1, 2}));
  EXPECT_EQ(p.numberListOr("mode", {0.25}), (std::vector<double>{0.25}));
}

TEST(Args, ListItemsMustBeConsumedWhole) {
  for (const char* bad : {"8x,4", "8,4x", "8,,4", "8,4,", ",8", "", "8.5",
                          "eight"}) {
    auto p = parser();
    parse(p, {"--procs", bad});
    const std::string message = refusal([&] { p.intListOr("procs", {}); });
    EXPECT_NE(message.find("--procs"), std::string::npos) << bad;
  }
  for (const char* bad : {"0.5abc,2", "900x,3600", "1,,2", "", "fast"}) {
    auto p = parser();
    parse(p, {"--rate", bad});
    const std::string message = refusal([&] { p.numberListOr("rate", {}); });
    EXPECT_NE(message.find("--rate"), std::string::npos) << bad;
  }
}

TEST(Args, UnsignedSeedsParseExactly) {
  auto p = parser();
  parse(p, {"--procs", "18446744073709551615", "--rate", "0"});
  EXPECT_EQ(p.u64Or("procs", 1), 18446744073709551615ull);
  EXPECT_EQ(p.u64Or("rate", 1), 0u);
  EXPECT_EQ(p.u64Or("mode", 7), 7u);
}

TEST(Args, UnsignedSeedsRefuseEverythingElse) {
  for (const char* bad : {"1.5", "-1", "+1", "18446744073709551616", "1e3",
                          " 1", "1 ", "", "0x10", "seed"}) {
    auto p = parser();
    parse(p, {"--procs", bad});
    const std::string message = refusal([&] { p.u64Or("procs", 1); });
    EXPECT_NE(message.find("--procs"), std::string::npos) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace mcsim
