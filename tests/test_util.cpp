// Unit tests for util/: math helpers, RNG determinism, tables, CLI parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace aem::util;

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_EQ(ceil_div(8, 4), 2u);
  EXPECT_EQ(ceil_div(UINT64_MAX - 3, UINT64_MAX), 1u);
}

TEST(MathTest, RoundUp) {
  EXPECT_EQ(round_up(0, 8), 0u);
  EXPECT_EQ(round_up(1, 8), 8u);
  EXPECT_EQ(round_up(8, 8), 8u);
  EXPECT_EQ(round_up(9, 8), 16u);
}

// Regression: near UINT64_MAX the old ceil_div(a, b) * b silently wrapped,
// so round_up(UINT64_MAX, 2) returned 0.  Exact multiples at the top of the
// range must still round to themselves; anything whose next multiple does
// not exist must throw instead of wrapping.
TEST(MathTest, RoundUpSaturationBoundary) {
  EXPECT_EQ(round_up(UINT64_MAX, 1), UINT64_MAX);
  EXPECT_EQ(round_up(UINT64_MAX - 1, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(round_up(UINT64_MAX, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(round_up(1ull << 63, 1ull << 63), 1ull << 63);
  // 2 * (2^63 - 1) = 2^64 - 2: the largest even value still representable.
  EXPECT_EQ(round_up(UINT64_MAX - 1, UINT64_MAX / 2), UINT64_MAX - 1);

  EXPECT_THROW(round_up(UINT64_MAX, 2), std::overflow_error);
  EXPECT_THROW(round_up((1ull << 63) + 1, 1ull << 63), std::overflow_error);
  EXPECT_THROW(round_up(UINT64_MAX, UINT64_MAX / 2), std::overflow_error);
  EXPECT_THROW(round_up(UINT64_MAX, UINT64_MAX - 1), std::overflow_error);
}

TEST(MathTest, Ilog2) {
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(2), 1u);
  EXPECT_EQ(ilog2(3), 1u);
  EXPECT_EQ(ilog2(4), 2u);
  EXPECT_EQ(ilog2(1024), 10u);
  EXPECT_EQ(ilog2_ceil(1), 0u);
  EXPECT_EQ(ilog2_ceil(2), 1u);
  EXPECT_EQ(ilog2_ceil(3), 2u);
  EXPECT_EQ(ilog2_ceil(1025), 11u);
}

TEST(MathTest, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
}

TEST(MathTest, IpowSaturates) {
  EXPECT_EQ(ipow_sat(2, 10), 1024u);
  EXPECT_EQ(ipow_sat(2, 64), UINT64_MAX);
  EXPECT_EQ(ipow_sat(10, 30), UINT64_MAX);
  EXPECT_EQ(ipow_sat(7, 0), 1u);
}

TEST(MathTest, IlogBaseCeil) {
  // Merge levels: 16 runs, fanout 4 -> 2 levels; 17 runs -> 3 levels.
  EXPECT_EQ(ilog_base_ceil(1, 4), 0u);
  EXPECT_EQ(ilog_base_ceil(4, 4), 1u);
  EXPECT_EQ(ilog_base_ceil(16, 4), 2u);
  EXPECT_EQ(ilog_base_ceil(17, 4), 3u);
  EXPECT_EQ(ilog_base_ceil(1000, 2), 10u);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_EQ(a.next(), b.next());
  Rng a2(42);
  EXPECT_NE(a2.next(), c.next());
}

TEST(RngTest, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
    std::uint64_t r = rng.range(5, 9);
    EXPECT_GE(r, 5u);
    EXPECT_LE(r, 9u);
  }
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  // Mean of 10k uniforms should be near 0.5.
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, RandomPermutationIsPermutation) {
  Rng rng(3);
  auto p = random_permutation(257, rng);
  ASSERT_EQ(p.size(), 257u);
  std::set<std::uint64_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(RngTest, RandomPermutationNotIdentity) {
  Rng rng(5);
  auto p = random_permutation(1000, rng);
  std::uint64_t fixed = 0;
  for (std::uint64_t i = 0; i < p.size(); ++i) fixed += (p[i] == i);
  EXPECT_LT(fixed, 20u);  // expected ~1 fixed point
}

TEST(RngTest, DistinctKeysAreDistinct) {
  Rng rng(9);
  auto k = distinct_keys(512, rng, 3);
  std::set<std::uint64_t> seen(k.begin(), k.end());
  EXPECT_EQ(seen.size(), 512u);
  for (auto v : k) EXPECT_EQ(v % 3, 0u);
}

TEST(TableTest, PrintAlignsColumns) {
  Table t({"a", "long_header"});
  t.add_row({"1", "2"});
  t.add_row({"123456", "7"});
  std::ostringstream os;
  t.print(os);
  std::string s = os.str();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("123456"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(TableTest, Csv) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(fmt(std::uint64_t{42}), "42");
  EXPECT_EQ(fmt(std::int64_t{-7}), "-7");
  EXPECT_EQ(fmt(1.5, 2), "1.50");
  EXPECT_EQ(fmt_ratio(3.0, 2.0, 1), "1.5");
  EXPECT_EQ(fmt_ratio(1.0, 0.0), "inf");
  EXPECT_EQ(fmt_sep(1234567), "1,234,567");
  EXPECT_EQ(fmt_sep(123), "123");
  EXPECT_EQ(fmt_sep(1000), "1,000");
}

TEST(CliTest, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--n=100", "--omega", "4", "--verbose"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.u64("n", 0), 100u);
  EXPECT_EQ(cli.u64("omega", 0), 4u);
  EXPECT_TRUE(cli.flag("verbose"));
  EXPECT_FALSE(cli.flag("quiet"));
  EXPECT_EQ(cli.u64("missing", 7), 7u);
}

TEST(CliTest, RejectsMalformedInput) {
  const char* argv1[] = {"prog", "positional"};
  EXPECT_THROW(Cli(2, const_cast<char**>(argv1)), std::invalid_argument);
  const char* argv2[] = {"prog", "--n=abc"};
  Cli cli(2, const_cast<char**>(argv2));
  EXPECT_THROW(cli.u64("n", 0), std::invalid_argument);
}

TEST(CliTest, StringAndDouble) {
  const char* argv[] = {"prog", "--out=results.csv"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EQ(cli.str("out", ""), "results.csv");
  EXPECT_EQ(cli.str("missing", "def"), "def");
}

TEST(CliTest, RejectsFlagsNoLookupAskedFor) {
  const char* argv[] = {"prog", "--n=100", "--min-speedup=0", "--typo"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_EQ(cli.u64("n", 0), 100u);
  try {
    cli.reject_unknown_flags();
    FAIL() << "unqueried flags were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag(s): --min-speedup, --typo");
  }
  EXPECT_TRUE(cli.has("min-speedup"));
  EXPECT_TRUE(cli.flag("typo"));
  EXPECT_NO_THROW(cli.reject_unknown_flags());  // every flag now queried
}

// --- strict integer parsing (parse_u64 + the flag lookups built on it) ---

TEST(ParseU64Test, AcceptsPlainDecimal) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("1"), 1u);
  EXPECT_EQ(parse_u64("007"), 7u);  // leading zeros are still base 10
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
}

TEST(ParseU64Test, RejectsEverythingStoullAccepted) {
  // Every shape std::stoull mis-handles: whitespace, signs, hex, trailing
  // garbage, overflow, and non-ASCII junk.
  const char* bad[] = {
      "",       " ",      "\t",    "+1",     "-1",   "- 1",
      "0x10",   "abc",    "12abc", " 3",     "3 ",   "1.5",
      "1e3",    "18446744073709551616",      // UINT64_MAX + 1
      "99999999999999999999",                // way past 2^64
      "järn",   "１２",                      // UTF-8 junk, full-width digits
  };
  for (const char* s : bad)
    EXPECT_FALSE(parse_u64(s).has_value()) << "accepted '" << s << "'";
}

TEST(CliTest, U64FlagRejectsFuzzedValues) {
  const char* junk[] = {"",   " ",     "+4",  "-4",    "0x10", "12abc",
                        "99999999999999999999", "järn", "4 "};
  for (const char* v : junk) {
    const std::string arg = std::string("--n=") + v;
    const char* argv[] = {"prog", arg.c_str()};
    Cli cli(2, const_cast<char**>(argv));
    EXPECT_THROW(cli.u64("n", 0), std::invalid_argument) << arg;
    // The diagnostic names the flag so the user knows what to fix.
    try {
      cli.u64("n", 0);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos) << arg;
    }
  }
}

TEST(CliTest, U64AcceptsBoundaryValues) {
  const char* argv[] = {"prog", "--n=18446744073709551615", "--z=0"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_EQ(cli.u64("n", 0), UINT64_MAX);
  EXPECT_EQ(cli.u64("z", 9), 0u);
}

TEST(CliTest, JobsComeOnlyFromTheFlag) {
  // No --jobs means one worker (cli_env_guard checks that the environment
  // is ignored); 0 ("one worker per hardware thread") passes through for
  // harness/parallel_sweep to resolve.
  const char* none[] = {"prog"};
  EXPECT_EQ(Cli(1, const_cast<char**>(none)).jobs(), 1u);
  const char* zero[] = {"prog", "--jobs=0"};
  EXPECT_EQ(Cli(2, const_cast<char**>(zero)).jobs(), 0u);
}

}  // namespace
