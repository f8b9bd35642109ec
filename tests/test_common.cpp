// Unit tests for the common utility layer: bit math, tables, stats, RNG,
// CLI parsing, logging, contracts.
#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "common/cli.hpp"
#include "common/escape.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/word.hpp"

namespace smache {
namespace {

TEST(Bits, AddrBits) {
  EXPECT_EQ(addr_bits(0), 0u);
  EXPECT_EQ(addr_bits(1), 1u);
  EXPECT_EQ(addr_bits(2), 1u);
  EXPECT_EQ(addr_bits(121), 7u);
  EXPECT_EQ(addr_bits(128), 7u);
  EXPECT_EQ(addr_bits(129), 8u);
  EXPECT_EQ(addr_bits(1u << 20), 20u);
}

TEST(Bits, CountBits) {
  EXPECT_EQ(count_bits(0), 1u);
  EXPECT_EQ(count_bits(1), 1u);
  EXPECT_EQ(count_bits(2), 2u);
  EXPECT_EQ(count_bits(255), 8u);
  EXPECT_EQ(count_bits(256), 9u);
}

TEST(Bits, RoundingHelpers) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(9), 16u);
  EXPECT_EQ(round_up(0, 4), 0u);
  EXPECT_EQ(round_up(13, 4), 16u);
  EXPECT_EQ(ceil_div(0, 7), 0u);
  EXPECT_EQ(ceil_div(7, 7), 1u);
  EXPECT_EQ(ceil_div(8, 7), 2u);
}

TEST(Bits, FloorModNegatives) {
  EXPECT_EQ(floor_mod(-1, 11), 10);
  EXPECT_EQ(floor_mod(-11, 11), 0);
  EXPECT_EQ(floor_mod(-12, 11), 10);
  EXPECT_EQ(floor_mod(22, 11), 0);
  EXPECT_EQ(floor_mod(5, 11), 5);
}

TEST(Bits, MirrorIndexPattern) {
  // m = 4: ... 2 1 | 0 1 2 3 | 2 1 0 ...
  EXPECT_EQ(mirror_index(-2, 4), 2);
  EXPECT_EQ(mirror_index(-1, 4), 1);
  EXPECT_EQ(mirror_index(0, 4), 0);
  EXPECT_EQ(mirror_index(3, 4), 3);
  EXPECT_EQ(mirror_index(4, 4), 2);
  EXPECT_EQ(mirror_index(5, 4), 1);
  EXPECT_EQ(mirror_index(6, 4), 0);
  EXPECT_EQ(mirror_index(0, 1), 0);
}

TEST(Word, RoundTripInt32AndFloat) {
  EXPECT_EQ(from_word<std::int32_t>(to_word<std::int32_t>(-42)), -42);
  EXPECT_EQ(from_word<float>(to_word(3.25f)), 3.25f);
  // A negative int's bit pattern survives the word layer untouched.
  EXPECT_EQ(to_word<std::int32_t>(-1), 0xFFFFFFFFu);
}

TEST(Contracts, RequireThrowsWithLocation) {
  try {
    SMACHE_REQUIRE_MSG(false, "extra detail");
    FAIL() << "should have thrown";
  } catch (const contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
    EXPECT_NE(what.find("extra detail"), std::string::npos);
  }
}

TEST(Table, AlignsAndRules) {
  TextTable t({"name", "v"});
  t.begin_row();
  t.add_cell(std::string("a"));
  t.add_cell(std::uint64_t{12345});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("name"), std::string::npos);
  EXPECT_NE(ascii.find("12345"), std::string::npos);
  EXPECT_NE(ascii.find("-----"), std::string::npos);
}

TEST(Table, CsvQuotesSpecials) {
  TextTable t({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Escape, JsonAndCsvBytesArePinned) {
  // Every report, spec file and trace encodes strings through these two,
  // so their bytes are part of the report format. Carriage return escapes
  // numerically (\u000d), not as \r.
  EXPECT_EQ(json_escape("a\rb"), "a\\u000db");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("C:\\tmp"), "C:\\\\tmp");
  EXPECT_EQ(json_escape(std::string("x\x01y\ttab\nnl")),
            "x\\u0001y\\ttab\\nnl");
  EXPECT_EQ(json_escape("a,b"), "a,b");
  EXPECT_EQ(json_escape("plain"), "plain");

  // RFC 4180: quote a field only when it holds a comma, quote or newline;
  // embedded quotes double.
  EXPECT_EQ(csv_quote("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_quote("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_quote("back\\slash"), "back\\slash");
  EXPECT_EQ(csv_quote("plain"), "plain");
  EXPECT_EQ(csv_quote(""), "");
}

TEST(Table, RowOverflowRejected) {
  TextTable t({"only"});
  t.begin_row();
  t.add_cell(std::string("1"));
  EXPECT_THROW(t.add_cell(std::string("2")), contract_error);
  EXPECT_THROW(t.add_row({"a", "b"}), contract_error);
}

TEST(Table, FixedFormatting) {
  EXPECT_EQ(format_fixed(1.0 / 3.0, 3), "0.333");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_kib(242000), "236.3");  // the paper's baseline traffic
}

TEST(Stats, WelfordMeanVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Stats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double u = rng.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, RoughUniformity) {
  Rng rng(99);
  int buckets[10] = {};
  for (int i = 0; i < 10000; ++i) ++buckets[rng.next_below(10)];
  for (int b : buckets) {
    EXPECT_GT(b, 800);
    EXPECT_LT(b, 1200);
  }
}

TEST(Cli, ParsesAllForms) {
  // Note: an UNDECLARED bare `--flag` followed by a non-flag token still
  // consumes it as a value (`--name value` form); declared boolean flags
  // never do — tests/test_cli.cpp covers both behaviours.
  const char* argv[] = {"prog", "pos1", "--a", "1",
                        "--b=two", "--c", "3.5", "--flag"};
  CliArgs args(8, argv);
  EXPECT_EQ(args.get_int("a", 0), 1);
  EXPECT_EQ(args.get_string("b", ""), "two");
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_DOUBLE_EQ(args.get_double("c", 0.0), 3.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Log, SinkCapturesAtLevel) {
  std::vector<std::string> captured;
  Log::set_sink([&](LogLevel, const std::string& m) {
    captured.push_back(m);
  });
  Log::set_level(LogLevel::Warn);
  Log::debug("nope");
  Log::warn("yes");
  Log::error("also");
  Log::set_sink(nullptr);
  Log::set_level(LogLevel::Warn);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], "yes");
}

}  // namespace
}  // namespace smache
