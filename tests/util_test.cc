// Tests for the util module: strings, flags, JSON and the thread pool
// behind the sweep harness.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/flags.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace meshnet::util {
namespace {

TEST(Strings, IequalsAscii) {
  EXPECT_TRUE(iequals("Host", "host"));
  EXPECT_TRUE(iequals("X-REQUEST-ID", "x-request-id"));
  EXPECT_FALSE(iequals("host", "hos"));
  EXPECT_FALSE(iequals("a", "b"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\r\n\thi\t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitNoDelimiter) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("/product/1", "/product"));
  EXPECT_FALSE(starts_with("/prod", "/product"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("12345"), 12345u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());  // overflow
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("12a").has_value());
  EXPECT_FALSE(parse_u64("+5").has_value());
}

Flags parse_args(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  const Flags flags = parse_args({"--rps=30", "--name=fig4"});
  EXPECT_EQ(flags.get_int_or("rps", 0, NumberRange::kPositive), 30);
  EXPECT_EQ(flags.get_or("name", ""), "fig4");
}

TEST(Flags, SpaceSyntax) {
  const Flags flags = parse_args({"--rps", "42"});
  EXPECT_EQ(flags.get_int_or("rps", 0, NumberRange::kPositive), 42);
}

TEST(Flags, BareBoolean) {
  const Flags flags = parse_args({"--csv", "--verbose"});
  EXPECT_TRUE(flags.get_bool_or("csv", false));
  EXPECT_TRUE(flags.get_bool_or("verbose", false));
  EXPECT_FALSE(flags.get_bool_or("missing", false));
  EXPECT_TRUE(flags.get_bool_or("missing", true));
}

TEST(Flags, BoolValues) {
  EXPECT_TRUE(parse_args({"--x=true"}).get_bool_or("x", false));
  EXPECT_TRUE(parse_args({"--x=1"}).get_bool_or("x", false));
  EXPECT_TRUE(parse_args({"--x=yes"}).get_bool_or("x", false));
  EXPECT_FALSE(parse_args({"--x=false"}).get_bool_or("x", true));
  EXPECT_FALSE(parse_args({"--x=0"}).get_bool_or("x", true));
}

TEST(Flags, LaterDuplicateWins) {
  const Flags flags = parse_args({"--n=1", "--n=2"});
  EXPECT_EQ(flags.get_int_or("n", 0, NumberRange::kPositive), 2);
  // ... but the repeat is recorded, so strict parsers can reject it.
  ASSERT_EQ(flags.duplicates().size(), 1u);
  EXPECT_EQ(flags.duplicates()[0], "n");
}

TEST(Flags, NoDuplicatesOnCleanLine) {
  const Flags flags = parse_args({"--a=1", "--b=2", "--c"});
  EXPECT_TRUE(flags.duplicates().empty());
}

TEST(Flags, UnknownFlagsDetected) {
  const Flags flags = parse_args({"--rps=30", "--thread=8", "--csv"});
  const auto unknown = flags.unknown({"rps", "csv", "threads"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "thread");  // the classic typo for --threads
}

TEST(Flags, UnknownRespectsPrefixWhitelist) {
  const Flags flags =
      parse_args({"--benchmark_filter=BM_Foo", "--benchmark_min_time=2"});
  EXPECT_TRUE(flags.unknown({}, {"benchmark_"}).empty());
  EXPECT_EQ(flags.unknown({}).size(), 2u);
}

TEST(Flags, ValidateCleanLineIsEmpty) {
  const Flags flags = parse_args({"--rps=30", "--csv"});
  EXPECT_EQ(flags.validate({"rps", "csv"}), "");
}

TEST(Flags, ValidateReportsUnknownAndDuplicates) {
  const Flags flags = parse_args({"--typo=1", "--rps=1", "--rps=2"});
  const std::string message = flags.validate({"rps"});
  EXPECT_NE(message.find("unknown flag --typo"), std::string::npos)
      << message;
  EXPECT_NE(message.find("duplicate flag --rps"), std::string::npos)
      << message;
}

TEST(Flags, Positional) {
  const Flags flags = parse_args({"input.txt", "--k=v", "more"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "more");
}

TEST(Flags, NumericFallbacks) {
  const Flags flags = parse_args({"--other=abc"});
  EXPECT_EQ(flags.get_int_or("absent", 7, NumberRange::kPositive), 7);
  EXPECT_DOUBLE_EQ(flags.get_double_or("absent", 1.5, NumberRange::kPositive),
                   1.5);
  EXPECT_DOUBLE_EQ(parse_args({"--d=2.25"})
                       .get_double_or("d", 0, NumberRange::kPositive),
                   2.25);
  EXPECT_EQ(parse_args({"--n=0"}).get_int_or("n", 5, NumberRange::kNonNegative),
            0);
}

// A malformed or out-of-range number must stop the binary, not run it on
// the fallback.
TEST(Flags, MalformedOrOutOfRangeNumbersExitWithStatus2) {
  const auto exits = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse_args({"--d=1O"}).get_int_or("d", 15,
                                                NumberRange::kPositive),
              exits, "bad --d entry '1O' \\(want a positive integer\\)");
  EXPECT_EXIT(parse_args({"--d=0x"}).get_int_or("d", 15,
                                                NumberRange::kPositive),
              exits, "bad --d entry '0x'");
  EXPECT_EXIT(parse_args({"--d=99999999999999999999"})
                  .get_int_or("d", 15, NumberRange::kPositive),
              exits, "bad --d entry");
  EXPECT_EXIT(parse_args({"--t=-1"}).get_int_or("t", 1,
                                                NumberRange::kNonNegative),
              exits, "bad --t entry '-1' \\(want a non-negative integer\\)");
  EXPECT_EXIT(parse_args({"--r=abc"}).get_double_or("r", 10,
                                                   NumberRange::kNonNegative),
              exits, "bad --r entry 'abc'");
  EXPECT_EXIT(parse_args({"--r=-90"}).get_double_or("r", 10,
                                                   NumberRange::kPositive),
              exits, "bad --r entry '-90' \\(want a positive number\\)");
  EXPECT_EXIT(parse_args({"--r=0"}).get_double_or("r", 10,
                                                 NumberRange::kPositive),
              exits, "bad --r entry '0'");
  EXPECT_EXIT(parse_args({"--r=nan"}).get_double_or("r", 10,
                                                   NumberRange::kNonNegative),
              exits, "bad --r entry 'nan'");
}

TEST(Flags, HasAndGet) {
  const Flags flags = parse_args({"--present=x"});
  EXPECT_TRUE(flags.has("present"));
  EXPECT_FALSE(flags.has("absent"));
  EXPECT_FALSE(flags.get("absent").has_value());
}

// ---------------------------------------------------------------------------
// JSON document

TEST(Json, BuildAndSerializeCompact) {
  Json doc = Json::object();
  doc.set("name", "fig4");
  doc.set("threads", 8);
  doc.set("ok", true);
  doc.set("none", Json());
  Json arr = Json::array();
  arr.push_back(1.5);
  arr.push_back("two");
  doc.set("items", std::move(arr));
  EXPECT_EQ(doc.dump(),
            "{\"name\":\"fig4\",\"threads\":8,\"ok\":true,\"none\":null,"
            "\"items\":[1.5,\"two\"]}");
}

TEST(Json, ObjectKeepsInsertionOrderAndOverwrites) {
  Json doc = Json::object();
  doc.set("z", 1);
  doc.set("a", 2);
  doc.set("z", 3);  // overwrite keeps the original slot
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.members()[0].first, "z");
  EXPECT_EQ(doc.members()[0].second.number_or(0), 3);
  EXPECT_EQ(doc.members()[1].first, "a");
}

TEST(Json, RoundTripThroughParse) {
  Json doc = Json::object();
  doc.set("exact", 0.1);
  doc.set("big", 9007199254740992.0);  // 2^53
  doc.set("neg", -17);
  doc.set("escaped", "a\"b\\c\n\t\x01");
  Json arr = Json::array();
  for (int i = 0; i < 3; ++i) arr.push_back(i);
  doc.set("arr", std::move(arr));

  for (const int indent : {-1, 2}) {
    const auto parsed = Json::parse(doc.dump(indent));
    ASSERT_TRUE(parsed.has_value()) << "indent=" << indent;
    EXPECT_EQ(parsed->dump(), doc.dump());
  }
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double v : {0.0, -0.0, 1e-300, 1.7976931348623157e308,
                         3.141592653589793, 1.0 / 3.0}) {
    const Json j(v);
    const auto parsed = Json::parse(j.dump());
    ASSERT_TRUE(parsed.has_value()) << v;
    EXPECT_EQ(parsed->number_or(-1), v);
  }
  // Integer-valued doubles print without an exponent or decimal point.
  EXPECT_EQ(Json(42.0).dump(), "42");
  EXPECT_EQ(Json(static_cast<std::uint64_t>(1234567)).dump(), "1234567");
}

TEST(Json, ParsesHandWrittenDocument) {
  const auto parsed = Json::parse(R"(
    {
      "a": [1, 2.5, -3e2, true, false, null],
      "b": { "nested": "x Aé" }
    }
  )");
  ASSERT_TRUE(parsed.has_value());
  const Json* a = parsed->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 6u);
  EXPECT_EQ(a->items()[2].number_or(0), -300.0);
  const Json* nested = parsed->find("b")->find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->string_or(""), "x A\xc3\xa9");
}

TEST(Json, ParseErrorsAreReported) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterm",
                          "{\"a\":1,}", "1 2", "{'a':1}"}) {
    std::string error;
    EXPECT_FALSE(Json::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Json, FindOnNonObjectIsNull) {
  EXPECT_EQ(Json(1.0).find("x"), nullptr);
  EXPECT_EQ(Json::array().find("x"), nullptr);
  EXPECT_EQ(Json::object().find("missing"), nullptr);
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);

  // The pool is reusable after wait_idle.
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 101);
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 10; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // After the throw, the pool drains and keeps working.
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 11);
}

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::resolve_thread_count(3), 3);
  EXPECT_EQ(ThreadPool::resolve_thread_count(1), 1);
  EXPECT_GE(ThreadPool::resolve_thread_count(0), 1);  // hardware default
}

TEST(ThreadPool, SingleThreadRunsInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    pool.submit([i, &order] { order.push_back(i); });
  }
  pool.wait_idle();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace meshnet::util
