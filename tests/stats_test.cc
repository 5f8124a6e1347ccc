// Tests for the HDR-style histogram, running stats and table printer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "stats/histogram.h"
#include "stats/running_stats.h"
#include "stats/table.h"

namespace meshnet::stats {
namespace {

TEST(LogHistogram, EmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
}

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h(7);
  for (std::uint64_t v = 0; v < 128; ++v) h.record(v);
  // Every value below 2^7 sits in its own bucket: percentiles are exact.
  EXPECT_EQ(h.percentile(0), 0u);
  EXPECT_EQ(h.percentile(100), 127u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 127u);
  EXPECT_EQ(h.count(), 128u);
}

TEST(LogHistogram, SingleValue) {
  LogHistogram h;
  h.record(42);
  EXPECT_EQ(h.percentile(0), 42u);
  EXPECT_EQ(h.percentile(50), 42u);
  EXPECT_EQ(h.percentile(100), 42u);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
}

TEST(LogHistogram, MeanAndStddevMatchNaive) {
  LogHistogram h;
  std::vector<double> values;
  std::mt19937_64 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng() % 100000;
    h.record(v);
    values.push_back(static_cast<double>(v));
  }
  double sum = 0;
  for (double v : values) sum += v;
  const double mean = sum / static_cast<double>(values.size());
  double sq = 0;
  for (double v : values) sq += (v - mean) * (v - mean);
  const double stddev = std::sqrt(sq / (static_cast<double>(values.size()) - 1));
  EXPECT_NEAR(h.mean(), mean, 1e-6);
  EXPECT_NEAR(h.stddev(), stddev, 1e-6);
}

TEST(LogHistogram, RecordNWeightsCounts) {
  LogHistogram h;
  h.record_n(10, 99);
  h.record_n(1000000, 1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.percentile(50), 10u);
  EXPECT_GT(h.percentile(100), 900000u);
}

TEST(LogHistogram, RecordZeroCountIsNoop) {
  LogHistogram h;
  h.record_n(5, 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(LogHistogram, PercentileClampsToObservedRange) {
  LogHistogram h;
  h.record(1'000'003);
  EXPECT_EQ(h.percentile(0), 1'000'003u);
  EXPECT_EQ(h.percentile(100), 1'000'003u);
}

TEST(LogHistogram, CdfMonotone) {
  LogHistogram h;
  std::mt19937_64 rng(2);
  for (int i = 0; i < 5000; ++i) h.record(rng() % 1000000);
  double prev = 0.0;
  for (std::uint64_t v = 0; v < 1000000; v += 50000) {
    const double c = h.cdf(v);
    EXPECT_GE(c, prev);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_NEAR(h.cdf(1000000), 1.0, 1e-9);
}

TEST(LogHistogram, MergeEqualsCombinedRecording) {
  LogHistogram a, b, combined;
  std::mt19937_64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng() % 1000000;
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (double p : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    EXPECT_EQ(a.percentile(p), combined.percentile(p)) << "p=" << p;
  }
}

TEST(LogHistogram, MergeAcrossPrecisionsReRecords) {
  LogHistogram fine(10), coarse(5);
  for (int i = 0; i < 100; ++i) coarse.record(1000 + static_cast<std::uint64_t>(i));
  fine.merge(coarse);
  EXPECT_EQ(fine.count(), 100u);
}

TEST(LogHistogram, ResetClearsEverything) {
  LogHistogram h;
  h.record(123456);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(99), 0u);
}

TEST(LogHistogram, EqualityIgnoresUnusedBuckets) {
  // Storage grows to the highest recorded bucket and reset() keeps it, so
  // a fresh histogram and a reset one differ only in zero buckets.
  const LogHistogram fresh;
  LogHistogram reset;
  reset.record(123456789);
  reset.reset();
  EXPECT_EQ(fresh, reset);
  EXPECT_EQ(reset, fresh);

  const LogHistogram copy = fresh;
  EXPECT_EQ(copy, fresh);
  EXPECT_EQ(copy, reset);

  // Equal recordings on top of different storage extents stay equal.
  LogHistogram short_storage = fresh;
  LogHistogram long_storage = reset;
  short_storage.record(7);
  long_storage.record(7);
  EXPECT_EQ(short_storage, long_storage);
  EXPECT_EQ(long_storage, short_storage);
}

TEST(LogHistogram, MergeAcrossExtentsEqualsCombinedRecording) {
  // `narrow` stays in the exact region; `wide` reaches far past it. Values
  // and their squares stay below 2^53, so the double accumulators are
  // exact in any summation order and operator== can compare them.
  LogHistogram narrow, wide, combined;
  for (std::uint64_t v = 1; v <= 100; ++v) {
    narrow.record(v);
    combined.record(v);
  }
  for (const std::uint64_t v : {1000ull, 250000ull, 7000000ull, 90000000ull}) {
    wide.record(v);
    combined.record(v);
  }
  LogHistogram narrow_into_wide = wide;
  narrow_into_wide.merge(narrow);
  LogHistogram wide_into_narrow = narrow;
  wide_into_narrow.merge(wide);

  const std::uint64_t cdf_points[] = {
      0, 50, 100, 5000, 7000000, 90000000, std::uint64_t{1} << 40, UINT64_MAX};
  for (const LogHistogram* merged : {&narrow_into_wide, &wide_into_narrow}) {
    EXPECT_EQ(*merged, combined);
    for (const double p : {0.0, 10.0, 50.0, 96.0, 97.0, 99.0, 100.0}) {
      EXPECT_EQ(merged->percentile(p), combined.percentile(p)) << "p=" << p;
    }
    for (const std::uint64_t v : cdf_points) {
      EXPECT_EQ(merged->cdf(v), combined.cdf(v)) << "v=" << v;
    }
  }
}

TEST(LogHistogram, PrecisionBitsClamped) {
  EXPECT_EQ(LogHistogram(0).precision_bits(), 3);
  EXPECT_EQ(LogHistogram(99).precision_bits(), 14);
  EXPECT_EQ(LogHistogram(7).precision_bits(), 7);
}

// Property: relative error of any percentile is bounded by 2^-k, across
// several magnitudes and distributions.
class HistogramErrorTest : public ::testing::TestWithParam<int> {};

TEST_P(HistogramErrorTest, RelativeErrorBound) {
  const int k = GetParam();
  LogHistogram h(k);
  std::vector<std::uint64_t> values;
  std::mt19937_64 rng(42);
  for (int i = 0; i < 20000; ++i) {
    // log-uniform over [1, 2^40]
    const double exponent = std::uniform_real_distribution<>(0, 40)(rng);
    values.push_back(static_cast<std::uint64_t>(std::pow(2.0, exponent)));
    h.record(values.back());
  }
  std::sort(values.begin(), values.end());
  const double bound = std::pow(2.0, -k) + 1e-12;
  for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    const std::uint64_t exact = values[std::max<std::size_t>(rank, 1) - 1];
    const std::uint64_t approx = h.percentile(p);
    const double rel_err =
        std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
        std::max<double>(1.0, static_cast<double>(exact));
    EXPECT_LE(rel_err, bound) << "p=" << p << " k=" << k
                              << " exact=" << exact << " approx=" << approx;
  }
}

INSTANTIATE_TEST_SUITE_P(Precision, HistogramErrorTest,
                         ::testing::Values(5, 7, 9, 11));

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, MatchesNaiveComputation) {
  RunningStats s;
  std::vector<double> values = {3.5, -2.0, 7.25, 0.0, 13.0, -8.5, 4.0};
  double sum = 0;
  for (double v : values) {
    s.record(v);
    sum += v;
  }
  const double mean = sum / static_cast<double>(values.size());
  double sq = 0;
  for (double v : values) sq += (v - mean) * (v - mean);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), sq / (static_cast<double>(values.size()) - 1),
              1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -8.5);
  EXPECT_DOUBLE_EQ(s.max(), 13.0);
  EXPECT_NEAR(s.sum(), sum, 1e-12);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  std::mt19937_64 rng(4);
  std::normal_distribution<double> dist(10.0, 3.0);
  for (int i = 0; i < 500; ++i) {
    const double v = dist(rng);
    (i < 200 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.record(5.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(Table, AlignsColumnsAndUnderlines) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // All lines (header, underline, rows) end in newline.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, MissingCellsRenderEmpty) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
}

// ---------------------------------------------------------------------------
// Sharded-merge properties. The sweep runner's determinism guarantee rests
// on these: merging K per-point recorders must equal one recorder fed the
// concatenated samples, for ANY split of the samples into shards.

TEST(LogHistogram, ShardedMergeEqualsCombined_RandomSplits) {
  std::mt19937_64 rng(0xfeed);
  for (int trial = 0; trial < 20; ++trial) {
    const int shards = 1 + static_cast<int>(rng() % 8);
    // Spread values across both the exact (< 2^k) and bucketed ranges of
    // the histogram. Cap at 2^20 so the sum of squares stays within the
    // double-exact integer range: equality below is bit-exact, and summing
    // inexact squares in shard order vs sample order would differ in the
    // last ulp without any merge bug.
    std::vector<std::uint64_t> samples(500 + rng() % 1500);
    for (auto& v : samples) v = rng() % (1ULL << (8 + rng() % 13));

    LogHistogram combined;
    std::vector<LogHistogram> parts(static_cast<std::size_t>(shards));
    for (const std::uint64_t v : samples) {
      combined.record(v);
      parts[rng() % static_cast<std::uint64_t>(shards)].record(v);
    }
    LogHistogram merged;
    for (const LogHistogram& part : parts) merged.merge(part);

    // Bit-exact equivalence, not just "close": operator== compares every
    // bucket plus min/max/sum/sum_sq.
    EXPECT_EQ(merged, combined) << "trial=" << trial << " shards=" << shards;
    for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      EXPECT_EQ(merged.percentile(p), combined.percentile(p))
          << "trial=" << trial << " p=" << p;
    }
    EXPECT_DOUBLE_EQ(merged.mean(), combined.mean());
  }
}

TEST(LogHistogram, ShardedMergeOrderInvariant) {
  // Merging the same shards in a different order must give the same
  // histogram (counts are integers, sums are exact for these values), so
  // the sweep runner's fixed input-order merge is deterministic.
  std::mt19937_64 rng(77);
  std::vector<LogHistogram> parts(5);
  for (int i = 0; i < 2000; ++i) {
    parts[rng() % parts.size()].record(rng() % 1000000);
  }
  LogHistogram forward, backward;
  for (std::size_t i = 0; i < parts.size(); ++i) forward.merge(parts[i]);
  for (std::size_t i = parts.size(); i-- > 0;) backward.merge(parts[i]);
  EXPECT_EQ(forward, backward);
}

TEST(RunningStats, ShardedMergeEqualsCombined_RandomSplits) {
  std::mt19937_64 rng(0xbeef);
  std::lognormal_distribution<double> dist(2.0, 1.5);
  for (int trial = 0; trial < 20; ++trial) {
    const int shards = 1 + static_cast<int>(rng() % 8);
    RunningStats combined;
    std::vector<RunningStats> parts(static_cast<std::size_t>(shards));
    const int n = 200 + static_cast<int>(rng() % 800);
    for (int i = 0; i < n; ++i) {
      const double v = dist(rng);
      combined.record(v);
      parts[rng() % static_cast<std::uint64_t>(shards)].record(v);
    }
    RunningStats merged;
    for (const RunningStats& part : parts) merged.merge(part);

    EXPECT_EQ(merged.count(), combined.count());
    EXPECT_DOUBLE_EQ(merged.min(), combined.min());
    EXPECT_DOUBLE_EQ(merged.max(), combined.max());
    // Welford merge reassociates the sums, so exactness is only up to
    // floating-point; the tolerance is tight enough to catch logic bugs.
    EXPECT_NEAR(merged.mean(), combined.mean(),
                1e-9 * std::abs(combined.mean()));
    EXPECT_NEAR(merged.variance(), combined.variance(),
                1e-6 * std::max(1.0, combined.variance()));
  }
}

TEST(LogHistogram, EqualityDetectsDifferences) {
  LogHistogram a, b;
  a.record(100);
  b.record(100);
  EXPECT_EQ(a, b);
  b.record(100);
  EXPECT_NE(a, b);

  LogHistogram c(7), d(6);  // same data, different precision
  c.record(1 << 20);
  d.record(1 << 20);
  EXPECT_NE(c, d);
}

}  // namespace
}  // namespace meshnet::stats
