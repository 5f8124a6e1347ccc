#include "stats/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace meshnet::stats {

namespace {
constexpr int clamp_bits(int bits) noexcept {
  if (bits < 3) return 3;
  if (bits > 14) return 14;
  return bits;
}

// Buckets covering every uint64_t value: the exact region has 2^k slots,
// and each exponent e in [1, 64-k] needs 2^(k-1).
constexpr std::size_t full_range(int k) noexcept {
  const std::size_t exact = std::size_t{1} << k;
  const std::size_t per_exp = std::size_t{1} << (k - 1);
  return exact + static_cast<std::size_t>(64 - k) * per_exp;
}

bool all_zero(const std::vector<std::uint64_t>& counts, std::size_t from) {
  return std::all_of(counts.begin() + static_cast<std::ptrdiff_t>(from),
                     counts.end(), [](std::uint64_t c) { return c == 0; });
}
}  // namespace

LogHistogram::LogHistogram(int precision_bits)
    : k_(clamp_bits(precision_bits)) {}

void LogHistogram::grow_to(std::size_t size) {
  size = std::min(std::max(size, 2 * counts_.size()), full_range(k_));
  // reserve() first so the capacity is exactly `size`, never past the
  // full range.
  counts_.reserve(size);
  counts_.resize(size, 0);
}

std::size_t LogHistogram::index_of(std::uint64_t value) const noexcept {
  const std::uint64_t exact_limit = std::uint64_t{1} << k_;
  if (value < exact_limit) return static_cast<std::size_t>(value);
  const int e = std::bit_width(value) - k_;  // >= 1
  const std::uint64_t mantissa = value >> e;  // in [2^(k-1), 2^k)
  const std::size_t per_exp = std::size_t{1} << (k_ - 1);
  return static_cast<std::size_t>(exact_limit) +
         static_cast<std::size_t>(e - 1) * per_exp +
         static_cast<std::size_t>(mantissa - (std::uint64_t{1} << (k_ - 1)));
}

std::uint64_t LogHistogram::value_of(std::size_t index) const noexcept {
  const std::size_t exact = std::size_t{1} << k_;
  if (index < exact) return static_cast<std::uint64_t>(index);
  const std::size_t per_exp = std::size_t{1} << (k_ - 1);
  const std::size_t rel = index - exact;
  const int e = static_cast<int>(rel / per_exp) + 1;
  const std::uint64_t mantissa =
      (std::uint64_t{1} << (k_ - 1)) + (rel % per_exp);
  // Bucket midpoint: lower edge plus half the bucket width.
  return (mantissa << e) + (std::uint64_t{1} << (e - 1));
}

void LogHistogram::record(std::uint64_t value) { record_n(value, 1); }

void LogHistogram::record_n(std::uint64_t value, std::uint64_t count) {
  if (count == 0) return;
  const std::size_t index = index_of(value);
  if (index >= counts_.size()) grow_to(index + 1);
  counts_[index] += count;
  total_count_ += count;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
  const double v = static_cast<double>(value);
  const double c = static_cast<double>(count);
  sum_ += v * c;
  sum_sq_ += v * v * c;
}

std::uint64_t LogHistogram::min() const noexcept {
  return total_count_ == 0 ? 0 : min_;
}

double LogHistogram::mean() const noexcept {
  if (total_count_ == 0) return 0.0;
  return sum_ / static_cast<double>(total_count_);
}

double LogHistogram::stddev() const noexcept {
  if (total_count_ < 2) return 0.0;
  const double n = static_cast<double>(total_count_);
  const double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1.0);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

std::uint64_t LogHistogram::percentile(double p) const {
  if (total_count_ == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Rank of the target observation (1-based, nearest-rank definition).
  const auto target = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(total_count_)));
  const std::uint64_t rank = target == 0 ? 1 : target;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      const std::uint64_t rep = value_of(i);
      // Clamp the representative into the observed range so p0/p100 are
      // never reported outside [min, max].
      if (rep < min_) return min_;
      if (rep > max_) return max_;
      return rep;
    }
  }
  return max_;
}

double LogHistogram::cdf(std::uint64_t value) const {
  if (total_count_ == 0) return 0.0;
  const std::size_t limit = index_of(value);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i <= limit && i < counts_.size(); ++i) {
    seen += counts_[i];
  }
  return static_cast<double>(seen) / static_cast<double>(total_count_);
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.k_ != k_ || other.total_count_ == 0) {
    if (other.k_ != k_) {
      // Different precision: re-record representative values.
      for (std::size_t i = 0; i < other.counts_.size(); ++i) {
        if (other.counts_[i] != 0) record_n(other.value_of(i), other.counts_[i]);
      }
    }
    return;
  }
  if (other.counts_.size() > counts_.size()) grow_to(other.counts_.size());
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_count_ += other.total_count_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
}

void LogHistogram::reset() {
  counts_.assign(counts_.size(), 0);
  total_count_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
  sum_ = 0.0;
  sum_sq_ = 0.0;
}

bool operator==(const LogHistogram& a, const LogHistogram& b) {
  if (a.k_ != b.k_ || a.total_count_ != b.total_count_ || a.min_ != b.min_ ||
      a.max_ != b.max_ || a.sum_ != b.sum_ || a.sum_sq_ != b.sum_sq_) {
    return false;
  }
  const std::size_t common = std::min(a.counts_.size(), b.counts_.size());
  return std::equal(a.counts_.begin(),
                    a.counts_.begin() + static_cast<std::ptrdiff_t>(common),
                    b.counts_.begin()) &&
         all_zero(a.counts_, common) && all_zero(b.counts_, common);
}

}  // namespace meshnet::stats
