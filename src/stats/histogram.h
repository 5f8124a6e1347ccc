#pragma once

// Log-linear ("HDR-style") histogram with bounded relative error.
//
// Values below 2^k are recorded exactly; larger values land in buckets of
// width 2^(bit_width(v)-k), giving a worst-case relative error of 2^-k.
// With the default k=7 that is < 0.8%, comparable to what wrk2/HdrHistogram
// report. Bucket storage grows geometrically up to the highest bucket
// recorded so far (at most 3,776 buckets, ~30 KB, at k=7), so an unused
// histogram allocates nothing and merge and copy cost O(buckets used).
//
// Typical use records latencies in nanoseconds and reads percentiles:
//
//   LatencyHistogram h;
//   h.record(rtt_ns);
//   double p99_ms = sim::to_milliseconds(h.percentile(99.0));

#include <cstdint>
#include <vector>

namespace meshnet::stats {

class LogHistogram {
 public:
  /// `precision_bits` = k above; clamped to [3, 14].
  explicit LogHistogram(int precision_bits = 7);

  void record(std::uint64_t value);
  void record_n(std::uint64_t value, std::uint64_t count);

  std::uint64_t count() const noexcept { return total_count_; }
  std::uint64_t min() const noexcept;  ///< 0 when empty.
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept;

  /// Value at the given percentile in [0, 100]. Returns the representative
  /// (midpoint) value of the bucket containing that rank; 0 when empty.
  std::uint64_t percentile(double p) const;

  /// Adds all counts from `other` (must have equal precision).
  void merge(const LogHistogram& other);

  int precision_bits() const noexcept { return k_; }

  /// Bit-exact equality: same precision, same per-bucket counts, same
  /// min/max/sum accumulators. Buckets past either side's storage count
  /// as zero, so equality does not depend on how far storage has grown.
  /// The determinism tests use this to assert that a sweep produces
  /// identical histograms at any thread count.
  friend bool operator==(const LogHistogram& a, const LogHistogram& b);
  friend bool operator!=(const LogHistogram& a, const LogHistogram& b) {
    return !(a == b);
  }

 private:
  std::size_t index_of(std::uint64_t value) const noexcept;
  std::uint64_t value_of(std::size_t index) const noexcept;
  /// Grows `counts_` to hold `size` buckets: at least double the current
  /// storage, capped at the full range.
  void grow_to(std::size_t size);

  int k_;
  std::uint64_t total_count_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  /// Buckets [0, counts_.size()); every bucket past the end is zero.
  std::vector<std::uint64_t> counts_;
};

}  // namespace meshnet::stats
