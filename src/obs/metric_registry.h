#pragma once

// The unified observability substrate (paper §3.2 "better visibility").
//
// Every telemetry surface in the mesh — per-edge request metrics, span
// statistics, resilience events, engine counters — records into one
// label-based MetricRegistry, so a single snapshot can answer
// cross-cutting questions ("p99 per-edge latency of LS traffic while the
// breaker was open") that the previous scattered APIs could not.
//
// Design constraints, in order:
//   1. Determinism. Series iterate in a sorted, content-defined order, so
//      two runs with the same inputs produce bit-identical snapshots at
//      any thread count (per-run registries, merged in input order).
//   2. Zero hot-path allocation (the PR-3 discipline). A series is
//      *interned* once — `counter(name, labels)` returns a stable
//      reference the caller caches — and every subsequent record is a
//      plain integer/histogram update, no map lookups, no strings.
//   3. One stable wire format. `MetricsSnapshot::to_json()` emits the
//      meshnet-metrics-v1 schema that stats/bench_report embeds as the
//      top-level "metrics" block and tools/bench_check diffs.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/histogram.h"
#include "util/json.h"

namespace meshnet::obs {

/// Ordered label set, e.g. {{"source","frontend"},{"upstream","reviews"}}.
/// Order is part of the series identity; callers use a fixed order per
/// metric name (the registry does not sort for them).
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };
std::string_view metric_kind_name(MetricKind kind) noexcept;

/// Monotonic event count. Snapshots merge counters by summing.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level (queue depth high-water marks, utilization).
/// Snapshots merge gauges by taking the max — the only order-independent
/// combination that is meaningful for the level-style series we export.
class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  void add(double delta) noexcept { value_ += delta; }
  double value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Distribution of values (latencies in ns). Snapshots merge histograms
/// with LogHistogram::merge (bucket-exact).
class Histogram {
 public:
  explicit Histogram(int precision_bits) : histogram_(precision_bits) {}
  void record(std::uint64_t value) { histogram_.record(value); }
  void record_n(std::uint64_t value, std::uint64_t n) {
    histogram_.record_n(value, n);
  }
  const stats::LogHistogram& data() const noexcept { return histogram_; }
  /// Bucket-exact fold-in; `other` must have equal precision.
  void merge(const stats::LogHistogram& other) { histogram_.merge(other); }
  void reset() { histogram_.reset(); }

 private:
  stats::LogHistogram histogram_;
};

/// One series, frozen. `counter`/`gauge`/`histogram` is meaningful per
/// `kind`; the others stay default-constructed (an empty histogram holds
/// no buckets, so counter and gauge series allocate none).
struct SeriesSnapshot {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;
  double gauge = 0.0;
  stats::LogHistogram histogram{7};

  /// "name" or "name{k=v,k=v}" — the display/JSON key of the series.
  std::string key() const;

  friend bool operator==(const SeriesSnapshot& a, const SeriesSnapshot& b) {
    return a.name == b.name && a.labels == b.labels && a.kind == b.kind &&
           a.counter == b.counter && a.gauge == b.gauge &&
           a.histogram == b.histogram;
  }
};

/// A frozen, order-stable view of a registry. Comparable bit-exactly
/// (the thread-count determinism golden relies on this) and mergeable
/// across per-point registries.
struct MetricsSnapshot {
  static constexpr std::string_view kSchema = "meshnet-metrics-v1";

  /// Sorted by (name, labels) — the registry's iteration order.
  std::vector<SeriesSnapshot> series;

  const SeriesSnapshot* find(std::string_view name,
                             const Labels& labels = {}) const;

  /// Sum of every counter series named `name` whose labels include each
  /// pair in `match` (all of them when `match` is empty); 0 when none.
  std::uint64_t counter_sum(std::string_view name,
                            const Labels& match = {}) const;

  /// Folds `other` in: counters sum, histograms merge, gauges take max.
  /// Series missing on either side are unioned in. Order-independent for
  /// counters/histograms; gauges chose max precisely so merging stays
  /// order-independent too. Taken by value: series only `other` has are
  /// moved out of it, so passing a temporary copies no series.
  void merge(MetricsSnapshot other);

  bool empty() const noexcept { return series.empty(); }

  /// meshnet-metrics-v1: {"schema": ..., "series": {"<key>": {...}}}.
  /// Counters emit {"kind":"counter","value":N} (compared exactly by
  /// bench_check), gauges {"kind":"gauge","value":X}, histograms a
  /// count/min/max/mean/p50/p90/p99 summary.
  util::Json to_json() const;

  friend bool operator==(const MetricsSnapshot& a, const MetricsSnapshot& b) {
    return a.series == b.series;
  }
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Interns (name, labels) and returns the cell. Repeated calls with the
  /// same identity return the same cell — callers cache the reference and
  /// never pay the lookup on the hot path.
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  Histogram& histogram(std::string_view name, const Labels& labels = {},
                       int precision_bits = 7);

  /// Lookup without creating; nullptr when absent or of a different kind.
  const Counter* find_counter(std::string_view name,
                              const Labels& labels = {}) const;
  const Gauge* find_gauge(std::string_view name,
                          const Labels& labels = {}) const;
  const Histogram* find_histogram(std::string_view name,
                                  const Labels& labels = {}) const;

  std::size_t series_count() const noexcept { return series_.size(); }

  /// Freezes every series, in sorted (name, labels) order.
  MetricsSnapshot snapshot() const;

  /// Folds another registry's current values into this one (counters sum,
  /// histograms merge, gauges max), creating missing series.
  void merge(const MetricRegistry& other);

  /// Zeroes every cell; the series stay interned (cached references held
  /// by adapters remain valid).
  void reset_values();

  /// Drops every series. Invalidates cached references — only for
  /// teardown/tests, never mid-flight.
  void clear();

 private:
  struct Series {
    std::string name;
    Labels labels;
    MetricKind kind;
    // Exactly one is non-null, matching `kind`. unique_ptr keeps cell
    // addresses stable even though the map itself is node-based anyway
    // (belt and braces: Series may move during map surgery in merge()).
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Series& intern(std::string_view name, const Labels& labels,
                 MetricKind kind, int precision_bits);
  const Series* lookup(std::string_view name, const Labels& labels) const;

  /// Keyed by an injective encoding of (name, labels) that sorts by name
  /// first, then label pairs — the deterministic snapshot order.
  std::map<std::string, Series, std::less<>> series_;
};

}  // namespace meshnet::obs
