#pragma once

// Thread-pool-backed experiment harness for parameter sweeps.
//
// The paper's evaluation (§4.3, Fig. 4) is a sweep — LS/LI latency across
// 10–50 RPS, with/without cross-layer optimization. Every sweep point is a
// single-threaded pure function of (config, seed): it builds its own
// Simulator with its own named PRNG streams, runs to completion, and
// returns metrics (DESIGN.md §6). Points are therefore embarrassingly
// parallel, and this runner fans them across a util::ThreadPool while
// guaranteeing BIT-IDENTICAL output regardless of thread count:
//
//   * results are stored in a pre-sized slot per point and assembled in
//     input order, never in completion order;
//   * cross-point aggregates (histogram/RunningStats merges) are computed
//     after the join, walking points in input order, so floating-point
//     accumulation order is fixed;
//   * per-simulation process state (the HTTP request-id counter) is
//     thread-local and reset by each experiment, so a point draws the
//     same sequences it would single-threaded.
//
// The only fields that may differ between runs are host wall-clock times,
// which the bench comparator (stats/bench_report.h) excludes.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metric_registry.h"
#include "stats/bench_report.h"
#include "stats/histogram.h"
#include "stats/running_stats.h"

namespace meshnet::workload {

/// What one sweep point reports back. All maps are keyed by metric name;
/// keys present in several points merge into SweepResult's aggregates.
struct PointMetrics {
  std::map<std::string, double> scalars;           ///< e.g. "ls_p99_ms"
  std::map<std::string, std::uint64_t> counters;   ///< e.g. "events"
  std::map<std::string, stats::LogHistogram> histograms;  ///< raw samples
  /// The point's unified meshnet-metrics-v1 snapshot (may be empty).
  obs::MetricsSnapshot snapshot;

  /// Bit-exact: the thread-count identity checks rely on it.
  friend bool operator==(const PointMetrics&, const PointMetrics&) = default;
};

/// One point of a sweep: a stable id, the parameters that define it (kept
/// ordered for stable report output), and the pure function that runs it.
struct SweepPoint {
  std::string id;  ///< unique within the sweep, e.g. "rps=40/cross_layer=on"
  std::vector<std::pair<std::string, std::string>> params;
  std::function<PointMetrics()> run;
};

struct SweepPointResult {
  std::string id;
  std::vector<std::pair<std::string, std::string>> params;
  PointMetrics metrics;
  double wall_ms = 0.0;  ///< host time; excluded from determinism claims
};

struct SweepResult {
  std::vector<SweepPointResult> points;  ///< in input order
  int threads_used = 1;
  double wall_ms = 0.0;  ///< host time for the whole sweep

  /// Cross-point aggregates, merged in input order (deterministic):
  /// histograms by name, counter sums by name, and the distribution of
  /// per-point wall-clock (for harness tuning, not for comparison).
  std::map<std::string, stats::LogHistogram> merged_histograms;
  std::map<std::string, std::uint64_t> merged_counters;
  stats::RunningStats point_wall_ms;
  /// Union of the points' snapshots, folded in input order (counters sum,
  /// histograms merge, gauges max) — the whole-sweep observability view.
  obs::MetricsSnapshot merged_snapshot;
};

struct SweepOptions {
  /// Worker threads; 0 means one per hardware thread.
  int threads = 1;

  /// Emit one stderr line as each point finishes (completion order, so
  /// informational only; stdout is never written by the runner).
  bool progress = false;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Adds a point. Ids should be unique; the comparator matches baseline
  /// points by id.
  void add(SweepPoint point);

  /// Convenience: build the id from "key=value" params and add.
  void add(std::vector<std::pair<std::string, std::string>> params,
           std::function<PointMetrics()> run);

  std::size_t point_count() const noexcept { return points_.size(); }

  /// Runs every added point across the pool, blocks until all complete,
  /// and returns assembled results. Rethrows the first exception any
  /// point raised. The runner can be reused (points stay added).
  SweepResult run();

 private:
  SweepOptions options_;
  std::vector<SweepPoint> points_;
};

/// Packages a sweep's results as a bench report ready for
/// BenchReport::write_file / compare_reports. `config` should pin every
/// knob needed to reproduce the run (seed, durations, rps levels, ...).
stats::BenchReport make_bench_report(
    std::string experiment,
    std::vector<std::pair<std::string, std::string>> config,
    const SweepResult& sweep);

}  // namespace meshnet::workload
