#include "workload/sweep_runner.h"

#include <chrono>
#include <cstdio>
#include <mutex>

#include "util/thread_pool.h"

namespace meshnet::workload {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

void SweepRunner::add(
    std::vector<std::pair<std::string, std::string>> params,
    std::function<PointMetrics()> run) {
  SweepPoint point;
  for (const auto& [key, value] : params) {
    if (!point.id.empty()) point.id += '/';
    point.id += key + '=' + value;
  }
  point.params = std::move(params);
  point.run = std::move(run);
  points_.push_back(std::move(point));
}

SweepResult SweepRunner::run() {
  const auto sweep_start = std::chrono::steady_clock::now();
  SweepResult result;
  result.points.resize(points_.size());

  util::ThreadPool pool(options_.threads);
  result.threads_used = pool.thread_count();

  std::mutex progress_mutex;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    pool.submit([this, i, &result, &progress_mutex, &completed] {
      const SweepPoint& point = points_[i];
      const auto point_start = std::chrono::steady_clock::now();
      SweepPointResult& slot = result.points[i];  // distinct slot per point
      slot.id = point.id;
      slot.params = point.params;
      slot.metrics = point.run();
      slot.wall_ms = elapsed_ms(point_start);
      if (options_.progress) {
        std::lock_guard<std::mutex> lock(progress_mutex);
        ++completed;
        std::fprintf(stderr, "  [%zu/%zu] %s  (%.0f ms)\n", completed,
                     points_.size(), point.id.c_str(), slot.wall_ms);
      }
    });
  }
  pool.wait_idle();

  // Aggregate strictly in input order so merges are deterministic.
  for (const SweepPointResult& point : result.points) {
    result.merged_snapshot.merge(point.metrics.snapshot);
  }
  result.wall_ms = elapsed_ms(sweep_start);
  return result;
}

stats::BenchReport make_bench_report(
    std::string experiment,
    std::vector<std::pair<std::string, std::string>> config,
    const SweepResult& sweep) {
  stats::BenchReport report;
  report.experiment = std::move(experiment);
  report.config = std::move(config);
  report.threads = sweep.threads_used;
  report.wall_ms = sweep.wall_ms;
  report.points.reserve(sweep.points.size());
  for (const SweepPointResult& point : sweep.points) {
    stats::BenchPoint out;
    out.id = point.id;
    out.params = point.params;
    out.scalars = point.metrics.scalars;
    out.counters = point.metrics.counters;
    out.histograms = point.metrics.histograms;
    out.wall_ms = point.wall_ms;
    report.points.push_back(std::move(out));
  }
  if (!sweep.merged_snapshot.empty()) {
    report.metrics = sweep.merged_snapshot.to_json();
  }
  return report;
}

}  // namespace meshnet::workload
