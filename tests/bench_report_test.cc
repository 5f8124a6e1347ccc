// Tests for the bench report pipeline: JSON schema emission, file
// round-trip, and the baseline comparator that gates regressions.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/metric_registry.h"
#include "stats/bench_report.h"

namespace meshnet::stats {
namespace {

BenchReport sample_report() {
  BenchReport report;
  report.experiment = "fig4";
  report.config = {{"seed", "42"}, {"duration_s", "15"}};
  report.threads = 4;
  report.wall_ms = 1234.5;

  BenchPoint point;
  point.id = "rps=40/cross_layer=on";
  point.params = {{"rps", "40"}, {"cross_layer", "on"}};
  point.scalars = {{"ls_p50_ms", 9.5}, {"ls_p99_ms", 12.25}};
  point.counters = {{"ls_completed", 1200}, {"events", 987654}};
  LogHistogram latency;
  for (std::uint64_t v = 1; v <= 100; ++v) latency.record(v * 1000);
  point.histograms = {{"ls_latency_ns", latency}};
  point.wall_ms = 300.0;
  report.points.push_back(point);
  return report;
}

TEST(BenchReport, JsonSchemaShape) {
  const util::Json doc = sample_report().to_json();
  EXPECT_EQ(doc.find("schema")->string_or(""), "meshnet-bench-v1");
  EXPECT_EQ(doc.find("experiment")->string_or(""), "fig4");
  EXPECT_EQ(doc.find("config")->find("seed")->string_or(""), "42");
  EXPECT_EQ(doc.find("threads")->number_or(0), 4);

  const auto& points = doc.find("points")->items();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].find("id")->string_or(""), "rps=40/cross_layer=on");
  EXPECT_EQ(points[0].find("params")->find("rps")->string_or(""), "40");
  EXPECT_EQ(points[0].find("metrics")->find("ls_p99_ms")->number_or(0),
            12.25);
  EXPECT_EQ(points[0].find("counters")->find("events")->number_or(0),
            987654);
  const util::Json* histogram =
      points[0].find("histograms")->find("ls_latency_ns");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->find("count")->number_or(0), 100);
  EXPECT_GT(histogram->find("p99")->number_or(0), 0);
}

TEST(BenchReport, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "bench_report_rt.json";
  const BenchReport report = sample_report();
  ASSERT_EQ(report.write_file(path), "");
  std::string error;
  const auto loaded = load_report(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->dump(), report.to_json().dump());
  std::remove(path.c_str());
}

TEST(BenchReport, LoadReportsMissingFile) {
  std::string error;
  EXPECT_FALSE(load_report("/nonexistent/nope.json", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(BenchReport, WriteToBadPathFails) {
  EXPECT_NE(sample_report().write_file("/nonexistent/dir/x.json"), "");
}

TEST(BenchCompare, IdenticalReportsPass) {
  const util::Json doc = sample_report().to_json();
  const CompareOutcome outcome = compare_reports(doc, doc);
  EXPECT_TRUE(outcome.ok) << (outcome.failures.empty()
                                  ? ""
                                  : outcome.failures[0]);
  // 2 scalars + 2 counters + 7 histogram fields.
  EXPECT_EQ(outcome.compared, 11u);
}

TEST(BenchCompare, WallClockAndThreadsNeverCompared) {
  BenchReport current = sample_report();
  current.threads = 64;
  current.wall_ms = 1.0;
  current.points[0].wall_ms = 9999.0;
  const CompareOutcome outcome =
      compare_reports(sample_report().to_json(), current.to_json());
  EXPECT_TRUE(outcome.ok);
}

TEST(BenchCompare, MetricDriftOutsideToleranceFails) {
  BenchReport current = sample_report();
  current.points[0].scalars["ls_p99_ms"] = 13.0;  // ~6% off
  const CompareOutcome outcome =
      compare_reports(sample_report().to_json(), current.to_json());
  EXPECT_FALSE(outcome.ok);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_NE(outcome.failures[0].find("ls_p99_ms"), std::string::npos);
}

TEST(BenchCompare, PerMetricToleranceOverrides) {
  BenchReport current = sample_report();
  current.points[0].scalars["ls_p99_ms"] = 13.0;
  CompareOptions options;
  options.metric_tolerance["ls_p99_ms"] = 0.10;  // allow 10% on this one
  EXPECT_TRUE(compare_reports(sample_report().to_json(), current.to_json(),
                              options)
                  .ok);
  options.metric_tolerance["ls_p99_ms"] = 0.01;
  EXPECT_FALSE(compare_reports(sample_report().to_json(), current.to_json(),
                               options)
                   .ok);
}

TEST(BenchCompare, MissingPointFails) {
  BenchReport current = sample_report();
  current.points[0].id = "rps=50/cross_layer=on";
  const CompareOutcome outcome =
      compare_reports(sample_report().to_json(), current.to_json());
  EXPECT_FALSE(outcome.ok);
  ASSERT_FALSE(outcome.failures.empty());
  EXPECT_NE(outcome.failures[0].find("missing point"), std::string::npos);
}

TEST(BenchCompare, ExtraCurrentPointFails) {
  // A sweep that grows an arm must not pass with the new arm ungated.
  BenchReport current = sample_report();
  BenchPoint extra = current.points[0];
  extra.id = "rps=50/cross_layer=on";
  current.points.push_back(extra);
  const CompareOutcome outcome =
      compare_reports(sample_report().to_json(), current.to_json());
  EXPECT_FALSE(outcome.ok);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_NE(outcome.failures[0].find("point not in baseline"),
            std::string::npos);
  EXPECT_NE(outcome.failures[0].find("rps=50/cross_layer=on"),
            std::string::npos);
}

TEST(BenchCompare, ExtraCurrentMetricsAreIgnored) {
  // Adding metrics after a baseline was captured must not break it.
  BenchReport current = sample_report();
  current.points[0].scalars["brand_new_metric"] = 7.0;
  current.points[0].counters["brand_new_counter"] = 3;
  EXPECT_TRUE(
      compare_reports(sample_report().to_json(), current.to_json()).ok);
}

TEST(BenchCompare, MissingBaselineMetricFails) {
  BenchReport baseline = sample_report();
  baseline.points[0].scalars["retired_metric"] = 1.0;
  const CompareOutcome outcome =
      compare_reports(baseline.to_json(), sample_report().to_json());
  EXPECT_FALSE(outcome.ok);
  ASSERT_FALSE(outcome.failures.empty());
  EXPECT_NE(outcome.failures[0].find("retired_metric"), std::string::npos);
}

TEST(BenchCompare, ExperimentMismatchFails) {
  BenchReport current = sample_report();
  current.experiment = "li_degradation";
  const CompareOutcome outcome =
      compare_reports(sample_report().to_json(), current.to_json());
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.failures[0].find("experiment mismatch"),
            std::string::npos);
}

// --------------------------------- the unified "metrics" block --------

BenchReport report_with_metrics(std::uint64_t requests) {
  BenchReport report = sample_report();
  obs::MetricRegistry registry;
  registry.counter("mesh_requests_total").inc(requests);
  registry.gauge("engine_max_queue_depth").set(17.0);
  registry.histogram("span_duration_ns", {{"service", "gateway"}})
      .record(5000);
  report.metrics = registry.snapshot().to_json();
  return report;
}

TEST(BenchReport, MetricsBlockRoundTrips) {
  const BenchReport report = report_with_metrics(12);
  const util::Json doc = report.to_json();
  const util::Json* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("schema")->string_or(""), "meshnet-metrics-v1");
  const util::Json* series = metrics->find("series");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->find("mesh_requests_total")->find("value")->number_or(0),
            12.0);
  // A report without a snapshot emits no "metrics" key at all.
  EXPECT_EQ(sample_report().to_json().find("metrics"), nullptr);
}

TEST(BenchCompare, MetricsBlockGatesExactly) {
  const util::Json baseline = report_with_metrics(12).to_json();
  EXPECT_TRUE(compare_reports(baseline, baseline).ok);
  // A single counter drifting by one fails the gate.
  const util::Json drifted = report_with_metrics(13).to_json();
  const CompareOutcome outcome = compare_reports(baseline, drifted);
  EXPECT_FALSE(outcome.ok);
  ASSERT_FALSE(outcome.failures.empty());
  EXPECT_NE(outcome.failures[0].find("metrics.series.mesh_requests_total"),
            std::string::npos);
}

TEST(BenchCompare, BaselineMetricsBlockRequiredInCurrent) {
  const util::Json baseline = report_with_metrics(12).to_json();
  const CompareOutcome outcome =
      compare_reports(baseline, sample_report().to_json());
  EXPECT_FALSE(outcome.ok);
  ASSERT_FALSE(outcome.failures.empty());
  EXPECT_NE(outcome.failures[0].find("missing top-level 'metrics'"),
            std::string::npos);
  // The converse is fine: a current with metrics passes a pre-metrics
  // baseline untouched (fields only in current are ignored).
  EXPECT_TRUE(
      compare_reports(sample_report().to_json(), baseline).ok);
}

TEST(BenchCompare, ConfigMismatchFails) {
  BenchReport current = sample_report();
  current.config[0].second = "43";  // different seed
  const CompareOutcome outcome =
      compare_reports(sample_report().to_json(), current.to_json());
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.failures[0].find("config mismatch"), std::string::npos);
}

}  // namespace
}  // namespace meshnet::stats
