#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/access_log.h"
#include "obs/event.h"
#include "obs/metric_registry.h"
#include "obs/span_exporter.h"
#include "util/json.h"

namespace meshnet::obs {
namespace {

// ------------------------------------------------------ interning --

TEST(MetricRegistry, InterningReturnsStableCells) {
  MetricRegistry registry;
  Counter& a = registry.counter("requests", {{"edge", "x"}});
  Counter& b = registry.counter("requests", {{"edge", "x"}});
  EXPECT_EQ(&a, &b);  // same identity -> same cell
  EXPECT_EQ(registry.series_count(), 1u);

  Counter& c = registry.counter("requests", {{"edge", "y"}});
  EXPECT_NE(&a, &c);  // different labels -> different series
  Counter& d = registry.counter("requests");
  EXPECT_NE(&a, &d);  // unlabeled is its own series
  EXPECT_EQ(registry.series_count(), 3u);

  a.inc(2);
  b.inc();
  EXPECT_EQ(a.value(), 3u);  // both handles hit the same cell
}

TEST(MetricRegistry, LabelOrderIsPartOfIdentity) {
  MetricRegistry registry;
  Counter& ab = registry.counter("m", {{"a", "1"}, {"b", "2"}});
  Counter& ba = registry.counter("m", {{"b", "2"}, {"a", "1"}});
  EXPECT_NE(&ab, &ba);
  EXPECT_EQ(registry.series_count(), 2u);
}

TEST(MetricRegistry, FindDoesNotCreate) {
  MetricRegistry registry;
  EXPECT_EQ(registry.find_counter("absent"), nullptr);
  EXPECT_EQ(registry.series_count(), 0u);
  registry.counter("present").inc();
  ASSERT_NE(registry.find_counter("present"), nullptr);
  EXPECT_EQ(registry.find_counter("present")->value(), 1u);
  // Kind-mismatched lookups return null rather than a wrong cell.
  EXPECT_EQ(registry.find_gauge("present"), nullptr);
}

// ------------------------------------------------------- snapshot --

TEST(MetricRegistry, SnapshotIsSortedByNameThenLabels) {
  MetricRegistry registry;
  registry.counter("zebra").inc();
  registry.counter("alpha", {{"k", "2"}}).inc();
  registry.counter("alpha", {{"k", "1"}}).inc();
  registry.gauge("middle").set(1.5);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.series.size(), 4u);
  EXPECT_EQ(snap.series[0].key(), "alpha{k=1}");
  EXPECT_EQ(snap.series[1].key(), "alpha{k=2}");
  EXPECT_EQ(snap.series[2].key(), "middle");
  EXPECT_EQ(snap.series[3].key(), "zebra");
}

TEST(MetricRegistry, SnapshotFindMatchesNameAndLabels) {
  MetricRegistry registry;
  registry.counter("hits", {{"edge", "x"}}).inc(7);
  const MetricsSnapshot snap = registry.snapshot();
  const SeriesSnapshot* series = snap.find("hits", {{"edge", "x"}});
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->kind, MetricKind::kCounter);
  EXPECT_EQ(series->counter, 7u);
  EXPECT_EQ(snap.find("hits"), nullptr);  // labels are part of identity
  EXPECT_EQ(snap.find("miss", {{"edge", "x"}}), nullptr);
}

TEST(MetricsSnapshot, CounterSumAddsEverySeriesMatchingNameAndLabels) {
  MetricRegistry registry;
  registry.counter("shed_total", {{"class", "ls"}, {"reason", "full"}})
      .inc(2);
  registry.counter("shed_total", {{"class", "li"}, {"reason", "full"}})
      .inc(5);
  registry.counter("shed_total", {{"class", "li"}, {"reason", "deadline"}})
      .inc(7);
  registry.counter("other_total", {{"class", "li"}}).inc(100);
  registry.gauge("shed_total", {{"class", "li"}}).set(3.0);  // not a counter
  const MetricsSnapshot snapshot = registry.snapshot();

  EXPECT_EQ(snapshot.counter_sum("absent_total"), 0u);
  EXPECT_EQ(snapshot.counter_sum("shed_total", {{"class", "none"}}), 0u);
  // No labels: every label set of the name.
  EXPECT_EQ(snapshot.counter_sum("shed_total"), 14u);
  // A subset of the labels matches wherever the series carries it.
  EXPECT_EQ(snapshot.counter_sum("shed_total", {{"class", "li"}}), 12u);
  EXPECT_EQ(snapshot.counter_sum("shed_total", {{"reason", "full"}}), 7u);
  EXPECT_EQ(snapshot.counter_sum("shed_total",
                                 {{"reason", "full"}, {"class", "li"}}),
            5u);
  // A label key with the wrong value, or a label the series lacks, does
  // not match.
  EXPECT_EQ(snapshot.counter_sum("shed_total", {{"reason", "li"}}), 0u);
  EXPECT_EQ(snapshot.counter_sum("other_total", {{"reason", "full"}}), 0u);
}

TEST(MetricsSnapshot, MergeSumsCountersMaxesGaugesMergesHistograms) {
  MetricRegistry r1;
  r1.counter("c").inc(3);
  r1.gauge("g").set(5.0);
  r1.histogram("h").record(100);
  r1.counter("only_r1").inc();

  MetricRegistry r2;
  r2.counter("c").inc(4);
  r2.gauge("g").set(2.0);
  r2.histogram("h").record(200);
  r2.counter("only_r2").inc(9);

  MetricsSnapshot merged = r1.snapshot();
  merged.merge(r2.snapshot());

  EXPECT_EQ(merged.find("c")->counter, 7u);
  EXPECT_EQ(merged.find("g")->gauge, 5.0);  // max, not sum
  EXPECT_EQ(merged.find("h")->histogram.count(), 2u);
  EXPECT_EQ(merged.find("only_r1")->counter, 1u);
  EXPECT_EQ(merged.find("only_r2")->counter, 9u);
  // The union stays sorted: c, g, h, only_r1, only_r2.
  ASSERT_EQ(merged.series.size(), 5u);
  EXPECT_EQ(merged.series[0].name, "c");
  EXPECT_EQ(merged.series[4].name, "only_r2");
}

TEST(MetricsSnapshot, MergeIsOrderIndependent) {
  MetricRegistry r1;
  r1.counter("c").inc(3);
  r1.gauge("g").set(1.0);
  r1.histogram("h").record(50);
  MetricRegistry r2;
  r2.counter("c").inc(4);
  r2.gauge("g").set(9.0);
  r2.histogram("h").record(5000);

  MetricsSnapshot forward = r1.snapshot();
  forward.merge(r2.snapshot());
  MetricsSnapshot backward = r2.snapshot();
  backward.merge(r1.snapshot());
  EXPECT_EQ(forward, backward);
}

TEST(MetricsSnapshot, MergeOfTemporaryEqualsMergeOfCopy) {
  MetricRegistry r1;
  r1.counter("c").inc(3);
  r1.gauge("g").set(1.0);
  r1.histogram("h").record(50);
  r1.counter("only_r1").inc();
  r1.histogram("only_r1_h").record(7);
  MetricRegistry r2;
  r2.counter("c").inc(4);
  r2.gauge("g").set(9.0);
  r2.histogram("h").record(5000000);
  r2.gauge("only_r2").set(2.5);
  r2.histogram("only_r2_h", {{"edge", "x"}}).record(123456);

  const MetricsSnapshot other = r2.snapshot();
  MetricsSnapshot from_copy = r1.snapshot();
  from_copy.merge(other);
  MetricsSnapshot from_temporary = r1.snapshot();
  from_temporary.merge(r2.snapshot());

  EXPECT_EQ(from_copy, from_temporary);
  EXPECT_EQ(other, r2.snapshot());  // an lvalue argument is left intact
  ASSERT_EQ(from_temporary.series.size(), 7u);
  EXPECT_EQ(from_temporary.find("c")->counter, 7u);
  EXPECT_EQ(from_temporary.find("g")->gauge, 9.0);
  EXPECT_EQ(from_temporary.find("h")->histogram.count(), 2u);
  EXPECT_EQ(from_temporary.find("only_r1")->counter, 1u);
  EXPECT_EQ(from_temporary.find("only_r1_h")->histogram,
            r1.find_histogram("only_r1_h")->data());
  EXPECT_EQ(from_temporary.find("only_r2")->gauge, 2.5);
  EXPECT_EQ(from_temporary.find("only_r2_h", {{"edge", "x"}})->histogram,
            r2.find_histogram("only_r2_h", {{"edge", "x"}})->data());
}

TEST(MetricRegistry, RegistryMergeFoldsValuesIntoCells) {
  MetricRegistry base;
  Counter& cached = base.counter("c");
  cached.inc(1);

  MetricRegistry other;
  other.counter("c").inc(10);
  other.gauge("g").set(3.0);
  other.histogram("h").record(42);

  base.merge(other);
  EXPECT_EQ(cached.value(), 11u);  // cached handle still valid
  ASSERT_NE(base.find_gauge("g"), nullptr);
  EXPECT_EQ(base.find_gauge("g")->value(), 3.0);
  ASSERT_NE(base.find_histogram("h"), nullptr);
  EXPECT_EQ(base.find_histogram("h")->data().count(), 1u);
}

TEST(MetricRegistry, ResetValuesKeepsSeriesInterned) {
  MetricRegistry registry;
  Counter& cell = registry.counter("c");
  cell.inc(5);
  registry.reset_values();
  EXPECT_EQ(cell.value(), 0u);
  EXPECT_EQ(registry.series_count(), 1u);
}

TEST(MetricsSnapshot, ToJsonEmitsSchemaAndTypedSeries) {
  MetricRegistry registry;
  registry.counter("c", {{"k", "v"}}).inc(3);
  registry.gauge("g").set(1.25);
  registry.histogram("h").record(1000);

  const util::Json doc = registry.snapshot().to_json();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->string_or(""), "meshnet-metrics-v1");
  const util::Json* series = doc.find("series");
  ASSERT_NE(series, nullptr);

  const util::Json* counter = series->find("c{k=v}");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->find("kind")->string_or(""), "counter");
  EXPECT_EQ(counter->find("value")->number_or(0), 3.0);

  const util::Json* gauge = series->find("g");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->find("kind")->string_or(""), "gauge");
  EXPECT_EQ(gauge->find("value")->number_or(0), 1.25);

  const util::Json* histogram = series->find("h");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->find("kind")->string_or(""), "histogram");
  EXPECT_EQ(histogram->find("count")->number_or(0), 1.0);
  ASSERT_NE(histogram->find("p99"), nullptr);
}

// ----------------------------------------------------- event kinds --

TEST(EventKind, RoundTripsThroughStrings) {
  for (int i = 0; i < kEventKindCount; ++i) {
    const auto kind = static_cast<EventKind>(i);
    const auto parsed = event_kind_from_string(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(event_kind_from_string("braker").has_value());  // the typo
  EXPECT_FALSE(event_kind_from_string("").has_value());
}

// ------------------------------------------------------ access log --

TEST(AccessLog, DisabledByDefaultAndFree) {
  MetricRegistry registry;
  AccessLog log(&registry);
  EXPECT_FALSE(log.enabled());
  EXPECT_FALSE(log.record({}));
  EXPECT_EQ(log.seen(), 0u);  // off means record() doesn't even count
  EXPECT_EQ(registry.find_counter("access_log_seen_total")->value(), 0u);
}

TEST(AccessLog, EveryNthSamplingIsDeterministic) {
  MetricRegistry registry;
  AccessLog log(&registry);
  log.set_sample_every(3);
  std::vector<int> kept;
  for (int i = 1; i <= 10; ++i) {
    AccessLogRecord record;
    record.status = i;
    if (log.record(std::move(record))) kept.push_back(i);
  }
  // The 1st, 4th, 7th, 10th records seen are kept, always.
  EXPECT_EQ(kept, (std::vector<int>{1, 4, 7, 10}));
  EXPECT_EQ(log.seen(), 10u);
  EXPECT_EQ(log.sampled(), 4u);
  ASSERT_EQ(log.records().size(), 4u);
  EXPECT_EQ(log.records()[1].status, 4);
  EXPECT_EQ(registry.find_counter("access_log_seen_total")->value(), 10u);
  EXPECT_EQ(registry.find_counter("access_log_records_total")->value(), 4u);
}

TEST(AccessLog, SampleEveryOneKeepsAll) {
  AccessLog log;
  log.set_sample_every(1);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(log.record({}));
  EXPECT_EQ(log.sampled(), 5u);
}

// ---------------------------------------------------- span exporter --

SpanRecord make_span(const std::string& service, sim::Time start,
                     sim::Time end, bool error = false) {
  SpanRecord span;
  span.trace_id = "t";
  span.span_id = "s";
  span.service = service;
  span.operation = "op";
  span.start = start;
  span.end = end;
  span.error = error;
  return span;
}

TEST(SpanExporter, RecordsMetricsEvenAtRetentionZero) {
  MetricRegistry registry;
  SpanExporter exporter(&registry);
  exporter.set_retention(0);  // the bench setting
  exporter.export_span(make_span("svc", 0, 100));
  exporter.export_span(make_span("svc", 0, 300, /*error=*/true));

  EXPECT_EQ(exporter.span_count(), 0u);  // nothing retained...
  EXPECT_EQ(exporter.exported_total(), 2u);
  const Labels labels = {{"service", "svc"}};
  // ...but the snapshot still carries the span statistics.
  EXPECT_EQ(registry.find_counter("spans_total", labels)->value(), 2u);
  EXPECT_EQ(registry.find_counter("span_errors_total", labels)->value(), 1u);
  EXPECT_EQ(registry.find_histogram("span_duration_ns", labels)
                ->data()
                .count(),
            2u);
}

TEST(SpanExporter, RetentionBoundsStorage) {
  SpanExporter exporter;
  exporter.set_retention(2);
  exporter.export_span(make_span("a", 0, 1));
  exporter.export_span(make_span("b", 0, 2));
  exporter.export_span(make_span("c", 0, 3));
  ASSERT_EQ(exporter.span_count(), 2u);
  // The most recent spans survive.
  EXPECT_EQ(exporter.spans()[0].service, "b");
  EXPECT_EQ(exporter.spans()[1].service, "c");
  EXPECT_EQ(exporter.exported_total(), 3u);
}

TEST(SpanExporter, SinksSeeEverySpan) {
  SpanExporter exporter;
  exporter.set_retention(0);
  int seen = 0;
  exporter.add_sink([&](const SpanRecord& span) {
    ++seen;
    EXPECT_EQ(span.service, "svc");
  });
  exporter.export_span(make_span("svc", 0, 1));
  exporter.export_span(make_span("svc", 1, 2));
  EXPECT_EQ(seen, 2);
}

}  // namespace
}  // namespace meshnet::obs
