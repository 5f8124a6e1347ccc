#include "obs/metric_registry.h"

#include <algorithm>

namespace meshnet::obs {

namespace {

// Injective, sortable encoding of (name, labels). The separators are
// control characters that cannot appear in metric names or service-name
// label values, and they sort below every printable character, so the
// map order is "name first, then label pairs" — exactly the order
// snapshot() promises.
constexpr char kNameEnd = '\x01';
constexpr char kLabelKeyEnd = '\x02';
constexpr char kLabelValueEnd = '\x03';

std::string encode_key(std::string_view name, const Labels& labels) {
  std::size_t size = name.size() + 1;
  for (const auto& [key, value] : labels) {
    size += key.size() + value.size() + 2;
  }
  std::string encoded;
  encoded.reserve(size);
  encoded.append(name);
  encoded.push_back(kNameEnd);
  for (const auto& [key, value] : labels) {
    encoded.append(key);
    encoded.push_back(kLabelKeyEnd);
    encoded.append(value);
    encoded.push_back(kLabelValueEnd);
  }
  return encoded;
}

util::Json histogram_summary(const stats::LogHistogram& histogram) {
  util::Json summary = util::Json::object();
  summary.set("count", util::Json(histogram.count()));
  summary.set("min", util::Json(histogram.min()));
  summary.set("max", util::Json(histogram.max()));
  summary.set("mean", util::Json(histogram.mean()));
  summary.set("p50", util::Json(histogram.percentile(50.0)));
  summary.set("p90", util::Json(histogram.percentile(90.0)));
  summary.set("p99", util::Json(histogram.percentile(99.0)));
  return summary;
}

}  // namespace

std::string_view metric_kind_name(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "counter";
}

std::string SeriesSnapshot::key() const {
  std::string out = name;
  if (!labels.empty()) {
    out.push_back('{');
    bool first = true;
    for (const auto& [label_key, label_value] : labels) {
      if (!first) out.push_back(',');
      first = false;
      out.append(label_key);
      out.push_back('=');
      out.append(label_value);
    }
    out.push_back('}');
  }
  return out;
}

const SeriesSnapshot* MetricsSnapshot::find(std::string_view name,
                                            const Labels& labels) const {
  for (const SeriesSnapshot& entry : series) {
    if (entry.name == name && entry.labels == labels) return &entry;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_sum(std::string_view name,
                                           const Labels& match) const {
  std::uint64_t sum = 0;
  for (const SeriesSnapshot& entry : series) {
    if (entry.name != name || entry.kind != MetricKind::kCounter) continue;
    const bool matches = std::all_of(
        match.begin(), match.end(), [&entry](const auto& label) {
          return std::find(entry.labels.begin(), entry.labels.end(),
                           label) != entry.labels.end();
        });
    if (matches) sum += entry.counter;
  }
  return sum;
}

void MetricsSnapshot::merge(MetricsSnapshot other) {
  // Both sides are sorted by (name, labels) — the registry's encoded-key
  // order — so a classic sorted merge keeps the result sorted.
  const auto less = [](const SeriesSnapshot& a, const SeriesSnapshot& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  };
  std::vector<SeriesSnapshot> merged;
  merged.reserve(series.size() + other.series.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < series.size() || j < other.series.size()) {
    if (j >= other.series.size()) {
      merged.push_back(std::move(series[i++]));
      continue;
    }
    if (i >= series.size()) {
      merged.push_back(std::move(other.series[j++]));
      continue;
    }
    if (less(series[i], other.series[j])) {
      merged.push_back(std::move(series[i++]));
      continue;
    }
    if (less(other.series[j], series[i])) {
      merged.push_back(std::move(other.series[j++]));
      continue;
    }
    SeriesSnapshot combined = std::move(series[i++]);
    const SeriesSnapshot& theirs = other.series[j++];
    switch (combined.kind) {
      case MetricKind::kCounter:
        combined.counter += theirs.counter;
        break;
      case MetricKind::kGauge:
        combined.gauge = std::max(combined.gauge, theirs.gauge);
        break;
      case MetricKind::kHistogram:
        combined.histogram.merge(theirs.histogram);
        break;
    }
    merged.push_back(std::move(combined));
  }
  series = std::move(merged);
}

util::Json MetricsSnapshot::to_json() const {
  util::Json doc = util::Json::object();
  doc.set("schema", util::Json(kSchema));
  util::Json series_obj = util::Json::object();
  for (const SeriesSnapshot& entry : series) {
    util::Json value = util::Json::object();
    value.set("kind", util::Json(metric_kind_name(entry.kind)));
    switch (entry.kind) {
      case MetricKind::kCounter:
        value.set("value", util::Json(entry.counter));
        break;
      case MetricKind::kGauge:
        value.set("value", util::Json(entry.gauge));
        break;
      case MetricKind::kHistogram:
        value = histogram_summary(entry.histogram);
        value.set("kind", util::Json(metric_kind_name(entry.kind)));
        break;
    }
    series_obj.set(entry.key(), std::move(value));
  }
  doc.set("series", std::move(series_obj));
  return doc;
}

MetricRegistry::Series& MetricRegistry::intern(std::string_view name,
                                               const Labels& labels,
                                               MetricKind kind,
                                               int precision_bits) {
  std::string key = encode_key(name, labels);
  const auto it = series_.find(key);
  if (it != series_.end()) return it->second;
  Series entry;
  entry.name = std::string(name);
  entry.labels = labels;
  entry.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry.histogram = std::make_unique<Histogram>(precision_bits);
      break;
  }
  return series_.emplace(std::move(key), std::move(entry)).first->second;
}

const MetricRegistry::Series* MetricRegistry::lookup(
    std::string_view name, const Labels& labels) const {
  const auto it = series_.find(encode_key(name, labels));
  return it != series_.end() ? &it->second : nullptr;
}

Counter& MetricRegistry::counter(std::string_view name, const Labels& labels) {
  return *intern(name, labels, MetricKind::kCounter, 0).counter;
}

Gauge& MetricRegistry::gauge(std::string_view name, const Labels& labels) {
  return *intern(name, labels, MetricKind::kGauge, 0).gauge;
}

Histogram& MetricRegistry::histogram(std::string_view name,
                                     const Labels& labels,
                                     int precision_bits) {
  return *intern(name, labels, MetricKind::kHistogram, precision_bits)
              .histogram;
}

const Counter* MetricRegistry::find_counter(std::string_view name,
                                            const Labels& labels) const {
  const Series* entry = lookup(name, labels);
  return entry ? entry->counter.get() : nullptr;
}

const Gauge* MetricRegistry::find_gauge(std::string_view name,
                                        const Labels& labels) const {
  const Series* entry = lookup(name, labels);
  return entry ? entry->gauge.get() : nullptr;
}

const Histogram* MetricRegistry::find_histogram(std::string_view name,
                                                const Labels& labels) const {
  const Series* entry = lookup(name, labels);
  return entry ? entry->histogram.get() : nullptr;
}

MetricsSnapshot MetricRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.series.reserve(series_.size());
  for (const auto& [key, entry] : series_) {
    SeriesSnapshot frozen;
    frozen.name = entry.name;
    frozen.labels = entry.labels;
    frozen.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        frozen.counter = entry.counter->value();
        break;
      case MetricKind::kGauge:
        frozen.gauge = entry.gauge->value();
        break;
      case MetricKind::kHistogram:
        frozen.histogram = entry.histogram->data();
        break;
    }
    snap.series.push_back(std::move(frozen));
  }
  return snap;
}

void MetricRegistry::merge(const MetricRegistry& other) {
  for (const auto& [key, theirs] : other.series_) {
    switch (theirs.kind) {
      case MetricKind::kCounter:
        counter(theirs.name, theirs.labels).inc(theirs.counter->value());
        break;
      case MetricKind::kGauge: {
        Gauge& mine = gauge(theirs.name, theirs.labels);
        mine.set(std::max(mine.value(), theirs.gauge->value()));
        break;
      }
      case MetricKind::kHistogram: {
        histogram(theirs.name, theirs.labels,
                  theirs.histogram->data().precision_bits())
            .merge(theirs.histogram->data());
        break;
      }
    }
  }
}

}  // namespace meshnet::obs
