#include "stats/bench_report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace meshnet::stats {

namespace {

util::Json histogram_summary(const LogHistogram& histogram) {
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

double tolerance_for(std::string_view leaf, const CompareOptions& options) {
  const auto it = options.metric_tolerance.find(std::string(leaf));
  return it != options.metric_tolerance.end() ? it->second
                                              : options.default_tolerance;
}

bool within_tolerance(double baseline, double current, double tolerance) {
  const double diff = std::fabs(current - baseline);
  if (diff == 0.0) return true;
  const double scale = std::max(std::fabs(baseline), std::fabs(current));
  return diff <= tolerance * scale;
}

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", value);
  return buf;
}

/// Compares every numeric member of `baseline_obj` against `current_obj`,
/// recursing into nested objects. `path` names the location for messages;
/// the leaf key selects the tolerance.
void compare_numeric_members(const util::Json& baseline_obj,
                             const util::Json& current_obj,
                             const std::string& path,
                             const CompareOptions& options,
                             CompareOutcome& outcome) {
  for (const auto& [key, baseline_value] : baseline_obj.members()) {
    // Anything wall-clock-derived is machine-dependent by construction
    // and must never gate: "wall_ms", "threads", and any "wall_*" metric
    // (e.g. wall_events_per_sec from the engine profiler).
    if (key == "wall_ms" || key == "threads" ||
        key.compare(0, 5, "wall_") == 0) {
      continue;
    }
    const std::string member_path = path + "." + key;
    const util::Json* current_value = current_obj.find(key);
    if (!current_value) {
      outcome.ok = false;
      outcome.failures.push_back("missing in current: " + member_path);
      continue;
    }
    if (baseline_value.is_object()) {
      if (!current_value->is_object()) {
        outcome.ok = false;
        outcome.failures.push_back("not an object in current: " +
                                   member_path);
        continue;
      }
      compare_numeric_members(baseline_value, *current_value, member_path,
                              options, outcome);
      continue;
    }
    if (!baseline_value.is_number()) continue;  // ids/params handled upstream
    if (!current_value->is_number()) {
      outcome.ok = false;
      outcome.failures.push_back("not a number in current: " + member_path);
      continue;
    }
    ++outcome.compared;
    const double tolerance = tolerance_for(key, options);
    const double base = baseline_value.number_or(0.0);
    const double cur = current_value->number_or(0.0);
    if (!within_tolerance(base, cur, tolerance)) {
      outcome.ok = false;
      outcome.failures.push_back(
          member_path + ": baseline " + format_double(base) + " vs current " +
          format_double(cur) + " (tolerance " + format_double(tolerance) +
          ")");
    }
  }
}

const util::Json* find_point(const util::Json& points, std::string_view id) {
  for (const util::Json& point : points.items()) {
    const util::Json* point_id = point.find("id");
    if (point_id && point_id->string_or("") == id) return &point;
  }
  return nullptr;
}

}  // namespace

util::Json BenchReport::to_json() const {
  util::Json doc = util::Json::object();
  doc.set("schema", util::Json("meshnet-bench-v1"));
  doc.set("experiment", util::Json(experiment));
  util::Json config_obj = util::Json::object();
  for (const auto& [key, value] : config) {
    config_obj.set(key, util::Json(value));
  }
  doc.set("config", std::move(config_obj));
  doc.set("threads", util::Json(threads));
  doc.set("wall_ms", util::Json(wall_ms));
  if (!engine.empty()) {
    util::Json engine_obj = util::Json::object();
    for (const auto& [key, value] : engine) {
      engine_obj.set(key, util::Json(value));
    }
    doc.set("engine", std::move(engine_obj));
  }

  util::Json points_array = util::Json::array();
  for (const BenchPoint& point : points) {
    util::Json point_obj = util::Json::object();
    point_obj.set("id", util::Json(point.id));
    util::Json params_obj = util::Json::object();
    for (const auto& [key, value] : point.params) {
      params_obj.set(key, util::Json(value));
    }
    point_obj.set("params", std::move(params_obj));
    util::Json metrics_obj = util::Json::object();
    for (const auto& [name, value] : point.scalars) {
      metrics_obj.set(name, util::Json(value));
    }
    point_obj.set("metrics", std::move(metrics_obj));
    util::Json counters_obj = util::Json::object();
    for (const auto& [name, value] : point.counters) {
      counters_obj.set(name, util::Json(value));
    }
    point_obj.set("counters", std::move(counters_obj));
    util::Json histograms_obj = util::Json::object();
    for (const auto& [name, histogram] : point.histograms) {
      histograms_obj.set(name, histogram_summary(histogram));
    }
    point_obj.set("histograms", std::move(histograms_obj));
    point_obj.set("wall_ms", util::Json(point.wall_ms));
    points_array.push_back(std::move(point_obj));
  }
  doc.set("points", std::move(points_array));
  if (metrics.is_object()) doc.set("metrics", metrics);
  return doc;
}

std::string BenchReport::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return "cannot open " + path + " for writing";
  out << to_json().dump(2);
  out.flush();
  if (!out) return "write to " + path + " failed";
  return "";
}

std::optional<util::Json> load_report(const std::string& path,
                                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  std::optional<util::Json> doc = util::Json::parse(buffer.str(),
                                                    &parse_error);
  if (!doc && error) *error = path + ": " + parse_error;
  return doc;
}

CompareOutcome compare_reports(const util::Json& baseline,
                               const util::Json& current,
                               const CompareOptions& options) {
  CompareOutcome outcome;

  const auto string_field = [](const util::Json& doc, std::string_view key) {
    const util::Json* value = doc.find(key);
    return value ? value->string_or("") : std::string();
  };
  if (string_field(baseline, "experiment") !=
      string_field(current, "experiment")) {
    outcome.ok = false;
    outcome.failures.push_back(
        "experiment mismatch: baseline '" +
        string_field(baseline, "experiment") + "' vs current '" +
        string_field(current, "experiment") + "'");
    return outcome;
  }

  // Config must describe the same run (strings compared exactly).
  const util::Json* baseline_config = baseline.find("config");
  const util::Json* current_config = current.find("config");
  if (baseline_config && current_config) {
    for (const auto& [key, value] : baseline_config->members()) {
      const util::Json* current_value = current_config->find(key);
      if (!current_value ||
          current_value->string_or("") != value.string_or("")) {
        outcome.ok = false;
        outcome.failures.push_back(
            "config mismatch on '" + key + "': baseline '" +
            value.string_or("") + "' vs current '" +
            (current_value ? current_value->string_or("") : "<absent>") +
            "'");
      }
    }
  }

  const util::Json* baseline_points = baseline.find("points");
  const util::Json* current_points = current.find("points");
  if (!baseline_points || !baseline_points->is_array() || !current_points ||
      !current_points->is_array()) {
    outcome.ok = false;
    outcome.failures.push_back("missing points array");
    return outcome;
  }
  for (const util::Json& baseline_point : baseline_points->items()) {
    const util::Json* id = baseline_point.find("id");
    const std::string point_id = id ? id->string_or("") : "";
    const util::Json* current_point = find_point(*current_points, point_id);
    if (!current_point) {
      outcome.ok = false;
      outcome.failures.push_back("missing point in current: '" + point_id +
                                 "'");
      continue;
    }
    for (const char* section : {"metrics", "counters", "histograms"}) {
      const util::Json* baseline_section = baseline_point.find(section);
      if (!baseline_section || !baseline_section->is_object()) continue;
      const util::Json* current_section = current_point->find(section);
      if (!current_section || !current_section->is_object()) {
        outcome.ok = false;
        outcome.failures.push_back("missing section '" +
                                   std::string(section) + "' in point '" +
                                   point_id + "'");
        continue;
      }
      compare_numeric_members(*baseline_section, *current_section,
                              point_id + "." + section, options, outcome);
    }
  }
  // A point the baseline lacks would go ungated: a sweep that grows an
  // arm must add it to the baseline too.
  for (const util::Json& current_point : current_points->items()) {
    const util::Json* id = current_point.find("id");
    const std::string point_id = id ? id->string_or("") : "";
    if (!find_point(*baseline_points, point_id)) {
      outcome.ok = false;
      outcome.failures.push_back("point not in baseline: '" + point_id + "'");
    }
  }

  // The unified observability snapshot, when the baseline carries one. Its
  // numeric leaves (counter/gauge values, histogram summaries) are pure
  // functions of the config, so they gate exactly like point sections;
  // string leaves ("schema", "kind") are skipped by the numeric walk.
  const util::Json* baseline_metrics = baseline.find("metrics");
  if (baseline_metrics && baseline_metrics->is_object()) {
    const util::Json* current_metrics = current.find("metrics");
    if (!current_metrics || !current_metrics->is_object()) {
      outcome.ok = false;
      outcome.failures.push_back("missing top-level 'metrics' in current");
    } else {
      compare_numeric_members(*baseline_metrics, *current_metrics, "metrics",
                              options, outcome);
    }
  }
  return outcome;
}

}  // namespace meshnet::stats
