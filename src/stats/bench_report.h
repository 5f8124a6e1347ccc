#pragma once

// Machine-readable bench reports: a stable JSON schema for sweep results,
// plus the comparator that gates regressions against a committed baseline.
//
// Schema (version meshnet-bench-v1), one document per experiment:
//
//   {
//     "schema": "meshnet-bench-v1",
//     "experiment": "fig4",
//     "config": {"seed": "42", "duration_s": "15", ...},
//     "threads": 8,              // informational, never compared
//     "wall_ms": 4821.3,         // host wall-clock, never compared
//     "points": [
//       {
//         "id": "rps=40/cross_layer=on",
//         "params": {"rps": "40", "cross_layer": "on"},
//         "metrics": {"ls_p50_ms": 9.6, "ls_p99_ms": 10.9, ...},
//         "counters": {"ls_completed": 1234, ...},
//         "histograms": {
//           "ls_latency_ns": {"count": 1234, "min": ..., "max": ...,
//                              "mean": ..., "p50": ..., "p90": ...,
//                              "p99": ...}
//         },
//         "wall_ms": 412.0       // host wall-clock, never compared
//       }, ...
//     ]
//   }
//
// Everything except the wall_ms/threads fields is a pure function of the
// config (the simulator is deterministic), so baselines compare exactly up
// to floating-point round-trip; the comparator still takes per-metric
// relative tolerances so a baseline can survive intentional noise (e.g.
// comparing across compilers) without being refreshed.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "stats/histogram.h"
#include "util/json.h"

namespace meshnet::stats {

struct BenchPoint {
  std::string id;
  std::vector<std::pair<std::string, std::string>> params;
  std::map<std::string, double> scalars;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, LogHistogram> histograms;
  double wall_ms = 0.0;
};

struct BenchReport {
  std::string experiment;
  std::vector<std::pair<std::string, std::string>> config;
  int threads = 1;
  double wall_ms = 0.0;
  /// Host-side engine profile (events/sec etc). Serialized under a
  /// top-level "engine" object that the comparator never visits — these
  /// numbers are machine-dependent and must not gate baselines.
  std::vector<std::pair<std::string, double>> engine;
  std::vector<BenchPoint> points;
  /// Optional unified observability snapshot (schema meshnet-metrics-v1,
  /// see obs/metric_registry.h). When set to an object it is serialized
  /// under a top-level "metrics" key and gated by the comparator like any
  /// other deterministic section (counters exactly, wall_* never).
  util::Json metrics;

  util::Json to_json() const;

  /// Writes the pretty-printed document to `path` ("BENCH_<id>.json" by
  /// convention). Returns an empty string on success, else the error.
  std::string write_file(const std::string& path) const;
};

/// Reads and parses a report file. On failure returns nullopt and stores a
/// message in `error` if non-null.
std::optional<util::Json> load_report(const std::string& path,
                                      std::string* error = nullptr);

struct CompareOptions {
  /// Relative tolerance applied to every numeric metric without a
  /// per-metric override. The default absorbs float round-trip noise
  /// only — sim output is deterministic, so baselines should match.
  double default_tolerance = 1e-9;

  /// Per-metric overrides, keyed by the leaf metric name as it appears in
  /// the report ("ls_p99_ms", or a histogram field like "p99").
  std::map<std::string, double> metric_tolerance;
};

struct CompareOutcome {
  bool ok = true;
  std::size_t compared = 0;            ///< numeric comparisons performed
  std::vector<std::string> failures;   ///< human-readable, one per problem
};

/// Compares `current` against `baseline` (both parsed report documents).
/// Rules: experiments and configs must match; the two reports must hold
/// the same point ids (a point only in current fails, or it would go
/// ungated); every numeric metric/counter/histogram field in
/// the baseline must be present in current and within tolerance; if the
/// baseline carries a top-level "metrics" object (meshnet-metrics-v1), it
/// must exist in current and every numeric leaf is compared the same way.
/// Other fields only in `current` are ignored (adding metrics does not
/// break a baseline); "wall_ms", "threads", any "wall_*"-named metric, and the
/// top-level "engine" object are never compared.
CompareOutcome compare_reports(const util::Json& baseline,
                               const util::Json& current,
                               const CompareOptions& options = {});

}  // namespace meshnet::stats
