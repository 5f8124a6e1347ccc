#include "workload/bench_harness.h"

#include <cstdio>

namespace meshnet::workload {

// Weak fallback: binaries that do not link bench/alloc_counter.cc (the
// examples) report no allocation profile. The attribute form is portable
// across the gcc/clang matrix; MSVC is not a supported toolchain here.
__attribute__((weak)) std::uint64_t bench_allocation_count() noexcept {
  return 0;
}

HarnessOptions parse_harness_flags(
    int argc, const char* const* argv, std::string_view experiment,
    std::int64_t default_duration_s, std::uint64_t default_seed,
    const std::vector<std::string_view>& extra_flags,
    const std::vector<std::string_view>& extra_prefixes) {
  std::vector<std::string_view> known = {"threads",  "json-out", "baseline",
                                         "tolerance", "duration", "seed"};
  known.insert(known.end(), extra_flags.begin(), extra_flags.end());

  HarnessOptions options;
  options.flags = util::Flags::parse_or_die(argc, argv, known, extra_prefixes);
  options.threads =
      static_cast<int>(options.flags.get_int_or("threads", 1));
  options.json_out = options.flags.get_or("json-out", "");
  if (options.json_out == "true") {  // bare --json-out
    options.json_out = "BENCH_" + std::string(experiment) + ".json";
  }
  options.baseline = options.flags.get_or("baseline", "");
  options.tolerance = options.flags.get_double_or("tolerance", 1e-9);
  options.duration_s =
      options.flags.get_int_or("duration", default_duration_s);
  options.seed = static_cast<std::uint64_t>(options.flags.get_int_or(
      "seed", static_cast<std::int64_t>(default_seed)));
  return options;
}

SweepOptions sweep_options(const HarnessOptions& options) {
  SweepOptions sweep;
  sweep.threads = options.threads;
  sweep.progress = true;
  return sweep;
}

int finish_harness(const stats::BenchReport& input,
                   const HarnessOptions& options) {
  stats::BenchReport report = input;
  // Engine throughput profile: host wall-clock events/sec across the
  // whole run. Lives under the top-level "engine" object and "wall_"
  // names, which the comparator never visits (machine-dependent).
  double total_events = 0.0;
  for (const stats::BenchPoint& point : report.points) {
    const auto it = point.counters.find("events");
    if (it != point.counters.end()) {
      total_events += static_cast<double>(it->second);
    }
  }
  if (total_events > 0.0 && report.wall_ms > 0.0) {
    report.engine.emplace_back("wall_events_total", total_events);
    report.engine.emplace_back("wall_events_per_sec",
                               total_events / (report.wall_ms / 1000.0));
  }
  // Allocation profile (zero-alloc discipline, measured): present only in
  // binaries that link the counting allocator. Process-lifetime counts,
  // so the per-event figure includes setup — an upper bound, comparable
  // run to run on the same binary, and like all wall_* fields never part
  // of baseline comparisons.
  const double total_allocs =
      static_cast<double>(bench_allocation_count());
  if (total_allocs > 0.0 && total_events > 0.0) {
    report.engine.emplace_back("wall_allocs_total", total_allocs);
    report.engine.emplace_back("wall_allocs_per_event",
                               total_allocs / total_events);
  }
  if (!options.json_out.empty()) {
    const std::string error = report.write_file(options.json_out);
    if (!error.empty()) {
      std::fprintf(stderr, "json-out: %s\n", error.c_str());
      return 2;
    }
    std::fprintf(stderr, "wrote %s (%zu points)\n", options.json_out.c_str(),
                 report.points.size());
  }
  if (!options.baseline.empty()) {
    std::string error;
    const auto baseline = stats::load_report(options.baseline, &error);
    if (!baseline) {
      std::fprintf(stderr, "baseline: %s\n", error.c_str());
      return 2;
    }
    stats::CompareOptions compare;
    compare.default_tolerance = options.tolerance;
    const stats::CompareOutcome outcome =
        stats::compare_reports(*baseline, report.to_json(), compare);
    for (const std::string& failure : outcome.failures) {
      std::fprintf(stderr, "FAIL %s\n", failure.c_str());
    }
    std::printf("baseline %s: %zu comparisons, %zu failures — %s\n",
                options.baseline.c_str(), outcome.compared,
                outcome.failures.size(), outcome.ok ? "OK" : "REGRESSION");
    if (!outcome.ok) return 1;
  }
  return 0;
}

PointMetrics parsim_point_metrics(const ParsimExperimentResult& result) {
  PointMetrics metrics;
  // Workload surface: invariant across shard AND thread counts (the
  // ShardInvariance property test compares exactly the non-engine_* keys
  // plus the snapshot).
  metrics.counters["requests_generated"] = result.requests_generated;
  metrics.counters["leaf_completions"] = result.leaf_completions;
  metrics.counters["service_visits"] = result.service_visits;
  // The e2e histogram is recorded in MICROSECONDS (see parsim_experiment).
  metrics.scalars["e2e_p50_ms"] =
      static_cast<double>(result.e2e_latency.percentile(50.0)) / 1000.0;
  metrics.scalars["e2e_p99_ms"] =
      static_cast<double>(result.e2e_latency.percentile(99.0)) / 1000.0;
  metrics.scalars["e2e_mean_ms"] = result.e2e_latency.mean() / 1000.0;
  metrics.histograms["e2e_latency_us"] = result.e2e_latency;
  metrics.snapshot = result.metrics;
  metrics.counters["services"] = static_cast<std::uint64_t>(result.services);
  metrics.counters["edges"] = static_cast<std::uint64_t>(result.edges);
  // Engine surface: thread-invariant for a fixed shard count, shard-
  // DEPENDENT otherwise — everything below is named engine_* (or is the
  // harness's "events" throughput counter) so shard comparisons can
  // exclude it wholesale.
  metrics.counters["events"] = result.events_executed;
  metrics.counters["engine_cut_edges"] =
      static_cast<std::uint64_t>(result.cut_edges);
  metrics.counters["engine_lookahead_ns"] =
      static_cast<std::uint64_t>(result.lookahead);
  metrics.counters["engine_epochs"] = result.engine.epochs;
  metrics.counters["engine_messages"] = result.engine.messages;
  metrics.counters["engine_mailbox_overflows"] =
      result.engine.mailbox_overflows;
  const sim::LoopStats& loop = result.loop_stats;
  metrics.counters["engine_scheduled"] = loop.scheduled;
  metrics.counters["engine_cancelled"] = loop.cancelled;
  metrics.counters["engine_wheel_pushes"] = loop.wheel_pushes;
  metrics.counters["engine_heap_pushes"] = loop.heap_pushes;
  metrics.counters["engine_due_merges"] = loop.due_merges;
  metrics.counters["engine_task_heap_allocs"] = loop.task_heap_allocs;
  metrics.counters["engine_max_queue_depth"] = loop.max_queue_depth;
  return metrics;
}

PointMetrics meshscale_point_metrics(const MeshscaleExperimentResult& result) {
  PointMetrics metrics;
  // Workload surface.
  metrics.counters["requests_generated"] = result.requests_generated;
  metrics.counters["responses"] = result.responses;
  metrics.counters["successes"] = result.successes;
  metrics.counters["failures"] = result.failures;
  metrics.scalars["success_rate"] =
      result.responses > 0 ? static_cast<double>(result.successes) /
                                 static_cast<double>(result.responses)
                           : 0.0;
  // The e2e histogram is recorded in MICROSECONDS (see the experiment).
  metrics.scalars["e2e_p50_ms"] =
      static_cast<double>(result.e2e_latency.percentile(50.0)) / 1000.0;
  metrics.scalars["e2e_p99_ms"] =
      static_cast<double>(result.e2e_latency.percentile(99.0)) / 1000.0;
  metrics.scalars["e2e_mean_ms"] = result.e2e_latency.mean() / 1000.0;
  metrics.histograms["e2e_latency_us"] = result.e2e_latency;
  metrics.snapshot = result.metrics;
  // Control-plane push-channel surface.
  metrics.counters["cp_epochs"] = result.epochs;
  metrics.counters["cp_pushes"] = result.cp_pushes;
  metrics.counters["cp_full_pushes"] = result.bytes.full_pushes;
  metrics.counters["cp_delta_pushes"] = result.bytes.delta_pushes;
  metrics.counters["cp_delta_fallbacks"] = result.bytes.delta_fallbacks;
  metrics.counters["cp_full_push_bytes"] = result.bytes.full_bytes;
  metrics.counters["cp_delta_push_bytes"] = result.bytes.delta_bytes;
  metrics.counters["cp_churn_push_bytes"] =
      result.churn_bytes.full_bytes + result.churn_bytes.delta_bytes;
  metrics.counters["cp_churn_pushes"] =
      result.churn_bytes.full_pushes + result.churn_bytes.delta_pushes;
  metrics.counters["cp_converged"] = result.converged ? 1 : 0;
  metrics.scalars["churn_convergence_ms"] =
      sim::to_milliseconds(result.churn_convergence);
  // Per-sidecar endpoint-table sizes (what scoping/subsetting bound).
  metrics.counters["sidecars"] = result.sidecars;
  metrics.counters["endpoint_entries"] = result.endpoint_entries;
  metrics.counters["max_endpoints_per_sidecar"] =
      result.max_endpoints_per_sidecar;
  metrics.scalars["mean_endpoints_per_sidecar"] =
      result.sidecars > 0 ? static_cast<double>(result.endpoint_entries) /
                                static_cast<double>(result.sidecars)
                          : 0.0;
  // Shape + engine surface (thread-invariant for a fixed cell count).
  metrics.counters["services"] = static_cast<std::uint64_t>(result.services);
  metrics.counters["cells"] = static_cast<std::uint64_t>(result.cells);
  metrics.counters["events"] = result.events_executed;
  metrics.counters["engine_epochs"] = result.engine.epochs;
  metrics.counters["engine_messages"] = result.engine.messages;
  return metrics;
}

}  // namespace meshnet::workload
