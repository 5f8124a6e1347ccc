#include "workload/chaos_experiment.h"

#include <cstdio>

namespace meshnet::workload {

namespace {

/// Killed for the fault window (crash at start, restart at end; the
/// registry is never told — detection is active health checking's job).
constexpr const char* kCrashTarget = "reviews-v1";

/// The bottleneck (ratings vNIC), down kFlapDowntime out of every
/// kFlapPeriod during the fault window.
constexpr const char* kFlapTarget = "ratings-v1";
constexpr sim::Duration kFlapPeriod = sim::seconds(2);
constexpr sim::Duration kFlapDowntime = sim::milliseconds(40);

/// End-to-end deadline at every sidecar. Deliberately shorter than the
/// fault window: requests the baseline arm parks on a crashed replica
/// must *fail* at the deadline, not ride it out until the restart.
constexpr sim::Duration kRequestTimeout = sim::milliseconds(2500);

}  // namespace

ElibraryExperimentConfig chaos_config(ElibraryExperimentConfig run,
                                      const ChaosArm& arm) {
  mesh::MeshPolicies& policies = run.app.policies;
  if (arm.resilience) {
    // Budget sized so crash-recovery retries (a burst, but a small
    // fraction of in-flight) are admitted while a retry storm is not.
    apply_resilience_policies(policies, /*retry_budget=*/0.2,
                              /*budget_min_concurrency=*/10);
  } else {
    policies.retry.max_retries = 0;
    policies.retry.per_try_timeout = 0;
    policies.breaker.consecutive_failures = 0;  // disabled
    policies.health_check.enabled = false;
  }
  policies.request_timeout = kRequestTimeout;

  const sim::Time measure_start = run.warmup;
  const sim::Time fault_start = measure_start + arm.fault_offset;
  const sim::Time fault_end = fault_start + arm.fault_duration;
  run.faults.crash(fault_start, kCrashTarget);
  run.faults.restart(fault_end, kCrashTarget);
  run.faults.flap(fault_start + kFlapPeriod / 2, fault_end, kFlapTarget,
                  kFlapPeriod, kFlapDowntime);
  run.phases = {{"before", measure_start},
                {"during", fault_start},
                {"after", fault_end}};
  // Drain long enough for every request — including ones pinned to the
  // end-to-end deadline in the baseline arm — to resolve.
  run.drain = 2 * kRequestTimeout + sim::seconds(10);
  run.sample_bottleneck = false;
  return run;
}

const std::vector<ReportSeries>& chaos_report_series() {
  static const std::vector<ReportSeries> series = {
      {"breaker_events", "mesh_events_total", {{"kind", "breaker"}}},
      {"fault_log_entries", "mesh_events_total", {{"kind", "fault"}}},
      {"mesh_events", "mesh_events_total", {}},
  };
  return series;
}

std::string format_chaos_comparison(const PointMetrics& resilient,
                                    const PointMetrics& baseline) {
  std::string out;
  char line[256];
  const auto row = [&](const char* arm, const PointMetrics& m,
                       const std::string& phase) {
    std::snprintf(line, sizeof(line),
                  "  %-9s %-7s %8.1f %9.2f%% %9.1f %9.1f\n", arm,
                  phase.c_str(), m.scalars.at(phase + "_goodput_rps"),
                  100.0 * m.scalars.at(phase + "_success_rate"),
                  m.scalars.at(phase + "_p50_ms"),
                  m.scalars.at(phase + "_p99_ms"));
    out += line;
  };
  const auto counters = [&](const char* arm, const PointMetrics& m) {
    std::snprintf(
        line, sizeof(line),
        "%s %llu evictions, %llu readmissions, %llu breaker events, "
        "%llu retries (%llu denied by budget)\n",
        arm,
        static_cast<unsigned long long>(m.counters.at("health_evictions")),
        static_cast<unsigned long long>(m.counters.at("health_readmissions")),
        static_cast<unsigned long long>(m.counters.at("breaker_events")),
        static_cast<unsigned long long>(m.counters.at("upstream_retries")),
        static_cast<unsigned long long>(
            m.counters.at("retries_denied_by_budget")));
    out += line;
  };
  out += "LS workload by phase (fault window = 'during'):\n";
  std::snprintf(line, sizeof(line), "  %-9s %-7s %8s %10s %9s %9s\n", "arm",
                "phase", "goodput", "success", "p50ms", "p99ms");
  out += line;
  for (const char* phase : {"before", "during", "after"}) {
    row("resilient", resilient, phase);
  }
  for (const char* phase : {"before", "during", "after"}) {
    row("baseline", baseline, phase);
  }
  counters("resilient:", resilient);
  counters("baseline: ", baseline);
  return out;
}

}  // namespace meshnet::workload
