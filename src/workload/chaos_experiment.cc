#include "workload/chaos_experiment.h"

#include <cstdio>

namespace meshnet::workload {

ElibraryExperimentConfig elibrary_config(const ChaosExperimentConfig& config) {
  ElibraryExperimentConfig run;
  run.ls_rps = config.ls_rps;
  run.li_rps = config.li_rps;
  run.warmup = config.warmup;
  run.duration = config.duration;
  run.cooldown = config.cooldown;
  run.seed = config.seed;
  run.arrival = config.arrival;
  run.app = config.app;

  mesh::MeshPolicies& policies = run.app.policies;
  if (config.resilience) {
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
  policies.request_timeout = config.request_timeout;

  const sim::Time measure_start = config.warmup;
  const sim::Time fault_start = measure_start + config.fault_start_offset;
  const sim::Time fault_end = fault_start + config.fault_duration;
  if (config.crash_reviews_replica) {
    run.faults.crash(fault_start, config.crash_target);
    run.faults.restart(fault_end, config.crash_target);
  }
  if (config.flap_bottleneck) {
    run.faults.flap(fault_start + config.flap_period / 2, fault_end,
                    config.flap_target, config.flap_period,
                    config.flap_downtime);
  }
  run.phases = {{"before", measure_start},
                {"during", fault_start},
                {"after", fault_end}};
  // Drain long enough for every request — including ones pinned to the
  // end-to-end deadline in the baseline arm — to resolve.
  run.drain = 2 * config.request_timeout + sim::seconds(10);
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
