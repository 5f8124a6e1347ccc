#include "workload/mtls_experiment.h"

#include <cstdio>

namespace meshnet::workload {

namespace {

/// How long the storm keeps every pod down.
constexpr sim::Duration kStormRestartDelay = sim::milliseconds(200);

/// End-to-end deadline at every sidecar (same rationale as CHAOS: a
/// request stranded by the storm must fail at the deadline, not ride
/// it out).
constexpr sim::Duration kRequestTimeout = sim::milliseconds(2500);

}  // namespace

ElibraryExperimentConfig mtls_config(ElibraryExperimentConfig run,
                                     const MtlsArm& arm) {
  mesh::MeshPolicies& policies = run.app.policies;
  // Data-plane resilience, same stance as the chaos experiments: the
  // storm's reconnect wave is absorbed by health checking, breakers and
  // budgeted retries — identically across arms, so the measured deltas
  // are pure crypto cost.
  apply_resilience_policies(policies, /*retry_budget=*/0.5,
                            /*budget_min_concurrency=*/20);
  policies.request_timeout = kRequestTimeout;
  // The arm switches.
  policies.tls.enabled = arm.mtls;
  policies.tls.session_resumption = arm.session_resumption;
  policies.mtls_overrides = arm.mtls_overrides;
  run.extra_epoch_before_run = true;

  const sim::Time measure_start = run.warmup;
  const sim::Time storm_at = measure_start + run.duration / 2;
  if (arm.storm) {
    // Every service pod bounces at once: all in-mesh connections (and
    // their TLS sessions) die, and the entire mesh re-handshakes when
    // the pods return. Sidecar objects — and with them the clients'
    // ticket caches and the services' certificates — survive the
    // restart, which is exactly what makes resumption applicable.
    for (const char* pod : {"frontend-v1", "details-v1", "reviews-v1",
                            "reviews-v2", "ratings-v1"}) {
      run.faults.crash(storm_at, pod);
      run.faults.restart(storm_at + kStormRestartDelay, pod);
      // A process restart loses TCP state: abort the pod's connections
      // so peers see RSTs and must reconnect (and re-handshake). The
      // restart entry is added first at the same timestamp, so the
      // links are back up when the RSTs go out.
      run.faults.reset_connections(storm_at + kStormRestartDelay, pod);
    }
  }
  run.phases = {{"pre", measure_start}, {"post", storm_at}};
  run.drain = 2 * kRequestTimeout + sim::seconds(10);
  return run;
}

const std::vector<ReportSeries>& mtls_report_series() {
  static const std::vector<ReportSeries> series = {
      {"tls_handshakes_full", "tls_handshakes_full_total", {}},
      {"tls_handshakes_resumed", "tls_handshakes_resumed_total", {}},
      {"tls_handshake_failures", "tls_handshake_failures_total", {}},
      {"tls_tickets_issued", "tls_tickets_issued_total", {}},
      {"tls_resumptions_rejected", "tls_resumptions_rejected_total", {}},
      {"tls_session_cache_evictions", "tls_session_cache_evictions_total",
       {}},
      {"tls_records_encrypted", "tls_records_encrypted_total", {}},
      {"tls_records_decrypted", "tls_records_decrypted_total", {}},
      {"tls_bytes_encrypted", "tls_bytes_encrypted_total", {}},
      {"tls_bytes_decrypted", "tls_bytes_decrypted_total", {}},
      {"tls_alerts", "tls_alerts_total", {}},
      {"cert_rotations", "cp_cert_rotations_total", {}},
  };
  return series;
}

std::string format_mtls_comparison(const PointMetrics& plaintext,
                                   const PointMetrics& mtls_full,
                                   const PointMetrics& mtls_resume,
                                   const PointMetrics& storm_full,
                                   const PointMetrics& storm_resume) {
  std::string out;
  char line[256];
  const auto scalar = [](const PointMetrics& m, const char* key) {
    return m.scalars.at(key);
  };
  const auto count = [](const PointMetrics& m, const char* key) {
    return static_cast<unsigned long long>(m.counters.at(key));
  };
  out += "steady state (whole measured window):\n";
  std::snprintf(line, sizeof(line), "  %-12s %8s %8s %8s %8s %7s %6s %11s\n",
                "arm", "ls_p50", "ls_p99", "li_p50", "li_p99", "li_rps",
                "bneck", "handshakes");
  out += line;
  const auto steady_row = [&](const char* arm, const PointMetrics& m) {
    std::snprintf(line, sizeof(line),
                  "  %-12s %8.2f %8.2f %8.2f %8.2f %7.1f %6.3f %6llu+%llur\n",
                  arm, scalar(m, "ls_p50_ms"), scalar(m, "ls_p99_ms"),
                  scalar(m, "li_p50_ms"), scalar(m, "li_p99_ms"),
                  scalar(m, "li_rps"), scalar(m, "bottleneck_utilization"),
                  count(m, "tls_handshakes_full"),
                  count(m, "tls_handshakes_resumed"));
    out += line;
  };
  steady_row("plaintext", plaintext);
  steady_row("mtls-full", mtls_full);
  steady_row("mtls-resume", mtls_resume);

  out += "handshake storm (LS workload, pre / post mass restart):\n";
  std::snprintf(line, sizeof(line), "  %-12s %9s %9s %10s %10s %11s\n", "arm",
                "pre_p99", "post_p99", "post_good", "post_succ", "handshakes");
  out += line;
  const auto storm_row = [&](const char* arm, const PointMetrics& m) {
    std::snprintf(line, sizeof(line),
                  "  %-12s %9.2f %9.2f %10.1f %9.2f%% %6llu+%llur\n", arm,
                  scalar(m, "pre_p99_ms"), scalar(m, "post_p99_ms"),
                  scalar(m, "post_goodput_rps"),
                  100.0 * scalar(m, "post_success_rate"),
                  count(m, "tls_handshakes_full"),
                  count(m, "tls_handshakes_resumed"));
    out += line;
  };
  storm_row("storm-full", storm_full);
  storm_row("storm-resume", storm_resume);

  const double storm_delta_p99 =
      scalar(storm_full, "post_p99_ms") - scalar(storm_resume, "post_p99_ms");
  const auto overhead = [&](const char* key) {
    return scalar(mtls_resume, key) - scalar(plaintext, key);
  };
  std::snprintf(line, sizeof(line),
                "mTLS steady-state overhead: LS p50 +%.2f ms, LI p50 "
                "+%.2f ms, LI p99 +%.2f ms | resumption saves %.2f ms of "
                "post-storm p99\n",
                overhead("ls_p50_ms"), overhead("li_p50_ms"),
                overhead("li_p99_ms"), storm_delta_p99);
  out += line;
  return out;
}

}  // namespace meshnet::workload
