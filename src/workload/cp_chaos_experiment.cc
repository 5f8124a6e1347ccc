#include "workload/cp_chaos_experiment.h"

#include <cstdio>

namespace meshnet::workload {

namespace {

/// End-to-end deadline at every sidecar (same rationale as CHAOS).
constexpr sim::Duration kRequestTimeout = sim::milliseconds(2500);

/// Push-channel realism: non-zero latency/jitter so pushes are real
/// simulated events, a tight ack timeout, paced reconvergence. No push
/// is lost (MeshPolicies' default).
constexpr sim::Duration kPushLatencyBase = sim::milliseconds(2);
constexpr sim::Duration kPushLatencyJitter = sim::milliseconds(3);
constexpr sim::Duration kAckTimeout = sim::milliseconds(200);
constexpr sim::Duration kReconvergePacing = sim::milliseconds(25);

/// Short cert lifetime + refresh-ahead so rotation (and its push
/// traffic) happens several times inside the run, including a forced
/// re-issue at recovery.
constexpr sim::Duration kCertificateLifetime = sim::seconds(20);
constexpr double kCertRefreshAhead = 0.25;

/// Flap damping for the churn storm (see HealthCheckConfig). The
/// threshold sits above what the alternating reviews churn produces
/// (~5 transitions per 10 s window): the damper is armed as a safety
/// valve against pathological flapping without suppressing the only
/// replica capacity the storm leaves standing.
constexpr std::uint32_t kFlapMaxTransitions = 8;
constexpr sim::Duration kFlapWindow = sim::seconds(10);
constexpr sim::Duration kFlapPenalty = sim::seconds(3);

}  // namespace

ElibraryExperimentConfig cp_chaos_config(ElibraryExperimentConfig run,
                                         const CpChaosArm& arm) {
  mesh::MeshPolicies& policies = run.app.policies;
  // Data-plane resilience, same stance as the CHAOS experiment: the churn
  // storm is detected by active health checking, absorbed by breakers and
  // budgeted retries. A churn storm is not an overload: at each
  // blind-window edge roughly half the in-flight set legitimately needs
  // one failover retry, so the budget is provisioned for that (storm
  // amplification is still capped; overload protection proper is the
  // breakers' and admission's job).
  apply_resilience_policies(policies, /*retry_budget=*/0.5,
                            /*budget_min_concurrency=*/20);
  policies.health_check.flap_max_transitions = kFlapMaxTransitions;
  policies.health_check.flap_window = kFlapWindow;
  policies.health_check.flap_penalty = kFlapPenalty;
  policies.request_timeout = kRequestTimeout;
  // The push channel is a real simulated network: latency, ack timeouts,
  // paced reconvergence.
  policies.cp.push_latency_base = kPushLatencyBase;
  policies.cp.push_latency_jitter = kPushLatencyJitter;
  policies.cp.ack_timeout = kAckTimeout;
  policies.cp.reconverge_pacing = kReconvergePacing;
  policies.cp.cert_refresh_ahead = kCertRefreshAhead;
  policies.certificate_lifetime = kCertificateLifetime;
  run.extra_epoch_before_run = true;

  const sim::Time measure_start = run.warmup;
  const sim::Time outage_start = measure_start + arm.outage_offset;
  const sim::Time outage_end = outage_start + arm.outage_duration;
  if (arm.outage) {
    run.faults.cp_outage(outage_start, outage_end);
  }
  // Alternating churn: reviews-v1 down for the first half of each
  // period, reviews-v2 for the second — one replica is always up, but
  // the registry (restart re-registers) and health state never settle.
  const sim::Duration half = arm.churn_period / 2;
  for (sim::Time t = outage_start; t + arm.churn_period <= outage_end;
       t += arm.churn_period) {
    run.faults.crash(t, "reviews-v1");
    run.faults.restart(t + half, "reviews-v1");
    run.faults.crash(t + half, "reviews-v2");
    run.faults.restart(t + arm.churn_period, "reviews-v2");
  }
  run.phases = {{"before", measure_start},
                {"during", outage_start},
                {"after", outage_end}};
  run.drain = 2 * kRequestTimeout + sim::seconds(10);
  run.sample_bottleneck = false;
  run.sample_staleness = true;
  return run;
}

const std::vector<ReportSeries>& cp_report_series() {
  static const std::vector<ReportSeries> series = {
      {"push_attempts", "cp_push_attempts_total", {}},
      {"push_acks", "cp_push_acks_total", {}},
      {"push_nacks", "cp_push_nacks_total", {}},
      {"push_retries", "cp_push_retries_total", {}},
      {"push_skipped_noop", "cp_push_skipped_noop", {}},
      {"push_dropped", "cp_push_dropped_total", {}},
      {"config_rollbacks", "cp_config_rollbacks_total", {}},
      {"cert_rotations", "cp_cert_rotations_total", {}},
  };
  return series;
}

std::string format_cp_chaos_comparison(const PointMetrics& outage,
                                       const PointMetrics& control) {
  std::string out;
  char line[256];
  const auto row = [&](const char* arm, const PointMetrics& m,
                       const std::string& phase) {
    std::snprintf(line, sizeof(line),
                  "  %-8s %-7s %8.1f %9.2f%% %9.1f %9.1f\n", arm,
                  phase.c_str(), m.scalars.at(phase + "_goodput_rps"),
                  100.0 * m.scalars.at(phase + "_success_rate"),
                  m.scalars.at(phase + "_p50_ms"),
                  m.scalars.at(phase + "_p99_ms"));
    out += line;
  };
  const auto count = [&outage](const char* key) {
    return static_cast<unsigned long long>(outage.counters.at(key));
  };
  out += "LS workload by phase (CP outage = 'during'):\n";
  std::snprintf(line, sizeof(line), "  %-8s %-7s %8s %10s %9s %9s\n", "arm",
                "phase", "goodput", "success", "p50ms", "p99ms");
  out += line;
  for (const char* phase : {"before", "during", "after"}) {
    row("outage", outage, phase);
  }
  for (const char* phase : {"before", "during", "after"}) {
    row("control", control, phase);
  }
  const double control_goodput = control.scalars.at("during_goodput_rps");
  const double ratio =
      control_goodput > 0.0
          ? outage.scalars.at("during_goodput_rps") / control_goodput
          : 0.0;
  std::snprintf(
      line, sizeof(line),
      "during-outage goodput ratio %.3f | staleness peak %.0f ms | "
      "reconverge %.0f ms | epoch %llu | stale sidecars %llu\n",
      ratio, outage.scalars.at("max_staleness_ms"),
      outage.scalars.at("reconverge_ms"), count("final_epoch"),
      count("stale_sidecars_at_end"));
  out += line;
  std::snprintf(
      line, sizeof(line),
      "pushes: %llu attempts, %llu acks, %llu retries, %llu dropped, "
      "%llu noop-skips, %llu cert rotations | damped readmissions %llu\n",
      count("push_attempts"), count("push_acks"), count("push_retries"),
      count("push_dropped"), count("push_skipped_noop"),
      count("cert_rotations"), count("flap_damps"));
  out += line;
  std::snprintf(
      line, sizeof(line),
      "data plane: %llu retries (%llu denied by budget), %llu panic picks, "
      "%llu deadline timeouts, %llu upstream failures\n",
      count("upstream_retries"), count("retries_denied_by_budget"),
      count("panic_picks"), count("timeouts"), count("upstream_failures"));
  out += line;
  return out;
}

}  // namespace meshnet::workload
