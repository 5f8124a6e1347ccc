// CHAOS_CP — a control-plane outage under pod churn on the e-library.
//
// The LS/LI workload mix runs while the control plane crashes for
// --outage-duration-s. During the outage a churn storm alternately
// crashes and restarts the two reviews replicas every --churn-period-s,
// so the service registry keeps changing while nobody is pushing config:
// the data plane must serve stale-while-revalidate — last-good endpoints
// keep routing, active health checking does the fast
// detection, and discovery staleness grows. When the control plane
// recovers it reconverges the mesh with paced, jittered pushes. Two arms:
//   outage   the control plane crashes for the outage window;
//   control  identical run with the control plane up throughout (the
//            goodput normalization baseline).
// The tables give per-phase LS goodput, peak discovery staleness,
// reconvergence time and the push channel counters.
//
// Acceptance (exit 1 on violation): during-outage LS goodput >= 0.9x the
// control arm, full reconvergence to the final epoch after recovery, and
// zero stale sidecars at the end of the run.

#include <string>
#include <vector>

#include "scenario.h"

namespace meshnet::bench {
namespace {

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

/// The outage starts this long into the measured window.
constexpr sim::Duration kOutageOffset = sim::seconds(5);

/// Report keys read from the `cp_*` push-channel series.
const std::vector<workload::ReportSeries> kSeries = {
    {"push_attempts", "cp_push_attempts_total", {}},
    {"push_acks", "cp_push_acks_total", {}},
    {"push_nacks", "cp_push_nacks_total", {}},
    {"push_retries", "cp_push_retries_total", {}},
    {"push_skipped_noop", "cp_push_skipped_noop", {}},
    {"push_dropped", "cp_push_dropped_total", {}},
    {"config_rollbacks", "cp_config_rollbacks_total", {}},
    {"cert_rotations", "cp_cert_rotations_total", {}},
};

std::vector<Arm> arms(const Args& args) {
  workload::ElibraryExperimentConfig control = fault_control(args);
  mesh::MeshPolicies& policies = control.app.policies;
  // Data-plane resilience, same stance as the CHAOS experiment: the churn
  // storm is detected by active health checking and absorbed by breakers
  // and retries.
  workload::apply_resilience_policies(policies);
  // The push channel is a real simulated network: latency, ack timeouts,
  // paced reconvergence.
  policies.cp.push_latency_base = kPushLatencyBase;
  policies.cp.push_latency_jitter = kPushLatencyJitter;
  policies.cp.ack_timeout = kAckTimeout;
  policies.cp.reconverge_pacing = kReconvergePacing;
  policies.cp.cert_refresh_ahead = kCertRefreshAhead;
  policies.certificate_lifetime = kCertificateLifetime;
  control.extra_epoch_before_run = true;

  const sim::Time measure_start = control.warmup;
  const sim::Time outage_start = measure_start + kOutageOffset;
  const sim::Time outage_end =
      outage_start + sim::seconds(args.count("outage-duration-s"));
  control.phases = {{"before", measure_start},
                    {"during", outage_start},
                    {"after", outage_end}};
  control.sample_bottleneck = false;
  control.sample_staleness = true;

  // The outage goes first in the plan: it shares its instant with the
  // storm's first crash, and entries at one instant run in plan order.
  workload::ElibraryExperimentConfig outage = control;
  outage.faults.cp_outage(outage_start, outage_end);
  // Alternating churn: reviews-v1 down for the first half of each
  // period, reviews-v2 for the second — one replica is always up, but
  // the registry (restart re-registers) and health state never settle.
  const sim::Duration period = sim::seconds(args.count("churn-period-s"));
  const sim::Duration half = period / 2;
  for (faults::FaultPlan* plan : {&outage.faults, &control.faults}) {
    for (sim::Time t = outage_start; t + period <= outage_end; t += period) {
      plan->crash(t, "reviews-v1");
      plan->restart(t + half, "reviews-v1");
      plan->crash(t + half, "reviews-v2");
      plan->restart(t + period, "reviews-v2");
    }
  }
  return {elibrary_arm("outage", {{"outage", "on"}}, std::move(outage),
                       kSeries, /*log_faults=*/true),
          elibrary_arm("control", {{"outage", "off"}}, std::move(control),
                       kSeries)};
}

std::vector<Check> checks(const Args&, const Results& results) {
  const double control_goodput =
      results.scalar("control", "during_goodput_rps");
  const double ratio =
      control_goodput > 0
          ? results.scalar("outage", "during_goodput_rps") / control_goodput
          : 0.0;
  const auto outage = [&](const char* key) {
    return static_cast<unsigned long long>(results.count("outage", key));
  };
  return {check(ratio >= 0.9,
                "during-outage LS goodput ratio %.3f (goal >= 0.90)", ratio),
          check(outage("converged") == 1 &&
                    outage("stale_sidecars_at_end") == 0,
                "reconverged to epoch %llu, %llu stale sidecars",
                outage("final_epoch"), outage("stale_sidecars_at_end"))};
}

}  // namespace

const Scenario kCpScenario = {
    .name = "cp",
    .title = "CHAOS_CP: control-plane outage + reviews churn storm on the "
             "e-library\n(outage arm vs control arm with the control "
             "plane up).",
    .duration_s = 46,
    .seed = 42,
    .flags = {{"ls-rps", FlagKind::kReal, 1, "30", "ls_rps"},
              {"li-rps", FlagKind::kReal, 1, "10", "li_rps"},
              {"outage-duration-s", FlagKind::kInt, 1, "30",
               "outage_duration_s"},
              {"churn-period-s", FlagKind::kInt, 1, "4", "churn_period_s"}},
    .arms = arms,
    .tables = {{.title = "LS workload by phase (CP outage = 'during'):",
                .columns = {{"goodput", "goodput_rps"},
                            {"success %", "success_rate", 2, 100},
                            {"p50 (ms)", "p50_ms"},
                            {"p99 (ms)", "p99_ms"}},
                .phases = {"before", "during", "after"}},
               {.title = "control plane:",
                .columns = {{"staleness peak (ms)", "max_staleness_ms", 0},
                            {"reconverge (ms)", "reconverge_ms", 0},
                            {"epoch", "final_epoch"},
                            {"stale sidecars", "stale_sidecars_at_end"},
                            {"pushes", "push_attempts"},
                            {"acks", "push_acks"},
                            {"retries", "push_retries"},
                            {"dropped", "push_dropped"},
                            {"noop skips", "push_skipped_noop"},
                            {"cert rotations", "cert_rotations"}}},
               {.title = "data plane:",
                .columns = {{"retries", "upstream_retries"},
                            {"panic picks", "panic_picks"},
                            {"deadline timeouts", "timeouts"},
                            {"upstream failures", "upstream_failures"}}}},
    .checks = checks,
};

}  // namespace meshnet::bench
