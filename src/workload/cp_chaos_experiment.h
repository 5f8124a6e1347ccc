#pragma once

// The CHAOS_CP experiment: a control-plane outage under pod churn on the
// e-library topology.
//
// The LS/LI workload mix runs while the control plane crashes for
// `outage_duration` (default 30 s). During the outage a churn storm
// alternately crashes and restarts the two reviews replicas, so the
// service registry keeps changing while nobody is pushing config: the
// data plane must serve stale-while-revalidate — last-good endpoints keep
// routing, active health checking (with flap damping) does the fast
// detection, and discovery staleness grows monotonically. When the
// control plane recovers it reconverges the mesh with paced, jittered
// pushes; the experiment measures LS goodput per phase, peak routing
// staleness during the outage, and time-to-reconverge after it.
//
// Two arms: outage on (the chaos run) and outage off (the control run the
// goodput ratio is normalized against). Acceptance: during-outage LS
// goodput >= 0.9x the no-outage arm, full reconvergence after recovery,
// zero lost sidecars.

#include <cstdint>
#include <string>
#include <vector>

#include "app/elibrary.h"
#include "workload/elibrary_experiment.h"
#include "workload/generator.h"

namespace meshnet::workload {

struct CpChaosExperimentConfig {
  double ls_rps = 30.0;
  double li_rps = 10.0;

  sim::Duration warmup = sim::seconds(4);
  sim::Duration duration = sim::seconds(46);  ///< measured window
  sim::Duration cooldown = sim::seconds(4);
  std::uint64_t seed = 42;
  ArrivalProcess arrival = ArrivalProcess::kUniformRandom;

  /// The experiment's arm switch: with `outage` off the control plane
  /// stays up the whole run (the normalization baseline).
  bool outage = true;
  /// Outage window, relative to the start of the measured window.
  sim::Duration outage_offset = sim::seconds(5);
  sim::Duration outage_duration = sim::seconds(30);

  /// Pod-churn storm during the outage: the two reviews replicas are
  /// alternately crashed and restarted every `churn_period`, so registry
  /// churn accumulates while the control plane cannot push.
  bool churn = true;
  sim::Duration churn_period = sim::seconds(4);

  /// End-to-end deadline at every sidecar (same rationale as CHAOS).
  sim::Duration request_timeout = sim::milliseconds(2500);

  /// Push-channel realism: non-zero latency/jitter so pushes are real
  /// simulated events, a tight ack timeout, paced reconvergence.
  sim::Duration push_latency_base = sim::milliseconds(2);
  sim::Duration push_latency_jitter = sim::milliseconds(3);
  sim::Duration ack_timeout = sim::milliseconds(200);
  sim::Duration reconverge_pacing = sim::milliseconds(25);
  double push_loss = 0.0;

  /// Short cert lifetime + refresh-ahead so rotation (and its push
  /// traffic) happens several times inside the run, including a forced
  /// re-issue at recovery.
  sim::Duration certificate_lifetime = sim::seconds(20);
  double cert_refresh_ahead = 0.25;

  /// Flap damping for the churn storm (see HealthCheckConfig). The
  /// threshold sits above what the alternating reviews churn produces
  /// (~5 transitions per 10 s window): the damper is armed as a safety
  /// valve against pathological flapping without suppressing the only
  /// replica capacity the storm leaves standing.
  std::uint32_t flap_max_transitions = 8;
  sim::Duration flap_window = sim::seconds(10);
  sim::Duration flap_penalty = sim::seconds(3);

  app::ElibraryOptions app;
};

/// The run config for one arm: resilience + flap damping + push-channel
/// policies, the gateway's per-try timeout budget, the outage + churn
/// fault plan, the LS phases "before", "during" (the outage) and "after",
/// and the staleness sampler.
ElibraryExperimentConfig elibrary_config(const CpChaosExperimentConfig& config);

/// Report keys read from the `cp_*` push-channel series: `push_attempts`,
/// `push_acks`, `push_nacks`, `push_retries`, `push_skipped_noop`,
/// `push_dropped`, `config_rollbacks` and `cert_rotations`.
const std::vector<ReportSeries>& cp_report_series();

/// The acceptance table: per-phase LS goodput for the outage and control
/// arms, the during-outage goodput ratio, staleness and reconvergence.
/// Reads the arms' reports (elibrary_point_metrics with cp_report_series()).
std::string format_cp_chaos_comparison(const PointMetrics& outage,
                                       const PointMetrics& control);

}  // namespace meshnet::workload
