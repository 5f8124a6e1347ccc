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

#include <vector>

#include "sim/time.h"
#include "workload/elibrary_experiment.h"

namespace meshnet::workload {

/// What the CHAOS_CP arms vary.
struct CpChaosArm {
  /// The experiment's arm switch: with `outage` off the control plane
  /// stays up the whole run (the normalization baseline).
  bool outage = true;
  /// Outage window, relative to the start of the measured window.
  sim::Duration outage_offset = sim::seconds(5);
  sim::Duration outage_duration = sim::seconds(30);

  /// Pod-churn storm during the outage window: the two reviews replicas
  /// are alternately crashed and restarted every `churn_period`, so
  /// registry churn accumulates while the control plane cannot push.
  sim::Duration churn_period = sim::seconds(4);
};

/// `run` (rates, windows, seed and app as the caller set them) completed
/// for one arm: resilience + flap damping + push-channel policies, the
/// gateway's per-try timeout budget, the outage + churn fault plan, the
/// LS phases "before", "during" (the outage) and "after", the drain and
/// the staleness sampler.
ElibraryExperimentConfig cp_chaos_config(ElibraryExperimentConfig run,
                                         const CpChaosArm& arm);

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
