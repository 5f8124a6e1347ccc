#pragma once

// The chaos variant of the e-library experiment: the LS/LI workload mix
// runs while a FaultPlan kills one reviews replica and flaps the
// reviews->ratings bottleneck vNIC. LS goodput and latency are reported
// for three phases — before, during and after the fault window — so the
// resilience machinery's value shows up as "the during column barely
// moves" with health checking + breakers + retry budgets on, and as a
// goodput collapse with them off.
//
// Determinism: the whole run is a function of the config (seed included).
// Same seed => identical fault log and mesh event log, which is what
// makes a chaos result debuggable and regression-testable.

#include <cstdint>
#include <string>
#include <vector>

#include "app/elibrary.h"
#include "workload/elibrary_experiment.h"
#include "workload/generator.h"

namespace meshnet::workload {

struct ChaosExperimentConfig {
  double ls_rps = 30.0;
  double li_rps = 10.0;

  sim::Duration warmup = sim::seconds(4);
  sim::Duration duration = sim::seconds(24);  ///< measured window
  sim::Duration cooldown = sim::seconds(4);
  std::uint64_t seed = 42;
  ArrivalProcess arrival = ArrivalProcess::kUniformRandom;

  /// With resilience on, the mesh gets active health checking, circuit
  /// breakers, per-try timeouts and budgeted retries; with it off, all of
  /// those are disabled (max_retries = 0) — the "mesh as dumb pipe" arm.
  bool resilience = true;

  /// Fault window, relative to the start of the measured window.
  sim::Duration fault_start_offset = sim::seconds(6);
  sim::Duration fault_duration = sim::seconds(10);

  /// Kill one reviews replica for the fault window (crash at start,
  /// restart at end; the registry is never told — detection is active
  /// health checking's job).
  bool crash_reviews_replica = true;
  std::string crash_target = "reviews-v1";

  /// Flap the bottleneck (ratings vNIC): down `flap_downtime` out of
  /// every `flap_period` during the fault window.
  bool flap_bottleneck = true;
  std::string flap_target = "ratings-v1";
  sim::Duration flap_period = sim::seconds(2);
  sim::Duration flap_downtime = sim::milliseconds(40);

  /// End-to-end deadline at every sidecar. Deliberately shorter than the
  /// fault window: requests the baseline arm parks on a crashed replica
  /// must *fail* at the deadline, not ride it out until the restart.
  sim::Duration request_timeout = sim::milliseconds(2500);

  app::ElibraryOptions app;
};

/// The run config for one arm: the resilience (or dumb-pipe) policies,
/// the crash + flap fault plan and the LS phases "before", "during" (the
/// fault window) and "after".
ElibraryExperimentConfig elibrary_config(const ChaosExperimentConfig& config);

/// Report keys read from `mesh_events_total`: `breaker_events` (breaker
/// state transitions), `fault_log_entries` (executed faults) and
/// `mesh_events` (every mesh event).
const std::vector<ReportSeries>& chaos_report_series();

/// The acceptance table: per-phase LS goodput/success/p99 for the
/// resilient and baseline arms, plus the resilience counters. Reads the
/// arms' reports (elibrary_point_metrics with chaos_report_series()).
std::string format_chaos_comparison(const PointMetrics& resilient,
                                    const PointMetrics& baseline);

}  // namespace meshnet::workload
