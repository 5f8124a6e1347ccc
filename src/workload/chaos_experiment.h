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
//
// The run crashes reviews-v1 for the fault window and flaps the
// ratings-v1 vNIC through it; the fixed settings are named in the .cc.

#include <vector>

#include "sim/time.h"
#include "workload/elibrary_experiment.h"

namespace meshnet::workload {

/// What the CHAOS arms vary.
struct ChaosArm {
  /// With resilience on, the mesh gets active health checking, circuit
  /// breakers, per-try timeouts and budgeted retries; with it off, all of
  /// those are disabled (max_retries = 0) — the "mesh as dumb pipe" arm.
  bool resilience = true;

  /// Fault window, relative to the start of the measured window.
  sim::Duration fault_offset = sim::seconds(6);
  sim::Duration fault_duration = sim::seconds(10);
};

/// `run` (rates, windows, seed and app as the caller set them) completed
/// for one arm: the resilience (or dumb-pipe) policies, the crash + flap
/// fault plan, the LS phases "before", "during" (the fault window) and
/// "after", and the drain.
ElibraryExperimentConfig chaos_config(ElibraryExperimentConfig run,
                                      const ChaosArm& arm);

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
