#pragma once

// The paper's experiment in a function (§4.3 setup): the e-library app, a
// latency-sensitive and a latency-insensitive workload hitting the ingress
// gateway simultaneously with uniformly random inter-arrivals, measured
// from scheduled time after warm-up and cool-down are trimmed.
//
// Every e-library experiment runs through run_elibrary_experiment(); what
// one experiment differs from another in is data in the config: the app
// and its mesh policies, rates and windows, optional cross-layer
// prioritization, a fault plan, named LS phases and the drain horizon.
// Each e-library scenario (bench/scenario_<name>.cc) builds one control
// config and derives its arms from it. Reports come from
// elibrary_point_metrics(), which reads registry counters straight from
// the run's snapshot.

#include <cstdint>
#include <string>
#include <vector>

#include "app/elibrary.h"
#include "core/cross_layer.h"
#include "faults/chaos.h"
#include "mesh/sidecar.h"
#include "mesh/telemetry.h"
#include "obs/metric_registry.h"
#include "workload/recorder.h"
#include "workload/sweep_runner.h"

namespace meshnet::workload {

/// Start of a named slice of the measured window. A phase runs until the
/// next boundary; the last one ends with the measured window.
struct PhaseBoundary {
  std::string name;
  sim::Time start = 0;
};

struct ElibraryExperimentConfig {
  /// Offered load per workload (the paper sweeps 10..50).
  double ls_rps = 30.0;
  double li_rps = 30.0;

  sim::Duration warmup = sim::seconds(4);
  sim::Duration duration = sim::seconds(20);   ///< measured window
  sim::Duration cooldown = sim::seconds(4);
  std::uint64_t seed = 42;

  bool cross_layer = false;
  core::CrossLayerConfig cross_layer_config = default_cross_layer_config();

  /// Optimization (d) out-of-band variant: program the bottleneck link's
  /// scheduler through the SDN coordinator (which learns flow priorities
  /// from the sidecars' advertisements) instead of relying on in-band
  /// marks or dst-IP TC rules. Requires cross_layer.
  bool sdn_out_of_band = false;

  app::ElibraryOptions app;

  /// Mint one more config epoch before traffic starts. Every sidecar
  /// skips it as a no-op, but it moves the epoch numbering and the
  /// control plane's push counters, which the CHAOS_CP and MTLS
  /// baselines record; those two set it.
  bool extra_epoch_before_run = false;

  /// Infrastructure and control-plane faults, at absolute times. Every
  /// executed fault is also recorded as a telemetry "fault" event.
  faults::FaultPlan faults;

  /// LS workload phases, bucketed by scheduled arrival time (wrk2
  /// convention: a request that arrived in a phase but straggled in later
  /// still charges that phase). Empty: no per-phase report.
  std::vector<PhaseBoundary> phases;

  /// How long the run continues past the last arrival so in-flight
  /// requests resolve.
  sim::Duration drain = sim::seconds(30);

  // Samplers schedule events of their own, so each stays off where an
  // experiment does not report what it measures.
  /// Bottleneck busy time at the measured window's edges (utilization).
  bool sample_bottleneck = true;
  /// Discovery staleness every 500 ms from the measured window's start,
  /// plus a bounded settle (up to 5 s) until the control plane converges
  /// before the final convergence read.
  bool sample_staleness = false;

  /// The paper's classification: user page loads are high priority,
  /// analytics scans low, with priority-routed reviews replicas.
  static core::CrossLayerConfig default_cross_layer_config();
};

/// What one e-library run measured.
struct ElibraryExperimentResult {
  /// The run's report, with the canonical keys of every e-library run:
  /// per workload `{ls,li}_{p50,p90,p99,mean}_ms`, `_rps`,
  /// `_success_rate`, `_completed`, `_errors` and the `_latency_ns`
  /// histogram (wrk2 scheduled-time convention); per phase
  /// `<phase>_{goodput_rps,success_rate,p50_ms,p99_ms,scheduled,completed,
  /// errors}`; bottleneck, sidecar-total, health, convergence and engine
  /// counters; and the unified snapshot of the run's one registry. A
  /// sampled key (`bottleneck_utilization`, `max_staleness_ms`) is present
  /// only when the config samples it. Bit-identical across runs with the
  /// same config.
  PointMetrics report;
  /// Every executed fault, in order: same config, same log.
  std::vector<faults::FaultLogEntry> fault_log;
  /// Every mesh event (breaker, health, fault, control plane), in order:
  /// the strongest determinism witness — one reordered event anywhere in
  /// the simulation changes it.
  std::vector<mesh::MeshEvent> mesh_events;
};

/// Throws std::invalid_argument naming the first misplaced phase unless
/// the phases start in strictly increasing order, the first at or after
/// the warmup and each before the measured window ends: a phase outside
/// the window would be reported empty, which reads as perfect.
void validate_phases(const ElibraryExperimentConfig& config);

/// Runs one e-library experiment; validates its phases first.
ElibraryExperimentResult run_elibrary_experiment(
    const ElibraryExperimentConfig& config);

/// One report key read from the run's snapshot: the sum of every counter
/// series named `series` whose labels include `labels`.
struct ReportSeries {
  std::string key;
  std::string series;
  obs::Labels labels;
};

/// The report of one e-library run: its canonical keys plus the
/// experiment's own `series`.
PointMetrics elibrary_point_metrics(
    ElibraryExperimentResult result,
    const std::vector<ReportSeries>& series = {});

/// Adds the `<name>_*` keys of one LS phase: `recorder` covers exactly
/// the phase and `scheduled` counts its arrivals.
void add_phase_metrics(PointMetrics& metrics, const std::string& name,
                       const LatencyRecorder& recorder,
                       std::uint64_t scheduled);

/// The data-plane resilience stance the fault experiments share: active
/// health checking, circuit breakers, per-try timeouts and up to three
/// jittered retries.
void apply_resilience_policies(mesh::MeshPolicies& policies);

}  // namespace meshnet::workload
