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
// FIG4/TXT-LI/ABL-COMP use it directly. OVERLOAD, CHAOS, CHAOS_CP and MTLS
// are each one function that takes the caller's config (rates, windows,
// seed) plus the few settings its arms vary, and fills in the policies,
// fault plan, phases and drain (see their headers). Reports come from
// elibrary_point_metrics(), which reads registry counters straight from
// the run's snapshot.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "app/elibrary.h"
#include "core/cross_layer.h"
#include "faults/chaos.h"
#include "mesh/sidecar.h"
#include "mesh/telemetry.h"
#include "obs/metric_registry.h"
#include "sim/loop_stats.h"
#include "stats/histogram.h"
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

struct WorkloadSummary {
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  double achieved_rps = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
};

/// LS-workload metrics over one phase of the run.
struct PhaseSummary {
  std::string name;
  std::uint64_t scheduled = 0;  ///< arrivals whose intended time is in-phase
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  double success_rate = 1.0;  ///< completed / (completed + errors)
  double goodput_rps = 0.0;   ///< successful completions / phase length
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct ElibraryExperimentResult {
  WorkloadSummary ls;
  WorkloadSummary li;

  /// Full latency distributions (nanoseconds, wrk2 scheduled-time
  /// convention) behind the summaries above. Bit-identical across runs
  /// with the same config — the determinism golden tests compare these.
  stats::LogHistogram ls_latency;
  stats::LogHistogram li_latency;
  std::vector<PhaseSummary> phases;  ///< in config order

  /// Present only when the config samples it.
  std::optional<double> bottleneck_utilization;
  std::uint64_t bottleneck_drops = 0;
  std::uint64_t high_band_bytes = 0;  ///< dequeued from the priority band
  std::uint64_t low_band_bytes = 0;

  // What the registry does not hold, read once at the end of the run.
  mesh::SidecarStats sidecars;  ///< summed over every sidecar
  std::uint64_t health_evictions = 0;
  std::uint64_t health_readmissions = 0;
  std::uint64_t flap_damps = 0;
  std::uint64_t final_epoch = 0;
  std::uint64_t stale_sidecars_at_end = 0;
  bool converged = false;      ///< all sidecars on the final epoch
  double reconverge_ms = 0.0;  ///< last recovery -> full convergence
  /// Peak sampled discovery staleness; present when the config samples it.
  std::optional<double> max_staleness_ms;

  /// Determinism witnesses: identical across runs with the same config.
  std::vector<faults::FaultLogEntry> fault_log;
  std::vector<mesh::MeshEvent> mesh_events;
  std::uint64_t events_executed = 0;
  /// Event-loop profile for the run (deterministic; see sim/loop_stats.h).
  sim::LoopStats loop_stats;
  /// The unified meshnet-metrics-v1 snapshot: edge metrics, span stats,
  /// mesh events, engine counters and every subsystem's series from one
  /// registry. Bit-identical across runs with the same config.
  obs::MetricsSnapshot metrics;

  /// The phase named `name`; throws std::out_of_range if there is none.
  const PhaseSummary& phase(std::string_view name) const;
};

ElibraryExperimentResult run_elibrary_experiment(
    const ElibraryExperimentConfig& config);

/// One report key read from the run's snapshot: the sum of every counter
/// series named `series` whose labels include `labels`.
struct ReportSeries {
  std::string key;
  std::string series;
  obs::Labels labels;
};

/// The report of one e-library run. Canonical keys for every run:
/// per-workload `{ls,li}_{p50,p90,p99,mean}_ms`, `_rps`, `_success_rate`,
/// `_completed`, `_errors` and `_latency_ns` histograms; per phase
/// `<phase>_{goodput_rps,success_rate,p50_ms,p99_ms,scheduled,completed,
/// errors}`; bottleneck, sidecar-total, health, convergence and engine
/// counters; the snapshot. `series` adds the experiment's own keys.
PointMetrics elibrary_point_metrics(
    const ElibraryExperimentResult& result,
    const std::vector<ReportSeries>& series = {});

/// `recorder` covers exactly the phase; `scheduled` counts its arrivals.
PhaseSummary summarize_phase(std::string name, const LatencyRecorder& recorder,
                             std::uint64_t scheduled);

/// The data-plane resilience stance the fault experiments share: active
/// health checking, circuit breakers, per-try timeouts and up to three
/// jittered retries, admitted by a retry budget of `retry_budget` of the
/// in-flight requests (floor `budget_min_concurrency`).
void apply_resilience_policies(mesh::MeshPolicies& policies,
                               double retry_budget,
                               std::uint32_t budget_min_concurrency);

}  // namespace meshnet::workload
