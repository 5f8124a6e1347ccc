#pragma once

// The OVERLOAD experiment: compute saturation on the e-library topology.
//
// The paper's case study (§4.3) protects LS traffic at a *bandwidth*
// bottleneck; this experiment drives the complementary failure mode —
// offered load past the compute knee of the service tree — and measures
// whether priority-aware admission control at the sidecars keeps the
// latency-sensitive workload within its uncontended latency while the
// shedding falls on the latency-insensitive analytics traffic.
//
// Setup: the e-library app tuned so the frontend's worker pool (not the
// ratings vNIC) is the bottleneck. LS load is held fixed at a fraction
// of capacity; LI load fills the remainder of `load_factor * capacity`.
// Sweeping load_factor past 1.0 with admission on/off produces the
// collapse-vs-controlled comparison; BENCH_overload.json commits it.

#include <cstdint>
#include <vector>

#include "app/elibrary.h"
#include "core/cross_layer.h"
#include "workload/elibrary_experiment.h"
#include "workload/generator.h"

namespace meshnet::workload {

struct OverloadExperimentConfig {
  /// Estimated saturation throughput of the tuned topology (the knee).
  double capacity_rps = 90.0;
  /// Offered LS load, held fixed across the sweep (well under capacity —
  /// the protected workload is not the one causing the overload).
  double ls_rps = 10.0;
  /// Total offered load = load_factor * capacity_rps; LI fills the
  /// difference. 2.0 is the acceptance point ("2x offered overload").
  double load_factor = 2.0;
  /// Toggles the admission subsystem (the experiment's two arms).
  bool admission = true;

  sim::Duration warmup = sim::seconds(3);
  sim::Duration duration = sim::seconds(10);  ///< measured window
  sim::Duration cooldown = sim::seconds(2);
  std::uint64_t seed = 42;
  ArrivalProcess arrival = ArrivalProcess::kUniformRandom;

  core::CrossLayerConfig cross_layer_config =
      ElibraryExperimentConfig::default_cross_layer_config();

  app::ElibraryOptions app = default_overload_app();

  double li_rps() const noexcept {
    const double total = load_factor * capacity_rps;
    return total > ls_rps ? total - ls_rps : 0.0;
  }

  /// E-library options tuned for compute saturation: small payloads (the
  /// bottleneck vNIC never saturates), 20 ms think time, 7 app workers
  /// per service, a 2 s request deadline, and the admission defaults
  /// (adaptive limit seeded at 7, four slots reserved for LS).
  static app::ElibraryOptions default_overload_app();
};

/// The run config for one arm: both arms run with the cross-layer
/// filters installed, so admission is the only difference between them.
ElibraryExperimentConfig elibrary_config(
    const OverloadExperimentConfig& config);

/// Report keys read from the `admission_*` series: sheds by class
/// (`ls_shed`, `li_shed`, `default_shed`) and by reason
/// (`shed_queue_full`, `shed_deadline`, `shed_preempted`), plus
/// `admission_accepted` and `admission_queued`.
const std::vector<ReportSeries>& overload_report_series();

}  // namespace meshnet::workload
