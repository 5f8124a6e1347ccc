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

#include <vector>

#include "workload/elibrary_experiment.h"

namespace meshnet::workload {

/// What the OVERLOAD sweep varies.
struct OverloadArm {
  /// Estimated saturation throughput of the tuned topology (the knee).
  double capacity_rps = 90.0;
  /// Total offered load = load_factor * capacity_rps; LI fills what the
  /// fixed LS load (`ls_rps` of the run, well under capacity — the
  /// protected workload is not the one causing the overload) leaves.
  /// 2.0 is the acceptance point ("2x offered overload").
  double load_factor = 2.0;
  /// Toggles the admission subsystem (the experiment's two arms).
  bool admission = true;
};

/// `run` (LS rate, windows and seed as the caller set them) completed for
/// one arm: the LI rate, the e-library tuned for compute saturation
/// (small payloads so the bottleneck vNIC never saturates, 20 ms think
/// time, 7 app workers per service, a 2 s request deadline, adaptive
/// admission seeded at 7 with four slots reserved for LS), the
/// cross-layer filters — installed in both arms, so admission is the
/// only difference between them — and the drain.
ElibraryExperimentConfig overload_config(ElibraryExperimentConfig run,
                                         const OverloadArm& arm);

/// Report keys read from the `admission_*` series: sheds by class
/// (`ls_shed`, `li_shed`, `default_shed`) and by reason
/// (`shed_queue_full`, `shed_deadline`, `shed_preempted`), plus
/// `admission_accepted` and `admission_queued`.
const std::vector<ReportSeries>& overload_report_series();

}  // namespace meshnet::workload
