#pragma once

// The MESHSCALE experiment: N generated services built declaratively
// (cluster::MeshSpec -> MeshBuilder) and driven end to end — gateway,
// sidecars, apps, control plane — on the sharded parallel engine.
//
// Where PARSIM strips the mesh away to benchmark the engine, MESHSCALE
// keeps the whole stack and asks the control-plane scaling question from
// ROADMAP item 1: what does it cost to keep N services' sidecars
// configured as the mesh grows, and how much of that cost do delta
// (xDS-style incremental) pushes, cluster scoping and deterministic
// endpoint subsetting remove?
//
// Shape: `cells` independent replicas of one N-service layered fan-out
// mesh, one cell per engine shard. Cells never exchange messages — each
// is a complete mesh with its own control plane and ingress gateway — so
// for a fixed cell count the run is bit-identical at every engine thread
// count (the same guarantee PARSIM earns with cut edges, earned here by
// construction). Cells differ only in their arrival streams; together
// they model independent availability zones running the same topology.
//
// Mid-run (at 2/5 of the arrival window), one replica of the last (leaf)
// service is crashed and deregistered, then restored (at 3/5):
// single-endpoint churn, the dominant config-push trigger in production
// meshes. The experiment samples the
// push channel's byte counters at the churn instant so the report can
// separate steady-state config cost from the marginal cost of one
// endpoint flapping — the number the delta-push comparison is about.
//
// Determinism rules (same spirit as PARSIM):
//   * every request carries a workload-assigned fixed-format
//     x-request-id, so the sidecars' thread_local fallback id generator
//     is never consulted;
//   * per-visit app think time is a hash of (seed, cell, service, path),
//     not a draw from a shared stream;
//   * each cell's arrival process owns a named RNG stream.

#include <cstdint>

#include "sim/time.h"
#include "workload/sweep_runner.h"

namespace meshnet::workload {

struct MeshscaleConfig {
  int services = 50;   ///< generated services per cell (>= 4)
  int cells = 2;       ///< independent mesh replicas (= engine shards)
  int threads = 1;     ///< engine worker threads (0 = hardware concurrency)
  bool respect_worker_budget = true;

  std::uint64_t seed = 42;
  sim::Duration duration = sim::seconds(3);  ///< arrival window

  /// Control-plane transport under test: incremental deltas vs full
  /// snapshots (everything else about the push channel is identical).
  bool delta_push = true;
  /// Bounded per-sidecar state: compile each service's declared calls
  /// into a cluster scope (leaves get an empty scope, the gateway sees
  /// only the roots) and subset endpoints to one per subscriber. Off =
  /// every sidecar sees every cluster and every endpoint, the legacy
  /// O(N^2) view.
  bool scoped = false;
};

/// Runs one MESHSCALE arm and returns its report, read at the end of the
/// run from the run's registry (the snapshot: every cell's workload
/// series, its churn-instant push sample and its control plane's
/// cp_{full,delta}_push* series, summed in cell order), the live control
/// planes and the engine:
///   * the workload surface — requests_generated, responses, successes,
///     failures, success_rate, the e2e latency scalars and the
///     e2e_latency_us histogram (recorded in MICROSECONDS: us-scale keeps
///     the histogram's double accumulators exact; see
///     parsim_experiment.h);
///   * the control-plane push channel — cp_epochs, cp_pushes,
///     cp_{full,delta}_pushes, cp_delta_fallbacks,
///     cp_{full,delta}_push_bytes, the churn window's
///     cp_churn_push_bytes / cp_churn_pushes (end of run minus the
///     churn-instant sample), cp_converged and churn_convergence_ms
///     (restore -> full reconvergence, worst cell);
///   * per-sidecar endpoint-table sizes — sidecars, endpoint_entries,
///     max_ and mean_endpoints_per_sidecar, the state the
///     `scoped` arm exists to bound;
///   * the shape and engine — services, cells, events, engine_epochs,
///     engine_messages (thread-invariant for a fixed cell count).
PointMetrics run_meshscale_experiment(const MeshscaleConfig& config);

}  // namespace meshnet::workload
