#pragma once

// The PARSIM experiment: a generated layered fan-out mesh driven through
// the sharded parallel engine (sim/parallel.h).
//
// Purpose is twofold. As a benchmark, it is the engine's speedup case:
// one simulated run partitioned across S shards and executed on 1..N
// worker threads, where the workload metrics — and, for a fixed shard
// count, the engine metrics too — must stay bit-identical at every
// thread count while wall-clock drops. As a correctness harness, it is
// built so that the *workload-visible* results are also independent of
// the shard count itself, which gives the property tests a single-shard
// reference to diff an 8-shard run against.
//
// Shard-count invariance is earned, not assumed. Three rules make it
// hold:
//   * every delay in the system is strictly positive (edge latency,
//     serialization, compute), so no two causally-ordered events share a
//     timestamp;
//   * each service ingests same-timestamp arrivals canonically: arrivals
//     buffer, a drain runs at the same timestamp after all of them (it
//     is scheduled later so its seq is higher), and the batch is sorted
//     by (request id, source service) before queueing — the FIFO's
//     contents never depend on delivery order;
//   * per-request compute times are a hash of (service, request), not a
//     draw from a shared stream, so they are order-independent.
//
// Engine counters (events, epochs, loop stats) DO depend on the shard
// count; they are reported next to the workload metrics but the
// shard-invariance property excludes them.

#include <cstdint>
#include <string_view>

#include "cluster/topology_gen.h"
#include "sim/time.h"
#include "workload/sweep_runner.h"

namespace meshnet::workload {

struct ParsimConfig {
  /// The generated service DAG (default: 4+8+16+36 = 64 services).
  cluster::FanoutSpec topology = default_topology();

  int shards = 8;    ///< partition size; workload metrics don't depend on it
  /// Engine worker threads (0 = hardware concurrency). The engine opts
  /// out of the shared worker budget: a PARSIM run measures N-thread wall
  /// clock as the top-level consumer.
  int threads = 1;

  std::uint64_t seed = 42;
  sim::Duration duration = sim::seconds(5);  ///< arrival window; the run
                                             ///< then drains in-flight work

  /// Poisson arrival rate per root service. The default keeps leaf
  /// utilization ~25% (stable, drains fast) while giving each shard a few
  /// hundred events per barrier epoch — enough work to amortize the
  /// barrier on multi-core hosts.
  double root_rps = 400.0;

  static cluster::FanoutSpec default_topology();
};

/// Runs one PARSIM simulation and returns its report, read at the end of
/// the run from the merged shard registries and the engine:
///   * the workload surface — requests_generated, leaf_completions,
///     service_visits, services, edges, the e2e latency scalars and the
///     e2e_latency_us histogram (recorded in MICROSECONDS: us-scale values
///     keep the histogram's double accumulators exact, which is what makes
///     shard-count invariance bit-exact), and the workload snapshot —
///     invariant across shard AND thread counts;
///   * the engine surface — "events" and every engine_* key (shards, cut
///     edges, lookahead, epochs, messages, merged loop stats) — invariant
///     across thread counts for a fixed shard count, but NOT across shard
///     counts.
/// Nothing host-dependent (executor count, wall clock) is reported.
PointMetrics run_parsim_experiment(const ParsimConfig& config);

/// The end-to-end latency surface PARSIM and MESHSCALE share: the
/// snapshot's microsecond histogram `series` reported as e2e_latency_us,
/// with e2e_p50_ms, e2e_p99_ms and e2e_mean_ms (an empty histogram when
/// the series is absent).
void report_e2e_latency_us(PointMetrics& metrics, std::string_view series);

}  // namespace meshnet::workload
