// PARSIM — the parallel-engine speedup case (DESIGN.md §12).
//
// One generated 64-service layered fan-out mesh, partitioned into
// --shards shards, is simulated once per arm with a different engine
// worker-thread count (--engine-threads, default 1,2,4,8). For a fixed
// shard count every arm must produce a bit-identical metrics block —
// an acceptance check, so any divergence exits 1 — while
// wall-clock drops with threads. Speedup is a wall_* figure: reported,
// never baseline-compared, and only meaningful when the host actually
// has the cores (see --require-speedup).
//
// Arms always run sequentially (each arm is measuring whole-machine
// wall-clock); the standard --threads flag is accepted but does not fan
// arms out. The PARSIM engine opts out of the shared worker budget for
// the same reason: this scenario IS the top-level thread consumer.
//
//   --shards=N            partition size (default 8)
//   --engine-threads=CSV  worker-thread arms (default 1,2,4,8)
//   --require-speedup=X   exit 1 unless wall(t=1)/wall(best) >= X.
//                         Off by default: CI containers are often
//                         single-core, where the honest speedup is ~1.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "scenario.h"
#include "sim/parallel.h"
#include "stats/table.h"
#include "workload/parsim_experiment.h"

namespace meshnet::bench {

Outcome run_parsim(const Args& args, workload::SweepRunner& runner) {
  const int shards = args.count("shards");
  const std::vector<int>& arms = args.counts("engine-threads");
  const double require_speedup = args.real("require-speedup");

  std::printf(
      "PARSIM: sharded parallel engine on a generated 64-service mesh\n"
      "(identical metrics at every thread count; wall-clock is the only "
      "thing allowed to change).\n\n");

  for (const int threads : arms) {
    runner.add({{"threads", std::to_string(threads)}},
               [threads, shards, &args] {
                 workload::ParsimConfig config;
                 config.shards = shards;
                 config.threads = threads;
                 config.seed = args.seed();
                 config.duration = args.duration();
                 return workload::run_parsim_experiment(config);
               });
  }
  const workload::SweepResult sweep = runner.run();

  const double base_wall = sweep.points.front().wall_ms;
  double best_wall = base_wall;
  std::vector<std::pair<std::string, double>> engine;
  stats::Table table({"threads", "executors", "events", "epochs",
                      "cross-shard msgs", "wall (ms)", "Mev/s", "speedup"});
  for (std::size_t slot = 0; slot < arms.size(); ++slot) {
    const auto& counters = sweep.points[slot].metrics.counters;
    const double wall = sweep.points[slot].wall_ms;
    best_wall = std::min(best_wall, wall);
    // Host-dependent (0 = all cores), so never part of the report.
    const int executors = sim::ParallelEngine::unbudgeted_executors(
        arms[slot], static_cast<int>(counters.at("engine_shards")));
    const double speedup = wall > 0 ? base_wall / wall : 0.0;
    engine.emplace_back("wall_speedup_t" + std::to_string(arms[slot]),
                        speedup);
    table.add_row(
        {std::to_string(arms[slot]), std::to_string(executors),
         std::to_string(counters.at("events")),
         std::to_string(counters.at("engine_epochs")),
         std::to_string(counters.at("engine_messages")),
         stats::Table::num(wall, 1),
         stats::Table::num(static_cast<double>(counters.at("events")) /
                               (wall * 1000.0),
                           2),
         stats::Table::num(speedup, 2) + "x"});
  }
  std::printf("%s\n", table.to_string().c_str());
  const auto shape = [&sweep](const char* key) {
    return static_cast<unsigned long long>(
        sweep.points.front().metrics.counters.at(key));
  };
  std::printf(
      "topology: %llu services, %llu edges; partition: %llu shards, %llu "
      "cut edges, lookahead %.3f ms\n",
      shape("services"), shape("edges"), shape("engine_shards"),
      shape("engine_cut_edges"),
      sim::to_milliseconds(
          static_cast<sim::Duration>(shape("engine_lookahead_ns"))));

  // The engine's core claim, checked on every run: thread count changes
  // wall-clock only. Any metric divergence between arms is a bug.
  bool identical = true;
  for (std::size_t slot = 1; slot < arms.size(); ++slot) {
    identical = identical &&
                sweep.points.front().metrics == sweep.points[slot].metrics;
  }
  std::vector<Check> checks = {
      check(identical, "determinism: %zu arms bit-identical", arms.size())};
  const double speedup = best_wall > 0 ? base_wall / best_wall : 0.0;
  if (require_speedup > 0.0) {
    checks.push_back(check(speedup >= require_speedup,
                           "best wall-clock speedup %.2fx >= required %.2fx",
                           speedup, require_speedup));
  }
  return {sweep, checks, engine};
}

}  // namespace meshnet::bench
