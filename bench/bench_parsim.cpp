// PARSIM — the parallel-engine speedup case (DESIGN.md §12).
//
// One generated 64-service layered fan-out mesh, partitioned into
// --shards shards, is simulated once per arm with a different engine
// worker-thread count (--engine-threads, default 1,2,4,8). For a fixed
// shard count every arm must produce a bit-identical metrics block —
// the binary enforces that itself and exits 1 on any divergence — while
// wall-clock drops with threads. Speedup is a wall_* figure: reported,
// never baseline-compared, and only meaningful when the host actually
// has the cores (see --require-speedup).
//
// Arms always run sequentially (each arm is measuring whole-machine
// wall-clock); the standard --threads flag is accepted but does not fan
// arms out. The PARSIM engine opts out of the shared worker budget for
// the same reason: this binary IS the top-level thread consumer.
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

#include "sim/parallel.h"
#include "stats/table.h"
#include "workload/bench_harness.h"
#include "workload/parsim_experiment.h"

using namespace meshnet;

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "parsim", /*default_duration_s=*/5, /*default_seed=*/42,
      {"shards", "engine-threads", "require-speedup"});

  const int shards = workload::int_flag(options, "shards", 8);
  const std::vector<int> arms = workload::int_list_flag(
      options, "engine-threads", "1,2,4,8", /*min=*/0);
  const double require_speedup =
      options.flags.get_double_or("require-speedup", 0.0,
                                  util::NumberRange::kNonNegative);
  if (options.threads != 1) {
    std::fprintf(stderr,
                 "note: PARSIM arms measure whole-machine wall clock and "
                 "always run sequentially; --threads does not fan them.\n");
  }

  std::printf(
      "PARSIM: sharded parallel engine on a generated 64-service mesh\n"
      "(identical metrics at every thread count; wall-clock is the only "
      "thing allowed to change).\n\n");

  workload::SweepOptions sweep_opts;
  sweep_opts.threads = 1;  // arms own the machine, one at a time
  sweep_opts.progress = true;
  workload::SweepRunner runner(sweep_opts);

  for (const int threads : arms) {
    runner.add({{"threads", std::to_string(threads)}},
               [threads, shards, &options] {
                 workload::ParsimConfig config;
                 config.shards = shards;
                 config.threads = threads;
                 config.seed = options.seed;
                 config.duration = sim::seconds(options.duration_s);
                 return workload::run_parsim_experiment(config);
               });
  }
  const workload::SweepResult sweep = runner.run();

  const double base_wall = sweep.points.front().wall_ms;
  double best_wall = base_wall;
  stats::Table table({"threads", "executors", "events", "epochs",
                      "cross-shard msgs", "wall (ms)", "Mev/s", "speedup"});
  for (std::size_t slot = 0; slot < arms.size(); ++slot) {
    const auto& counters = sweep.points[slot].metrics.counters;
    const double wall = sweep.points[slot].wall_ms;
    best_wall = std::min(best_wall, wall);
    // Host-dependent (0 = all cores), so never part of the report.
    const int executors = sim::ParallelEngine::unbudgeted_executors(
        arms[slot], static_cast<int>(counters.at("engine_shards")));
    table.add_row(
        {std::to_string(arms[slot]), std::to_string(executors),
         std::to_string(counters.at("events")),
         std::to_string(counters.at("engine_epochs")),
         std::to_string(counters.at("engine_messages")),
         stats::Table::num(wall, 1),
         stats::Table::num(static_cast<double>(counters.at("events")) /
                               (wall * 1000.0),
                           2),
         stats::Table::num(wall > 0 ? base_wall / wall : 0.0, 2) + "x"});
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

  // The engine's core claim, enforced on every run: thread count changes
  // wall-clock only. Any metric divergence between arms is a bug.
  for (std::size_t slot = 1; slot < arms.size(); ++slot) {
    if (sweep.points.front().metrics != sweep.points[slot].metrics) {
      std::fprintf(stderr,
                   "DETERMINISM FAILURE: metrics at --engine-threads=%d "
                   "differ from the %d-thread arm\n",
                   arms[slot], arms.front());
      return 1;
    }
  }
  std::printf("determinism: %zu arms bit-identical\n", arms.size());

  const double speedup = best_wall > 0 ? base_wall / best_wall : 0.0;
  if (require_speedup > 0.0 && speedup < require_speedup) {
    std::fprintf(stderr,
                 "SPEEDUP FAILURE: best wall-clock speedup %.2fx < required "
                 "%.2fx\n",
                 speedup, require_speedup);
    return 1;
  }

  stats::BenchReport report = workload::make_bench_report(
      "parsim",
      {{"seed", std::to_string(options.seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"shards", std::to_string(shards)},
       {"engine_threads", options.flags.get_or("engine-threads", "1,2,4,8")},
       {"topology", "4x8x16x36"}},
      sweep);
  for (std::size_t slot = 0; slot < arms.size(); ++slot) {
    const double wall = sweep.points[slot].wall_ms;
    report.engine.emplace_back(
        "wall_speedup_t" + std::to_string(arms[slot]),
        wall > 0 ? base_wall / wall : 0.0);
  }
  return workload::finish_harness(report, options);
}
