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
// --require-speedup=X (off by default: CI containers are often
// single-core, where the honest speedup is ~1) fails the run unless the
// best arm is X times faster than the first.

#include <algorithm>
#include <string>
#include <vector>

#include "scenario.h"
#include "sim/parallel.h"
#include "workload/parsim_experiment.h"

namespace meshnet::bench {
namespace {

/// Arm "t<N>" runs the engine on N worker threads.
std::vector<Arm> arms(const Args& args) {
  std::vector<Arm> arms;
  for (const int threads : args.counts("engine-threads")) {
    workload::ParsimConfig config;
    config.shards = args.count("shards");
    config.threads = threads;
    config.seed = args.seed();
    config.duration = args.duration();
    arms.push_back({"t" + std::to_string(threads),
                    {{"threads", std::to_string(threads)}},
                    [config](ArmLog&) {
                      return workload::run_parsim_experiment(config);
                    }});
  }
  return arms;
}

std::vector<Check> checks(const Args& args, const Results& results) {
  const std::vector<std::string>& arms = results.names();
  const std::string& first = arms.front();
  const auto shape = [&](const char* key) {
    return static_cast<unsigned long long>(results.count(first, key));
  };
  std::vector<Check> checks = {note(
      "topology: %llu services, %llu edges; partition: %llu shards, %llu cut "
      "edges, lookahead %.3f ms",
      shape("services"), shape("edges"), shape("engine_shards"),
      shape("engine_cut_edges"),
      sim::to_milliseconds(
          static_cast<sim::Duration>(shape("engine_lookahead_ns"))))};
  // Wall clock, executors (0 threads = all cores) and speedup are
  // host-dependent, so they are printed here and never compared.
  const double base_wall = results.point(first).wall_ms;
  double best_wall = base_wall;
  bool identical = true;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const double wall = results.point(arms[i]).wall_ms;
    best_wall = std::min(best_wall, wall);
    identical = identical && results[arms[i]] == results[first];
    checks.push_back(note(
        "%s: %.1f ms wall, %.2f Mev/s, %.2fx speedup on %d executors",
        arms[i].c_str(), wall,
        static_cast<double>(results.count(arms[i], "events")) /
            (wall * 1000.0),
        wall > 0 ? base_wall / wall : 0.0,
        sim::ParallelEngine::unbudgeted_executors(
            args.counts("engine-threads")[i],
            static_cast<int>(shape("engine_shards")))));
  }
  // The engine's core claim, checked on every run: thread count changes
  // wall-clock only. Any metric divergence between arms is a bug.
  checks.push_back(check(identical, "determinism: %zu arms bit-identical",
                         arms.size()));
  const double required = args.real("require-speedup");
  const double speedup = best_wall > 0 ? base_wall / best_wall : 0.0;
  if (required > 0.0) {
    checks.push_back(check(speedup >= required,
                           "best wall-clock speedup %.2fx >= required %.2fx",
                           speedup, required));
  }
  return checks;
}

}  // namespace

const Scenario kParsimScenario = {
    .name = "parsim",
    .title = "PARSIM: sharded parallel engine on a generated 64-service "
             "mesh\n(identical metrics at every thread count; wall-clock "
             "is the only thing allowed to change).",
    .duration_s = 5,
    .seed = 42,
    .flags = {{"shards", FlagKind::kInt, 1, "8", "shards"},
              {"engine-threads", FlagKind::kInts, 0, "1,2,4,8",
               "engine_threads"},
              {"require-speedup", FlagKind::kReal, 0, "0"}},
    .arms = arms,
    .tables = {{.columns = {{"events", "events"},
                            {"epochs", "engine_epochs"},
                            {"cross-shard msgs", "engine_messages"}},
                .label = "threads"}},
    .checks = checks,
    .fixed_config = {{"topology", "4x8x16x36"}},
    .sequential = true,
};

}  // namespace meshnet::bench
