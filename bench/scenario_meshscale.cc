// MESHSCALE — control-plane scaling on the declarative mesh (DESIGN.md
// §13).
//
// Each arm builds `--cells` independent N-service meshes from one
// generated MeshSpec (cluster::MeshBuilder) on the sharded parallel
// engine and drives them end to end through the ingress gateway while
// one leaf endpoint is crashed, deregistered and restored mid-run. The
// sweep scales N (--services, default 10,50,100; the paper's "thousands
// of services" pressure test) and contrasts three control-plane
// transports at the largest N:
//
//   push=delta   incremental (xDS delta-style) config pushes
//   push=full    full-snapshot pushes, same channel otherwise
//   scope=on     delta + cluster scoping + endpoint subsetting
//                (bounded per-sidecar endpoint tables)
//
// The MESHSCALE acceptance checks:
//   * every arm answers every request (success_rate == 1);
//   * at the largest N, the delta arm's churn-window bytes must be
//     < 25% of the full-snapshot arm's (single-endpoint churn);
//   * the delta arm's post-churn reconvergence must not regress vs the
//     full arm (both must reconverge at all);
//   * the smallest arm re-runs at 1 and 2 engine threads and the whole
//     metrics block must be bit-identical.
//
//   --services=CSV      sweep sizes (default 10,50,100); a cell of more
//                       than 250 pods spreads over several nodes
//   --cells=N           independent mesh replicas = engine shards
//   --engine-threads=N  worker threads for the sweep arms (default 1)

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "scenario.h"
#include "stats/table.h"
#include "workload/meshscale_experiment.h"

namespace meshnet::bench {
namespace {

struct Arm {
  int services = 0;
  bool delta = true;
  bool scoped = false;  ///< cluster scopes + endpoint subsetting
};

}  // namespace

Outcome run_meshscale(const Args& args, workload::SweepRunner& runner) {
  const std::vector<int>& sizes = args.counts("services");
  const int cells = args.count("cells");
  const int engine_threads = args.count("engine-threads");
  const int largest = *std::max_element(sizes.begin(), sizes.end());

  std::vector<Arm> arms;
  for (const int n : sizes) arms.push_back({n, /*delta=*/true, false});
  arms.push_back({largest, /*delta=*/false, false});  // byte comparator
  arms.push_back({largest, /*delta=*/true, true});    // bounded-state arm

  std::printf(
      "MESHSCALE: %d-cell declarative meshes under single-endpoint churn\n"
      "(delta config push vs full snapshots; scoped arm adds cluster "
      "scoping + endpoint subsetting).\n\n",
      cells);

  const auto make_config = [&](const Arm& arm) {
    workload::MeshscaleConfig config;
    config.services = arm.services;
    config.cells = cells;
    config.threads = engine_threads;
    config.seed = args.seed();
    config.duration = args.duration();
    config.delta_push = arm.delta;
    config.scoped = arm.scoped;
    return config;
  };
  const auto arm_params = [](const Arm& arm) {
    return std::vector<std::pair<std::string, std::string>>{
        {"services", std::to_string(arm.services)},
        {"push", arm.delta ? "delta" : "full"},
        {"scope", arm.scoped ? "on" : "off"}};
  };

  for (const Arm& arm : arms) {
    runner.add(arm_params(arm), [arm, &make_config] {
      return workload::run_meshscale_experiment(make_config(arm));
    });
  }
  const workload::SweepResult sweep = runner.run();

  const auto kb = [](std::uint64_t bytes) {
    return stats::Table::num(static_cast<double>(bytes) / 1024.0, 1);
  };
  stats::Table table({"services", "push", "scope", "pushes", "full KB",
                      "delta KB", "churn KB", "reconv (ms)", "eps/sidecar",
                      "max eps", "p50 (ms)", "p99 (ms)", "ok%"});
  for (std::size_t slot = 0; slot < arms.size(); ++slot) {
    const workload::PointMetrics& m = sweep.points[slot].metrics;
    const auto& counters = m.counters;
    table.add_row(
        {std::to_string(counters.at("services")),
         arms[slot].delta ? "delta" : "full",
         arms[slot].scoped ? "on" : "off",
         std::to_string(counters.at("cp_pushes")),
         kb(counters.at("cp_full_push_bytes")),
         kb(counters.at("cp_delta_push_bytes")),
         kb(counters.at("cp_churn_push_bytes")),
         stats::Table::num(m.scalars.at("churn_convergence_ms"), 1),
         stats::Table::num(m.scalars.at("mean_endpoints_per_sidecar"), 1),
         std::to_string(counters.at("max_endpoints_per_sidecar")),
         stats::Table::num(m.scalars.at("e2e_p50_ms"), 2),
         stats::Table::num(m.scalars.at("e2e_p99_ms"), 2),
         stats::Table::num(m.scalars.at("success_rate") * 100.0, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  bool all_succeeded = true;
  for (const workload::SweepPointResult& point : sweep.points) {
    all_succeeded =
        all_succeeded && point.metrics.scalars.at("success_rate") == 1.0;
  }
  std::vector<Check> checks = {
      check(all_succeeded, "success_rate == 1 on every arm")};

  // --- acceptance: delta churn bytes < 25% of full, at the largest N ----
  const workload::PointMetrics* delta_arm = nullptr;
  const workload::PointMetrics* full_arm = nullptr;
  for (std::size_t slot = 0; slot < arms.size(); ++slot) {
    if (arms[slot].services != largest || arms[slot].scoped) continue;
    (arms[slot].delta ? delta_arm : full_arm) = &sweep.points[slot].metrics;
  }
  if (delta_arm != nullptr && full_arm != nullptr) {
    const auto wire = [](const workload::PointMetrics* m) {
      return m->counters.at("cp_churn_push_bytes");
    };
    const auto reconverge_ms = [](const workload::PointMetrics* m) {
      return m->scalars.at("churn_convergence_ms");
    };
    const double ratio =
        wire(full_arm) > 0 ? static_cast<double>(wire(delta_arm)) /
                                 static_cast<double>(wire(full_arm))
                           : 1.0;
    std::printf(
        "churn window at %d services: delta %llu B vs full %llu B "
        "(%.1f%% of full)\n",
        largest, static_cast<unsigned long long>(wire(delta_arm)),
        static_cast<unsigned long long>(wire(full_arm)), ratio * 100.0);
    checks.push_back(check(
        ratio < 0.25, "churn-window delta bytes %.1f%% of full (goal < 25%%)",
        ratio * 100.0));
    checks.push_back(check(delta_arm->counters.at("cp_converged") != 0 &&
                               full_arm->counters.at("cp_converged") != 0,
                           "delta and full arms reconverge after the churn "
                           "restore"));
    checks.push_back(check(
        reconverge_ms(delta_arm) <= reconverge_ms(full_arm) * 1.05,
        "delta reconvergence %.1f ms within 5%% of full %.1f ms",
        reconverge_ms(delta_arm), reconverge_ms(full_arm)));
  }

  // --- acceptance: engine-thread bit-identity on the smallest arm -------
  {
    const Arm smallest{*std::min_element(sizes.begin(), sizes.end()), true,
                       false};
    const auto run_at = [&](int threads) {
      workload::MeshscaleConfig config = make_config(smallest);
      config.threads = threads;
      config.respect_worker_budget = false;
      return workload::run_meshscale_experiment(config);
    };
    checks.push_back(check(run_at(1) == run_at(2),
                           "determinism: %d-service arm bit-identical at 1 "
                           "and 2 engine threads",
                           smallest.services));
  }
  return {sweep, checks};
}

}  // namespace meshnet::bench
