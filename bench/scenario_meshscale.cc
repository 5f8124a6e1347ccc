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
#include <string>
#include <vector>

#include "scenario.h"
#include "workload/meshscale_experiment.h"

namespace meshnet::bench {
namespace {

workload::MeshscaleConfig arm_config(const Args& args, int services,
                                     bool delta, bool scoped) {
  workload::MeshscaleConfig config;
  config.services = services;
  config.cells = args.count("cells");
  config.threads = args.count("engine-threads");
  config.seed = args.seed();
  config.duration = args.duration();
  config.delta_push = delta;
  config.scoped = scoped;
  return config;
}

int largest(const Args& args) {
  return *std::max_element(args.counts("services").begin(),
                           args.counts("services").end());
}

/// Arm "delta/<N>" per --services size, plus "full/<largest>" (the byte
/// comparator) and "scoped/<largest>" (the bounded-state arm).
std::vector<Arm> arms(const Args& args) {
  std::vector<Arm> arms;
  const auto add = [&](int services, bool delta, bool scoped) {
    const std::string n = std::to_string(services);
    const char* push = delta ? "delta" : "full";
    arms.push_back({(scoped ? "scoped" : push) + ("/" + n),
                    {{"services", n},
                     {"push", push},
                     {"scope", scoped ? "on" : "off"}},
                    [config = arm_config(args, services, delta, scoped)](
                        ArmLog&) {
                      return workload::run_meshscale_experiment(config);
                    }});
  };
  for (const int n : args.counts("services")) add(n, true, false);
  add(largest(args), false, false);
  add(largest(args), true, true);
  return arms;
}

std::vector<Check> checks(const Args& args, const Results& results) {
  bool all_succeeded = true;
  for (const std::string& arm : results.names()) {
    all_succeeded =
        all_succeeded && results.scalar(arm, "success_rate") == 1.0;
  }
  std::vector<Check> checks = {
      check(all_succeeded, "success_rate == 1 on every arm")};

  // Delta churn bytes < 25% of full, at the largest N.
  const std::string n = std::to_string(largest(args));
  const std::string delta = "delta/" + n;
  const std::string full = "full/" + n;
  const auto wire = [&](const std::string& arm) {
    return static_cast<unsigned long long>(
        results.count(arm, "cp_churn_push_bytes"));
  };
  const double ratio =
      wire(full) > 0 ? static_cast<double>(wire(delta)) / wire(full) : 1.0;
  checks.push_back(check(
      ratio < 0.25,
      "churn window at %s services: delta %llu B vs full %llu B, %.1f%% of "
      "full (goal < 25%%)",
      n.c_str(), wire(delta), wire(full), ratio * 100.0));
  checks.push_back(check(results.count(delta, "cp_converged") != 0 &&
                             results.count(full, "cp_converged") != 0,
                         "delta and full arms reconverge after the churn "
                         "restore"));
  const double delta_ms = results.scalar(delta, "churn_convergence_ms");
  const double full_ms = results.scalar(full, "churn_convergence_ms");
  checks.push_back(check(delta_ms <= full_ms * 1.05,
                         "delta reconvergence %.1f ms within 5%% of full "
                         "%.1f ms",
                         delta_ms, full_ms));

  // Engine-thread bit-identity on the smallest arm.
  const int smallest = *std::min_element(args.counts("services").begin(),
                                         args.counts("services").end());
  const auto run_at = [&](int threads) {
    workload::MeshscaleConfig at = arm_config(args, smallest, true, false);
    at.threads = threads;
    at.respect_worker_budget = false;
    return workload::run_meshscale_experiment(at);
  };
  checks.push_back(check(run_at(1) == run_at(2),
                         "determinism: %d-service arm bit-identical at 1 and "
                         "2 engine threads",
                         smallest));
  return checks;
}

}  // namespace

const Scenario kMeshscaleScenario = {
    .name = "meshscale",
    .title = "MESHSCALE: multi-cell declarative meshes under "
             "single-endpoint churn\n(delta config push vs full "
             "snapshots; scoped arm adds cluster scoping + endpoint "
             "subsetting).",
    .duration_s = 3,
    .seed = 42,
    .flags = {{"services", FlagKind::kInts, 1, "10,50,100", "services"},
              {"cells", FlagKind::kInt, 1, "2", "cells"},
              {"engine-threads", FlagKind::kInt, 0, "1"}},
    .arms = arms,
    .tables = {{.columns = {{"pushes", "cp_pushes"},
                            {"full KB", "cp_full_push_bytes", 1, 1 / 1024.0},
                            {"delta KB", "cp_delta_push_bytes", 1,
                             1 / 1024.0},
                            {"churn KB", "cp_churn_push_bytes", 1,
                             1 / 1024.0},
                            {"reconv (ms)", "churn_convergence_ms"},
                            {"eps/sidecar", "mean_endpoints_per_sidecar"},
                            {"max eps", "max_endpoints_per_sidecar"},
                            {"p50 (ms)", "e2e_p50_ms", 2},
                            {"p99 (ms)", "e2e_p99_ms", 2},
                            {"ok%", "success_rate", 2, 100}}}},
    .checks = checks,
};

}  // namespace meshnet::bench
