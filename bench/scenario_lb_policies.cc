// ABL-LB — load-balancing policy ablation (paper §2 lists LB among core
// sidecar functions; §3.6 notes "the right algorithms for these modules
// may be non-obvious").
//
// A three-replica service where one replica is 10x slower serves an open-
// loop stream under each LB policy. Expected shape: least-request routes
// around the slow replica and wins the tail; round-robin and random keep
// feeding it and pay at p99; weighted-round-robin wins only if the
// operator already knew the weights. One sweep point per policy.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "scenario.h"
#include "stats/table.h"

namespace meshnet::bench {
namespace {

workload::PointMetrics run_once(mesh::LbPolicy policy, double rps,
                                sim::Duration duration, std::uint64_t seed) {
  cluster::MeshSpec mesh_spec;
  mesh_spec.policies.default_lb = policy;
  cluster::ServiceSpec server;
  server.name = "server";
  server.replicas = 3;
  server.port = 8080;
  for (int i = 1; i <= 3; ++i) {
    cluster::PodOptions options;
    options.labels = {{"weight", i == 3 ? "1" : "10"}};  // for WRR
    server.replica_options.push_back(options);
  }
  mesh_spec.services = {server};
  ClientMesh rig(std::move(mesh_spec), /*through_gateway=*/true);

  // A service has one handler, so the replicas' apps are built here:
  // server-v3 is the straggler.
  const std::vector<std::string> replicas = cluster::service_pod_names(server);
  std::vector<std::unique_ptr<app::Microservice>> apps;
  for (const std::string& name : replicas) {
    const bool slow = name == "server-v3";
    apps.push_back(std::make_unique<app::Microservice>(
        rig.sim(), *rig.mesh().pod(name), [slow](const http::HttpRequest&) {
          app::HandlerResult plan;
          plan.processing_delay =
              slow ? sim::milliseconds(20) : sim::milliseconds(2);
          plan.response_bytes = 2048;
          return plan;
        }));
  }

  workload::WorkloadSpec spec;
  spec.name = "lb";
  spec.rps = rps;
  spec.arrival = workload::ArrivalProcess::kPoisson;
  spec.make_request = workload::simple_get_factory("server", "/item");
  workload::PointMetrics metrics = rig.run(
      {spec}, seed, duration, sim::seconds(10), /*max_connections=*/512);
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    // The app's own served-request counter is the ground truth.
    metrics.counters["served_" + replicas[i]] =
        apps[i]->requests_served();
  }
  return metrics;
}

}  // namespace

Outcome run_lb_policies(const Args& args, workload::SweepRunner& runner) {
  const double rps = args.real("rps");
  const auto duration = args.duration();
  const auto seed = args.seed();

  std::printf(
      "ABL-LB: sidecar load-balancing policies, 3 replicas, one 10x "
      "slower, %.0f RPS.\n\n", rps);

  const std::vector<mesh::LbPolicy> lb_policies = {
      mesh::LbPolicy::kRoundRobin, mesh::LbPolicy::kRandom,
      mesh::LbPolicy::kLeastRequest, mesh::LbPolicy::kWeightedRoundRobin};

  for (const mesh::LbPolicy policy : lb_policies) {
    runner.add({{"policy", std::string(mesh::lb_policy_name(policy))}},
               [policy, rps, duration, seed] {
                 return run_once(policy, rps, duration, seed);
               });
  }
  const workload::SweepResult sweep = runner.run();

  stats::Table table({"policy", "mean (ms)", "p50 (ms)", "p99 (ms)",
                      "v1", "v2", "v3(slow)", "errors"});
  for (std::size_t i = 0; i < lb_policies.size(); ++i) {
    const workload::PointMetrics& m = sweep.points[i].metrics;
    const auto count = [&m](const char* key) {
      return std::to_string(m.counters.at(key));
    };
    table.add_row({std::string(mesh::lb_policy_name(lb_policies[i])),
                   stats::Table::num(m.scalars.at("mean_ms"), 2),
                   stats::Table::num(m.scalars.at("p50_ms"), 2),
                   stats::Table::num(m.scalars.at("p99_ms"), 2),
                   count("served_server-v1"), count("served_server-v2"),
                   count("served_server-v3"), count("errors")});
  }
  std::printf("%s\n", table.to_string().c_str());
  return {sweep, {}};
}

}  // namespace meshnet::bench
