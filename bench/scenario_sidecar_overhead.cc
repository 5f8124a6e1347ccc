// TXT-OVH — reproduces the paper's §3.6 data point: the two sidecars
// interposed in each service-to-service call add latency "in the range of
// 3 msec at the 99th percentile for Istio".
//
// Two pods on one node. The same request stream runs twice:
//   direct : client app -> server app (no proxies)
//   meshed : client app -> local sidecar (outbound) -> remote sidecar
//            (inbound) -> server app
// and the table reports the per-percentile latency and the added
// overhead. The shape to check: a sub-millisecond median cost with a tail
// of a few milliseconds at p99 — not the absolute Istio numbers. The two
// runs are independent sweep points, so --threads=2 runs them in
// parallel with bit-identical results.

#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "scenario.h"
#include "stats/table.h"

namespace meshnet::bench {
namespace {

workload::PointMetrics run_once(bool meshed, double rps,
                                sim::Duration duration, std::uint64_t seed) {
  // Both arms run the same server service; only the meshed one gives it
  // a sidecar, so both serve the same response. The meshed client is the
  // gateway, where a meshed app's requests would enter the mesh; the
  // direct one goes straight to the server app's port.
  cluster::ServiceSpec server;
  server.name = "server";
  server.port = 8080;
  server.inject_sidecar = meshed;
  server.handler = [](const http::HttpRequest&) {
    app::HandlerResult plan;
    plan.processing_delay = 0;  // isolate proxy + network cost
    plan.response_bytes = 1024;
    return plan;
  };
  cluster::MeshSpec mesh_spec;
  mesh_spec.services = {server};
  ClientMesh rig(std::move(mesh_spec), /*through_gateway=*/meshed);

  workload::WorkloadSpec spec;
  // One name for both arms: the generator seeds its arrival stream from
  // it, so the two arms are offered the same requests.
  spec.name = "hop";
  spec.rps = rps;
  spec.arrival = workload::ArrivalProcess::kPoisson;
  spec.make_request = workload::simple_get_factory("server", "/item");
  return rig.run({spec}, seed, duration, sim::seconds(10),
                 /*max_connections=*/512);
}

}  // namespace

Outcome run_sidecar_overhead(const Args& args, workload::SweepRunner& runner) {
  const double rps = args.real("rps");
  const auto duration = args.duration();
  const auto seed = args.seed();

  std::printf(
      "TXT-OVH: latency added by the sidecar pair on one service-to-service "
      "hop\n(paper/Istio: ~3 ms at p99).\n\n");

  for (const bool meshed : {false, true}) {
    runner.add({{"path", meshed ? "meshed" : "direct"}},
               [meshed, rps, duration, seed] {
                 return run_once(meshed, rps, duration, seed);
               });
  }
  const workload::SweepResult sweep = runner.run();
  const workload::PointMetrics& direct = sweep.points[0].metrics;
  const workload::PointMetrics& meshed = sweep.points[1].metrics;
  std::map<std::string, double> overhead;
  for (const auto& [key, value] : meshed.scalars) {
    overhead[key] = value - direct.scalars.at(key);
  }

  stats::Table table({"path", "mean (ms)", "p50 (ms)", "p90 (ms)",
                      "p99 (ms)", "requests"});
  const auto add_row = [&table](const char* path,
                                const std::map<std::string, double>& ms,
                                std::string requests) {
    table.add_row({path, stats::Table::num(ms.at("mean_ms"), 3),
                   stats::Table::num(ms.at("p50_ms"), 3),
                   stats::Table::num(ms.at("p90_ms"), 3),
                   stats::Table::num(ms.at("p99_ms"), 3),
                   std::move(requests)});
  };
  add_row("direct", direct.scalars,
          std::to_string(direct.counters.at("completed")));
  add_row("via sidecars", meshed.scalars,
          std::to_string(meshed.counters.at("completed")));
  add_row("overhead", overhead, "-");
  std::printf("%s\n", table.to_string().c_str());
  std::printf("sidecar pair adds %.3f ms at p99 (paper cites ~3 ms for "
              "Istio; shape, not absolute, is the target)\n",
              overhead.at("p99_ms"));
  return {sweep, {}};
}

}  // namespace meshnet::bench
