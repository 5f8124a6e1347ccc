// TXT-OVH — reproduces the paper's §3.6 data point: the two sidecars
// interposed in each service-to-service call add latency "in the range of
// 3 msec at the 99th percentile for Istio".
//
// Two pods on one node. The same request stream runs twice:
//   direct : client app -> server app (no proxies)
//   meshed : client app -> local sidecar (outbound) -> remote sidecar
//            (inbound) -> server app
// and the table reports the per-percentile latency, and a line the added
// overhead. The shape to check: a sub-millisecond median cost with a tail
// of a few milliseconds at p99 — not the absolute Istio numbers.

#include <string>
#include <utility>
#include <vector>

#include "scenario.h"

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

std::vector<Arm> arms(const Args& args) {
  std::vector<Arm> arms;
  for (const bool meshed : {false, true}) {
    const char* path = meshed ? "meshed" : "direct";
    arms.push_back({path, {{"path", path}},
                    [meshed, rps = args.real("rps"),
                     duration = args.duration(),
                     seed = args.seed()](ArmLog&) {
                      return run_once(meshed, rps, duration, seed);
                    }});
  }
  return arms;
}

/// What the sidecar pair adds: the meshed arm minus the direct one.
std::vector<Check> checks(const Args&, const Results& results) {
  const auto added = [&](const char* key) {
    return results.scalar("meshed", key) - results.scalar("direct", key);
  };
  return {note("sidecar pair adds %.3f ms mean, %.3f ms p50, %.3f ms p90, "
               "%.3f ms p99 (paper cites ~3 ms at p99 for Istio)",
               added("mean_ms"), added("p50_ms"), added("p90_ms"),
               added("p99_ms"))};
}

}  // namespace

const Scenario kSidecarOverheadScenario = {
    .name = "sidecar_overhead",
    .title = "TXT-OVH: latency added by the sidecar pair on one "
             "service-to-service hop\n(paper/Istio: ~3 ms at p99; shape, "
             "not absolute, is the target).",
    .duration_s = 30,
    .seed = 7,
    .flags = {{"rps", FlagKind::kRealRounded, 1, "200", "rps"}},
    .arms = arms,
    .tables = {{.columns = {{"mean (ms)", "mean_ms", 3},
                            {"p50 (ms)", "p50_ms", 3},
                            {"p90 (ms)", "p90_ms", 3},
                            {"p99 (ms)", "p99_ms", 3},
                            {"requests", "completed"}},
                .label = "path"}},
    .checks = checks,
};

}  // namespace meshnet::bench
