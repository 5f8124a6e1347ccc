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

#include "app/mesh_builder.h"
#include "stats/table.h"
#include "workload/bench_harness.h"
#include "workload/generator.h"

using namespace meshnet;

namespace {

workload::PointMetrics run_once(bool meshed, double rps,
                                sim::Duration duration, std::uint64_t seed) {
  http::reset_request_id_counter();
  sim::Simulator sim;
  cluster::MeshSpec mesh_spec;
  mesh_spec.nodes = {"node-a"};
  // Both arms run the same server service; only the meshed one gives it
  // a sidecar, so both serve the same response.
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
  mesh_spec.services = {server};
  if (meshed) {
    // The client pod is the gateway: its sidecar's outbound listener is
    // where the requests enter the mesh, as a meshed app's traffic would.
    mesh_spec.gateway.enabled = true;
    mesh_spec.gateway.pod_name = mesh_spec.gateway.service = "client";
    mesh_spec.gateway.port = 15001;
  } else {
    mesh_spec.external_pods.emplace_back().name = "client";
  }
  auto mesh = cluster::MeshBuilder(sim).build(std::move(mesh_spec));
  mesh->control_plane().tracer().set_retention(0);

  // Direct mode goes straight to the server app's port.
  const net::SocketAddress target =
      meshed ? mesh->gateway_address()
             : net::SocketAddress{mesh->pod("server-v1")->ip(), 8080};
  mesh::HttpClientPool::Options options;
  options.max_connections = 512;
  mesh::HttpClientPool client(sim, mesh->pod("client")->transport(), target,
                              options);

  workload::WorkloadSpec spec;
  // One name for both arms: the generator seeds its arrival stream from
  // it, so the two arms are offered the same requests.
  spec.name = "hop";
  spec.rps = rps;
  spec.arrival = workload::ArrivalProcess::kPoisson;
  spec.make_request = workload::simple_get_factory("server", "/item");
  spec.start = 0;
  spec.end = sim::seconds(1) + duration;
  spec.measure_start = sim::seconds(1);
  spec.measure_end = spec.end;

  workload::OpenLoopGenerator gen(sim, client, spec, seed);
  gen.start();
  sim.run_until(spec.end + sim::seconds(10));

  const workload::LatencyRecorder& recorder = gen.recorder();
  workload::PointMetrics metrics;
  metrics.scalars["p50_ms"] = recorder.p50_ms();
  metrics.scalars["p90_ms"] = recorder.p90_ms();
  metrics.scalars["p99_ms"] = recorder.p99_ms();
  metrics.scalars["mean_ms"] = recorder.mean_ms();
  metrics.counters["generated"] = gen.sent();
  metrics.counters["completed"] = recorder.count();
  metrics.counters["errors"] = recorder.errors();
  metrics.histograms["latency_ns"] = recorder.histogram();
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "sidecar_overhead", /*default_duration_s=*/30,
      /*default_seed=*/7, {"rps"});
  const double rps = options.flags.get_double_or(
      "rps", 200.0, util::NumberRange::kPositive);
  const auto duration = sim::seconds(options.duration_s);
  const auto seed = options.seed;

  std::printf(
      "TXT-OVH: latency added by the sidecar pair on one service-to-service "
      "hop\n(paper/Istio: ~3 ms at p99).\n\n");

  workload::SweepRunner runner(workload::sweep_options(options));
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

  const stats::BenchReport report = workload::make_bench_report(
      "sidecar_overhead",
      {{"seed", std::to_string(seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"rps", stats::Table::num(rps, 0)}},
      sweep);
  return workload::finish_harness(report, options);
}
