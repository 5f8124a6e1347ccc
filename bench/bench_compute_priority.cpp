// ABL-CPU — extending prioritization beyond the network (paper §5:
// "coordinating management of other resources beyond the network (i.e.,
// compute and storage) ... prioritized request queuing").
//
// A single CPU-bound service (fixed worker pool) serves short latency-
// sensitive requests and long batch requests. With FIFO admission, LS
// requests wait behind whole batch jobs; with priority-aware admission
// queuing, they jump the queue. The network is uncontended throughout,
// isolating the compute effect. Two sweep points: fifo, priority.

#include <cstdio>
#include <string>

#include "app/mesh_builder.h"
#include "core/priority.h"
#include "stats/table.h"
#include "workload/bench_harness.h"
#include "workload/generator.h"

using namespace meshnet;

namespace {

workload::PointMetrics run_once(bool priority_scheduling, double ls_rps,
                                double li_rps, sim::Duration duration,
                                std::uint64_t seed) {
  http::reset_request_id_counter();
  sim::Simulator sim;
  cluster::MeshSpec mesh_spec;
  mesh_spec.nodes = {"node-a"};
  // The client pod is the gateway: the pool's requests enter the mesh on
  // its sidecar's outbound listener.
  mesh_spec.gateway.enabled = true;
  mesh_spec.gateway.pod_name = mesh_spec.gateway.service = "client";
  mesh_spec.gateway.port = 15001;
  cluster::ServiceSpec server;
  server.name = "server";
  server.port = 8080;
  server.app.max_concurrency = 4;
  server.app.priority_scheduling = priority_scheduling;
  server.handler = [](const http::HttpRequest& request) {
    app::HandlerResult plan;
    const bool batch =
        request.headers.get_or(http::headers::kMeshPriority, "") == "low";
    plan.processing_delay =
        batch ? sim::milliseconds(40) : sim::milliseconds(2);
    plan.response_bytes = batch ? 16 * 1024 : 1024;
    return plan;
  };
  mesh_spec.services = {server};
  auto mesh = cluster::MeshBuilder(sim).build(std::move(mesh_spec));
  mesh->control_plane().tracer().set_retention(0);
  const app::Microservice& app = *mesh->microservices().front();

  mesh::HttpClientPool::Options pool_options;
  pool_options.max_connections = 1024;
  mesh::HttpClientPool client(sim, mesh->pod("client")->transport(),
                              mesh->gateway_address(), pool_options);

  auto make_factory = [](const char* priority) {
    return [priority](std::uint64_t i) {
      http::HttpRequest request;
      request.path = "/job/" + std::to_string(i);
      request.headers.set(http::headers::kHost, "server");
      request.headers.set(http::headers::kMeshPriority, priority);
      return request;
    };
  };

  const sim::Time end = sim::seconds(1) + duration;
  workload::WorkloadSpec ls{"ls", ls_rps,
                            workload::ArrivalProcess::kUniformRandom,
                            make_factory("high"), 0, end, sim::seconds(1),
                            end};
  workload::WorkloadSpec li{"li", li_rps,
                            workload::ArrivalProcess::kUniformRandom,
                            make_factory("low"), 0, end, sim::seconds(1),
                            end};
  workload::OpenLoopGenerator ls_gen(sim, client, ls, seed);
  workload::OpenLoopGenerator li_gen(sim, client, li, seed + 1);
  ls_gen.start();
  li_gen.start();
  sim.run_until(end + sim::seconds(30));

  const workload::LatencyRecorder& ls_recorder = ls_gen.recorder();
  const workload::LatencyRecorder& li_recorder = li_gen.recorder();
  workload::PointMetrics metrics;
  metrics.scalars["ls_p50_ms"] = ls_recorder.p50_ms();
  metrics.scalars["ls_p99_ms"] = ls_recorder.p99_ms();
  metrics.scalars["li_p50_ms"] = li_recorder.p50_ms();
  metrics.scalars["li_p99_ms"] = li_recorder.p99_ms();
  metrics.counters["ls_completed"] = ls_recorder.count();
  metrics.counters["li_completed"] = li_recorder.count();
  metrics.counters["max_admission_queue"] = app.max_admission_queue_seen();
  metrics.histograms["ls_latency_ns"] = ls_recorder.histogram();
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "compute_priority", /*default_duration_s=*/20,
      /*default_seed=*/7, {"ls-rps", "li-rps"});
  const double ls_rps = options.flags.get_double_or(
      "ls-rps", 100.0, util::NumberRange::kPositive);
  const double li_rps = options.flags.get_double_or(
      "li-rps", 85.0, util::NumberRange::kPositive);
  const auto duration = sim::seconds(options.duration_s);
  const auto seed = options.seed;

  std::printf(
      "ABL-CPU: prioritized request queuing at a CPU-bound service "
      "(4 workers,\nLS jobs 2 ms, batch jobs 40 ms; %.0f/%.0f RPS).\n\n",
      ls_rps, li_rps);

  workload::SweepRunner runner(workload::sweep_options(options));
  for (const bool priority : {false, true}) {
    runner.add({{"admission", priority ? "priority" : "fifo"}},
               [priority, ls_rps, li_rps, duration, seed] {
                 return run_once(priority, ls_rps, li_rps, duration, seed);
               });
  }
  const workload::SweepResult sweep = runner.run();

  stats::Table table({"admission", "LS p50 (ms)", "LS p99 (ms)",
                      "LI p50 (ms)", "LI p99 (ms)", "LS done", "LI done",
                      "max queue"});
  for (const bool priority : {false, true}) {
    const workload::PointMetrics& m = sweep.points[priority ? 1 : 0].metrics;
    const auto ms = [&m](const char* key) {
      return stats::Table::num(m.scalars.at(key), 2);
    };
    const auto count = [&m](const char* key) {
      return std::to_string(m.counters.at(key));
    };
    table.add_row({priority ? "priority-aware" : "fifo", ms("ls_p50_ms"),
                   ms("ls_p99_ms"), ms("li_p50_ms"), ms("li_p99_ms"),
                   count("ls_completed"), count("li_completed"),
                   count("max_admission_queue")});
  }
  std::printf("%s\n", table.to_string().c_str());

  const stats::BenchReport report = workload::make_bench_report(
      "compute_priority",
      {{"seed", std::to_string(seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"ls_rps", stats::Table::num(ls_rps, 0)},
       {"li_rps", stats::Table::num(li_rps, 0)}},
      sweep);
  return workload::finish_harness(report, options);
}
