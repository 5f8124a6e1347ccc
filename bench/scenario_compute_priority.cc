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

#include "core/priority.h"
#include "scenario.h"
#include "stats/table.h"

namespace meshnet::bench {
namespace {

workload::PointMetrics run_once(bool priority_scheduling, double ls_rps,
                                double li_rps, sim::Duration duration,
                                std::uint64_t seed) {
  cluster::MeshSpec mesh_spec;
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
  ClientMesh rig(std::move(mesh_spec), /*through_gateway=*/true);

  auto make_factory = [](const char* priority) {
    return [priority](std::uint64_t i) {
      http::HttpRequest request;
      request.path = "/job/" + std::to_string(i);
      request.headers.set(http::headers::kHost, "server");
      request.headers.set(http::headers::kMeshPriority, priority);
      return request;
    };
  };

  workload::WorkloadSpec ls{"ls", ls_rps,
                            workload::ArrivalProcess::kUniformRandom,
                            make_factory("high")};
  workload::WorkloadSpec li{"li", li_rps,
                            workload::ArrivalProcess::kUniformRandom,
                            make_factory("low")};
  workload::PointMetrics metrics = rig.run(
      {ls, li}, seed, duration, sim::seconds(30), /*max_connections=*/1024);
  metrics.counters["max_admission_queue"] =
      rig.mesh().microservices().front()->max_admission_queue_seen();
  return metrics;
}

}  // namespace

Outcome run_compute_priority(const Args& args, workload::SweepRunner& runner) {
  const double ls_rps = args.real("ls-rps");
  const double li_rps = args.real("li-rps");
  const auto duration = args.duration();
  const auto seed = args.seed();

  std::printf(
      "ABL-CPU: prioritized request queuing at a CPU-bound service "
      "(4 workers,\nLS jobs 2 ms, batch jobs 40 ms; %.0f/%.0f RPS).\n\n",
      ls_rps, li_rps);

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
  return {sweep, {}};
}

}  // namespace meshnet::bench
