// ABL-CPU — extending prioritization beyond the network (paper §5:
// "coordinating management of other resources beyond the network (i.e.,
// compute and storage) ... prioritized request queuing").
//
// A single CPU-bound service (fixed worker pool) serves short latency-
// sensitive requests and long batch requests. With FIFO admission, LS
// requests wait behind whole batch jobs; with priority-aware admission
// queuing, they jump the queue. The network is uncontended throughout,
// isolating the compute effect. Two arms: fifo, priority.

#include <string>
#include <vector>

#include "core/priority.h"
#include "scenario.h"

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

std::vector<Arm> arms(const Args& args) {
  std::vector<Arm> arms;
  for (const bool priority : {false, true}) {
    const char* admission = priority ? "priority" : "fifo";
    arms.push_back({admission, {{"admission", admission}},
                    [priority, ls_rps = args.real("ls-rps"),
                     li_rps = args.real("li-rps"), duration = args.duration(),
                     seed = args.seed()](ArmLog&) {
                      return run_once(priority, ls_rps, li_rps, duration,
                                      seed);
                    }});
  }
  return arms;
}

}  // namespace

const Scenario kComputePriorityScenario = {
    .name = "compute_priority",
    .title = "ABL-CPU: prioritized request queuing at a CPU-bound service "
             "(4 workers,\nLS jobs 2 ms, batch jobs 40 ms).",
    .duration_s = 20,
    .seed = 7,
    .flags = {{"ls-rps", FlagKind::kRealRounded, 1, "100", "ls_rps"},
              {"li-rps", FlagKind::kRealRounded, 1, "85", "li_rps"}},
    .arms = arms,
    .tables = {{.columns = {{"LS p50 (ms)", "ls_p50_ms", 2},
                            {"LS p99 (ms)", "ls_p99_ms", 2},
                            {"LI p50 (ms)", "li_p50_ms", 2},
                            {"LI p99 (ms)", "li_p99_ms", 2},
                            {"LS done", "ls_completed"},
                            {"LI done", "li_completed"},
                            {"max queue", "max_admission_queue"}},
                .label = "admission"}},
};

}  // namespace meshnet::bench
