#include "scenario.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "stats/table.h"

namespace meshnet::bench {

Args::Args(workload::HarnessOptions harness, const std::vector<Flag>& flags)
    : harness_(std::move(harness)) {
  for (const Flag& flag : flags) {
    Value& value = values_.emplace_back();
    value.name = flag.name;
    std::string report;
    switch (flag.kind) {
      case FlagKind::kInt:
        value.ints = {workload::int_flag(
            harness_, flag.name, std::atoi(flag.fallback.data()), flag.min)};
        report = std::to_string(value.ints.front());
        break;
      case FlagKind::kInts:
        value.ints = workload::int_list_flag(harness_, flag.name,
                                             flag.fallback, flag.min);
        report = harness_.flags.get_or(flag.name, flag.fallback);
        break;
      case FlagKind::kReal:
      case FlagKind::kRealRounded:
        value.real = harness_.flags.get_double_or(
            flag.name, std::atof(flag.fallback.data()),
            flag.min > 0 ? util::NumberRange::kPositive
                         : util::NumberRange::kNonNegative);
        report = flag.kind == FlagKind::kReal
                     ? std::to_string(value.real)
                     : stats::Table::num(value.real, 0);
        break;
      case FlagKind::kSwitch:
        value.on = harness_.flags.get_bool_or(flag.name, false);
        break;
    }
    if (!flag.report_key.empty()) {
      config.emplace_back(std::string(flag.report_key), std::move(report));
    }
  }
}

const Args::Value& Args::find(std::string_view flag) const {
  for (const Value& value : values_) {
    if (value.name == flag) return value;
  }
  std::fprintf(stderr, "undeclared flag --%.*s\n",
               static_cast<int>(flag.size()), flag.data());
  std::abort();
}

Check check(bool pass, const char* format, ...) {
  char what[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(what, sizeof what, format, args);
  va_end(args);
  return {pass, what};
}

ClientMesh::ClientMesh(cluster::MeshSpec spec, bool through_gateway) {
  http::reset_request_id_counter();
  spec.nodes = {"node-a"};
  if (through_gateway) {
    spec.gateway.enabled = true;
    spec.gateway.pod_name = spec.gateway.service = "client";
    spec.gateway.port = 15001;
  } else {
    spec.external_pods.emplace_back().name = "client";
  }
  const cluster::ServiceSpec& server = spec.services.front();
  const std::string direct_pod = cluster::service_pod_names(server).front();
  const net::Port direct_port = server.port;
  mesh_ = cluster::MeshBuilder(sim_).build(std::move(spec));
  mesh_->control_plane().tracer().set_retention(0);
  target_ = through_gateway
                ? mesh_->gateway_address()
                : net::SocketAddress{mesh_->pod(direct_pod)->ip(), direct_port};
}

workload::PointMetrics ClientMesh::run(
    std::vector<workload::WorkloadSpec> streams, std::uint64_t seed,
    sim::Duration duration, sim::Duration drain,
    std::size_t max_connections) {
  mesh::HttpClientPool::Options options;
  options.max_connections = max_connections;
  mesh::HttpClientPool client(sim_, mesh_->pod("client")->transport(),
                              target_, options);
  const sim::Time end = sim::seconds(1) + duration;
  std::vector<std::unique_ptr<workload::OpenLoopGenerator>> generators;
  for (workload::WorkloadSpec& spec : streams) {
    spec.start = 0;
    spec.end = spec.measure_end = end;
    spec.measure_start = sim::seconds(1);
    generators.push_back(std::make_unique<workload::OpenLoopGenerator>(
        sim_, client, std::move(spec), seed + generators.size()));
  }
  for (const auto& generator : generators) generator->start();
  sim_.run_until(end + drain);

  workload::PointMetrics metrics;
  for (const auto& generator : generators) {
    const std::string prefix =
        generators.size() > 1 ? generator->spec().name + "_" : "";
    const workload::LatencyRecorder& recorder = generator->recorder();
    metrics.scalars[prefix + "p50_ms"] = recorder.p50_ms();
    metrics.scalars[prefix + "p90_ms"] = recorder.p90_ms();
    metrics.scalars[prefix + "p99_ms"] = recorder.p99_ms();
    metrics.scalars[prefix + "mean_ms"] = recorder.mean_ms();
    metrics.counters[prefix + "generated"] = generator->sent();
    metrics.counters[prefix + "completed"] = recorder.count();
    metrics.counters[prefix + "errors"] = recorder.errors();
    metrics.histograms[prefix + "latency_ns"] = recorder.histogram();
  }
  return metrics;
}

void print_fault_log(const char* arm,
                     const std::vector<faults::FaultLogEntry>& log) {
  std::printf("\nfault log (%s arm):\n", arm);
  for (const faults::FaultLogEntry& entry : log) {
    std::printf("  t=%8.3fs %-14s %-12s%s\n", sim::to_seconds(entry.at),
                std::string(faults::fault_action_name(entry.action)).c_str(),
                entry.target.c_str(), entry.applied ? "" : " (not applied)");
  }
}

}  // namespace meshnet::bench
