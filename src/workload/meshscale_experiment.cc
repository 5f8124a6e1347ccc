#include "workload/meshscale_experiment.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "app/mesh_builder.h"
#include "cluster/topology_gen.h"
#include "mesh/control_plane.h"
#include "mesh/http_client.h"
#include "obs/metric_registry.h"
#include "sim/parallel.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "util/hash.h"

namespace meshnet::workload {

namespace {

constexpr int kReplicas = 2;  ///< pods per service
/// Pods per node: a node's /24 holds 254, so a larger cell spreads over
/// ⌈pods/kPodsPerNode⌉ nodes.
constexpr int kPodsPerNode = 250;
static_assert(kPodsPerNode <= cluster::kMaxPodsPerNode);
constexpr int kFanout = 2;    ///< call fan-out between layers
constexpr double kRootRps = 20.0;  ///< Poisson arrival rate per root service
/// Endpoint-subsetting aperture of the scoped arm.
constexpr int kScopedSubsetSize = 1;
static_assert(kScopedSubsetSize < kReplicas, "a subset must drop endpoints");
constexpr sim::Duration kDrain = sim::milliseconds(1500);  ///< post-window

/// Per-visit app think-time window (hash-deterministic).
constexpr sim::Duration kComputeMin = sim::microseconds(200);
constexpr sim::Duration kComputeMax = sim::microseconds(800);
constexpr auto kComputeSpan =
    static_cast<std::uint64_t>(kComputeMax - kComputeMin + 1);

/// Each control plane's push-channel series, folded into the run's
/// registry at the end of the run, and the report key of its sum.
constexpr std::pair<std::string_view, std::string_view> kPushSeries[] = {
    {"cp_full_pushes_total", "cp_full_pushes"},
    {"cp_delta_pushes_total", "cp_delta_pushes"},
    {"cp_delta_fallbacks_total", "cp_delta_fallbacks"},
    {"cp_full_push_bytes_total", "cp_full_push_bytes"},
    {"cp_delta_push_bytes_total", "cp_delta_push_bytes"}};

/// Four layers in a 1:2:3:4 width ratio, sized so --services sets the
/// total exactly.
std::vector<int> layer_widths(int services) {
  if (services < 4) {
    return std::vector<int>(static_cast<std::size_t>(std::max(1, services)),
                            1);
  }
  int w0 = std::max(1, services / 10);
  int w1 = std::max(1, services * 2 / 10);
  int w2 = std::max(1, services * 3 / 10);
  int w3 = services - w0 - w1 - w2;
  while (w3 < 1) {
    if (w2 > 1) {
      --w2;
    } else if (w1 > 1) {
      --w1;
    } else {
      --w0;
    }
    ++w3;
  }
  return {w0, w1, w2, w3};
}

mesh::MeshPolicies make_policies(const MeshscaleConfig& config) {
  mesh::MeshPolicies policies;
  policies.retry.max_retries = 1;
  policies.retry.per_try_timeout = sim::milliseconds(250);
  policies.request_timeout = sim::milliseconds(800);
  policies.transport_mss = 8960;
  // A non-trivial push channel: the convergence comparison is only
  // honest when pushes take time and can be lost.
  policies.cp.push_latency_base = sim::milliseconds(2);
  policies.cp.push_latency_jitter = sim::milliseconds(3);
  policies.cp.ack_timeout = sim::milliseconds(200);
  policies.cp.push_loss = 0.01;
  policies.cp.delta_push = config.delta_push;
  policies.subset.enabled = config.scoped;
  policies.subset.subset_size = config.scoped ? kScopedSubsetSize : 0;
  return policies;
}

/// One independent mesh replica pinned to one engine shard.
struct Cell {
  int index = 0;
  sim::Simulator* sim = nullptr;
  std::unique_ptr<cluster::BuiltMesh> mesh;
  std::unique_ptr<mesh::HttpClientPool> pool;
  std::unique_ptr<obs::MetricRegistry> registry;

  obs::Counter* generated = nullptr;
  obs::Counter* responses = nullptr;
  obs::Counter* successes = nullptr;
  obs::Counter* failures = nullptr;
  obs::Histogram* latency = nullptr;

  struct RootGen {
    std::string host;
    int root_index = 0;
    sim::RngStream rng;
    std::uint64_t next = 0;
    RootGen(std::string host_name, int index, std::uint64_t seed, int cell)
        : host(std::move(host_name)),
          root_index(index),
          rng(seed, "meshscale-arrivals:c" + std::to_string(cell) + ":r" +
                        std::to_string(index)) {}
  };
  std::vector<std::unique_ptr<RootGen>> roots;
};

void issue_request(Cell& cell, Cell::RootGen& root) {
  cell.generated->inc();
  // Fixed-format workload-assigned id: the sidecar's fallback generator
  // (thread_local, and therefore thread-count-dependent) is never hit.
  char id[48];
  std::snprintf(id, sizeof id, "c%02d-r%03d-%010llu", cell.index,
                root.root_index,
                static_cast<unsigned long long>(root.next));
  http::HttpRequest request;
  request.path = "/r/" + root.host + "/" + std::to_string(root.next);
  request.headers.set(http::headers::kHost, root.host);
  request.set_request_id(id);
  ++root.next;

  Cell* cell_ptr = &cell;
  const sim::Time sent = cell.sim->now();
  cell.pool->request(
      std::move(request),
      [cell_ptr, sent](std::optional<http::HttpResponse> response,
                       const std::string&) {
        cell_ptr->responses->inc();
        if (response && response->ok()) {
          cell_ptr->successes->inc();
          cell_ptr->latency->record(static_cast<std::uint64_t>(
              (cell_ptr->sim->now() - sent) / sim::kMicrosecond));
        } else {
          cell_ptr->failures->inc();
        }
      });
}

void schedule_next_arrival(Cell& cell, Cell::RootGen& root, double rps,
                           sim::Time end) {
  const sim::Duration gap = std::max<sim::Duration>(
      1, sim::from_seconds(root.rng.exponential(1.0 / rps)));
  const sim::Time when = cell.sim->now() + gap;
  if (when > end) return;  // arrival window closed; the run then drains
  Cell* cell_ptr = &cell;
  Cell::RootGen* root_ptr = &root;
  cell.sim->schedule_at(when, [cell_ptr, root_ptr, rps, end] {
    issue_request(*cell_ptr, *root_ptr);
    schedule_next_arrival(*cell_ptr, *root_ptr, rps, end);
  });
}

/// The snapshot's microsecond histogram `series` reported as
/// e2e_latency_us, with e2e_p50_ms, e2e_p99_ms and e2e_mean_ms (an empty
/// histogram when the series is absent).
void report_e2e_latency_us(PointMetrics& metrics, std::string_view series) {
  stats::LogHistogram e2e{7};
  if (const obs::SeriesSnapshot* latency = metrics.snapshot.find(series)) {
    e2e = latency->histogram;
  }
  metrics.scalars["e2e_p50_ms"] =
      static_cast<double>(e2e.percentile(50.0)) / 1000.0;
  metrics.scalars["e2e_p99_ms"] =
      static_cast<double>(e2e.percentile(99.0)) / 1000.0;
  metrics.scalars["e2e_mean_ms"] = e2e.mean() / 1000.0;
  metrics.histograms["e2e_latency_us"] = std::move(e2e);
}

}  // namespace

PointMetrics run_meshscale_experiment(const MeshscaleConfig& config) {
  cluster::FanoutSpec fanout;
  fanout.layer_widths = layer_widths(config.services);
  fanout.fanout = kFanout;
  const cluster::GenTopology topology =
      cluster::generate_layered_fanout(fanout, config.seed);

  sim::ParallelEngineOptions engine_options;
  engine_options.shards = std::max(1, config.cells);
  engine_options.threads = config.threads;
  engine_options.respect_worker_budget = config.respect_worker_budget;
  sim::ParallelEngine engine(engine_options);

  cluster::TopologyMeshOptions adapter;
  adapter.replicas = kReplicas;
  // Churn victim: the highest-id leaf somebody actually calls, so the
  // scoped arms measure a churn event with real subscribers (a leaf with
  // no parents would cost a scoped mesh exactly zero pushes).
  int victim_id = topology.service_count() - 1;
  std::vector<int> in_degree(topology.services.size(), 0);
  for (const cluster::GenEdge& edge : topology.edges) {
    ++in_degree[static_cast<std::size_t>(edge.to)];
  }
  for (int id = topology.service_count() - 1; id >= 0; --id) {
    if (topology.services[static_cast<std::size_t>(id)].out_edges.empty() &&
        in_degree[static_cast<std::size_t>(id)] > 0) {
      victim_id = id;
      break;
    }
  }
  const std::string victim_pod =
      cluster::topology_service_name(adapter, victim_id) + "-v2";

  // Single-endpoint churn inside the arrival window: crash + deregister
  // one leaf replica at 2/5 of it, restart it at 3/5.
  const sim::Time churn_at = config.duration * 2 / 5;
  const sim::Time restore_at = config.duration * 3 / 5;

  std::vector<std::unique_ptr<Cell>> cells;
  for (int c = 0; c < engine_options.shards; ++c) {
    auto cell = std::make_unique<Cell>();
    cell->index = c;
    cell->sim = &engine.shard(c);
    cell->registry = std::make_unique<obs::MetricRegistry>();
    cell->generated = &cell->registry->counter("meshscale_requests_generated");
    cell->responses = &cell->registry->counter("meshscale_responses");
    cell->successes = &cell->registry->counter("meshscale_successes");
    cell->failures = &cell->registry->counter("meshscale_failures");
    // Microseconds so per-cell double accumulators merge bit-exactly.
    cell->latency = &cell->registry->histogram("meshscale_e2e_latency_us");

    cluster::MeshSpec spec = cluster::mesh_spec_from_topology(topology,
                                                              adapter);
    spec.policies = make_policies(config);
    spec.gateway.enabled = true;
    spec.gateway.pod_name = "gateway";
    spec.gateway.port = 80;
    spec.external_pods.push_back(cluster::ExternalPodSpec{
        "loadgen", "", cluster::PodOptions{40e9, sim::microseconds(50), {}}});
    // The gateway and the load generator stay on the first node; the
    // services fill the nodes in order.
    const int pods = static_cast<int>(spec.services.size()) * kReplicas + 2;
    for (int node = 1; node * kPodsPerNode < pods; ++node) {
      spec.nodes.push_back("kind-worker" + std::to_string(node + 1));
    }
    for (std::size_t i = 0; i < spec.services.size(); ++i) {
      spec.services[i].node =
          spec.nodes[(2 + i * kReplicas) / kPodsPerNode];
    }

    if (config.scoped) {
      // Explicit scopes rather than derive_cluster_scopes: a leaf that
      // calls nobody gets an EMPTY scope (zero clusters) instead of the
      // legacy see-everything default, and the gateway is scoped to the
      // roots it routes to.
      std::vector<std::string> root_names;
      for (const cluster::GenService& service : topology.services) {
        if (service.layer == 0) {
          root_names.push_back(
              cluster::topology_service_name(adapter, service.id));
        }
      }
      spec.policies.cluster_scopes[spec.gateway.service] = root_names;
      for (const cluster::ServiceSpec& service : spec.services) {
        spec.policies.cluster_scopes[service.name] = service.calls;
      }
    }

    // App think time is a pure function of (seed, cell, service, path),
    // so it cannot depend on processing order.
    const std::uint64_t cell_seed = util::splitmix64(
        config.seed ^ (static_cast<std::uint64_t>(c) << 32));
    for (std::size_t i = 0; i < spec.services.size(); ++i) {
      cluster::ServiceSpec& service = spec.services[i];
      const std::vector<std::string> calls = service.calls;
      const std::uint64_t visit_seed = util::splitmix64(cell_seed ^ i);
      service.handler = [calls, visit_seed](const http::HttpRequest& request) {
        app::HandlerResult plan;
        plan.processing_delay =
            kComputeMin +
            static_cast<sim::Duration>(
                util::splitmix64(visit_seed ^ util::fnv1a(request.path)) %
                kComputeSpan);
        plan.response_bytes = 256;
        for (const std::string& target : calls) {
          plan.calls.push_back(app::SubCall{target, request.path});
        }
        return plan;
      };
    }

    cluster::MeshBuilder builder(*cell->sim);
    std::string error;
    cell->mesh = builder.build(std::move(spec), &error);
    if (cell->mesh == nullptr) {
      std::fprintf(stderr, "meshscale: invalid generated spec: %s\n",
                   error.c_str());
      std::abort();
    }
    cell->mesh->control_plane().tracer().set_retention(0);

    mesh::HttpClientPool::Options pool_options;
    pool_options.max_connections = 256;
    cell->pool = std::make_unique<mesh::HttpClientPool>(
        *cell->sim, cell->mesh->pod("loadgen")->transport(),
        cell->mesh->gateway_address(), pool_options,
        "loadgen:c" + std::to_string(c));

    int root_index = 0;
    for (const cluster::GenService& service : topology.services) {
      if (service.layer != 0) continue;
      cell->roots.push_back(std::make_unique<Cell::RootGen>(
          cluster::topology_service_name(adapter, service.id), root_index,
          config.seed, c));
      ++root_index;
    }
    cells.push_back(std::move(cell));
  }

  for (auto& cell : cells) {
    for (auto& root : cell->roots) {
      schedule_next_arrival(*cell, *root, kRootRps, config.duration);
    }
    Cell* cell_ptr = cell.get();
    cell->sim->schedule_at(churn_at, [cell_ptr, victim_pod] {
      // Sample the channel first, before the deregistration lands:
      // everything after this instant is the marginal cost of one
      // endpoint flapping.
      const mesh::ControlPlane::PushChannelBytes sample =
          cell_ptr->mesh->control_plane().push_channel_bytes();
      obs::MetricRegistry& registry = *cell_ptr->registry;
      registry.counter("meshscale_churn_start_push_bytes")
          .inc(sample.full_bytes + sample.delta_bytes);
      registry.counter("meshscale_churn_start_pushes")
          .inc(sample.full_pushes + sample.delta_pushes);
      cell_ptr->mesh->cluster().crash_pod(victim_pod);
      cell_ptr->mesh->cluster().deregister_pod(victim_pod);
    });
    cell->sim->schedule_at(restore_at, [cell_ptr, victim_pod] {
      cell_ptr->mesh->cluster().restart_pod(victim_pod);
    });
  }

  engine.run_until(config.duration + kDrain);

  // The run's registry: every cell's workload series plus its control
  // plane's push-channel series, summed in cell order.
  obs::MetricRegistry merged;
  for (const auto& cell : cells) {
    merged.merge(*cell->registry);
    const obs::MetricRegistry& cp_metrics =
        cell->mesh->control_plane().metrics();
    for (const auto& push : kPushSeries) {
      merged.counter(push.first)
          .inc(cp_metrics.find_counter(push.first)->value());
    }
  }

  PointMetrics metrics;
  metrics.snapshot = merged.snapshot();
  const obs::MetricsSnapshot& snapshot = metrics.snapshot;
  const auto sum = [&snapshot](std::string_view name) {
    return snapshot.counter_sum(name);
  };
  std::map<std::string, std::uint64_t>& counters = metrics.counters;
  counters["requests_generated"] = sum("meshscale_requests_generated");
  const std::uint64_t responses = sum("meshscale_responses");
  const std::uint64_t successes = sum("meshscale_successes");
  counters["responses"] = responses;
  counters["successes"] = successes;
  counters["failures"] = sum("meshscale_failures");
  metrics.scalars["success_rate"] =
      responses > 0 ? static_cast<double>(successes) /
                          static_cast<double>(responses)
                    : 0.0;
  report_e2e_latency_us(metrics, "meshscale_e2e_latency_us");

  for (const auto& [series, key] : kPushSeries) {
    counters[std::string(key)] = sum(series);
  }
  // The churn window runs from the churn-instant sample to the end of
  // the run.
  counters["cp_churn_push_bytes"] = counters["cp_full_push_bytes"] +
                                    counters["cp_delta_push_bytes"] -
                                    sum("meshscale_churn_start_push_bytes");
  counters["cp_churn_pushes"] = counters["cp_full_pushes"] +
                                counters["cp_delta_pushes"] -
                                sum("meshscale_churn_start_pushes");

  bool converged = true;
  sim::Duration churn_convergence = 0;
  std::uint64_t sidecars = 0;
  std::uint64_t endpoint_entries = 0;
  std::uint64_t max_endpoints = 0;
  for (const auto& cell : cells) {
    const mesh::ControlPlane& cp = cell->mesh->control_plane();
    counters["cp_epochs"] += cp.epoch();
    counters["cp_pushes"] += cp.pushes();
    if (!cp.converged()) converged = false;
    const sim::Time converged_at = cp.last_converged_at();
    if (converged_at >= restore_at) {
      churn_convergence =
          std::max(churn_convergence, converged_at - restore_at);
    } else {
      converged = false;  // never reconverged after the restore
    }
    for (const auto& sidecar : cp.sidecars()) {
      std::uint64_t entries = 0;
      for (const auto& [name, spec] : sidecar->config().clusters) {
        entries += spec.endpoints.size();
      }
      endpoint_entries += entries;
      max_endpoints = std::max(max_endpoints, entries);
      ++sidecars;
    }
  }
  counters["cp_converged"] = converged ? 1 : 0;
  metrics.scalars["churn_convergence_ms"] =
      sim::to_milliseconds(churn_convergence);
  counters["sidecars"] = sidecars;
  counters["endpoint_entries"] = endpoint_entries;
  counters["max_endpoints_per_sidecar"] = max_endpoints;
  metrics.scalars["mean_endpoints_per_sidecar"] =
      sidecars > 0 ? static_cast<double>(endpoint_entries) /
                         static_cast<double>(sidecars)
                   : 0.0;

  counters["services"] = static_cast<std::uint64_t>(topology.service_count());
  counters["cells"] = static_cast<std::uint64_t>(engine_options.shards);
  counters["events"] = engine.events_executed();
  counters["engine_epochs"] = engine.stats().epochs;
  return metrics;
}

}  // namespace meshnet::workload
