// meshbench: one iteration of one workload of the repository benchmark.
//
//   meshbench --workload=elibrary_bulk|fanout_small|config_churn --seed=N
//             [--threads=N] [--scale=F] [--trace] [--probes]
//
// Builds the workload's mesh through the public construction APIs, runs
// the simulator until the control plane has converged, drives the
// workload's fixed simulated window (scaled by --scale) to completion and
// prints one JSON object on stdout: process samples taken at the phase
// boundaries, per-layer work counts at the end of set-up and of the run,
// traffic conservation counts, an output digest of the deterministic
// surface, the benchmark's own spans (--trace) and layer probe results
// (--probes). perfbench/run.py turns repeated iterations into metrics.
//
// Nothing here reaches inside the simulator: spans wrap the benchmark's
// own calls into each layer, and counts come from public stats getters.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "app/elibrary.h"
#include "app/mesh_builder.h"
#include "cluster/topology_gen.h"
#include "core/cross_layer.h"
#include "faults/chaos.h"
#include "mesh/http_client.h"
#include "obs/metric_registry.h"
#include "probes.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "workload/bench_harness.h"
#include "workload/elibrary_experiment.h"
#include "workload/generator.h"

namespace {

using namespace meshnet;
using meshbench::ProbeResult;
using meshbench::ProbeShape;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- process samples -------------------------------------------------------

/// Cumulative process counters at one instant. run.py subtracts two of
/// them to get a phase's cost.
struct ProcSample {
  std::int64_t wall_ns = 0;
  std::int64_t utime_us = 0;
  std::int64_t stime_us = 0;
  std::int64_t minflt = 0;
  std::uint64_t allocs = 0;
  std::int64_t hwm_kb = 0;  ///< VmHWM: peak resident set so far
};

std::int64_t status_kb(const char* status, const char* key) {
  const char* at = std::strstr(status, key);
  return at == nullptr ? 0 : std::strtoll(at + std::strlen(key), nullptr, 10);
}

/// Reads /proc/self/status into a stack buffer: sampling must not
/// allocate, or it would count into the phase it closes.
ProcSample sample_process() {
  ProcSample s;
  s.allocs = workload::bench_allocation_count();
  s.wall_ns = now_ns();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  s.utime_us = usage.ru_utime.tv_sec * 1000000 + usage.ru_utime.tv_usec;
  s.stime_us = usage.ru_stime.tv_sec * 1000000 + usage.ru_stime.tv_usec;
  s.minflt = usage.ru_minflt;
  char status[8192];
  const int fd = open("/proc/self/status", O_RDONLY);
  if (fd >= 0) {
    const ssize_t n = read(fd, status, sizeof status - 1);
    close(fd);
    status[n > 0 ? n : 0] = '\0';
    s.hwm_kb = status_kb(status, "VmHWM:");
  }
  return s;
}

// --- spans -----------------------------------------------------------------

/// The benchmark's own trace: spans around its calls into each layer,
/// kept in memory and written out with the result. Disabled logs record
/// nothing.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(4096);
  }

  class Scope {
   public:
    Scope(SpanLog& log, const char* name)
        : log_(log), index_(log.open(name)) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_;
  };

  bool enabled() const noexcept { return enabled_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  void clear() noexcept {
    spans_.clear();
    current_ = -1;
  }

 private:
  int open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, now_ns(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  bool enabled_;
  int current_ = -1;
  std::vector<Span> spans_;
};

// --- per-layer counts ------------------------------------------------------

/// Cumulative per-layer work counters, read from public getters.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t task_heap_allocs = 0;
  std::uint64_t epochs = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t drops = 0;
  std::uint64_t segments = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t connections = 0;
  std::uint64_t http_bytes = 0;
  std::uint64_t mesh_requests = 0;
  std::uint64_t mesh_retries = 0;
  std::uint64_t tls_handshakes = 0;
  std::uint64_t tls_records = 0;
  std::uint64_t cp_epochs = 0;
  std::uint64_t cp_pushes = 0;
  std::uint64_t cp_push_bytes = 0;
  std::uint64_t obs_series = 0;
  std::uint64_t obs_spans = 0;
  std::uint64_t sidecars = 0;

  /// Name/value pairs in output order; names match the metric names.
  std::vector<std::pair<const char*, std::uint64_t>> fields() const {
    return {{"sim.events", events},
            {"sim.task_heap_allocs", task_heap_allocs},
            {"sim.epochs", epochs},
            {"net.packets", packets},
            {"net.bytes", bytes},
            {"net.drops", drops},
            {"transport.segments", segments},
            {"transport.retransmits", retransmits},
            {"transport.connections", connections},
            {"transport.bytes_received", http_bytes},
            {"mesh.requests", mesh_requests},
            {"mesh.retries", mesh_retries},
            {"tls.handshakes", tls_handshakes},
            {"tls.records", tls_records},
            {"cp.epochs", cp_epochs},
            {"cp.pushes", cp_pushes},
            {"cp.push_bytes", cp_push_bytes},
            {"obs.series", obs_series},
            {"obs.spans", obs_spans},
            {"cp.sidecars", sidecars}};
  }
};

std::uint64_t counter_sum(const obs::MetricsSnapshot& snapshot,
                          std::string_view name) {
  std::uint64_t total = 0;
  for (const obs::SeriesSnapshot& series : snapshot.series) {
    if (series.name == name && series.kind == obs::MetricKind::kCounter) {
      total += series.counter;
    }
  }
  return total;
}

/// Adds one mesh's network, transport, mesh, CP and obs counts.
void add_mesh_counts(cluster::Cluster& cluster, mesh::ControlPlane& cp,
                     Counts& c) {
  for (const net::Link* link : cluster.network().links()) {
    const net::LinkStats& s = link->stats();
    c.packets += s.delivered_packets;
    c.bytes += s.delivered_bytes;
    c.drops += s.down_drops + s.loss_drops +
               link->qdisc().stats().dropped_packets;
  }
  c.drops += cluster.network().unroutable_drops();
  for (const auto& pod : cluster.pods()) {
    const transport::HostStats& s = pod->transport().stats();
    c.segments += s.segments_sent;
    c.retransmits += s.retransmits;
    c.connections += s.connections_opened;
    c.http_bytes += s.bytes_received;
  }
  c.mesh_requests += cp.telemetry().total_requests();
  const obs::MetricsSnapshot snapshot = cp.metrics().snapshot();
  c.mesh_retries += counter_sum(snapshot, "mesh_retries_total");
  c.tls_handshakes += counter_sum(snapshot, "tls_handshakes_full_total") +
                      counter_sum(snapshot, "tls_handshakes_resumed_total");
  c.tls_records += counter_sum(snapshot, "tls_records_encrypted_total");
  c.cp_epochs += cp.epoch();
  c.cp_pushes += cp.pushes();
  const mesh::ControlPlane::PushChannelBytes push = cp.push_channel_bytes();
  c.cp_push_bytes += push.full_bytes + push.delta_bytes;
  c.obs_series += cp.metrics().series_count();
  c.obs_spans += cp.tracer().exporter().exported_total();
  c.sidecars += cp.sidecars().size();
}

// --- digest ----------------------------------------------------------------

class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char ch : bytes) {
      hash_ ^= static_cast<unsigned char>(ch);
      hash_ *= 1099511628211ull;
    }
  }
  void add(std::uint64_t value) { add(std::to_string(value) + ";"); }
  void add(double value) {
    char text[40];
    std::snprintf(text, sizeof text, "%.17g;", value);
    add(std::string_view(text));
  }
  std::string hex() const {
    char text[20];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return text;
  }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

// --- traffic ---------------------------------------------------------------

struct Traffic {
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  std::uint64_t errored = 0;
  std::uint64_t abandoned = 0;  ///< still outstanding after the drain
  stats::LogHistogram latency{7};
};

workload::WorkloadSpec open_loop_spec(std::string name, double rps,
                                      workload::ArrivalProcess arrival,
                                      sim::Time start, sim::Time end) {
  workload::WorkloadSpec spec;
  spec.name = std::move(name);
  spec.rps = rps;
  spec.arrival = arrival;
  spec.start = start;
  spec.end = end;
  spec.measure_start = 0;
  spec.measure_end = std::numeric_limits<sim::Time>::max();
  return spec;
}

void add_generator(const workload::OpenLoopGenerator& gen, Traffic& t) {
  t.generated += gen.sent();
  t.completed += gen.completed();
  t.errored += gen.failed();
  t.abandoned += gen.outstanding();
  t.latency.merge(gen.recorder().histogram());
}

// splitmix64 finalizer: per-visit think time is a pure function of the
// seed and the request, independent of event order and thread count.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// --- scenarios -------------------------------------------------------------

/// One workload's mesh, traffic and counters. Phases run in order:
/// build, converge, start_traffic, run_until (possibly in slices), then
/// the read-outs.
class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual void build() = 0;
  /// Runs the simulator until every control plane has converged.
  virtual void converge() = 0;
  virtual void start_traffic() = 0;
  virtual sim::Time now() = 0;
  virtual void run_until(sim::Time deadline) = 0;
  /// Simulated time at which traffic has ended and drained.
  virtual sim::Time end_time() const = 0;
  virtual Counts counts() = 0;
  virtual Traffic traffic() const = 0;
  virtual obs::MetricsSnapshot snapshot() = 0;
  virtual ProbeShape probe_shape() const = 0;
  virtual mesh::ControlPlane& probe_control_plane() = 0;
  virtual std::string probe_victim() const = 0;
};

/// elibrary_bulk: the paper's e-library at the top of Fig. 4's sweep, LS
/// and LI at 50 RPS each, uniform-random arrivals, cross-layer
/// prioritization on, one simulator thread.
class ElibraryBulk final : public Scenario {
 public:
  static constexpr double kRps = 50.0;

  ElibraryBulk(std::uint64_t seed, double scale)
      : seed_(seed), window_(sim::from_seconds(4.0 * scale)) {}

  void build() override {
    http::reset_request_id_counter();
    app_ = std::make_unique<app::Elibrary>(sim_, options_);
    app_->control_plane().tracer().set_retention(0);
    cross_layer_ = std::make_unique<core::CrossLayerController>(
        app_->control_plane(), app_->cluster(),
        workload::ElibraryExperimentConfig::default_cross_layer_config());
    cross_layer_->install();
    mesh::HttpClientPool::Options client;
    client.max_connections = 2048;
    client.connection.mss = options_.policies.transport_mss;
    client_ = std::make_unique<mesh::HttpClientPool>(
        sim_, app_->client_pod().transport(), app_->gateway_address(),
        client, "wrk2-client");
  }

  void converge() override {
    while (!app_->control_plane().converged() &&
           sim_.now() < sim::seconds(10)) {
      sim_.run_until(sim_.now() + sim::milliseconds(1));
    }
  }

  void start_traffic() override {
    start_ = sim_.now();
    const sim::Time end = start_ + window_;
    workload::WorkloadSpec ls =
        open_loop_spec("latency-sensitive", kRps,
                       workload::ArrivalProcess::kUniformRandom, start_, end);
    ls.make_request = workload::simple_get_factory(
        "frontend", std::string(app::Elibrary::kLsPathPrefix));
    workload::WorkloadSpec li =
        open_loop_spec("latency-insensitive", kRps,
                       workload::ArrivalProcess::kUniformRandom, start_, end);
    li.make_request = workload::simple_get_factory(
        "frontend", std::string(app::Elibrary::kLiPathPrefix));
    generators_.push_back(std::make_unique<workload::OpenLoopGenerator>(
        sim_, *client_, std::move(ls), seed_));
    generators_.push_back(std::make_unique<workload::OpenLoopGenerator>(
        sim_, *client_, std::move(li), seed_ + 1));
    for (auto& gen : generators_) gen->start();
  }

  sim::Time now() override { return sim_.now(); }
  void run_until(sim::Time deadline) override { sim_.run_until(deadline); }
  sim::Time end_time() const override {
    return start_ + window_ + sim::seconds(3);
  }

  Counts counts() override {
    Counts c;
    const sim::LoopStats& loop = sim_.loop_stats();
    c.events = loop.executed;
    c.task_heap_allocs = loop.task_heap_allocs;
    add_mesh_counts(app_->cluster(), app_->control_plane(), c);
    return c;
  }

  Traffic traffic() const override {
    Traffic t;
    for (const auto& gen : generators_) add_generator(*gen, t);
    return t;
  }

  obs::MetricsSnapshot snapshot() override {
    return app_->control_plane().metrics().snapshot();
  }

  ProbeShape probe_shape() const override {
    ProbeShape shape;
    shape.mss = options_.policies.transport_mss;
    shape.small_body = app_->expected_ls_body_bytes();
    shape.large_body = app_->expected_li_body_bytes();
    shape.request_headers = {{"host", "reviews"},
                             {"x-request-id", "req-12345-00c0ffee00c0ffee"},
                             {"x-b3-traceid", "trace-0000000000001234"},
                             {"x-b3-spanid", "span-0000000000005678"},
                             {"x-b3-parentspanid", "span-0000000000001234"},
                             {"x-mesh-priority", "low"},
                             {"x-mesh-source", "frontend"},
                             {"x-envoy-attempt-count", "1"}};
    shape.edge_source = "frontend";
    shape.edge_upstream = "reviews";
    shape.policies = options_.policies;
    return shape;
  }

  mesh::ControlPlane& probe_control_plane() override {
    return app_->control_plane();
  }
  std::string probe_victim() const override { return "details-v1"; }

 private:
  std::uint64_t seed_;
  sim::Duration window_;
  sim::Time start_ = 0;
  app::ElibraryOptions options_;
  sim::Simulator sim_;
  std::unique_ptr<app::Elibrary> app_;
  std::unique_ptr<core::CrossLayerController> cross_layer_;
  std::unique_ptr<mesh::HttpClientPool> client_;
  std::vector<std::unique_ptr<workload::OpenLoopGenerator>> generators_;
};

/// The layered fan-out mesh behind fanout_small and config_churn: a
/// 100-service MESHSCALE-shaped topology (4 layers, 2 replicas, fan-out
/// 2) with mesh-wide mTLS, built `cells` times as independent cells on
/// the sharded engine. The topology itself is fixed; the seed drives
/// arrivals and per-visit think times.
class Fanout final : public Scenario {
 public:
  struct Params {
    int cells = 1;
    int threads = 1;
    double root_rps = 20.0;  ///< arrivals per second per root service
    workload::ArrivalProcess arrival = workload::ArrivalProcess::kPoisson;
    bool churn = false;
    sim::Duration window = sim::seconds(1);
    sim::Duration churn_period = sim::seconds(1);
  };

  static constexpr std::uint64_t kTopologySeed = 1;

  Fanout(std::uint64_t seed, Params params)
      : seed_(seed), params_(params), engine_(engine_options(params)) {}

  void build() override {
    cluster::FanoutSpec fanout;
    fanout.layer_widths = {10, 20, 30, 40};  // 100 services
    fanout.fanout = 2;
    topology_ = cluster::generate_layered_fanout(fanout, kTopologySeed);
    adapter_.replicas = 2;
    for (int c = 0; c < params_.cells; ++c) {
      auto cell = std::make_unique<Cell>();
      cell->index = c;
      cell->sim = &engine_.shard(c);
      cluster::MeshSpec spec =
          cluster::mesh_spec_from_topology(topology_, adapter_);
      spec.policies = policies();
      spec.gateway.enabled = true;
      spec.gateway.pod_name = "gateway";
      spec.gateway.port = 80;
      spec.external_pods.push_back(cluster::ExternalPodSpec{
          "loadgen", "",
          cluster::PodOptions{40e9, sim::microseconds(50), {}}});
      const std::uint64_t cell_seed =
          mix64(seed_ ^ (static_cast<std::uint64_t>(c) << 32));
      for (std::size_t i = 0; i < spec.services.size(); ++i) {
        cluster::ServiceSpec& service = spec.services[i];
        const std::vector<std::string> calls = service.calls;
        const std::uint64_t visit_seed = mix64(cell_seed ^ i);
        service.handler = [calls,
                           visit_seed](const http::HttpRequest& request) {
          app::HandlerResult plan;
          plan.processing_delay =
              sim::microseconds(200) +
              static_cast<sim::Duration>(mix64(visit_seed ^
                                               fnv1a(request.path)) %
                                         static_cast<std::uint64_t>(
                                             sim::microseconds(600)));
          plan.response_bytes = kBodyBytes;
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
        std::fprintf(stderr, "meshbench: invalid spec: %s\n", error.c_str());
        std::exit(2);
      }
      cell->mesh->control_plane().tracer().set_retention(0);
      mesh::HttpClientPool::Options pool;
      pool.max_connections = 256;
      pool.connection.mss = kMss;
      cell->pool = std::make_unique<mesh::HttpClientPool>(
          *cell->sim, cell->mesh->pod("loadgen")->transport(),
          cell->mesh->gateway_address(), pool,
          "loadgen:c" + std::to_string(c));
      cells_.push_back(std::move(cell));
    }
  }

  void converge() override {
    sim::Time t = engine_.shard(0).now();
    while (!all_converged() && t < sim::seconds(10)) {
      t += sim::milliseconds(5);
      engine_.run_until(t);
    }
  }

  void start_traffic() override {
    start_ = engine_.shard(0).now();
    const sim::Time end = start_ + params_.window;
    for (auto& cell : cells_) {
      int root_index = 0;
      for (const cluster::GenService& service : topology_.services) {
        if (service.layer != 0) continue;
        const std::string host =
            cluster::topology_service_name(adapter_, service.id);
        workload::WorkloadSpec spec = open_loop_spec(
            "c" + std::to_string(cell->index) + ":" + host, params_.root_rps,
            params_.arrival, start_, end);
        const int cell_index = cell->index;
        // Workload-assigned ids: the sidecars' thread-local fallback id
        // generator would make the digest depend on the thread count.
        spec.make_request = [host, cell_index,
                             root_index](std::uint64_t i) {
          http::HttpRequest request;
          request.path = "/r/" + host + "/" + std::to_string(i);
          request.headers.set(http::headers::kHost, host);
          char id[48];
          std::snprintf(id, sizeof id, "c%02d-r%03d-%010llu", cell_index,
                        root_index, static_cast<unsigned long long>(i));
          request.set_request_id(id);
          return request;
        };
        cell->generators.push_back(
            std::make_unique<workload::OpenLoopGenerator>(
                *cell->sim, *cell->pool, std::move(spec), seed_));
        ++root_index;
      }
      for (auto& gen : cell->generators) gen->start();
      if (params_.churn) schedule_churn(*cell, end);
    }
  }

  sim::Time now() override { return engine_.shard(0).now(); }
  void run_until(sim::Time deadline) override { engine_.run_until(deadline); }
  sim::Time end_time() const override {
    return start_ + params_.window + sim::seconds(1);
  }

  Counts counts() override {
    Counts c;
    const sim::LoopStats loop = engine_.merged_loop_stats();
    c.events = loop.executed;
    c.task_heap_allocs = loop.task_heap_allocs;
    c.epochs = engine_.stats().epochs;
    for (auto& cell : cells_) {
      add_mesh_counts(cell->mesh->cluster(), cell->mesh->control_plane(), c);
    }
    return c;
  }

  Traffic traffic() const override {
    Traffic t;
    for (const auto& cell : cells_) {
      for (const auto& gen : cell->generators) add_generator(*gen, t);
    }
    return t;
  }

  obs::MetricsSnapshot snapshot() override {
    obs::MetricsSnapshot merged;
    for (auto& cell : cells_) {
      merged.merge(cell->mesh->control_plane().metrics().snapshot());
    }
    return merged;
  }

  ProbeShape probe_shape() const override {
    ProbeShape shape;
    shape.mss = kMss;
    shape.small_body = kBodyBytes;
    // The root's response aggregates its whole call tree.
    shape.large_body = kBodyBytes * (1 + 2 + 4 + 8);
    shape.request_headers = {{"host", "svc-42"},
                             {"x-request-id", "c00-r003-0000001234"},
                             {"x-b3-traceid", "trace-0000000000001234"},
                             {"x-b3-spanid", "span-0000000000005678"},
                             {"x-b3-parentspanid", "span-0000000000001234"},
                             {"x-mesh-source", "svc-12"},
                             {"x-mesh-deadline-ms", "799"},
                             {"x-envoy-attempt-count", "1"}};
    shape.edge_source = "svc-12";
    shape.edge_upstream = "svc-42";
    shape.policies = policies();
    return shape;
  }

  mesh::ControlPlane& probe_control_plane() override {
    return cells_.front()->mesh->control_plane();
  }
  std::string probe_victim() const override { return victim_pod(); }

 private:
  static constexpr std::size_t kBodyBytes = 256;
  static constexpr std::uint32_t kMss = 8960;

  struct Cell {
    int index = 0;
    sim::Simulator* sim = nullptr;
    std::unique_ptr<cluster::BuiltMesh> mesh;
    std::unique_ptr<mesh::HttpClientPool> pool;
    std::vector<std::unique_ptr<workload::OpenLoopGenerator>> generators;
    std::unique_ptr<faults::ChaosController> chaos;
  };

  static sim::ParallelEngineOptions engine_options(const Params& params) {
    sim::ParallelEngineOptions options;
    options.shards = params.cells;
    // Cells never talk, so any positive lookahead is conservative.
    options.lookahead = sim::milliseconds(50);
    options.threads = params.threads;
    options.respect_worker_budget = false;
    return options;
  }

  static mesh::MeshPolicies policies() {
    mesh::MeshPolicies p;
    p.retry.max_retries = 1;
    p.retry.per_try_timeout = sim::milliseconds(250);
    p.request_timeout = sim::milliseconds(800);
    p.transport_mss = kMss;
    p.tls.enabled = true;
    p.cp.push_latency_base = sim::milliseconds(2);
    p.cp.push_latency_jitter = sim::milliseconds(3);
    p.cp.ack_timeout = sim::milliseconds(200);
    p.cp.delta_push = true;
    return p;
  }

  /// The highest-id leaf somebody calls, so each flap has subscribers.
  std::string victim_pod() const {
    std::vector<int> in_degree(topology_.services.size(), 0);
    for (const cluster::GenEdge& edge : topology_.edges) {
      ++in_degree[static_cast<std::size_t>(edge.to)];
    }
    int victim = topology_.service_count() - 1;
    for (int id = topology_.service_count() - 1; id >= 0; --id) {
      if (topology_.services[static_cast<std::size_t>(id)].out_edges.empty() &&
          in_degree[static_cast<std::size_t>(id)] > 0) {
        victim = id;
        break;
      }
    }
    return cluster::topology_service_name(adapter_, victim) + "-v2";
  }

  /// One flap per period: the victim is deregistered first (so traffic
  /// drains off it and no request fails), crashed once the push has
  /// landed, then restored, which re-registers it.
  void schedule_churn(Cell& cell, sim::Time end) {
    cell.chaos = std::make_unique<faults::ChaosController>(
        *cell.sim, cell.mesh->cluster(), seed_);
    const std::string victim = victim_pod();
    faults::FaultPlan plan;
    for (sim::Time t = start_ + params_.churn_period / 4;
         t + params_.churn_period * 3 / 5 < end; t += params_.churn_period) {
      plan.deregister(t, victim);
      plan.crash(t + params_.churn_period * 3 / 10, victim);
      plan.restart(t + params_.churn_period * 3 / 5, victim);
    }
    cell.chaos->schedule(plan);
  }

  bool all_converged() {
    for (auto& cell : cells_) {
      if (!cell->mesh->control_plane().converged()) return false;
    }
    return true;
  }

  std::uint64_t seed_;
  Params params_;
  sim::ParallelEngine engine_;
  cluster::GenTopology topology_;
  cluster::TopologyMeshOptions adapter_;
  sim::Time start_ = 0;
  std::vector<std::unique_ptr<Cell>> cells_;
};

// --- output ----------------------------------------------------------------

void print_sample(std::ostringstream& out, const char* name,
                  const ProcSample& s) {
  out << "\"" << name << "\":{\"wall_ns\":" << s.wall_ns
      << ",\"utime_us\":" << s.utime_us << ",\"stime_us\":" << s.stime_us
      << ",\"minflt\":" << s.minflt << ",\"allocs\":" << s.allocs
      << ",\"hwm_kb\":" << s.hwm_kb << "}";
}

void print_counts(std::ostringstream& out, const char* name, const Counts& c) {
  out << "\"" << name << "\":{";
  bool first = true;
  for (const auto& [key, value] : c.fields()) {
    out << (first ? "" : ",") << "\"" << key << "\":" << value;
    first = false;
  }
  out << "}";
}

void print_probe(std::ostringstream& out, const char* name,
                 const ProbeResult& r) {
  char text[96];
  out << "\"" << name << "\":{";
  std::snprintf(text, sizeof text, "\"ns\":%.17g,\"allocs\":%.17g", r.ns,
                r.allocs);
  out << text;
  for (const auto& [key, value] : r.per_op) {
    std::snprintf(text, sizeof text, "%.17g", value);
    out << ",\"" << key << "\":" << text;
  }
  out << "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int threads = -1;  ///< -1 = the workload's own thread count
  double scale = 1.0;
  bool trace = false;
  bool probes = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string value(eq == std::string_view::npos
                                ? std::string_view{}
                                : arg.substr(eq + 1));
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--threads") {
      args.threads = std::atoi(value.c_str());
    } else if (key == "--scale") {
      args.scale = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = true;
    } else if (key == "--probes") {
      args.probes = true;
    } else {
      std::fprintf(stderr, "meshbench: unknown argument %s\n", argv[i]);
      return false;
    }
  }
  return !args.workload.empty() && args.scale > 0.0;
}

std::unique_ptr<Scenario> make_scenario(const Args& args) {
  if (args.workload == "elibrary_bulk") {
    return std::make_unique<ElibraryBulk>(args.seed, args.scale);
  }
  Fanout::Params params;
  if (args.workload == "fanout_small") {
    params.cells = 2;
    params.threads = 2;
    params.root_rps = 20.0;
    params.window = sim::from_seconds(12.0 * args.scale);
  } else if (args.workload == "config_churn") {
    params.cells = 1;
    params.threads = 1;
    // Light constant-rate background traffic: every seed issues the same
    // requests, so the churn, not the request count, sets the cost.
    params.root_rps = 4.0;
    params.arrival = workload::ArrivalProcess::kConstant;
    params.churn = true;
    params.window = sim::from_seconds(8.0 * args.scale);
  } else {
    return nullptr;
  }
  if (args.threads > 0) params.threads = args.threads;
  return std::make_unique<Fanout>(args.seed, params);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: meshbench --workload=NAME --seed=N [--threads=N] "
                 "[--scale=F] [--trace] [--probes]\n");
    return 2;
  }
  if (make_scenario(args) == nullptr) {
    std::fprintf(stderr, "meshbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  // Set-up is short next to the run, so it is repeated until it has
  // taken kSetupBudgetNs (at least kMinSetups times) and run.py reports
  // the median. The last set-up is the one that runs.
  constexpr std::int64_t kSetupBudgetNs = 250'000'000;
  constexpr int kMinSetups = 3;
  constexpr int kMaxSetups = 50;
  SpanLog spans(args.trace);
  std::vector<std::int64_t> setup_ns;
  std::int64_t setup_total_ns = 0;
  std::unique_ptr<Scenario> scenario;
  ProcSample started;
  ProcSample built;
  ProcSample converged;
  Counts setup_counts;
  for (;;) {
    scenario.reset();
    spans.clear();
    scenario = make_scenario(args);
    started = sample_process();
    {
      SpanLog::Scope span(spans, "setup.build");
      scenario->build();
    }
    built = sample_process();
    {
      SpanLog::Scope span(spans, "setup.converge");
      scenario->converge();
    }
    converged = sample_process();
    setup_ns.push_back(converged.wall_ns - started.wall_ns);
    setup_total_ns += setup_ns.back();
    const int reps = static_cast<int>(setup_ns.size());
    if (reps >= kMaxSetups ||
        (reps >= kMinSetups && setup_total_ns >= kSetupBudgetNs)) {
      break;
    }
  }
  setup_counts = scenario->counts();
  // Counting walks every link and pod; restart the run phase after it.
  converged = sample_process();

  scenario->start_traffic();
  const sim::Time end = scenario->end_time();
  if (spans.enabled()) {
    // Fixed simulated slices, so the trace shows where in the window the
    // host time went.
    for (sim::Time t = scenario->now(); t < end;) {
      t = std::min(end, t + sim::milliseconds(100));
      SpanLog::Scope span(spans, "run.slice");
      scenario->run_until(t);
    }
  } else {
    scenario->run_until(end);
  }
  const ProcSample ran = sample_process();
  obs::MetricsSnapshot snapshot;
  {
    SpanLog::Scope span(spans, "collect.snapshot");
    snapshot = scenario->snapshot();
  }
  const ProcSample collected = sample_process();

  const Counts run_counts = scenario->counts();
  const Traffic traffic = scenario->traffic();
  Digest digest;
  digest.add(snapshot.to_json().dump());
  digest.add(traffic.generated);
  digest.add(traffic.completed);
  digest.add(traffic.errored);
  digest.add(traffic.abandoned);
  digest.add(traffic.latency.count());
  digest.add(traffic.latency.min());
  digest.add(traffic.latency.max());
  digest.add(traffic.latency.mean());
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    digest.add(traffic.latency.percentile(p));
  }
  for (const auto& [key, value] : run_counts.fields()) {
    // Barrier epochs depend on how run_until is sliced, not on the
    // simulated outcome.
    if (std::string_view(key) != "sim.epochs") digest.add(value);
  }

  std::ostringstream out;
  out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"scale\":" << args.scale << ",\"samples\":{";
  print_sample(out, "started", started);
  out << ",";
  print_sample(out, "built", built);
  out << ",";
  print_sample(out, "converged", converged);
  out << ",";
  print_sample(out, "ran", ran);
  out << ",";
  print_sample(out, "collected", collected);
  out << "},";
  print_counts(out, "setup_counts", setup_counts);
  out << ",";
  print_counts(out, "run_counts", run_counts);
  out << ",\"traffic\":{\"generated\":" << traffic.generated
      << ",\"completed\":" << traffic.completed
      << ",\"errored\":" << traffic.errored
      << ",\"abandoned\":" << traffic.abandoned
      << ",\"p50_ms\":" << sim::to_milliseconds(static_cast<sim::Duration>(
                               traffic.latency.percentile(50.0)))
      << ",\"p99_ms\":" << sim::to_milliseconds(static_cast<sim::Duration>(
                               traffic.latency.percentile(99.0)))
      << "},\"digest\":\"" << digest.hex() << "\",\"setup_ns\":[";
  for (std::size_t i = 0; i < setup_ns.size(); ++i) {
    out << (i > 0 ? "," : "") << setup_ns[i];
  }
  out << "]";

  if (args.probes) {
    const ProbeShape shape = scenario->probe_shape();
    std::vector<std::pair<const char*, ProbeResult>> results;
    const auto probe = [&](const char* name, auto&& run) {
      SpanLog::Scope span(spans, name);
      results.emplace_back(name, run());
    };
    probe("probe.sim", [&] { return meshbench::probe_sim(); });
    probe("probe.net", [&] { return meshbench::probe_net(shape); });
    probe("probe.transport", [&] {
      return meshbench::probe_transport(shape, shape.large_body);
    });
    // Small messages for the mesh hop's self cost: a megabyte body's
    // segments cost more than a one-segment message's.
    probe("probe.transport.small", [&] {
      return meshbench::probe_transport(shape, shape.small_body);
    });
    probe("probe.http.parse_small",
          [&] { return meshbench::probe_http_parse_small(shape); });
    probe("probe.http.parse_large", [&] {
      return meshbench::probe_http_parse_response(shape, shape.large_body);
    });
    probe("probe.http.parse_typical", [&] {
      return meshbench::probe_http_parse_response(shape, shape.small_body);
    });
    probe("probe.http.serialize",
          [&] { return meshbench::probe_http_serialize(shape); });
    probe("probe.mesh", [&] { return meshbench::probe_mesh(shape); });
    probe("probe.obs", [&] { return meshbench::probe_obs(shape); });
    probe("probe.cp", [&] {
      return meshbench::probe_cp(scenario->probe_control_plane(),
                                 scenario->probe_victim());
    });
    out << ",\"probes\":{";
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i > 0) out << ",";
      print_probe(out, results[i].first, results[i].second);
    }
    out << "}";
  }

  if (spans.enabled()) {
    out << ",\"spans\":[";
    const std::vector<SpanLog::Span>& list = spans.spans();
    for (std::size_t i = 0; i < list.size(); ++i) {
      out << (i > 0 ? "," : "") << "{\"name\":\"" << list[i].name
          << "\",\"start_ns\":" << list[i].start_ns
          << ",\"end_ns\":" << list[i].end_ns
          << ",\"parent\":" << list[i].parent << "}";
    }
    out << "]";
  }
  out << "}\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}
