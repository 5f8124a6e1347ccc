#include "workload/elibrary_experiment.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/engine_metrics.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace meshnet::workload {

namespace {

/// Uniformly random inter-arrivals for both workloads: the paper's wrk2
/// setting.
constexpr ArrivalProcess kArrival = ArrivalProcess::kUniformRandom;

/// The sidecar counters the report sums over every sidecar.
constexpr std::pair<const char*, std::uint64_t mesh::SidecarStats::*>
    kSidecarTotals[] = {
        {"upstream_retries", &mesh::SidecarStats::upstream_retries},
        {"upstream_failures", &mesh::SidecarStats::upstream_failures},
        {"timeouts", &mesh::SidecarStats::timeouts},
        {"retries_suppressed_by_overload",
         &mesh::SidecarStats::retries_suppressed_by_overload},
        {"downstream_aborts", &mesh::SidecarStats::downstream_aborts},
        {"panic_picks", &mesh::SidecarStats::panic_picks},
};

// faults/ cannot see mesh/: the CP fault actions dispatch through hooks
// wired here, in the layer that sees both.
faults::CpHooks control_plane_hooks(mesh::ControlPlane& cp) {
  faults::CpHooks hooks;
  hooks.crash = [&cp] {
    if (cp.crashed()) return false;
    cp.crash();
    return true;
  };
  hooks.restart = [&cp] {
    if (!cp.crashed()) return false;
    cp.recover();
    return true;
  };
  return hooks;
}

void add_workload_metrics(PointMetrics& metrics, const std::string& prefix,
                          const LatencyRecorder& recorder) {
  metrics.scalars[prefix + "_p50_ms"] = recorder.p50_ms();
  metrics.scalars[prefix + "_p90_ms"] = recorder.p90_ms();
  metrics.scalars[prefix + "_p99_ms"] = recorder.p99_ms();
  metrics.scalars[prefix + "_mean_ms"] = recorder.mean_ms();
  metrics.scalars[prefix + "_rps"] = recorder.throughput_rps();
  const double total =
      static_cast<double>(recorder.count() + recorder.errors());
  metrics.scalars[prefix + "_success_rate"] =
      total > 0 ? static_cast<double>(recorder.count()) / total : 1.0;
  metrics.counters[prefix + "_completed"] = recorder.count();
  metrics.counters[prefix + "_errors"] = recorder.errors();
  metrics.histograms[prefix + "_latency_ns"] = recorder.histogram();
}

}  // namespace

core::CrossLayerConfig
ElibraryExperimentConfig::default_cross_layer_config() {
  core::CrossLayerConfig config;
  config.classifier.rules = {
      core::ClassificationRule{std::string(app::Elibrary::kLsPathPrefix),
                               "", "", "",
                               mesh::TrafficClass::kLatencySensitive},
      core::ClassificationRule{std::string(app::Elibrary::kLiPathPrefix),
                               "", "", "",
                               mesh::TrafficClass::kScavenger},
  };
  config.classifier.default_class = mesh::TrafficClass::kLatencySensitive;
  config.priority_routed_clusters = {"reviews"};
  return config;
}

void add_phase_metrics(PointMetrics& metrics, const std::string& name,
                       const LatencyRecorder& recorder,
                       std::uint64_t scheduled) {
  const std::uint64_t finished = recorder.count() + recorder.errors();
  metrics.scalars[name + "_goodput_rps"] = recorder.throughput_rps();
  metrics.scalars[name + "_success_rate"] =
      finished == 0 ? 1.0
                    : static_cast<double>(recorder.count()) /
                          static_cast<double>(finished);
  metrics.scalars[name + "_p50_ms"] = recorder.p50_ms();
  metrics.scalars[name + "_p99_ms"] = recorder.p99_ms();
  metrics.counters[name + "_scheduled"] = scheduled;
  metrics.counters[name + "_completed"] = recorder.count();
  metrics.counters[name + "_errors"] = recorder.errors();
}

void apply_resilience_policies(mesh::MeshPolicies& policies) {
  policies.retry.max_retries = 3;
  policies.retry.per_try_timeout = sim::milliseconds(500);
  policies.retry.backoff_jitter = true;
  policies.retry.backoff_max = sim::milliseconds(250);
  policies.breaker.consecutive_failures = 5;
  policies.breaker.open_duration = sim::milliseconds(500);
  policies.health_check.enabled = true;
  policies.health_check.interval = sim::milliseconds(250);
  policies.health_check.timeout = sim::milliseconds(200);
  policies.health_check.unhealthy_threshold = 2;
  policies.health_check.healthy_threshold = 2;
}

void validate_phases(const ElibraryExperimentConfig& config) {
  const sim::Time measure_end = config.warmup + config.duration;
  const auto reject = [](const PhaseBoundary& phase, const char* problem,
                         sim::Time limit) {
    char message[256];
    std::snprintf(message, sizeof message,
                  "phase '%s' starts at %.3f s, %s (%.3f s)",
                  phase.name.c_str(), sim::to_seconds(phase.start), problem,
                  sim::to_seconds(limit));
    throw std::invalid_argument(message);
  };
  for (std::size_t i = 0; i < config.phases.size(); ++i) {
    const PhaseBoundary& phase = config.phases[i];
    if (i == 0 && phase.start < config.warmup) {
      reject(phase, "before the measured window starts", config.warmup);
    }
    if (i > 0 && phase.start <= config.phases[i - 1].start) {
      reject(phase, "not after the phase before it",
             config.phases[i - 1].start);
    }
    if (phase.start >= measure_end) {
      reject(phase, "not before the measured window ends", measure_end);
    }
  }
}

ElibraryExperimentResult run_elibrary_experiment(
    const ElibraryExperimentConfig& config) {
  validate_phases(config);
  http::reset_request_id_counter();
  sim::Simulator sim;
  app::Elibrary app(sim, config.app);
  mesh::ControlPlane& cp = app.control_plane();
  // Spans are a per-request memory cost; retain none during load runs.
  cp.tracer().set_retention(0);

  std::unique_ptr<core::CrossLayerController> cross_layer;
  if (config.cross_layer) {
    cross_layer = std::make_unique<core::CrossLayerController>(
        cp, app.cluster(), config.cross_layer_config);
    cross_layer->install();
    if (config.sdn_out_of_band) {
      cross_layer->sdn().program_link(app.bottleneck_link(),
                                      config.cross_layer_config.high_share);
    }
  }

  if (config.extra_epoch_before_run) cp.push_config();

  faults::ChaosController chaos(sim, app.cluster());
  chaos.set_fault_hook([&cp](const faults::FaultLogEntry& entry) {
    cp.telemetry().record_event(
        entry.at, obs::EventKind::kFault, entry.target,
        std::string(faults::fault_action_name(entry.action)));
  });
  chaos.set_control_plane_hooks(control_plane_hooks(cp));
  chaos.schedule(config.faults);

  // The external client (wrk2's stand-in) connects straight to the
  // gateway with a generously sized pool so the client itself never
  // bottlenecks the open loop.
  mesh::HttpClientPool::Options client_options;
  client_options.max_connections = 2048;
  client_options.connection.mss = config.app.policies.transport_mss;
  mesh::HttpClientPool client(sim, app.client_pod().transport(),
                              app.gateway_address(), client_options,
                              "wrk2-client");

  const sim::Time measure_start = config.warmup;
  const sim::Time measure_end = config.warmup + config.duration;
  const sim::Time traffic_end = measure_end + config.cooldown;

  WorkloadSpec ls;
  ls.name = "latency-sensitive";
  ls.rps = config.ls_rps;
  ls.arrival = kArrival;
  ls.make_request = simple_get_factory(
      "frontend", std::string(app::Elibrary::kLsPathPrefix));
  ls.start = 0;
  ls.end = traffic_end;
  ls.measure_start = measure_start;
  ls.measure_end = measure_end;

  WorkloadSpec li = ls;
  li.name = "latency-insensitive";
  li.rps = config.li_rps;
  li.make_request = simple_get_factory(
      "frontend", std::string(app::Elibrary::kLiPathPrefix));

  OpenLoopGenerator ls_gen(sim, client, ls, config.seed);
  OpenLoopGenerator li_gen(sim, client, li, config.seed + 1);

  std::vector<LatencyRecorder> phase_recorders;
  for (std::size_t i = 0; i < config.phases.size(); ++i) {
    const sim::Time end = i + 1 < config.phases.size()
                              ? config.phases[i + 1].start
                              : measure_end;
    phase_recorders.emplace_back(config.phases[i].start, end);
  }
  std::vector<std::uint64_t> phase_scheduled(config.phases.size(), 0);
  ls_gen.set_arrival_observer([&](sim::Time scheduled) {
    for (std::size_t i = 0; i < phase_recorders.size(); ++i) {
      if (scheduled >= phase_recorders[i].measure_start() &&
          scheduled < phase_recorders[i].measure_end()) {
        ++phase_scheduled[i];
        break;
      }
    }
  });
  ls_gen.set_sample_observer(
      [&](sim::Time scheduled, sim::Time completed, bool success) {
        for (LatencyRecorder& recorder : phase_recorders) {
          recorder.record(scheduled, completed, success);
        }
      });

  // Busy time at the window edges, so utilization reflects the measured
  // window, not the drain period.
  sim::Duration busy_at_start = 0;
  sim::Duration busy_at_end = 0;
  if (config.sample_bottleneck) {
    sim.schedule_at(measure_start, [&] {
      busy_at_start = app.bottleneck_link().stats().busy_time;
    });
    sim.schedule_at(measure_end, [&] {
      busy_at_end = app.bottleneck_link().stats().busy_time;
    });
  }

  // Peak discovery staleness over the run (grows through a CP outage,
  // resets when the recovered control plane catches up).
  double max_staleness_ms = 0.0;
  const sim::Duration staleness_interval = sim::milliseconds(500);
  obs::Gauge* staleness_gauge = nullptr;  // interned by the first sample
  std::function<void()> sample_staleness = [&] {
    const double staleness_ms =
        sim::to_seconds(cp.discovery_staleness()) * 1e3;
    max_staleness_ms = std::max(max_staleness_ms, staleness_ms);
    // Keep the live gauge honest through an outage: the control plane's
    // own poll loop (which normally maintains it) is down.
    if (staleness_gauge == nullptr) {
      staleness_gauge = &cp.metrics().gauge("cp_discovery_staleness_ms");
    }
    staleness_gauge->set(staleness_ms);
    if (sim.now() + staleness_interval <= traffic_end) {
      sim.schedule_after(staleness_interval, [&] { sample_staleness(); });
    }
  };
  if (config.sample_staleness) {
    sim.schedule_at(measure_start, [&] { sample_staleness(); });
  }

  ls_gen.start();
  li_gen.start();
  sim.run_until(traffic_end + config.drain);

  if (config.sample_staleness) {
    // Settle before the final convergence read: a cert rotation (or any
    // other config delta) can land just before the horizon and leave its
    // push legitimately in flight. Give the mesh a bounded, deterministic
    // window to drain it.
    const sim::Time settle_deadline = sim.now() + sim::seconds(5);
    while (!cp.converged() && sim.now() < settle_deadline) {
      sim.run_until(sim.now() + sim::milliseconds(100));
    }
  }

  ElibraryExperimentResult result;
  PointMetrics& metrics = result.report;
  std::map<std::string, std::uint64_t>& counters = metrics.counters;
  add_workload_metrics(metrics, "ls", ls_gen.recorder());
  add_workload_metrics(metrics, "li", li_gen.recorder());
  for (std::size_t i = 0; i < config.phases.size(); ++i) {
    add_phase_metrics(metrics, config.phases[i].name, phase_recorders[i],
                      phase_scheduled[i]);
  }

  net::Link& bottleneck = app.bottleneck_link();
  if (config.sample_bottleneck) {
    metrics.scalars["bottleneck_utilization"] =
        static_cast<double>(busy_at_end - busy_at_start) /
        static_cast<double>(measure_end - measure_start);
  }
  counters["bottleneck_drops"] = bottleneck.qdisc().stats().dropped_packets;
  const auto* bands =
      dynamic_cast<const net::WeightedPrioQdisc*>(&bottleneck.qdisc());
  counters["high_band_bytes"] = bands ? bands->band_dequeued_bytes(0) : 0;
  counters["low_band_bytes"] = bands ? bands->band_dequeued_bytes(1) : 0;

  for (const auto& [key, field] : kSidecarTotals) {
    std::uint64_t& total = counters[key];
    for (const auto& sidecar : cp.sidecars()) total += sidecar->stats().*field;
  }
  std::uint64_t& evictions = counters["health_evictions"];
  std::uint64_t& readmissions = counters["health_readmissions"];
  for (const mesh::MeshEvent& event : cp.telemetry().events()) {
    if (event.kind == obs::EventKind::kHealth) {
      if (event.detail == "evicted") ++evictions;
      if (event.detail == "readmitted") ++readmissions;
    }
  }
  result.fault_log = chaos.log();
  result.mesh_events = cp.telemetry().events();
  counters["faults_executed"] = result.fault_log.size();

  counters["final_epoch"] = cp.epoch();
  counters["stale_sidecars_at_end"] = cp.stale_sidecars();
  counters["converged"] = cp.converged() && cp.stale_sidecars() == 0;
  metrics.scalars["reconverge_ms"] =
      sim::to_seconds(cp.last_reconverge_duration()) * 1e3;
  if (config.sample_staleness) {
    metrics.scalars["max_staleness_ms"] = max_staleness_ms;
    cp.metrics().gauge("cp_max_staleness_ms").set(max_staleness_ms);
  }

  counters["events"] = sim.events_executed();
  // Scheduler profile. Deterministic (pure functions of the config, like
  // every other counter here), so they are safe in compared baselines and
  // double as determinism witnesses for the event-loop internals.
  const sim::LoopStats& loop = sim.loop_stats();
  counters["engine_scheduled"] = loop.scheduled;
  counters["engine_cancelled"] = loop.cancelled;
  counters["engine_wheel_pushes"] = loop.wheel_pushes;
  counters["engine_heap_pushes"] = loop.heap_pushes;
  counters["engine_due_merges"] = loop.due_merges;
  counters["engine_task_heap_allocs"] = loop.task_heap_allocs;
  counters["engine_max_queue_depth"] = loop.max_queue_depth;
  obs::export_loop_stats(loop, cp.metrics());
  metrics.snapshot = cp.metrics().snapshot();
  return result;
}

PointMetrics elibrary_point_metrics(ElibraryExperimentResult result,
                                    const std::vector<ReportSeries>& series) {
  PointMetrics metrics = std::move(result.report);
  for (const ReportSeries& entry : series) {
    metrics.counters[entry.key] =
        metrics.snapshot.counter_sum(entry.series, entry.labels);
  }
  return metrics;
}

}  // namespace meshnet::workload
