#include "workload/elibrary_experiment.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>

#include "obs/engine_metrics.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace meshnet::workload {

namespace {

/// Uniformly random inter-arrivals for both workloads: the paper's wrk2
/// setting.
constexpr ArrivalProcess kArrival = ArrivalProcess::kUniformRandom;

void add_sidecar_stats(mesh::SidecarStats& total,
                       const mesh::SidecarStats& stats) {
  total.inbound_requests += stats.inbound_requests;
  total.outbound_requests += stats.outbound_requests;
  total.upstream_retries += stats.upstream_retries;
  total.upstream_failures += stats.upstream_failures;
  total.local_responses += stats.local_responses;
  total.timeouts += stats.timeouts;
  total.retries_denied_by_budget += stats.retries_denied_by_budget;
  total.retries_suppressed_by_overload +=
      stats.retries_suppressed_by_overload;
  total.health_probes_answered += stats.health_probes_answered;
  total.downstream_aborts += stats.downstream_aborts;
  total.configs_applied += stats.configs_applied;
  total.configs_rejected += stats.configs_rejected;
  total.deltas_applied += stats.deltas_applied;
  total.delta_mismatches += stats.delta_mismatches;
  total.panic_picks += stats.panic_picks;
}

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
  hooks.set_partitioned = [&cp](const std::string& pod, bool partitioned) {
    cp.set_partitioned(pod, partitioned);
    return true;
  };
  hooks.set_push_loss = [&cp](double probability) {
    cp.set_push_loss(probability);
    return true;
  };
  return hooks;
}

WorkloadSummary summarize(const LatencyRecorder& recorder) {
  WorkloadSummary s;
  s.completed = recorder.count();
  s.errors = recorder.errors();
  s.achieved_rps = recorder.throughput_rps();
  s.p50_ms = recorder.p50_ms();
  s.p90_ms = recorder.p90_ms();
  s.p99_ms = recorder.p99_ms();
  s.mean_ms = recorder.mean_ms();
  return s;
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

const PhaseSummary& ElibraryExperimentResult::phase(
    std::string_view name) const {
  for (const PhaseSummary& summary : phases) {
    if (summary.name == name) return summary;
  }
  throw std::out_of_range("no phase named " + std::string(name));
}

PhaseSummary summarize_phase(std::string name, const LatencyRecorder& recorder,
                             std::uint64_t scheduled) {
  PhaseSummary s;
  s.name = std::move(name);
  s.scheduled = scheduled;
  s.completed = recorder.count();
  s.errors = recorder.errors();
  const std::uint64_t finished = s.completed + s.errors;
  s.success_rate = finished == 0
                       ? 1.0
                       : static_cast<double>(s.completed) /
                             static_cast<double>(finished);
  s.goodput_rps = recorder.throughput_rps();
  s.p50_ms = recorder.p50_ms();
  s.p99_ms = recorder.p99_ms();
  return s;
}

void apply_resilience_policies(mesh::MeshPolicies& policies,
                               double retry_budget,
                               std::uint32_t budget_min_concurrency) {
  policies.retry.max_retries = 3;
  policies.retry.per_try_timeout = sim::milliseconds(500);
  policies.retry.backoff_jitter = true;
  policies.retry.backoff_max = sim::milliseconds(250);
  policies.retry.retry_budget = retry_budget;
  policies.retry.retry_budget_min_concurrency = budget_min_concurrency;
  policies.breaker.consecutive_failures = 5;
  policies.breaker.open_duration = sim::milliseconds(500);
  policies.health_check.enabled = true;
  policies.health_check.interval = sim::milliseconds(250);
  policies.health_check.timeout = sim::milliseconds(200);
  policies.health_check.unhealthy_threshold = 2;
  policies.health_check.healthy_threshold = 2;
}

ElibraryExperimentResult run_elibrary_experiment(
    const ElibraryExperimentConfig& config) {
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

  faults::ChaosController chaos(sim, app.cluster(), config.seed);
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
  result.ls = summarize(ls_gen.recorder());
  result.li = summarize(li_gen.recorder());
  result.ls_latency = ls_gen.recorder().histogram();
  result.li_latency = li_gen.recorder().histogram();
  for (std::size_t i = 0; i < config.phases.size(); ++i) {
    result.phases.push_back(summarize_phase(
        config.phases[i].name, phase_recorders[i], phase_scheduled[i]));
  }

  net::Link& bottleneck = app.bottleneck_link();
  if (config.sample_bottleneck) {
    result.bottleneck_utilization =
        static_cast<double>(busy_at_end - busy_at_start) /
        static_cast<double>(measure_end - measure_start);
  }
  result.bottleneck_drops = bottleneck.qdisc().stats().dropped_packets;
  if (const auto* wp = dynamic_cast<const net::WeightedPrioQdisc*>(
          &bottleneck.qdisc())) {
    result.high_band_bytes = wp->band_dequeued_bytes(0);
    result.low_band_bytes = wp->band_dequeued_bytes(1);
  }

  for (const auto& sidecar : cp.sidecars()) {
    add_sidecar_stats(result.sidecars, sidecar->stats());
    if (sidecar->health_checker() != nullptr) {
      result.flap_damps += sidecar->health_checker()->stats().flap_damps;
    }
  }
  for (const mesh::MeshEvent& event : cp.telemetry().events()) {
    if (event.kind == obs::EventKind::kHealth) {
      if (event.detail == "evicted") ++result.health_evictions;
      if (event.detail == "readmitted") ++result.health_readmissions;
    }
  }
  result.final_epoch = cp.epoch();
  result.stale_sidecars_at_end = cp.stale_sidecars();
  result.converged = cp.converged() && result.stale_sidecars_at_end == 0;
  result.reconverge_ms = sim::to_seconds(cp.last_reconverge_duration()) * 1e3;
  if (config.sample_staleness) {
    result.max_staleness_ms = max_staleness_ms;
    cp.metrics().gauge("cp_max_staleness_ms").set(max_staleness_ms);
  }

  result.fault_log = chaos.log();
  result.mesh_events = cp.telemetry().events();
  result.events_executed = sim.events_executed();
  result.loop_stats = sim.loop_stats();
  obs::export_loop_stats(result.loop_stats, cp.metrics());
  result.metrics = cp.metrics().snapshot();
  return result;
}

PointMetrics elibrary_point_metrics(const ElibraryExperimentResult& result,
                                    const std::vector<ReportSeries>& series) {
  PointMetrics metrics;
  const auto add_workload = [&metrics](const std::string& prefix,
                                       const WorkloadSummary& summary) {
    metrics.scalars[prefix + "_p50_ms"] = summary.p50_ms;
    metrics.scalars[prefix + "_p90_ms"] = summary.p90_ms;
    metrics.scalars[prefix + "_p99_ms"] = summary.p99_ms;
    metrics.scalars[prefix + "_mean_ms"] = summary.mean_ms;
    metrics.scalars[prefix + "_rps"] = summary.achieved_rps;
    const double total =
        static_cast<double>(summary.completed + summary.errors);
    metrics.scalars[prefix + "_success_rate"] =
        total > 0 ? static_cast<double>(summary.completed) / total : 1.0;
    metrics.counters[prefix + "_completed"] = summary.completed;
    metrics.counters[prefix + "_errors"] = summary.errors;
  };
  add_workload("ls", result.ls);
  add_workload("li", result.li);
  metrics.histograms["ls_latency_ns"] = result.ls_latency;
  metrics.histograms["li_latency_ns"] = result.li_latency;
  for (const PhaseSummary& phase : result.phases) {
    metrics.scalars[phase.name + "_goodput_rps"] = phase.goodput_rps;
    metrics.scalars[phase.name + "_success_rate"] = phase.success_rate;
    metrics.scalars[phase.name + "_p50_ms"] = phase.p50_ms;
    metrics.scalars[phase.name + "_p99_ms"] = phase.p99_ms;
    metrics.counters[phase.name + "_scheduled"] = phase.scheduled;
    metrics.counters[phase.name + "_completed"] = phase.completed;
    metrics.counters[phase.name + "_errors"] = phase.errors;
  }

  if (result.bottleneck_utilization) {
    metrics.scalars["bottleneck_utilization"] = *result.bottleneck_utilization;
  }
  metrics.counters["bottleneck_drops"] = result.bottleneck_drops;
  metrics.counters["high_band_bytes"] = result.high_band_bytes;
  metrics.counters["low_band_bytes"] = result.low_band_bytes;

  const mesh::SidecarStats& sidecars = result.sidecars;
  metrics.counters["upstream_retries"] = sidecars.upstream_retries;
  metrics.counters["upstream_failures"] = sidecars.upstream_failures;
  metrics.counters["timeouts"] = sidecars.timeouts;
  metrics.counters["retries_denied_by_budget"] =
      sidecars.retries_denied_by_budget;
  metrics.counters["retries_suppressed_by_overload"] =
      sidecars.retries_suppressed_by_overload;
  metrics.counters["downstream_aborts"] = sidecars.downstream_aborts;
  metrics.counters["panic_picks"] = sidecars.panic_picks;
  metrics.counters["health_evictions"] = result.health_evictions;
  metrics.counters["health_readmissions"] = result.health_readmissions;
  metrics.counters["flap_damps"] = result.flap_damps;
  metrics.counters["faults_executed"] = result.fault_log.size();

  metrics.counters["final_epoch"] = result.final_epoch;
  metrics.counters["stale_sidecars_at_end"] = result.stale_sidecars_at_end;
  metrics.counters["converged"] = result.converged ? 1 : 0;
  metrics.scalars["reconverge_ms"] = result.reconverge_ms;
  if (result.max_staleness_ms) {
    metrics.scalars["max_staleness_ms"] = *result.max_staleness_ms;
  }

  metrics.counters["events"] = result.events_executed;
  // Scheduler profile. Deterministic (pure functions of the config, like
  // every other counter here), so they are safe in compared baselines and
  // double as determinism witnesses for the event-loop internals.
  const sim::LoopStats& loop = result.loop_stats;
  metrics.counters["engine_scheduled"] = loop.scheduled;
  metrics.counters["engine_cancelled"] = loop.cancelled;
  metrics.counters["engine_wheel_pushes"] = loop.wheel_pushes;
  metrics.counters["engine_heap_pushes"] = loop.heap_pushes;
  metrics.counters["engine_due_merges"] = loop.due_merges;
  metrics.counters["engine_task_heap_allocs"] = loop.task_heap_allocs;
  metrics.counters["engine_max_queue_depth"] = loop.max_queue_depth;

  for (const ReportSeries& entry : series) {
    metrics.counters[entry.key] =
        result.metrics.counter_sum(entry.series, entry.labels);
  }
  metrics.snapshot = result.metrics;
  return metrics;
}

}  // namespace meshnet::workload
