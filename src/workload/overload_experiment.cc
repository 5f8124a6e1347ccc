#include "workload/overload_experiment.h"

namespace meshnet::workload {

namespace {

app::ElibraryOptions default_overload_app() {
  app::ElibraryOptions app;
  // Compute-bound tuning: payloads small enough that the 1 Gbps ratings
  // vNIC never saturates; the frontend's seven workers (each held for
  // the whole fan-out, ~63 ms per request) are the knee, near 110 rps.
  app.component_bytes = 2 * 1024;
  app.analytics_multiplier = 2;
  app.service_time = sim::milliseconds(20);
  app.app_max_concurrency = 7;

  mesh::MeshPolicies& policies = app.policies;
  // A short end-to-end deadline makes deadline-aware shedding observable
  // and bounds the drain tail.
  policies.request_timeout = sim::seconds(2);
  policies.retry.max_retries = 1;
  policies.retry.retry_budget = 0.2;

  mesh::AdmissionConfig& admission = policies.admission;
  admission.enabled = false;  // toggled per arm by the experiment
  admission.queue_capacity = 64;
  admission.shed_retries_first = true;
  // Four of the seven slots are reserved: an LS arrival waits only when
  // four LS requests are already in flight (~0.4% at 10 rps x 63 ms),
  // while uncontended LI load (~2.3 concurrent) fits the other three.
  admission.reserve_slots = 4;
  admission.limit.initial_limit = 7;
  admission.limit.min_limit = 2;
  admission.limit.max_limit = 12;
  admission.limit.window = sim::milliseconds(200);
  admission.limit.min_window_samples = 5;
  admission.limit.latency_tolerance = 2.0;
  return app;
}

}  // namespace

ElibraryExperimentConfig overload_config(ElibraryExperimentConfig run,
                                         const OverloadArm& arm) {
  const double total = arm.load_factor * arm.capacity_rps;
  run.li_rps = total > run.ls_rps ? total - run.ls_rps : 0.0;
  run.app = default_overload_app();
  run.app.policies.admission.enabled = arm.admission;
  // Classification at the gateway + provenance propagation are what give
  // the admission controllers a priority to act on; both arms run with
  // the cross-layer filters installed so the only difference between
  // them is the admission subsystem itself.
  run.cross_layer = true;
  // Drain: every in-flight request either completes or hits its armed
  // deadline within request_timeout of the last arrival.
  run.drain = run.app.policies.request_timeout + sim::seconds(5);
  run.sample_bottleneck = false;
  return run;
}

const std::vector<ReportSeries>& overload_report_series() {
  static const std::vector<ReportSeries> series = {
      {"ls_shed", "admission_shed_total", {{"class", "latency-sensitive"}}},
      {"li_shed", "admission_shed_total", {{"class", "scavenger"}}},
      {"default_shed", "admission_shed_total", {{"class", "default"}}},
      {"shed_queue_full", "admission_shed_total", {{"reason", "queue-full"}}},
      {"shed_deadline", "admission_shed_total", {{"reason", "deadline"}}},
      {"shed_preempted", "admission_shed_total", {{"reason", "preempted"}}},
      {"admission_accepted", "admission_accepted_total", {}},
      {"admission_queued", "admission_queued_total", {}},
  };
  return series;
}

}  // namespace meshnet::workload
