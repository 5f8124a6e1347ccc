#include "mesh/control_plane.h"

#include <algorithm>
#include <utility>

#include "mesh/admission.h"
#include "mesh/builtin_filters.h"
#include "util/hash.h"
#include "util/logging.h"

namespace meshnet::mesh {

namespace {

/// Decorrelated-jitter backoff bounds for push retries.
constexpr sim::Duration kPushRetryBackoffBase = sim::milliseconds(50);
constexpr sim::Duration kPushRetryBackoffMax = sim::seconds(2);

/// Does `service`'s scope admit `cluster`? No scope entry = admit all.
bool scope_allows(
    const std::map<std::string, std::vector<std::string>>& scopes,
    const std::string& service, const std::string& cluster) {
  const auto it = scopes.find(service);
  if (it == scopes.end()) return true;
  return std::find(it->second.begin(), it->second.end(), cluster) !=
         it->second.end();
}

}  // namespace

ControlPlane::ControlPlane(sim::Simulator& sim, cluster::Cluster& cluster,
                           MeshPolicies policies)
    : sim_(sim),
      cluster_(cluster),
      policies_(std::move(policies)),
      push_rng_(0xc0de, "cp:push"),
      pace_rng_(0xc0de, "cp:pace") {
  telemetry_.access_log().set_sample_every(
      policies_.access_log_sample_every);
  cpm_.attempts = &registry_.counter("cp_push_attempts_total");
  cpm_.acks = &registry_.counter("cp_push_acks_total");
  cpm_.nacks = &registry_.counter("cp_push_nacks_total");
  cpm_.retries = &registry_.counter("cp_push_retries_total");
  cpm_.skipped_noop = &registry_.counter("cp_push_skipped_noop");
  cpm_.dropped = &registry_.counter("cp_push_dropped_total");
  cpm_.rollbacks = &registry_.counter("cp_config_rollbacks_total");
  cpm_.cert_rotations = &registry_.counter("cp_cert_rotations_total");
  cpm_.crashes = &registry_.counter("cp_crashes_total");
  cpm_.recoveries = &registry_.counter("cp_recoveries_total");
  cpm_.epoch = &registry_.gauge("config_epoch");
  cpm_.stale = &registry_.gauge("cp_sidecars_stale");
  cpm_.reconverge_ms = &registry_.gauge("cp_reconverge_ms");
  cpm_.full_pushes = &registry_.counter("cp_full_pushes_total");
  cpm_.delta_pushes = &registry_.counter("cp_delta_pushes_total");
  cpm_.delta_fallbacks = &registry_.counter("cp_delta_fallbacks_total");
  cpm_.full_bytes = &registry_.counter("cp_full_push_bytes_total");
  cpm_.delta_bytes = &registry_.counter("cp_delta_push_bytes_total");
  cpm_.subset_assignments =
      &registry_.counter("subset_endpoints_assigned_total");
  cpm_.subset_repairs = &registry_.counter("subset_coverage_repairs_total");
  // Staleness accounting rides the cluster's watch channel, not the
  // control plane's poll loop, so discovery churn is timestamped even
  // while the control plane is crashed.
  cluster_.registry().set_change_listener([this](std::uint64_t) {
    if (pending_change_since_ == 0) pending_change_since_ = sim_.now();
  });
}

Sidecar& ControlPlane::inject_sidecar(cluster::Pod& pod,
                                      SidecarInjectionOptions options) {
  auto sidecar = std::make_unique<Sidecar>(
      sim_, pod, tracer_, &telemetry_,
      pod.service().empty() ? pod.name() : pod.service(), options);
  Sidecar& ref = *sidecar;
  sidecars_.push_back(std::move(sidecar));
  PushState& state = push_state_[pod.name()];
  state.sidecar = &ref;
  states_.push_back(&state);

  // Standard filter set. Order matters: identity before authz; tracing
  // first so every later filter sees the request id. Admission runs last
  // on the inbound chain so authorization rejects never consume queue
  // slots and provenance (installed later via insert_before) has already
  // resolved the request's priority class.
  const std::string service = ref.config().service_name;
  ref.inbound_filters().append(
      std::make_shared<TracingFilter>(tracer_, sim_, service));
  ref.inbound_filters().append(std::make_shared<AuthorizationFilter>(
      service, &policies_.authorization));
  Sidecar* raw = &ref;
  ref.inbound_filters().append(std::make_shared<AdmissionFilter>(
      sim_, [raw] { return raw->admission_controller(); }));
  ref.outbound_filters().append(
      std::make_shared<TracingFilter>(tracer_, sim_, service));
  ref.outbound_filters().append(
      std::make_shared<SourceIdentityFilter>(service));

  issue_certificate(service);
  // Subset assignments depend on the subscriber set, which just grew.
  if (policies_.subset.enabled) cluster_table_.reset();
  CompiledConfig compiled = compile_config(ref);
  const std::uint64_t compiled_epoch = compiled.policy.epoch;
  if (ref.apply_config(compiled.materialize())) {
    // Injection is a local, synchronous bootstrap push: seed the channel
    // state so the next broadcast can skip this sidecar if unchanged.
    state.acked_epoch = compiled_epoch;
    state.acked_hash = compiled.fingerprint.hash;
    if (policies_.cp.delta_push) state.acked = std::move(compiled.fingerprint);
  }
  ref.start();
  return ref;
}

void ControlPlane::start(sim::Duration poll_interval) {
  if (started_) return;
  started_ = true;
  poll_interval_ = poll_interval;
  push_config();
  poll_timer_ =
      sim_.schedule_after(poll_interval_, [this] { poll_registry(); });
}

void ControlPlane::poll_registry() {
  poll_timer_ = sim::kInvalidEventId;
  if (crashed_) return;
  if (cluster_.registry().version() != last_registry_version_) {
    push_config();
  }
  update_staleness_gauges();
  poll_timer_ =
      sim_.schedule_after(poll_interval_, [this] { poll_registry(); });
}

void ControlPlane::begin_epoch() {
  ++epoch_;
  last_registry_version_ = cluster_.registry().version();
  pending_change_since_ = 0;
  cpm_.epoch->set(static_cast<double>(epoch_));
  telemetry_.access_log().set_sample_every(
      policies_.access_log_sample_every);
}

void ControlPlane::push_config() {
  if (crashed_) return;
  begin_epoch();
  for (PushState* state : states_) {
    launch_push(*state);
  }
  MESHNET_DEBUG() << "control plane push epoch " << epoch_
                  << " (registry v" << last_registry_version_
                  << ")";
}

void ControlPlane::launch_push(PushState& state) {
  Sidecar& sidecar = *state.sidecar;
  cancel_push_timers(state);

  CompiledConfig compiled = compile_config(sidecar);
  if (state.acked_hash != 0 && compiled.fingerprint.hash == state.acked_hash) {
    // Delta-aware push: the compiled payload is byte-identical to what
    // the sidecar already runs, so the new epoch is acked implicitly.
    state.acked_epoch = std::max(state.acked_epoch, compiled.policy.epoch);
    publish_acked_epoch(state);
    cpm_.skipped_noop->inc();
    check_convergence();
    return;
  }

  cpm_.attempts->inc();
  if (state.partitioned || !sidecar.pod().running()) {
    // Unreachable sidecar: the push is dropped on the floor and the
    // retry loop keeps revalidating until the partition heals or the
    // pod comes back.
    cpm_.dropped->inc();
    schedule_retry(state);
    return;
  }

  const ControlPlaneConfig& cp = policies_.cp;
  // Incremental transport: once a base config has been acked, ship only
  // the diff against it. A forced-full flag (set after a delta mismatch)
  // or a missing base falls back to the full snapshot, the only push
  // that needs the whole config built.
  const bool use_delta =
      cp.delta_push && !state.force_full && state.acked.has_value();
  ConfigDelta delta;
  SidecarConfig config;
  if (use_delta) {
    delta = make_config_delta(*state.acked, compiled);
    cpm_.delta_pushes->inc();
    cpm_.delta_bytes->inc(estimate_delta_bytes(delta));
  } else {
    config = compiled.materialize();
    cpm_.full_pushes->inc();
    cpm_.full_bytes->inc(estimate_config_bytes(config));
    state.force_full = false;
  }
  ConfigFingerprint target = std::move(compiled.fingerprint);
  const bool lost = cp.push_loss > 0.0 && push_rng_.uniform() < cp.push_loss;
  sim::Duration latency = cp.push_latency_base;
  if (cp.push_latency_jitter > 0) {
    latency += static_cast<sim::Duration>(
        push_rng_.uniform() * static_cast<double>(cp.push_latency_jitter));
  }
  if (lost) {
    // Swallowed by the channel; the ack timeout notices and retries.
    arm_ack_timeout(state);
    return;
  }
  if (latency <= 0) {
    // Zero-latency channel: apply and ack inside the call (see
    // ControlPlaneConfig for why this is not a scheduled delivery).
    if (use_delta) {
      deliver_delta(state, std::move(delta), std::move(target));
    } else {
      deliver_push(state, std::move(config), std::move(target));
    }
    return;
  }
  state.delivery_timer = sim_.schedule_after(
      latency, [this, s = &state, use_delta, delta = std::move(delta),
                config = std::move(config),
                target = std::move(target)]() mutable {
        s->delivery_timer = sim::kInvalidEventId;
        if (use_delta) {
          deliver_delta(*s, std::move(delta), std::move(target));
        } else {
          deliver_push(*s, std::move(config), std::move(target));
        }
      });
  arm_ack_timeout(state);
}

void ControlPlane::deliver_push(PushState& state, SidecarConfig config,
                                ConfigFingerprint target) {
  Sidecar& sidecar = *state.sidecar;
  const std::uint64_t config_epoch = config.epoch;
  if (sidecar.apply_config(std::move(config))) {
    const std::uint64_t hash = target.hash;
    if (policies_.cp.delta_push) state.acked = std::move(target);
    handle_ack(state, config_epoch, hash);
  } else {
    handle_nack(state, config_epoch, sidecar.last_config_error());
  }
}

void ControlPlane::deliver_delta(PushState& state, ConfigDelta delta,
                                 ConfigFingerprint target) {
  Sidecar& sidecar = *state.sidecar;
  const std::uint64_t config_epoch = delta.epoch;
  if (sidecar.apply_config_delta(std::move(delta))) {
    const std::uint64_t hash = target.hash;
    state.acked = std::move(target);
    handle_ack(state, config_epoch, hash);
    return;
  }
  const std::string error = sidecar.last_config_error();
  if (error == "delta-base-mismatch" || error == "delta-target-mismatch") {
    // A transport artefact — the base this delta assumed never stuck, or
    // drifted — not a poison config, so no rollback: forget the base and
    // re-push the full snapshot immediately.
    cpm_.delta_fallbacks->inc();
    record_event(obs::EventKind::kControlPlane,
                 "push:" + sidecar.pod().name(), "delta fallback: " + error);
    state.acked.reset();
    state.force_full = true;
    if (!crashed_) launch_push(state);
    return;
  }
  handle_nack(state, config_epoch, error);
}

void ControlPlane::handle_ack(PushState& state, std::uint64_t acked_epoch,
                              std::uint64_t hash) {
  if (crashed_) return;  // acks into a dead control plane are lost
  if (state.ack_timer != sim::kInvalidEventId) {
    sim_.cancel(state.ack_timer);
    state.ack_timer = sim::kInvalidEventId;
  }
  state.attempt = 0;
  state.prev_backoff = 0;
  if (acked_epoch >= state.acked_epoch) {
    state.acked_epoch = acked_epoch;
    state.acked_hash = hash;
  }
  publish_acked_epoch(state);
  cpm_.acks->inc();
  check_convergence();
}

void ControlPlane::handle_nack(PushState& state, std::uint64_t nacked_epoch,
                               const std::string& reason) {
  if (crashed_) return;
  if (state.ack_timer != sim::kInvalidEventId) {
    sim_.cancel(state.ack_timer);
    state.ack_timer = sim::kInvalidEventId;
  }
  if (reason == "stale-epoch") {
    // A superseded push raced a newer one; the newer epoch is already in
    // flight, so there is nothing to repair.
    return;
  }
  cpm_.nacks->inc();
  record_event(obs::EventKind::kControlPlane,
               "push:" + state.sidecar->pod().name(), "nack: " + reason);
  if (nacked_epoch == epoch_ && rollback_armed_ &&
      nacked_epoch > rolled_back_epoch_) {
    // Poison config: the sidecar kept its last-good snapshot; restore the
    // last converged policy set and push a fresh (still monotonic) epoch.
    rolled_back_epoch_ = nacked_epoch;
    rollback_armed_ = false;
    compile_mutator_ = nullptr;
    if (have_last_good_) {
      // Runtime channel settings (loss overrides, pacing) survive the
      // rollback; only the operator policy payload reverts.
      ControlPlaneConfig cp = policies_.cp;
      policies_ = last_good_policies_;
      policies_.cp = cp;
    }
    cluster_table_.reset();
    cpm_.rollbacks->inc();
    record_event(obs::EventKind::kControlPlane, "control-plane",
                 "rollback to last-good epoch");
    push_config();
  } else {
    schedule_retry(state);
  }
}

void ControlPlane::schedule_retry(PushState& state) {
  if (crashed_) return;
  if (state.retry_timer != sim::kInvalidEventId) return;
  ++state.attempt;
  RetryPolicy backoff;
  backoff.backoff_base = kPushRetryBackoffBase;
  backoff.backoff_max = kPushRetryBackoffMax;
  const sim::Duration sleep =
      next_retry_backoff(backoff, state.attempt, state.prev_backoff,
                         push_rng_);
  state.prev_backoff = sleep;
  cpm_.retries->inc();
  schedule_relaunch(state, sleep);
}

void ControlPlane::schedule_relaunch(PushState& state, sim::Duration delay) {
  state.retry_timer = sim_.schedule_after(delay, [this, s = &state] {
    s->retry_timer = sim::kInvalidEventId;
    if (!crashed_) launch_push(*s);
  });
}

void ControlPlane::arm_ack_timeout(PushState& state) {
  state.ack_timer =
      sim_.schedule_after(policies_.cp.ack_timeout, [this, s = &state] {
        s->ack_timer = sim::kInvalidEventId;
        schedule_retry(*s);
      });
}

void ControlPlane::publish_acked_epoch(PushState& state) {
  if (state.epoch_gauge == nullptr) {
    state.epoch_gauge = &registry_.gauge(
        "sidecar_config_epoch", {{"pod", state.sidecar->pod().name()}});
  }
  state.epoch_gauge->set(static_cast<double>(state.acked_epoch));
}

void ControlPlane::cancel_push_timers(PushState& state) {
  for (sim::EventId* timer :
       {&state.delivery_timer, &state.ack_timer, &state.retry_timer}) {
    if (*timer != sim::kInvalidEventId) {
      sim_.cancel(*timer);
      *timer = sim::kInvalidEventId;
    }
  }
}

void ControlPlane::check_convergence() {
  if (crashed_) return;
  std::size_t stale = 0;
  bool all_current = true;
  for (const PushState* state : states_) {
    if (state->acked_epoch != epoch_) {
      ++stale;
      if (state->sidecar->pod().running()) all_current = false;
    }
  }
  cpm_.stale->set(static_cast<double>(stale));
  if (!all_current || epoch_ == 0) return;
  // Converged: every running sidecar runs the current epoch. This policy
  // set is proven good — it becomes the rollback target.
  last_good_policies_ = policies_;
  have_last_good_ = true;
  rollback_armed_ = true;
  last_converged_at_ = sim_.now();
  if (pending_reconverge_) {
    pending_reconverge_ = false;
    last_reconverge_ = sim_.now() - recovered_at_;
    cpm_.reconverge_ms->set(sim::to_seconds(last_reconverge_) * 1e3);
    record_event(obs::EventKind::kControlPlane, "control-plane",
                 "reconverged after recovery");
  }
}

bool ControlPlane::converged() const {
  if (crashed_) return false;
  for (const PushState* state : states_) {
    if (!state->sidecar->pod().running()) continue;
    if (state->acked_epoch != epoch_) return false;
  }
  return true;
}

std::uint64_t ControlPlane::acked_epoch(const std::string& pod_name) const {
  const auto it = push_state_.find(pod_name);
  return it == push_state_.end() ? 0 : it->second.acked_epoch;
}

std::uint64_t ControlPlane::acked_hash(const std::string& pod_name) const {
  const auto it = push_state_.find(pod_name);
  return it == push_state_.end() ? 0 : it->second.acked_hash;
}

std::size_t ControlPlane::stale_sidecars() const {
  std::size_t stale = 0;
  for (const PushState* state : states_) {
    if (state->acked_epoch != epoch_) ++stale;
  }
  return stale;
}

sim::Duration ControlPlane::discovery_staleness() const {
  return pending_change_since_ == 0 ? 0 : sim_.now() - pending_change_since_;
}

void ControlPlane::crash() {
  if (crashed_) return;
  crashed_ = true;
  cpm_.crashes->inc();
  record_event(obs::EventKind::kControlPlane, "control-plane", "crash");
  if (poll_timer_ != sim::kInvalidEventId) {
    sim_.cancel(poll_timer_);
    poll_timer_ = sim::kInvalidEventId;
  }
  for (auto& [pod, state] : push_state_) cancel_push_timers(state);
  for (auto& [service, timer] : cert_timers_) sim_.cancel(timer);
  cert_timers_.clear();
}

void ControlPlane::recover() {
  if (!crashed_) return;
  crashed_ = false;
  cpm_.recoveries->inc();
  record_event(obs::EventKind::kControlPlane, "control-plane", "recover");
  recovered_at_ = sim_.now();
  pending_reconverge_ = true;
  // Certificates that lapsed during the outage are re-issued first; live
  // ones get their rotation timers re-armed.
  for (auto& [service, issued] : certs_) {
    if (!issued.cert.valid_at(sim_.now())) {
      issue_certificate(service);
      cpm_.cert_rotations->inc();
    } else {
      schedule_cert_rotation(service);
    }
  }
  if (started_) {
    poll_timer_ =
        sim_.schedule_after(poll_interval_, [this] { poll_registry(); });
  }
  // Paced, jittered reconvergence: sidecar i's push launches at
  // i * pacing + uniform(0, pacing), so a mesh-wide resync is a ramp,
  // not a thundering herd.
  begin_epoch();
  const sim::Duration pacing = policies_.cp.reconverge_pacing;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    PushState& state = *states_[i];
    sim::Duration delay = static_cast<sim::Duration>(i) * pacing;
    if (pacing > 0) {
      delay += static_cast<sim::Duration>(pace_rng_.uniform() *
                                          static_cast<double>(pacing));
    }
    if (delay <= 0) {
      launch_push(state);
      continue;
    }
    cancel_push_timers(state);
    schedule_relaunch(state, delay);
  }
}

void ControlPlane::set_partitioned(const std::string& pod_name,
                                   bool partitioned) {
  PushState& state = push_state_[pod_name];
  if (state.partitioned == partitioned) return;
  state.partitioned = partitioned;
  record_event(obs::EventKind::kControlPlane, "push:" + pod_name,
               partitioned ? "partitioned" : "healed");
  if (!partitioned && !crashed_ && state.acked_epoch < epoch_ &&
      state.sidecar != nullptr) {
    // Healed while stale: revalidate immediately.
    launch_push(state);
  }
}

void ControlPlane::set_push_loss(double probability) {
  policies_.cp.push_loss = std::clamp(probability, 0.0, 1.0);
}

void ControlPlane::update_staleness_gauges() {
  if (cpm_.discovery_staleness == nullptr) {
    cpm_.discovery_staleness = &registry_.gauge("cp_discovery_staleness_ms");
  }
  cpm_.discovery_staleness->set(sim::to_seconds(discovery_staleness()) * 1e3);
  for (const auto& [service, issued] : certs_) {
    const sim::Time expires_at = issued.cert.expires_at;
    issued.seconds_to_expiry->set(
        expires_at > sim_.now() ? sim::to_seconds(expires_at - sim_.now())
                                : 0.0);
  }
}

bool ControlPlane::mtls_enabled_for(const std::string& service) const {
  const auto it = policies_.mtls_overrides.find(service);
  return it != policies_.mtls_overrides.end() ? it->second
                                              : policies_.tls.enabled;
}

const ControlPlane::ClusterTable& ControlPlane::cluster_table() {
  const std::uint64_t version = cluster_.registry().version();
  if (cluster_table_.has_value() && cluster_table_->epoch == epoch_ &&
      cluster_table_->registry_version == version) {
    return *cluster_table_;
  }
  ClusterTable& table = cluster_table_.emplace();
  table.epoch = epoch_;
  table.registry_version = version;
  const std::vector<const cluster::ServiceInfo*> services =
      cluster_.registry().services();
  table.clusters.reserve(services.size());
  const SubsetConfig& subset = policies_.subset;
  for (const cluster::ServiceInfo* info : services) {
    TableCluster& entry = table.clusters.emplace_back();
    ClusterSpec& spec = entry.full.spec;
    spec.name = info->name;
    spec.endpoints = info->endpoints;
    // Client side of mTLS: initiate TLS to clusters whose *target*
    // service runs an mTLS-accepting inbound listener.
    spec.mtls = mtls_enabled_for(info->name);
    spec.breaker = policies_.breaker;
    spec.health_check = policies_.health_check;
    spec.lb = policies_.default_lb;
    const auto lb_it = policies_.lb_overrides.find(info->name);
    if (lb_it != policies_.lb_overrides.end()) spec.lb = lb_it->second;
    entry.full.hash = hash_cluster_spec(spec);
    if (!subset.enabled || subset.subset_size <= 0 ||
        static_cast<std::size_t>(subset.subset_size) >=
            spec.endpoints.size()) {
      continue;
    }
    // Every sidecar whose scope admits this cluster subscribes to it; the
    // subset function is pure, so one assignment per epoch gives every
    // subscriber a consistent view.
    std::vector<std::string> subscribers;
    subscribers.reserve(sidecars_.size());
    for (const auto& sidecar : sidecars_) {
      if (scope_allows(policies_.cluster_scopes,
                       sidecar->config().service_name, info->name)) {
        subscribers.push_back(sidecar->pod().name());
      }
    }
    std::sort(subscribers.begin(), subscribers.end());
    for (const auto& [pod, indices] : compute_endpoint_subsets(
             info->name, spec.endpoints, subscribers, subset.subset_size)) {
      if (indices.size() >= spec.endpoints.size()) continue;
      CompiledSpec& narrowed = entry.narrowed[pod];
      narrowed.spec = spec;
      narrowed.spec.endpoints.clear();
      for (const std::size_t index : indices) {
        narrowed.spec.endpoints.push_back(spec.endpoints[index]);
      }
      narrowed.hash = hash_cluster_spec(narrowed.spec);
    }
  }
  return table;
}

CompiledConfig ControlPlane::compile_config(const Sidecar& sidecar) {
  CompiledConfig compiled;
  SidecarPolicy& policy = compiled.policy;
  static_cast<PolicySection&>(policy) = policies_;
  policy.service_name = sidecar.config().service_name;
  // Server side of mTLS: this sidecar's inbound listener accepts TLS iff
  // its own service resolves to mtls-on.
  policy.tls.enabled = mtls_enabled_for(policy.service_name);
  policy.epoch = epoch_;
  const auto cert_it = certs_.find(policy.service_name);
  if (cert_it != certs_.end()) policy.identity_cert = cert_it->second.cert;

  const std::string& pod = sidecar.pod().name();
  const auto scope_it = policies_.cluster_scopes.find(policy.service_name);
  const std::vector<std::string>* scope =
      scope_it == policies_.cluster_scopes.end() ? nullptr : &scope_it->second;
  const ClusterTable& table = cluster_table();
  ConfigFingerprint& fingerprint = compiled.fingerprint;
  fingerprint.clusters.reserve(table.clusters.size());
  compiled.specs.reserve(table.clusters.size());
  for (const TableCluster& entry : table.clusters) {
    const std::string& name = entry.full.spec.name;
    if (scope != nullptr &&
        std::find(scope->begin(), scope->end(), name) == scope->end()) {
      continue;
    }
    const CompiledSpec* chosen = &entry.full;
    const auto narrowed_it = entry.narrowed.find(pod);
    if (narrowed_it != entry.narrowed.end()) {
      chosen = &narrowed_it->second;
      const std::size_t assigned = chosen->spec.endpoints.size();
      const auto size = static_cast<std::size_t>(policies_.subset.subset_size);
      cpm_.subset_assignments->inc(assigned);
      if (assigned > size) {
        // Aperture gives exactly subset_size endpoints; anything above
        // that was grafted on by the coverage-repair pass.
        cpm_.subset_repairs->inc(assigned - size);
      }
    }
    fingerprint.clusters.push_back({name, chosen->hash});
    compiled.specs.push_back(&chosen->spec);
  }
  if (compile_mutator_) {
    // Test hook: the mutator may rewrite any part of the config, so the
    // mutated config is fingerprinted from scratch.
    SidecarConfig mutated = compiled.materialize();
    compile_mutator_(pod, mutated);
    return compiled_from(std::move(mutated));
  }
  fingerprint.policy_hash = hash_policy_section(policy);
  fingerprint.hash = compose_config_hash(fingerprint);
  return compiled;
}

Certificate ControlPlane::issue_certificate(const std::string& service) {
  Certificate cert;
  cert.serial = next_serial_++;
  cert.spiffe_id = "spiffe://cluster.local/ns/default/sa/" + service;
  cert.issued_at = sim_.now();
  cert.expires_at = sim_.now() + policies_.certificate_lifetime;
  IssuedCert& issued = certs_[service];
  issued.cert = cert;
  if (issued.seconds_to_expiry == nullptr) {
    issued.seconds_to_expiry =
        &registry_.gauge("cert_seconds_to_expiry", {{"service", service}});
  }
  issued.seconds_to_expiry->set(
      sim::to_seconds(policies_.certificate_lifetime));
  schedule_cert_rotation(service);
  return cert;
}

void ControlPlane::schedule_cert_rotation(const std::string& service) {
  const double ahead = policies_.cp.cert_refresh_ahead;
  if (ahead <= 0.0 || crashed_) return;
  const auto it = certs_.find(service);
  if (it == certs_.end()) return;
  const auto timer_it = cert_timers_.find(service);
  if (timer_it != cert_timers_.end()) {
    sim_.cancel(timer_it->second);
    cert_timers_.erase(timer_it);
  }
  const auto refresh_margin = static_cast<sim::Duration>(
      ahead * static_cast<double>(policies_.certificate_lifetime));
  // Deterministic per-service splay (up to half the refresh margin) so
  // rotations issued at the same instant — e.g. the re-issue burst at
  // control-plane recovery — do not renew as a synchronized thundering
  // herd forever after. The basis is one digit short of FNV's; changing
  // it would move every rotation.
  const std::uint64_t splay_hash =
      util::fnv1a(service, 1469598103934665603ull);
  const auto splay = static_cast<sim::Duration>(
      static_cast<double>(splay_hash % 1024) / 2048.0 *
      static_cast<double>(refresh_margin));
  const sim::Time rotate_at =
      it->second.cert.expires_at - refresh_margin + splay;
  const sim::Duration delay = std::max<sim::Duration>(0, rotate_at - sim_.now());
  cert_timers_[service] = sim_.schedule_after(delay, [this, service] {
    cert_timers_.erase(service);
    if (crashed_) return;
    issue_certificate(service);
    cpm_.cert_rotations->inc();
    record_event(obs::EventKind::kControlPlane, "cert:" + service,
                 "rotated");
    // The new serial changes the affected sidecars' config fingerprint;
    // the delta-aware push delivers only to them.
    push_config();
  });
}

void ControlPlane::record_event(obs::EventKind kind,
                                const std::string& subject,
                                const std::string& detail) {
  telemetry_.record_event(sim_.now(), kind, subject, detail);
}

const Certificate* ControlPlane::certificate(const std::string& service) const {
  const auto it = certs_.find(service);
  return it == certs_.end() ? nullptr : &it->second.cert;
}

Sidecar* ControlPlane::sidecar_for(const std::string& pod_name) {
  const auto it = push_state_.find(pod_name);
  return it == push_state_.end() ? nullptr : it->second.sidecar;
}

}  // namespace meshnet::mesh
