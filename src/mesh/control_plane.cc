#include "mesh/control_plane.h"

#include <algorithm>
#include <utility>

#include "mesh/admission.h"
#include "mesh/builtin_filters.h"
#include "util/hash.h"

namespace meshnet::mesh {

namespace {

/// Decorrelated-jitter backoff bounds for push retries.
constexpr sim::Duration kPushRetryBackoffBase = sim::milliseconds(50);
constexpr sim::Duration kPushRetryBackoffMax = sim::seconds(2);

}  // namespace

ControlPlane::ControlPlane(sim::Simulator& sim, cluster::Cluster& cluster,
                           MeshPolicies policies)
    : sim_(sim),
      cluster_(cluster),
      policies_(std::move(policies)),
      poll_timer_(sim),
      push_rng_(0xc0de, "cp:push"),
      pace_rng_(0xc0de, "cp:pace") {
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
  PushState& state = push_state_.try_emplace(pod.name(), sim_).first->second;
  state.sidecar = &ref;
  states_.push_back(&state);

  // Standard filter set. Order matters: tracing first so every later
  // filter sees the request id. Admission runs last on the inbound chain
  // so provenance (installed later via insert_before) has already
  // resolved the request's priority class.
  const std::string service = ref.config().service_name;
  ref.inbound_filters().append(
      std::make_shared<TracingFilter>(tracer_, sim_, service));
  Sidecar* raw = &ref;
  ref.inbound_filters().append(std::make_shared<AdmissionFilter>(
      [raw] { return raw->admission_controller(); }));
  ref.outbound_filters().append(
      std::make_shared<TracingFilter>(tracer_, sim_, service));
  ref.outbound_filters().append(
      std::make_shared<SourceIdentityFilter>(service));

  issue_certificate(service);
  // The new sidecar starts stale unless its bootstrap config applies.
  set_acked_epoch(state, 0);
  // Subset assignments depend on the subscriber set, which just grew: a
  // current table re-derives only the clusters this sidecar's scope
  // admits (a cluster's subsets depend on its own subscribers alone); a
  // table due for a rebuild picks the sidecar up there.
  if (policies_.subset.enabled && !cluster_table_.stale &&
      cluster_table_.epoch == epoch_ &&
      cluster_table_.registry_version == cluster_.registry().version()) {
    subscribe(cluster_table_, ref, true);
  }
  CompiledConfig compiled = compile_config(ref);
  ConfigPush push = make_config_push(nullptr, compiled);
  if (ref.apply_config(push)) {
    // Injection is a local, synchronous bootstrap push: seed the channel
    // state so the next broadcast can skip this sidecar if unchanged.
    set_acked_epoch(state, compiled.epoch);
    state.acked_hash = compiled.fingerprint.hash;
    if (policies_.cp.delta_push) {
      state.acked.emplace().apply(push, compiled.fingerprint);
    }
  }
  ref.start();
  return ref;
}

void ControlPlane::start() {
  if (started_) return;
  started_ = true;
  push_config();
  poll_timer_.arm_after(kPollInterval, [this] { poll_registry(); });
}

void ControlPlane::poll_registry() {
  if (crashed_) return;
  if (cluster_.registry().version() != last_registry_version_) {
    push_config();
  }
  update_staleness_gauges();
  poll_timer_.arm_after(kPollInterval, [this] { poll_registry(); });
}

void ControlPlane::begin_epoch() {
  ++epoch_;
  // No sidecar has acked an epoch that was just minted.
  stale_ = states_;
  for (std::size_t i = 0; i < stale_.size(); ++i) stale_[i]->stale_slot = i;
  last_registry_version_ = cluster_.registry().version();
  pending_change_since_ = 0;
  cpm_.epoch->set(static_cast<double>(epoch_));
}

void ControlPlane::push_config() {
  if (crashed_) return;
  begin_epoch();
  for (PushState* state : states_) {
    launch_push(*state);
  }
}

void ControlPlane::launch_push(PushState& state) {
  Sidecar& sidecar = *state.sidecar;
  state.disarm_timers();

  CompiledConfig compiled = compile_config(sidecar);
  if (state.acked_hash != 0 && compiled.fingerprint.hash == state.acked_hash) {
    // Delta-aware push: the compiled payload is byte-identical to what
    // the sidecar already runs, so the new epoch is acked implicitly.
    set_acked_epoch(state,
                    std::max(state.acked_epoch, compiled.epoch));
    publish_acked_epoch(state);
    cpm_.skipped_noop->inc();
    check_convergence();
    return;
  }

  cpm_.attempts->inc();
  if (!sidecar.pod().running()) {
    // Unreachable sidecar: the push is dropped on the floor and the
    // retry loop keeps revalidating until the pod comes back.
    cpm_.dropped->inc();
    schedule_retry(state);
    return;
  }

  const ControlPlaneConfig& cp = policies_.cp;
  // Incremental transport: once a base config has been acked, ship only
  // the diff against it. Without one (never acked, or forgotten by a
  // delta fallback) the push replaces the whole config.
  const AckedConfig* base =
      cp.delta_push && state.acked ? &*state.acked : nullptr;
  ConfigPush& push = state.push.emplace(make_config_push(base, compiled));
  state.target = compiled.fingerprint;
  const std::size_t bytes = estimate_push_bytes(push);
  if (push.replace) {
    cpm_.full_pushes->inc();
    cpm_.full_bytes->inc(bytes);
  } else {
    cpm_.delta_pushes->inc();
    cpm_.delta_bytes->inc(bytes);
  }
  const bool lost = cp.push_loss > 0.0 && push_rng_.uniform() < cp.push_loss;
  sim::Duration latency = cp.push_latency_base;
  if (cp.push_latency_jitter > 0) {
    latency += static_cast<sim::Duration>(
        push_rng_.uniform() * static_cast<double>(cp.push_latency_jitter));
  }
  if (lost) {
    // Swallowed by the channel; the ack timeout notices and retries.
    state.push.reset();
    arm_ack_timeout(state);
    return;
  }
  if (latency <= 0) {
    // Zero-latency channel: apply and ack inside the call (see
    // ControlPlaneConfig for why this is not a scheduled delivery).
    deliver(state);
    return;
  }
  auto on_delivery = [this, s = &state] { deliver(*s); };
  static_assert(sim::InlineTask::fits_inline<decltype(on_delivery)>(),
                "the push waits in PushState, not in the closure");
  state.delivery_timer.arm_after(latency, on_delivery);
  arm_ack_timeout(state);
}

void ControlPlane::deliver(PushState& state) {
  Sidecar& sidecar = *state.sidecar;
  // Out of the state first: a fallback or a rollback relaunches pushes.
  ConfigPush push = std::move(*state.push);
  state.push.reset();
  if (sidecar.apply_config(push)) {
    if (policies_.cp.delta_push) {
      AckedConfig& acked = push.replace ? state.acked.emplace() : *state.acked;
      acked.apply(push, state.target);
    }
    handle_ack(state, push.epoch, state.target.hash);
    return;
  }
  const std::string error = sidecar.last_config_error();
  if (error == "delta-base-mismatch" || error == "delta-target-mismatch") {
    // A transport artefact — the base this delta assumed never stuck, or
    // drifted — not a poison config, so no rollback: forget the base and
    // re-push a replace immediately. Only a delta is refused this way, so
    // a bad replace is nacked below and cannot loop.
    cpm_.delta_fallbacks->inc();
    record_event(obs::EventKind::kControlPlane,
                 "push:" + sidecar.pod().name(), "delta fallback: " + error);
    state.acked.reset();
    if (!crashed_) launch_push(state);
    return;
  }
  handle_nack(state, push.epoch, error);
}

void ControlPlane::handle_ack(PushState& state, std::uint64_t acked_epoch,
                              std::uint64_t hash) {
  if (crashed_) return;  // acks into a dead control plane are lost
  state.ack_timer.disarm();
  state.attempt = 0;
  state.prev_backoff = 0;
  if (acked_epoch >= state.acked_epoch) {
    set_acked_epoch(state, acked_epoch);
    state.acked_hash = hash;
  }
  publish_acked_epoch(state);
  cpm_.acks->inc();
  check_convergence();
}

void ControlPlane::handle_nack(PushState& state, std::uint64_t nacked_epoch,
                               const std::string& reason) {
  if (crashed_) return;
  state.ack_timer.disarm();
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
    if (have_last_good_) {
      // Runtime channel settings (loss overrides, pacing) survive the
      // rollback; only the operator policy payload reverts.
      ControlPlaneConfig cp = policies_.cp;
      policies_ = last_good_policies_;
      policies_.cp = cp;
    }
    cluster_table_.stale = true;
    ++policy_generation_;
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
  if (state.retry_timer.armed()) return;
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
  state.retry_timer.arm_after(delay, [this, s = &state] {
    if (!crashed_) launch_push(*s);
  });
}

void ControlPlane::arm_ack_timeout(PushState& state) {
  state.ack_timer.arm_after(policies_.cp.ack_timeout,
                           [this, s = &state] { schedule_retry(*s); });
}

void ControlPlane::publish_acked_epoch(PushState& state) {
  if (state.epoch_gauge == nullptr) {
    state.epoch_gauge = &registry_.gauge(
        "sidecar_config_epoch", {{"pod", state.sidecar->pod().name()}});
  }
  state.epoch_gauge->set(static_cast<double>(state.acked_epoch));
}

void ControlPlane::set_acked_epoch(PushState& state, std::uint64_t epoch) {
  state.acked_epoch = epoch;
  const bool stale = epoch != epoch_;
  if (stale == (state.stale_slot != kCurrent)) return;
  if (stale) {
    state.stale_slot = stale_.size();
    stale_.push_back(&state);
    return;
  }
  // Swap-remove: the list has no order.
  PushState* last = stale_.back();
  stale_[state.stale_slot] = last;
  last->stale_slot = state.stale_slot;
  stale_.pop_back();
  state.stale_slot = kCurrent;
}

void ControlPlane::check_convergence() {
  if (crashed_) return;
  cpm_.stale->set(static_cast<double>(stale_.size()));
  if (!converged() || epoch_ == 0) return;
  // Converged: every running sidecar runs the current epoch. This policy
  // set is proven good — it becomes the rollback target. An epoch that
  // changed only endpoints leaves the generation, and the copy, as is.
  if (!have_last_good_ || last_good_generation_ != policy_generation_) {
    last_good_policies_ = policies_;
    last_good_generation_ = policy_generation_;
  }
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
  for (const PushState* state : stale_) {
    if (state->sidecar->pod().running()) return false;
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

std::size_t ControlPlane::stale_sidecars() const { return stale_.size(); }

sim::Duration ControlPlane::discovery_staleness() const {
  return pending_change_since_ == 0 ? 0 : sim_.now() - pending_change_since_;
}

void ControlPlane::crash() {
  if (crashed_) return;
  crashed_ = true;
  cpm_.crashes->inc();
  record_event(obs::EventKind::kControlPlane, "control-plane", "crash");
  poll_timer_.disarm();
  for (auto& [pod, state] : push_state_) state.disarm_timers();
  for (auto& [service, issued] : certs_) issued.rotation_timer.disarm();
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
    poll_timer_.arm_after(kPollInterval, [this] { poll_registry(); });
  }
  // Paced, jittered reconvergence: sidecar i's push launches at
  // i * pacing + uniform(0, pacing), so a mesh-wide resync is a ramp,
  // not a thundering herd.
  begin_epoch();
  for (std::size_t i = 0; i < states_.size(); ++i) {
    PushState& state = *states_[i];
    const sim::Duration delay =
        static_cast<sim::Duration>(i) * kReconvergePacing +
        static_cast<sim::Duration>(pace_rng_.uniform() *
                                   static_cast<double>(kReconvergePacing));
    if (delay <= 0) {
      launch_push(state);
      continue;
    }
    state.disarm_timers();
    schedule_relaunch(state, delay);
  }
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

const std::vector<std::size_t>* ControlPlane::scope_of(
    const ClusterTable& table, const std::string& service) const {
  const auto it = table.scopes.find(service);
  return it == table.scopes.end() ? nullptr : &it->second;
}

bool ControlPlane::subsets(const ClusterSpec& spec) const {
  const SubsetConfig& subset = policies_.subset;
  return subset.enabled && subset.subset_size > 0 &&
         static_cast<std::size_t>(subset.subset_size) < spec.endpoints.size();
}

const ControlPlane::ClusterTable& ControlPlane::cluster_table() {
  const std::uint64_t version = cluster_.registry().version();
  if (!cluster_table_.stale && cluster_table_.epoch == epoch_ &&
      cluster_table_.registry_version == version) {
    return cluster_table_;
  }
  // The old table lives until the new one is built, so the pool still
  // holds every unchanged spec when the rebuild asks for it.
  const ClusterTable previous = std::exchange(cluster_table_, {});
  ClusterTable& table = cluster_table_;
  table.epoch = epoch_;
  table.registry_version = version;
  table.stale = false;
  const std::vector<const cluster::ServiceInfo*> services =
      cluster_.registry().services();
  table.clusters.reserve(services.size());
  for (const cluster::ServiceInfo* info : services) {
    ClusterSpec spec;
    spec.name = info->name;
    spec.endpoints = info->endpoints;
    // Client side of mTLS: initiate TLS to clusters whose *target*
    // service runs an mTLS-accepting inbound listener.
    spec.mtls = mtls_enabled_for(info->name);
    spec.breaker = policies_.breaker;
    spec.health_check = policies_.health_check;
    spec.lb = policies_.default_lb;
    table.clusters.push_back({spec_pool_.get(std::move(spec)), {}});
  }
  for (const auto& [service, names] : policies_.cluster_scopes) {
    std::vector<std::size_t>& indices = table.scopes[service];
    for (const std::string& name : names) {
      const auto it = std::lower_bound(
          services.begin(), services.end(), name,
          [](const cluster::ServiceInfo* info, const std::string& n) {
            return info->name < n;
          });
      if (it != services.end() && (*it)->name == name) {
        indices.push_back(static_cast<std::size_t>(it - services.begin()));
      }
    }
    std::sort(indices.begin(), indices.end());
    indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  }
  if (!policies_.subset.enabled) return table;
  // Every sidecar whose scope admits a cluster subscribes to it; the
  // subset function is pure, so one assignment per table gives every
  // subscriber a consistent view.
  table.subscribers.resize(table.clusters.size());
  for (const auto& sidecar : sidecars_) subscribe(table, *sidecar, false);
  for (std::size_t i = 0; i < table.clusters.size(); ++i) {
    if (table.subscribers[i].empty()) continue;
    std::sort(table.subscribers[i].begin(), table.subscribers[i].end());
    assign_subsets(table, i);
  }
  return table;
}

void ControlPlane::subscribe(ClusterTable& table, const Sidecar& sidecar,
                             bool reassign) {
  const std::string& pod = sidecar.pod().name();
  const auto add = [&](std::size_t index) {
    if (!subsets(*table.clusters[index].full)) return;
    std::vector<std::string>& subscribers = table.subscribers[index];
    if (!reassign) {
      subscribers.push_back(pod);
      return;
    }
    subscribers.insert(
        std::lower_bound(subscribers.begin(), subscribers.end(), pod), pod);
    assign_subsets(table, index);
  };
  if (const std::vector<std::size_t>* scope =
          scope_of(table, sidecar.config().service_name)) {
    for (const std::size_t index : *scope) add(index);
  } else {
    for (std::size_t index = 0; index < table.clusters.size(); ++index) {
      add(index);
    }
  }
}

void ControlPlane::assign_subsets(ClusterTable& table, std::size_t index) {
  EpochCluster& entry = table.clusters[index];
  const ClusterSpec& full = *entry.full;
  // Kept until the new subsets are pooled, like a rebuild's old table.
  const auto previous = std::exchange(entry.narrowed, {});
  for (const auto& [pod, indices] :
       compute_endpoint_subsets(full.name, full.endpoints,
                                table.subscribers[index],
                                policies_.subset.subset_size)) {
    if (indices.size() >= full.endpoints.size()) continue;
    ClusterSpec narrowed = full;
    narrowed.endpoints.clear();
    for (const std::size_t i : indices) {
      narrowed.endpoints.push_back(full.endpoints[i]);
    }
    entry.narrowed.emplace(pod, spec_pool_.get(std::move(narrowed)));
  }
}

const ControlPlane::CompiledPolicy& ControlPlane::compiled_policy(
    const std::string& service) {
  // Server side of mTLS: this sidecar's inbound listener accepts TLS iff
  // its own service resolves to mtls-on.
  const bool mtls = mtls_enabled_for(service);
  const auto cert_it = certs_.find(service);
  const std::uint64_t serial =
      cert_it != certs_.end() ? cert_it->second.cert.serial : 0;
  auto [it, added] = compiled_policies_.try_emplace(service);
  CompiledPolicy& entry = it->second;
  if (!added && entry.generation == policy_generation_ &&
      entry.mtls == mtls && entry.cert_serial == serial) {
    return entry;
  }
  SidecarPolicy& policy = entry.policy;
  static_cast<PolicySection&>(policy) = policies_;
  policy.service_name = service;
  policy.tls.enabled = mtls;
  policy.identity_cert =
      cert_it != certs_.end() ? cert_it->second.cert : Certificate{};
  entry.hash = hash_policy_section(policy);
  entry.generation = policy_generation_;
  entry.mtls = mtls;
  entry.cert_serial = serial;
  return entry;
}

CompiledConfig ControlPlane::compile_config(const Sidecar& sidecar) {
  CompiledConfig compiled;
  const std::string& service = sidecar.config().service_name;
  const CompiledPolicy& policy = compiled_policy(service);
  compiled.policy = &policy.policy;
  compiled.epoch = epoch_;

  const ClusterTable& table = cluster_table();
  compiled.table = &table.clusters;
  compiled.scope = scope_of(table, service);
  compiled.pod = sidecar.pod().name();
  ConfigFingerprint fingerprint;
  const auto size = static_cast<std::size_t>(policies_.subset.subset_size);
  // Each spec's hash was computed when its object was built: the cluster
  // part of the fingerprint is a sum of memoized terms.
  compiled.for_each_cluster(
      [&](const ClusterSpecRef& spec, bool narrowed) {
        fingerprint.cluster_sum += cluster_term(spec.hash());
        if (!narrowed) return;
        const std::size_t assigned = spec->endpoints.size();
        cpm_.subset_assignments->inc(assigned);
        if (assigned > size) {
          // Aperture gives exactly subset_size endpoints; anything above
          // that was grafted on by the coverage-repair pass.
          cpm_.subset_repairs->inc(assigned - size);
        }
      });
  fingerprint.policy_hash = policy.hash;
  fingerprint.hash = compose_config_hash(fingerprint);
  compiled.fingerprint = fingerprint;
  return compiled;
}

Certificate ControlPlane::issue_certificate(const std::string& service) {
  Certificate cert;
  cert.serial = next_serial_++;
  cert.spiffe_id = "spiffe://cluster.local/ns/default/sa/" + service;
  cert.issued_at = sim_.now();
  cert.expires_at = sim_.now() + policies_.certificate_lifetime;
  IssuedCert& issued = certs_.try_emplace(service, sim_).first->second;
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
  it->second.rotation_timer.arm_after(delay, [this, service] {
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
