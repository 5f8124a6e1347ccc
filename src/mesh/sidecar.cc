#include "mesh/sidecar.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "mesh/config_delta.h"
#include "util/hash.h"

namespace meshnet::mesh {

namespace {

/// Proxy processing cost per traversal direction (request and response
/// each pay base + Exp(jitter)); models Envoy's userspace overhead,
/// which the paper (§3.6) quotes at ~3 ms p99 for a sidecar pair.
constexpr sim::Duration kProxyOverheadBase = sim::microseconds(150);
constexpr sim::Duration kProxyOverheadJitter = sim::microseconds(100);

/// Connection cap of each upstream pool and of the pool to the local app.
constexpr std::size_t kMaxPoolConnections = 256;

/// `value` in decimal, written into `buf` (header values stamped per hop).
template <typename Int>
std::string_view format_decimal(Int value, char (&buf)[24]) noexcept {
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return std::string_view(buf, static_cast<std::size_t>(end - buf));
}

}  // namespace

Sidecar::Sidecar(sim::Simulator& sim, cluster::Pod& pod, Tracer& tracer,
                 TelemetrySink* telemetry, std::string service_name,
                 SidecarInjectionOptions listener)
    : sim_(sim),
      pod_(pod),
      tracer_(tracer),
      telemetry_(telemetry),
      listener_(listener),
      overhead_rng_(0x5ecda, "sidecar:" + pod.name()),
      retry_rng_(0x5ecdb, "retry:" + pod.name()) {
  config_.service_name = std::move(service_name);
  fingerprint_ = fingerprint_config(config_);
}

// --- shared cluster specs ---------------------------------------------------

std::uint32_t NameIds::intern(Table& table, std::string_view name) {
  const auto it = table.find(name);
  if (it != table.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(table.size());
  table.emplace(std::string(name), id);
  return id;
}

namespace {

std::vector<std::uint32_t> pod_ids_of(const ClusterSpec& spec, NameIds& ids) {
  std::vector<std::uint32_t> out;
  out.reserve(spec.endpoints.size());
  for (const cluster::Endpoint& ep : spec.endpoints) {
    out.push_back(ids.pod(ep.pod_name));
  }
  return out;
}

}  // namespace

ClusterSpecRef::Shared::Shared(ClusterSpec s, NameIds& ids)
    : spec(std::move(s)),
      hash(hash_cluster_spec(spec)),
      cluster_id(ids.cluster(spec.name)),
      pod_ids(pod_ids_of(spec, ids)) {}

ClusterSpecRef ClusterSpecPool::get(ClusterSpec spec) {
  const std::uint64_t hash = hash_cluster_spec(spec);
  const auto [first, last] = objects_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (auto live = it->second.lock(); live != nullptr && live->spec == spec) {
      return ClusterSpecRef(std::move(live));
    }
  }
  if (objects_.size() >= sweep_at_) {
    std::erase_if(objects_,
                  [](const auto& entry) { return entry.second.expired(); });
    sweep_at_ = 2 * objects_.size() + 64;
  }
  auto shared =
      std::make_shared<const ClusterSpecRef::Shared>(std::move(spec), ids_);
  objects_.emplace(hash, shared);
  return ClusterSpecRef(std::move(shared));
}

ClusterMap::Entries::const_iterator ClusterMap::lower_bound(
    std::string_view name) const {
  return std::lower_bound(entries_.begin(), entries_.end(), name,
                          [](const ClusterSpecRef& entry, std::string_view n) {
                            return entry->name < n;
                          });
}

ClusterMap::const_iterator ClusterMap::find(std::string_view name) const {
  const auto it = lower_bound(name);
  return const_iterator(it != entries_.end() && (*it)->name == name
                            ? it
                            : entries_.end());
}

const ClusterSpec& ClusterMap::at(std::string_view name) const {
  const auto it = find(name);
  if (it == end()) throw std::out_of_range("no cluster " + std::string(name));
  return it->second;
}

const ClusterSpecRef* ClusterMap::ref(std::string_view name) const {
  const auto it = find(name);
  return it == end() ? nullptr : &it.shared();
}

void ClusterMap::append(ClusterSpecRef ref) {
  entries_.push_back(std::move(ref));
}

void ClusterMap::put(ClusterSpecRef ref) {
  auto it = entries_.begin() + (lower_bound(ref->name) - entries_.cbegin());
  if (it != entries_.end() && (*it)->name == ref->name) {
    *it = std::move(ref);
    return;
  }
  entries_.insert(it, std::move(ref));
}

bool ClusterMap::erase(std::string_view name) {
  const auto it = lower_bound(name);
  if (it == entries_.end() || (*it)->name != name) return false;
  entries_.erase(it);
  return true;
}

sim::Duration next_retry_backoff(const RetryPolicy& policy, int attempt,
                                 sim::Duration prev, sim::RngStream& rng) {
  const sim::Duration base = policy.backoff_base;
  const sim::Duration cap = std::max(
      base, policy.backoff_max > 0 ? policy.backoff_max : base * attempt);
  // AWS "decorrelated jitter": sleep = min(cap, uniform(base, 3 * prev)),
  // seeded with prev = base on the first retry.
  if (prev < base) prev = base;
  const double hi = 3.0 * static_cast<double>(prev);
  const auto sleep = static_cast<sim::Duration>(
      rng.uniform(static_cast<double>(base), hi));
  return std::clamp(sleep, base, cap);
}

sim::Duration Sidecar::proxy_delay() {
  return kProxyOverheadBase +
         sim::from_seconds(overhead_rng_.exponential(
             sim::to_seconds(kProxyOverheadJitter)));
}

Sidecar::~Sidecar() = default;

void Sidecar::start() {
  if (started_) return;
  started_ = true;
  transport::TransportHost& host = pod_.transport();
  if (!listener_.gateway_mode) {
    host.listen(kSidecarInboundPort, [this](transport::Connection& conn) {
      accept_session(conn, FilterDirection::kInbound);
    });
    HttpClientPool::Options app_options;
    // Sidecar <-> app rides the pod-local loopback (64 KB MTU).
    app_options.connection.mss = 65496;
    app_options.max_connections = kMaxPoolConnections;
    app_pool_ = std::make_unique<HttpClientPool>(
        sim_, host, net::SocketAddress{pod_.ip(), listener_.app_port},
        app_options, config_.service_name + ":app");
  }
  host.listen(listener_.outbound_port, [this](transport::Connection& conn) {
    accept_session(conn, FilterDirection::kOutbound);
  });
  health_checker_ = std::make_unique<HealthChecker>(
      sim_, host, config_.service_name + "@" + pod_.name(), 0x6ea17);
  health_checker_->set_transition_hook(
      [this](const std::string& cluster, const std::string& pod_name,
             bool healthy, sim::Time at) {
        if (telemetry_ == nullptr) return;
        telemetry_->record_event(
            at, obs::EventKind::kHealth,
            config_.service_name + "->" + cluster + "/" + pod_name,
            healthy ? "readmitted" : "evicted");
      });
  retarget_health(config_.clusters, {}, {});
}

namespace {

std::string validate_policy_section(const PolicySection& policy) {
  if (policy.request_timeout <= 0) return "non-positive request timeout";
  if (policy.retry.max_retries < 0) return "negative max_retries";
  if (policy.retry.backoff_base <= 0) return "non-positive backoff base";
  if (policy.admission.enabled && policy.admission.concurrency_limit == 0) {
    return "zero admission concurrency limit";
  }
  return {};
}

std::string validate_cluster(const ClusterSpec& spec) {
  const std::string& name = spec.name;
  if (name.empty()) return "unnamed cluster";
  for (const cluster::Endpoint& ep : spec.endpoints) {
    if (ep.pod_name.empty()) return "endpoint without pod in " + name;
    if (ep.port == 0) return "endpoint without port in " + name;
  }
  return {};
}

}  // namespace

std::string validate_config(const ConfigPush& push) {
  std::string error;
  if (push.policy) error = validate_policy_section(*push.policy);
  for (auto it = push.clusters.begin();
       error.empty() && it != push.clusters.end(); ++it) {
    error = validate_cluster(it->second);
  }
  return error;
}

namespace {

/// FNV-1a accumulator for config fingerprinting.
struct ConfigHasher {
  std::uint64_t h = util::kFnv1aOffsetBasis;

  void bytes(const void* data, std::size_t n) {
    h = util::fnv1a(std::string_view(static_cast<const char*>(data), n), h);
  }
  template <typename T>
    requires(std::is_integral_v<T> || std::is_enum_v<T>)
  void mix(T v) {
    const auto u = static_cast<std::uint64_t>(v);
    bytes(&u, sizeof(u));
  }
  void mix(double v) { bytes(&v, sizeof(v)); }
  void mix(const std::string& s) {
    mix(s.size());
    bytes(s.data(), s.size());
  }
};

}  // namespace

std::uint64_t hash_cluster_spec(const ClusterSpec& spec) {
  ConfigHasher f;
  f.mix(spec.name);
  f.mix(spec.lb);
  f.mix(spec.breaker.consecutive_failures);
  f.mix(spec.breaker.open_duration);
  f.mix(spec.health_check.enabled);
  f.mix(spec.mtls);
  f.mix(spec.endpoints.size());
  for (const cluster::Endpoint& ep : spec.endpoints) {
    f.mix(ep.pod_name);
    f.mix(ep.ip);
    f.mix(ep.port);
    f.mix(ep.labels.size());
    for (const auto& [k, v] : ep.labels) {
      f.mix(k);
      f.mix(v);
    }
  }
  return f.h;
}

std::uint64_t hash_sidecar_config(const SidecarConfig& c) {
  return fingerprint_config(c).hash;
}

std::uint64_t cluster_term(std::uint64_t spec_hash) noexcept {
  return util::splitmix64(spec_hash);
}

std::uint64_t compose_config_hash(const ConfigFingerprint& parts) {
  ConfigHasher f;
  f.mix(parts.policy_hash);
  f.mix(parts.cluster_sum);
  return f.h;
}

ConfigFingerprint fingerprint_config(const SidecarConfig& config) {
  ConfigFingerprint parts;
  parts.policy_hash = hash_policy_section(config);
  for (auto it = config.clusters.begin(); it != config.clusters.end(); ++it) {
    parts.cluster_sum += cluster_term(it.shared().hash());
  }
  parts.hash = compose_config_hash(parts);
  return parts;
}

std::uint64_t hash_policy_section(const SidecarPolicy& c) {
  ConfigHasher f;
  f.mix(c.service_name);
  f.mix(c.retry.max_retries);
  f.mix(c.retry.per_try_timeout);
  f.mix(c.retry.backoff_base);
  f.mix(c.retry.backoff_max);
  f.mix(c.request_timeout);
  f.mix(c.admission.enabled);
  f.mix(c.admission.queue_capacity);
  f.mix(c.admission.reserve_slots);
  f.mix(c.admission.concurrency_limit);
  f.mix(c.class_policies.size());
  for (const auto& [tc, pol] : c.class_policies) {
    f.mix(tc);
    f.mix(pol.cc);
    f.mix(pol.dscp);
  }
  f.mix(c.transport_mss);
  f.mix(static_cast<bool>(c.upstream_connection_hook));
  f.mix(c.identity_cert.serial);
  f.mix(c.tls.enabled);
  f.mix(c.tls.session_resumption);
  return f.h;
}

namespace {

/// The fingerprint `running` (of `clusters`) becomes under `push`. Every
/// changed part is hashed from the content the push carries — a pushed
/// spec by its constructor, never by the sender — and, for a delta, an
/// unchanged cluster keeps its share of the sum untouched. A replace
/// starts from nothing.
ConfigFingerprint pushed_fingerprint(const ConfigFingerprint& running,
                                     const ClusterMap& clusters,
                                     const ConfigPush& push) {
  static const ClusterMap kNothing;
  const ClusterMap& base = push.replace ? kNothing : clusters;
  ConfigFingerprint out = push.replace ? ConfigFingerprint{} : running;
  if (push.policy) out.policy_hash = hash_policy_section(*push.policy);
  const auto drop = [&](std::string_view name) {
    if (const ClusterSpecRef* old = base.ref(name)) {
      out.cluster_sum -= cluster_term(old->hash());
    }
  };
  // A pushed cluster replaces a same-name entry even when it is also
  // removed.
  for (auto it = push.clusters.begin(); it != push.clusters.end(); ++it) {
    drop(it->first);
    out.cluster_sum += cluster_term(it.shared().hash());
  }
  const auto& removals = push.removals;
  for (auto it = removals.begin(); it != removals.end(); ++it) {
    if (push.clusters.contains(*it) ||
        std::find(removals.begin(), it, *it) != it) {
      continue;
    }
    drop(*it);
  }
  out.hash = compose_config_hash(out);
  return out;
}

}  // namespace

bool Sidecar::reject_config(std::string reason) {
  ++stats_.configs_rejected;
  last_config_error_ = std::move(reason);
  return false;
}

bool Sidecar::apply_config(ConfigPush& push) {
  if (push.epoch != 0 && push.epoch < config_.epoch) {
    return reject_config("stale-epoch");
  }
  if (!push.replace && push.base_hash != fingerprint_.hash) {
    // The control plane diffed against a config this sidecar is not
    // running (e.g. a direct test poke mutated local state). Refuse —
    // blindly patching an unknown base could route to stale endpoints —
    // and let the control plane fall back to a replace.
    ++stats_.delta_mismatches;
    return reject_config("delta-base-mismatch");
  }
  const ConfigFingerprint target =
      pushed_fingerprint(fingerprint_, config_.clusters, push);
  if (target.hash != push.target_hash) {
    if (push.replace) return reject_config("target-mismatch");
    ++stats_.delta_mismatches;
    return reject_config("delta-target-mismatch");
  }
  std::string error = validate_config(push);
  if (!error.empty()) {
    return reject_config(std::move(error));
  }

  // Every check passed: take the policy, then the clusters.
  if (push.policy) {
    static_cast<SidecarPolicy&>(config_) = std::move(*push.policy);
  }
  config_.epoch = push.epoch;
  fingerprint_ = target;
  if (push.replace) {
    const ClusterMap before = std::exchange(config_.clusters, push.clusters);
    retarget_health(config_.clusters, before, {});
  } else {
    for (const std::string& name : push.removals) {
      config_.clusters.erase(name);
    }
    for (auto it = push.clusters.begin(); it != push.clusters.end(); ++it) {
      config_.clusters.put(it.shared());
    }
    retarget_health(push.clusters, {}, push.removals);
    ++stats_.deltas_applied;
  }
  last_config_error_.clear();
  // Each called cluster finds its new spec by name, once per push, and
  // restarts its balancer, so a changed LB policy takes effect.
  for (UpstreamSlot& slot : slots_) bind_slot(slot);
  // The admission controller carries state (held slots, queued
  // requests), so it is created once on the first enabling push and
  // survives subsequent pushes.
  if (config_.admission.enabled && admission_ == nullptr) {
    admission_ = std::make_unique<AdmissionController>(
        config_.service_name, config_.admission,
        telemetry_ != nullptr ? &telemetry_->registry() : nullptr);
  }
  return true;
}

void Sidecar::retarget_health(const ClusterMap& pushed,
                              const ClusterMap& replaced,
                              const std::vector<std::string>& removals) {
  if (!health_checker_) return;
  // Both maps are name-ordered: one merge walk. An unchanged spec object
  // would make update_targets a no-op, so it is skipped. A cluster that
  // left the config drops its targets after every update, in name order
  // (the targets' own order): what a replace does not hold, and what a
  // delta removes without pushing it again.
  std::vector<std::string_view> removed;
  auto old = replaced.begin();
  for (auto it = pushed.begin(); it != pushed.end(); ++it) {
    const auto& [name, spec] = *it;
    for (; old != replaced.end() && old->first < name; ++old) {
      removed.push_back(old->first);
    }
    if (old != replaced.end() && old->first == name) {
      const bool unchanged = old.shared().same_object(it.shared());
      ++old;
      if (unchanged) continue;
    }
    health_checker_->update_targets(name, spec.health_check, spec.endpoints,
                                    kSidecarInboundPort);
  }
  for (; old != replaced.end(); ++old) removed.push_back(old->first);
  for (const std::string& name : removals) {
    if (!config_.clusters.contains(name)) removed.push_back(name);
  }
  for (const std::string_view name : removed) {
    // A disabled check with no endpoints drops the cluster's targets.
    health_checker_->update_targets(std::string(name), HealthCheckConfig{},
                                    {}, kSidecarInboundPort);
  }
}

namespace {

/// The index of `ep` in `spec`'s endpoints (`ep` points into them).
std::size_t endpoint_index(const ClusterSpec& spec,
                           const cluster::Endpoint& ep) {
  return static_cast<std::size_t>(&ep - spec.endpoints.data());
}

/// The id of pod `pod_name` in `spec`, if it is one of its endpoints.
std::optional<std::uint32_t> pod_id_in(const ClusterSpecRef& spec,
                                       std::string_view pod_name) {
  for (std::size_t i = 0; i < spec->endpoints.size(); ++i) {
    if (spec->endpoints[i].pod_name == pod_name) return spec.pod_id(i);
  }
  return std::nullopt;
}

/// Where id `id` is, or would go, in `items` (sorted by their `id`).
template <class Items>
auto id_position(Items& items, std::uint32_t id) {
  return std::lower_bound(
      items.begin(), items.end(), id,
      [](const auto& item, std::uint32_t key) { return item.id < key; });
}

/// The element of `items` (sorted by their `id`) with id `id`, else null.
template <class Items>
auto* find_id(Items& items, std::uint32_t id) {
  const auto it = id_position(items, id);
  return it != items.end() && it->id == id ? &*it : nullptr;
}

}  // namespace

std::uint64_t Sidecar::active_requests_to(std::string_view pod_name) const {
  std::uint64_t active = 0;
  for (const UpstreamSlot& slot : slots_) {
    if (slot.spec == nullptr) continue;
    if (const auto pod = pod_id_in(*slot.spec, pod_name)) {
      if (const auto* state = find_id(slot.endpoints, *pod)) {
        active += state->active;
      }
    }
  }
  return active;
}

const CircuitBreaker* Sidecar::breaker(std::string_view cluster_name,
                                       std::string_view pod_name) const {
  const ClusterSpecRef* spec = config_.clusters.ref(cluster_name);
  if (spec == nullptr) return nullptr;
  const UpstreamSlot* slot = find_id(slots_, spec->cluster_id());
  const auto pod = pod_id_in(*spec, pod_name);
  if (slot == nullptr || !pod) return nullptr;
  const auto* state = find_id(slot->endpoints, *pod);
  return state != nullptr && state->breaker ? &*state->breaker : nullptr;
}

Sidecar::UpstreamSlot& Sidecar::slot_for(const ClusterSpecRef& spec) {
  const std::uint32_t id = spec.cluster_id();
  const auto it = id_position(slots_, id);
  if (it != slots_.end() && it->id == id) return *it;
  UpstreamSlot slot;
  slot.id = id;
  slot.name = spec->name;
  // Seed from a hash of the service + cluster so picks are deterministic
  // but uncorrelated across sidecars. The basis is one digit short of
  // FNV's; changing it would reseed every balancer.
  slot.balancer_seed = util::fnv1a(config_.service_name + "|" + slot.name,
                                   1469598103934665603ULL);
  UpstreamSlot& created = *slots_.insert(it, std::move(slot));
  bind_slot(created);
  return created;
}

void Sidecar::bind_slot(UpstreamSlot& slot) {
  slot.spec = config_.clusters.ref(slot.name);
  if (slot.spec == nullptr) return;
  const LbPolicy policy = (*slot.spec)->lb;
  if (slot.balancer != nullptr && slot.balancer_policy == policy) {
    slot.balancer->reset();
    return;
  }
  slot.balancer = make_balancer(policy, slot.balancer_seed);
  slot.balancer_policy = policy;
}

Sidecar::EndpointState& Sidecar::endpoint_state(UpstreamSlot& slot,
                                                std::uint32_t pod_id) {
  const auto it = id_position(slot.endpoints, pod_id);
  if (it != slot.endpoints.end() && it->id == pod_id) return *it;
  EndpointState state;
  state.id = pod_id;
  return *slot.endpoints.insert(it, std::move(state));
}

CircuitBreaker& Sidecar::breaker_for(const UpstreamSlot& slot,
                                     EndpointState& state,
                                     const cluster::Endpoint& ep) {
  if (state.breaker) return *state.breaker;
  CircuitBreaker& breaker = state.breaker.emplace((*slot.spec)->breaker);
  if (telemetry_ != nullptr) {
    breaker.set_transition_hook(
        [this, key = slot.name + "/" + ep.pod_name](
            CircuitState from, CircuitState to, sim::Time at) {
          telemetry_->record_event(
              at, obs::EventKind::kBreaker, config_.service_name + "->" + key,
              std::string(circuit_state_name(from)) + "->" +
                  std::string(circuit_state_name(to)));
        });
  }
  return breaker;
}

void Sidecar::accept_session(transport::Connection& conn,
                             FilterDirection direction) {
  auto session = std::make_unique<ServerSession>(sim_);
  ServerSession* raw = session.get();
  raw->id = next_session_id_++;
  raw->conn = &conn;
  raw->direction = direction;
  raw->parser = std::make_unique<http::HttpParser>(http::ParserKind::kRequest);
  const std::uint64_t id = raw->id;
  raw->parser->set_on_request([this, id](http::HttpRequest req) {
    on_session_request(id, std::move(req));
  });
  conn.set_on_data([this, raw, id, direction](const net::Payload& data) {
    if (!raw->sniffed) {
      // First downstream bytes decide the session's framing: a TLS
      // ClientHello record (type byte 0x01) upgrades the inbound session
      // to TLS; printable ASCII (an HTTP method, a health probe) stays
      // plaintext. The listener is deliberately permissive so plaintext
      // peers keep working while mTLS rolls out across config epochs.
      raw->sniffed = true;
      if (direction == FilterDirection::kInbound && config_.tls.enabled &&
          !data.empty() &&
          static_cast<unsigned char>(data.data()[0]) < 0x20) {
        setup_server_tls(*raw);
      }
    }
    if (raw->tls != nullptr) {
      raw->tls->on_wire_data(data);
    } else {
      feed_session_parser(*raw, data);
    }
  });
  conn.set_on_closed([this, id] {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    ServerSession& s = *it->second;
    s.try_timer.disarm();
    s.deadline_timer.disarm();
    if (s.tls != nullptr) s.tls->shutdown();
    // An upstream cancel suppresses the pool handler, which would leak
    // the in-flight request's span and telemetry sample: finish the
    // abandoned request through the finish_outbound funnel (as a 499)
    // after the session is gone — respond_to_session then no-ops.
    const bool abandoned_upstream =
        s.busy && s.upstream_pool != nullptr && s.upstream_req != 0;
    if (abandoned_upstream) s.upstream_pool->cancel(s.upstream_req);
    Ctx abandoned = abandoned_upstream ? std::move(s.active) : nullptr;
    const std::uint32_t cluster = s.upstream_cluster;
    sessions_.erase(it);
    if (abandoned != nullptr) {
      ++stats_.downstream_aborts;
      http::HttpResponse response;
      response.status = 499;
      response.body = "downstream closed mid-request";
      response.headers.set("x-served-by", config_.service_name + "-sidecar");
      finish_outbound(id, abandoned, cluster, std::move(response));
    }
  });
  sessions_.emplace(id, std::move(session));
}

void Sidecar::feed_session_parser(ServerSession& session,
                                  const net::Payload& data) {
  if (!session.parser->feed(data)) {
    // Abort on a fresh simulator step: aborting here would destroy the
    // parser that is currently executing.
    const std::uint64_t id = session.id;
    sim_.schedule_after(0, [this, id] {
      const auto it = sessions_.find(id);
      if (it != sessions_.end()) it->second->conn->abort();
    });
  }
}

void Sidecar::setup_server_tls(ServerSession& session) {
  const std::uint64_t id = session.id;
  auto channel = std::make_shared<TlsChannel>(
      sim_, TlsChannel::Role::kServer, &config_.tls, &config_.identity_cert,
      &tls_runtime(), /*peer_key=*/"");
  session.tls = channel;
  channel->set_send_wire([this, id](net::Payload bytes) {
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) it->second->conn->send(std::move(bytes));
  });
  channel->set_on_plaintext([this, id](const net::Payload& data) {
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) feed_session_parser(*it->second, data);
  });
  // Handshake failures (alert sent, malformed records, timeout) tear the
  // downstream connection down; the client side surfaces the error
  // through its pool handler. Delivered via a zero-delay event, so
  // aborting here is safe.
  channel->set_on_error([this, id](const std::string& /*reason*/) {
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) it->second->conn->abort();
  });
  channel->start();
}

TlsRuntime& Sidecar::tls_runtime() {
  if (tls_runtime_ == nullptr) {
    tls_runtime_ = std::make_unique<TlsRuntime>(
        telemetry_ != nullptr ? &telemetry_->registry() : nullptr,
        kTlsSessionCacheCapacity);
  }
  return *tls_runtime_;
}

void Sidecar::on_session_request(std::uint64_t session_id,
                                 http::HttpRequest req) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  ServerSession& session = *it->second;
  session.pending.push_back(std::move(req));
  pump_session(session);
}

void Sidecar::pump_session(ServerSession& session) {
  if (session.busy || session.pending.empty()) return;
  session.busy = true;
  http::HttpRequest req = session.pending.take_front();
  process_request(session.id, std::move(req), session.direction);
}

http::HttpResponse Sidecar::make_local_response(int status,
                                                std::string_view body) {
  http::HttpResponse response;
  response.status = status;
  response.body = body;
  response.headers.set("x-served-by", config_.service_name + "-sidecar");
  ++stats_.local_responses;
  return response;
}

void Sidecar::process_request(std::uint64_t session_id, http::HttpRequest req,
                              FilterDirection direction) {
  // Charge the proxy's request-path processing cost before any filter or
  // routing work happens.
  sim_.schedule_after(proxy_delay(), [this, session_id, req = std::move(req),
                                      direction]() mutable {
    process_request_now(session_id, std::move(req), direction);
  });
}

void Sidecar::process_request_now(std::uint64_t session_id,
                                  http::HttpRequest req,
                                  FilterDirection direction) {
  auto ctx = std::make_shared<RequestContext>();
  ctx->request = std::move(req);
  ctx->direction = direction;
  ctx->start_time = sim_.now();
  // Remember the active context so a downstream close mid-request can
  // still finish it (and close its span) through finish_outbound.
  if (const auto sit = sessions_.find(session_id); sit != sessions_.end()) {
    sit->second->active = ctx;
  }

  // Health probes are answered by the sidecar itself, before the filter
  // chain (admission must not queue or shed them) and without touching
  // the app: the probe's question is "is this pod's sidecar alive and
  // reachable", and a crashed pod takes its sidecar down with it.
  if (direction == FilterDirection::kInbound &&
      ctx->request.path == kHealthCheckPath) {
    ++stats_.health_probes_answered;
    http::HttpResponse response;
    response.status = 200;
    response.body = "ok";
    response.headers.set("x-served-by", config_.service_name + "-sidecar");
    respond_to_session(session_id, ctx, std::move(response));
    return;
  }

  const FilterChain& chain = direction == FilterDirection::kInbound
                                 ? inbound_chain_
                                 : outbound_chain_;
  if (direction == FilterDirection::kInbound) {
    ++stats_.inbound_requests;
  } else {
    ++stats_.outbound_requests;
  }

  const ChainResult chain_result = chain.run_request(*ctx);
  if (chain_result == ChainResult::kPaused) {
    // The admission filter parked the request in its priority queue; it
    // continues when a completion frees a slot for its class.
    admission_->bind(ctx->admission_ticket, [this, session_id, ctx,
                                             direction] {
      ctx->admission_admitted = true;
      if (sessions_.find(session_id) == sessions_.end()) {
        // The downstream went away while the request waited: finish it
        // as a local 499 on the response path, which frees the slot and
        // closes the span, instead of handing the app a request nobody
        // waits for.
        http::HttpResponse response;
        response.status = 499;
        response.body = "downstream closed while queued";
        inbound_chain_.run_response(*ctx, response);
        return;
      }
      continue_request(session_id, ctx, direction);
    });
    return;
  }
  if (chain_result == ChainResult::kStopped) {
    http::HttpResponse response = std::move(ctx->local_response.value());
    ++stats_.local_responses;
    chain.run_response(*ctx, response);
    respond_to_session(session_id, ctx, std::move(response));
    return;
  }
  continue_request(session_id, std::move(ctx), direction);
}

void Sidecar::continue_request(std::uint64_t session_id, Ctx ctx,
                               FilterDirection direction) {
  if (direction == FilterDirection::kInbound) {
    forward_to_app(session_id, std::move(ctx));
  } else {
    route_and_forward(session_id, std::move(ctx));
  }
}

void Sidecar::respond_to_session(std::uint64_t session_id, const Ctx& /*ctx*/,
                                 http::HttpResponse response) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;  // downstream went away
  ServerSession& session = *it->second;
  session.upstream_pool = nullptr;
  session.upstream_req = 0;
  session.active.reset();
  session.try_timer.disarm();
  session.deadline_timer.disarm();
  ++session.request_seq;
  // Charge the proxy's response-path processing cost before the bytes hit
  // the wire.
  auto deliver = [this, session_id,
                  wire = http::encode_response_pieces(response)]() mutable {
    const auto sit = sessions_.find(session_id);
    if (sit == sessions_.end()) return;
    ServerSession& s = *sit->second;
    if (s.tls != nullptr) {
      // Records are ciphertext: join the message once.
      s.tls->send_app_data(http::join(wire.head, wire.body));
    } else {
      s.conn->send(std::move(wire.head), std::move(wire.body));
    }
    s.busy = false;
    pump_session(s);
  };
  static_assert(sim::InlineTask::fits_inline<decltype(deliver)>(),
                "the response-delivery closure must not spill to the heap");
  sim_.schedule_after(proxy_delay(), std::move(deliver));
}

void Sidecar::forward_to_app(std::uint64_t session_id, Ctx ctx) {
  if (!app_pool_) {
    http::HttpResponse response = make_local_response(503, "no local app");
    inbound_chain_.run_response(*ctx, response);
    respond_to_session(session_id, ctx, std::move(response));
    return;
  }
  // The inbound hop never retries and no response-side filter reads the
  // request, so it moves to the app rather than being copied.
  app_pool_->request(
      std::move(ctx->request),
      [this, session_id, ctx](std::optional<http::HttpResponse> response,
                              const std::string& error) {
        http::HttpResponse resp =
            response ? std::move(*response)
                     : make_local_response(503, "app unreachable: " + error);
        inbound_chain_.run_response(*ctx, resp);
        respond_to_session(session_id, ctx, std::move(resp));
      });
}

void Sidecar::finish_outbound(std::uint64_t session_id, const Ctx& ctx,
                              std::uint32_t cluster_id,
                              http::HttpResponse response) {
  if (telemetry_ != nullptr && cluster_id != kNoCluster) {
    UpstreamSlot& slot = *find_id(slots_, cluster_id);
    if (slot.telemetry.edge == nullptr) {
      slot.telemetry = telemetry_->route(config_.service_name, slot.name);
    }
    RequestOutcome outcome;
    outcome.status = response.status;
    outcome.latency = sim_.now() - ctx->start_time;
    outcome.retries = ctx->attempt;
    outcome.priority = ctx->traffic_class;
    telemetry_->record_request(slot.telemetry, outcome);
  }
  // Closing the outbound chain here — not at each call site — is what
  // guarantees every request span gets an end time: 404s, vanished
  // clusters, exhausted upstreams and armed-deadline abandonments all
  // funnel through this path.
  outbound_chain_.run_response(*ctx, response);
  respond_to_session(session_id, ctx, std::move(response));
}

void Sidecar::eligible_endpoints(const ClusterSpec& spec,
                                 const RequestContext& ctx,
                                 bool ignore_health,
                                 std::vector<const cluster::Endpoint*>& out) {
  // Active health checking narrows the candidate set first; if *every*
  // endpoint is evicted, panic-route over the full set (Envoy's panic
  // threshold, degenerate form) — probes can be wrong, a guaranteed 503
  // never is right.
  out.clear();
  for (const cluster::Endpoint& ep : spec.endpoints) {
    if (ignore_health || !spec.health_check.enabled ||
        health_checker_ == nullptr ||
        health_checker_->healthy(spec.name, ep.pod_name)) {
      out.push_back(&ep);
    }
  }
  if (out.empty()) {
    for (const cluster::Endpoint& ep : spec.endpoints) out.push_back(&ep);
  }
  if (ctx.subset.empty()) return;
  const auto matches = [&ctx](const cluster::Endpoint* ep) {
    for (const auto& [key, value] : ctx.subset) {
      if (ep->label_or(key, "") != value) return false;
    }
    return true;
  };
  // A subset constraint that matches no endpoint falls back to the full
  // healthy set instead of failing (Envoy's ANY_ENDPOINT fallback).
  if (std::any_of(out.begin(), out.end(), matches)) {
    std::erase_if(out, [&](const cluster::Endpoint* ep) {
      return !matches(ep);
    });
  }
}

HttpClientPool& Sidecar::pool_for(const cluster::Endpoint& endpoint,
                                  TrafficClass traffic_class, bool mtls) {
  // mTLS is part of the pool key: toggling a cluster's mtls flag mid-run
  // routes new requests through a fresh pool with the right framing
  // while the old one drains.
  const PoolKey key{endpoint.ip, traffic_class, mtls};
  const auto it = pools_.find(key);
  if (it != pools_.end()) return *it->second;
  HttpClientPool::Options options;
  options.connection = connection_options_for(traffic_class);
  options.max_connections = kMaxPoolConnections;
  if (mtls) {
    options.tls.enabled = true;
    // Stable addresses into the running config: apply_config move-assigns
    // the pushed policy into config_ in place, so rotation pushes reach
    // the next handshake without rewiring the pool.
    options.tls.params = &config_.tls;
    options.tls.local_cert = &config_.identity_cert;
    options.tls.runtime = &tls_runtime();
  }
  if (config_.upstream_connection_hook) {
    options.on_connection_created =
        [this, traffic_class](transport::Connection& conn) {
          config_.upstream_connection_hook(conn, traffic_class);
        };
  }
  auto pool = std::make_unique<HttpClientPool>(
      sim_, pod_.transport(),
      net::SocketAddress{endpoint.ip, kSidecarInboundPort}, options,
      config_.service_name + "->" + endpoint.pod_name + "/" +
          std::string(traffic_class_name(traffic_class)));
  HttpClientPool& ref = *pool;
  pools_.emplace(key, std::move(pool));
  return ref;
}

transport::ConnectionOptions Sidecar::connection_options_for(
    TrafficClass traffic_class) const {
  transport::ConnectionOptions options;
  options.mss = config_.transport_mss;
  const auto it = config_.class_policies.find(traffic_class);
  if (it != config_.class_policies.end()) {
    options.cc = it->second.cc;
    options.dscp = it->second.dscp;
  }
  return options;
}

void Sidecar::route_and_forward(std::uint64_t session_id, Ctx ctx) {
  // The Host header names the cluster: the request's one name lookup.
  const std::string_view host =
      ctx->request.headers.get_or(http::headers::Id::kHost, "");
  const ClusterSpecRef* spec = config_.clusters.ref(host);
  if (spec == nullptr) {
    finish_outbound(
        session_id, ctx, kNoCluster,
        make_local_response(404, "no route for host " + std::string(host)));
    return;
  }
  ctx->cluster_id = slot_for(*spec).id;
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  it->second->deadline = sim_.now() + config_.request_timeout;
  // The end-to-end deadline is an armed timer, not a lazy check: it must
  // fire even when the request is parked on a dead upstream with no retry
  // configured to re-enter the attempt path.
  if (config_.request_timeout > 0) {
    const std::uint64_t seq = it->second->request_seq;
    it->second->deadline_timer.arm_after(
        config_.request_timeout, [this, session_id, ctx, seq] {
          on_request_deadline(session_id, ctx, seq);
        });
  }
  attempt_upstream(session_id, std::move(ctx));
}

void Sidecar::on_request_deadline(std::uint64_t session_id, Ctx ctx,
                                  std::uint64_t seq) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  ServerSession& s = *it->second;
  if (s.request_seq != seq) return;  // request already answered
  ++stats_.timeouts;
  if (s.upstream_pool != nullptr && s.upstream_req != 0) {
    s.upstream_pool->cancel(s.upstream_req);
    s.upstream_pool = nullptr;
    s.upstream_req = 0;
    // Unwind through the normal result path so per-endpoint/per-cluster
    // accounting and the breaker see the failure; the deadline check
    // there suppresses any retry.
    on_upstream_result(session_id, ctx, s.upstream_cluster, s.upstream_pod,
                       std::nullopt, "request deadline exceeded");
    return;
  }
  // Between attempts (retry backoff): nothing in flight to unwind.
  finish_outbound(session_id, ctx, ctx->cluster_id,
                  make_local_response(504, "request deadline exceeded"));
}

void Sidecar::attempt_upstream(std::uint64_t session_id, Ctx ctx) {
  const auto sess_it = sessions_.find(session_id);
  if (sess_it == sessions_.end()) return;  // downstream gone
  ServerSession& session = *sess_it->second;

  UpstreamSlot& slot = *find_id(slots_, ctx->cluster_id);
  if (slot.spec == nullptr) {
    finish_outbound(session_id, ctx, ctx->cluster_id,
                    make_local_response(503, "cluster vanished"));
    return;
  }
  const ClusterSpecRef& ref = *slot.spec;
  const ClusterSpec& spec = *ref;

  if (sim_.now() >= session.deadline) {
    ++stats_.timeouts;
    finish_outbound(session_id, ctx, ctx->cluster_id,
                    make_local_response(504, "request deadline exceeded"));
    return;
  }

  const auto pod_id_of = [&](const cluster::Endpoint& ep) {
    return ref.pod_id(endpoint_index(spec, ep));
  };
  eligible_endpoints(spec, *ctx, /*ignore_health=*/false, candidates_);
  LbContext lb_ctx;
  lb_ctx.active_requests = [&slot](const cluster::Endpoint& ep) {
    const auto* state = find_id(
        slot.endpoints, slot.spec->pod_id(endpoint_index(**slot.spec, ep)));
    return state != nullptr ? state->active : std::uint64_t{0};
  };
  // Picks from pick_pool_, dropping each breaker-rejected pick from it.
  const auto pick_allowed = [&]() -> const cluster::Endpoint* {
    while (!pick_pool_.empty()) {
      const cluster::Endpoint* pick = slot.balancer->pick(pick_pool_, lb_ctx);
      if (pick == nullptr) break;
      EndpointState& state = endpoint_state(slot, pod_id_of(*pick));
      if (breaker_for(slot, state, *pick).allow_request(sim_.now())) {
        return pick;
      }
      pick_pool_.erase(std::find(pick_pool_.begin(), pick_pool_.end(), pick));
    }
    return nullptr;
  };
  // Retries prefer endpoints this request has not failed on yet
  // (Envoy's previous-hosts retry predicate): a retry that re-picks the
  // pod that just timed out burns its whole per-try budget relearning
  // what the request already knows.
  const auto drop_tried = [&] {
    std::erase_if(pick_pool_, [&](const cluster::Endpoint* ep) {
      return ctx->tried_pods.contains(pod_id_of(*ep));
    });
  };
  // Preference order: (1) health-admitted and untried; (2) any untried
  // endpoint, health belief ignored — under a churn storm the
  // active-probe belief lags reality by a full probe round, and a pod
  // that just timed out for THIS request is stronger evidence than a
  // stale probe verdict for another; (3) health-admitted, tried or not;
  // (4) anything. Breakers are honored at every tier.
  pick_pool_ = candidates_;
  drop_tried();
  const cluster::Endpoint* chosen = pick_allowed();
  const bool health_filtered =
      spec.health_check.enabled && health_checker_ != nullptr;
  if (chosen == nullptr && health_filtered && !ctx->tried_pods.empty()) {
    eligible_endpoints(spec, *ctx, /*ignore_health=*/true, pick_pool_);
    drop_tried();
    chosen = pick_allowed();
    if (chosen != nullptr) ++stats_.panic_picks;
  }
  if (chosen == nullptr) {
    pick_pool_ = candidates_;
    chosen = pick_allowed();
  }
  if (chosen == nullptr && health_filtered) {
    // Second-level panic: every endpoint the health checker admits is
    // breaker-rejected. Probes can be wrong; a guaranteed 503 never is
    // right.
    eligible_endpoints(spec, *ctx, /*ignore_health=*/true, pick_pool_);
    chosen = pick_allowed();
    if (chosen != nullptr) ++stats_.panic_picks;
  }
  if (chosen == nullptr) {
    ++stats_.upstream_failures;
    finish_outbound(
        session_id, ctx, ctx->cluster_id,
        make_local_response(503, "no healthy upstream in " + spec.name));
    return;
  }

  // The attempt count and the remaining deadline go on the wire as Envoy
  // sends x-envoy-attempt-count and x-envoy-expected-rq-timeout-ms; no
  // filter reads them, but their bytes are part of every hop's size.
  char digits[24];
  ctx->request.headers.set(http::headers::Id::kRetryAttempt,
                           format_decimal(ctx->attempt + 1, digits));
  if (config_.request_timeout > 0 && session.deadline > sim_.now()) {
    const sim::Duration remaining = session.deadline - sim_.now();
    ctx->request.headers.set(
        http::headers::Id::kDeadlineMs,
        format_decimal(std::max<sim::Duration>(
                           1, remaining / sim::milliseconds(1)),
                       digits));
  }
  // The wire hop goes to the remote pod's *inbound sidecar listener*; the
  // Host header tells the remote side which service was meant (the moral
  // equivalent of Istio's iptables redirect preserving metadata).
  HttpClientPool& pool = pool_for(*chosen, ctx->traffic_class, spec.mtls);
  const std::uint32_t cluster_id = ctx->cluster_id;
  const std::uint32_t pod_id = pod_id_of(*chosen);
  ++endpoint_state(slot, pod_id).active;
  ctx->tried_pods.insert(pod_id);
  session.upstream_cluster = cluster_id;
  session.upstream_pod = pod_id;
  session.upstream_pool = &pool;
  session.upstream_req = pool.request(
      ctx->request,
      [this, session_id, ctx, cluster_id, pod_id](
          std::optional<http::HttpResponse> response,
          const std::string& error) {
        on_upstream_result(session_id, ctx, cluster_id, pod_id,
                           std::move(response), error);
      });

  if (config_.retry.per_try_timeout > 0) {
    auto on_try_timeout = [this, session_id, ctx, cluster_id, pod_id] {
      const auto it = sessions_.find(session_id);
      if (it == sessions_.end()) return;
      ServerSession& s = *it->second;
      if (s.upstream_pool != nullptr && s.upstream_req != 0) {
        s.upstream_pool->cancel(s.upstream_req);
        s.upstream_pool = nullptr;
        s.upstream_req = 0;
      }
      ++stats_.timeouts;
      on_upstream_result(session_id, ctx, cluster_id, pod_id, std::nullopt,
                         "per-try timeout");
    };
    static_assert(sim::InlineTask::fits_inline<decltype(on_try_timeout)>(),
                  "the per-try timeout closure must not spill to the heap");
    session.try_timer.arm_after(config_.retry.per_try_timeout,
                                std::move(on_try_timeout));
  }
}

void Sidecar::on_upstream_result(std::uint64_t session_id, Ctx ctx,
                                 std::uint32_t cluster_id,
                                 std::uint32_t pod_id,
                                 std::optional<http::HttpResponse> response,
                                 const std::string& error) {
  const auto sess_it = sessions_.find(session_id);
  if (sess_it != sessions_.end()) {
    ServerSession& s = *sess_it->second;
    s.try_timer.disarm();
    s.upstream_pool = nullptr;
    s.upstream_req = 0;
  }
  // The attempt's pick created this endpoint's state and breaker.
  EndpointState& endpoint =
      *find_id(find_id(slots_, cluster_id)->endpoints, pod_id);
  if (endpoint.active > 0) --endpoint.active;

  // An x-mesh-shed 503 is the upstream's admission controller saying
  // "overloaded, by policy": the endpoint is alive and answering fast.
  // It must not trip the breaker (a shed storm on low-priority traffic
  // would open the breaker and take the high-priority traffic with it),
  // and retrying it amplifies the overload, so it is non-retryable.
  const bool shed_by_upstream =
      response.has_value() &&
      response->headers.has(http::headers::Id::kShedReason);

  CircuitBreaker& breaker = *endpoint.breaker;
  const bool success = response.has_value() && response->status < 500;
  if (success || shed_by_upstream) {
    breaker.on_success(sim_.now());
  } else {
    breaker.on_failure(sim_.now());
  }

  const RetryPolicy& retry = config_.retry;
  const bool failed_transport = !response.has_value();
  const bool failed_5xx = response.has_value() && response->status >= 500;
  bool retryable = failed_transport || failed_5xx;
  if (retryable && shed_by_upstream) {
    if (ctx->attempt < retry.max_retries) {
      ++stats_.retries_suppressed_by_overload;
    }
    retryable = false;
  }
  if (retryable && ctx->attempt < retry.max_retries &&
      sess_it != sessions_.end() && sim_.now() < sess_it->second->deadline) {
    ++ctx->attempt;
    ++stats_.upstream_retries;
    const sim::Duration backoff = next_retry_backoff(
        retry, ctx->attempt, ctx->prev_backoff, retry_rng_);
    ctx->prev_backoff = backoff;
    const std::uint64_t seq = sess_it->second->request_seq;
    sim_.schedule_after(backoff, [this, session_id, ctx, seq] {
      const auto it = sessions_.find(session_id);
      if (it == sessions_.end() || it->second->request_seq != seq) return;
      attempt_upstream(session_id, ctx);
    });
    return;
  }

  const bool deadline_exceeded =
      failed_transport && error == "request deadline exceeded";
  http::HttpResponse final_response =
      response ? std::move(*response)
               : make_local_response(deadline_exceeded ? 504 : 503,
                                     "upstream failed: " + error);
  if (!success) ++stats_.upstream_failures;

  finish_outbound(session_id, ctx, cluster_id, std::move(final_response));
}

}  // namespace meshnet::mesh
