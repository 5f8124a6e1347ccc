#include "mesh/sidecar.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "mesh/config_delta.h"
#include "util/hash.h"
#include "util/logging.h"

namespace meshnet::mesh {

namespace {

/// Proxy processing cost per traversal direction (request and response
/// each pay base + Exp(jitter)); models Envoy's userspace overhead,
/// which the paper (§3.6) quotes at ~3 ms p99 for a sidecar pair.
constexpr sim::Duration kProxyOverheadBase = sim::microseconds(150);
constexpr sim::Duration kProxyOverheadJitter = sim::microseconds(100);

/// Connection cap of each upstream pool and of the pool to the local app.
constexpr std::size_t kMaxPoolConnections = 256;

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
}

sim::Duration next_retry_backoff(const RetryPolicy& policy, int attempt,
                                 sim::Duration prev, sim::RngStream& rng) {
  const sim::Duration base = policy.backoff_base;
  const sim::Duration cap = std::max(
      base, policy.backoff_max > 0 ? policy.backoff_max : base * attempt);
  if (!policy.backoff_jitter) {
    return std::clamp(base * attempt, base, cap);
  }
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
  sync_health_targets();
}

namespace {

std::string validate_policy_section(const PolicySection& policy) {
  if (policy.request_timeout <= 0) return "non-positive request timeout";
  if (policy.retry.max_retries < 0) return "negative max_retries";
  if (policy.retry.backoff_base <= 0) return "non-positive backoff base";
  return {};
}

std::string validate_cluster(const std::string& name,
                             const ClusterSpec& spec) {
  if (name.empty()) return "unnamed cluster";
  if (spec.name != name) return "cluster name mismatch: " + name;
  for (const cluster::Endpoint& ep : spec.endpoints) {
    if (ep.pod_name.empty()) return "endpoint without pod in " + name;
    if (ep.port == 0) return "endpoint without port in " + name;
  }
  return {};
}

/// The first error in a policy section (when given), then the clusters,
/// then the routes — the order validate_config reports in.
std::string validate_parts(const PolicySection* policy,
                           const std::map<std::string, ClusterSpec>& clusters,
                           const std::map<std::string, std::string>& routes) {
  std::string error;
  if (policy != nullptr) error = validate_policy_section(*policy);
  for (auto it = clusters.begin(); error.empty() && it != clusters.end();
       ++it) {
    error = validate_cluster(it->first, it->second);
  }
  for (auto it = routes.begin(); error.empty() && it != routes.end(); ++it) {
    if (it->first.empty()) {
      error = "route with empty host";
    } else if (it->second.empty()) {
      error = "route to empty cluster for " + it->first;
    }
  }
  return error;
}

}  // namespace

std::string validate_config(const SidecarConfig& config) {
  return validate_parts(&config, config.clusters, config.routes);
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
  f.mix(spec.breaker.half_open_probes);
  const HealthCheckConfig& hc = spec.health_check;
  f.mix(hc.enabled);
  f.mix(hc.interval);
  f.mix(hc.timeout);
  f.mix(hc.unhealthy_threshold);
  f.mix(hc.healthy_threshold);
  f.mix(hc.flap_max_transitions);
  f.mix(hc.flap_window);
  f.mix(hc.flap_penalty);
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

std::uint64_t compose_config_hash(const ConfigFingerprint& parts) {
  ConfigHasher f;
  f.mix(parts.policy_hash);
  f.mix(parts.routes.size());
  for (const auto& [host, target] : parts.routes) {
    f.mix(host);
    f.mix(target);
  }
  f.mix(parts.clusters.size());
  for (const ClusterHash& cluster : parts.clusters) {
    f.mix(cluster.name);
    f.mix(cluster.hash);
  }
  return f.h;
}

ConfigFingerprint fingerprint_config(const SidecarConfig& config) {
  ConfigFingerprint parts;
  parts.policy_hash = hash_policy_section(config);
  parts.routes = config.routes;
  parts.clusters.reserve(config.clusters.size());
  for (const auto& [name, spec] : config.clusters) {
    parts.clusters.push_back({name, hash_cluster_spec(spec)});
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
  f.mix(c.retry.backoff_jitter);
  f.mix(c.retry.retry_budget);
  f.mix(c.retry.retry_budget_min_concurrency);
  f.mix(c.retry.retry_on_overloaded);
  f.mix(c.request_timeout);
  f.mix(c.admission.enabled);
  f.mix(c.admission.queue_capacity);
  f.mix(c.admission.shed_retries_first);
  f.mix(c.admission.reserve_slots);
  const ConcurrencyLimitConfig& lim = c.admission.limit;
  f.mix(lim.initial_limit);
  f.mix(lim.min_limit);
  f.mix(lim.max_limit);
  f.mix(lim.window);
  f.mix(lim.min_window_samples);
  f.mix(lim.latency_tolerance);
  f.mix(c.authorization.size());
  for (const auto& [svc, sources] : c.authorization) {
    f.mix(svc);
    f.mix(sources.size());
    for (const std::string& s : sources) f.mix(s);
  }
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

/// The fingerprint `base` becomes under `delta`, with every changed part
/// hashed here from the content the delta carries.
ConfigFingerprint patch_fingerprint(const ConfigFingerprint& base,
                                    const ConfigDelta& delta) {
  ConfigFingerprint out;
  out.policy_hash =
      delta.policy ? hash_policy_section(*delta.policy) : base.policy_hash;
  out.routes = base.routes;
  for (const std::string& host : delta.route_removals) out.routes.erase(host);
  for (const auto& [host, cluster] : delta.route_upserts) {
    out.routes[host] = cluster;
  }
  const auto removed = [&delta](const std::string& name) {
    return std::find(delta.cluster_removals.begin(),
                     delta.cluster_removals.end(),
                     name) != delta.cluster_removals.end();
  };
  // Merge the name-sorted running list with the (sorted) upserts; an
  // upsert replaces a same-name entry even when it is also removed.
  out.clusters.reserve(base.clusters.size() + delta.cluster_upserts.size());
  auto upsert = delta.cluster_upserts.begin();
  const auto take_upsert = [&] {
    out.clusters.push_back({upsert->first, hash_cluster_spec(upsert->second)});
    ++upsert;
  };
  for (const ClusterHash& cluster : base.clusters) {
    while (upsert != delta.cluster_upserts.end() &&
           upsert->first < cluster.name) {
      take_upsert();
    }
    if (upsert != delta.cluster_upserts.end() &&
        upsert->first == cluster.name) {
      take_upsert();
    } else if (!removed(cluster.name)) {
      out.clusters.push_back(cluster);
    }
  }
  while (upsert != delta.cluster_upserts.end()) take_upsert();
  out.hash = compose_config_hash(out);
  return out;
}

}  // namespace

bool Sidecar::reject_config(std::string reason) {
  ++stats_.configs_rejected;
  last_config_error_ = std::move(reason);
  return false;
}

bool Sidecar::apply_config(SidecarConfig config) {
  if (config.epoch != 0 && config.epoch < config_.epoch) {
    return reject_config("stale-epoch");
  }
  std::string error = validate_config(config);
  if (!error.empty()) {
    MESHNET_DEBUG() << pod_.name() << " nacked config push: " << error;
    return reject_config(std::move(error));
  }
  config_ = std::move(config);
  fingerprint_.reset();
  sync_health_targets();
  finish_apply();
  return true;
}

bool Sidecar::apply_config_delta(ConfigDelta delta) {
  if (delta.epoch != 0 && delta.epoch < config_.epoch) {
    return reject_config("stale-epoch");
  }
  const ConfigFingerprint& running = config_fingerprint();
  if (running.hash != delta.base_hash) {
    // The control plane diffed against a config this sidecar is not
    // running (e.g. a direct test poke mutated local state). Refuse —
    // blindly patching an unknown base could route to stale endpoints —
    // and let the control plane fall back to a full push.
    ++stats_.delta_mismatches;
    return reject_config("delta-base-mismatch");
  }
  ConfigFingerprint target = patch_fingerprint(running, delta);
  if (target.hash != delta.target_hash) {
    ++stats_.delta_mismatches;
    return reject_config("delta-target-mismatch");
  }
  // The parts the delta leaves alone passed validation when applied.
  std::string error =
      validate_parts(delta.policy ? &*delta.policy : nullptr,
                     delta.cluster_upserts, delta.route_upserts);
  if (!error.empty()) {
    MESHNET_DEBUG() << pod_.name() << " nacked config delta: " << error;
    return reject_config(std::move(error));
  }

  // Every check passed: patch the running config in place.
  if (delta.policy) {
    static_cast<SidecarPolicy&>(config_) = std::move(*delta.policy);
  }
  config_.epoch = delta.epoch;
  for (const std::string& name : delta.cluster_removals) {
    config_.clusters.erase(name);
  }
  for (auto& [name, spec] : delta.cluster_upserts) {
    config_.clusters[name] = std::move(spec);
  }
  for (const std::string& host : delta.route_removals) {
    config_.routes.erase(host);
  }
  for (auto& [host, cluster] : delta.route_upserts) {
    config_.routes[host] = std::move(cluster);
  }
  *fingerprint_ = std::move(target);
  // Health checking is re-targeted for the changed clusters only: for an
  // unchanged one, sync_health_targets would be a no-op.
  if (health_checker_ != nullptr) {
    for (const auto& [name, spec] : delta.cluster_upserts) {
      const ClusterSpec& applied = config_.clusters.at(name);
      health_checker_->update_targets(name, applied.health_check,
                                      applied.endpoints, kSidecarInboundPort);
    }
    for (const std::string& name : delta.cluster_removals) {
      if (config_.clusters.contains(name)) continue;
      // A disabled check with no endpoints drops the cluster's targets.
      health_checker_->update_targets(name, HealthCheckConfig{}, {},
                                      kSidecarInboundPort);
    }
  }
  ++stats_.deltas_applied;
  finish_apply();
  return true;
}

const ConfigFingerprint& Sidecar::config_fingerprint() const {
  if (!fingerprint_.has_value()) fingerprint_ = fingerprint_config(config_);
  return *fingerprint_;
}

void Sidecar::finish_apply() {
  last_config_error_.clear();
  ++stats_.configs_applied;
  // Balancers are rebuilt lazily so a changed LB policy takes effect.
  balancers_.clear();
  // The admission controller carries learned state (the adaptive limit,
  // queued requests), so it is created once on the first enabling push
  // and survives subsequent pushes.
  if (config_.admission.enabled && admission_ == nullptr) {
    admission_ = std::make_unique<AdmissionController>(
        config_.service_name, config_.admission,
        telemetry_ != nullptr ? &telemetry_->registry() : nullptr);
  }
}

void Sidecar::sync_health_targets() {
  if (!health_checker_) return;
  std::vector<std::string> names;
  names.reserve(config_.clusters.size());
  for (const auto& [name, spec] : config_.clusters) {
    names.push_back(name);
    health_checker_->update_targets(name, spec.health_check, spec.endpoints,
                                    kSidecarInboundPort);
  }
  health_checker_->retain_clusters(names);
}

std::uint64_t Sidecar::active_requests_to(const std::string& pod_name) const {
  const auto it = active_per_endpoint_.find(pod_name);
  return it == active_per_endpoint_.end() ? 0 : it->second;
}

CircuitBreaker& Sidecar::breaker_for(const std::string& cluster_name,
                                     const std::string& pod_name) {
  const std::string key = cluster_name + "/" + pod_name;
  const auto it = breakers_.find(key);
  if (it != breakers_.end()) return it->second;
  const auto spec_it = config_.clusters.find(cluster_name);
  CircuitBreakerConfig cfg =
      spec_it == config_.clusters.end() ? CircuitBreakerConfig{}
                                        : spec_it->second.breaker;
  CircuitBreaker& breaker =
      breakers_.emplace(key, CircuitBreaker(cfg)).first->second;
  if (telemetry_ != nullptr) {
    breaker.set_transition_hook(
        [this, key](CircuitState from, CircuitState to, sim::Time at) {
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
  auto session = std::make_unique<ServerSession>();
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
  conn.set_on_closed([this, id](bool /*graceful*/) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    ServerSession& s = *it->second;
    if (s.try_timer != sim::kInvalidEventId) sim_.cancel(s.try_timer);
    if (s.deadline_timer != sim::kInvalidEventId) sim_.cancel(s.deadline_timer);
    if (s.tls != nullptr) s.tls->shutdown();
    // An upstream cancel suppresses the pool handler, which would leak
    // the in-flight request's span and telemetry sample: finish the
    // abandoned request through the finish_outbound funnel (as a 499)
    // after the session is gone — respond_to_session then no-ops.
    const bool abandoned_upstream =
        s.busy && s.upstream_pool != nullptr && s.upstream_req != 0;
    if (abandoned_upstream) s.upstream_pool->cancel(s.upstream_req);
    Ctx abandoned = abandoned_upstream ? std::move(s.active) : nullptr;
    const std::string cluster = s.upstream_cluster;
    const std::string endpoint = s.upstream_endpoint;
    sessions_.erase(it);
    if (abandoned != nullptr) {
      ++stats_.downstream_aborts;
      http::HttpResponse response;
      response.status = 499;
      response.body = "downstream closed mid-request";
      response.headers.set("x-served-by", config_.service_name + "-sidecar");
      finish_outbound(id, abandoned, cluster, endpoint, std::move(response));
    }
  });
  sessions_.emplace(id, std::move(session));
}

template <class Bytes>
void Sidecar::feed_session_parser(ServerSession& session, const Bytes& data) {
  if (!session.parser->feed(data)) {
    MESHNET_WARN() << "sidecar: request parse error; resetting session";
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
  channel->set_send_wire([this, id](std::string bytes) {
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) it->second->conn->send(bytes);
  });
  channel->set_on_plaintext([this, id](std::string_view data) {
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) feed_session_parser(*it->second, data);
  });
  // Handshake failures (alert sent, malformed records, timeout) tear the
  // downstream connection down; the client side surfaces the error
  // through its pool handler. Delivered via a zero-delay event, so
  // aborting here is safe.
  channel->set_on_error([this, id](const std::string& reason) {
    MESHNET_DEBUG() << "sidecar: inbound TLS error: " << reason;
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
  http::HttpRequest req = std::move(session.pending.front());
  session.pending.pop_front();
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
  ctx->source_service =
      ctx->request.headers.get_or(http::headers::Id::kMeshSource, "");
  // Remember the active context so a downstream close mid-request can
  // still finish it (and close its span) through finish_outbound.
  if (const auto sit = sessions_.find(session_id); sit != sessions_.end()) {
    sit->second->active = ctx;
  }

  // Health probes are answered by the sidecar itself, before the filter
  // chain (authorization must not 403 them) and without touching the app:
  // the probe's question is "is this pod's sidecar alive and reachable",
  // and a crashed pod takes its sidecar down with it.
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
    // The admission filter parked the request in its priority queue.
    // Attach the two continuations; exactly one fires, on a later
    // admission event (a completion freeing capacity, or a preemption).
    admission_->bind(
        ctx->admission_ticket,
        [this, session_id, ctx, direction] {
          ctx->admission_admitted = true;
          ctx->admission_dispatch_time = sim_.now();
          continue_request(session_id, ctx, direction);
        },
        [this, session_id, ctx, direction](ShedReason reason) {
          ctx->shed_reason = std::string(shed_reason_name(reason));
          http::HttpResponse response = make_local_response(
              503, "admission shed: " + ctx->shed_reason);
          response.headers.set(http::headers::Id::kShedReason,
                               ctx->shed_reason);
          const FilterChain& c = direction == FilterDirection::kInbound
                                     ? inbound_chain_
                                     : outbound_chain_;
          c.run_response(*ctx, response);
          respond_to_session(session_id, ctx, std::move(response));
        });
    return;
  }
  if (chain_result == ChainResult::kStopped) {
    http::HttpResponse response =
        ctx->local_response ? std::move(*ctx->local_response)
                            : make_local_response(403, "filter denied");
    if (!ctx->shed_reason.empty()) ++stats_.local_responses;
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
  if (session.try_timer != sim::kInvalidEventId) {
    sim_.cancel(session.try_timer);
    session.try_timer = sim::kInvalidEventId;
  }
  if (session.deadline_timer != sim::kInvalidEventId) {
    sim_.cancel(session.deadline_timer);
    session.deadline_timer = sim::kInvalidEventId;
  }
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
  http::HttpRequest upstream_req = ctx->request;  // copy: retry-safe
  app_pool_->request(
      std::move(upstream_req),
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
                              const std::string& cluster_name,
                              const std::string& endpoint_pod,
                              http::HttpResponse response) {
  const sim::Duration latency = sim_.now() - ctx->start_time;
  if (telemetry_ != nullptr) {
    if (!cluster_name.empty()) {
      RequestSample sample;
      sample.source = config_.service_name;
      sample.upstream = cluster_name;
      sample.status = response.status;
      sample.latency = latency;
      sample.retries = ctx->attempt;
      sample.priority = ctx->traffic_class;
      telemetry_->record_request(sample);
    }
    obs::AccessLog& log = telemetry_->access_log();
    if (log.enabled()) {
      obs::AccessLogRecord record;
      record.at = sim_.now();
      record.source = config_.service_name;
      record.route = ctx->request.path;
      record.upstream_cluster = cluster_name;
      record.upstream_endpoint = endpoint_pod;
      record.priority = std::string(traffic_class_name(ctx->traffic_class));
      record.status = response.status;
      record.retries = ctx->attempt;
      record.latency = latency;
      // Shed either locally (this sidecar's admission filter) or by the
      // upstream (marker header on its 503).
      record.shed_reason =
          !ctx->shed_reason.empty()
              ? ctx->shed_reason
              : response.headers.get_or(http::headers::Id::kShedReason, "");
      const auto it = sessions_.find(session_id);
      if (it != sessions_.end() && it->second->deadline > 0) {
        record.deadline_slack = it->second->deadline - sim_.now();
      }
      log.record(std::move(record));
    }
  }
  // Closing the outbound chain here — not at each call site — is what
  // guarantees every request span gets an end time: 404s, vanished
  // clusters, exhausted upstreams and armed-deadline abandonments all
  // funnel through this path.
  outbound_chain_.run_response(*ctx, response);
  respond_to_session(session_id, ctx, std::move(response));
}

const ClusterSpec* Sidecar::resolve_cluster(const std::string& host) const {
  std::string cluster_name = host;
  const auto route = config_.routes.find(host);
  if (route != config_.routes.end()) cluster_name = route->second;
  const auto it = config_.clusters.find(cluster_name);
  return it == config_.clusters.end() ? nullptr : &it->second;
}

std::vector<const cluster::Endpoint*> Sidecar::eligible_endpoints(
    const ClusterSpec& spec, const RequestContext& ctx, bool ignore_health) {
  // Active health checking narrows the candidate set first; if *every*
  // endpoint is evicted, panic-route over the full set (Envoy's panic
  // threshold, degenerate form) — probes can be wrong, a guaranteed 503
  // never is right.
  std::vector<const cluster::Endpoint*> considered;
  for (const cluster::Endpoint& ep : spec.endpoints) {
    if (ignore_health || !spec.health_check.enabled ||
        health_checker_ == nullptr ||
        health_checker_->healthy(spec.name, ep.pod_name)) {
      considered.push_back(&ep);
    }
  }
  if (considered.empty()) {
    for (const cluster::Endpoint& ep : spec.endpoints) {
      considered.push_back(&ep);
    }
  }

  std::vector<const cluster::Endpoint*> subset_matched;
  std::vector<const cluster::Endpoint*> all;
  for (const cluster::Endpoint* ep_ptr : considered) {
    const cluster::Endpoint& ep = *ep_ptr;
    all.push_back(&ep);
    bool matches = true;
    for (const auto& [key, value] : ctx.subset) {
      if (ep.label_or(key, "") != value) {
        matches = false;
        break;
      }
    }
    if (matches) subset_matched.push_back(&ep);
  }
  // A subset constraint that matches no endpoint falls back to the full
  // healthy set instead of failing (Envoy's ANY_ENDPOINT fallback).
  if (!subset_matched.empty() || ctx.subset.empty()) return subset_matched;
  return all;
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
    // config_ in place, so rotation pushes reach the next handshake
    // without rewiring the pool.
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

LoadBalancer& Sidecar::balancer_for(const ClusterSpec& spec) {
  const auto it = balancers_.find(spec.name);
  if (it != balancers_.end()) return *it->second;
  // Seed from a hash of the service + cluster so picks are deterministic
  // but uncorrelated across sidecars. The basis is one digit short of
  // FNV's; changing it would reseed every balancer.
  const std::uint64_t seed = util::fnv1a(
      config_.service_name + "|" + spec.name, 1469598103934665603ULL);
  return *balancers_.emplace(spec.name, make_balancer(spec.lb, seed))
              .first->second;
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
  const std::string host =
      ctx->request.headers.get_or(http::headers::Id::kHost, "");
  if (!ctx->upstream_cluster.empty()) {
    // A filter already routed (e.g. traffic shifting); keep it.
  } else if (const ClusterSpec* spec = resolve_cluster(host)) {
    ctx->upstream_cluster = spec->name;
  } else {
    finish_outbound(session_id, ctx, /*cluster_name=*/"", /*endpoint_pod=*/"",
                    make_local_response(404, "no route for host " + host));
    return;
  }
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  it->second->deadline = sim_.now() + config_.request_timeout;
  // The end-to-end deadline is an armed timer, not a lazy check: it must
  // fire even when the request is parked on a dead upstream with no retry
  // configured to re-enter the attempt path.
  if (config_.request_timeout > 0) {
    const std::uint64_t seq = it->second->request_seq;
    it->second->deadline_timer = sim_.schedule_after(
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
  s.deadline_timer = sim::kInvalidEventId;
  ++stats_.timeouts;
  if (s.upstream_pool != nullptr && s.upstream_req != 0) {
    s.upstream_pool->cancel(s.upstream_req);
    s.upstream_pool = nullptr;
    s.upstream_req = 0;
    // Unwind through the normal result path so per-endpoint/per-cluster
    // accounting and the breaker see the failure; the deadline check
    // there suppresses any retry.
    on_upstream_result(session_id, ctx, s.upstream_cluster,
                       s.upstream_endpoint, std::nullopt,
                       "request deadline exceeded");
    return;
  }
  // Between attempts (retry backoff): nothing in flight to unwind.
  finish_outbound(session_id, ctx, ctx->upstream_cluster,
                  s.upstream_endpoint,
                  make_local_response(504, "request deadline exceeded"));
}

void Sidecar::attempt_upstream(std::uint64_t session_id, Ctx ctx) {
  const auto sess_it = sessions_.find(session_id);
  if (sess_it == sessions_.end()) return;  // downstream gone
  ServerSession& session = *sess_it->second;

  const auto cluster_it = config_.clusters.find(ctx->upstream_cluster);
  if (cluster_it == config_.clusters.end()) {
    finish_outbound(session_id, ctx, ctx->upstream_cluster,
                    /*endpoint_pod=*/"",
                    make_local_response(503, "cluster vanished"));
    return;
  }
  const ClusterSpec& spec = cluster_it->second;

  if (sim_.now() >= session.deadline) {
    ++stats_.timeouts;
    finish_outbound(session_id, ctx, ctx->upstream_cluster,
                    /*endpoint_pod=*/"",
                    make_local_response(504, "request deadline exceeded"));
    return;
  }

  std::vector<const cluster::Endpoint*> candidates =
      eligible_endpoints(spec, *ctx);
  LbContext lb_ctx;
  lb_ctx.active_requests = [this](const cluster::Endpoint& ep) {
    return active_requests_to(ep.pod_name);
  };
  LoadBalancer& balancer = balancer_for(spec);
  const auto pick_allowed =
      [&](std::vector<const cluster::Endpoint*> pool) -> const
      cluster::Endpoint* {
    while (!pool.empty()) {
      const cluster::Endpoint* pick = balancer.pick(pool, lb_ctx);
      if (pick == nullptr) break;
      if (breaker_for(spec.name, pick->pod_name).allow_request(sim_.now())) {
        return pick;
      }
      pool.erase(std::find(pool.begin(), pool.end(), pick));
    }
    return nullptr;
  };
  // Retries prefer endpoints this request has not failed on yet
  // (Envoy's previous-hosts retry predicate): a retry that re-picks the
  // pod that just timed out burns its whole per-try budget relearning
  // what the request already knows.
  const auto without_tried = [&](std::vector<const cluster::Endpoint*> pool) {
    if (ctx->tried_pods.empty()) return pool;
    std::vector<const cluster::Endpoint*> untried;
    for (const cluster::Endpoint* ep : pool) {
      if (std::find(ctx->tried_pods.begin(), ctx->tried_pods.end(),
                    ep->pod_name) == ctx->tried_pods.end()) {
        untried.push_back(ep);
      }
    }
    return untried;
  };
  // Preference order: (1) health-admitted and untried; (2) any untried
  // endpoint, health belief ignored — under a churn storm the
  // active-probe belief lags reality by a full probe round, and a pod
  // that just timed out for THIS request is stronger evidence than a
  // stale probe verdict for another; (3) health-admitted, tried or not;
  // (4) anything. Breakers are honored at every tier.
  const cluster::Endpoint* chosen = pick_allowed(without_tried(candidates));
  const bool health_filtered =
      spec.health_check.enabled && health_checker_ != nullptr;
  if (chosen == nullptr && health_filtered && !ctx->tried_pods.empty()) {
    chosen = pick_allowed(without_tried(
        eligible_endpoints(spec, *ctx, /*ignore_health=*/true)));
    if (chosen != nullptr) ++stats_.panic_picks;
  }
  if (chosen == nullptr) chosen = pick_allowed(std::move(candidates));
  if (chosen == nullptr && health_filtered) {
    // Second-level panic: every endpoint the health checker admits is
    // breaker-rejected. Probes can be wrong; a guaranteed 503 never is
    // right.
    chosen =
        pick_allowed(eligible_endpoints(spec, *ctx, /*ignore_health=*/true));
    if (chosen != nullptr) ++stats_.panic_picks;
  }
  if (chosen == nullptr) {
    ++stats_.upstream_failures;
    finish_outbound(
        session_id, ctx, spec.name, /*endpoint_pod=*/"",
        make_local_response(503, "no healthy upstream in " + spec.name));
    return;
  }

  ctx->request.headers.set(http::headers::Id::kRetryAttempt,
                           std::to_string(ctx->attempt + 1));
  // Advertise the remaining deadline budget so the serving sidecar's
  // admission controller can shed requests it cannot answer in time.
  if (config_.request_timeout > 0 && session.deadline > sim_.now()) {
    const sim::Duration remaining = session.deadline - sim_.now();
    ctx->request.headers.set(
        http::headers::Id::kDeadlineMs,
        std::to_string(std::max<sim::Duration>(
            1, remaining / sim::milliseconds(1))));
  }
  // The wire hop goes to the remote pod's *inbound sidecar listener*; the
  // Host header tells the remote side which service was meant (the moral
  // equivalent of Istio's iptables redirect preserving metadata).
  HttpClientPool& pool = pool_for(*chosen, ctx->traffic_class, spec.mtls);
  ++active_per_endpoint_[chosen->pod_name];
  ++inflight_per_cluster_[spec.name];
  if (ctx->attempt > 0) ++inflight_retries_per_cluster_[spec.name];

  const std::string endpoint_pod = chosen->pod_name;
  if (std::find(ctx->tried_pods.begin(), ctx->tried_pods.end(),
                endpoint_pod) == ctx->tried_pods.end()) {
    ctx->tried_pods.push_back(endpoint_pod);
  }
  const std::string cluster_name = spec.name;
  session.upstream_cluster = cluster_name;
  session.upstream_endpoint = endpoint_pod;
  session.upstream_pool = &pool;
  session.upstream_req = pool.request(
      ctx->request,
      [this, session_id, ctx, cluster_name, endpoint_pod](
          std::optional<http::HttpResponse> response,
          const std::string& error) {
        on_upstream_result(session_id, ctx, cluster_name, endpoint_pod,
                           std::move(response), error);
      });

  if (config_.retry.per_try_timeout > 0) {
    session.try_timer = sim_.schedule_after(
        config_.retry.per_try_timeout,
        [this, session_id, ctx, cluster_name, endpoint_pod] {
          const auto it = sessions_.find(session_id);
          if (it == sessions_.end()) return;
          ServerSession& s = *it->second;
          s.try_timer = sim::kInvalidEventId;
          if (s.upstream_pool != nullptr && s.upstream_req != 0) {
            s.upstream_pool->cancel(s.upstream_req);
            s.upstream_pool = nullptr;
            s.upstream_req = 0;
          }
          ++stats_.timeouts;
          on_upstream_result(session_id, ctx, cluster_name, endpoint_pod,
                             std::nullopt, "per-try timeout");
        });
  }
}

void Sidecar::on_upstream_result(std::uint64_t session_id, Ctx ctx,
                                 const std::string& cluster_name,
                                 const std::string& endpoint_pod,
                                 std::optional<http::HttpResponse> response,
                                 const std::string& error) {
  const auto sess_it = sessions_.find(session_id);
  if (sess_it != sessions_.end()) {
    ServerSession& s = *sess_it->second;
    if (s.try_timer != sim::kInvalidEventId) {
      sim_.cancel(s.try_timer);
      s.try_timer = sim::kInvalidEventId;
    }
    s.upstream_pool = nullptr;
    s.upstream_req = 0;
  }
  auto& active = active_per_endpoint_[endpoint_pod];
  if (active > 0) --active;
  auto& inflight = inflight_per_cluster_[cluster_name];
  if (inflight > 0) --inflight;
  if (ctx->attempt > 0) {
    auto& inflight_retries = inflight_retries_per_cluster_[cluster_name];
    if (inflight_retries > 0) --inflight_retries;
  }

  // An x-mesh-shed 503 is the upstream's admission controller saying
  // "overloaded, by policy": the endpoint is alive and answering fast.
  // It must not trip the breaker (a shed storm on low-priority traffic
  // would open the breaker and take the high-priority traffic with it),
  // and retrying it amplifies the overload, so it is non-retryable
  // unless explicitly opted in.
  const bool shed_by_upstream =
      response.has_value() &&
      response->headers.has(http::headers::Id::kShedReason);

  CircuitBreaker& breaker = breaker_for(cluster_name, endpoint_pod);
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
  if (retryable && shed_by_upstream && !retry.retry_on_overloaded) {
    if (ctx->attempt < retry.max_retries) {
      ++stats_.retries_suppressed_by_overload;
    }
    retryable = false;
  }
  if (retryable && ctx->attempt < retry.max_retries &&
      sess_it != sessions_.end() && sim_.now() < sess_it->second->deadline) {
    // Retry budget: active retries may be at most `retry_budget` of the
    // cluster's in-flight requests (with a small floor). Past it, the
    // failure is returned rather than amplified (Envoy's retry_budget).
    bool budget_ok = true;
    if (retry.retry_budget > 0.0) {
      const double allowed = std::max(
          retry.retry_budget * static_cast<double>(inflight),
          static_cast<double>(retry.retry_budget_min_concurrency));
      budget_ok =
          static_cast<double>(inflight_retries_per_cluster_[cluster_name]) <
          allowed;
      if (!budget_ok) ++stats_.retries_denied_by_budget;
    }
    if (budget_ok) {
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
  }

  const bool deadline_exceeded =
      failed_transport && error == "request deadline exceeded";
  http::HttpResponse final_response =
      response ? std::move(*response)
               : make_local_response(deadline_exceeded ? 504 : 503,
                                     "upstream failed: " + error);
  if (!success) ++stats_.upstream_failures;

  finish_outbound(session_id, ctx, cluster_name, endpoint_pod,
                  std::move(final_response));
}

}  // namespace meshnet::mesh
