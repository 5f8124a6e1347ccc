#pragma once

// The sidecar proxy (Envoy's role in Istio).
//
// Every pod gets one. It owns two listeners:
//  * inbound  (pod_ip:15006) — remote sidecars connect here; requests run
//    the inbound filter chain (authz, tracing, provenance) and are then
//    forwarded to the colocated app over the pod-local loopback.
//  * outbound (pod_ip:15001) — the local app sends its sub-requests here;
//    requests run the outbound filter chain (classification, provenance,
//    priority routing), are routed by Host header to an upstream cluster,
//    an endpoint is picked (subset + circuit breaker + load balancer),
//    and the request rides a pooled connection to the remote sidecar,
//    with retries and per-try timeouts.
//
// A sidecar with gateway_mode=true is an ingress gateway: its outbound
// listener is exposed on the gateway port and there is no local app.
//
// Traffic classes map to per-class transport policy (congestion-control
// algorithm + DSCP mark); pools are keyed by (endpoint, class) so classes
// never share a transport connection.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "http/codec.h"
#include "mesh/admission.h"
#include "mesh/circuit_breaker.h"
#include "mesh/filter.h"
#include "mesh/health_checker.h"
#include "mesh/http_client.h"
#include "mesh/load_balancer.h"
#include "mesh/telemetry.h"
#include "mesh/tls_session.h"
#include "sim/random.h"
#include "sim/ring.h"
#include "sim/timer.h"
#include "mesh/tracing.h"
#include "transport/transport_host.h"

namespace meshnet::mesh {

/// Retries cover any 5xx and any transport failure (reset, per-try
/// timeout), within max_retries. A 503 carrying the x-mesh-shed marker
/// (the upstream's admission controller shed it) is never retried:
/// retrying into a declared overload only amplifies it.
struct RetryPolicy {
  int max_retries = 1;
  /// 0 disables the per-try timeout.
  sim::Duration per_try_timeout = 0;
  sim::Duration backoff_base = sim::milliseconds(2);
  /// Cap on any single backoff sleep.
  sim::Duration backoff_max = sim::milliseconds(250);
  /// Decorrelated jitter (sleep = min(cap, uniform(base, 3*prev))) instead
  /// of deterministic linear backoff — avoids synchronized retry storms.
  bool backoff_jitter = true;
};

/// Next retry sleep for attempt number `attempt` (1-based: the first
/// retry passes 1). With jitter disabled this is the legacy linear
/// `base * attempt`; with jitter it is AWS-style decorrelated jitter,
/// where `prev` is the previous sleep (0 on the first retry). Both are
/// clamped to [backoff_base, backoff_max].
sim::Duration next_retry_backoff(const RetryPolicy& policy, int attempt,
                                 sim::Duration prev, sim::RngStream& rng);

// Certificate lives in mesh/tls_session.h (the TLS layer consumes it
// directly); it is re-exported here for the many existing includers.

struct ClusterSpec {
  std::string name;
  std::vector<cluster::Endpoint> endpoints;
  LbPolicy lb = LbPolicy::kRoundRobin;
  CircuitBreakerConfig breaker;
  /// Active health checking for this cluster's endpoints (off by default;
  /// the chaos experiments turn it on).
  HealthCheckConfig health_check;
  /// Initiate mTLS to this cluster's sidecars (compiled by the control
  /// plane from the mesh-wide default + per-service overrides).
  bool mtls = false;
};

/// Per-traffic-class transport policy — where the cross-layer design
/// attaches scavenger congestion control and DSCP marks to mesh classes.
struct TrafficClassPolicy {
  transport::CcAlgorithm cc = transport::CcAlgorithm::kReno;
  net::Dscp dscp = net::Dscp::kDefault;
};

/// The operator policy every sidecar runs, declared once: MeshPolicies
/// holds the mesh-wide values, and each pushed config a copy whose
/// `tls.enabled` the control plane resolves for that sidecar's service.
struct PolicySection {
  RetryPolicy retry;
  sim::Duration request_timeout = sim::seconds(15);

  /// Priority-aware overload control on the inbound path (off by
  /// default). The controller is created on the first config push that
  /// enables it; later pushes keep the running controller's state.
  AdmissionConfig admission;

  /// Destination-service allow-lists (mTLS-style authorization policy):
  /// if a service has an entry, only the listed source services may call
  /// it. No entry = allow all.
  std::map<std::string, std::vector<std::string>> authorization;

  std::map<TrafficClass, TrafficClassPolicy> class_policies;

  /// TLS session layer. In MeshPolicies `tls.enabled` is the mesh-wide
  /// mTLS default; in a pushed config it means "this sidecar's inbound
  /// listener accepts TLS" (the listener stays permissive: plaintext
  /// peers and health probes are sniffed through). Whether a *client*
  /// initiates TLS is per cluster (ClusterSpec::mtls).
  TlsParams tls;
  std::uint32_t transport_mss = 1460;

  /// Observes every upstream transport connection the sidecar opens,
  /// tagged with its traffic class (cross-layer SDN advertisement hook).
  std::function<void(transport::Connection&, TrafficClass)>
      upstream_connection_hook;
};

/// One sidecar's pushed policy: the section plus the identity it was
/// compiled for. A delta push carries it whole when its hash changed.
struct SidecarPolicy : PolicySection {
  std::string service_name;

  /// Control-plane config generation this snapshot was compiled from.
  /// Monotonically increasing; a sidecar rejects pushes older than what
  /// it already runs. 0 means "unversioned" (construction defaults and
  /// direct test pokes) and always applies.
  std::uint64_t epoch = 0;

  /// This workload's identity certificate; rotation arrives as a config
  /// push with a new serial.
  Certificate identity_cert;
};

/// What the control plane pushes to one sidecar: its policy plus the
/// clusters and routes.
struct SidecarConfig : SidecarPolicy {
  /// Host header -> cluster name. Hosts not listed route to the cluster
  /// with the same name, if one exists.
  std::map<std::string, std::string> routes;
  std::map<std::string, ClusterSpec> clusters;
};

/// The port every sidecar's inbound listener binds. Remote sidecars and
/// health probes dial it on each endpoint's IP.
inline constexpr net::Port kSidecarInboundPort = 15006;

/// How one sidecar attaches to a pod, fixed at injection. These are
/// cluster::MeshSpec data (app/mesh_spec.h): MeshBuilder derives each
/// app's app::MicroserviceOptions ports from the same fields, so the app
/// and its sidecar cannot disagree on them.
struct SidecarInjectionOptions {
  net::Port app_port = 8080;
  bool gateway_mode = false;
  net::Port outbound_port = 15001;  ///< gateway exposes this port

  /// Spec-roundtrip constructor: the ingress-gateway flavour (no local
  /// app; the outbound listener is exposed on `port`).
  static SidecarInjectionOptions gateway(net::Port port) {
    SidecarInjectionOptions options;
    options.gateway_mode = true;
    options.outbound_port = port;
    return options;
  }
};

/// Sanity-checks a compiled config before it replaces the running one.
/// Returns an empty string when valid, else a human-readable reason —
/// the sidecar nacks the push and keeps its last-good config (the
/// control plane rolls back on nack).
std::string validate_config(const SidecarConfig& config);

/// Structural fingerprint of a compiled config. Epoch is excluded (two
/// epochs with identical payloads hash equal, which is what lets the
/// control plane skip no-op pushes); the certificate serial is included
/// so rotation propagates as a real push. Hooks contribute only their
/// presence (std::function has no stable content identity). It is
/// compose_config_hash over hash_policy_section, the routes and the
/// per-cluster hash_cluster_spec values, so the delta push
/// (mesh/config_delta.h) diffs with the same fingerprints the no-op skip
/// uses.
std::uint64_t hash_sidecar_config(const SidecarConfig& config);

/// Fingerprint of one cluster's spec (endpoints, LB, breaker, health
/// check) — the unit of change a ConfigDelta upserts.
std::uint64_t hash_cluster_spec(const ClusterSpec& spec);

/// Fingerprint of everything in a config that is neither a cluster nor a
/// route (service name, policy section, cert serial).
std::uint64_t hash_policy_section(const SidecarPolicy& policy);

/// One cluster's entry in a ConfigFingerprint.
struct ClusterHash {
  std::string name;
  std::uint64_t hash = 0;  ///< hash_cluster_spec of the cluster's spec
};

/// hash_sidecar_config kept in its parts. The control plane diffs pushes
/// by comparing two of these, and a sidecar keeps one for its running
/// config, so a delta is verified per cluster without rehashing (or
/// copying) the clusters it leaves alone.
struct ConfigFingerprint {
  std::uint64_t policy_hash = 0;  ///< hash_policy_section
  std::map<std::string, std::string> routes;
  std::vector<ClusterHash> clusters;  ///< in cluster-name order
  /// compose_config_hash of the parts above.
  std::uint64_t hash = 0;
};

/// The fingerprint of `config`, computed from scratch.
ConfigFingerprint fingerprint_config(const SidecarConfig& config);

/// The config hash `parts` describe (ignores `parts.hash`).
std::uint64_t compose_config_hash(const ConfigFingerprint& parts);

struct ConfigDelta;  // mesh/config_delta.h

struct SidecarStats {
  std::uint64_t inbound_requests = 0;
  std::uint64_t outbound_requests = 0;
  std::uint64_t upstream_retries = 0;
  std::uint64_t upstream_failures = 0;   ///< exhausted retries
  std::uint64_t local_responses = 0;     ///< filter short-circuits
  std::uint64_t timeouts = 0;
  /// Shed 503s (x-mesh-shed) not retried although retries were left.
  std::uint64_t retries_suppressed_by_overload = 0;
  std::uint64_t health_probes_answered = 0;
  /// Downstream connections that closed while a request was in flight;
  /// the abandoned request is finished as a local 499 so its span and
  /// telemetry sample still close (the finish_outbound funnel).
  std::uint64_t downstream_aborts = 0;
  std::uint64_t configs_applied = 0;
  std::uint64_t configs_rejected = 0;  ///< invalid or stale-epoch pushes
  std::uint64_t deltas_applied = 0;    ///< incremental pushes applied
  /// Delta pushes refused because the base/target fingerprint did not
  /// match (the control plane falls back to a full push).
  std::uint64_t delta_mismatches = 0;
  /// Second-level panic picks: every health-admitted endpoint was
  /// breaker-rejected, so the pick fell back to the full endpoint set.
  std::uint64_t panic_picks = 0;
};

class Sidecar {
 public:
  /// Runs `service_name` on `pod`. The listeners are fixed here; policy,
  /// clusters and routes arrive by apply_config.
  Sidecar(sim::Simulator& sim, cluster::Pod& pod, Tracer& tracer,
          TelemetrySink* telemetry, std::string service_name,
          SidecarInjectionOptions listener);
  ~Sidecar();
  Sidecar(const Sidecar&) = delete;
  Sidecar& operator=(const Sidecar&) = delete;

  /// Opens the listeners. Call once after construction.
  void start();

  /// Replaces routing/cluster/policy state (an xDS push). Returns false — and
  /// keeps the running config untouched — when the push is invalid
  /// (validate_config) or stale (an epoch the sidecar already moved
  /// past); `last_config_error()` then says why.
  bool apply_config(SidecarConfig config);

  /// Applies an incremental push (mesh/config_delta.h). Checks, in order:
  /// the epoch is not stale; `base_hash` matches the running config's
  /// fingerprint; `target_hash` matches hashes this sidecar computes
  /// itself over the content it received; the changed parts validate
  /// (the rest already did when it was applied). Then patches the
  /// running config in place. Returns false — running config untouched —
  /// on the first failed check ("stale-epoch", "delta-base-mismatch" /
  /// "delta-target-mismatch" — the control plane falls back to a full
  /// push — or the validation error).
  bool apply_config_delta(ConfigDelta delta);

  /// Fingerprint of the running config: computed on first use after a
  /// full apply_config, then kept current by every applied delta.
  const ConfigFingerprint& config_fingerprint() const;

  /// Config generation currently applied (0 until a versioned push).
  std::uint64_t config_epoch() const noexcept { return config_.epoch; }

  /// Why the most recent apply_config returned false; empty after a
  /// successful apply.
  const std::string& last_config_error() const noexcept {
    return last_config_error_;
  }

  FilterChain& inbound_filters() noexcept { return inbound_chain_; }
  FilterChain& outbound_filters() noexcept { return outbound_chain_; }

  const SidecarConfig& config() const noexcept { return config_; }
  /// The listener ports and gateway mode, fixed at injection.
  const SidecarInjectionOptions& listener() const noexcept {
    return listener_;
  }
  cluster::Pod& pod() noexcept { return pod_; }
  const cluster::Pod& pod() const noexcept { return pod_; }
  const SidecarStats& stats() const noexcept { return stats_; }

  /// Outstanding upstream requests to one endpoint (used by the
  /// least-request balancer and exposed for tests).
  std::uint64_t active_requests_to(const std::string& pod_name) const;

  /// The breaker guarding one endpoint (created on first use).
  CircuitBreaker& breaker_for(const std::string& cluster_name,
                              const std::string& pod_name);

  /// The active health checker (created in start(); null before).
  HealthChecker* health_checker() noexcept { return health_checker_.get(); }

  /// The inbound admission controller (null until a pushed config
  /// enables admission).
  AdmissionController* admission_controller() noexcept {
    return admission_.get();
  }

 private:
  struct ServerSession {
    explicit ServerSession(sim::Simulator& sim)
        : try_timer(sim), deadline_timer(sim) {}

    std::uint64_t id = 0;
    transport::Connection* conn = nullptr;
    std::unique_ptr<http::HttpParser> parser;
    /// Set once the first downstream byte arrives: a TLS ClientHello
    /// starts a server-side TLS channel, anything else stays plaintext.
    bool sniffed = false;
    std::shared_ptr<TlsChannel> tls;
    FilterDirection direction = FilterDirection::kInbound;
    sim::Ring<http::HttpRequest, 1> pending;
    bool busy = false;
    // Upstream call state for the active request (HTTP/1.1 serializes one
    // request per downstream connection, so one set suffices).
    sim::Timer try_timer;
    HttpClientPool* upstream_pool = nullptr;
    HttpClientPool::RequestId upstream_req = 0;
    std::string upstream_cluster;
    std::string upstream_endpoint;
    sim::Time deadline = 0;
    sim::Timer deadline_timer;
    // Bumped on every response; async timers and backoff wakeups captured
    // for an earlier request compare against it and stand down.
    std::uint64_t request_seq = 0;
    // The in-flight request's context while busy, so a downstream close
    // can still finish the request (and its span) through the
    // finish_outbound funnel.
    std::shared_ptr<RequestContext> active;
  };

  struct PoolKey {
    net::IpAddress ip;
    TrafficClass traffic_class;
    bool tls;
    auto operator<=>(const PoolKey&) const = default;
  };

  using Ctx = std::shared_ptr<RequestContext>;

  /// Counts a refused push and records why; returns false.
  bool reject_config(std::string reason);
  /// Bookkeeping shared by full and delta applies, once config_ holds
  /// the new config.
  void finish_apply();
  void accept_session(transport::Connection& conn, FilterDirection direction);
  void on_session_request(std::uint64_t session_id, http::HttpRequest req);
  void pump_session(ServerSession& session);
  void process_request(std::uint64_t session_id, http::HttpRequest req,
                       FilterDirection direction);
  void process_request_now(std::uint64_t session_id, http::HttpRequest req,
                           FilterDirection direction);
  sim::Duration proxy_delay();
  void respond_to_session(std::uint64_t session_id, const Ctx& ctx,
                          http::HttpResponse response);
  void continue_request(std::uint64_t session_id, Ctx ctx,
                        FilterDirection direction);
  void forward_to_app(std::uint64_t session_id, Ctx ctx);
  void route_and_forward(std::uint64_t session_id, Ctx ctx);
  /// Single exit point for outbound requests: records telemetry (when an
  /// upstream cluster is known), runs the outbound response filters —
  /// closing the request span on every path — and answers the downstream
  /// session.
  void finish_outbound(std::uint64_t session_id, const Ctx& ctx,
                       const std::string& cluster_name,
                       http::HttpResponse response);
  void sync_health_targets();
  void attempt_upstream(std::uint64_t session_id, Ctx ctx);
  void on_request_deadline(std::uint64_t session_id, Ctx ctx,
                           std::uint64_t seq);
  void on_upstream_result(std::uint64_t session_id, Ctx ctx,
                          const std::string& cluster_name,
                          const std::string& endpoint_pod,
                          std::optional<http::HttpResponse> response,
                          const std::string& error);
  const ClusterSpec* resolve_cluster(const std::string& host) const;
  std::vector<const cluster::Endpoint*> eligible_endpoints(
      const ClusterSpec& spec, const RequestContext& ctx,
      bool ignore_health = false);
  /// The pool to `endpoint`'s inbound sidecar listener.
  HttpClientPool& pool_for(const cluster::Endpoint& endpoint,
                           TrafficClass traffic_class, bool mtls);
  /// Feeds downstream bytes into the session's HTTP parser, aborting the
  /// connection on a parse error. `Bytes` is the wire net::Payload (the
  /// body is kept by reference) or decrypted TLS plaintext (copied).
  template <class Bytes>
  void feed_session_parser(ServerSession& session, const Bytes& data);
  /// Upgrades an inbound session to TLS (a ClientHello was sniffed).
  void setup_server_tls(ServerSession& session);
  /// Lazily created shared TLS state (ticket cache, tls_* series); only
  /// meshes that actually enable mTLS ever create it, so legacy metric
  /// snapshots stay byte-identical.
  TlsRuntime& tls_runtime();
  LoadBalancer& balancer_for(const ClusterSpec& spec);
  transport::ConnectionOptions connection_options_for(
      TrafficClass traffic_class) const;
  http::HttpResponse make_local_response(int status, std::string_view body);

  sim::Simulator& sim_;
  cluster::Pod& pod_;
  Tracer& tracer_;
  TelemetrySink* telemetry_;
  SidecarInjectionOptions listener_;
  SidecarConfig config_;
  /// Cache behind config_fingerprint(); dropped by apply_config.
  mutable std::optional<ConfigFingerprint> fingerprint_;
  FilterChain inbound_chain_;
  FilterChain outbound_chain_;
  SidecarStats stats_;

  std::uint64_t next_session_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<ServerSession>> sessions_;
  std::map<PoolKey, std::unique_ptr<HttpClientPool>> pools_;
  std::unique_ptr<HttpClientPool> app_pool_;
  std::map<std::string, std::unique_ptr<LoadBalancer>> balancers_;
  std::map<std::string, std::uint64_t> active_per_endpoint_;
  std::map<std::string, CircuitBreaker> breakers_;
  std::unique_ptr<HealthChecker> health_checker_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<TlsRuntime> tls_runtime_;
  sim::RngStream overhead_rng_;
  sim::RngStream retry_rng_;
  std::string last_config_error_;
  bool started_ = false;
};

}  // namespace meshnet::mesh
