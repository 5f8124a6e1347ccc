#pragma once

// The sidecar proxy (Envoy's role in Istio).
//
// Every pod gets one. It owns two listeners:
//  * inbound  (pod_ip:15006) — remote sidecars connect here; requests run
//    the inbound filter chain (tracing, provenance, admission) and are then
//    forwarded to the colocated app over the pod-local loopback.
//  * outbound (pod_ip:15001) — the local app sends its sub-requests here;
//    requests run the outbound filter chain (classification, provenance,
//    priority routing), go to the upstream cluster their Host header
//    names, an endpoint is picked (subset + circuit breaker + load balancer),
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
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
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
};

/// Next retry sleep for attempt number `attempt` (1-based: the first
/// retry passes 1): AWS-style decorrelated jitter, sleep =
/// uniform(base, 3 * prev), where `prev` is the previous sleep (0 on the
/// first retry). Jitter avoids synchronized retry storms. Clamped to
/// [backoff_base, backoff_max]; a backoff_max of 0 caps at base * attempt.
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

  bool operator==(const ClusterSpec&) const = default;
};

/// Fingerprint of one cluster's spec (name, endpoints, LB, breaker, health
/// check, mTLS) — the unit of change a ConfigPush carries.
std::uint64_t hash_cluster_spec(const ClusterSpec& spec);

/// Dense integer ids for cluster and pod names: each name gets the next
/// id the first time it is seen, and keeps it for the table's lifetime (an
/// id is never renumbered or reused). The control plane's spec pool stamps
/// them into every spec it builds, so the data path keys per-cluster and
/// per-endpoint state by integer. Ids are never hashed or sent on the
/// wire: fingerprints and modelled push bytes do not see them.
class NameIds {
 public:
  std::uint32_t cluster(std::string_view name) {
    return intern(clusters_, name);
  }
  std::uint32_t pod(std::string_view name) { return intern(pods_, name); }

 private:
  using Table = std::map<std::string, std::uint32_t, std::less<>>;
  static std::uint32_t intern(Table& table, std::string_view name);

  Table clusters_;
  Table pods_;
};

/// A compiled cluster spec shared by reference: immutable once built, with
/// its hash_cluster_spec computed by the constructor from the content and
/// never set afterwards, so every holder may trust hash() without
/// rehashing. Every ref comes from a ClusterSpecPool, so equal content is
/// one object; compiled configs, pushes and each sidecar's running config
/// hold pointers to it instead of copies. A sidecar's clusters must all
/// come from one pool (its control plane's), so that an id names one
/// cluster.
class ClusterSpecRef {
 public:
  const ClusterSpec& operator*() const noexcept { return shared_->spec; }
  const ClusterSpec* operator->() const noexcept { return &shared_->spec; }
  std::uint64_t hash() const noexcept { return shared_->hash; }
  /// The cluster's id in its pool's NameIds.
  std::uint32_t cluster_id() const noexcept { return shared_->cluster_id; }
  /// The pod id of `(*this)->endpoints[i]`.
  std::uint32_t pod_id(std::size_t i) const noexcept {
    return shared_->pod_ids[i];
  }
  /// True when both refs point at one object (so their content is equal).
  bool same_object(const ClusterSpecRef& other) const noexcept {
    return shared_ == other.shared_;
  }

 private:
  friend class ClusterSpecPool;
  struct Shared {
    Shared(ClusterSpec s, NameIds& ids);
    const ClusterSpec spec;
    const std::uint64_t hash;
    const std::uint32_t cluster_id;
    const std::vector<std::uint32_t> pod_ids;  ///< parallel to endpoints
  };
  explicit ClusterSpecRef(std::shared_ptr<const Shared> shared)
      : shared_(std::move(shared)) {}
  std::shared_ptr<const Shared> shared_;
};

/// Hash-consing for cluster specs: get() returns the live object with
/// equal content when one exists, else a new one stamped with this pool's
/// ids. An unchanged cluster therefore keeps its object across epochs and
/// across the sidecars that hold it, and a content change is a pointer
/// change.
class ClusterSpecPool {
 public:
  ClusterSpecRef get(ClusterSpec spec);

 private:
  std::unordered_multimap<std::uint64_t,
                          std::weak_ptr<const ClusterSpecRef::Shared>>
      objects_;  ///< by hash; entries of dead objects are swept lazily
  std::size_t sweep_at_ = 64;
  NameIds ids_;
};

/// A config's clusters in name order, each keyed by its own spec's name,
/// with value semantics over shared specs: copying a map copies pointers,
/// not specs. Read access yields `(name, const ClusterSpec&)` pairs like a
/// std::map would.
class ClusterMap {
  using Entries = std::vector<ClusterSpecRef>;

 public:
  using value_type = std::pair<const std::string&, const ClusterSpec&>;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ClusterMap::value_type;
    using difference_type = std::ptrdiff_t;
    using reference = value_type;
    struct pointer {
      value_type pair;
      const value_type* operator->() const noexcept { return &pair; }
    };

    const_iterator() = default;
    value_type operator*() const { return {(*it_)->name, **it_}; }
    pointer operator->() const { return {**this}; }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    bool operator==(const const_iterator&) const = default;
    /// The shared spec behind this entry.
    const ClusterSpecRef& shared() const noexcept { return *it_; }

   private:
    friend class ClusterMap;
    explicit const_iterator(Entries::const_iterator it) : it_(it) {}
    Entries::const_iterator it_;
  };

  const_iterator begin() const { return const_iterator(entries_.begin()); }
  const_iterator end() const { return const_iterator(entries_.end()); }
  const_iterator find(std::string_view name) const;
  bool contains(std::string_view name) const { return find(name) != end(); }
  /// Throws std::out_of_range when `name` is absent.
  const ClusterSpec& at(std::string_view name) const;

  /// The shared spec behind `name` (nullptr when absent).
  const ClusterSpecRef* ref(std::string_view name) const;
  /// Appends `ref`; its name must sort after every present name (building
  /// a map from a name-ordered walk).
  void append(ClusterSpecRef ref);
  /// Inserts `ref`, replacing the entry of the same name.
  void put(ClusterSpecRef ref);
  /// Removes `name`; false when absent.
  bool erase(std::string_view name);
  void clear() noexcept { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

 private:
  Entries::const_iterator lower_bound(std::string_view name) const;

  Entries entries_;  ///< sorted by name, names unique
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
/// compiled for. A push carries it whole: a replace always, a delta when
/// its hash changed.
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

/// The config one sidecar runs: its policy plus the clusters. A request's
/// Host header names its cluster.
struct SidecarConfig : SidecarPolicy {
  ClusterMap clusters;
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

struct ConfigPush;  // mesh/config_delta.h

/// Sanity-checks what a push carries (its policy, when it has one, and
/// its clusters) before any of it reaches the running config; the parts
/// a delta leaves alone passed when they were pushed. Returns an empty
/// string when valid, else a human-readable reason — the sidecar nacks
/// the push and keeps its last-good config (the control plane rolls back
/// on nack).
std::string validate_config(const ConfigPush& push);

/// Structural fingerprint of a compiled config. Epoch is excluded (two
/// epochs with identical payloads hash equal, which is what lets the
/// control plane skip no-op pushes); the certificate serial is included
/// so rotation propagates as a real push. Hooks contribute only their
/// presence (std::function has no stable content identity). It is
/// compose_config_hash of a ConfigFingerprint, so the delta push
/// (mesh/config_delta.h) patches the same fingerprint the no-op skip
/// compares.
std::uint64_t hash_sidecar_config(const SidecarConfig& config);

/// Fingerprint of everything in a config that is not a cluster (service
/// name, policy section, cert serial).
std::uint64_t hash_policy_section(const SidecarPolicy& policy);

/// One cluster's share of ConfigFingerprint::cluster_sum: an avalanche
/// mix of its hash_cluster_spec, which hashes the cluster's name first
/// (a ClusterMap keys each spec by its own name).
std::uint64_t cluster_term(std::uint64_t spec_hash) noexcept;

/// hash_sidecar_config kept in its parts. The cluster part is an
/// order-independent sum of per-cluster terms, so a change to k clusters
/// moves it by k subtractions and k additions: the control plane compiles
/// and diffs, and a sidecar verifies a delta, in O(changed clusters)
/// without rehashing the clusters a push leaves alone.
struct ConfigFingerprint {
  std::uint64_t policy_hash = 0;  ///< hash_policy_section
  std::uint64_t cluster_sum = 0;  ///< sum of cluster_term (mod 2^64)
  /// compose_config_hash of the parts above.
  std::uint64_t hash = 0;
};

/// The fingerprint of `config`, computed from its content (each spec
/// contributes its memoized hash).
ConfigFingerprint fingerprint_config(const SidecarConfig& config);

/// The config hash `parts` describe (ignores `parts.hash`).
std::uint64_t compose_config_hash(const ConfigFingerprint& parts);

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
  std::uint64_t configs_rejected = 0;  ///< refused pushes, for any reason
  std::uint64_t deltas_applied = 0;    ///< incremental pushes applied
  /// Delta pushes refused because the base/target fingerprint did not
  /// match (the control plane falls back to a replace).
  std::uint64_t delta_mismatches = 0;
  /// Second-level panic picks: every health-admitted endpoint was
  /// breaker-rejected, so the pick fell back to the full endpoint set.
  std::uint64_t panic_picks = 0;
};

class Sidecar {
 public:
  /// Runs `service_name` on `pod`. The listeners are fixed here; policy
  /// and clusters arrive by apply_config.
  Sidecar(sim::Simulator& sim, cluster::Pod& pod, Tracer& tracer,
          TelemetrySink* telemetry, std::string service_name,
          SidecarInjectionOptions listener);
  ~Sidecar();
  Sidecar(const Sidecar&) = delete;
  Sidecar& operator=(const Sidecar&) = delete;

  /// Opens the listeners. Call once after construction.
  void start();

  /// Applies a config push (an xDS push, mesh/config_delta.h), a replace
  /// or a delta. Checks, in order: the epoch is not stale; a delta's
  /// `base_hash` matches the running config's fingerprint; `target_hash`
  /// matches the fingerprint this sidecar computes itself from the
  /// content it received; what the push carries validates
  /// (validate_config). Returns false — running config untouched — on the
  /// first failed check, and `last_config_error()` says why
  /// ("stale-epoch", "delta-base-mismatch", "delta-target-mismatch" —
  /// the control plane falls back to a replace — "target-mismatch" for
  /// a replace, or the validation error). Otherwise it moves the pushed
  /// policy out of `push` and shares its cluster specs: a replace drops
  /// every running cluster it does not hold, a delta patches the running
  /// config in place. Health checking is re-targeted only at clusters
  /// whose spec object changed, then dropped for the removed ones.
  bool apply_config(ConfigPush& push);

  /// Fingerprint of the running config: computed from the content of
  /// every applied push (patched, for a delta).
  const ConfigFingerprint& config_fingerprint() const noexcept {
    return fingerprint_;
  }

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

  /// Outstanding upstream requests to one endpoint of the running
  /// config (what the least-request balancer reads).
  std::uint64_t active_requests_to(std::string_view pod_name) const;

  /// The breaker guarding one endpoint of a running cluster; null until
  /// the sidecar first picked that endpoint.
  const CircuitBreaker* breaker(std::string_view cluster_name,
                                std::string_view pod_name) const;

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
    std::uint32_t upstream_cluster = kNoCluster;
    std::uint32_t upstream_pod = 0;
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

  /// One endpoint of an upstream cluster.
  struct EndpointState {
    std::uint32_t id = 0;  ///< the pod's id
    std::uint64_t active = 0;  ///< outstanding requests to the endpoint
    /// Created with the cluster's breaker config at the first pick.
    std::optional<CircuitBreaker> breaker;
  };

  /// What the sidecar keeps for one cluster it has called: created when
  /// the first request is routed there and kept for the sidecar's life,
  /// also while a push leaves the cluster out, so its breakers survive.
  struct UpstreamSlot {
    std::uint32_t id = kNoCluster;  ///< the cluster's id
    std::string name;
    /// The running config's spec for this cluster, resolved by name once
    /// per applied push (null while the config has no such cluster).
    const ClusterSpecRef* spec = nullptr;
    /// Computed once from the service and cluster names.
    std::uint64_t balancer_seed = 0;
    /// Restarted in place by every applied push, and rebuilt only when
    /// the cluster's LB policy changes.
    std::unique_ptr<LoadBalancer> balancer;
    LbPolicy balancer_policy = LbPolicy::kRoundRobin;
    std::vector<EndpointState> endpoints;  ///< sorted by id
    /// The edge's telemetry series, resolved at its first recorded
    /// request (interning them earlier would add series).
    TelemetrySink::Route telemetry;
  };

  using Ctx = std::shared_ptr<RequestContext>;

  /// Counts a refused push and records why; returns false.
  bool reject_config(std::string reason);
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
                       std::uint32_t cluster_id, http::HttpResponse response);
  /// Re-targets health checking after a push: first each of `pushed`
  /// whose spec object `replaced` (what a replace replaced; empty
  /// otherwise) does not hold, in name order; then drops the targets of
  /// the clusters that left: those of `replaced` missing from `pushed`,
  /// in name order, then each of a delta's `removals` the running config
  /// no longer holds.
  void retarget_health(const ClusterMap& pushed, const ClusterMap& replaced,
                       const std::vector<std::string>& removals);
  void attempt_upstream(std::uint64_t session_id, Ctx ctx);
  void on_request_deadline(std::uint64_t session_id, Ctx ctx,
                           std::uint64_t seq);
  void on_upstream_result(std::uint64_t session_id, Ctx ctx,
                          std::uint32_t cluster_id, std::uint32_t pod_id,
                          std::optional<http::HttpResponse> response,
                          const std::string& error);
  /// Fills `out` with the endpoints of `spec` a pick may choose from, in
  /// spec order: health-admitted ones (all when none is, or when
  /// `ignore_health`), narrowed to the request's subset when any matches.
  void eligible_endpoints(const ClusterSpec& spec, const RequestContext& ctx,
                          bool ignore_health,
                          std::vector<const cluster::Endpoint*>& out);
  /// The slot of `spec`'s cluster, created on first use.
  UpstreamSlot& slot_for(const ClusterSpecRef& spec);
  /// Points `slot` at the running config's spec and restarts its
  /// balancer, as after a fresh build.
  void bind_slot(UpstreamSlot& slot);
  /// The state of `slot`'s endpoint `pod_id`, created on first use.
  static EndpointState& endpoint_state(UpstreamSlot& slot,
                                       std::uint32_t pod_id);
  /// The breaker guarding `state`, `ep` of `slot`'s running spec; created
  /// on first use.
  CircuitBreaker& breaker_for(const UpstreamSlot& slot, EndpointState& state,
                              const cluster::Endpoint& ep);
  /// The pool to `endpoint`'s inbound sidecar listener.
  HttpClientPool& pool_for(const cluster::Endpoint& endpoint,
                           TrafficClass traffic_class, bool mtls);
  /// Feeds downstream bytes into the session's HTTP parser, aborting the
  /// connection on a parse error. `data` is a wire segment or a decrypted
  /// TLS record; either way the parser keeps a body by reference.
  void feed_session_parser(ServerSession& session, const net::Payload& data);
  /// Upgrades an inbound session to TLS (a ClientHello was sniffed).
  void setup_server_tls(ServerSession& session);
  /// Lazily created shared TLS state (ticket cache, tls_* series); only
  /// meshes that actually enable mTLS ever create it, so legacy metric
  /// snapshots stay byte-identical.
  TlsRuntime& tls_runtime();
  transport::ConnectionOptions connection_options_for(
      TrafficClass traffic_class) const;
  http::HttpResponse make_local_response(int status, std::string_view body);

  sim::Simulator& sim_;
  cluster::Pod& pod_;
  Tracer& tracer_;
  TelemetrySink* telemetry_;
  SidecarInjectionOptions listener_;
  SidecarConfig config_;
  ConfigFingerprint fingerprint_;  ///< of config_
  FilterChain inbound_chain_;
  FilterChain outbound_chain_;
  SidecarStats stats_;

  std::uint64_t next_session_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<ServerSession>> sessions_;
  std::map<PoolKey, std::unique_ptr<HttpClientPool>> pools_;
  std::unique_ptr<HttpClientPool> app_pool_;
  std::vector<UpstreamSlot> slots_;  ///< sorted by id
  /// Reused by every attempt's endpoint pick, so a pick allocates only
  /// while they grow: the eligible endpoints, and the ones a tier of the
  /// pick still considers.
  std::vector<const cluster::Endpoint*> candidates_;
  std::vector<const cluster::Endpoint*> pick_pool_;
  std::unique_ptr<HealthChecker> health_checker_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<TlsRuntime> tls_runtime_;
  sim::RngStream overhead_rng_;
  sim::RngStream retry_rng_;
  std::string last_config_error_;
  bool started_ = false;
};

}  // namespace meshnet::mesh
