#pragma once

// The mesh control plane (istiod's role): a central place where the
// operator defines policy, which is compiled into per-sidecar configs and
// pushed to the data plane (xDS-style). It also owns service discovery
// (watching the cluster's ServiceRegistry by version), certificate
// issuance, the tracer, and the telemetry sink — the boxes in the paper's
// Fig. 1.
//
// Config distribution is failure-aware. Every push round mints a config
// *epoch* (monotonic, never reused); each sidecar's compiled config is
// fingerprinted so unchanged sidecars are skipped (delta-aware push), and
// delivered pushes are acked per sidecar. Cluster specs are compiled once
// per epoch into a shared table; compiling one sidecar is its policy
// section plus a (cluster, hash) list pointing into that table. A push
// can be delayed, lost, or dropped (crash / partition); an un-acked push
// is retried with decorrelated-jitter backoff until the sidecar acks the
// current epoch.
// Sidecars that nack a push (validation failure — a poison config) keep
// their last-good config and the control plane rolls policy back to the
// last converged snapshot and pushes a fresh epoch. While the control
// plane is crashed the data plane serves stale-while-revalidate: last
// pushed endpoints keep routing, health checking keeps narrowing choice,
// and on recovery the control plane reconverges with paced, jittered
// pushes rather than a thundering herd.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "mesh/config_delta.h"
#include "mesh/sidecar.h"
#include "mesh/subset.h"
#include "mesh/telemetry.h"
#include "mesh/tracing.h"
#include "obs/metric_registry.h"

namespace meshnet::mesh {

/// Tunables for the failure-aware push channel. The defaults (zero
/// latency, zero loss, no partitions) apply and ack a push before
/// push_config() returns. Callers rely on that: perfbench's control-plane
/// probe times push_config() as the whole push, and five
/// ControlPlaneFixture/DeltaPush tests check the ack right after it.
struct ControlPlaneConfig {
  /// Per-push one-way delivery latency: base + uniform(0, jitter).
  /// 0 base and 0 jitter short-circuits the simulated channel and
  /// applies the config inline.
  sim::Duration push_latency_base = 0;
  sim::Duration push_latency_jitter = 0;
  /// A push whose ack has not arrived within this window is presumed
  /// lost and retried.
  sim::Duration ack_timeout = sim::milliseconds(500);
  /// Post-recovery reconvergence: sidecar i's push launches at
  /// i * pacing + uniform(0, pacing) instead of all at once.
  sim::Duration reconverge_pacing = sim::milliseconds(20);
  /// Probability that a push round-trip is lost in the channel.
  double push_loss = 0.0;
  /// Certificate refresh-ahead fraction: re-issue when this fraction of
  /// the lifetime remains (e.g. 0.2 rotates at 80% of lifetime). 0
  /// disables rotation — certs are issued once, at injection.
  double cert_refresh_ahead = 0.0;
  /// Incremental (xDS delta-style) config push: once a sidecar has acked
  /// a config, later pushes carry only the changed clusters/routes (see
  /// mesh/config_delta.h) instead of the full snapshot. Off by default —
  /// full-snapshot semantics, bit-identical to the legacy channel.
  bool delta_push = false;
};

/// Operator-defined, mesh-wide policy. The PolicySection base is what
/// every sidecar receives (mesh/sidecar.h); the fields below shape the
/// clusters, certificates and push channel the control plane compiles.
struct MeshPolicies : PolicySection {
  LbPolicy default_lb = LbPolicy::kRoundRobin;
  CircuitBreakerConfig breaker;
  /// Active health checking, applied to every cluster (off by default).
  HealthCheckConfig health_check;
  /// Per-cluster LB overrides (cluster name -> policy).
  std::map<std::string, LbPolicy> lb_overrides;
  /// Deterministic endpoint subsetting: bounds how many endpoints of one
  /// cluster a single sidecar tracks (off by default; see mesh/subset.h).
  SubsetConfig subset;
  /// Cluster scoping (Istio's Sidecar resource): if a service has an
  /// entry, its sidecars' configs contain only the listed clusters —
  /// bounding per-sidecar state and health-check fan-out to the services
  /// it actually calls. No entry = every cluster (legacy behaviour).
  std::map<std::string, std::vector<std::string>> cluster_scopes;
  /// Per-service exceptions to the mesh-wide `tls.enabled` default
  /// (service -> on/off). compile_config resolves the effective value per
  /// service into both the server side (the sidecar's inbound listener
  /// accepts TLS) and the client side (every cluster targeting that
  /// service carries ClusterSpec::mtls).
  std::map<std::string, bool> mtls_overrides;
  sim::Duration certificate_lifetime = sim::seconds(24 * 3600);
  /// Sidecar access logging: keep one structured record per N proxied
  /// requests (0 = off). See obs::AccessLog.
  std::uint64_t access_log_sample_every = 0;
  /// Push-channel failure model and cert-rotation policy.
  ControlPlaneConfig cp;
};

class ControlPlane {
 public:
  ControlPlane(sim::Simulator& sim, cluster::Cluster& cluster,
               MeshPolicies policies = {});
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Creates, registers and starts a sidecar for `pod`, with the standard
  /// filter set installed and current discovery state pushed.
  Sidecar& inject_sidecar(cluster::Pod& pod, SidecarInjectionOptions options);

  /// Begins watching the service registry; on every version change the
  /// control plane re-pushes config to all sidecars. `poll_interval`
  /// models xDS discovery latency.
  void start(sim::Duration poll_interval = sim::milliseconds(100));

  /// Mints a new config epoch and launches a push to every sidecar
  /// (delta-aware: sidecars whose compiled config is unchanged are
  /// skipped and implicitly acked).
  void push_config();

  /// Issues (or rotates) a certificate for a service identity. The cert
  /// is retained; rotation reaches sidecars on the next config push.
  Certificate issue_certificate(const std::string& service);

  // --- failure model -----------------------------------------------------

  /// Stops polling, cancels every pending push/retry/rotation timer and
  /// ignores in-flight acks: the control plane is down. The data plane
  /// keeps serving its last-applied config.
  void crash();
  /// Restarts after a crash: resumes polling, re-issues expired certs
  /// and reconverges the mesh with paced, jittered pushes.
  void recover();
  bool crashed() const noexcept { return crashed_; }

  /// Partitions one sidecar from the control plane (pushes to it are
  /// dropped until healed). Healing relaunches a push if it is stale.
  void set_partitioned(const std::string& pod_name, bool partitioned);

  /// Overrides the push-channel loss probability at runtime.
  void set_push_loss(double probability);

  // --- convergence introspection -----------------------------------------

  /// Current config epoch (0 before the first push).
  std::uint64_t epoch() const noexcept { return epoch_; }
  /// True when every running sidecar has acked the current epoch (and
  /// the control plane is up).
  bool converged() const;
  /// Epoch last acked by one sidecar (0 = never acked / unknown pod).
  std::uint64_t acked_epoch(const std::string& pod_name) const;
  /// Fingerprint of the config one sidecar last acked (0 = never acked /
  /// unknown pod).
  std::uint64_t acked_hash(const std::string& pod_name) const;
  /// Sidecars not on the current epoch.
  std::size_t stale_sidecars() const;
  /// Age of the oldest registry change not yet pushed (0 when caught
  /// up). Grows without bound while the control plane is crashed — the
  /// routing-staleness signal the CHAOS_CP experiment samples.
  sim::Duration discovery_staleness() const;
  /// Crash-recovery to full convergence, for the most recent recovery
  /// (0 until a recovery has completed).
  sim::Duration last_reconverge_duration() const noexcept {
    return last_reconverge_;
  }

  /// The current certificate for a service (nullptr before issuance).
  const Certificate* certificate(const std::string& service) const;

  /// Test hook: mutates each compiled config before it is pushed (poison
  /// injection). Cleared automatically when a nack triggers rollback.
  void set_compile_mutator(
      std::function<void(const std::string& pod, SidecarConfig&)> mutator) {
    compile_mutator_ = std::move(mutator);
    cluster_table_.reset();
  }

  /// Operator policy. Non-const access drops the per-epoch cluster table,
  /// so the next compile sees the change; change policy through a fresh
  /// call, not a reference held across compiles of one epoch.
  MeshPolicies& policies() noexcept {
    cluster_table_.reset();
    return policies_;
  }
  /// The unified observability registry every mesh surface records into.
  obs::MetricRegistry& metrics() noexcept { return registry_; }
  const obs::MetricRegistry& metrics() const noexcept { return registry_; }
  Tracer& tracer() noexcept { return tracer_; }
  TelemetrySink& telemetry() noexcept { return telemetry_; }
  cluster::Cluster& cluster() noexcept { return cluster_; }
  const std::vector<std::unique_ptr<Sidecar>>& sidecars() const {
    return sidecars_;
  }
  Sidecar* sidecar_for(const std::string& pod_name);
  /// Push rounds launched: one per epoch, so always epoch().
  std::uint64_t pushes() const noexcept { return epoch_; }

  /// Push-channel byte accounting (modelled wire sizes, see
  /// mesh/config_delta.h), read from the cp_{full,delta}_push* series.
  /// Full-snapshot pushes and delta pushes are counted separately so
  /// experiments can compare the two transports; `delta_fallbacks` counts
  /// deltas that missed their base and were re-sent as full snapshots.
  /// Only pushes that enter the channel count — noop-skips, partitions
  /// and crashes transfer nothing.
  struct PushChannelBytes {
    std::uint64_t full_bytes = 0;
    std::uint64_t delta_bytes = 0;
    std::uint64_t full_pushes = 0;
    std::uint64_t delta_pushes = 0;
    std::uint64_t delta_fallbacks = 0;
  };
  PushChannelBytes push_channel_bytes() const noexcept {
    return {cpm_.full_bytes->value(), cpm_.delta_bytes->value(),
            cpm_.full_pushes->value(), cpm_.delta_pushes->value(),
            cpm_.delta_fallbacks->value()};
  }
  /// Sim time when the mesh most recently reached full convergence
  /// (every sidecar acked the then-current epoch); 0 until then.
  sim::Time last_converged_at() const noexcept { return last_converged_at_; }

 private:
  /// Per-sidecar push channel state, keyed by pod name. Entries are never
  /// erased, so `states_` and the push timers point at them directly.
  struct PushState {
    /// Null for a pod partitioned before its sidecar was injected.
    Sidecar* sidecar = nullptr;
    /// sidecar_config_epoch{pod}, created on the first ack or skip.
    obs::Gauge* epoch_gauge = nullptr;
    std::uint64_t acked_epoch = 0;
    std::uint64_t acked_hash = 0;  ///< fingerprint of last acked config
    int attempt = 0;               ///< retries since the last ack
    sim::Duration prev_backoff = 0;
    sim::EventId delivery_timer = sim::kInvalidEventId;
    sim::EventId ack_timer = sim::kInvalidEventId;
    sim::EventId retry_timer = sim::kInvalidEventId;
    bool partitioned = false;
    /// Fingerprint of the last config this sidecar acked, kept only
    /// under cp.delta_push: the base future deltas are diffed against.
    std::optional<ConfigFingerprint> acked;
    /// Forces the next push to carry a full snapshot (set after a delta
    /// base/target mismatch; cleared once a full push is launched).
    bool force_full = false;
  };

  /// A cluster spec and its hash_cluster_spec.
  struct CompiledSpec {
    ClusterSpec spec;
    std::uint64_t hash = 0;
  };
  /// One registry service, compiled.
  struct TableCluster {
    CompiledSpec full;
    /// The subscribers whose endpoint subset is narrower than the full
    /// set, by pod name (empty unless policies.subset applies).
    std::map<std::string, CompiledSpec> narrowed;
  };
  /// Every registry service compiled for one (epoch, registry version),
  /// so cluster work is done once per epoch, not once per sidecar.
  struct ClusterTable {
    std::uint64_t epoch = 0;
    std::uint64_t registry_version = 0;
    std::vector<TableCluster> clusters;  ///< registry (name) order
  };

  /// The cluster table for the current epoch and registry version,
  /// rebuilt when either moved on or the table was dropped.
  const ClusterTable& cluster_table();
  CompiledConfig compile_config(const Sidecar& sidecar);
  /// Effective mTLS setting for `service`: per-service override if
  /// present, else the mesh-wide default (policies_.tls.enabled).
  bool mtls_enabled_for(const std::string& service) const;
  void poll_registry();
  /// Mints the next epoch and records the registry version it covers.
  void begin_epoch();
  /// Compiles + fingerprints + delivers (or drops) one sidecar's push
  /// for the current epoch.
  void launch_push(PushState& state);
  void deliver_push(PushState& state, SidecarConfig config,
                    ConfigFingerprint target);
  /// Delivers an incremental push; on base/target mismatch falls back to
  /// an immediate full-snapshot re-push (no rollback — the mismatch is a
  /// transport artefact, not a poison config).
  void deliver_delta(PushState& state, ConfigDelta delta,
                     ConfigFingerprint target);
  void handle_ack(PushState& state, std::uint64_t epoch, std::uint64_t hash);
  void handle_nack(PushState& state, std::uint64_t epoch,
                   const std::string& reason);
  void schedule_retry(PushState& state);
  /// Relaunches the push after `delay` on the state's retry timer.
  void schedule_relaunch(PushState& state, sim::Duration delay);
  /// Retries the push unless an ack arrives within cp.ack_timeout.
  void arm_ack_timeout(PushState& state);
  /// Publishes `state.acked_epoch` as sidecar_config_epoch{pod}.
  void publish_acked_epoch(PushState& state);
  void cancel_push_timers(PushState& state);
  void check_convergence();
  void update_staleness_gauges();
  void schedule_cert_rotation(const std::string& service);
  void record_event(obs::EventKind kind, const std::string& subject,
                    const std::string& detail);

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  MeshPolicies policies_;
  /// Declared before the tracer/telemetry adapters that record into it.
  obs::MetricRegistry registry_;
  Tracer tracer_{&registry_};
  TelemetrySink telemetry_{&registry_};
  std::vector<std::unique_ptr<Sidecar>> sidecars_;
  std::map<std::string, PushState> push_state_;
  /// The push_state_ entry of each of sidecars_, index for index.
  std::vector<PushState*> states_;
  /// Dropped by policies(), set_compile_mutator, a rollback and, under
  /// subsetting, an injection (the subscriber set changed).
  std::optional<ClusterTable> cluster_table_;
  struct IssuedCert {
    Certificate cert;
    /// cert_seconds_to_expiry{service}, interned at first issue.
    obs::Gauge* seconds_to_expiry = nullptr;
  };
  std::map<std::string, IssuedCert> certs_;
  std::map<std::string, sim::EventId> cert_timers_;
  std::function<void(const std::string&, SidecarConfig&)> compile_mutator_;

  std::uint64_t last_registry_version_ = 0;
  std::uint64_t next_serial_ = 1;
  std::uint64_t epoch_ = 0;
  /// Epoch whose nack already triggered a rollback (rollback fires at
  /// most once per poisoned epoch even when several sidecars nack it).
  std::uint64_t rolled_back_epoch_ = 0;
  /// A nack may trigger at most one rollback per converged generation,
  /// so a persistently-invalid input degrades to paced retries instead
  /// of an unbounded rollback->push->nack cycle.
  bool rollback_armed_ = true;
  /// Policy snapshot from the last fully-converged epoch — the rollback
  /// target when a later push is nacked.
  MeshPolicies last_good_policies_;
  bool have_last_good_ = false;
  bool crashed_ = false;
  bool pending_reconverge_ = false;
  sim::Time recovered_at_ = 0;
  sim::Duration last_reconverge_ = 0;
  sim::Time last_converged_at_ = 0;
  /// When the oldest un-pushed registry change landed (0 = caught up).
  sim::Time pending_change_since_ = 0;
  sim::EventId poll_timer_ = sim::kInvalidEventId;
  sim::Duration poll_interval_ = 0;
  bool started_ = false;
  sim::RngStream push_rng_;
  sim::RngStream pace_rng_;

  struct CpMetrics {
    obs::Counter* attempts = nullptr;
    obs::Counter* acks = nullptr;
    obs::Counter* nacks = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* skipped_noop = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* rollbacks = nullptr;
    obs::Counter* cert_rotations = nullptr;
    obs::Counter* crashes = nullptr;
    obs::Counter* recoveries = nullptr;
    obs::Gauge* epoch = nullptr;
    obs::Gauge* stale = nullptr;
    obs::Gauge* reconverge_ms = nullptr;
    /// Interned at the first registry poll, not at construction, so a
    /// control plane that never polls exports no staleness series.
    obs::Gauge* discovery_staleness = nullptr;
    // The push channel (push_channel_bytes() reads these).
    obs::Counter* full_pushes = nullptr;
    obs::Counter* delta_pushes = nullptr;
    obs::Counter* delta_fallbacks = nullptr;
    obs::Counter* full_bytes = nullptr;
    obs::Counter* delta_bytes = nullptr;
    // Endpoint subsetting (zero unless policies.subset applies).
    obs::Counter* subset_assignments = nullptr;
    obs::Counter* subset_repairs = nullptr;
  } cpm_;
};

}  // namespace meshnet::mesh
