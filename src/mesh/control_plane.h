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
// fingerprinted so unchanged sidecars are skipped and implicitly acked,
// and delivered pushes are acked per sidecar. Cluster specs are compiled
// once per epoch into a table of immutable shared specs (mesh/sidecar.h
// ClusterSpecRef); compiling one sidecar is its policy section plus a
// walk over that table, and every config, push and running sidecar holds
// the table's objects by reference. Every push is one mesh::ConfigPush
// (mesh/config_delta.h): a replace carrying the whole config, or — under
// cp.delta_push, once the sidecar acked a base — a delta against it. A
// push can be delayed, lost, or dropped (control plane or pod down); an
// un-acked push is retried with decorrelated-jitter backoff until the
// sidecar acks the current epoch.
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
#include "sim/timer.h"

namespace meshnet::mesh {

/// How often the control plane polls the service registry for changes;
/// models xDS discovery latency.
inline constexpr sim::Duration kPollInterval = sim::milliseconds(100);

/// Post-recovery reconvergence: sidecar i's push launches at
/// i * kReconvergePacing + uniform(0, kReconvergePacing) instead of all at
/// once.
inline constexpr sim::Duration kReconvergePacing = sim::milliseconds(25);

/// Tunables for the failure-aware push channel. The defaults (zero
/// latency, zero loss) apply and ack a push before
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
  /// Probability that a push round-trip is lost in the channel.
  double push_loss = 0.0;
  /// Certificate refresh-ahead fraction: re-issue when this fraction of
  /// the lifetime remains (e.g. 0.2 rotates at 80% of lifetime). 0
  /// disables rotation — certs are issued once, at injection.
  double cert_refresh_ahead = 0.0;
  /// Incremental (xDS delta-style) config push: once a sidecar has acked
  /// a config, later pushes are deltas against it carrying only what
  /// changed (see mesh/config_delta.h). Off by default: every push is a
  /// replace carrying the whole config.
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
  /// control plane re-pushes config to all sidecars. It polls every
  /// kPollInterval.
  void start();

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

  /// Operator policy. Non-const access marks the per-epoch cluster table
  /// and every compiled policy stale, so the next compile sees the
  /// change; change policy through a fresh call, not a reference held
  /// across compiles.
  MeshPolicies& policies() noexcept {
    cluster_table_.stale = true;
    ++policy_generation_;
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
  /// Replaces (`full_*`) and deltas are counted separately so
  /// experiments can compare the two shapes; `delta_fallbacks` counts
  /// deltas that missed their base and were re-sent as replaces.
  /// Only pushes that enter the channel count — noop-skips and pushes to
  /// a crashed pod transfer nothing.
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
    explicit PushState(sim::Simulator& sim)
        : delivery_timer(sim), ack_timer(sim), retry_timer(sim) {}
    /// Cancels every pending timer and drops the parked push.
    void disarm_timers() {
      delivery_timer.disarm();
      ack_timer.disarm();
      retry_timer.disarm();
      push.reset();
    }

    /// Set at injection, before the state joins `states_`.
    Sidecar* sidecar = nullptr;
    /// This state's index in `stale_` while it is not on the current
    /// epoch, else kCurrent.
    std::size_t stale_slot = kCurrent;
    /// sidecar_config_epoch{pod}, created on the first ack or skip.
    obs::Gauge* epoch_gauge = nullptr;
    std::uint64_t acked_epoch = 0;
    std::uint64_t acked_hash = 0;  ///< fingerprint of last acked config
    int attempt = 0;               ///< retries since the last ack
    sim::Duration prev_backoff = 0;
    sim::Timer delivery_timer;
    sim::Timer ack_timer;
    sim::Timer retry_timer;
    /// The last config this sidecar acked, kept only under
    /// cp.delta_push: the base future deltas are diffed against. Reset by
    /// a delta fallback, so the next push is a replace.
    std::optional<AckedConfig> acked;
    /// The push in the channel (set while it waits out its delivery
    /// latency) and the fingerprint it must produce, parked here so the
    /// delivery timer captures only the state.
    std::optional<ConfigPush> push;
    ConfigFingerprint target;
  };

  static constexpr std::size_t kCurrent = static_cast<std::size_t>(-1);

  /// Every registry service compiled for one (epoch, registry version),
  /// so cluster work is done once per epoch, not once per sidecar.
  struct ClusterTable {
    std::uint64_t epoch = 0;
    std::uint64_t registry_version = 0;
    /// Set by policies() and a rollback; a stale table is rebuilt.
    bool stale = true;
    std::vector<EpochCluster> clusters;  ///< registry (name) order
    /// Per scoped service: the indices of `clusters` its scope admits,
    /// ascending (the scope set, built once per table).
    std::map<std::string, std::vector<std::size_t>, std::less<>> scopes;
    /// Per cluster that endpoint subsetting narrows: its subscribers'
    /// pod names, sorted (empty for every other cluster).
    std::vector<std::vector<std::string>> subscribers;
  };

  /// The cluster table for the current epoch and registry version,
  /// rebuilt when either moved on or the table went stale. Its specs come
  /// from `spec_pool_`, so an unchanged cluster keeps its object.
  const ClusterTable& cluster_table();
  /// The indices `service`'s scope admits (nullptr: every cluster).
  const std::vector<std::size_t>* scope_of(const ClusterTable& table,
                                           const std::string& service) const;
  /// Does endpoint subsetting narrow `spec` at all?
  bool subsets(const ClusterSpec& spec) const;
  /// Adds `sidecar` to the subscribers of every narrowed cluster its scope
  /// admits, re-deriving those clusters' subsets when `reassign` is set.
  void subscribe(ClusterTable& table, const Sidecar& sidecar, bool reassign);
  /// Recomputes cluster `index`'s narrowed specs from its subscribers.
  void assign_subsets(ClusterTable& table, std::size_t index);
  /// One service's pushed policy, compiled once and shared by every
  /// compile of its sidecars until it goes stale.
  struct CompiledPolicy {
    SidecarPolicy policy;    ///< epoch 0: each compile carries its own
    std::uint64_t hash = 0;  ///< hash_policy_section(policy)
    // What it was compiled from: the policy generation, the service's
    // mTLS resolution and its certificate serial (0: no certificate).
    std::uint64_t generation = 0;
    bool mtls = false;
    std::uint64_t cert_serial = 0;
  };
  /// `service`'s compiled policy, recompiled only when the mesh policy,
  /// the service's mTLS resolution or its certificate serial changed, so
  /// an unchanged compile copies no policy.
  const CompiledPolicy& compiled_policy(const std::string& service);
  CompiledConfig compile_config(const Sidecar& sidecar);
  /// Effective mTLS setting for `service`: per-service override if
  /// present, else the mesh-wide default (policies_.tls.enabled).
  bool mtls_enabled_for(const std::string& service) const;
  void poll_registry();
  /// Mints the next epoch and records the registry version it covers.
  void begin_epoch();
  /// Compiles + fingerprints one sidecar's push for the current epoch
  /// (a delta when cp.delta_push has an acked base, else a replace),
  /// then delivers, delays or drops it.
  void launch_push(PushState& state);
  /// Applies the state's parked push to its sidecar and acks or nacks
  /// it. A delta whose base or target mismatched falls back to an
  /// immediate replace (no rollback — the mismatch is a transport
  /// artefact, not a poison config).
  void deliver(PushState& state);
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
  /// Sets `state.acked_epoch`, keeping `stale_` in step.
  void set_acked_epoch(PushState& state, std::uint64_t epoch);
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
  /// The states not on the current epoch, in no order: the stale count is
  /// its size, and convergence checks only these.
  std::vector<PushState*> stale_;
  ClusterSpecPool spec_pool_;
  ClusterTable cluster_table_;
  /// Bumped by non-const policies() and by a rollback.
  std::uint64_t policy_generation_ = 0;
  std::map<std::string, CompiledPolicy, std::less<>> compiled_policies_;
  struct IssuedCert {
    explicit IssuedCert(sim::Simulator& sim) : rotation_timer(sim) {}

    Certificate cert;
    /// cert_seconds_to_expiry{service}, interned at first issue.
    obs::Gauge* seconds_to_expiry = nullptr;
    /// Re-issues the certificate cp.cert_refresh_ahead before expiry.
    sim::Timer rotation_timer;
  };
  std::map<std::string, IssuedCert> certs_;

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
  /// target when a later push is nacked — and the policy_generation_ it
  /// was copied at.
  MeshPolicies last_good_policies_;
  std::uint64_t last_good_generation_ = 0;
  bool have_last_good_ = false;
  bool crashed_ = false;
  bool pending_reconverge_ = false;
  sim::Time recovered_at_ = 0;
  sim::Duration last_reconverge_ = 0;
  sim::Time last_converged_at_ = 0;
  /// When the oldest un-pushed registry change landed (0 = caught up).
  sim::Time pending_change_since_ = 0;
  sim::Timer poll_timer_;
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
