#pragma once

// Active health checking (Envoy's health_checks, simplified).
//
// Each sidecar probes the endpoints of its upstream clusters on a fixed
// interval over dedicated probe connections (never the data-path pools).
// The probe is an HTTP GET against a path the *remote sidecar* answers
// locally, before its filter chain — so authorization policy cannot 403 a
// probe, and a crashed pod (whose sidecar died with it) fails probes by
// timing out. `unhealthy_threshold` consecutive failures evict the
// endpoint from load balancing; `healthy_threshold` consecutive passes
// re-admit it. Endpoint selection falls back to the full set when every
// endpoint is evicted (panic routing), so health checking can only ever
// narrow choice, never wedge a cluster.
//
// This is the fast path for fault detection: the registry/control-plane
// path (an endpoint being deregistered) models the slow k8s
// node-controller timeline, while probes react within a few intervals.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "mesh/http_client.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace meshnet::mesh {

/// Path answered by the sidecar itself on the inbound listener.
inline constexpr std::string_view kHealthCheckPath = "/__meshnet/health";

struct HealthCheckConfig {
  bool enabled = false;
  sim::Duration interval = sim::milliseconds(500);
  sim::Duration timeout = sim::milliseconds(250);
  /// Consecutive probe failures that evict an endpoint.
  std::uint32_t unhealthy_threshold = 2;
  /// Consecutive probe passes that re-admit an evicted endpoint.
  std::uint32_t healthy_threshold = 2;
};

struct HealthCheckerStats {
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_failed = 0;     ///< non-200, transport error, timeout
  std::uint64_t probes_timed_out = 0;  ///< subset of probes_failed
  std::uint64_t evictions = 0;
  std::uint64_t readmissions = 0;
};

class HealthChecker {
 public:
  /// Fires on every eviction (healthy=false) and re-admission (true).
  using TransitionHook = std::function<void(
      const std::string& cluster, const std::string& pod, bool healthy,
      sim::Time at)>;

  HealthChecker(sim::Simulator& sim, transport::TransportHost& host,
                std::string owner, std::uint64_t seed);
  ~HealthChecker();
  HealthChecker(const HealthChecker&) = delete;
  HealthChecker& operator=(const HealthChecker&) = delete;

  /// Reconciles the probe set for one cluster against a config push.
  /// Existing targets keep their state (health, streaks); new endpoints
  /// start healthy with a staggered first probe; vanished endpoints (or
  /// the whole cluster, when disabled) stop being probed. Probes go to
  /// `probe_port` on each endpoint's IP (the remote inbound listener).
  void update_targets(const std::string& cluster,
                      const HealthCheckConfig& config,
                      const std::vector<cluster::Endpoint>& endpoints,
                      net::Port probe_port);

  /// Drops every target whose cluster is not in `clusters` (config pushes
  /// can remove whole clusters).
  void retain_clusters(const std::vector<std::string>& clusters);

  /// Unknown endpoints are presumed healthy (no probe history yet).
  bool healthy(const std::string& cluster, const std::string& pod) const;

  void set_transition_hook(TransitionHook hook) { hook_ = std::move(hook); }
  const HealthCheckerStats& stats() const noexcept { return stats_; }
  std::size_t target_count() const noexcept { return targets_.size(); }

 private:
  using Key = std::pair<std::string, std::string>;  ///< (cluster, pod)

  struct Target {
    explicit Target(sim::Simulator& sim)
        : next_probe(sim), timeout_timer(sim) {}

    std::string cluster;
    std::string pod;
    net::IpAddress ip = 0;
    net::Port port = 0;
    HealthCheckConfig config;
    bool healthy = true;
    std::uint32_t fails = 0;
    std::uint32_t passes = 0;
    std::uint64_t seq = 0;  ///< guards stale probe callbacks
    sim::Timer next_probe;
    sim::Timer timeout_timer;
    std::unique_ptr<HttpClientPool> pool;
    HttpClientPool::RequestId inflight = 0;
  };

  void detach(Target& target);
  void schedule_probe(const Key& key, sim::Duration delay);
  void run_probe(const Key& key);
  void handle_result(const Key& key, std::uint64_t seq, bool ok);

  sim::Simulator& sim_;
  transport::TransportHost& host_;
  std::string owner_;
  sim::RngStream rng_;
  std::map<Key, std::unique_ptr<Target>> targets_;
  TransitionHook hook_;
  HealthCheckerStats stats_;
};

}  // namespace meshnet::mesh
