#pragma once

// Load-balancing policies for picking an upstream endpoint (paper §2:
// "load balancing between replicas"; ablated by the lb_policies scenario).
//
// Balancers receive the candidate endpoints *after* subset and health
// filtering, plus a view of live per-endpoint state (outstanding request
// counts) maintained by the sidecar's upstream manager.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/service_registry.h"
#include "sim/random.h"

namespace meshnet::mesh {

enum class LbPolicy {
  kRoundRobin,
  kRandom,
  kLeastRequest,
  kWeightedRoundRobin,  ///< weight from endpoint label "weight" (default 1)
};

std::string_view lb_policy_name(LbPolicy policy) noexcept;

/// Live endpoint state exposed to balancers.
struct LbContext {
  /// Outstanding (in-flight) requests per candidate, parallel to the
  /// candidates vector handed to pick().
  std::function<std::uint64_t(const cluster::Endpoint&)> active_requests;
};

class LoadBalancer {
 public:
  virtual ~LoadBalancer() = default;
  virtual std::string name() const = 0;

  /// Picks one endpoint from `candidates` (never empty). Returned pointer
  /// aliases into `candidates`.
  virtual const cluster::Endpoint* pick(
      const std::vector<const cluster::Endpoint*>& candidates,
      const LbContext& ctx) = 0;
};

class RoundRobinBalancer final : public LoadBalancer {
 public:
  std::string name() const override { return "round-robin"; }
  const cluster::Endpoint* pick(
      const std::vector<const cluster::Endpoint*>& candidates,
      const LbContext& ctx) override;

 private:
  std::uint64_t next_ = 0;
};

class RandomBalancer final : public LoadBalancer {
 public:
  explicit RandomBalancer(std::uint64_t seed);
  std::string name() const override { return "random"; }
  const cluster::Endpoint* pick(
      const std::vector<const cluster::Endpoint*>& candidates,
      const LbContext& ctx) override;

 private:
  sim::RngStream rng_;
};

/// Power-of-two-choices least-request (Envoy's default flavor).
class LeastRequestBalancer final : public LoadBalancer {
 public:
  explicit LeastRequestBalancer(std::uint64_t seed);
  std::string name() const override { return "least-request"; }
  const cluster::Endpoint* pick(
      const std::vector<const cluster::Endpoint*>& candidates,
      const LbContext& ctx) override;

 private:
  sim::RngStream rng_;
};

/// Smooth weighted round robin (nginx algorithm); weights come from the
/// endpoint label "weight" (default 1, minimum 1).
class WeightedRoundRobinBalancer final : public LoadBalancer {
 public:
  std::string name() const override { return "weighted-round-robin"; }
  const cluster::Endpoint* pick(
      const std::vector<const cluster::Endpoint*>& candidates,
      const LbContext& ctx) override;

 private:
  /// Current credit per endpoint, keyed by pod name.
  std::vector<std::pair<std::string, double>> credit_;
  double credit_of(const std::string& pod) const;
  void set_credit(const std::string& pod, double value);
};

std::unique_ptr<LoadBalancer> make_balancer(LbPolicy policy,
                                            std::uint64_t seed);

}  // namespace meshnet::mesh
