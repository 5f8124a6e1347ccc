#include "mesh/load_balancer.h"

#include <algorithm>

#include "util/strings.h"

namespace meshnet::mesh {

std::string_view lb_policy_name(LbPolicy policy) noexcept {
  switch (policy) {
    case LbPolicy::kRoundRobin:
      return "round-robin";
    case LbPolicy::kRandom:
      return "random";
    case LbPolicy::kLeastRequest:
      return "least-request";
    case LbPolicy::kWeightedRoundRobin:
      return "weighted-round-robin";
  }
  return "?";
}

const cluster::Endpoint* RoundRobinBalancer::pick(
    const std::vector<const cluster::Endpoint*>& candidates,
    const LbContext& /*ctx*/) {
  if (candidates.empty()) return nullptr;
  return candidates[next_++ % candidates.size()];
}

namespace {
constexpr std::string_view kRandomStream = "lb-random";
constexpr std::string_view kLeastRequestStream = "lb-least-request";
}  // namespace

RandomBalancer::RandomBalancer(std::uint64_t seed)
    : seed_(seed), rng_(seed, kRandomStream) {}

void RandomBalancer::reset() { rng_ = sim::RngStream(seed_, kRandomStream); }

const cluster::Endpoint* RandomBalancer::pick(
    const std::vector<const cluster::Endpoint*>& candidates,
    const LbContext& /*ctx*/) {
  if (candidates.empty()) return nullptr;
  return candidates[rng_.uniform_int(0, candidates.size() - 1)];
}

LeastRequestBalancer::LeastRequestBalancer(std::uint64_t seed)
    : seed_(seed), rng_(seed, kLeastRequestStream) {}

void LeastRequestBalancer::reset() {
  rng_ = sim::RngStream(seed_, kLeastRequestStream);
}

const cluster::Endpoint* LeastRequestBalancer::pick(
    const std::vector<const cluster::Endpoint*>& candidates,
    const LbContext& ctx) {
  if (candidates.empty()) return nullptr;
  if (candidates.size() == 1 || !ctx.active_requests) return candidates[0];
  // Power of two choices: sample two distinct indices, keep the emptier.
  const std::uint64_t a = rng_.uniform_int(0, candidates.size() - 1);
  std::uint64_t b = rng_.uniform_int(0, candidates.size() - 2);
  if (b >= a) ++b;
  const std::uint64_t load_a = ctx.active_requests(*candidates[a]);
  const std::uint64_t load_b = ctx.active_requests(*candidates[b]);
  return load_a <= load_b ? candidates[a] : candidates[b];
}

double WeightedRoundRobinBalancer::credit_of(const std::string& pod) const {
  for (const auto& [name, value] : credit_) {
    if (name == pod) return value;
  }
  return 0.0;
}

void WeightedRoundRobinBalancer::set_credit(const std::string& pod,
                                            double value) {
  for (auto& [name, credit] : credit_) {
    if (name == pod) {
      credit = value;
      return;
    }
  }
  credit_.emplace_back(pod, value);
}

const cluster::Endpoint* WeightedRoundRobinBalancer::pick(
    const std::vector<const cluster::Endpoint*>& candidates,
    const LbContext& /*ctx*/) {
  if (candidates.empty()) return nullptr;
  // Smooth WRR: every pick, each candidate gains its weight in credit;
  // the highest-credit candidate is chosen and pays back the total.
  double total_weight = 0.0;
  const cluster::Endpoint* best = nullptr;
  double best_credit = 0.0;
  for (const cluster::Endpoint* ep : candidates) {
    const auto parsed = util::parse_u64(ep->label_or("weight", "1"));
    const double weight =
        parsed && *parsed > 0 ? static_cast<double>(*parsed) : 1.0;
    total_weight += weight;
    const double credit = credit_of(ep->pod_name) + weight;
    set_credit(ep->pod_name, credit);
    if (best == nullptr || credit > best_credit) {
      best = ep;
      best_credit = credit;
    }
  }
  set_credit(best->pod_name, best_credit - total_weight);
  return best;
}

std::unique_ptr<LoadBalancer> make_balancer(LbPolicy policy,
                                            std::uint64_t seed) {
  switch (policy) {
    case LbPolicy::kRandom:
      return std::make_unique<RandomBalancer>(seed);
    case LbPolicy::kLeastRequest:
      return std::make_unique<LeastRequestBalancer>(seed);
    case LbPolicy::kWeightedRoundRobin:
      return std::make_unique<WeightedRoundRobinBalancer>();
    case LbPolicy::kRoundRobin:
    default:
      return std::make_unique<RoundRobinBalancer>();
  }
}

}  // namespace meshnet::mesh
