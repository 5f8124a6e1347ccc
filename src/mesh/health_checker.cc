#include "mesh/health_checker.h"

#include <set>
#include <utility>

namespace meshnet::mesh {

HealthChecker::HealthChecker(sim::Simulator& sim,
                             transport::TransportHost& host, std::string owner,
                             std::uint64_t seed)
    : sim_(sim),
      host_(host),
      owner_(std::move(owner)),
      rng_(seed, "health:" + owner_) {}

HealthChecker::~HealthChecker() {
  for (auto& [key, target] : targets_) detach(*target);
}

void HealthChecker::detach(Target& target) {
  target.next_probe.disarm();
  target.timeout_timer.disarm();
  if (target.inflight != 0 && target.pool) {
    target.pool->cancel(target.inflight);
    target.inflight = 0;
  }
  // Invalidate any callback still in flight.
  ++target.seq;
}

void HealthChecker::update_targets(
    const std::string& cluster, const HealthCheckConfig& config,
    const std::vector<cluster::Endpoint>& endpoints, net::Port probe_port) {
  std::set<std::string> seen;
  if (config.enabled) {
    for (const cluster::Endpoint& ep : endpoints) {
      seen.insert(ep.pod_name);
      const Key key{cluster, ep.pod_name};
      const auto it = targets_.find(key);
      if (it != targets_.end()) {
        Target& existing = *it->second;
        if (existing.ip == ep.ip && existing.port == probe_port) {
          existing.config = config;  // pick up tuning changes, keep state
          continue;
        }
        detach(existing);  // address changed: treat as a new endpoint
        targets_.erase(it);
      }
      auto target = std::make_unique<Target>(sim_);
      target->cluster = cluster;
      target->pod = ep.pod_name;
      target->ip = ep.ip;
      target->port = probe_port;
      target->config = config;
      HttpClientPool::Options options;
      // A timed-out probe aborts its connection; allow one spare so the
      // next probe never queues behind the teardown.
      options.max_connections = 2;
      target->pool = std::make_unique<HttpClientPool>(
          sim_, host_, net::SocketAddress{ep.ip, probe_port}, options,
          owner_ + ":hc->" + ep.pod_name);
      targets_.emplace(key, std::move(target));
      // Stagger the first probe across [0, interval) so a fleet of
      // checkers does not synchronize.
      const auto first = static_cast<sim::Duration>(
          rng_.uniform() * static_cast<double>(config.interval));
      schedule_probe(key, first);
    }
  }
  for (auto it = targets_.begin(); it != targets_.end();) {
    if (it->first.first == cluster && seen.count(it->first.second) == 0) {
      detach(*it->second);
      it = targets_.erase(it);
    } else {
      ++it;
    }
  }
}

void HealthChecker::retain_clusters(const std::vector<std::string>& clusters) {
  const std::set<std::string> keep(clusters.begin(), clusters.end());
  for (auto it = targets_.begin(); it != targets_.end();) {
    if (keep.count(it->first.first) == 0) {
      detach(*it->second);
      it = targets_.erase(it);
    } else {
      ++it;
    }
  }
}

bool HealthChecker::healthy(const std::string& cluster,
                            const std::string& pod) const {
  const auto it = targets_.find(Key{cluster, pod});
  return it == targets_.end() ? true : it->second->healthy;
}

void HealthChecker::schedule_probe(const Key& key, sim::Duration delay) {
  const auto it = targets_.find(key);
  if (it == targets_.end()) return;
  it->second->next_probe.arm_after(delay, [this, key] { run_probe(key); });
}

void HealthChecker::run_probe(const Key& key) {
  const auto it = targets_.find(key);
  if (it == targets_.end()) return;
  Target& target = *it->second;
  ++stats_.probes_sent;
  const std::uint64_t seq = ++target.seq;

  http::HttpRequest probe;
  probe.method = "GET";
  probe.path = kHealthCheckPath;
  probe.headers.set(http::headers::Id::kHost, target.cluster);
  probe.headers.set("x-mesh-health-probe", "1");

  target.inflight = target.pool->request(
      std::move(probe),
      [this, key, seq](std::optional<http::HttpResponse> response,
                       const std::string& /*error*/) {
        handle_result(key, seq, response.has_value() && response->status == 200);
      });

  target.timeout_timer.arm_after(
      target.config.timeout, [this, key, seq] {
        const auto tit = targets_.find(key);
        if (tit == targets_.end()) return;
        Target& t = *tit->second;
        if (t.seq != seq) return;
        if (t.inflight != 0) {
          // Cancel guarantees the pool handler never fires for this probe.
          t.pool->cancel(t.inflight);
          t.inflight = 0;
        }
        ++stats_.probes_timed_out;
        handle_result(key, seq, false);
      });
}

void HealthChecker::handle_result(const Key& key, std::uint64_t seq, bool ok) {
  const auto it = targets_.find(key);
  if (it == targets_.end()) return;
  Target& target = *it->second;
  if (target.seq != seq) return;  // superseded (detach or reconcile)
  target.timeout_timer.disarm();
  target.inflight = 0;

  if (ok) {
    target.fails = 0;
    ++target.passes;
    if (!target.healthy && target.passes >= target.config.healthy_threshold) {
      target.healthy = true;
      ++stats_.readmissions;
      if (hook_) hook_(target.cluster, target.pod, true, sim_.now());
    }
  } else {
    ++stats_.probes_failed;
    target.passes = 0;
    ++target.fails;
    if (target.healthy && target.fails >= target.config.unhealthy_threshold) {
      target.healthy = false;
      ++stats_.evictions;
      if (hook_) hook_(target.cluster, target.pod, false, sim_.now());
    }
  }
  schedule_probe(key, target.config.interval);
}

}  // namespace meshnet::mesh
