#include "faults/chaos.h"

#include <utility>

#include "util/logging.h"

namespace meshnet::faults {

std::string_view fault_action_name(FaultAction action) noexcept {
  switch (action) {
    case FaultAction::kLinkDown:
      return "link-down";
    case FaultAction::kLinkUp:
      return "link-up";
    case FaultAction::kLinkLoss:
      return "link-loss";
    case FaultAction::kCrashPod:
      return "crash";
    case FaultAction::kRestartPod:
      return "restart";
    case FaultAction::kDeregisterPod:
      return "deregister";
    case FaultAction::kDegradePod:
      return "degrade";
    case FaultAction::kResetConnections:
      return "reset-connections";
    case FaultAction::kCpCrash:
      return "cp-crash";
    case FaultAction::kCpRestart:
      return "cp-restart";
  }
  return "?";
}

FaultPlan& FaultPlan::crash(sim::Time at, std::string pod) {
  entries_.push_back({at, FaultAction::kCrashPod, std::move(pod), 0.0});
  return *this;
}

FaultPlan& FaultPlan::restart(sim::Time at, std::string pod) {
  entries_.push_back({at, FaultAction::kRestartPod, std::move(pod), 0.0});
  return *this;
}

FaultPlan& FaultPlan::deregister(sim::Time at, std::string pod) {
  entries_.push_back({at, FaultAction::kDeregisterPod, std::move(pod), 0.0});
  return *this;
}

FaultPlan& FaultPlan::degrade(sim::Time at, std::string pod,
                              double multiplier) {
  entries_.push_back({at, FaultAction::kDegradePod, std::move(pod),
                      multiplier});
  return *this;
}

FaultPlan& FaultPlan::reset_connections(sim::Time at, std::string pod) {
  entries_.push_back({at, FaultAction::kResetConnections, std::move(pod),
                      0.0});
  return *this;
}

FaultPlan& FaultPlan::link_down(sim::Time at, std::string pod) {
  entries_.push_back({at, FaultAction::kLinkDown, std::move(pod), 0.0});
  return *this;
}

FaultPlan& FaultPlan::link_up(sim::Time at, std::string pod) {
  entries_.push_back({at, FaultAction::kLinkUp, std::move(pod), 0.0});
  return *this;
}

FaultPlan& FaultPlan::packet_loss(sim::Time from, sim::Time until,
                                  std::string pod, double probability) {
  entries_.push_back({from, FaultAction::kLinkLoss, pod, probability});
  entries_.push_back({until, FaultAction::kLinkLoss, std::move(pod), 0.0});
  return *this;
}

FaultPlan& FaultPlan::flap(sim::Time from, sim::Time until, std::string pod,
                           sim::Duration period, sim::Duration downtime) {
  for (sim::Time t = from; t < until; t += period) {
    link_down(t, pod);
    link_up(t + downtime, pod);
  }
  return *this;
}

FaultPlan& FaultPlan::cp_crash(sim::Time at) {
  entries_.push_back({at, FaultAction::kCpCrash, {}, 0.0});
  return *this;
}

FaultPlan& FaultPlan::cp_restart(sim::Time at) {
  entries_.push_back({at, FaultAction::kCpRestart, {}, 0.0});
  return *this;
}

FaultPlan& FaultPlan::cp_outage(sim::Time from, sim::Time until) {
  cp_crash(from);
  cp_restart(until);
  return *this;
}

ChaosController::ChaosController(sim::Simulator& sim,
                                 cluster::Cluster& cluster, std::uint64_t seed)
    : sim_(sim), cluster_(cluster), seed_(seed) {}

void ChaosController::schedule(const FaultPlan& plan) {
  for (const FaultEntry& entry : plan.entries()) {
    sim_.schedule_at(entry.at, [this, entry] { apply(entry); });
  }
}

bool ChaosController::apply(const FaultEntry& entry) {
  return execute(entry.action, entry.target, entry.value);
}

bool ChaosController::set_link_up(const std::string& pod, bool up) {
  return execute(up ? FaultAction::kLinkUp : FaultAction::kLinkDown, pod,
                 0.0);
}

bool ChaosController::set_link_loss(const std::string& pod,
                                    double probability) {
  return execute(FaultAction::kLinkLoss, pod, probability);
}

bool ChaosController::crash_pod(const std::string& pod) {
  return execute(FaultAction::kCrashPod, pod, 0.0);
}

bool ChaosController::restart_pod(const std::string& pod) {
  return execute(FaultAction::kRestartPod, pod, 0.0);
}

bool ChaosController::deregister_pod(const std::string& pod) {
  return execute(FaultAction::kDeregisterPod, pod, 0.0);
}

bool ChaosController::degrade_pod(const std::string& pod, double multiplier) {
  return execute(FaultAction::kDegradePod, pod, multiplier);
}

bool ChaosController::execute(FaultAction action, const std::string& target,
                              double value) {
  bool applied = false;
  // Control-plane actions have no pod; dispatch before the pod lookup.
  switch (action) {
    case FaultAction::kCpCrash:
      if (cp_hooks_.crash) applied = cp_hooks_.crash();
      break;
    case FaultAction::kCpRestart:
      if (cp_hooks_.restart) applied = cp_hooks_.restart();
      break;
    default: {
      cluster::Pod* pod = cluster_.find_pod(target);
      if (pod != nullptr) {
        applied = execute_pod_fault(*pod, action, target, value);
      }
      break;
    }
  }
  FaultLogEntry logged{sim_.now(), action, target, value, applied};
  if (!applied) {
    MESHNET_WARN() << "chaos: " << fault_action_name(action) << " on "
                   << target << " did not apply";
  }
  log_.push_back(logged);
  if (hook_) hook_(log_.back());
  return applied;
}

bool ChaosController::execute_pod_fault(cluster::Pod& pod, FaultAction action,
                                        const std::string& target,
                                        double value) {
  switch (action) {
    case FaultAction::kLinkDown:
      pod.egress_link().set_up(false);
      pod.ingress_link().set_up(false);
      return true;
    case FaultAction::kLinkUp:
      pod.egress_link().set_up(true);
      pod.ingress_link().set_up(true);
      return true;
    case FaultAction::kLinkLoss:
      pod.egress_link().set_loss(value, seed_);
      pod.ingress_link().set_loss(value, seed_);
      return true;
    case FaultAction::kCrashPod:
      return cluster_.crash_pod(target);
    case FaultAction::kRestartPod:
      return cluster_.restart_pod(target);
    case FaultAction::kDeregisterPod:
      return cluster_.deregister_pod(target);
    case FaultAction::kDegradePod:
      pod.set_compute_multiplier(value);
      return true;
    case FaultAction::kResetConnections:
      pod.transport().reset_all_connections();
      return true;
    default:
      return false;  // CP actions never reach here
  }
}

}  // namespace meshnet::faults
