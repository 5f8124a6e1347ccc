#pragma once

// The fault-injection layer: a declarative FaultPlan (what breaks, when)
// executed by a ChaosController against the cluster substrate.
//
// Injectable faults:
//   - link down/up on a pod's vNIC pair (a flap is a down/up series),
//   - Bernoulli packet loss on a pod's vNIC pair,
//   - pod crash (vNICs blackhole; registry untouched — detection is the
//     mesh's job) / deregister (the slow node-controller path) / restart,
//   - pod degradation (app service time multiplied).
//
// Determinism: every action fires at a fixed simulated time, and the only
// randomness (per-packet loss draws) comes from named RngStreams derived
// from the plan seed — so the same seed yields an identical event log,
// which is what makes chaos results reproducible and A/B-comparable.
// This layer owns infrastructure faults.
//
// The layering is strict: faults/ sees cluster/ and net/, never mesh/.
// Experiments forward the controller's event hook into mesh telemetry.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace meshnet::faults {

enum class FaultAction {
  kLinkDown,
  kLinkUp,
  kLinkLoss,    ///< value = loss probability (0 clears)
  kCrashPod,
  kRestartPod,
  kDeregisterPod,
  kDegradePod,  ///< value = compute multiplier (1.0 restores)
  kResetConnections,  ///< abort every transport connection on the pod
  // Control-plane faults. faults/ never sees mesh/, so these dispatch
  // through hooks the experiment layer registers (see CpHooks); without
  // hooks they log as not-applied.
  kCpCrash,      ///< control plane goes down (target unused)
  kCpRestart,    ///< control plane recovers (target unused)
  kCpPartition,  ///< target = pod; value 1 partitions, 0 heals
  kCpPushLoss,   ///< value = push-channel loss probability (0 clears)
};

std::string_view fault_action_name(FaultAction action) noexcept;

/// One scheduled fault. `target` is a pod name; link actions apply to the
/// pod's vNIC pair (both directions).
struct FaultEntry {
  sim::Time at = 0;
  FaultAction action = FaultAction::kLinkDown;
  std::string target;
  double value = 0.0;
};

/// A declarative chaos schedule, built fluently and handed to a
/// ChaosController. Entries may be added in any order; the controller
/// schedules each at its absolute time.
class FaultPlan {
 public:
  FaultPlan& crash(sim::Time at, std::string pod);
  FaultPlan& restart(sim::Time at, std::string pod);
  FaultPlan& deregister(sim::Time at, std::string pod);
  FaultPlan& degrade(sim::Time at, std::string pod, double multiplier);
  /// Abort all of the pod's transport connections (process restart: TCP
  /// state lost, RSTs notify peers). Pair with restart() at the same time
  /// to model a full pod bounce that severs established flows.
  FaultPlan& reset_connections(sim::Time at, std::string pod);
  FaultPlan& link_down(sim::Time at, std::string pod);
  FaultPlan& link_up(sim::Time at, std::string pod);
  /// Bernoulli packet loss on the pod's vNICs during [from, until).
  FaultPlan& packet_loss(sim::Time from, sim::Time until, std::string pod,
                         double probability);
  /// Periodic flapping: the pod's vNICs go down at `from`, `from+period`,
  /// ... while before `until`, staying down for `downtime` each cycle.
  FaultPlan& flap(sim::Time from, sim::Time until, std::string pod,
                  sim::Duration period, sim::Duration downtime);
  FaultPlan& cp_crash(sim::Time at);
  FaultPlan& cp_restart(sim::Time at);
  /// Control plane down during [from, until).
  FaultPlan& cp_outage(sim::Time from, sim::Time until);
  /// One sidecar partitioned from the control plane during [from, until).
  FaultPlan& cp_partition(sim::Time from, sim::Time until, std::string pod);
  /// Push-channel loss during [from, until).
  FaultPlan& cp_push_loss(sim::Time from, sim::Time until,
                          double probability);

  const std::vector<FaultEntry>& entries() const noexcept { return entries_; }
  bool empty() const noexcept { return entries_.empty(); }

 private:
  std::vector<FaultEntry> entries_;
};

/// A fault the controller actually executed (or failed to — unknown pod).
struct FaultLogEntry {
  sim::Time at = 0;
  FaultAction action = FaultAction::kLinkDown;
  std::string target;
  double value = 0.0;
  bool applied = false;
};

/// Control-plane fault surface. faults/ cannot depend on mesh/, so the
/// experiment layer (which sees both) wires these to mesh::ControlPlane;
/// a CP fault with no hook registered logs as not-applied.
struct CpHooks {
  std::function<bool()> crash;
  std::function<bool()> restart;
  /// (pod, partitioned) — partition one sidecar from the control plane.
  std::function<bool(const std::string&, bool)> set_partitioned;
  std::function<bool(double)> set_push_loss;
};

class ChaosController {
 public:
  /// Observes every executed fault (experiments forward this into mesh
  /// telemetry as "fault" events).
  using FaultHook = std::function<void(const FaultLogEntry& entry)>;

  ChaosController(sim::Simulator& sim, cluster::Cluster& cluster,
                  std::uint64_t seed = 0);

  /// Schedules every entry of `plan` at its absolute time. May be called
  /// multiple times (plans compose).
  void schedule(const FaultPlan& plan);

  // Immediate actions (also what scheduled entries call). Each returns
  // whether the fault applied (pod exists, state change happened), and
  // appends to the log either way.
  bool apply(const FaultEntry& entry);
  bool set_link_up(const std::string& pod, bool up);
  bool set_link_loss(const std::string& pod, double probability);
  bool crash_pod(const std::string& pod);
  bool restart_pod(const std::string& pod);
  bool deregister_pod(const std::string& pod);
  bool degrade_pod(const std::string& pod, double multiplier);

  void set_fault_hook(FaultHook hook) { hook_ = std::move(hook); }
  void set_control_plane_hooks(CpHooks hooks) { cp_hooks_ = std::move(hooks); }

  /// Chronological record of every executed action — the determinism
  /// contract: same seed + same plan => identical log.
  const std::vector<FaultLogEntry>& log() const noexcept { return log_; }
  std::uint64_t seed() const noexcept { return seed_; }

 private:
  bool execute(FaultAction action, const std::string& target, double value);
  bool execute_pod_fault(cluster::Pod& pod, FaultAction action,
                         const std::string& target, double value);

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  std::uint64_t seed_;
  FaultHook hook_;
  CpHooks cp_hooks_;
  std::vector<FaultLogEntry> log_;
};

}  // namespace meshnet::faults
