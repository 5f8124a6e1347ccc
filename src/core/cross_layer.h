#pragma once

// CrossLayerController: the top-level entry point of the case study
// (paper §4.2). One call to install() wires up all three design
// components across the whole mesh:
//
//  1. classification at the ingress (IngressClassifierFilter on the
//     gateway),
//  2. provenance propagation (a shared per-pod ProvenanceTable + a
//     ProvenanceFilter on every sidecar's inbound and outbound chains),
//  3. cross-layer optimizations:
//      (a) mesh:      priority-subset replica routing,
//      (b) transport: scavenger congestion control for low priority,
//      (c) OS:        TC priority qdiscs on pod vNICs (95/5 nearly-strict),
//      (d) network:   DSCP tagging in-band, or out-of-band flow
//                     advertisement to an SDN coordinator.
//
// Each component toggles independently, which is what the ablation bench
// sweeps.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/provenance.h"
#include "core/priority_router.h"
#include "core/sdn_coordinator.h"
#include "core/tc_manager.h"
#include "mesh/control_plane.h"

namespace meshnet::core {

/// Classification at the gateway and provenance on every sidecar are
/// always installed; the switches below toggle the optimizations.
struct CrossLayerConfig {
  /// (a) route high/low priority to dedicated replica subsets.
  bool priority_routing = true;
  /// Clusters with priority-dedicated replicas; empty = all (safe).
  std::vector<std::string> priority_routed_clusters;

  /// (b) scavenger transport for low-priority traffic.
  bool scavenger_transport = false;

  /// (c) TC priority qdiscs on every pod vNIC.
  bool tc_priority = true;
  TcMatch tc_match = TcMatch::kDstIp;  ///< the prototype's pod-IP match
  bool strict_tc = false;  ///< strict priority instead of kHighShare DRR

  /// (d) in-band DSCP marks on every packet of classified connections.
  bool dscp_tagging = true;

  /// Ingress classification rules (gateway).
  ClassifierConfig classifier;
};

class CrossLayerController {
 public:
  CrossLayerController(mesh::ControlPlane& control_plane,
                       cluster::Cluster& cluster, CrossLayerConfig config);

  /// Installs filters, transport policy, and TC rules mesh-wide, then
  /// pushes config. Call once, after all sidecars are injected.
  void install();

  TcManager& tc() noexcept { return tc_; }
  SdnCoordinator& sdn() noexcept { return sdn_; }
  const CrossLayerConfig& config() const noexcept { return config_; }

  /// Introspection for tests: the provenance table of one pod's sidecar.
  std::shared_ptr<ProvenanceTable> provenance_table(
      const std::string& pod_name) const;

  /// IPs of pods whose endpoints carry label priority=high (the TC
  /// dst-ip match set).
  std::vector<net::IpAddress> high_priority_pod_ips() const;

 private:
  void install_filters();
  void install_transport_policy();
  void install_tc_rules();

  mesh::ControlPlane& control_plane_;
  cluster::Cluster& cluster_;
  CrossLayerConfig config_;
  TcManager tc_;
  SdnCoordinator sdn_;
  std::map<std::string, std::shared_ptr<ProvenanceTable>> tables_;
  bool installed_ = false;
};

}  // namespace meshnet::core
