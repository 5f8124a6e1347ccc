#include "core/cross_layer.h"

#include <utility>

namespace meshnet::core {

CrossLayerController::CrossLayerController(mesh::ControlPlane& control_plane,
                                           cluster::Cluster& cluster,
                                           CrossLayerConfig config)
    : control_plane_(control_plane),
      cluster_(cluster),
      config_(std::move(config)),
      tc_(cluster) {}

std::vector<net::IpAddress> CrossLayerController::high_priority_pod_ips()
    const {
  std::vector<net::IpAddress> ips;
  for (const cluster::ServiceInfo* info :
       cluster_.registry().services()) {
    for (const cluster::Endpoint& ep : info->endpoints) {
      if (ep.label_or("priority", "") == kPriorityHigh) {
        ips.push_back(ep.ip);
      }
    }
  }
  return ips;
}

void CrossLayerController::install_filters() {
  sim::Simulator& sim = cluster_.sim();
  for (const auto& sidecar : control_plane_.sidecars()) {
    const std::string pod = sidecar->pod().name();

    if (sidecar->listener().gateway_mode) {
      sidecar->outbound_filters().append(
          std::make_shared<IngressClassifierFilter>(
              config_.classifier, &control_plane_.metrics()));
    }

    auto table = std::make_shared<ProvenanceTable>(sim);
    tables_[pod] = table;
    // The same filter instance serves both chains so inbound recordings
    // are visible to outbound lookups — that is the whole point. On the
    // inbound chain provenance must resolve the traffic class *before*
    // the admission filter decides who is shed first.
    auto filter = std::make_shared<ProvenanceFilter>(table);
    sidecar->inbound_filters().insert_before("admission", filter);
    sidecar->outbound_filters().append(filter);

    if (config_.priority_routing) {
      sidecar->outbound_filters().append(
          std::make_shared<PriorityRouterFilter>(
              config_.priority_routed_clusters));
    }
  }
}

void CrossLayerController::install_transport_policy() {
  mesh::MeshPolicies& policies = control_plane_.policies();

  mesh::TrafficClassPolicy high;
  high.cc = transport::CcAlgorithm::kReno;
  high.dscp =
      config_.dscp_tagging ? net::Dscp::kExpedited : net::Dscp::kDefault;
  mesh::TrafficClassPolicy low;
  low.cc = config_.scavenger_transport ? transport::CcAlgorithm::kLedbat
                                       : transport::CcAlgorithm::kReno;
  low.dscp =
      config_.dscp_tagging ? net::Dscp::kScavenger : net::Dscp::kDefault;
  policies.class_policies[mesh::TrafficClass::kLatencySensitive] = high;
  policies.class_policies[mesh::TrafficClass::kScavenger] = low;

  policies.upstream_connection_hook =
      [this](transport::Connection& conn, mesh::TrafficClass tc) {
        sdn_.advertise(conn.flow(), tc);
      };

  // Server halves of scavenger connections must also yield: responses are
  // where the bytes are. Install an accept-side mapper on every pod.
  const std::uint32_t mss = policies.transport_mss;
  const bool scavenger = config_.scavenger_transport;
  for (const auto& pod : cluster_.pods()) {
    pod->transport().set_accept_options_mapper(
        [mss, scavenger](const net::Packet& syn) {
          transport::ConnectionOptions options;
          options.mss = mss;
          options.dscp = syn.dscp;
          if (scavenger && syn.dscp == net::Dscp::kScavenger) {
            options.cc = transport::CcAlgorithm::kLedbat;
          }
          return options;
        });
  }
}

void CrossLayerController::install_tc_rules() {
  TcRule rule;
  rule.match = config_.tc_match;
  rule.high_priority_ips = high_priority_pod_ips();
  rule.strict = config_.strict_tc;
  tc_.install_on_all_pods(rule);
}

void CrossLayerController::install() {
  if (installed_) return;
  installed_ = true;
  install_filters();
  install_transport_policy();
  if (config_.tc_priority) install_tc_rules();
  control_plane_.push_config();
}

std::shared_ptr<ProvenanceTable> CrossLayerController::provenance_table(
    const std::string& pod_name) const {
  const auto it = tables_.find(pod_name);
  return it == tables_.end() ? nullptr : it->second;
}

}  // namespace meshnet::core
