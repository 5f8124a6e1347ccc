#include "app/mesh_spec.h"

#include <algorithm>
#include <map>
#include <set>

namespace meshnet::cluster {

namespace {

/// The node a pod asking for `node` lands on (empty = the spec's first
/// node), or nullptr when the spec has no such node.
const std::string* find_node(const MeshSpec& spec, const std::string& node) {
  if (node.empty()) return &spec.nodes.front();
  const auto it = std::find(spec.nodes.begin(), spec.nodes.end(), node);
  return it == spec.nodes.end() ? nullptr : &*it;
}

}  // namespace

std::string validate_mesh_spec(const MeshSpec& spec) {
  if (spec.nodes.empty()) return "spec has no nodes";
  if (spec.nodes.size() > static_cast<std::size_t>(kMaxNodes)) {
    return "spec has more than " + std::to_string(kMaxNodes) + " nodes";
  }
  std::set<std::string> service_names;
  for (const ServiceSpec& service : spec.services) {
    if (service.name.empty()) return "service with empty name";
    if (!service_names.insert(service.name).second) {
      return "duplicate service '" + service.name + "'";
    }
  }
  std::set<std::string> pod_names;
  std::map<std::string, int> pods_on;  // node -> pods placed there
  if (spec.gateway.enabled) {
    pod_names.insert(spec.gateway.pod_name);
    ++pods_on[spec.nodes.front()];
  }
  for (const ServiceSpec& service : spec.services) {
    if (service.replicas < 1) {
      return "service '" + service.name + "' has zero replicas";
    }
    if (!service.replica_options.empty() &&
        service.replica_options.size() !=
            static_cast<std::size_t>(service.replicas)) {
      return "service '" + service.name + "' has " +
             std::to_string(service.replica_options.size()) +
             " replica_options for " + std::to_string(service.replicas) +
             " replicas";
    }
    const std::string* node = find_node(spec, service.node);
    if (node == nullptr) {
      return "service '" + service.name + "' on unknown node '" +
             service.node + "'";
    }
    pods_on[*node] += service.replicas;
    for (const std::string& target : service.calls) {
      if (!service_names.contains(target)) {
        return "service '" + service.name + "' calls unknown service '" +
               target + "'";
      }
    }
    for (const std::string& pod : service_pod_names(service)) {
      if (!pod_names.insert(pod).second) {
        return "duplicate pod name '" + pod + "'";
      }
    }
  }
  for (const ExternalPodSpec& external : spec.external_pods) {
    if (external.name.empty()) return "external pod with empty name";
    if (!pod_names.insert(external.name).second) {
      return "duplicate pod name '" + external.name + "'";
    }
    const std::string* node = find_node(spec, external.node);
    if (node == nullptr) {
      return "external pod '" + external.name + "' on unknown node '" +
             external.node + "'";
    }
    ++pods_on[*node];
  }
  for (const auto& [node, count] : pods_on) {
    if (count > kMaxPodsPerNode) {
      return "node '" + node + "' holds " + std::to_string(count) +
             " pods; at most " + std::to_string(kMaxPodsPerNode) + " fit";
    }
  }
  return "";
}

std::vector<std::string> service_pod_names(const ServiceSpec& service) {
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(service.replicas));
  for (int i = 0; i < service.replicas; ++i) {
    names.push_back(service.name + "-v" + std::to_string(i + 1));
  }
  return names;
}

app::MicroserviceOptions app_options(const ServiceSpec& service) {
  app::MicroserviceOptions options = service.app;
  options.app_port = service.sidecar.app_port;
  options.sidecar_outbound_port = service.sidecar.outbound_port;
  return options;
}

std::string topology_service_name(const TopologyMeshOptions& /*options*/,
                                  int id) {
  return std::string(kTopologyServicePrefix) + std::to_string(id);
}

MeshSpec mesh_spec_from_topology(const GenTopology& topology,
                                 const TopologyMeshOptions& options) {
  MeshSpec spec;
  spec.services.reserve(topology.services.size());
  for (const GenService& gen : topology.services) {
    ServiceSpec service;
    service.name = topology_service_name(options, gen.id);
    service.replicas = options.replicas;
    service.port = options.port;
    for (const int edge_index : gen.out_edges) {
      const GenEdge& edge = topology.edges[static_cast<std::size_t>(edge_index)];
      const std::string target = topology_service_name(options, edge.to);
      if (std::find(service.calls.begin(), service.calls.end(), target) ==
          service.calls.end()) {
        service.calls.push_back(target);
      }
    }
    spec.services.push_back(std::move(service));
  }
  return spec;
}

}  // namespace meshnet::cluster
