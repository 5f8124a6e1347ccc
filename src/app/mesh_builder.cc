#include "app/mesh_builder.h"

#include <utility>

namespace meshnet::cluster {

std::unique_ptr<BuiltMesh> MeshBuilder::build(MeshSpec spec,
                                              std::string* error) {
  const std::string problem = validate_mesh_spec(spec);
  if (!problem.empty()) {
    if (error != nullptr) *error = problem;
    return nullptr;
  }
  if (error != nullptr) error->clear();

  auto mesh = std::unique_ptr<BuiltMesh>(new BuiltMesh());

  // 1. Cluster + nodes.
  mesh->cluster_ = std::make_unique<Cluster>(sim_, spec.cluster);
  for (const std::string& node : spec.nodes) {
    mesh->cluster_->add_node(node);
  }
  const std::string& default_node = spec.nodes.front();
  const auto node_for = [&default_node](const std::string& node) {
    return node.empty() ? default_node : node;
  };

  // 2. Pods: gateway, service replicas in spec order, external pods.
  // This order fixes every pod's IP.
  if (spec.gateway.enabled) {
    mesh->gateway_ = &mesh->cluster_->add_pod(
        node_for(spec.gateway.node), spec.gateway.pod_name,
        spec.gateway.service, 0, spec.gateway.pod);
  }
  for (const ServiceSpec& service : spec.services) {
    const std::vector<std::string> pods = service_pod_names(service);
    for (int i = 0; i < service.replicas; ++i) {
      const PodOptions& options =
          service.replica_options.empty()
              ? service.pod
              : service.replica_options[static_cast<std::size_t>(i)];
      mesh->cluster_->add_pod(node_for(service.node),
                              pods[static_cast<std::size_t>(i)],
                              service.name, service.port, options);
    }
  }
  for (const ExternalPodSpec& external : spec.external_pods) {
    mesh->cluster_->add_pod(node_for(external.node), external.name, "", 0,
                            external.pod);
  }

  // 3. Control plane, with the declared call graph compiled into cluster
  // scopes when requested (explicit spec entries win).
  mesh::MeshPolicies policies = spec.policies;
  if (spec.derive_cluster_scopes) {
    for (const ServiceSpec& service : spec.services) {
      if (!service.calls.empty()) {
        policies.cluster_scopes.emplace(service.name, service.calls);
      }
    }
  }
  // Per-service mtls knobs compile into override entries (explicit
  // policy entries win, mirroring cluster scopes above).
  for (const ServiceSpec& service : spec.services) {
    if (service.mtls != MtlsMode::kInherit) {
      policies.mtls_overrides.emplace(service.name,
                                      service.mtls == MtlsMode::kOn);
    }
  }
  mesh->control_plane_ = std::make_unique<mesh::ControlPlane>(
      sim_, *mesh->cluster_, std::move(policies));

  // 4. Sidecars: gateway first, then replicas in spec order. This order
  // fixes every certificate serial.
  if (spec.gateway.enabled) {
    mesh->control_plane_->inject_sidecar(
        *mesh->gateway_,
        mesh::SidecarInjectionOptions::gateway(spec.gateway.port));
  }
  for (const ServiceSpec& service : spec.services) {
    if (!service.inject_sidecar) continue;
    for (const std::string& pod_name : service_pod_names(service)) {
      mesh->control_plane_->inject_sidecar(*mesh->cluster_->find_pod(pod_name),
                                           service.sidecar);
    }
  }

  // 5. App containers. Construction is passive (listeners register, no
  // events schedule), so building them after every injection, or after
  // start(), gives the same run.
  for (const ServiceSpec& service : spec.services) {
    if (!service.handler) continue;
    const app::MicroserviceOptions options = app_options(service);
    for (const std::string& pod_name : service_pod_names(service)) {
      mesh->microservices_.push_back(std::make_unique<app::Microservice>(
          sim_, *mesh->cluster_->find_pod(pod_name), service.handler,
          options));
    }
  }

  // 6. Begin watching discovery (mints the first broadcast epoch).
  mesh->control_plane_->start(spec.poll_interval);
  mesh->spec_ = std::move(spec);
  return mesh;
}

}  // namespace meshnet::cluster
