#pragma once

// MeshBuilder: MeshSpec (app/mesh_spec.h) -> live mesh.
//
// Construction order is fixed and documented because it is part of the
// determinism contract: pod creation order assigns IPs (CNI-style
// 10.244.node.pod) and sidecar injection order assigns certificate
// serials, so one spec always yields the same mesh:
//
//   1. cluster + nodes (spec order)
//   2. gateway pod, then each service's replica pods (spec order), then
//      external pods
//   3. control plane
//   4. sidecar injection: gateway first, then every replica of each
//      service with inject_sidecar set, in spec order
//   5. one Microservice per replica of each service with a handler
//   6. control_plane().start()
//
// This file is the only place outside cluster/ and the control plane
// that calls add_pod or inject_sidecar (tests excepted); CI checks it.

#include <memory>
#include <string>
#include <vector>

#include "app/mesh_spec.h"

namespace meshnet::cluster {

/// The object graph one spec builds; owns everything for the sim's
/// lifetime. Accessors hand out the same layer objects the imperative
/// path would.
class BuiltMesh {
 public:
  BuiltMesh(const BuiltMesh&) = delete;
  BuiltMesh& operator=(const BuiltMesh&) = delete;

  Cluster& cluster() noexcept { return *cluster_; }
  mesh::ControlPlane& control_plane() noexcept { return *control_plane_; }
  const MeshSpec& spec() const noexcept { return spec_; }

  Pod* pod(const std::string& name) { return cluster_->find_pod(name); }
  /// nullptr when the spec has no gateway.
  Pod* gateway_pod() noexcept { return gateway_; }
  /// Where external clients connect (gateway required).
  net::SocketAddress gateway_address() const {
    return net::SocketAddress{gateway_->ip(), spec_.gateway.port};
  }
  const std::vector<std::unique_ptr<app::Microservice>>& microservices()
      const noexcept {
    return microservices_;
  }

 private:
  friend class MeshBuilder;
  BuiltMesh() = default;

  MeshSpec spec_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<mesh::ControlPlane> control_plane_;
  std::vector<std::unique_ptr<app::Microservice>> microservices_;
  Pod* gateway_ = nullptr;
};

class MeshBuilder {
 public:
  explicit MeshBuilder(sim::Simulator& sim) : sim_(sim) {}

  /// Validates and builds. Returns nullptr on an invalid spec, with the
  /// validation message in *error (when non-null).
  std::unique_ptr<BuiltMesh> build(MeshSpec spec,
                                   std::string* error = nullptr);

 private:
  sim::Simulator& sim_;
};

}  // namespace meshnet::cluster
