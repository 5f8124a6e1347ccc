#pragma once

// The e-library microservice application of the paper's prototype (§4.3,
// Fig. 3) — Istio's bookinfo sample recast as an e-library:
//
//   external -> [istio ingress gateway] -> front end -> { details,
//                reviews-1 / reviews-2 } ; reviews -> ratings
//
// All pods run on one node (the paper's single 32-core server under
// KIND). Inter-pod vNICs are 15 Gbps except the ratings pod's, which is
// the 1 Gbps bottleneck between reviews and ratings. Reviews has two
// replicas labelled priority=high / priority=low so priority-subset
// routing has somewhere to route.
//
// Two request families flow through the same tree:
//   GET /product/<n>    latency-sensitive page load: small responses.
//   GET /analytics/<n>  latency-insensitive batch scan: the ratings
//                       component returns a response ~multiplier x larger
//                       (paper: ~200x), and bodies aggregate up the tree,
//                       so the big bytes cross the bottleneck.

#include <memory>
#include <string>

#include "app/mesh_builder.h"
#include "app/microservice.h"
#include "cluster/cluster.h"
#include "mesh/control_plane.h"

namespace meshnet::app {

struct ElibraryOptions {
  std::size_t component_bytes = 8 * 1024;   ///< LS per-component payload
  std::size_t analytics_multiplier = 200;   ///< paper: ~200x larger
  sim::Duration service_time = sim::milliseconds(2);  ///< app think time/hop

  /// Compute model for every microservice instance: worker count (0 =
  /// unlimited), with a FIFO admission queue (COMPUTE_PRIORITY builds its
  /// own mesh to order the queue by priority).
  int app_max_concurrency = 0;

  mesh::MeshPolicies policies = default_policies();

  static mesh::MeshPolicies default_policies();
};

class Elibrary {
 public:
  static constexpr std::string_view kLsPathPrefix = "/product";
  static constexpr std::string_view kLiPathPrefix = "/analytics";
  static constexpr net::Port kGatewayPort = 80;
  static constexpr double kBottleneckBps = 1e9;  ///< paper: reviews<->ratings

  Elibrary(sim::Simulator& sim, ElibraryOptions options = {});
  Elibrary(const Elibrary&) = delete;
  Elibrary& operator=(const Elibrary&) = delete;

  cluster::Cluster& cluster() noexcept { return mesh_->cluster(); }
  mesh::ControlPlane& control_plane() noexcept {
    return mesh_->control_plane();
  }
  const ElibraryOptions& options() const noexcept { return options_; }

  /// Where external clients (the load generator) connect.
  net::SocketAddress gateway_address() const;

  /// The external client pod (outside the mesh, like wrk2 on the host).
  cluster::Pod& client_pod() noexcept { return *client_; }

  /// The contended link: the ratings pod's egress vNIC.
  net::Link& bottleneck_link();

  cluster::Pod* pod(const std::string& name) { return mesh_->pod(name); }

  /// Expected LS / LI end-to-end response body sizes (for tests).
  std::size_t expected_ls_body_bytes() const;
  std::size_t expected_li_body_bytes() const;

 private:
  /// The whole app as data: the declarative equivalent of the old
  /// hand-wired build_topology()/build_services() pair.
  cluster::MeshSpec make_spec() const;

  sim::Simulator& sim_;
  ElibraryOptions options_;
  std::unique_ptr<cluster::BuiltMesh> mesh_;
  cluster::Pod* client_ = nullptr;
  cluster::Pod* gateway_ = nullptr;
};

}  // namespace meshnet::app
