#pragma once

// Declarative mesh construction (MESHSCALE, DESIGN.md §13).
//
// A MeshSpec is the whole mesh as data: nodes, services with replica
// counts, the ingress gateway, out-of-mesh pods, declared service->service
// calls and the operator policy set. MeshBuilder (app/mesh_builder.h)
// turns one spec into the live object graph — cluster, pods, sidecars,
// control plane, app containers — in a single fixed order, so two
// processes building the same spec get bit-identical meshes (same pod
// IPs, same certificate serials, same registry versions).
//
// Every mesh in the repo is built from a spec; tests alone wire pods and
// sidecars by hand, to exercise the primitives. The spec holds each knob
// once: a service's SidecarInjectionOptions and its app's
// MicroserviceOptions share ports via app_options(). The testbed itself
// (link rates, delays, queue sizes) is fixed in cluster/cluster.h, and the
// gateway takes default vNICs on the spec's first node.
//
// These files live in app/ because the builder instantiates app-layer
// Microservices (app links against mesh and cluster, not the other way
// round), but the vocabulary is cluster-level — hence the namespace.

#include <string>
#include <string_view>
#include <vector>

#include "app/microservice.h"
#include "cluster/cluster.h"
#include "cluster/topology_gen.h"
#include "mesh/control_plane.h"

namespace meshnet::cluster {

/// Per-service mTLS stance. kInherit follows the mesh-wide default
/// (MeshPolicies::tls.enabled); kOn/kOff compile into an explicit
/// MeshPolicies::mtls_overrides entry for this service.
enum class MtlsMode { kInherit, kOff, kOn };

/// One service: `replicas` pods (named "<name>-v1", "<name>-v2", ...),
/// each with a sidecar unless `inject_sidecar` is false, plus an app
/// container per replica when `handler` is set.
struct ServiceSpec {
  std::string name;
  int replicas = 1;
  /// Service-registry port (what other sidecars dial; the paper's 9080).
  net::Port port = 9080;
  /// Scheduling target; empty = the spec's first node.
  std::string node;
  /// Sidecar attachment; also the source of the app's ports (see
  /// app_options()).
  mesh::SidecarInjectionOptions sidecar;
  /// False: the replicas are registered and run their apps but get no
  /// sidecar, so clients dial the app port directly (TXT-OVH's direct
  /// arm). Their apps' sub-calls would find no sidecar; make none.
  bool inject_sidecar = true;
  /// App behaviour; null = pods + sidecars only (traffic sinks, or pods
  /// driven directly by a test).
  app::Handler handler;
  /// App runtime knobs. The port fields are ignored — app_options()
  /// derives them from `sidecar` so the pair cannot drift apart.
  app::MicroserviceOptions app;
  /// Downstream services this one calls. Validated against the spec
  /// (dangling targets are an error); an experiment that scopes the
  /// control plane copies them into MeshPolicies::cluster_scopes.
  std::vector<std::string> calls;
  /// mTLS on this service's inbound listener (and, transitively, on
  /// every client cluster that targets it). kInherit = mesh default.
  MtlsMode mtls = MtlsMode::kInherit;
  /// vNIC defaults for every replica.
  PodOptions pod;
  /// Per-replica overrides (labels, bottleneck links); when non-empty it
  /// must have exactly `replicas` entries.
  std::vector<PodOptions> replica_options;
};

/// The ingress gateway: a gateway-mode sidecar on a dedicated pod with
/// default vNICs on the spec's first node; external traffic enters on
/// `port`.
struct GatewaySpec {
  bool enabled = false;
  std::string pod_name = "istio-ingressgateway";
  std::string service = "gateway";  ///< its sidecar's service name
  net::Port port = 80;
};

/// A pod outside the mesh (load generators, external clients).
struct ExternalPodSpec {
  std::string name;
  std::string node;  ///< empty = the spec's first node
  PodOptions pod;
};

struct MeshSpec {
  /// Default: the paper's single-server KIND deployment.
  std::vector<std::string> nodes = {"kind-worker"};
  GatewaySpec gateway;
  std::vector<ServiceSpec> services;
  std::vector<ExternalPodSpec> external_pods;
  mesh::MeshPolicies policies;
};

/// Returns "" when the spec is well-formed, else a description of the
/// first problem found (duplicate service name, zero replicas, dangling
/// call target, replica_options size mismatch, unknown node, more nodes
/// or more pods on one node than the cluster's address plan holds, ...).
std::string validate_mesh_spec(const MeshSpec& spec);

/// The replica pod names a ServiceSpec expands to ("<name>-v<i+1>").
std::vector<std::string> service_pod_names(const ServiceSpec& service);

/// Spec-roundtrip: the app options MeshBuilder instantiates for a
/// service — `service.app` with its ports pinned to the sidecar spec
/// (the single source of truth for the app<->sidecar port pair).
app::MicroserviceOptions app_options(const ServiceSpec& service);

/// Adapter from the generated layered-DAG topologies (cluster/
/// topology_gen.h): one ServiceSpec per GenService, `calls` from the
/// DAG edges, no handlers (the experiment attaches behaviour).
constexpr std::string_view kTopologyServicePrefix = "svc-";
struct TopologyMeshOptions {
  net::Port port = 9080;
  int replicas = 1;
};
MeshSpec mesh_spec_from_topology(const GenTopology& topology,
                                 const TopologyMeshOptions& options = {});

/// The adapter's service name for a GenService id: the prefix + id.
std::string topology_service_name(const TopologyMeshOptions& options, int id);

}  // namespace meshnet::cluster
