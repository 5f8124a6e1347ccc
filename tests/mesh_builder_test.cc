// Tests for the declarative construction path (cluster::MeshSpec /
// MeshBuilder, app/mesh_spec.h), the topology-generator adapter,
// deterministic endpoint subsetting and the delta push channel's
// equivalence with full snapshots under loss.

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "app/mesh_builder.h"
#include "cluster/topology_gen.h"
#include "mesh/http_client.h"
#include "mesh/sidecar.h"
#include "mesh/subset.h"
#include "sim/simulator.h"

using namespace meshnet;

namespace {

cluster::MeshSpec two_service_spec() {
  cluster::MeshSpec spec;
  spec.nodes = {"node-a"};
  cluster::ServiceSpec a;
  a.name = "a";
  a.calls = {"b"};
  cluster::ServiceSpec b;
  b.name = "b";
  b.replicas = 2;
  spec.services = {a, b};
  return spec;
}

}  // namespace

TEST(MeshSpecValidation, AcceptsWellFormedSpec) {
  EXPECT_EQ(cluster::validate_mesh_spec(two_service_spec()), "");
}

TEST(MeshSpecValidation, RejectsDuplicateService) {
  cluster::MeshSpec spec = two_service_spec();
  spec.services.push_back(spec.services[0]);
  EXPECT_NE(cluster::validate_mesh_spec(spec).find("duplicate service"),
            std::string::npos);
}

TEST(MeshSpecValidation, RejectsDanglingCall) {
  cluster::MeshSpec spec = two_service_spec();
  spec.services[1].calls = {"nonexistent"};
  EXPECT_NE(cluster::validate_mesh_spec(spec).find("unknown service"),
            std::string::npos);
}

TEST(MeshSpecValidation, RejectsZeroReplicas) {
  cluster::MeshSpec spec = two_service_spec();
  spec.services[0].replicas = 0;
  EXPECT_NE(cluster::validate_mesh_spec(spec).find("zero replicas"),
            std::string::npos);
}

TEST(MeshSpecValidation, RejectsReplicaOptionsMismatch) {
  cluster::MeshSpec spec = two_service_spec();
  spec.services[1].replica_options.resize(1);  // replicas = 2
  EXPECT_NE(cluster::validate_mesh_spec(spec), "");
}

TEST(MeshSpecValidation, RejectsUnknownNode) {
  cluster::MeshSpec spec = two_service_spec();
  spec.services[0].node = "node-that-does-not-exist";
  EXPECT_NE(cluster::validate_mesh_spec(spec).find("unknown node"),
            std::string::npos);
}

TEST(MeshBuilder, RefusesInvalidSpecAndReportsError) {
  cluster::MeshSpec spec = two_service_spec();
  spec.services[0].calls = {"ghost"};
  sim::Simulator sim;
  std::string error;
  EXPECT_EQ(cluster::MeshBuilder(sim).build(std::move(spec), &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(MeshBuilder, BuildsPodsSidecarsAndRegistryEntries) {
  sim::Simulator sim;
  auto mesh = cluster::MeshBuilder(sim).build(two_service_spec());
  ASSERT_NE(mesh, nullptr);
  EXPECT_NE(mesh->pod("a-v1"), nullptr);
  EXPECT_NE(mesh->pod("b-v1"), nullptr);
  EXPECT_NE(mesh->pod("b-v2"), nullptr);
  EXPECT_NE(mesh->control_plane().sidecar_for("b-v2"), nullptr);
  const cluster::ServiceInfo* info =
      mesh->cluster().registry().find("b");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->endpoints.size(), 2u);
  // Every built mesh is started: start() minted the first epoch.
  EXPECT_EQ(mesh->control_plane().epoch(), 1u);
}

// A service with inject_sidecar = false keeps everything but the proxy:
// its replicas are registered on the service port and run the app, and
// a client reaches the app's port directly.
TEST(MeshBuilder, ServiceWithoutSidecarIsRegisteredAndServesDirectly) {
  cluster::MeshSpec spec = two_service_spec();
  cluster::ServiceSpec& b = spec.services[1];
  b.port = 8080;
  b.inject_sidecar = false;
  b.handler = [](const http::HttpRequest&) { return app::HandlerResult{}; };
  spec.external_pods.emplace_back().name = "client";
  sim::Simulator sim;
  auto mesh = cluster::MeshBuilder(sim).build(std::move(spec));
  ASSERT_NE(mesh, nullptr);

  const cluster::ServiceInfo* info = mesh->cluster().registry().find("b");
  ASSERT_NE(info, nullptr);
  ASSERT_EQ(info->endpoints.size(), 2u);
  for (const cluster::Endpoint& endpoint : info->endpoints) {
    EXPECT_EQ(endpoint.port, 8080) << endpoint.pod_name;
  }
  mesh::ControlPlane& cp = mesh->control_plane();
  EXPECT_EQ(cp.sidecar_for("b-v1"), nullptr);
  EXPECT_EQ(cp.sidecar_for("b-v2"), nullptr);
  EXPECT_NE(cp.sidecar_for("a-v1"), nullptr);
  EXPECT_EQ(cp.sidecars().size(), 1u);
  EXPECT_EQ(mesh->microservices().size(), 2u);

  mesh::HttpClientPool client(
      sim, mesh->pod("client")->transport(),
      net::SocketAddress{mesh->pod("b-v1")->ip(), 8080}, {});
  http::HttpRequest request;
  request.path = "/direct";
  std::optional<http::HttpResponse> response;
  client.request(std::move(request),
                 [&](std::optional<http::HttpResponse> r, const std::string&) {
                   response = std::move(r);
                 });
  sim.run_until(sim::seconds(1));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->headers.get_or("x-app", ""), "b");
}

// Two builds of the same spec must be bit-identical meshes: same pod
// IPs, same certificate serials, same config fingerprints. This is the
// property the fixed construction order exists for.
TEST(MeshBuilder, RebuildIsBitIdentical) {
  sim::Simulator sim_a;
  sim::Simulator sim_b;
  auto mesh_a = cluster::MeshBuilder(sim_a).build(two_service_spec());
  auto mesh_b = cluster::MeshBuilder(sim_b).build(two_service_spec());
  ASSERT_NE(mesh_a, nullptr);
  ASSERT_NE(mesh_b, nullptr);
  for (const std::string pod : {"a-v1", "b-v1", "b-v2"}) {
    ASSERT_NE(mesh_a->pod(pod), nullptr);
    EXPECT_EQ(mesh_a->pod(pod)->ip(), mesh_b->pod(pod)->ip()) << pod;
    const mesh::Sidecar* sc_a = mesh_a->control_plane().sidecar_for(pod);
    const mesh::Sidecar* sc_b = mesh_b->control_plane().sidecar_for(pod);
    ASSERT_NE(sc_a, nullptr);
    ASSERT_NE(sc_b, nullptr);
    EXPECT_EQ(sc_a->config().identity_cert.serial,
              sc_b->config().identity_cert.serial)
        << pod;
    EXPECT_EQ(mesh::hash_sidecar_config(sc_a->config()),
              mesh::hash_sidecar_config(sc_b->config()))
        << pod;
  }
}

TEST(TopologyAdapter, RoundTripsGeneratedDag) {
  cluster::FanoutSpec fanout;
  fanout.layer_widths = {2, 3, 4};
  fanout.fanout = 2;
  const cluster::GenTopology topology =
      cluster::generate_layered_fanout(fanout, 7);
  const cluster::MeshSpec spec = cluster::mesh_spec_from_topology(topology);

  EXPECT_EQ(cluster::validate_mesh_spec(spec), "");
  ASSERT_EQ(spec.services.size(), topology.services.size());

  // Every DAG edge appears exactly once as a declared call.
  cluster::TopologyMeshOptions options;
  for (const cluster::GenService& service : topology.services) {
    const cluster::ServiceSpec& svc =
        spec.services[static_cast<std::size_t>(service.id)];
    EXPECT_EQ(svc.name, cluster::topology_service_name(options, service.id));
    std::set<std::string> expected;
    for (const int edge : service.out_edges) {
      expected.insert(cluster::topology_service_name(
          options, topology.edges[static_cast<std::size_t>(edge)].to));
    }
    EXPECT_EQ(std::set<std::string>(svc.calls.begin(), svc.calls.end()),
              expected)
        << svc.name;
  }

  sim::Simulator sim;
  auto mesh = cluster::MeshBuilder(sim).build(spec);
  ASSERT_NE(mesh, nullptr);
  EXPECT_EQ(mesh->control_plane().sidecars().size(),
            topology.services.size());
}

TEST(EndpointSubsets, DeterministicAndOrderInvariant) {
  std::vector<cluster::Endpoint> endpoints(10);
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    endpoints[i].pod_name = "s-v" + std::to_string(i + 1);
  }
  std::vector<std::string> subscribers;
  for (int i = 0; i < 7; ++i) subscribers.push_back("sub-" + std::to_string(i));

  const auto once =
      mesh::compute_endpoint_subsets("s", endpoints, subscribers, 3);
  const auto again =
      mesh::compute_endpoint_subsets("s", endpoints, subscribers, 3);
  EXPECT_EQ(once, again);

  std::vector<std::string> reversed(subscribers.rbegin(), subscribers.rend());
  EXPECT_EQ(mesh::compute_endpoint_subsets("s", endpoints, reversed, 3),
            once);
}

TEST(EndpointSubsets, EverySubscriberBoundedAndEveryEndpointCovered) {
  std::vector<cluster::Endpoint> endpoints(16);
  std::vector<std::string> subscribers;
  for (int i = 0; i < 9; ++i) subscribers.push_back("sub-" + std::to_string(i));

  const auto subsets =
      mesh::compute_endpoint_subsets("cluster", endpoints, subscribers, 4);
  ASSERT_EQ(subsets.size(), subscribers.size());
  std::set<std::size_t> covered;
  for (const auto& [name, subset] : subsets) {
    EXPECT_GE(subset.size(), 4u) << name;
    EXPECT_TRUE(std::is_sorted(subset.begin(), subset.end())) << name;
    EXPECT_EQ(std::set<std::size_t>(subset.begin(), subset.end()).size(),
              subset.size())
        << name;  // no duplicate indices
    covered.insert(subset.begin(), subset.end());
  }
  EXPECT_EQ(covered.size(), endpoints.size());  // coverage repair
}

// In a built mesh with subsetting on, every caller tracks a bounded
// endpoint table, yet the union of all callers' tables still reaches
// every replica.
TEST(EndpointSubsets, BoundsBuiltSidecarTablesWithFullCoverage) {
  cluster::MeshSpec spec;
  spec.nodes = {"node-a"};
  cluster::ServiceSpec server;
  server.name = "server";
  server.replicas = 6;
  spec.services.push_back(server);
  for (const char* name : {"caller-a", "caller-b", "caller-c"}) {
    cluster::ServiceSpec caller;
    caller.name = name;
    caller.calls = {"server"};
    spec.services.push_back(caller);
  }
  spec.policies.subset.enabled = true;
  spec.policies.subset.subset_size = 2;

  sim::Simulator sim;
  auto mesh = cluster::MeshBuilder(sim).build(std::move(spec));
  ASSERT_NE(mesh, nullptr);

  std::set<std::string> seen;
  for (const char* pod : {"caller-a-v1", "caller-b-v1", "caller-c-v1"}) {
    const mesh::Sidecar* sidecar = mesh->control_plane().sidecar_for(pod);
    ASSERT_NE(sidecar, nullptr);
    const auto it = sidecar->config().clusters.find("server");
    ASSERT_NE(it, sidecar->config().clusters.end());
    EXPECT_LT(it->second.endpoints.size(), 6u) << pod;  // bounded
    for (const cluster::Endpoint& endpoint : it->second.endpoints) {
      seen.insert(endpoint.pod_name);
    }
  }
  // The server replicas subscribe too (no scopes), so mesh-wide coverage
  // is guaranteed; the three callers alone already see several distinct
  // replicas.
  EXPECT_GE(seen.size(), 2u);

  // Mesh-wide union over every subscriber covers all six replicas.
  std::set<std::string> mesh_wide;
  for (const auto& sidecar : mesh->control_plane().sidecars()) {
    const auto it = sidecar->config().clusters.find("server");
    if (it == sidecar->config().clusters.end()) continue;
    for (const cluster::Endpoint& endpoint : it->second.endpoints) {
      mesh_wide.insert(endpoint.pod_name);
    }
  }
  EXPECT_EQ(mesh_wide.size(), 6u);
}

// Delta pushes and full-snapshot pushes must land every sidecar on the
// same config through the same epochs, even across a lossy channel and
// endpoint churn. Two identical meshes, one per transport: the RNG
// draw sequence is transport-independent (byte accounting draws
// nothing), so the loss pattern is identical and the end states must
// fingerprint identically.
TEST(DeltaPush, EquivalentToFullSnapshotsUnderLossyChurn) {
  const auto make_spec = [](bool delta) {
    cluster::MeshSpec spec = two_service_spec();
    spec.poll_interval = sim::milliseconds(50);
    spec.policies.cp.push_latency_base = sim::milliseconds(1);
    spec.policies.cp.push_latency_jitter = sim::milliseconds(2);
    spec.policies.cp.push_loss = 0.25;
    spec.policies.cp.ack_timeout = sim::milliseconds(50);
    spec.policies.cp.retry_backoff_base = sim::milliseconds(10);
    spec.policies.cp.delta_push = delta;
    return spec;
  };

  sim::Simulator sim_delta;
  sim::Simulator sim_full;
  auto mesh_delta = cluster::MeshBuilder(sim_delta).build(make_spec(true));
  auto mesh_full = cluster::MeshBuilder(sim_full).build(make_spec(false));
  ASSERT_NE(mesh_delta, nullptr);
  ASSERT_NE(mesh_full, nullptr);

  const auto churn = [](cluster::BuiltMesh& mesh, sim::Simulator& sim) {
    sim.run_until(sim::milliseconds(300));
    mesh.cluster().deregister_pod("b-v2");
    sim.run_until(sim::milliseconds(900));
    mesh.cluster().restart_pod("b-v2");
    sim.run_until(sim::seconds(2));
  };
  churn(*mesh_delta, sim_delta);
  churn(*mesh_full, sim_full);

  mesh::ControlPlane& cp_delta = mesh_delta->control_plane();
  mesh::ControlPlane& cp_full = mesh_full->control_plane();
  EXPECT_TRUE(cp_delta.converged());
  EXPECT_TRUE(cp_full.converged());
  EXPECT_EQ(cp_delta.epoch(), cp_full.epoch());
  for (const std::string pod : {"a-v1", "b-v1", "b-v2"}) {
    const mesh::Sidecar* sc_delta = cp_delta.sidecar_for(pod);
    const mesh::Sidecar* sc_full = cp_full.sidecar_for(pod);
    ASSERT_NE(sc_delta, nullptr);
    ASSERT_NE(sc_full, nullptr);
    EXPECT_EQ(mesh::hash_sidecar_config(sc_delta->config()),
              mesh::hash_sidecar_config(sc_full->config()))
        << pod;
    EXPECT_EQ(sc_delta->config().epoch, sc_full->config().epoch) << pod;
  }

  // The delta mesh really used the incremental channel, and spent far
  // fewer wire bytes doing the same convergence.
  const auto bytes_delta = cp_delta.push_channel_bytes();
  const auto bytes_full = cp_full.push_channel_bytes();
  EXPECT_GT(bytes_delta.delta_pushes, 0u);
  EXPECT_EQ(bytes_full.delta_pushes, 0u);
  EXPECT_LT(bytes_delta.delta_bytes + bytes_delta.full_bytes,
            bytes_full.full_bytes);
}

// The control plane diffs fingerprints and the sidecar keeps its own
// incrementally; both must stay equal to a from-scratch hash of the
// running config whatever the push sequence changes: endpoints, LB and
// mTLS overrides, certificates, scoping, subsetting, and routes added by
// a compile mutator.
TEST(DeltaPush, FingerprintsAgreeUnderRandomPushSequences) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cluster::MeshSpec spec = two_service_spec();
    spec.services[1].replicas = 4;
    spec.policies.cp.delta_push = true;
    spec.policies.subset.enabled = true;  // registers the subset counters
    spec.policies.subset.subset_size = 0;
    sim::Simulator sim;
    auto mesh = cluster::MeshBuilder(sim).build(std::move(spec));
    ASSERT_NE(mesh, nullptr);
    mesh::ControlPlane& cp = mesh->control_plane();
    cluster::ServiceRegistry& registry = mesh->cluster().registry();
    const std::vector<cluster::Endpoint> replicas =
        registry.find("b")->endpoints;
    std::mt19937_64 rng(seed);

    for (int step = 0; step < 40; ++step) {
      switch (rng() % 7) {
        case 0: {  // one endpoint leaves or comes back
          const cluster::Endpoint& ep = replicas[rng() % replicas.size()];
          if (!registry.remove_endpoint("b", ep.pod_name)) {
            registry.add_endpoint("b", ep);
          }
          break;
        }
        case 1:
          cp.policies().lb_overrides["b"] =
              rng() % 2 == 0 ? mesh::LbPolicy::kLeastRequest
                             : mesh::LbPolicy::kRandom;
          break;
        case 2: {
          bool& mtls = cp.policies().mtls_overrides["b"];
          mtls = !mtls;
          break;
        }
        case 3:
          cp.issue_certificate(rng() % 2 == 0 ? "a" : "b");
          break;
        case 4:
          if (cp.policies().cluster_scopes.erase("a") == 0) {
            cp.policies().cluster_scopes["a"] = {"b"};
          }
          break;
        case 5:
          cp.policies().subset.subset_size =
              cp.policies().subset.subset_size == 0 ? 2 : 0;
          break;
        case 6:
          if (rng() % 2 == 0) {
            cp.set_compile_mutator(
                [](const std::string& pod, mesh::SidecarConfig& config) {
                  config.routes["alias-of-b." + pod] = "b";
                });
          } else {
            cp.set_compile_mutator(nullptr);
          }
          break;
      }
      cp.push_config();  // zero-latency channel: delivered and acked inline
      ASSERT_TRUE(cp.converged()) << "seed " << seed << " step " << step;
      for (const auto& sidecar : cp.sidecars()) {
        const std::string& pod = sidecar->pod().name();
        const std::uint64_t from_scratch =
            mesh::hash_sidecar_config(sidecar->config());
        EXPECT_EQ(sidecar->config_fingerprint().hash, from_scratch)
            << "seed " << seed << " step " << step << " " << pod;
        EXPECT_EQ(cp.acked_hash(pod), from_scratch)
            << "seed " << seed << " step " << step << " " << pod;
      }
    }
    // Nothing touched a sidecar behind the control plane's back, so every
    // delta verified: a fallback would mean the two sides hashed apart.
    EXPECT_GT(cp.push_channel_bytes().delta_pushes, 0u) << "seed " << seed;
    EXPECT_EQ(cp.push_channel_bytes().delta_fallbacks, 0u) << "seed " << seed;
  }
}

// The per-epoch cluster table must not outlive a policy change: a sidecar
// injected later in the same epoch compiles the new policy.
TEST(DeltaPush, PolicyChangeReachesSidecarInjectedInSameEpoch) {
  cluster::MeshSpec spec = two_service_spec();
  spec.policies.cp.delta_push = true;
  sim::Simulator sim;
  auto mesh = cluster::MeshBuilder(sim).build(std::move(spec));
  ASSERT_NE(mesh, nullptr);
  mesh::ControlPlane& cp = mesh->control_plane();
  cp.push_config();  // compiles this epoch's cluster table
  const std::uint64_t epoch = cp.epoch();
  const std::uint64_t registry_version = mesh->cluster().registry().version();

  cp.policies().lb_overrides["b"] = mesh::LbPolicy::kLeastRequest;
  // Port 0: no registry endpoint, so nothing but the policy changed.
  cluster::Pod& pod = mesh->cluster().add_pod("node-a", "late-v1", "late", 0);
  mesh::Sidecar& late = cp.inject_sidecar(pod, {});

  EXPECT_EQ(cp.epoch(), epoch);
  EXPECT_EQ(mesh->cluster().registry().version(), registry_version);
  EXPECT_EQ(late.config().clusters.at("b").lb, mesh::LbPolicy::kLeastRequest);
}
