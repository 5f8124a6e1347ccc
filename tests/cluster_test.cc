// Tests for the orchestration substrate: registry, IP allocation, pods.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "cluster/cluster.h"
#include "cluster/service_registry.h"
#include "sim/simulator.h"

namespace meshnet::cluster {
namespace {

TEST(ServiceRegistry, RegisterAndFind) {
  ServiceRegistry registry;
  registry.add_endpoint("reviews", {"reviews-v1", 7, 9080, {}});
  const ServiceInfo* info = registry.find("reviews");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->name, "reviews");
  EXPECT_EQ(info->port, 9080);
  ASSERT_EQ(info->endpoints.size(), 1u);
  EXPECT_EQ(info->endpoints[0].pod_name, "reviews-v1");
  EXPECT_EQ(registry.find("nope"), nullptr);
}

TEST(ServiceRegistry, AddEndpointCreatesServiceImplicitly) {
  ServiceRegistry registry;
  registry.add_endpoint("ratings", {"ratings-v1", 42, 9080, {}});
  const ServiceInfo* info = registry.find("ratings");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->endpoints.size(), 1u);
  EXPECT_EQ(info->port, 9080);  // inherited from the endpoint
}

TEST(ServiceRegistry, AddEndpointReplacesByPodName) {
  ServiceRegistry registry;
  registry.add_endpoint("svc", {"pod-1", 1, 80, {}});
  registry.add_endpoint("svc", {"pod-1", 2, 80, {}});
  const ServiceInfo* info = registry.find("svc");
  ASSERT_EQ(info->endpoints.size(), 1u);
  EXPECT_EQ(info->endpoints[0].ip, 2u);
}

TEST(ServiceRegistry, RemoveEndpoint) {
  ServiceRegistry registry;
  registry.add_endpoint("svc", {"pod-1", 1, 80, {}});
  registry.add_endpoint("svc", {"pod-2", 2, 80, {}});
  EXPECT_TRUE(registry.remove_endpoint("svc", "pod-1"));
  EXPECT_EQ(registry.find("svc")->endpoints.size(), 1u);
  EXPECT_FALSE(registry.remove_endpoint("svc", "pod-1"));
  EXPECT_FALSE(registry.remove_endpoint("ghost", "pod-1"));
}

TEST(ServiceRegistry, VersionBumpsOnEveryMutation) {
  ServiceRegistry registry;
  const auto v0 = registry.version();
  registry.add_endpoint("a", {"p", 1, 80, {}});
  const auto v1 = registry.version();
  EXPECT_GT(v1, v0);
  registry.add_endpoint("a", {"p", 2, 80, {}});  // replace counts too
  const auto v2 = registry.version();
  EXPECT_GT(v2, v1);
  registry.remove_endpoint("a", "p");
  EXPECT_GT(registry.version(), v2);
}

TEST(ServiceRegistry, ServicesSortedByName) {
  ServiceRegistry registry;
  registry.add_endpoint("zeta", {"zeta-v1", 1, 80, {}});
  registry.add_endpoint("alpha", {"alpha-v1", 2, 80, {}});
  const auto services = registry.services();
  ASSERT_EQ(services.size(), 2u);
  EXPECT_EQ(services[0]->name, "alpha");
  EXPECT_EQ(services[1]->name, "zeta");
}

TEST(Endpoint, LabelOr) {
  Endpoint ep{"p", 1, 80, {{"priority", "high"}}};
  EXPECT_EQ(ep.label_or("priority", "none"), "high");
  EXPECT_EQ(ep.label_or("missing", "none"), "none");
}

class ClusterTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  Cluster cluster{sim};
};

TEST_F(ClusterTest, PodIpsAreUniqueAndCniShaped) {
  cluster.add_node("n1");
  cluster.add_node("n2");
  std::set<net::IpAddress> ips;
  for (int i = 0; i < 5; ++i) {
    ips.insert(cluster
                   .add_pod(i % 2 ? "n1" : "n2", "pod-" + std::to_string(i),
                            "svc", 80)
                   .ip());
  }
  EXPECT_EQ(ips.size(), 5u);
  for (const auto ip : ips) {
    EXPECT_EQ((ip >> 24) & 0xff, 10u);
    EXPECT_EQ((ip >> 16) & 0xff, 244u);
  }
}

TEST_F(ClusterTest, FullNodeThrowsInsteadOfReusingAnAddress) {
  // .2 to .255: the 254th pod takes the last address of the /24.
  for (int i = 0; i < 254; ++i) {
    cluster.add_pod("n1", "pod-" + std::to_string(i), "", 0);
  }
  EXPECT_EQ(cluster.find_pod("pod-253")->ip(), net::make_ip(10, 244, 0, 255));
  EXPECT_THROW(cluster.add_pod("n1", "pod-254", "", 0), std::length_error);
  // Another node has its own /24.
  EXPECT_EQ(cluster.add_pod("n2", "pod-254", "", 0).ip(),
            net::make_ip(10, 244, 1, 2));
}

TEST_F(ClusterTest, NodePastTheLastSubnetThrows) {
  for (int i = 0; i < 256; ++i) cluster.add_node("n" + std::to_string(i));
  EXPECT_THROW(cluster.add_node("n256"), std::length_error);
  EXPECT_EQ(cluster.add_pod("n255", "last", "", 0).ip(),
            net::make_ip(10, 244, 255, 2));
}

TEST_F(ClusterTest, AddNodeIsIdempotent) {
  cluster.add_node("n1");
  const auto before = cluster.network().location_count();
  cluster.add_node("n1");
  EXPECT_EQ(cluster.network().location_count(), before);
}

TEST_F(ClusterTest, PodRegistersAsEndpoint) {
  Pod& pod = cluster.add_pod("n1", "reviews-v1", "reviews", 9080,
                             {0, -1, {{"priority", "high"}}});
  const ServiceInfo* info = cluster.registry().find("reviews");
  ASSERT_NE(info, nullptr);
  ASSERT_EQ(info->endpoints.size(), 1u);
  EXPECT_EQ(info->endpoints[0].pod_name, "reviews-v1");
  EXPECT_EQ(info->endpoints[0].ip, pod.ip());
  EXPECT_EQ(info->endpoints[0].label_or("priority", ""), "high");
}

TEST_F(ClusterTest, ServicelessPodIsNotRegistered) {
  cluster.add_pod("n1", "client", "", 0);
  EXPECT_EQ(cluster.registry().services().size(), 0u);
}

TEST_F(ClusterTest, FindPod) {
  cluster.add_pod("n1", "a", "svc", 80);
  EXPECT_NE(cluster.find_pod("a"), nullptr);
  EXPECT_EQ(cluster.find_pod("b"), nullptr);
  EXPECT_EQ(cluster.pods().size(), 1u);
}

TEST_F(ClusterTest, PodLinkRateOverride) {
  Pod& normal = cluster.add_pod("n1", "normal", "svc", 80);
  PodOptions slow;
  slow.link_bps = 1e9;
  Pod& bottleneck = cluster.add_pod("n1", "slow", "svc", 80, slow);
  EXPECT_DOUBLE_EQ(normal.egress_link().rate_bps(), 15e9);
  EXPECT_DOUBLE_EQ(bottleneck.egress_link().rate_bps(), 1e9);
  EXPECT_DOUBLE_EQ(bottleneck.ingress_link().rate_bps(), 1e9);
}

TEST_F(ClusterTest, PodsCanExchangePackets) {
  Pod& a = cluster.add_pod("n1", "a", "svc", 80);
  Pod& b = cluster.add_pod("n2", "b", "svc", 80);
  std::string got;
  b.transport().listen(80, [&](transport::Connection& c) {
    c.set_on_data([&](std::string_view d) { got.append(d); });
  });
  a.transport().connect({b.ip(), 80}).send("cross-node");
  sim.run_until(sim::seconds(2));
  EXPECT_EQ(got, "cross-node");
}

TEST_F(ClusterTest, SameNodePodsCommunicate) {
  Pod& a = cluster.add_pod("n1", "a", "svc", 80);
  Pod& b = cluster.add_pod("n1", "b", "svc", 80);
  std::string got;
  b.transport().listen(80, [&](transport::Connection& c) {
    c.set_on_data([&](std::string_view d) { got.append(d); });
  });
  a.transport().connect({b.ip(), 80}).send("same-node");
  sim.run_until(sim::seconds(2));
  EXPECT_EQ(got, "same-node");
}

TEST_F(ClusterTest, VnicLinksAreNamedAndDiscoverable) {
  cluster.add_pod("n1", "mypod", "svc", 80);
  EXPECT_NE(cluster.network().find_link("vnic:mypod:egress"), nullptr);
  EXPECT_NE(cluster.network().find_link("vnic:mypod:ingress"), nullptr);
}

}  // namespace
}  // namespace meshnet::cluster
