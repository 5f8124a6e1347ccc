// Tests for the cross-layer prioritization machinery: priority parsing,
// ingress classification, provenance propagation, priority routing, TC
// management, SDN coordination and the controller that wires them up.

#include <gtest/gtest.h>

#include <memory>

#include "core/classifier.h"
#include "core/cross_layer.h"
#include "core/priority.h"
#include "core/priority_router.h"
#include "core/provenance.h"
#include "core/sdn_coordinator.h"
#include "core/tc_manager.h"
#include "mesh/control_plane.h"
#include "sim/simulator.h"

namespace meshnet::core {
namespace {

using mesh::FilterDirection;
using mesh::FilterStatus;
using mesh::RequestContext;
using mesh::TrafficClass;

// ----------------------------------------------------------- priority --

TEST(Priority, ParseValues) {
  EXPECT_EQ(parse_priority("high"), TrafficClass::kLatencySensitive);
  EXPECT_EQ(parse_priority("low"), TrafficClass::kScavenger);
  EXPECT_FALSE(parse_priority("medium").has_value());
  EXPECT_FALSE(parse_priority("").has_value());
}

TEST(Priority, HeaderValueRoundTrip) {
  EXPECT_EQ(priority_header_value(TrafficClass::kLatencySensitive), "high");
  EXPECT_EQ(priority_header_value(TrafficClass::kScavenger), "low");
  EXPECT_EQ(priority_header_value(TrafficClass::kDefault), "");
}

TEST(Priority, RequestAccessors) {
  http::HttpRequest request;
  EXPECT_FALSE(request_priority(request).has_value());
  set_request_priority(request, TrafficClass::kScavenger);
  EXPECT_EQ(request_priority(request), TrafficClass::kScavenger);
  set_request_priority(request, TrafficClass::kDefault);  // removes
  EXPECT_FALSE(request.headers.has(http::headers::kMeshPriority));
}

// ---------------------------------------------------------- classifier --

RequestContext make_ctx(const std::string& path,
                        FilterDirection direction = FilterDirection::kOutbound,
                        const std::string& host = "frontend") {
  RequestContext ctx;
  ctx.direction = direction;
  ctx.request.path = path;
  ctx.request.headers.set(http::headers::kHost, host);
  return ctx;
}

ClassifierConfig product_analytics_rules() {
  ClassifierConfig config;
  config.rules = {
      {"/product", "", "", "", TrafficClass::kLatencySensitive},
      {"/analytics", "", "", "", TrafficClass::kScavenger},
  };
  config.default_class = TrafficClass::kLatencySensitive;
  return config;
}

TEST(Classifier, PathPrefixRules) {
  IngressClassifierFilter filter(product_analytics_rules());
  RequestContext high = make_ctx("/product/1");
  filter.on_request(high);
  EXPECT_EQ(high.traffic_class, TrafficClass::kLatencySensitive);
  EXPECT_EQ(high.request.headers.get_or(http::headers::kMeshPriority, ""),
            "high");
  RequestContext low = make_ctx("/analytics/scan");
  filter.on_request(low);
  EXPECT_EQ(low.traffic_class, TrafficClass::kScavenger);
  EXPECT_EQ(low.request.headers.get_or(http::headers::kMeshPriority, ""),
            "low");
  EXPECT_EQ(filter.classified_high(), 1u);
  EXPECT_EQ(filter.classified_low(), 1u);
}

TEST(Classifier, DefaultClassApplies) {
  IngressClassifierFilter filter(product_analytics_rules());
  RequestContext other = make_ctx("/misc");
  filter.on_request(other);
  EXPECT_EQ(other.traffic_class, TrafficClass::kLatencySensitive);
}

TEST(Classifier, FirstMatchingRuleWins) {
  ClassifierConfig config;
  config.rules = {
      {"/a/b", "", "", "", TrafficClass::kScavenger},
      {"/a", "", "", "", TrafficClass::kLatencySensitive},
  };
  IngressClassifierFilter filter(config);
  RequestContext ctx = make_ctx("/a/b/c");
  filter.on_request(ctx);
  EXPECT_EQ(ctx.traffic_class, TrafficClass::kScavenger);
}

TEST(Classifier, HostRule) {
  ClassifierConfig config;
  config.rules = {{"", "batch.svc", "", "", TrafficClass::kScavenger}};
  config.default_class = TrafficClass::kLatencySensitive;
  IngressClassifierFilter filter(config);
  RequestContext batch = make_ctx("/x", FilterDirection::kOutbound,
                                  "batch.svc");
  filter.on_request(batch);
  EXPECT_EQ(batch.traffic_class, TrafficClass::kScavenger);
  RequestContext ui = make_ctx("/x", FilterDirection::kOutbound, "ui.svc");
  filter.on_request(ui);
  EXPECT_EQ(ui.traffic_class, TrafficClass::kLatencySensitive);
}

TEST(Classifier, HeaderRule) {
  ClassifierConfig config;
  config.rules = {
      {"", "", "x-batch-job", "", TrafficClass::kScavenger},
      {"", "", "x-tier", "gold", TrafficClass::kLatencySensitive},
  };
  config.default_class = TrafficClass::kLatencySensitive;
  IngressClassifierFilter filter(config);
  RequestContext ctx = make_ctx("/");
  ctx.request.headers.set("x-batch-job", "nightly");
  filter.on_request(ctx);
  EXPECT_EQ(ctx.traffic_class, TrafficClass::kScavenger);

  RequestContext gold = make_ctx("/");
  gold.request.headers.set("x-tier", "gold");
  filter.on_request(gold);
  EXPECT_EQ(gold.traffic_class, TrafficClass::kLatencySensitive);

  RequestContext silver = make_ctx("/");
  silver.request.headers.set("x-tier", "silver");
  filter.on_request(silver);  // value mismatch: falls to default
  EXPECT_EQ(silver.traffic_class, TrafficClass::kLatencySensitive);
}

TEST(Classifier, RespectsExistingHeaderByDefault) {
  IngressClassifierFilter filter(product_analytics_rules());
  RequestContext ctx = make_ctx("/product/1");  // rule says high...
  ctx.request.headers.set(http::headers::kMeshPriority, "low");  // app says low
  filter.on_request(ctx);
  EXPECT_EQ(ctx.traffic_class, TrafficClass::kScavenger);
}

// ---------------------------------------------------------- provenance --

TEST(ProvenanceTable, RecordAndLookup) {
  sim::Simulator sim;
  ProvenanceTable table(sim);
  table.record("req-1", TrafficClass::kScavenger);
  EXPECT_EQ(table.lookup("req-1"), TrafficClass::kScavenger);
  EXPECT_FALSE(table.lookup("req-2").has_value());
  EXPECT_EQ(table.hits(), 1u);
  EXPECT_EQ(table.misses(), 1u);
}

TEST(ProvenanceTable, EmptyIdIgnored) {
  sim::Simulator sim;
  ProvenanceTable table(sim);
  table.record("", TrafficClass::kScavenger);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.lookup("").has_value());
}

TEST(ProvenanceTable, EntriesExpireAfterTtl) {
  sim::Simulator sim;
  ProvenanceTable table(sim, sim::seconds(1));
  table.record("req-1", TrafficClass::kLatencySensitive);
  sim.run_until(sim::milliseconds(500));
  EXPECT_TRUE(table.lookup("req-1").has_value());
  sim.run_until(sim::seconds(2));
  EXPECT_FALSE(table.lookup("req-1").has_value());
}

TEST(ProvenanceTable, SweepEvictsExpired) {
  sim::Simulator sim;
  ProvenanceTable table(sim, sim::seconds(1));
  for (int i = 0; i < 100; ++i) {
    table.record("req-" + std::to_string(i), TrafficClass::kScavenger);
  }
  sim.run_until(sim::seconds(3));
  // Recording anything triggers the amortized sweep.
  table.record("fresh", TrafficClass::kScavenger);
  EXPECT_EQ(table.size(), 1u);
}

TEST(ProvenanceFilter, InboundRecordsOutboundStamps) {
  sim::Simulator sim;
  auto table = std::make_shared<ProvenanceTable>(sim);
  ProvenanceFilter filter(table);

  // Inbound request with priority: recorded.
  RequestContext inbound = make_ctx("/api", FilterDirection::kInbound);
  inbound.request.set_request_id("req-42");
  inbound.request.headers.set(http::headers::kMeshPriority, "low");
  filter.on_request(inbound);
  EXPECT_EQ(inbound.traffic_class, TrafficClass::kScavenger);

  // Outbound sub-request, same id, no priority header (unmodified app):
  // the filter must stamp the inherited priority.
  RequestContext outbound = make_ctx("/sub", FilterDirection::kOutbound);
  outbound.request.set_request_id("req-42");
  filter.on_request(outbound);
  EXPECT_EQ(outbound.traffic_class, TrafficClass::kScavenger);
  EXPECT_EQ(outbound.request.headers.get_or(http::headers::kMeshPriority, ""),
            "low");
}

TEST(ProvenanceFilter, OutboundWithUnknownIdStaysDefault) {
  sim::Simulator sim;
  auto table = std::make_shared<ProvenanceTable>(sim);
  ProvenanceFilter filter(table);
  RequestContext outbound = make_ctx("/sub", FilterDirection::kOutbound);
  outbound.request.set_request_id("req-unknown");
  filter.on_request(outbound);
  EXPECT_EQ(outbound.traffic_class, TrafficClass::kDefault);
  EXPECT_FALSE(outbound.request.headers.has(http::headers::kMeshPriority));
}

TEST(ProvenanceFilter, OutboundExplicitPriorityWarmsTable) {
  sim::Simulator sim;
  auto table = std::make_shared<ProvenanceTable>(sim);
  ProvenanceFilter filter(table);
  RequestContext outbound = make_ctx("/sub", FilterDirection::kOutbound);
  outbound.request.set_request_id("req-7");
  outbound.request.headers.set(http::headers::kMeshPriority, "high");
  filter.on_request(outbound);
  EXPECT_EQ(table->lookup("req-7"), TrafficClass::kLatencySensitive);
}

TEST(ProvenanceFilter, ResponseCarriesPriorityHeader) {
  sim::Simulator sim;
  auto table = std::make_shared<ProvenanceTable>(sim);
  ProvenanceFilter filter(table);
  RequestContext ctx = make_ctx("/x", FilterDirection::kInbound);
  ctx.request.set_request_id("req-9");
  ctx.request.headers.set(http::headers::kMeshPriority, "high");
  filter.on_request(ctx);
  http::HttpResponse response;
  filter.on_response(ctx, response);
  EXPECT_EQ(response.headers.get_or(http::headers::kMeshPriority, ""),
            "high");
}

// ------------------------------------------------------ priority router --

TEST(PriorityRouter, MapsClassesToSubsets) {
  PriorityRouterFilter filter;
  RequestContext high = make_ctx("/x");
  high.traffic_class = TrafficClass::kLatencySensitive;
  filter.on_request(high);
  EXPECT_EQ(high.subset.at("priority"), "high");
  RequestContext low = make_ctx("/x");
  low.traffic_class = TrafficClass::kScavenger;
  filter.on_request(low);
  EXPECT_EQ(low.subset.at("priority"), "low");
  EXPECT_EQ(filter.routed_high(), 1u);
  EXPECT_EQ(filter.routed_low(), 1u);
}

TEST(PriorityRouter, DefaultClassUnconstrained) {
  PriorityRouterFilter filter;
  RequestContext ctx = make_ctx("/x");
  filter.on_request(ctx);
  EXPECT_TRUE(ctx.subset.empty());
}

TEST(PriorityRouter, InboundUntouched) {
  PriorityRouterFilter filter;
  RequestContext ctx = make_ctx("/x", FilterDirection::kInbound);
  ctx.traffic_class = TrafficClass::kLatencySensitive;
  filter.on_request(ctx);
  EXPECT_TRUE(ctx.subset.empty());
}

TEST(PriorityRouter, ClusterScoping) {
  PriorityRouterFilter filter({"reviews"});
  RequestContext reviews = make_ctx("/x", FilterDirection::kOutbound,
                                    "reviews");
  reviews.traffic_class = TrafficClass::kLatencySensitive;
  filter.on_request(reviews);
  EXPECT_FALSE(reviews.subset.empty());
  RequestContext details = make_ctx("/x", FilterDirection::kOutbound,
                                    "details");
  details.traffic_class = TrafficClass::kLatencySensitive;
  filter.on_request(details);
  EXPECT_TRUE(details.subset.empty());
}

// ------------------------------------------------------------ TC manager --

class TcFixture : public ::testing::Test {
 protected:
  TcFixture() : cluster(sim) {
    cluster.add_node("n1");
    high_pod = &cluster.add_pod("n1", "high-pod", "svc", 80);
    low_pod = &cluster.add_pod("n1", "low-pod", "svc", 80);
  }
  sim::Simulator sim;
  cluster::Cluster cluster;
  cluster::Pod* high_pod;
  cluster::Pod* low_pod;
};

TEST_F(TcFixture, InstallReplacesQdisc) {
  TcManager tc(cluster);
  TcRule rule;
  rule.pod_name = "low-pod";
  rule.high_priority_ips = {high_pod->ip()};
  EXPECT_TRUE(tc.install(rule));
  EXPECT_NE(dynamic_cast<net::WeightedPrioQdisc*>(&low_pod->egress_link().qdisc()),
            nullptr);
  EXPECT_EQ(tc.rules().size(), 1u);
}

TEST_F(TcFixture, StrictVariant) {
  TcManager tc(cluster);
  TcRule rule;
  rule.pod_name = "low-pod";
  rule.strict = true;
  rule.match = TcMatch::kDscp;
  EXPECT_TRUE(tc.install(rule));
  EXPECT_NE(dynamic_cast<net::StrictPrioQdisc*>(&low_pod->egress_link().qdisc()),
            nullptr);
}

TEST_F(TcFixture, UnknownPodFails) {
  TcManager tc(cluster);
  TcRule rule;
  rule.pod_name = "ghost";
  EXPECT_FALSE(tc.install(rule));
  EXPECT_FALSE(tc.clear("ghost"));
}

TEST_F(TcFixture, ClearRestoresFifo) {
  TcManager tc(cluster);
  TcRule rule;
  rule.pod_name = "low-pod";
  rule.match = TcMatch::kDscp;
  tc.install(rule);
  EXPECT_TRUE(tc.clear("low-pod"));
  EXPECT_NE(dynamic_cast<net::FifoQdisc*>(&low_pod->egress_link().qdisc()),
            nullptr);
  EXPECT_TRUE(tc.rules().empty());
}

TEST_F(TcFixture, InstallOnAllPodsAndClearAll) {
  TcManager tc(cluster);
  TcRule rule;
  rule.match = TcMatch::kDscp;
  tc.install_on_all_pods(rule);
  EXPECT_EQ(tc.rules().size(), cluster.pods().size());
  tc.clear_all();
  EXPECT_TRUE(tc.rules().empty());
}

TEST_F(TcFixture, ReinstallReplacesInventoryEntry) {
  TcManager tc(cluster);
  TcRule rule;
  rule.pod_name = "low-pod";
  rule.match = TcMatch::kDscp;
  tc.install(rule);
  rule.high_share = 0.8;
  tc.install(rule);
  ASSERT_EQ(tc.rules().size(), 1u);
  EXPECT_DOUBLE_EQ(tc.rules()[0].high_share, 0.8);
}

TEST_F(TcFixture, DstIpClassifierPrioritizes) {
  TcManager tc(cluster);
  TcRule rule;
  rule.pod_name = "low-pod";
  rule.high_priority_ips = {high_pod->ip()};
  tc.install(rule);
  auto* qdisc = dynamic_cast<net::WeightedPrioQdisc*>(
      &low_pod->egress_link().qdisc());
  ASSERT_NE(qdisc, nullptr);
  net::Packet to_high;
  to_high.flow.dst_ip = high_pod->ip();
  net::Packet to_low;
  to_low.flow.dst_ip = low_pod->ip();
  qdisc->enqueue(to_low, 0);
  qdisc->enqueue(to_high, 0);
  EXPECT_EQ(qdisc->band_backlog_packets(0), 1u);
  EXPECT_EQ(qdisc->band_backlog_packets(1), 1u);
}

TEST_F(TcFixture, ShowRendersRules) {
  TcManager tc(cluster);
  TcRule rule;
  rule.pod_name = "low-pod";
  rule.high_priority_ips = {high_pod->ip()};
  tc.install(rule);
  const std::string out = tc.show();
  EXPECT_NE(out.find("low-pod"), std::string::npos);
  EXPECT_NE(out.find("0.95"), std::string::npos);
  EXPECT_NE(out.find(net::ip_to_string(high_pod->ip())), std::string::npos);
}

// -------------------------------------------------------- SDN coordinator --

TEST(SdnCoordinator, AdvertiseAndClassify) {
  SdnCoordinator sdn;
  const net::FlowKey flow{1, 100, 2, 200};
  EXPECT_EQ(sdn.classify(flow), TrafficClass::kDefault);
  sdn.advertise(flow, TrafficClass::kLatencySensitive);
  EXPECT_EQ(sdn.classify(flow), TrafficClass::kLatencySensitive);
  // The reverse direction inherits the class (responses!).
  EXPECT_EQ(sdn.classify(flow.reversed()), TrafficClass::kLatencySensitive);
  EXPECT_EQ(sdn.advertised_flows(), 1u);
}

TEST(SdnCoordinator, WithdrawRemoves) {
  SdnCoordinator sdn;
  const net::FlowKey flow{1, 100, 2, 200};
  sdn.advertise(flow, TrafficClass::kScavenger);
  sdn.withdraw(flow);
  EXPECT_EQ(sdn.classify(flow), TrafficClass::kDefault);
}

TEST(SdnCoordinator, ProgramLinkUsesFlowTable) {
  sim::Simulator sim;
  net::Link link(sim, "fabric", 1e9, 0, std::make_unique<net::FifoQdisc>());
  SdnCoordinator sdn;
  sdn.program_link(link);
  auto* qdisc = dynamic_cast<net::WeightedPrioQdisc*>(&link.qdisc());
  ASSERT_NE(qdisc, nullptr);
  const net::FlowKey ls_flow{1, 10, 2, 20};
  sdn.advertise(ls_flow, TrafficClass::kLatencySensitive);
  net::Packet ls;
  ls.flow = ls_flow;
  net::Packet other;
  other.flow = net::FlowKey{3, 30, 4, 40};
  qdisc->enqueue(ls, 0);
  qdisc->enqueue(other, 0);
  EXPECT_EQ(qdisc->band_backlog_packets(0), 1u);
  EXPECT_EQ(qdisc->band_backlog_packets(1), 1u);
}

// ----------------------------------------------- cross-layer controller --

class CrossLayerFixture : public ::testing::Test {
 protected:
  CrossLayerFixture() : cluster(sim), control_plane(sim, cluster) {
    cluster.add_node("n1");
    gateway = &cluster.add_pod("n1", "gw", "gateway", 0);
    cluster::PodOptions high;
    high.labels = {{"priority", "high"}};
    rep_high = &cluster.add_pod("n1", "svc-high", "svc", 8080, high);
    cluster::PodOptions low;
    low.labels = {{"priority", "low"}};
    rep_low = &cluster.add_pod("n1", "svc-low", "svc", 8080, low);
    mesh::SidecarInjectionOptions gw_options;
    gw_options.gateway_mode = true;
    gw_options.outbound_port = 80;
    control_plane.inject_sidecar(*gateway, gw_options);
    control_plane.inject_sidecar(*rep_high, {});
    control_plane.inject_sidecar(*rep_low, {});
  }

  sim::Simulator sim;
  cluster::Cluster cluster;
  mesh::ControlPlane control_plane;
  cluster::Pod* gateway;
  cluster::Pod* rep_high;
  cluster::Pod* rep_low;
};

TEST_F(CrossLayerFixture, CollectsHighPriorityPodIps) {
  CrossLayerController controller(control_plane, cluster, {});
  const auto ips = controller.high_priority_pod_ips();
  ASSERT_EQ(ips.size(), 1u);
  EXPECT_EQ(ips[0], rep_high->ip());
}

TEST_F(CrossLayerFixture, InstallAddsFiltersEverywhere) {
  CrossLayerController controller(control_plane, cluster, {});
  controller.install();
  // Gateway outbound: tracing, identity, classifier, provenance, router.
  const auto gw_names =
      control_plane.sidecar_for("gw")->outbound_filters().filter_names();
  EXPECT_NE(std::find(gw_names.begin(), gw_names.end(), "ingress-classifier"),
            gw_names.end());
  EXPECT_NE(std::find(gw_names.begin(), gw_names.end(), "provenance"),
            gw_names.end());
  EXPECT_NE(std::find(gw_names.begin(), gw_names.end(), "priority-router"),
            gw_names.end());
  // App sidecar inbound gets provenance but NOT the ingress classifier.
  const auto in_names =
      control_plane.sidecar_for("svc-high")->inbound_filters().filter_names();
  EXPECT_NE(std::find(in_names.begin(), in_names.end(), "provenance"),
            in_names.end());
  EXPECT_EQ(std::find(in_names.begin(), in_names.end(), "ingress-classifier"),
            in_names.end());
}

TEST_F(CrossLayerFixture, InstallSetsClassPoliciesAndTcRules) {
  CrossLayerConfig config;
  config.scavenger_transport = true;
  CrossLayerController controller(control_plane, cluster, config);
  controller.install();
  const auto& policies = control_plane.policies().class_policies;
  ASSERT_TRUE(policies.count(TrafficClass::kLatencySensitive));
  ASSERT_TRUE(policies.count(TrafficClass::kScavenger));
  EXPECT_EQ(policies.at(TrafficClass::kLatencySensitive).dscp,
            net::Dscp::kExpedited);
  EXPECT_EQ(policies.at(TrafficClass::kScavenger).cc,
            transport::CcAlgorithm::kLedbat);
  EXPECT_EQ(controller.tc().rules().size(), cluster.pods().size());
}

TEST_F(CrossLayerFixture, DscpTaggingCanBeDisabled) {
  CrossLayerConfig config;
  config.dscp_tagging = false;
  CrossLayerController controller(control_plane, cluster, config);
  controller.install();
  const auto& policies = control_plane.policies().class_policies;
  EXPECT_EQ(policies.at(TrafficClass::kLatencySensitive).dscp,
            net::Dscp::kDefault);
}

TEST_F(CrossLayerFixture, TcPriorityCanBeDisabled) {
  CrossLayerConfig config;
  config.tc_priority = false;
  CrossLayerController controller(control_plane, cluster, config);
  controller.install();
  EXPECT_TRUE(controller.tc().rules().empty());
}

TEST_F(CrossLayerFixture, UninstallRestoresDefaults) {
  CrossLayerController controller(control_plane, cluster, {});
  controller.install();
  controller.uninstall();
  EXPECT_TRUE(controller.tc().rules().empty());
  EXPECT_TRUE(control_plane.policies().class_policies.empty());
  EXPECT_NE(dynamic_cast<net::FifoQdisc*>(&rep_low->egress_link().qdisc()),
            nullptr);
}

TEST_F(CrossLayerFixture, ProvenanceTablesExposedPerPod) {
  CrossLayerController controller(control_plane, cluster, {});
  controller.install();
  EXPECT_NE(controller.provenance_table("svc-high"), nullptr);
  EXPECT_NE(controller.provenance_table("gw"), nullptr);
  EXPECT_EQ(controller.provenance_table("ghost"), nullptr);
}

TEST_F(CrossLayerFixture, InstallIsIdempotent) {
  CrossLayerController controller(control_plane, cluster, {});
  controller.install();
  const auto count =
      control_plane.sidecar_for("gw")->outbound_filters().size();
  controller.install();
  EXPECT_EQ(control_plane.sidecar_for("gw")->outbound_filters().size(),
            count);
}

}  // namespace
}  // namespace meshnet::core
