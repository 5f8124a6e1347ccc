// Tests for the fault-injection layer: FaultPlan expansion, the
// ChaosController's link/pod actions against a live cluster, and
// determinism of the fault log.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "faults/chaos.h"
#include "sim/simulator.h"
#include "transport/connection.h"

namespace meshnet::faults {
namespace {

// ----------------------------------------------------- FaultPlan ------

TEST(FaultPlan, FlapExpandsIntoDownUpPairs) {
  FaultPlan plan;
  plan.flap(sim::seconds(1), sim::seconds(5), "pod-a", sim::seconds(2),
            sim::milliseconds(40));
  // Cycles start at 1s and 3s (5s is not < 5s): two down/up pairs.
  const auto& entries = plan.entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].action, FaultAction::kLinkDown);
  EXPECT_EQ(entries[0].at, sim::seconds(1));
  EXPECT_EQ(entries[1].action, FaultAction::kLinkUp);
  EXPECT_EQ(entries[1].at, sim::seconds(1) + sim::milliseconds(40));
  EXPECT_EQ(entries[2].action, FaultAction::kLinkDown);
  EXPECT_EQ(entries[2].at, sim::seconds(3));
  EXPECT_EQ(entries[3].action, FaultAction::kLinkUp);
  EXPECT_EQ(entries[3].at, sim::seconds(3) + sim::milliseconds(40));
}

TEST(FaultPlan, PacketLossSetsAndClears) {
  FaultPlan plan;
  plan.packet_loss(sim::seconds(2), sim::seconds(4), "pod-b", 0.25);
  const auto& entries = plan.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].action, FaultAction::kLinkLoss);
  EXPECT_DOUBLE_EQ(entries[0].value, 0.25);
  EXPECT_EQ(entries[1].at, sim::seconds(4));
  EXPECT_DOUBLE_EQ(entries[1].value, 0.0);
}

// ----------------------------------------------- ChaosController ------

class ChaosFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<cluster::Cluster>(sim_);
    cluster_->add_node("n1");
    a_ = &cluster_->add_pod("n1", "pod-a", "svc-a", 80);
    b_ = &cluster_->add_pod("n1", "pod-b", "svc-b", 80);
    controller_ = std::make_unique<ChaosController>(sim_, *cluster_, 7);
  }

  /// Opens a connection a->b, counting bytes b receives.
  void wire_traffic() {
    b_->transport().listen(80, [this](transport::Connection& conn) {
      conn.set_on_data(
          [this](std::string_view data) { received_ += data.size(); });
    });
    sender_ = &a_->transport().connect({b_->ip(), 80});
  }

  sim::Simulator sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  cluster::Pod* a_ = nullptr;
  cluster::Pod* b_ = nullptr;
  std::unique_ptr<ChaosController> controller_;
  transport::Connection* sender_ = nullptr;
  std::size_t received_ = 0;
};

TEST_F(ChaosFixture, LinkDownBlackholesAndRecoveryRedelivers) {
  wire_traffic();
  sender_->send(std::string(1000, 'x'));
  sim_.run_until(sim_.now() + sim::seconds(1));
  ASSERT_EQ(received_, 1000u);

  ASSERT_TRUE(controller_->set_link_up("pod-b", false));
  EXPECT_FALSE(b_->ingress_link().is_up());
  sender_->send(std::string(500, 'y'));
  sim_.run_until(sim_.now() + sim::seconds(1));
  EXPECT_EQ(received_, 1000u);  // blackholed
  EXPECT_GT(b_->ingress_link().stats().down_drops +
                b_->egress_link().stats().down_drops,
            0u);

  // Back up: transport retransmission delivers the lost segment.
  ASSERT_TRUE(controller_->set_link_up("pod-b", true));
  sim_.run_until(sim_.now() + sim::seconds(10));
  EXPECT_EQ(received_, 1500u);
}

TEST_F(ChaosFixture, PacketLossDropsButTransportRecovers) {
  wire_traffic();
  ASSERT_TRUE(controller_->set_link_loss("pod-b", 0.3));
  for (int i = 0; i < 20; ++i) {
    sender_->send(std::string(2000, 'z'));
    sim_.run_until(sim_.now() + sim::milliseconds(200));
  }
  sim_.run_until(sim_.now() + sim::seconds(20));
  // Reliability survives the loss; the link counted real drops.
  EXPECT_EQ(received_, 40000u);
  EXPECT_GT(b_->ingress_link().stats().loss_drops +
                b_->egress_link().stats().loss_drops,
            0u);

  // Clearing the loss stops the bleeding.
  ASSERT_TRUE(controller_->set_link_loss("pod-b", 0.0));
  const auto drops_after_clear = b_->ingress_link().stats().loss_drops +
                                 b_->egress_link().stats().loss_drops;
  sender_->send(std::string(2000, 'w'));
  sim_.run_until(sim_.now() + sim::seconds(5));
  EXPECT_EQ(received_, 42000u);
  EXPECT_EQ(b_->ingress_link().stats().loss_drops +
                b_->egress_link().stats().loss_drops,
            drops_after_clear);
}

TEST_F(ChaosFixture, CrashKeepsRegistryDeregisterRemovesRestartRejoins) {
  ASSERT_TRUE(controller_->crash_pod("pod-b"));
  EXPECT_FALSE(b_->running());
  EXPECT_FALSE(b_->egress_link().is_up());
  // Crash models silent failure: discovery still lists the endpoint.
  ASSERT_NE(cluster_->registry().find("svc-b"), nullptr);
  EXPECT_EQ(cluster_->registry().find("svc-b")->endpoints.size(), 1u);

  // The slow path (node controller) removes it explicitly.
  ASSERT_TRUE(controller_->deregister_pod("pod-b"));
  EXPECT_TRUE(cluster_->registry().find("svc-b")->endpoints.empty());

  // Restart rejoins with the original port and labels.
  ASSERT_TRUE(controller_->restart_pod("pod-b"));
  EXPECT_TRUE(b_->running());
  EXPECT_TRUE(b_->egress_link().is_up());
  ASSERT_EQ(cluster_->registry().find("svc-b")->endpoints.size(), 1u);
  EXPECT_EQ(cluster_->registry().find("svc-b")->endpoints[0].port, 80);
}

TEST_F(ChaosFixture, CrashAndRestartAreIdempotent) {
  EXPECT_TRUE(controller_->crash_pod("pod-a"));
  EXPECT_FALSE(controller_->crash_pod("pod-a"));   // already down
  EXPECT_TRUE(controller_->restart_pod("pod-a"));
  EXPECT_FALSE(controller_->restart_pod("pod-a"));  // already up
  EXPECT_FALSE(controller_->crash_pod("ghost"));
  ASSERT_EQ(controller_->log().size(), 5u);
  EXPECT_TRUE(controller_->log()[0].applied);
  EXPECT_FALSE(controller_->log()[1].applied);
  EXPECT_FALSE(controller_->log()[4].applied);
}

TEST_F(ChaosFixture, DegradeMultipliesComputeAndRestores) {
  ASSERT_TRUE(controller_->degrade_pod("pod-a", 4.0));
  EXPECT_DOUBLE_EQ(a_->compute_multiplier(), 4.0);
  ASSERT_TRUE(controller_->degrade_pod("pod-a", 1.0));
  EXPECT_DOUBLE_EQ(a_->compute_multiplier(), 1.0);
}

TEST_F(ChaosFixture, ScheduledPlanExecutesAtPlannedTimesAndHookFires) {
  FaultPlan plan;
  plan.crash(sim::seconds(2), "pod-b").restart(sim::seconds(4), "pod-b");
  std::vector<sim::Time> hook_times;
  controller_->set_fault_hook([&](const FaultLogEntry& entry) {
    hook_times.push_back(entry.at);
  });
  controller_->schedule(plan);
  sim_.run_until(sim::seconds(3));
  EXPECT_FALSE(b_->running());
  sim_.run_until(sim::seconds(5));
  EXPECT_TRUE(b_->running());
  ASSERT_EQ(hook_times.size(), 2u);
  EXPECT_EQ(hook_times[0], sim::seconds(2));
  EXPECT_EQ(hook_times[1], sim::seconds(4));
}

TEST(ChaosDeterminism, SameSeedSamePlanSameLog) {
  auto run_once = [] {
    sim::Simulator sim;
    cluster::Cluster cluster(sim);
    cluster.add_node("n1");
    cluster.add_pod("n1", "pod-a", "svc", 80);
    ChaosController controller(sim, cluster, 99);
    FaultPlan plan;
    plan.crash(sim::seconds(1), "pod-a")
        .restart(sim::seconds(2), "pod-a")
        .packet_loss(sim::seconds(3), sim::seconds(4), "pod-a", 0.1);
    controller.schedule(plan);
    sim.run_until(sim::seconds(5));
    return controller.log();
  };
  const auto log_a = run_once();
  const auto log_b = run_once();
  ASSERT_EQ(log_a.size(), log_b.size());
  for (std::size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].at, log_b[i].at);
    EXPECT_EQ(log_a[i].action, log_b[i].action);
    EXPECT_EQ(log_a[i].target, log_b[i].target);
    EXPECT_EQ(log_a[i].applied, log_b[i].applied);
  }
}

}  // namespace
}  // namespace meshnet::faults
