// Tests for control-plane fault tolerance: versioned config epochs,
// ack/retry push over a lossy channel, rollback on poison config,
// crash/recovery reconvergence, cert rotation and flap damping.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "mesh/config_delta.h"
#include "mesh/control_plane.h"
#include "mesh/health_checker.h"
#include "mesh/sidecar.h"
#include "sim/simulator.h"

namespace meshnet::mesh {
namespace {

std::uint64_t counter(const ControlPlane& cp, std::string_view name) {
  const obs::Counter* c = cp.metrics().find_counter(name);
  return c == nullptr ? 0 : c->value();
}

/// Client pod + N server replicas, sidecars injected, no apps: these
/// tests exercise the push channel and probe machinery, not request
/// traffic.
class ControlPlaneFixture : public ::testing::Test {
 protected:
  void build(int replicas = 1, MeshPolicies policies = {}) {
    cluster_ = std::make_unique<cluster::Cluster>(sim_);
    cluster_->add_node("n1");
    client_pod_ = &cluster_->add_pod("n1", "client", "client", 0);
    for (int i = 1; i <= replicas; ++i) {
      server_pods_.push_back(&cluster_->add_pod(
          "n1", "server-v" + std::to_string(i), "server", 8080));
    }
    cp_ = std::make_unique<ControlPlane>(sim_, *cluster_,
                                         std::move(policies));
    client_sidecar_ = &cp_->inject_sidecar(*client_pod_, {});
    for (auto* pod : server_pods_) {
      server_sidecars_.push_back(&cp_->inject_sidecar(*pod, {}));
    }
  }

  void run_for(sim::Duration duration) {
    sim_.run_until(sim_.now() + duration);
  }

  sim::Simulator sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<ControlPlane> cp_;
  cluster::Pod* client_pod_ = nullptr;
  std::vector<cluster::Pod*> server_pods_;
  Sidecar* client_sidecar_ = nullptr;
  std::vector<Sidecar*> server_sidecars_;
};

// ------------------------------------------------------ config epochs --

TEST_F(ControlPlaneFixture, EpochIsMonotonicAcrossPushes) {
  build();
  EXPECT_EQ(cp_->epoch(), 0u);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    cp_->push_config();
    EXPECT_EQ(cp_->epoch(), i);
    EXPECT_TRUE(cp_->converged());
    EXPECT_EQ(cp_->acked_epoch("server-v1"), i);
    EXPECT_EQ(cp_->acked_epoch("client"), i);
  }
  const obs::Gauge* epoch_gauge = cp_->metrics().find_gauge("config_epoch");
  ASSERT_NE(epoch_gauge, nullptr);
  EXPECT_EQ(epoch_gauge->value(), 3.0);
}

TEST_F(ControlPlaneFixture, UnchangedConfigsAreSkippedNotResent) {
  build();
  const std::uint64_t attempts_before = counter(*cp_, "cp_push_attempts_total");
  cp_->push_config();  // nothing changed since injection
  EXPECT_EQ(counter(*cp_, "cp_push_attempts_total"), attempts_before);
  EXPECT_EQ(counter(*cp_, "cp_push_skipped_noop"), 2u);
  // The new epoch is still acked implicitly: no sidecar is stale.
  EXPECT_TRUE(cp_->converged());
  EXPECT_EQ(cp_->stale_sidecars(), 0u);

  // A real policy change sends real pushes again.
  cp_->policies().retry.max_retries = 7;
  cp_->push_config();
  EXPECT_EQ(counter(*cp_, "cp_push_attempts_total"), attempts_before + 2);
  EXPECT_TRUE(cp_->converged());
}

TEST_F(ControlPlaneFixture, StaleEpochPushIsRejectedBySidecar) {
  build();
  cp_->push_config();
  cp_->policies().retry.max_retries = 5;
  cp_->push_config();
  ASSERT_EQ(server_sidecars_[0]->config_epoch(), 2u);

  SidecarConfig stale = server_sidecars_[0]->config();
  stale.epoch = 1;
  EXPECT_FALSE(server_sidecars_[0]->apply_config(stale));
  EXPECT_EQ(server_sidecars_[0]->last_config_error(), "stale-epoch");
  EXPECT_EQ(server_sidecars_[0]->stats().configs_rejected, 1u);
  EXPECT_EQ(server_sidecars_[0]->config().retry.max_retries, 5);

  // Epoch 0 marks an unversioned (test/local) config: always applies.
  SidecarConfig unversioned = server_sidecars_[0]->config();
  unversioned.epoch = 0;
  EXPECT_TRUE(server_sidecars_[0]->apply_config(unversioned));
}

// -------------------------------------------------- lossy push channel --

TEST_F(ControlPlaneFixture, LostPushesRetryWithBackoffUntilAcked) {
  MeshPolicies policies;
  policies.cp.ack_timeout = sim::milliseconds(20);
  build(1, policies);
  cp_->set_push_loss(1.0);
  cp_->policies().retry.max_retries = 3;  // make configs actually change
  cp_->push_config();
  run_for(sim::milliseconds(500));

  EXPECT_FALSE(cp_->converged());
  EXPECT_EQ(cp_->stale_sidecars(), 2u);
  EXPECT_GT(counter(*cp_, "cp_push_retries_total"), 0u);
  const std::uint64_t acks_at_heal = counter(*cp_, "cp_push_acks_total");

  // The retry pending at the heal sleeps at most the 2 s backoff cap.
  cp_->set_push_loss(0.0);
  run_for(sim::seconds(3));
  EXPECT_TRUE(cp_->converged());
  EXPECT_EQ(cp_->stale_sidecars(), 0u);
  EXPECT_EQ(cp_->acked_epoch("server-v1"), cp_->epoch());
  // Convergence came from the retry loop (the acks arrived after the
  // heal), not a fresh operator push — the epoch never moved.
  EXPECT_EQ(cp_->epoch(), 1u);
  EXPECT_GT(counter(*cp_, "cp_push_acks_total"), acks_at_heal);
}

TEST_F(ControlPlaneFixture, PartitionDropsPushesAndHealRelaunches) {
  build();
  cp_->set_partitioned("server-v1", true);
  cp_->policies().retry.max_retries = 5;
  cp_->push_config();

  EXPECT_GT(counter(*cp_, "cp_push_dropped_total"), 0u);
  EXPECT_FALSE(cp_->converged());
  EXPECT_LT(cp_->acked_epoch("server-v1"), cp_->epoch());
  EXPECT_EQ(cp_->acked_epoch("client"), cp_->epoch());

  cp_->set_partitioned("server-v1", false);
  run_for(sim::milliseconds(100));
  EXPECT_TRUE(cp_->converged());
  EXPECT_EQ(cp_->acked_epoch("server-v1"), cp_->epoch());
}

// ------------------------------------------------- poison config + nack --

TEST_F(ControlPlaneFixture, PoisonConfigNackRollsBackToLastGood) {
  build();
  cp_->push_config();  // converge once: this is the last-good snapshot
  ASSERT_TRUE(cp_->converged());
  const sim::Duration good_timeout = cp_->policies().request_timeout;

  cp_->policies().request_timeout = -sim::seconds(1);  // poison
  cp_->push_config();
  run_for(sim::milliseconds(200));

  EXPECT_GT(counter(*cp_, "cp_push_nacks_total"), 0u);
  EXPECT_EQ(counter(*cp_, "cp_config_rollbacks_total"), 1u);
  // The rollback restored the last converged policies and re-pushed a
  // fresh (still monotonic) epoch that every sidecar acked.
  EXPECT_TRUE(cp_->converged());
  EXPECT_EQ(cp_->policies().request_timeout, good_timeout);
  // The first sidecar pushed to nacked and triggered the rollback; every
  // sidecar — nacker included — still runs the last-good timeout.
  EXPECT_GT(client_sidecar_->stats().configs_rejected, 0u);
  EXPECT_EQ(client_sidecar_->config().request_timeout, good_timeout);
  for (const Sidecar* sidecar : server_sidecars_) {
    EXPECT_EQ(sidecar->config().request_timeout, good_timeout);
  }
}

TEST_F(ControlPlaneFixture, CompileMutatorPoisonIsClearedByRollback) {
  build();
  cp_->push_config();
  ASSERT_TRUE(cp_->converged());

  cp_->set_compile_mutator([](const std::string& pod, SidecarConfig& config) {
    if (pod == "server-v1") config.retry.max_retries = -1;
  });
  cp_->policies().retry.per_try_timeout = sim::milliseconds(123);
  cp_->push_config();
  run_for(sim::milliseconds(200));

  EXPECT_EQ(counter(*cp_, "cp_config_rollbacks_total"), 1u);
  EXPECT_TRUE(cp_->converged());
  EXPECT_EQ(server_sidecars_[0]->last_config_error(), "negative max_retries");
  EXPECT_GE(server_sidecars_[0]->config().retry.max_retries, 0);
}

// --------------------------------------------------- crash + recovery --

TEST_F(ControlPlaneFixture, CrashGrowsStalenessRecoveryReconverges) {
  MeshPolicies policies;
  policies.cp.push_latency_base = sim::milliseconds(1);
  policies.cp.push_latency_jitter = sim::milliseconds(2);
  policies.cp.reconverge_pacing = sim::milliseconds(10);
  build(2, policies);
  cp_->start(sim::milliseconds(50));
  run_for(sim::milliseconds(500));
  ASSERT_TRUE(cp_->converged());

  cp_->crash();
  EXPECT_TRUE(cp_->crashed());
  EXPECT_FALSE(cp_->converged());
  EXPECT_EQ(counter(*cp_, "cp_crashes_total"), 1u);

  // Discovery keeps changing while nobody can push: staleness grows.
  ASSERT_TRUE(cluster_->crash_pod("server-v2"));
  ASSERT_TRUE(cluster_->restart_pod("server-v2"));  // registry bump
  run_for(sim::milliseconds(400));
  EXPECT_GE(cp_->discovery_staleness(), sim::milliseconds(400));
  // The data plane still runs its last-applied config.
  EXPECT_GT(server_sidecars_[0]->config_epoch(), 0u);

  cp_->recover();
  EXPECT_FALSE(cp_->crashed());
  EXPECT_EQ(counter(*cp_, "cp_recoveries_total"), 1u);
  run_for(sim::seconds(1));
  EXPECT_TRUE(cp_->converged());
  EXPECT_EQ(cp_->stale_sidecars(), 0u);
  EXPECT_EQ(cp_->discovery_staleness(), 0);
  EXPECT_GT(cp_->last_reconverge_duration(), 0);
}

TEST_F(ControlPlaneFixture, CrashedControlPlaneIgnoresOperatorPushes) {
  build();
  cp_->push_config();
  const std::uint64_t epoch = cp_->epoch();
  cp_->crash();
  cp_->policies().retry.max_retries = 9;
  cp_->push_config();  // no-op while down
  EXPECT_EQ(cp_->epoch(), epoch);
  EXPECT_EQ(server_sidecars_[0]->config().retry.max_retries, 1);
}

// ------------------------------------------------ delta push fallbacks --

MeshPolicies delta_policies() {
  MeshPolicies policies;
  policies.cp.delta_push = true;
  return policies;
}

TEST_F(ControlPlaneFixture, OutOfBandApplyMakesNextDeltaFallBackToFullPush) {
  build(1, delta_policies());
  cp_->push_config();
  ASSERT_TRUE(cp_->converged());
  Sidecar& server = *server_sidecars_[0];

  // A local, unversioned poke the control plane never saw: the next
  // delta's base no longer matches what the sidecar runs.
  SidecarConfig poked = server.config();
  poked.epoch = 0;
  poked.retry.max_retries = 4;
  ASSERT_TRUE(server.apply_config(poked));

  cp_->policies().lb_overrides["server"] = LbPolicy::kLeastRequest;
  cp_->push_config();

  EXPECT_EQ(server.stats().delta_mismatches, 1u);
  EXPECT_EQ(counter(*cp_, "cp_delta_fallbacks_total"), 1u);
  // The full re-push converged the sidecar onto the compiled config.
  EXPECT_TRUE(cp_->converged());
  EXPECT_EQ(server.config_epoch(), cp_->epoch());
  EXPECT_EQ(server.config().retry.max_retries, 1);
  EXPECT_EQ(server.config().clusters.at("server").lb,
            LbPolicy::kLeastRequest);
  EXPECT_EQ(hash_sidecar_config(server.config()),
            cp_->acked_hash("server-v1"));
  EXPECT_EQ(server.config_fingerprint().hash, cp_->acked_hash("server-v1"));
}

TEST_F(ControlPlaneFixture, DeltaWithWrongTargetHashLeavesConfigUntouched) {
  build(1, delta_policies());
  cp_->push_config();
  Sidecar& client = *client_sidecar_;
  const std::uint64_t before = hash_sidecar_config(client.config());
  const std::uint64_t epoch_before = client.config_epoch();

  ConfigDelta delta;
  delta.epoch = cp_->epoch() + 1;
  delta.base_hash = client.config_fingerprint().hash;
  ClusterSpec changed = client.config().clusters.at("server");
  changed.lb = LbPolicy::kRandom;
  delta.cluster_upserts.emplace("server", changed);
  // Claims a result the carried content does not produce.
  delta.target_hash = before;

  EXPECT_FALSE(client.apply_config_delta(delta));
  EXPECT_EQ(client.last_config_error(), "delta-target-mismatch");
  EXPECT_EQ(client.stats().delta_mismatches, 1u);
  EXPECT_EQ(client.config_epoch(), epoch_before);
  EXPECT_EQ(client.config().clusters.at("server").lb, LbPolicy::kRoundRobin);
  EXPECT_EQ(hash_sidecar_config(client.config()), before);
  EXPECT_EQ(client.config_fingerprint().hash, before);
}

TEST_F(ControlPlaneFixture, DeltaFailingValidationAppliesNoCluster) {
  build(1, delta_policies());
  cp_->push_config();
  Sidecar& client = *client_sidecar_;
  const SidecarConfig before = client.config();

  // Two upserts: a valid new cluster that sorts first, and a changed one
  // with a port-0 endpoint. Neither may land.
  ClusterSpec added;
  added.name = "aaa";
  cluster::Endpoint endpoint;
  endpoint.pod_name = "aaa-v1";
  endpoint.port = 8080;
  added.endpoints.push_back(endpoint);
  ClusterSpec broken = before.clusters.at("server");
  ASSERT_FALSE(broken.endpoints.empty());
  broken.endpoints.front().port = 0;

  ConfigDelta delta;
  delta.epoch = cp_->epoch() + 1;
  delta.base_hash = client.config_fingerprint().hash;
  delta.cluster_upserts.emplace("aaa", added);
  delta.cluster_upserts.emplace("server", broken);
  // An honest target hash, so validation (not fingerprinting) rejects it.
  SidecarConfig target = before;
  target.clusters["aaa"] = added;
  target.clusters["server"] = broken;
  delta.target_hash = hash_sidecar_config(target);

  EXPECT_FALSE(client.apply_config_delta(delta));
  EXPECT_EQ(client.last_config_error(), "endpoint without port in server");
  EXPECT_EQ(client.stats().delta_mismatches, 0u);
  EXPECT_FALSE(client.config().clusters.contains("aaa"));
  EXPECT_EQ(client.config().clusters.at("server").endpoints.front().port,
            before.clusters.at("server").endpoints.front().port);
  EXPECT_EQ(client.config_epoch(), before.epoch);
  EXPECT_EQ(hash_sidecar_config(client.config()), hash_sidecar_config(before));
  EXPECT_EQ(client.config_fingerprint().hash, hash_sidecar_config(before));
}

// The push channel is counted once, in the registry: its series exist on
// every mesh, and push_channel_bytes() and pushes() read back exactly
// what the series and the epoch say, over a delayed, lossy channel.
class PushAccountingTest : public ControlPlaneFixture,
                           public ::testing::WithParamInterface<bool> {};

TEST_P(PushAccountingTest, PushChannelBytesReadTheRegistry) {
  MeshPolicies policies;
  policies.cp.delta_push = GetParam();
  policies.cp.push_latency_base = sim::milliseconds(2);
  policies.cp.ack_timeout = sim::milliseconds(20);
  policies.cp.push_loss = 0.2;
  build(3, policies);
  for (int i = 0; i < 4; ++i) {
    cp_->policies().retry.max_retries = i;  // every epoch changes configs
    cp_->push_config();
    run_for(sim::milliseconds(200));
  }
  ASSERT_TRUE(cp_->converged());

  for (const std::string_view name :
       {"cp_full_pushes_total", "cp_delta_pushes_total",
        "cp_delta_fallbacks_total", "cp_full_push_bytes_total",
        "cp_delta_push_bytes_total", "subset_endpoints_assigned_total",
        "subset_coverage_repairs_total"}) {
    EXPECT_NE(cp_->metrics().find_counter(name), nullptr) << name;
  }
  const ControlPlane::PushChannelBytes bytes = cp_->push_channel_bytes();
  EXPECT_EQ(bytes.full_pushes, counter(*cp_, "cp_full_pushes_total"));
  EXPECT_EQ(bytes.delta_pushes, counter(*cp_, "cp_delta_pushes_total"));
  EXPECT_EQ(bytes.delta_fallbacks, counter(*cp_, "cp_delta_fallbacks_total"));
  EXPECT_EQ(bytes.full_bytes, counter(*cp_, "cp_full_push_bytes_total"));
  EXPECT_EQ(bytes.delta_bytes, counter(*cp_, "cp_delta_push_bytes_total"));
  EXPECT_EQ(cp_->pushes(), cp_->epoch());
  EXPECT_EQ(cp_->epoch(), 4u);

  // Each channel really carried its own kind of push.
  if (GetParam()) {
    EXPECT_GT(bytes.delta_pushes, 0u);
    EXPECT_GT(bytes.delta_bytes, 0u);
  } else {
    EXPECT_GT(bytes.full_pushes, 0u);
    EXPECT_GT(bytes.full_bytes, 0u);
    EXPECT_EQ(bytes.delta_pushes, 0u);
    EXPECT_EQ(bytes.delta_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Channels, PushAccountingTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "DeltaPush" : "FullPush";
                         });

// ------------------------------------------------------ cert rotation --

TEST_F(ControlPlaneFixture, CertificatesRotateAheadOfExpiry) {
  MeshPolicies policies;
  policies.certificate_lifetime = sim::seconds(2);
  policies.cp.cert_refresh_ahead = 0.25;
  build(1, policies);

  const Certificate* first = cp_->certificate("server");
  ASSERT_NE(first, nullptr);
  const std::uint64_t first_serial = first->serial;

  run_for(sim::seconds(3));
  EXPECT_GT(counter(*cp_, "cp_cert_rotations_total"), 0u);
  const Certificate* rotated = cp_->certificate("server");
  ASSERT_NE(rotated, nullptr);
  EXPECT_GT(rotated->serial, first_serial);
  EXPECT_TRUE(rotated->valid_at(sim_.now()));
  // The rotated cert reached the sidecar through a config push.
  EXPECT_EQ(server_sidecars_[0]->config().identity_cert.serial,
            rotated->serial);

  const obs::Gauge* expiry = cp_->metrics().find_gauge(
      "cert_seconds_to_expiry", {{"service", "server"}});
  ASSERT_NE(expiry, nullptr);
  EXPECT_GT(expiry->value(), 0.0);
}

TEST_F(ControlPlaneFixture, NoRotationWhenRefreshAheadDisabled) {
  MeshPolicies policies;
  policies.certificate_lifetime = sim::seconds(2);
  build(1, policies);  // cert_refresh_ahead = 0
  run_for(sim::seconds(5));
  EXPECT_EQ(counter(*cp_, "cp_cert_rotations_total"), 0u);
}

// ------------------------------------------------------- flap damping --

TEST_F(ControlPlaneFixture, FlapDampingSuppressesThrashingReadmission) {
  MeshPolicies policies;
  policies.health_check.enabled = true;
  policies.health_check.interval = sim::milliseconds(50);
  policies.health_check.timeout = sim::milliseconds(40);
  policies.health_check.unhealthy_threshold = 1;
  policies.health_check.healthy_threshold = 1;
  policies.health_check.flap_max_transitions = 2;
  policies.health_check.flap_window = sim::seconds(60);
  policies.health_check.flap_penalty = sim::seconds(60);
  build(2, policies);
  run_for(sim::milliseconds(300));  // initial probes settle

  const HealthChecker* checker = client_sidecar_->health_checker();
  ASSERT_NE(checker, nullptr);

  // Transition 1: eviction. Transition 2: readmission — arms the damper.
  ASSERT_TRUE(cluster_->crash_pod("server-v1"));
  run_for(sim::milliseconds(500));
  EXPECT_FALSE(checker->healthy("server", "server-v1"));
  ASSERT_TRUE(cluster_->restart_pod("server-v1"));
  run_for(sim::milliseconds(500));
  EXPECT_TRUE(checker->healthy("server", "server-v1"));

  // Third flap: eviction still happens (always allowed) but the
  // readmission is suppressed for the penalty window.
  ASSERT_TRUE(cluster_->crash_pod("server-v1"));
  run_for(sim::milliseconds(500));
  EXPECT_FALSE(checker->healthy("server", "server-v1"));
  ASSERT_TRUE(cluster_->restart_pod("server-v1"));
  run_for(sim::milliseconds(500));
  EXPECT_FALSE(checker->healthy("server", "server-v1"));
  EXPECT_GT(checker->stats().flap_damps, 0u);
}

// ------------------------------------- config validation + fingerprint --

TEST(ConfigValidation, DefaultConfigIsValid) {
  EXPECT_EQ(validate_config(SidecarConfig{}), "");
}

TEST(ConfigValidation, RejectsMalformedConfigs) {
  SidecarConfig bad_timeout;
  bad_timeout.request_timeout = -1;
  EXPECT_NE(validate_config(bad_timeout), "");

  SidecarConfig bad_retries;
  bad_retries.retry.max_retries = -2;
  EXPECT_NE(validate_config(bad_retries), "");

  SidecarConfig bad_endpoint;
  ClusterSpec spec;
  spec.name = "svc";
  cluster::Endpoint nameless;
  nameless.port = 8080;
  spec.endpoints.push_back(nameless);
  bad_endpoint.clusters["svc"] = spec;
  EXPECT_NE(validate_config(bad_endpoint), "");

  SidecarConfig bad_route;
  bad_route.routes["host"] = "";
  EXPECT_NE(validate_config(bad_route), "");
}

TEST(ConfigFingerprint, ExcludesEpochIncludesPayload) {
  SidecarConfig base;
  const std::uint64_t h = hash_sidecar_config(base);

  SidecarConfig same_but_newer = base;
  same_but_newer.epoch = 42;
  EXPECT_EQ(hash_sidecar_config(same_but_newer), h);

  SidecarConfig retry_changed = base;
  retry_changed.retry.max_retries = 7;
  EXPECT_NE(hash_sidecar_config(retry_changed), h);

  SidecarConfig cert_changed = base;
  cert_changed.identity_cert.serial = 9;
  EXPECT_NE(hash_sidecar_config(cert_changed), h);
}

// A field left out of hash_policy_section or hash_cluster_spec would turn
// a real change into a push skipped as a no-op: every field of the policy
// and of a cluster spec must move the hash, and the epoch must not.
TEST(ConfigFingerprint, EveryPolicyAndClusterFieldChangesTheHash) {
  SidecarConfig base;
  ClusterSpec spec;
  spec.name = "svc";
  cluster::Endpoint endpoint;
  endpoint.pod_name = "svc-v1";
  endpoint.ip = 7;
  endpoint.port = 8080;
  endpoint.labels["priority"] = "high";
  spec.endpoints.push_back(endpoint);
  base.clusters["svc"] = spec;
  const std::uint64_t h = hash_sidecar_config(base);

  using Mutation = std::function<void(SidecarConfig&)>;
  const auto cluster = [](SidecarConfig& c) -> ClusterSpec& {
    return c.clusters.at("svc");
  };
  const std::vector<std::pair<std::string, Mutation>> mutations = {
      {"service_name", [](SidecarConfig& c) { c.service_name = "other"; }},
      {"retry.max_retries", [](SidecarConfig& c) { c.retry.max_retries = 3; }},
      {"retry.per_try_timeout",
       [](SidecarConfig& c) { c.retry.per_try_timeout = 7; }},
      {"retry.backoff_base",
       [](SidecarConfig& c) { c.retry.backoff_base = 7; }},
      {"retry.backoff_max", [](SidecarConfig& c) { c.retry.backoff_max = 7; }},
      {"retry.backoff_jitter",
       [](SidecarConfig& c) { c.retry.backoff_jitter = false; }},
      {"retry.retry_budget",
       [](SidecarConfig& c) { c.retry.retry_budget = 0.5; }},
      {"retry.retry_budget_min_concurrency",
       [](SidecarConfig& c) { c.retry.retry_budget_min_concurrency = 9; }},
      {"retry.retry_on_overloaded",
       [](SidecarConfig& c) { c.retry.retry_on_overloaded = true; }},
      {"request_timeout", [](SidecarConfig& c) { c.request_timeout = 7; }},
      {"admission.enabled",
       [](SidecarConfig& c) { c.admission.enabled = true; }},
      {"admission.queue_capacity",
       [](SidecarConfig& c) { c.admission.queue_capacity = 9; }},
      {"admission.shed_retries_first",
       [](SidecarConfig& c) { c.admission.shed_retries_first = false; }},
      {"admission.reserve_slots",
       [](SidecarConfig& c) { c.admission.reserve_slots = 2; }},
      {"admission.limit.initial_limit",
       [](SidecarConfig& c) { c.admission.limit.initial_limit = 9; }},
      {"admission.limit.min_limit",
       [](SidecarConfig& c) { c.admission.limit.min_limit = 2; }},
      {"admission.limit.max_limit",
       [](SidecarConfig& c) { c.admission.limit.max_limit = 9; }},
      {"admission.limit.window",
       [](SidecarConfig& c) { c.admission.limit.window = 7; }},
      {"admission.limit.min_window_samples",
       [](SidecarConfig& c) { c.admission.limit.min_window_samples = 9; }},
      {"admission.limit.latency_tolerance",
       [](SidecarConfig& c) { c.admission.limit.latency_tolerance = 3.0; }},
      {"authorization",
       [](SidecarConfig& c) { c.authorization["svc"] = {"client"}; }},
      {"class_policies",
       [](SidecarConfig& c) {
         c.class_policies[TrafficClass::kScavenger] = TrafficClassPolicy{};
       }},
      {"tls.enabled", [](SidecarConfig& c) { c.tls.enabled = true; }},
      {"tls.session_resumption",
       [](SidecarConfig& c) { c.tls.session_resumption = false; }},
      {"transport_mss", [](SidecarConfig& c) { c.transport_mss = 1200; }},
      {"upstream_connection_hook",
       [](SidecarConfig& c) {
         c.upstream_connection_hook = [](transport::Connection&,
                                         TrafficClass) {};
       }},
      {"identity_cert.serial",
       [](SidecarConfig& c) { c.identity_cert.serial = 9; }},
      {"routes", [](SidecarConfig& c) { c.routes["alias"] = "svc"; }},
      {"cluster.lb",
       [&](SidecarConfig& c) { cluster(c).lb = LbPolicy::kLeastRequest; }},
      {"cluster.breaker.consecutive_failures",
       [&](SidecarConfig& c) { cluster(c).breaker.consecutive_failures = 9; }},
      {"cluster.breaker.open_duration",
       [&](SidecarConfig& c) { cluster(c).breaker.open_duration = 7; }},
      {"cluster.breaker.half_open_probes",
       [&](SidecarConfig& c) { cluster(c).breaker.half_open_probes = 9; }},
      {"cluster.health_check.enabled",
       [&](SidecarConfig& c) { cluster(c).health_check.enabled = true; }},
      {"cluster.health_check.interval",
       [&](SidecarConfig& c) { cluster(c).health_check.interval = 7; }},
      {"cluster.health_check.timeout",
       [&](SidecarConfig& c) { cluster(c).health_check.timeout = 7; }},
      {"cluster.health_check.unhealthy_threshold",
       [&](SidecarConfig& c) {
         cluster(c).health_check.unhealthy_threshold = 9;
       }},
      {"cluster.health_check.healthy_threshold",
       [&](SidecarConfig& c) {
         cluster(c).health_check.healthy_threshold = 9;
       }},
      {"cluster.health_check.flap_max_transitions",
       [&](SidecarConfig& c) {
         cluster(c).health_check.flap_max_transitions = 9;
       }},
      {"cluster.health_check.flap_window",
       [&](SidecarConfig& c) { cluster(c).health_check.flap_window = 7; }},
      {"cluster.health_check.flap_penalty",
       [&](SidecarConfig& c) { cluster(c).health_check.flap_penalty = 7; }},
      {"cluster.mtls", [&](SidecarConfig& c) { cluster(c).mtls = true; }},
      {"cluster.endpoints (added)",
       [&](SidecarConfig& c) {
         cluster::Endpoint second = cluster(c).endpoints.front();
         second.pod_name = "svc-v2";
         cluster(c).endpoints.push_back(second);
       }},
      {"cluster.endpoint.pod_name",
       [&](SidecarConfig& c) { cluster(c).endpoints[0].pod_name = "svc-v9"; }},
      {"cluster.endpoint.ip",
       [&](SidecarConfig& c) { cluster(c).endpoints[0].ip = 8; }},
      {"cluster.endpoint.port",
       [&](SidecarConfig& c) { cluster(c).endpoints[0].port = 9090; }},
      {"cluster.endpoint.labels (value)",
       [&](SidecarConfig& c) {
         cluster(c).endpoints[0].labels["priority"] = "low";
       }},
      {"cluster.endpoint.labels (added)",
       [&](SidecarConfig& c) {
         cluster(c).endpoints[0].labels["zone"] = "a";
       }},
      {"cluster (renamed)",
       [&](SidecarConfig& c) {
         ClusterSpec renamed = cluster(c);
         renamed.name = "svc2";
         c.clusters.clear();
         c.clusters["svc2"] = renamed;
       }},
  };
  for (const auto& [field, mutate] : mutations) {
    SidecarConfig changed = base;
    mutate(changed);
    EXPECT_NE(hash_sidecar_config(changed), h) << field;
  }

  SidecarConfig newer = base;
  newer.epoch = 42;
  EXPECT_EQ(hash_sidecar_config(newer), h);
}

}  // namespace
}  // namespace meshnet::mesh
