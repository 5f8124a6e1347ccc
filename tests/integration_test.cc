// Full-stack integration tests: the paper's mechanism end to end on the
// real e-library topology, plus shape checks for the headline result.
// These use shortened runs; the bench binaries do the full-length sweeps.

#include <gtest/gtest.h>

#include <memory>

#include "app/elibrary.h"
#include "core/cross_layer.h"
#include "net/qdisc.h"
#include "workload/elibrary_experiment.h"
#include "workload/generator.h"

namespace meshnet {
namespace {

workload::ElibraryExperimentConfig quick_config(double rps,
                                                bool cross_layer) {
  workload::ElibraryExperimentConfig config;
  config.ls_rps = rps;
  config.li_rps = rps;
  config.warmup = sim::seconds(2);
  config.duration = sim::seconds(6);
  config.cooldown = sim::seconds(1);
  config.cross_layer = cross_layer;
  return config;
}

TEST(Integration, BaselineServesBothWorkloads) {
  const auto result = workload::run_elibrary_experiment(quick_config(20, false));
  EXPECT_GT(result.ls.completed, 80u);
  EXPECT_GT(result.li.completed, 80u);
  EXPECT_EQ(result.ls.errors, 0u);
  EXPECT_EQ(result.li.errors, 0u);
  ASSERT_TRUE(result.bottleneck_utilization.has_value());
  EXPECT_GT(*result.bottleneck_utilization, 0.1);
}

TEST(Integration, CrossLayerImprovesLsTailUnderLoad) {
  const auto base = workload::run_elibrary_experiment(quick_config(40, false));
  const auto opt = workload::run_elibrary_experiment(quick_config(40, true));
  // The paper's headline: prioritization improves the LS workload's
  // latency, clearly at the tail.
  EXPECT_LT(opt.ls.p99_ms, base.ls.p99_ms * 0.8)
      << "base p99=" << base.ls.p99_ms << " opt p99=" << opt.ls.p99_ms;
  EXPECT_LE(opt.ls.p50_ms, base.ls.p50_ms * 1.05);
}

TEST(Integration, LiDegradationIsBounded) {
  const auto base = workload::run_elibrary_experiment(quick_config(40, false));
  const auto opt = workload::run_elibrary_experiment(quick_config(40, true));
  // Paper: < 5% LI p99 degradation. Allow slack for short-run noise.
  EXPECT_LT(opt.li.p99_ms, base.li.p99_ms * 1.15)
      << "base=" << base.li.p99_ms << " opt=" << opt.li.p99_ms;
  EXPECT_GT(opt.li.completed, 0.9 * static_cast<double>(base.li.completed));
}

TEST(Integration, PriorityBandsCarryTraffic) {
  const auto result = workload::run_elibrary_experiment(quick_config(30, true));
  // With cross-layer on, both bands of the bottleneck's weighted qdisc
  // must have moved bytes: high (LS responses to reviews-1) and low
  // (LI responses to reviews-2).
  EXPECT_GT(result.high_band_bytes, 0u);
  EXPECT_GT(result.low_band_bytes, 0u);
  // The analytics bytes dominate by construction (~200x larger bodies).
  EXPECT_GT(result.low_band_bytes, 10 * result.high_band_bytes);
}

TEST(Integration, ProvenancePropagatesThroughTheTree) {
  sim::Simulator sim;
  app::ElibraryOptions options;
  options.component_bytes = 1024;
  options.analytics_multiplier = 4;
  options.service_time = sim::microseconds(100);
  app::Elibrary app(sim, options);

  core::CrossLayerConfig config =
      workload::ElibraryExperimentConfig::default_cross_layer_config();
  core::CrossLayerController controller(app.control_plane(), app.cluster(),
                                        config);
  controller.install();

  mesh::HttpClientPool client(sim, app.client_pod().transport(),
                              app.gateway_address(), {});
  auto send = [&](const std::string& path) {
    http::HttpRequest request;
    request.path = path;
    request.headers.set(http::headers::kHost, "frontend");
    bool done = false;
    client.request(std::move(request),
                   [&](std::optional<http::HttpResponse> response,
                       const std::string&) {
                     ASSERT_TRUE(response.has_value());
                     EXPECT_EQ(response->status, 200);
                     done = true;
                   });
    sim.run_until(sim.now() + sim::seconds(10));
    EXPECT_TRUE(done);
  };

  send("/analytics/1");  // low priority
  send("/product/1");    // high priority

  // The reviews sidecars' provenance machinery must have been exercised:
  // the frontend propagates the header (paper front-end behaviour), and
  // reviews' outbound lookups stamp the ratings sub-requests.
  auto table_v1 = controller.provenance_table("reviews-v1");
  auto table_v2 = controller.provenance_table("reviews-v2");
  ASSERT_NE(table_v1, nullptr);
  ASSERT_NE(table_v2, nullptr);
  EXPECT_GT(table_v1->hits() + table_v2->hits(), 0u);

  // Priority routing sent the analytics request to reviews-v2 (low) and
  // the product request to reviews-v1 (high).
  const auto& telemetry = app.control_plane().telemetry();
  const auto frontend_reviews = telemetry.edge("frontend", "reviews");
  ASSERT_TRUE(frontend_reviews.has_value());
  EXPECT_EQ(frontend_reviews->requests, 2u);
}

TEST(Integration, PriorityRoutingSeparatesReplicas) {
  sim::Simulator sim;
  app::ElibraryOptions options;
  options.component_bytes = 512;
  options.analytics_multiplier = 2;
  options.service_time = sim::microseconds(50);
  app::Elibrary app(sim, options);
  core::CrossLayerController controller(
      app.control_plane(), app.cluster(),
      workload::ElibraryExperimentConfig::default_cross_layer_config());
  controller.install();

  // reviews-v1 handles high, reviews-v2 low: check via each sidecar's
  // inbound request counters.
  mesh::HttpClientPool client(sim, app.client_pod().transport(),
                              app.gateway_address(), {});
  auto send = [&](const std::string& path) {
    http::HttpRequest request;
    request.path = path;
    request.headers.set(http::headers::kHost, "frontend");
    client.request(std::move(request),
                   [](std::optional<http::HttpResponse>, const std::string&) {});
    sim.run_until(sim.now() + sim::seconds(5));
  };
  for (int i = 0; i < 4; ++i) send("/product/" + std::to_string(i));
  for (int i = 0; i < 3; ++i) send("/analytics/" + std::to_string(i));

  const auto* v1 = app.control_plane().sidecar_for("reviews-v1");
  const auto* v2 = app.control_plane().sidecar_for("reviews-v2");
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v1->stats().inbound_requests, 4u);
  EXPECT_EQ(v2->stats().inbound_requests, 3u);
}

TEST(Integration, BaselineMixesReplicas) {
  sim::Simulator sim;
  app::ElibraryOptions options;
  options.component_bytes = 512;
  options.analytics_multiplier = 2;
  options.service_time = sim::microseconds(50);
  app::Elibrary app(sim, options);  // no cross-layer

  mesh::HttpClientPool client(sim, app.client_pod().transport(),
                              app.gateway_address(), {});
  for (int i = 0; i < 8; ++i) {
    http::HttpRequest request;
    request.path = "/product/" + std::to_string(i);
    request.headers.set(http::headers::kHost, "frontend");
    client.request(std::move(request),
                   [](std::optional<http::HttpResponse>, const std::string&) {});
    sim.run_until(sim.now() + sim::seconds(5));
  }
  const auto* v1 = app.control_plane().sidecar_for("reviews-v1");
  const auto* v2 = app.control_plane().sidecar_for("reviews-v2");
  // Round-robin: both replicas serve.
  EXPECT_GT(v1->stats().inbound_requests, 0u);
  EXPECT_GT(v2->stats().inbound_requests, 0u);
}

TEST(Integration, ScavengerTransportAloneProtectsLs) {
  // End-host-only deployment: no TC qdiscs, no priority routing; the low
  // class just rides LEDBAT. LS tail must still improve vs baseline.
  auto base_config = quick_config(40, false);
  auto scav_config = quick_config(40, true);
  scav_config.cross_layer_config.tc_priority = false;
  scav_config.cross_layer_config.priority_routing = false;
  scav_config.cross_layer_config.scavenger_transport = true;
  const auto base = workload::run_elibrary_experiment(base_config);
  const auto scav = workload::run_elibrary_experiment(scav_config);
  EXPECT_LT(scav.ls.p99_ms, base.ls.p99_ms)
      << "base=" << base.ls.p99_ms << " scav=" << scav.ls.p99_ms;
}

TEST(Integration, SdnOutOfBandProtectsLsWithoutMarksOrTcRules) {
  // Optimization (d), out-of-band flavour: no DSCP marks, no TC rules,
  // no replica subsets — the bottleneck scheduler asks the SDN
  // coordinator, which learned flow priorities from sidecar
  // advertisements.
  auto base = quick_config(40, false);
  auto sdn = quick_config(40, true);
  sdn.sdn_out_of_band = true;
  sdn.cross_layer_config.tc_priority = false;
  sdn.cross_layer_config.dscp_tagging = false;
  sdn.cross_layer_config.priority_routing = false;
  const auto base_result = workload::run_elibrary_experiment(base);
  const auto sdn_result = workload::run_elibrary_experiment(sdn);
  EXPECT_LT(sdn_result.ls.p99_ms, base_result.ls.p99_ms)
      << "base=" << base_result.ls.p99_ms << " sdn=" << sdn_result.ls.p99_ms;
  // The programmed qdisc moved traffic through both bands.
  EXPECT_GT(sdn_result.high_band_bytes, 0u);
  EXPECT_GT(sdn_result.low_band_bytes, 0u);
}

TEST(Integration, ComputePriorityQueuingProtectsLsAtCpuBottleneck) {
  // §5 extension: with few workers per service, priority admission
  // queuing lowers LS tail latency even before any network effect.
  auto fifo_config = quick_config(30, true);
  fifo_config.app.app_max_concurrency = 2;
  fifo_config.app.app_priority_scheduling = false;
  auto prio_config = fifo_config;
  prio_config.app.app_priority_scheduling = true;
  const auto fifo = workload::run_elibrary_experiment(fifo_config);
  const auto prio = workload::run_elibrary_experiment(prio_config);
  EXPECT_LE(prio.ls.p99_ms, fifo.ls.p99_ms * 1.02)
      << "fifo=" << fifo.ls.p99_ms << " prio=" << prio.ls.p99_ms;
  EXPECT_GT(prio.ls.completed, 0u);
  EXPECT_GT(prio.li.completed, 0u);
}

TEST(Integration, DeterministicResults) {
  const auto a = workload::run_elibrary_experiment(quick_config(20, true));
  const auto b = workload::run_elibrary_experiment(quick_config(20, true));
  EXPECT_EQ(a.ls.completed, b.ls.completed);
  EXPECT_DOUBLE_EQ(a.ls.p99_ms, b.ls.p99_ms);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(Integration, SeedChangesArrivalsButNotShape) {
  auto config = quick_config(30, true);
  const auto a = workload::run_elibrary_experiment(config);
  config.seed = 1234;
  const auto b = workload::run_elibrary_experiment(config);
  EXPECT_NE(a.events_executed, b.events_executed);
  // Different draws, same regime: completions within 25%.
  EXPECT_NEAR(static_cast<double>(a.ls.completed),
              static_cast<double>(b.ls.completed),
              0.25 * static_cast<double>(a.ls.completed));
}

}  // namespace
}  // namespace meshnet
