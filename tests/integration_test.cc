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

/// The report of one run.
workload::PointMetrics report(
    const workload::ElibraryExperimentConfig& config) {
  return workload::run_elibrary_experiment(config).report;
}

workload::PointMetrics quick_run(double rps, bool cross_layer) {
  return report(quick_config(rps, cross_layer));
}

TEST(Integration, BaselineServesBothWorkloads) {
  const auto result = quick_run(20, false);
  EXPECT_GT(result.counters.at("ls_completed"), 80u);
  EXPECT_GT(result.counters.at("li_completed"), 80u);
  EXPECT_EQ(result.counters.at("ls_errors"), 0u);
  EXPECT_EQ(result.counters.at("li_errors"), 0u);
  ASSERT_TRUE(result.scalars.count("bottleneck_utilization"));
  EXPECT_GT(result.scalars.at("bottleneck_utilization"), 0.1);
}

TEST(Integration, CrossLayerImprovesLsTailUnderLoad) {
  const auto base = quick_run(40, false).scalars;
  const auto opt = quick_run(40, true).scalars;
  // The paper's headline: prioritization improves the LS workload's
  // latency, clearly at the tail.
  EXPECT_LT(opt.at("ls_p99_ms"), base.at("ls_p99_ms") * 0.8)
      << "base p99=" << base.at("ls_p99_ms")
      << " opt p99=" << opt.at("ls_p99_ms");
  EXPECT_LE(opt.at("ls_p50_ms"), base.at("ls_p50_ms") * 1.05);
}

TEST(Integration, LiDegradationIsBounded) {
  const auto base = quick_run(40, false);
  const auto opt = quick_run(40, true);
  // Paper: < 5% LI p99 degradation. Allow slack for short-run noise.
  EXPECT_LT(opt.scalars.at("li_p99_ms"), base.scalars.at("li_p99_ms") * 1.15)
      << "base=" << base.scalars.at("li_p99_ms")
      << " opt=" << opt.scalars.at("li_p99_ms");
  EXPECT_GT(opt.counters.at("li_completed"),
            0.9 * static_cast<double>(base.counters.at("li_completed")));
}

TEST(Integration, PriorityBandsCarryTraffic) {
  const auto result = quick_run(30, true).counters;
  // With cross-layer on, both bands of the bottleneck's weighted qdisc
  // must have moved bytes: high (LS responses to reviews-1) and low
  // (LI responses to reviews-2).
  EXPECT_GT(result.at("high_band_bytes"), 0u);
  EXPECT_GT(result.at("low_band_bytes"), 0u);
  // The analytics bytes dominate by construction (~200x larger bodies).
  EXPECT_GT(result.at("low_band_bytes"), 10 * result.at("high_band_bytes"));
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
  const double base = report(base_config).scalars.at("ls_p99_ms");
  const double scav = report(scav_config).scalars.at("ls_p99_ms");
  EXPECT_LT(scav, base) << "base=" << base << " scav=" << scav;
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
  const double base_p99 = report(base).scalars.at("ls_p99_ms");
  const workload::PointMetrics sdn_result = report(sdn);
  const double sdn_p99 = sdn_result.scalars.at("ls_p99_ms");
  EXPECT_LT(sdn_p99, base_p99) << "base=" << base_p99 << " sdn=" << sdn_p99;
  // The programmed qdisc moved traffic through both bands.
  EXPECT_GT(sdn_result.counters.at("high_band_bytes"), 0u);
  EXPECT_GT(sdn_result.counters.at("low_band_bytes"), 0u);
}

TEST(Integration, ComputePriorityQueuingProtectsLsAtCpuBottleneck) {
  // §5 extension: with few workers per service, priority admission
  // queuing lowers LS tail latency even before any network effect.
  auto fifo_config = quick_config(30, true);
  fifo_config.app.app_max_concurrency = 2;
  fifo_config.app.app_priority_scheduling = false;
  auto prio_config = fifo_config;
  prio_config.app.app_priority_scheduling = true;
  const double fifo = report(fifo_config).scalars.at("ls_p99_ms");
  const workload::PointMetrics prio = report(prio_config);
  const double prio_p99 = prio.scalars.at("ls_p99_ms");
  EXPECT_LE(prio_p99, fifo * 1.02) << "fifo=" << fifo << " prio=" << prio_p99;
  EXPECT_GT(prio.counters.at("ls_completed"), 0u);
  EXPECT_GT(prio.counters.at("li_completed"), 0u);
}

TEST(Integration, DeterministicResults) {
  const auto a = quick_run(20, true);
  const auto b = quick_run(20, true);
  EXPECT_EQ(a.counters.at("ls_completed"), b.counters.at("ls_completed"));
  EXPECT_DOUBLE_EQ(a.scalars.at("ls_p99_ms"), b.scalars.at("ls_p99_ms"));
  EXPECT_EQ(a.counters.at("events"), b.counters.at("events"));
}

TEST(Integration, SeedChangesArrivalsButNotShape) {
  auto config = quick_config(30, true);
  const auto a = report(config).counters;
  config.seed = 1234;
  const auto b = report(config).counters;
  EXPECT_NE(a.at("events"), b.at("events"));
  // Different draws, same regime: completions within 25%.
  EXPECT_NEAR(static_cast<double>(a.at("ls_completed")),
              static_cast<double>(b.at("ls_completed")),
              0.25 * static_cast<double>(a.at("ls_completed")));
}

}  // namespace
}  // namespace meshnet
