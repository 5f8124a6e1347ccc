// Tests for the load generators (wrk2 methodology), the latency
// recorder, and the thread-pool sweep runner's determinism guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "app/http_server.h"
#include "cluster/cluster.h"
#include "mesh/http_client.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "scenario.h"
#include "workload/elibrary_experiment.h"
#include "workload/generator.h"
#include "workload/recorder.h"
#include "workload/sweep_runner.h"

namespace meshnet::workload {
namespace {

TEST(LatencyRecorder, OnlyCountsInsideWindow) {
  LatencyRecorder recorder(sim::seconds(1), sim::seconds(2));
  recorder.record(sim::milliseconds(500), sim::milliseconds(600), true);
  recorder.record(sim::milliseconds(1500), sim::milliseconds(1600), true);
  recorder.record(sim::milliseconds(2500), sim::milliseconds(2600), true);
  EXPECT_EQ(recorder.count(), 1u);
}

TEST(LatencyRecorder, WindowBoundariesHalfOpen) {
  LatencyRecorder recorder(sim::seconds(1), sim::seconds(2));
  recorder.record(sim::seconds(1), sim::seconds(1), true);   // inclusive
  recorder.record(sim::seconds(2), sim::seconds(2), true);   // exclusive
  EXPECT_EQ(recorder.count(), 1u);
}

TEST(LatencyRecorder, ErrorsCountedSeparately) {
  LatencyRecorder recorder(0, sim::seconds(10));
  recorder.record(sim::seconds(1), sim::seconds(2), false);
  recorder.record(sim::seconds(1), sim::seconds(2), true);
  EXPECT_EQ(recorder.count(), 1u);
  EXPECT_EQ(recorder.errors(), 1u);
}

TEST(LatencyRecorder, PercentilesInMilliseconds) {
  LatencyRecorder recorder(0, sim::seconds(10));
  for (int i = 1; i <= 100; ++i) {
    recorder.record(0, sim::milliseconds(i), true);
  }
  EXPECT_NEAR(recorder.p50_ms(), 50.0, 1.0);
  EXPECT_NEAR(recorder.p99_ms(), 99.0, 1.5);
  EXPECT_NEAR(recorder.mean_ms(), 50.5, 1.0);
  EXPECT_NEAR(recorder.max_ms(), 100.0, 1.0);
}

TEST(LatencyRecorder, ThroughputOverWindow) {
  LatencyRecorder recorder(0, sim::seconds(10));
  for (int i = 0; i < 500; ++i) recorder.record(sim::seconds(1), sim::seconds(1), true);
  EXPECT_DOUBLE_EQ(recorder.throughput_rps(), 50.0);
}

TEST(LatencyRecorder, NegativeLatencyClampsToZero) {
  LatencyRecorder recorder(0, sim::seconds(10));
  recorder.record(sim::seconds(5), sim::seconds(4), true);  // clock skew
  EXPECT_EQ(recorder.percentile_ms(50), 0.0);
}

TEST(Factory, SimpleGetFactoryShapesRequests) {
  auto factory = simple_get_factory("frontend", "/product", 10);
  const http::HttpRequest r0 = factory(0);
  EXPECT_EQ(r0.method, "GET");
  EXPECT_EQ(r0.path, "/product/0");
  EXPECT_EQ(r0.headers.get_or(http::headers::kHost, ""), "frontend");
  EXPECT_EQ(factory(13).path, "/product/3");  // modulo applied
}

// ------------------------------------------ generators over a real sim --

class GeneratorFixture : public ::testing::Test {
 protected:
  GeneratorFixture() : cluster(sim) {
    cluster.add_node("n1");
    server_pod = &cluster.add_pod("n1", "srv", "srv", 0);
    client_pod = &cluster.add_pod("n1", "cli", "", 0);
    server = std::make_unique<app::SimpleHttpServer>(
        sim, server_pod->transport(), 8080,
        [this](http::HttpRequest, app::SimpleHttpServer::Responder respond) {
          sim.schedule_after(sim::milliseconds(service_ms),
                             [respond = std::move(respond)] {
                               http::HttpResponse response;
                               response.status = 200;
                               respond(std::move(response));
                             });
        });
    mesh::HttpClientPool::Options options;
    options.max_connections = 256;
    pool = std::make_unique<mesh::HttpClientPool>(
        sim, client_pod->transport(),
        net::SocketAddress{server_pod->ip(), 8080}, options);
  }

  WorkloadSpec spec_for(double rps, ArrivalProcess arrival) {
    WorkloadSpec spec;
    spec.name = "test";
    spec.rps = rps;
    spec.arrival = arrival;
    spec.make_request = simple_get_factory("srv", "/x");
    spec.start = 0;
    spec.end = sim::seconds(20);
    spec.measure_start = sim::seconds(1);
    spec.measure_end = sim::seconds(19);
    return spec;
  }

  sim::Simulator sim;
  cluster::Cluster cluster;
  cluster::Pod* server_pod;
  cluster::Pod* client_pod;
  std::unique_ptr<app::SimpleHttpServer> server;
  std::unique_ptr<mesh::HttpClientPool> pool;
  int service_ms = 1;
};

class ArrivalTest : public GeneratorFixture,
                    public ::testing::WithParamInterface<ArrivalProcess> {};

TEST_P(ArrivalTest, AchievesConfiguredRate) {
  OpenLoopGenerator gen(sim, *pool, spec_for(100, GetParam()), 42);
  gen.start();
  sim.run_until(sim::seconds(25));
  // 18 s measurement window at 100 rps: expect ~1800 completions.
  EXPECT_NEAR(static_cast<double>(gen.recorder().count()), 1800.0, 120.0);
  EXPECT_EQ(gen.failed(), 0u);
  EXPECT_EQ(gen.outstanding(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Arrivals, ArrivalTest,
                         ::testing::Values(ArrivalProcess::kUniformRandom,
                                           ArrivalProcess::kPoisson,
                                           ArrivalProcess::kConstant));

TEST_F(GeneratorFixture, OpenLoopKeepsSendingWhileServerIsSlow) {
  service_ms = 500;  // each request takes 0.5 s; at 50 rps load piles up
  OpenLoopGenerator gen(sim, *pool, spec_for(50, ArrivalProcess::kConstant),
                        42);
  gen.start();
  sim.run_until(sim::seconds(3));
  // An open loop must have sent ~150 requests by t=3s regardless of
  // completions (closed loop would have stalled at the concurrency cap).
  EXPECT_GT(gen.sent(), 100u);
  EXPECT_GT(gen.outstanding(), 20u);
}

TEST_F(GeneratorFixture, LatencyChargedFromScheduledTime) {
  service_ms = 100;
  OpenLoopGenerator gen(sim, *pool, spec_for(20, ArrivalProcess::kConstant),
                        42);
  gen.start();
  sim.run_until(sim::seconds(25));
  // Every request takes >= 100 ms service time.
  EXPECT_GE(gen.recorder().p50_ms(), 100.0);
}

TEST(OpenLoopDeterminism, IdenticalSeedsIdenticalResults) {
  auto run = [] {
    sim::Simulator sim;
    cluster::Cluster cluster(sim);
    cluster.add_node("n1");
    cluster::Pod& server_pod = cluster.add_pod("n1", "srv", "srv", 0);
    cluster::Pod& client_pod = cluster.add_pod("n1", "cli", "", 0);
    app::SimpleHttpServer server(
        sim, server_pod.transport(), 8080,
        [](http::HttpRequest, app::SimpleHttpServer::Responder respond) {
          respond(http::HttpResponse{});
        });
    mesh::HttpClientPool pool(sim, client_pod.transport(),
                              net::SocketAddress{server_pod.ip(), 8080}, {});
    WorkloadSpec spec;
    spec.rps = 50;
    spec.arrival = ArrivalProcess::kUniformRandom;
    spec.make_request = simple_get_factory("srv", "/x");
    spec.end = sim::seconds(10);
    spec.measure_start = sim::seconds(1);
    spec.measure_end = sim::seconds(9);
    OpenLoopGenerator gen(sim, pool, spec, 7);
    gen.start();
    sim.run_until(sim::seconds(15));
    return std::make_pair(gen.recorder().count(), gen.recorder().p50_ms());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

// A rate with no gap distribution sends nothing: no arrival is scheduled
// (an inf-wide uniform draw, or start + a saturated gap overflowing, would
// be undefined behaviour — this suite runs under UBSan).
TEST_F(GeneratorFixture, NonPositiveOrVanishingRateSendsNothing) {
  for (const double rps :
       {0.0, std::numeric_limits<double>::quiet_NaN(), 1e-12, -5.0}) {
    SCOPED_TRACE("rps=" + std::to_string(rps));
    WorkloadSpec spec = spec_for(rps, ArrivalProcess::kUniformRandom);
    spec.start = sim::seconds(1);
    OpenLoopGenerator gen(sim, *pool, spec, 42);
    gen.start();
    EXPECT_EQ(sim.pending_events(), 0u);
    sim.run_until(sim::seconds(25));
    EXPECT_EQ(gen.sent(), 0u);
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

TEST_F(GeneratorFixture, FirstArrivalPastEndIsNotScheduled) {
  WorkloadSpec spec = spec_for(1, ArrivalProcess::kConstant);
  spec.start = sim::seconds(1);
  spec.end = sim::milliseconds(1500);  // the first gap (1 s) overshoots
  OpenLoopGenerator gen(sim, *pool, spec, 42);
  gen.start();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(PhaseSummary, NoFinishedRequestsIsFullSuccess) {
  const LatencyRecorder recorder(sim::seconds(1), sim::seconds(3));
  PointMetrics phase;
  add_phase_metrics(phase, "quiet", recorder, 0);
  EXPECT_EQ(phase.counters.at("quiet_completed") +
                phase.counters.at("quiet_errors"),
            0u);
  EXPECT_EQ(phase.scalars.at("quiet_success_rate"), 1.0);
  EXPECT_EQ(phase.scalars.at("quiet_goodput_rps"), 0.0);
}

TEST(PhaseSummary, GoodputOverPhaseLengthAndScheduledAsGiven) {
  // A 4 s phase: 10 successes and 2 failures scheduled inside it, one
  // success scheduled before it (not charged).
  LatencyRecorder recorder(sim::seconds(2), sim::seconds(6));
  for (int i = 0; i < 10; ++i) {
    recorder.record(sim::seconds(3), sim::seconds(9), true);  // late reply
  }
  recorder.record(sim::seconds(4), sim::seconds(5), false);
  recorder.record(sim::seconds(5), sim::seconds(5), false);
  recorder.record(sim::seconds(1), sim::seconds(3), true);
  PointMetrics phase;
  add_phase_metrics(phase, "during", recorder, 13);
  EXPECT_EQ(phase.counters.at("during_scheduled"), 13u);
  EXPECT_EQ(phase.counters.at("during_completed"), 10u);
  EXPECT_EQ(phase.counters.at("during_errors"), 2u);
  EXPECT_DOUBLE_EQ(phase.scalars.at("during_success_rate"), 10.0 / 12.0);
  EXPECT_DOUBLE_EQ(phase.scalars.at("during_goodput_rps"), 10.0 / 4.0);
  EXPECT_NEAR(phase.scalars.at("during_p50_ms"), 6000.0, 60.0);
}

TEST(PhaseSummary, PhasesOutsideTheMeasuredWindowAreRejected) {
  // Defaults: a 4 s warmup, then a 20 s measured window ending at 24 s.
  ElibraryExperimentConfig config;
  const auto rejection = [&config]() -> std::string {
    try {
      validate_phases(config);
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "";
  };
  config.phases = {{"before", sim::seconds(4)}, {"during", sim::seconds(23)}};
  EXPECT_EQ(rejection(), "");

  // Past the window: the phase would be empty and read as perfect. The
  // run itself refuses too.
  config.phases = {{"before", sim::seconds(4)}, {"during", sim::seconds(24)}};
  EXPECT_EQ(rejection(),
            "phase 'during' starts at 24.000 s, not before the measured "
            "window ends (24.000 s)");
  EXPECT_THROW(run_elibrary_experiment(config), std::invalid_argument);

  config.phases = {{"early", sim::seconds(3)}};
  EXPECT_EQ(rejection(),
            "phase 'early' starts at 3.000 s, before the measured window "
            "starts (4.000 s)");
  config.phases = {{"a", sim::seconds(5)}, {"b", sim::seconds(5)}};
  EXPECT_EQ(rejection(),
            "phase 'b' starts at 5.000 s, not after the phase before it "
            "(5.000 s)");
}

TEST(PhaseSummary, ExperimentCountsScheduledArrivalsPerPhase) {
  // 10 rps LS arrivals with U(0, 0.2 s) gaps, replayed on their own from
  // the LS generator's stream (seeded from the run seed and the workload
  // name). The measured window and the second phase both start exactly
  // on an arrival, so each boundary is checked as half-open; every
  // arrival completes.
  ElibraryExperimentConfig config;
  std::vector<sim::Time> arrivals;
  sim::RngStream gaps(config.seed, "gen:latency-sensitive");
  for (sim::Time t = 0; t < sim::seconds(6);) {
    t += sim::from_seconds(gaps.uniform(0.0, 0.2));
    arrivals.push_back(t);
  }
  const auto at_or_after = [&arrivals](sim::Time t) {
    return std::lower_bound(arrivals.begin(), arrivals.end(), t);
  };
  config.ls_rps = 10;
  config.li_rps = 1;
  config.warmup = *at_or_after(sim::seconds(1));
  config.duration = sim::seconds(3);
  config.cooldown = sim::seconds(1);
  const sim::Time split = *at_or_after(sim::milliseconds(2500));
  const sim::Time end = config.warmup + config.duration;
  config.phases = {{"first", config.warmup}, {"second", split}};
  const auto first = static_cast<std::uint64_t>(at_or_after(split) -
                                                at_or_after(config.warmup));
  const auto second =
      static_cast<std::uint64_t>(at_or_after(end) - at_or_after(split));
  ASSERT_GT(first, 5u);
  ASSERT_GT(second, 5u);

  const PointMetrics result = run_elibrary_experiment(config).report;
  const auto count = [&result](const char* key) {
    return result.counters.at(key);
  };
  EXPECT_EQ(count("first_scheduled"), first);
  EXPECT_EQ(count("second_scheduled"), second);
  EXPECT_EQ(count("first_completed"), first);
  EXPECT_EQ(count("second_completed"), second);
  EXPECT_DOUBLE_EQ(result.scalars.at("second_goodput_rps"),
                   static_cast<double>(second) / sim::to_seconds(end - split));
  EXPECT_EQ(count("first_completed") + count("second_completed"),
            count("ls_completed"));
  EXPECT_EQ(result.counters.count("third_scheduled"), 0u);
}

// ---------------------------------------------------------------------------
// Sweep runner: the golden determinism guarantee. The FIG4 experiment at
// 40 RPS must produce bit-identical metrics — every scalar, counter and
// histogram bucket — no matter how many worker threads fan the points out.

SweepResult run_fig4_sweep(int threads) {
  SweepOptions options;
  options.threads = threads;
  SweepRunner runner(options);
  for (const bool cross_layer : {false, true}) {
    runner.add({{"rps", "40"}, {"cross_layer", cross_layer ? "on" : "off"}},
               [cross_layer] {
                 ElibraryExperimentConfig config;
                 config.ls_rps = 40;
                 config.li_rps = 40;
                 config.warmup = sim::seconds(1);
                 config.duration = sim::seconds(3);
                 config.cooldown = sim::seconds(1);
                 config.seed = 42;
                 config.cross_layer = cross_layer;
                 return elibrary_point_metrics(
                     run_elibrary_experiment(config));
               });
  }
  return runner.run();
}

void expect_identical_sweeps(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE("point " + a.points[i].id);
    EXPECT_EQ(a.points[i].id, b.points[i].id);
    EXPECT_EQ(a.points[i].params, b.points[i].params);
    // Scalars must be bit-identical, not approximately equal: every point
    // computes its metrics on one thread from its own simulator, so there
    // is no legitimate source of divergence.
    ASSERT_EQ(a.points[i].metrics.scalars.size(),
              b.points[i].metrics.scalars.size());
    for (const auto& [name, value] : a.points[i].metrics.scalars) {
      ASSERT_TRUE(b.points[i].metrics.scalars.count(name)) << name;
      EXPECT_EQ(value, b.points[i].metrics.scalars.at(name)) << name;
    }
    EXPECT_EQ(a.points[i].metrics.counters, b.points[i].metrics.counters);
    ASSERT_EQ(a.points[i].metrics.histograms.size(),
              b.points[i].metrics.histograms.size());
    for (const auto& [name, histogram] : a.points[i].metrics.histograms) {
      ASSERT_TRUE(b.points[i].metrics.histograms.count(name)) << name;
      EXPECT_EQ(histogram, b.points[i].metrics.histograms.at(name)) << name;
    }
  }
  // The unified meshnet-metrics-v1 snapshots: per point and merged,
  // series-for-series including every histogram bucket.
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].metrics.snapshot, b.points[i].metrics.snapshot)
        << "snapshot of point " << a.points[i].id;
  }
  EXPECT_EQ(a.merged_snapshot, b.merged_snapshot);
}

TEST(SweepRunnerDeterminism, Fig4At40RpsBitIdenticalAcrossThreadCounts) {
  const SweepResult serial = run_fig4_sweep(1);
  ASSERT_EQ(serial.points.size(), 2u);
  ASSERT_GT(serial.points[0].metrics.counters.at("ls_completed"), 0u);

  // One snapshot carries all four telemetry surfaces for the run: edge
  // metrics, span statistics, mesh events and engine counters.
  const obs::MetricsSnapshot& merged = serial.merged_snapshot;
  ASSERT_FALSE(merged.empty());
  const obs::SeriesSnapshot* edge_requests = merged.find(
      "mesh_requests_total",
      {{"source", "gateway"}, {"upstream", "frontend"}});
  ASSERT_NE(edge_requests, nullptr);
  EXPECT_GT(edge_requests->counter, 0u);
  const obs::SeriesSnapshot* spans =
      merged.find("spans_total", {{"service", "gateway"}});
  ASSERT_NE(spans, nullptr);
  EXPECT_GT(spans->counter, 0u);  // recorded even at retention 0
  EXPECT_GT(merged.find("engine_scheduled")->counter, 0u);
  // Event series are eagerly interned: present (zero) even though a
  // healthy Fig.4 run trips no breakers.
  const obs::SeriesSnapshot* breaker_events =
      merged.find("mesh_events_total", {{"kind", "breaker"}});
  ASSERT_NE(breaker_events, nullptr);
  EXPECT_EQ(breaker_events->counter, 0u);

  for (const int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SweepResult parallel = run_fig4_sweep(threads);
    EXPECT_EQ(parallel.threads_used, threads);
    expect_identical_sweeps(serial, parallel);
  }
}

// The fault and overload scenarios join the determinism suite: every arm
// of the scenario, run through the shared loop at the flags its smoke
// test uses, must be bit-identical — every scalar, counter, histogram
// bucket, snapshot series, printed fault log and mesh event (time, kind,
// subject, detail) — at any thread count. The event logs are the
// strongest witnesses: one reordered event anywhere in a simulation
// changes them. Each case also checks that the run exercised the
// subsystem under test.

struct ScenarioCase {
  const char* scenario;
  std::vector<const char*> flags;
  void (*sanity)(const bench::Results& results);
};

/// Names the case in test output (gtest would print its bytes).
void PrintTo(const ScenarioCase& param, std::ostream* os) {
  *os << param.scenario;
}

void overload_sanity(const bench::Results& results) {
  // The 2x admission-on arm: LS completes, the shedding lands on LI, and
  // the admission_* series reach the unified snapshot.
  const PointMetrics& on = results["2.0x/on"];
  EXPECT_GT(on.counters.at("ls_completed"), 0u);
  EXPECT_GT(on.counters.at("li_shed"), 0u);
  EXPECT_EQ(on.counters.at("ls_shed"), 0u);
  ASSERT_FALSE(on.snapshot.empty());
  const obs::SeriesSnapshot* shed = on.snapshot.find(
      "admission_shed_total",
      {{"service", "frontend"},
       {"class", "scavenger"},
       {"reason", "queue-full"}});
  ASSERT_NE(shed, nullptr);
  EXPECT_GT(shed->counter, 0u);
}

void cp_sanity(const bench::Results& results) {
  // The outage arm: pushes flow, the mesh ends converged with no stale
  // sidecars, the outage leaves a real staleness footprint, and churn
  // drives real faults.
  const PointMetrics& outage = results["outage"];
  EXPECT_GT(outage.counters.at("push_attempts"), 0u);
  EXPECT_EQ(outage.counters.at("converged"), 1u);
  EXPECT_EQ(outage.counters.at("stale_sidecars_at_end"), 0u);
  EXPECT_GT(outage.counters.at("faults_executed"), 2u);
  EXPECT_GT(outage.scalars.at("max_staleness_ms"), 1000.0);
  EXPECT_GT(outage.counters.at("during_completed"), 0u);
  ASSERT_FALSE(outage.snapshot.empty());
  const obs::SeriesSnapshot* crashes =
      outage.snapshot.find("cp_crashes_total");
  ASSERT_NE(crashes, nullptr);
  EXPECT_EQ(crashes->counter, 1u);
  // The control arm never crashes the control plane.
  const PointMetrics& control = results["control"];
  EXPECT_EQ(control.snapshot.find("cp_crashes_total")->counter, 0u);
  EXPECT_EQ(control.counters.at("converged"), 1u);
}

void mtls_sanity(const bench::Results& results) {
  // The storm-resume arm exercises the whole TLS surface: full handshakes
  // at startup, resumed ones after the storm's reconnect wave, tickets,
  // records, and the tls_* series in the unified snapshot.
  const PointMetrics& storm = results["storm-resume"];
  EXPECT_GT(storm.counters.at("ls_completed"), 0u);
  EXPECT_GT(storm.counters.at("tls_handshakes_full"), 0u);
  EXPECT_GT(storm.counters.at("tls_handshakes_resumed"), 0u);
  EXPECT_GT(storm.counters.at("tls_tickets_issued"), 0u);
  EXPECT_GT(storm.counters.at("tls_records_encrypted"), 0u);
  EXPECT_GT(storm.counters.at("faults_executed"), 0u);
  ASSERT_FALSE(storm.snapshot.empty());
  const obs::SeriesSnapshot* full =
      storm.snapshot.find("tls_handshakes_full_total");
  ASSERT_NE(full, nullptr);
  EXPECT_GT(full->counter, 0u);
  // The plaintext arm never touches the TLS layer.
  const PointMetrics& plain = results["plaintext"];
  EXPECT_EQ(plain.counters.at("tls_handshakes_full"), 0u);
  EXPECT_EQ(plain.counters.at("tls_records_encrypted"), 0u);
  EXPECT_GT(plain.counters.at("ls_completed"), 0u);
}

void chaos_sanity(const bench::Results& results) {
  // Both arms ran the fault plan; only the resilient one detected it.
  EXPECT_GT(results.count("resilient", "faults_executed"), 0u);
  EXPECT_GT(results.count("baseline", "faults_executed"), 0u);
  EXPECT_GE(results.count("resilient", "health_evictions"), 1u);
}

class ScenarioDeterminism : public ::testing::TestWithParam<ScenarioCase> {};

TEST_P(ScenarioDeterminism, BitIdenticalAcrossThreadCounts) {
  const ScenarioCase& param = GetParam();
  std::vector<const char*> argv = {"workload_test"};
  argv.insert(argv.end(), param.flags.begin(), param.flags.end());
  const bench::Scenario& scenario = *bench::find_scenario(param.scenario);
  const std::vector<bench::Arm> arms = scenario.arms(bench::parse_args(
      scenario, static_cast<int>(argv.size()), argv.data()));

  std::vector<bench::ArmLog> serial_logs;
  const SweepResult serial =
      bench::run_arms(arms, {.threads = 1}, &serial_logs);
  param.sanity(bench::Results(arms, serial));

  for (const int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<bench::ArmLog> logs;
    const SweepResult parallel =
        bench::run_arms(arms, {.threads = threads}, &logs);
    EXPECT_EQ(parallel.threads_used, threads);
    expect_identical_sweeps(serial, parallel);
    EXPECT_EQ(logs, serial_logs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ScenarioDeterminism,
    ::testing::Values(
        ScenarioCase{"overload", {"--duration=3"}, overload_sanity},
        ScenarioCase{"cp",
                     {"--ls-rps=15", "--li-rps=5", "--duration=16",
                      "--outage-duration-s=6", "--churn-period-s=3"},
                     cp_sanity},
        ScenarioCase{"mtls",
                     {"--ls-rps=20", "--li-rps=5", "--duration=10"},
                     mtls_sanity},
        ScenarioCase{"chaos_elibrary",
                     {"--ls-rps=10", "--li-rps=5", "--duration=10",
                      "--fault-duration-s=3"},
                     chaos_sanity}));

TEST(SweepRunner, ResultsArriveInInputOrderAndReportIsStable) {
  SweepOptions options;
  options.threads = 4;
  SweepRunner runner(options);
  constexpr int kPoints = 12;
  for (int i = 0; i < kPoints; ++i) {
    runner.add({{"i", std::to_string(i)}}, [i] {
      // Finish out of submission order on purpose.
      std::this_thread::sleep_for(
          std::chrono::milliseconds((kPoints - i) % 5));
      PointMetrics metrics;
      metrics.scalars["value"] = static_cast<double>(i);
      metrics.counters["one"] = 1;
      return metrics;
    });
  }
  const SweepResult result = runner.run();
  ASSERT_EQ(result.points.size(), static_cast<std::size_t>(kPoints));
  for (int i = 0; i < kPoints; ++i) {
    EXPECT_EQ(result.points[static_cast<std::size_t>(i)].id,
              "i=" + std::to_string(i));
    EXPECT_EQ(result.points[static_cast<std::size_t>(i)].metrics.scalars
                  .at("value"),
              static_cast<double>(i));
  }

  const stats::BenchReport report =
      make_bench_report("order", {{"seed", "1"}}, result);
  EXPECT_EQ(report.points.size(), static_cast<std::size_t>(kPoints));
  EXPECT_EQ(report.points[3].id, "i=3");
}

TEST(SweepRunner, PointExceptionPropagates) {
  SweepRunner runner;
  runner.add({{"boom", "1"}},
             []() -> PointMetrics { throw std::runtime_error("sweep boom"); });
  EXPECT_THROW(runner.run(), std::runtime_error);
}

// The wall-clock acceptance claim (>=3x at --threads=8) only makes sense
// with real cores; on small CI machines this skips rather than flakes.
// Determinism — the part that can regress silently — is asserted above on
// every machine.
TEST(SweepRunnerSpeedup, ParallelSweepBeatsSerial) {
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  const auto build = [](SweepRunner& runner) {
    for (int i = 0; i < 8; ++i) {
      runner.add({{"i", std::to_string(i)}}, [i] {
        ElibraryExperimentConfig config;
        config.ls_rps = 30;
        config.li_rps = 30;
        config.warmup = sim::seconds(1);
        config.duration = sim::seconds(2);
        config.seed = 42 + static_cast<std::uint64_t>(i);
        return elibrary_point_metrics(run_elibrary_experiment(config));
      });
    }
  };
  SweepOptions serial_options;
  serial_options.threads = 1;
  SweepRunner serial(serial_options);
  build(serial);
  const double serial_ms = serial.run().wall_ms;

  SweepOptions parallel_options;
  parallel_options.threads = 8;
  SweepRunner parallel(parallel_options);
  build(parallel);
  const double parallel_ms = parallel.run().wall_ms;

  // Conservative bound (acceptance asks 3x on 8 cores; 2x keeps 4-core CI
  // machines green while still failing on any serialization regression).
  EXPECT_LT(parallel_ms * 2.0, serial_ms)
      << "serial " << serial_ms << " ms vs parallel " << parallel_ms
      << " ms";
}

}  // namespace
}  // namespace meshnet::workload
