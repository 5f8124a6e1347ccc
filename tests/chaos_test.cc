// The chaos e-library experiment: determinism of the full run and the
// headline resilience claim — with health checking + retries + breaker
// the latency-sensitive workload rides through a reviews-replica crash,
// without them it visibly degrades.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "workload/chaos_experiment.h"
#include "workload/sweep_runner.h"

namespace meshnet::workload {
namespace {

ElibraryExperimentResult run_chaos(const ElibraryExperimentConfig& config,
                                   const ChaosArm& arm) {
  return run_elibrary_experiment(chaos_config(config, arm));
}

ElibraryExperimentConfig small_config() {
  ElibraryExperimentConfig config;
  config.ls_rps = 20;
  config.li_rps = 5;
  config.warmup = sim::seconds(1);
  config.duration = sim::seconds(6);
  config.cooldown = sim::seconds(1);
  return config;
}

ChaosArm small_arm() {
  ChaosArm arm;
  arm.fault_offset = sim::seconds(1);
  arm.fault_duration = sim::seconds(3);
  return arm;
}

TEST(ChaosExperiment, DeterministicForSameSeed) {
  ElibraryExperimentConfig config = small_config();
  const ElibraryExperimentResult a = run_chaos(config, small_arm());
  const ElibraryExperimentResult b = run_chaos(config, small_arm());

  // Same seed => identical simulation, event for event.
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.fault_log.size(), b.fault_log.size());
  for (std::size_t i = 0; i < a.fault_log.size(); ++i) {
    EXPECT_EQ(a.fault_log[i].at, b.fault_log[i].at);
    EXPECT_EQ(a.fault_log[i].action, b.fault_log[i].action);
    EXPECT_EQ(a.fault_log[i].target, b.fault_log[i].target);
  }
  ASSERT_EQ(a.mesh_events.size(), b.mesh_events.size());
  for (std::size_t i = 0; i < a.mesh_events.size(); ++i) {
    EXPECT_EQ(a.mesh_events[i].at, b.mesh_events[i].at);
    EXPECT_EQ(a.mesh_events[i].kind, b.mesh_events[i].kind);
    EXPECT_EQ(a.mesh_events[i].subject, b.mesh_events[i].subject);
    EXPECT_EQ(a.mesh_events[i].detail, b.mesh_events[i].detail);
  }
  EXPECT_EQ(a.ls.completed, b.ls.completed);
  EXPECT_EQ(a.ls.errors, b.ls.errors);
  EXPECT_DOUBLE_EQ(a.ls.p99_ms, b.ls.p99_ms);
  EXPECT_EQ(a.li.completed, b.li.completed);

  // A different seed actually changes arrivals (guards against the seed
  // being ignored somewhere).
  config.seed += 1;
  const ElibraryExperimentResult c = run_chaos(config, small_arm());
  EXPECT_NE(a.events_executed, c.events_executed);
}

TEST(ChaosExperiment, ResilienceRidesThroughCrashBaselineDegrades) {
  ElibraryExperimentConfig config;
  config.ls_rps = 30;
  config.li_rps = 10;
  config.warmup = sim::seconds(4);
  config.duration = sim::seconds(24);
  config.cooldown = sim::seconds(4);
  ChaosArm arm;
  arm.fault_offset = sim::seconds(6);
  arm.fault_duration = sim::seconds(10);

  arm.resilience = true;
  const ElibraryExperimentResult resilient = run_chaos(config, arm);
  arm.resilience = false;
  const ElibraryExperimentResult baseline = run_chaos(config, arm);

  std::fputs(format_chaos_comparison(
                 elibrary_point_metrics(resilient, chaos_report_series()),
                 elibrary_point_metrics(baseline, chaos_report_series()))
                 .c_str(),
             stdout);

  // Sanity: the fault window saw real traffic in both arms.
  EXPECT_GT(resilient.phase("during").scheduled, 100u);
  EXPECT_GT(baseline.phase("during").scheduled, 100u);

  // Resilient arm: health checking evicted the crashed replica and
  // readmitted it after restart; LS success held through the fault.
  EXPECT_GE(resilient.health_evictions, 1u);
  EXPECT_GE(resilient.health_readmissions, 1u);
  EXPECT_GE(resilient.phase("before").success_rate, 0.99);
  EXPECT_GE(resilient.phase("during").success_rate, 0.99);
  EXPECT_GE(resilient.phase("after").success_rate, 0.99);
  // p99 recovers once the fault window closes: "after" looks like
  // "before" (generous 3x bound — both should be a few ms).
  EXPECT_LT(resilient.phase("after").p99_ms,
            3.0 * resilient.phase("before").p99_ms + 5.0);

  // Baseline arm: no detection, no retries — requests routed to the dead
  // replica hang to the deadline and fail, so success during the fault
  // drops measurably.
  EXPECT_EQ(baseline.health_evictions, 0u);
  EXPECT_LT(baseline.phase("during").success_rate, 0.90);
  EXPECT_LT(baseline.phase("during").success_rate,
            resilient.phase("during").success_rate - 0.05);
  // And its p99 during the fault is dominated by the request deadline.
  EXPECT_GT(baseline.phase("during").p99_ms,
            resilient.phase("during").p99_ms);
}

// The chaos experiment through the sweep runner: both arms (resilient and
// baseline) fan across worker threads, and the entire result — per-phase
// metrics, fault log, mesh event log, event counts — must be bit-identical
// at every thread count. The fault/mesh logs are the strongest witnesses:
// a single reordered event anywhere in the simulation changes them.
TEST(ChaosExperiment, SweepBitIdenticalAcrossThreadCounts) {
  const auto run_sweep = [](int threads) {
    SweepOptions options;
    options.threads = threads;
    SweepRunner runner(options);
    auto results =
        std::make_shared<std::vector<ElibraryExperimentResult>>(2);
    for (const bool resilience : {true, false}) {
      const std::size_t slot = resilience ? 0 : 1;
      runner.add({{"resilience", resilience ? "on" : "off"}},
                 [resilience, slot, results] {
                   ChaosArm arm = small_arm();
                   arm.resilience = resilience;
                   (*results)[slot] = run_chaos(small_config(), arm);
                   const ElibraryExperimentResult& r = (*results)[slot];
                   PointMetrics metrics;
                   metrics.scalars["during_goodput_rps"] =
                       r.phase("during").goodput_rps;
                   metrics.scalars["during_p99_ms"] = r.phase("during").p99_ms;
                   metrics.counters["events"] = r.events_executed;
                   metrics.counters["fault_log"] = r.fault_log.size();
                   metrics.counters["mesh_events"] = r.mesh_events.size();
                   return metrics;
                 });
    }
    const SweepResult sweep = runner.run();
    return std::make_pair(sweep, results);
  };

  const auto [serial_sweep, serial_results] = run_sweep(1);
  for (const int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto [parallel_sweep, parallel_results] = run_sweep(threads);

    ASSERT_EQ(parallel_sweep.points.size(), serial_sweep.points.size());
    for (std::size_t i = 0; i < serial_sweep.points.size(); ++i) {
      EXPECT_EQ(parallel_sweep.points[i].id, serial_sweep.points[i].id);
      EXPECT_EQ(parallel_sweep.points[i].metrics.counters,
                serial_sweep.points[i].metrics.counters);
      for (const auto& [name, value] :
           serial_sweep.points[i].metrics.scalars) {
        EXPECT_EQ(parallel_sweep.points[i].metrics.scalars.at(name), value)
            << name;
      }
    }

    // Event-for-event equality of both arms' determinism witnesses.
    for (std::size_t arm = 0; arm < 2; ++arm) {
      const ElibraryExperimentResult& a = (*serial_results)[arm];
      const ElibraryExperimentResult& b = (*parallel_results)[arm];
      EXPECT_EQ(a.events_executed, b.events_executed);
      ASSERT_EQ(a.fault_log.size(), b.fault_log.size());
      for (std::size_t i = 0; i < a.fault_log.size(); ++i) {
        EXPECT_EQ(a.fault_log[i].at, b.fault_log[i].at);
        EXPECT_EQ(a.fault_log[i].action, b.fault_log[i].action);
        EXPECT_EQ(a.fault_log[i].target, b.fault_log[i].target);
      }
      ASSERT_EQ(a.mesh_events.size(), b.mesh_events.size());
      for (std::size_t i = 0; i < a.mesh_events.size(); ++i) {
        EXPECT_EQ(a.mesh_events[i].at, b.mesh_events[i].at);
        EXPECT_EQ(a.mesh_events[i].kind, b.mesh_events[i].kind);
        EXPECT_EQ(a.mesh_events[i].subject, b.mesh_events[i].subject);
        EXPECT_EQ(a.mesh_events[i].detail, b.mesh_events[i].detail);
      }
      EXPECT_EQ(a.ls.completed, b.ls.completed);
      EXPECT_EQ(a.ls.errors, b.ls.errors);
      EXPECT_DOUBLE_EQ(a.ls.p99_ms, b.ls.p99_ms);
    }
  }
}

}  // namespace
}  // namespace meshnet::workload
