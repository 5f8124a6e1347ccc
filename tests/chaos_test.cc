// The chaos e-library scenario: determinism of the full run and the
// headline resilience claim — with health checking + retries + breaker
// the latency-sensitive workload rides through a reviews-replica crash,
// without them it visibly degrades. The arms are the chaos_elibrary
// scenario's own (bench/scenario_chaos_elibrary.cc).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario.h"

namespace meshnet::bench {
namespace {

/// The chaos_elibrary arms at `flags` (the scenario's defaults if none).
std::vector<Arm> chaos_arms(std::vector<const char*> flags) {
  flags.insert(flags.begin(), "chaos_test");
  const Scenario& scenario = *find_scenario("chaos_elibrary");
  return scenario.arms(parse_args(scenario, static_cast<int>(flags.size()),
                                  flags.data()));
}

/// The flags of the example_chaos_elibrary smoke test.
const std::vector<const char*> kSmokeFlags = {
    "--ls-rps=10", "--li-rps=5", "--duration=10", "--fault-duration-s=3"};

TEST(ChaosExperiment, DeterministicForSameSeed) {
  const Arm resilient = chaos_arms(kSmokeFlags).front();
  ArmLog log_a, log_b;
  const workload::PointMetrics a = resilient.run(log_a);
  const workload::PointMetrics b = resilient.run(log_b);

  // Same seed => identical simulation, event for event: every counter,
  // histogram bucket and snapshot series, the same fault log, and the
  // same mesh event log (time, kind, subject and detail of each event).
  EXPECT_EQ(a, b);
  EXPECT_EQ(log_a.text, log_b.text);
  EXPECT_EQ(log_a.events, log_b.events);
  EXPECT_GT(a.counters.at("faults_executed"), 0u);
  EXPECT_NE(log_a.events.find(" health "), std::string::npos);

  // A different seed actually changes arrivals (guards against the seed
  // being ignored somewhere).
  std::vector<const char*> reseeded = kSmokeFlags;
  reseeded.push_back("--seed=43");
  ArmLog log_c;
  const workload::PointMetrics c = chaos_arms(reseeded).front().run(log_c);
  EXPECT_NE(a.counters.at("events"), c.counters.at("events"));
}

TEST(ChaosExperiment, ResilienceRidesThroughCrashBaselineDegrades) {
  const std::vector<Arm> arms = chaos_arms({});
  const workload::SweepResult sweep = run_arms(arms, {.threads = 2});
  const Results results(arms, sweep);
  const auto rate = [&](const char* arm, const std::string& phase) {
    return results.scalar(arm, phase + "_success_rate");
  };

  // Sanity: the fault window saw real traffic in both arms.
  EXPECT_GT(results.count("resilient", "during_scheduled"), 100u);
  EXPECT_GT(results.count("baseline", "during_scheduled"), 100u);

  // Resilient arm: health checking evicted the crashed replica and
  // readmitted it after restart; LS success held through the fault.
  EXPECT_GE(results.count("resilient", "health_evictions"), 1u);
  EXPECT_GE(results.count("resilient", "health_readmissions"), 1u);
  EXPECT_GE(rate("resilient", "before"), 0.99);
  EXPECT_GE(rate("resilient", "during"), 0.99);
  EXPECT_GE(rate("resilient", "after"), 0.99);
  // p99 recovers once the fault window closes: "after" looks like
  // "before" (generous 3x bound — both should be a few ms).
  EXPECT_LT(results.scalar("resilient", "after_p99_ms"),
            3.0 * results.scalar("resilient", "before_p99_ms") + 5.0);

  // Baseline arm: no detection, no retries — requests routed to the dead
  // replica hang to the deadline and fail, so success during the fault
  // drops measurably.
  EXPECT_EQ(results.count("baseline", "health_evictions"), 0u);
  EXPECT_LT(rate("baseline", "during"), 0.90);
  EXPECT_LT(rate("baseline", "during"), rate("resilient", "during") - 0.05);
  // And its p99 during the fault is dominated by the request deadline.
  EXPECT_GT(results.scalar("baseline", "during_p99_ms"),
            results.scalar("resilient", "during_p99_ms"));
}

}  // namespace
}  // namespace meshnet::bench
