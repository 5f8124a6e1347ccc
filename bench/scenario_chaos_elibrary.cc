// Chaos e-library: the resilience claim under fault injection.
//
// Runs the LS/LI e-library workload twice while a FaultPlan crashes the
// reviews-v1 replica for 10s and flaps the ratings bottleneck vNIC:
//   arm 1  resilient — active health checking, circuit breakers, per-try
//          timeouts and budgeted retries;
//   arm 2  baseline  — all of that off, the mesh as a dumb pipe.
// Prints LS goodput / success rate / p50 / p99 for the before / during /
// after phases of both arms, plus eviction/retry counters.
//
//   meshsim --scenario=chaos_elibrary [--seed=42] [--ls-rps=30]
//           [--li-rps=10] [--fault-duration-s=10] [--duration=24]
//           [--threads=N] [--json-out[=PATH]] [--baseline=P]
//
// The two arms are independent sweep points (--threads=2 runs them in
// parallel, bit-identically).

#include <cstdio>
#include <vector>

#include "scenario.h"
#include "workload/chaos_experiment.h"

namespace meshnet::bench {

Outcome run_chaos_elibrary(const Args& args, workload::SweepRunner& runner) {
  workload::ElibraryExperimentConfig config;
  config.ls_rps = args.real("ls-rps");
  config.li_rps = args.real("li-rps");
  config.duration = args.duration();
  config.seed = args.seed();
  workload::ChaosArm arm;
  arm.fault_duration = sim::seconds(args.count("fault-duration-s"));

  std::printf(
      "chaos e-library: crash reviews-v1 + flap ratings-v1 for %.0fs, seed "
      "%llu\n\n",
      sim::to_seconds(arm.fault_duration),
      static_cast<unsigned long long>(config.seed));

  std::vector<faults::FaultLogEntry> resilient_fault_log;
  for (const bool resilience : {true, false}) {
    runner.add({{"resilience", resilience ? "on" : "off"}},
               [config, arm, resilience, &resilient_fault_log] {
                 workload::ChaosArm point = arm;
                 point.resilience = resilience;
                 const workload::ElibraryExperimentResult result =
                     workload::run_elibrary_experiment(
                         workload::chaos_config(config, point));
                 if (resilience) resilient_fault_log = result.fault_log;
                 return workload::elibrary_point_metrics(
                     result, workload::chaos_report_series());
               });
  }
  const workload::SweepResult sweep = runner.run();

  std::fputs(workload::format_chaos_comparison(sweep.points[0].metrics,
                                               sweep.points[1].metrics)
                 .c_str(),
             stdout);
  print_fault_log("resilient", resilient_fault_log);
  return {sweep, {}};
}

}  // namespace meshnet::bench
