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
//   ./chaos_elibrary [--seed=42] [--ls-rps=30] [--li-rps=10]
//                    [--fault-duration-s=10] [--duration=24]
//                    [--threads=N] [--json-out[=PATH]] [--baseline=P]
//
// The two arms are independent sweep points (--threads=2 runs them in
// parallel, bit-identically).

#include <cstdio>
#include <vector>

#include "workload/bench_harness.h"
#include "workload/chaos_experiment.h"

using namespace meshnet;

int main(int argc, char** argv) {
  workload::ChaosExperimentConfig config;
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "chaos_elibrary",
      /*default_duration_s=*/static_cast<std::int64_t>(
          sim::to_seconds(config.duration)),
      /*default_seed=*/config.seed, {"ls-rps", "li-rps", "fault-duration-s"});
  config.seed = options.seed;
  config.duration = sim::seconds(options.duration_s);
  config.ls_rps = options.flags.get_double_or("ls-rps", config.ls_rps);
  config.li_rps = options.flags.get_double_or("li-rps", config.li_rps);
  config.fault_duration =
      sim::seconds(options.flags.get_int_or("fault-duration-s", 10));

  std::printf(
      "chaos e-library: crash %s + flap %s for %.0fs, seed %llu\n\n",
      config.crash_target.c_str(), config.flap_target.c_str(),
      sim::to_seconds(config.fault_duration),
      static_cast<unsigned long long>(config.seed));

  workload::SweepRunner runner(workload::sweep_options(options));
  std::vector<faults::FaultLogEntry> resilient_fault_log;
  for (const bool resilience : {true, false}) {
    runner.add({{"resilience", resilience ? "on" : "off"}},
               [config, resilience, &resilient_fault_log] {
                 workload::ChaosExperimentConfig arm_config = config;
                 arm_config.resilience = resilience;
                 const workload::ElibraryExperimentResult result =
                     workload::run_elibrary_experiment(
                         workload::elibrary_config(arm_config));
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

  std::printf("\nfault log (resilient arm):\n");
  for (const faults::FaultLogEntry& entry : resilient_fault_log) {
    std::printf("  t=%8.3fs %-14s %-12s%s\n",
                sim::to_seconds(entry.at),
                std::string(faults::fault_action_name(entry.action)).c_str(),
                entry.target.c_str(), entry.applied ? "" : " (not applied)");
  }

  const stats::BenchReport report = workload::make_bench_report(
      "chaos_elibrary",
      {{"seed", std::to_string(config.seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"ls_rps", std::to_string(config.ls_rps)},
       {"li_rps", std::to_string(config.li_rps)},
       {"fault_duration_s",
        std::to_string(static_cast<long long>(
            sim::to_seconds(config.fault_duration)))}},
      sweep);
  return workload::finish_harness(report, options);
}
