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
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "chaos_elibrary", /*default_duration_s=*/24,
      /*default_seed=*/42, {"ls-rps", "li-rps", "fault-duration-s"});
  const util::Flags& flags = options.flags;
  constexpr auto kPositive = util::NumberRange::kPositive;
  workload::ElibraryExperimentConfig config;
  config.ls_rps = flags.get_double_or("ls-rps", 30.0, kPositive);
  config.li_rps = flags.get_double_or("li-rps", 10.0, kPositive);
  config.duration = sim::seconds(options.duration_s);
  config.seed = options.seed;
  workload::ChaosArm arm;
  arm.fault_duration =
      sim::seconds(workload::int_flag(options, "fault-duration-s", 10));

  std::printf(
      "chaos e-library: crash reviews-v1 + flap ratings-v1 for %.0fs, seed "
      "%llu\n\n",
      sim::to_seconds(arm.fault_duration),
      static_cast<unsigned long long>(config.seed));

  workload::SweepRunner runner(workload::sweep_options(options));
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
            sim::to_seconds(arm.fault_duration)))}},
      sweep);
  return workload::finish_harness(report, options);
}
