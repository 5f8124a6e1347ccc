// CHAOS_CP e-library: control-plane outage under pod churn.
//
// Runs the LS/LI e-library workload twice:
//   arm 1  outage  — the control plane crashes for --outage-duration-s
//          while a churn storm alternately kills and restarts the two
//          reviews replicas; the data plane serves stale-while-revalidate
//          config until the control plane recovers and reconverges the
//          mesh with paced, jittered pushes;
//   arm 2  control — identical run with the control plane up throughout
//          (the goodput normalization baseline).
// Prints per-phase LS goodput for both arms, the during-outage goodput
// ratio, peak discovery staleness, reconvergence time and the push
// channel counters (attempts / acks / retries / noop-skips / rollbacks).
//
//   ./bench_cp [--seed=42] [--ls-rps=30] [--li-rps=10]
//              [--duration=46] [--outage-duration-s=30]
//              [--churn-period-s=4] [--threads=N]
//              [--json-out[=PATH]] [--baseline=P]
//
// The two arms are independent sweep points (--threads=2 runs them in
// parallel, bit-identically).
//
// Acceptance (exit 1 on violation): during-outage LS goodput >= 0.9x the
// control arm, full reconvergence to the final epoch after recovery, and
// zero stale sidecars at the end of the run.

#include <cstdio>
#include <vector>

#include "workload/bench_harness.h"
#include "workload/cp_chaos_experiment.h"

using namespace meshnet;

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "cp", /*default_duration_s=*/46, /*default_seed=*/42,
      {"ls-rps", "li-rps", "outage-duration-s", "churn-period-s"});
  const util::Flags& flags = options.flags;
  constexpr auto kPositive = util::NumberRange::kPositive;
  workload::ElibraryExperimentConfig config;
  config.ls_rps = flags.get_double_or("ls-rps", 30.0, kPositive);
  config.li_rps = flags.get_double_or("li-rps", 10.0, kPositive);
  config.duration = sim::seconds(options.duration_s);
  config.seed = options.seed;
  workload::CpChaosArm arm;
  arm.outage_duration =
      sim::seconds(workload::int_flag(options, "outage-duration-s", 30));
  arm.churn_period =
      sim::seconds(workload::int_flag(options, "churn-period-s", 4));

  std::printf(
      "CHAOS_CP e-library: %.0fs control-plane outage + reviews churn "
      "storm\n(period %.0fs) inside a %llds window, seed %llu\n\n",
      sim::to_seconds(arm.outage_duration),
      sim::to_seconds(arm.churn_period),
      static_cast<long long>(options.duration_s),
      static_cast<unsigned long long>(config.seed));

  workload::SweepRunner runner(workload::sweep_options(options));
  std::vector<faults::FaultLogEntry> outage_fault_log;
  for (const bool outage : {true, false}) {
    runner.add({{"outage", outage ? "on" : "off"}},
               [config, arm, outage, &outage_fault_log] {
                 workload::CpChaosArm point = arm;
                 point.outage = outage;
                 const workload::ElibraryExperimentResult result =
                     workload::run_elibrary_experiment(
                         workload::cp_chaos_config(config, point));
                 if (outage) outage_fault_log = result.fault_log;
                 return workload::elibrary_point_metrics(
                     result, workload::cp_report_series());
               });
  }
  const workload::SweepResult sweep = runner.run();
  const workload::PointMetrics& outage_arm = sweep.points[0].metrics;
  const workload::PointMetrics& control_arm = sweep.points[1].metrics;

  std::fputs(
      workload::format_cp_chaos_comparison(outage_arm, control_arm).c_str(),
      stdout);

  std::printf("\nfault log (outage arm):\n");
  for (const faults::FaultLogEntry& entry : outage_fault_log) {
    std::printf("  t=%8.3fs %-14s %-12s%s\n", sim::to_seconds(entry.at),
                std::string(faults::fault_action_name(entry.action)).c_str(),
                entry.target.c_str(), entry.applied ? "" : " (not applied)");
  }

  const double control_goodput =
      control_arm.scalars.at("during_goodput_rps");
  const double ratio =
      control_goodput > 0
          ? outage_arm.scalars.at("during_goodput_rps") / control_goodput
          : 0.0;
  const bool goodput_ok = ratio >= 0.9;
  const unsigned long long final_epoch =
      outage_arm.counters.at("final_epoch");
  const unsigned long long stale_sidecars =
      outage_arm.counters.at("stale_sidecars_at_end");
  const bool reconverged =
      outage_arm.counters.at("converged") == 1 && stale_sidecars == 0;
  std::printf(
      "\nacceptance:\n"
      "  during-outage LS goodput ratio %.3f (goal >= 0.90)  %s\n"
      "  reconverged to epoch %llu, %llu stale sidecars      %s\n",
      ratio, goodput_ok ? "PASS" : "FAIL", final_epoch, stale_sidecars,
      reconverged ? "PASS" : "FAIL");

  const stats::BenchReport report = workload::make_bench_report(
      "cp",
      {{"seed", std::to_string(config.seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"ls_rps", std::to_string(config.ls_rps)},
       {"li_rps", std::to_string(config.li_rps)},
       {"outage_duration_s",
        std::to_string(static_cast<long long>(
            sim::to_seconds(arm.outage_duration)))},
       {"churn_period_s",
        std::to_string(
            static_cast<long long>(sim::to_seconds(arm.churn_period)))}},
      sweep);
  const int harness_rc = workload::finish_harness(report, options);
  if (harness_rc != 0) return harness_rc;
  return (goodput_ok && reconverged) ? 0 : 1;
}
