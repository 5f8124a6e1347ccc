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
//   meshsim --scenario=cp [--seed=42] [--ls-rps=30] [--li-rps=10]
//           [--duration=46] [--outage-duration-s=30]
//           [--churn-period-s=4] [--threads=N]
//           [--json-out[=PATH]] [--baseline=P]
//
// The two arms are independent sweep points (--threads=2 runs them in
// parallel, bit-identically).
//
// Acceptance (exit 1 on violation): during-outage LS goodput >= 0.9x the
// control arm, full reconvergence to the final epoch after recovery, and
// zero stale sidecars at the end of the run.

#include <cstdio>
#include <vector>

#include "scenario.h"
#include "workload/cp_chaos_experiment.h"

namespace meshnet::bench {

Outcome run_cp(const Args& args, workload::SweepRunner& runner) {
  workload::ElibraryExperimentConfig config;
  config.ls_rps = args.real("ls-rps");
  config.li_rps = args.real("li-rps");
  config.duration = args.duration();
  config.seed = args.seed();
  workload::CpChaosArm arm;
  arm.outage_duration = sim::seconds(args.count("outage-duration-s"));
  arm.churn_period = sim::seconds(args.count("churn-period-s"));

  std::printf(
      "CHAOS_CP e-library: %.0fs control-plane outage + reviews churn "
      "storm\n(period %.0fs) inside a %llds window, seed %llu\n\n",
      sim::to_seconds(arm.outage_duration),
      sim::to_seconds(arm.churn_period),
      static_cast<long long>(args.duration_s()),
      static_cast<unsigned long long>(config.seed));

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
  print_fault_log("outage", outage_fault_log);

  const double control_goodput =
      control_arm.scalars.at("during_goodput_rps");
  const double ratio =
      control_goodput > 0
          ? outage_arm.scalars.at("during_goodput_rps") / control_goodput
          : 0.0;
  const unsigned long long final_epoch =
      outage_arm.counters.at("final_epoch");
  const unsigned long long stale_sidecars =
      outage_arm.counters.at("stale_sidecars_at_end");
  const bool reconverged =
      outage_arm.counters.at("converged") == 1 && stale_sidecars == 0;
  return {sweep,
          {check(ratio >= 0.9,
                 "during-outage LS goodput ratio %.3f (goal >= 0.90)", ratio),
           check(reconverged, "reconverged to epoch %llu, %llu stale sidecars",
                 final_epoch, stale_sidecars)}};
}

}  // namespace meshnet::bench
