// Overload e-library: priority-aware admission control past the knee.
//
// Sweeps offered load from half capacity to 3x capacity on the
// compute-bound e-library tuning, with the admission subsystem on and
// off. LS load is fixed (10 rps); LI analytics traffic fills the rest.
// The claim under test: at 2x overload, admission keeps LS p99 within
// 25% of its uncontended (0.5x) value while >= 90% of the shedding
// falls on LI traffic.
//
//   meshsim --scenario=overload [--seed=42] [--capacity-rps=90]
//           [--ls-rps=10] [--duration=10] [--threads=N]
//           [--json-out[=PATH]] [--baseline=P]
//
// Every (load_factor, admission) pair is an independent sweep point;
// --threads parallelizes them bit-identically.

#include <cstdio>
#include <string>
#include <vector>

#include "scenario.h"
#include "stats/table.h"
#include "workload/overload_experiment.h"

namespace meshnet::bench {
namespace {

constexpr double kLoadFactors[] = {0.5, 1.0, 2.0, 3.0};

}  // namespace

Outcome run_overload(const Args& args, workload::SweepRunner& runner) {
  workload::ElibraryExperimentConfig config;
  config.ls_rps = args.real("ls-rps");
  config.warmup = sim::seconds(3);
  config.duration = args.duration();
  config.cooldown = sim::seconds(2);
  config.seed = args.seed();
  workload::OverloadArm arm;
  arm.capacity_rps = args.real("capacity-rps");

  std::printf(
      "overload e-library: capacity ~%.0f rps, LS fixed at %.0f rps,\n"
      "load factors 0.5x..3x, admission on/off, seed %llu\n\n",
      arm.capacity_rps, config.ls_rps,
      static_cast<unsigned long long>(config.seed));

  const std::size_t num_factors = std::size(kLoadFactors);
  for (std::size_t i = 0; i < num_factors; ++i) {
    for (const bool admission : {true, false}) {
      runner.add({{"load", stats::Table::num(kLoadFactors[i], 1) + "x"},
                  {"admission", admission ? "on" : "off"}},
                 [config, arm, i, admission] {
                   workload::OverloadArm point = arm;
                   point.load_factor = kLoadFactors[i];
                   point.admission = admission;
                   return workload::elibrary_point_metrics(
                       workload::run_elibrary_experiment(
                           workload::overload_config(config, point)),
                       workload::overload_report_series());
                 });
    }
  }
  const workload::SweepResult sweep = runner.run();
  // Point 2i is load factor i with admission on, 2i+1 with it off.
  const auto count = [&sweep](std::size_t point, const char* key) {
    return static_cast<unsigned long long>(
        sweep.points[point].metrics.counters.at(key));
  };
  const auto scalar = [&sweep](std::size_t point, const char* key) {
    return sweep.points[point].metrics.scalars.at(key);
  };

  std::printf(
      "%-6s %-9s | %9s %7s %8s %8s | %9s %7s %8s | %7s %7s %8s\n", "load",
      "admission", "LS rps", "LS err", "LS p50", "LS p99", "LI rps", "LI err",
      "LI p99", "LS shed", "LI shed", "timeouts");
  for (std::size_t i = 0; i < num_factors; ++i) {
    for (const bool admission : {true, false}) {
      const std::size_t p = 2 * i + (admission ? 0 : 1);
      std::printf(
          "%-6s %-9s | %9.1f %7llu %8.1f %8.1f | %9.1f %7llu %8.1f | %7llu "
          "%7llu %8llu\n",
          (stats::Table::num(kLoadFactors[i], 1) + "x").c_str(),
          admission ? "on" : "off", scalar(p, "ls_rps"), count(p, "ls_errors"),
          scalar(p, "ls_p50_ms"), scalar(p, "ls_p99_ms"), scalar(p, "li_rps"),
          count(p, "li_errors"), scalar(p, "li_p99_ms"), count(p, "ls_shed"),
          count(p, "li_shed"), count(p, "timeouts"));
    }
  }

  // The acceptance comparison: 2x overload vs the uncontended 0.5x point,
  // both with admission on.
  const std::size_t uncontended = 0;  // 0.5x on
  const std::size_t overloaded = 4;   // 2.0x on
  const double p99_ratio =
      scalar(uncontended, "ls_p99_ms") > 0
          ? scalar(overloaded, "ls_p99_ms") / scalar(uncontended, "ls_p99_ms")
          : 0.0;
  const unsigned long long total_shed = count(overloaded, "ls_shed") +
                                        count(overloaded, "li_shed") +
                                        count(overloaded, "default_shed");
  const double li_shed_share =
      total_shed > 0 ? static_cast<double>(count(overloaded, "li_shed")) /
                           static_cast<double>(total_shed)
                     : 1.0;
  std::printf(
      "\nat 2x overload (admission on):\n"
      "  LS p99 %.1f ms vs %.1f ms uncontended  -> ratio %.2f (goal <= 1.25)\n"
      "  sheds: LS %llu / LI %llu / default %llu -> %.1f%% on LI (goal >= "
      "90%%)\n"
      "  by reason: queue-full %llu, deadline %llu, preempted %llu\n"
      "  retries suppressed by overload marker: %llu\n",
      scalar(overloaded, "ls_p99_ms"), scalar(uncontended, "ls_p99_ms"),
      p99_ratio, count(overloaded, "ls_shed"), count(overloaded, "li_shed"),
      count(overloaded, "default_shed"), 100.0 * li_shed_share,
      count(overloaded, "shed_queue_full"), count(overloaded, "shed_deadline"),
      count(overloaded, "shed_preempted"),
      count(overloaded, "retries_suppressed_by_overload"));

  return {sweep, {}};
}

}  // namespace meshnet::bench
