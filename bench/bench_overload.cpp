// Overload e-library: priority-aware admission control past the knee.
//
// Sweeps offered load from half capacity to 3x capacity on the
// compute-bound e-library tuning, with the admission subsystem on and
// off. LS load is fixed (10 rps); LI analytics traffic fills the rest.
// The claim under test: at 2x overload, admission keeps LS p99 within
// 25% of its uncontended (0.5x) value while >= 90% of the shedding
// falls on LI traffic.
//
//   ./bench_overload [--seed=42] [--capacity-rps=30] [--ls-rps=10]
//                    [--duration=10] [--threads=N]
//                    [--json-out[=PATH]] [--baseline=P]
//
// Every (load_factor, admission) pair is an independent sweep point;
// --threads parallelizes them bit-identically.

#include <cstdio>
#include <string>
#include <vector>

#include "workload/bench_harness.h"
#include "workload/overload_experiment.h"

using namespace meshnet;

namespace {

constexpr double kLoadFactors[] = {0.5, 1.0, 2.0, 3.0};

std::string format_factor(double factor) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.1f", factor);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  workload::OverloadExperimentConfig config;
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "overload",
      /*default_duration_s=*/static_cast<std::int64_t>(
          sim::to_seconds(config.duration)),
      /*default_seed=*/config.seed, {"capacity-rps", "ls-rps"});
  config.seed = options.seed;
  config.duration = sim::seconds(options.duration_s);
  config.capacity_rps =
      options.flags.get_double_or("capacity-rps", config.capacity_rps);
  config.ls_rps = options.flags.get_double_or("ls-rps", config.ls_rps);

  std::printf(
      "overload e-library: capacity ~%.0f rps, LS fixed at %.0f rps,\n"
      "load factors 0.5x..3x, admission on/off, seed %llu\n\n",
      config.capacity_rps, config.ls_rps,
      static_cast<unsigned long long>(config.seed));

  workload::SweepRunner runner(workload::sweep_options(options));
  const std::size_t num_factors = std::size(kLoadFactors);
  for (std::size_t i = 0; i < num_factors; ++i) {
    for (const bool admission : {true, false}) {
      runner.add({{"load", format_factor(kLoadFactors[i]) + "x"},
                  {"admission", admission ? "on" : "off"}},
                 [config, i, admission] {
                   workload::OverloadExperimentConfig arm = config;
                   arm.load_factor = kLoadFactors[i];
                   arm.admission = admission;
                   return workload::elibrary_point_metrics(
                       workload::run_elibrary_experiment(
                           workload::elibrary_config(arm)),
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
          (format_factor(kLoadFactors[i]) + "x").c_str(),
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

  const stats::BenchReport report = workload::make_bench_report(
      "overload",
      {{"seed", std::to_string(config.seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"capacity_rps", std::to_string(config.capacity_rps)},
       {"ls_rps", std::to_string(config.ls_rps)}},
      sweep);
  return workload::finish_harness(report, options);
}
