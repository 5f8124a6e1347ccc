// TXT-LI — reproduces the paper's §4.3 text claim: "This improvement
// comes at the cost of degrading the performance of the latency-
// insensitive workloads (less than 5% increase in the p99 response
// latency)."
//
// Same experiment as FIG4, but the reported series is the latency-
// INSENSITIVE workload's p99 with and without the optimization, plus the
// relative degradation. Runs through the sweep harness (--threads).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "stats/table.h"
#include "workload/bench_harness.h"
#include "workload/elibrary_experiment.h"

using namespace meshnet;

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "li_degradation", /*default_duration_s=*/15,
      /*default_seed=*/42, {"warmup"});
  const auto duration = sim::seconds(options.duration_s);
  const auto warmup =
      sim::seconds(options.flags.get_int_or("warmup", 4));
  const auto seed = options.seed;

  std::printf(
      "TXT-LI: latency-insensitive workload p99 with vs without cross-layer "
      "optimization\n(paper: < 5%% increase in p99).\n\n");

  const std::vector<double> rps_levels = {10.0, 20.0, 30.0, 40.0, 50.0};
  workload::SweepRunner runner(workload::sweep_options(options));
  for (const double rps : rps_levels) {
    for (const bool cross_layer : {false, true}) {
      runner.add({{"rps", stats::Table::num(rps, 0)},
                  {"cross_layer", cross_layer ? "on" : "off"}},
                 [rps, cross_layer, duration, warmup, seed] {
                   workload::ElibraryExperimentConfig config;
                   config.ls_rps = rps;
                   config.li_rps = rps;
                   config.duration = duration;
                   config.warmup = warmup;
                   config.seed = seed;
                   config.cross_layer = cross_layer;
                   return workload::elibrary_point_metrics(
                       workload::run_elibrary_experiment(config));
                 });
    }
  }
  const workload::SweepResult sweep = runner.run();

  stats::Table table({"RPS", "LI p99 w/o (ms)", "LI p99 w/ (ms)",
                      "delta", "LI p50 w/o (ms)", "LI p50 w/ (ms)",
                      "LS p99 gain"});

  double worst_delta = 0.0;
  for (std::size_t level = 0; level < rps_levels.size(); ++level) {
    const auto& base = sweep.points[level * 2].metrics.scalars;
    const auto& opt = sweep.points[level * 2 + 1].metrics.scalars;
    const double base_p99 = base.at("li_p99_ms");
    const double opt_p99 = opt.at("li_p99_ms");
    const double delta = base_p99 > 0 ? (opt_p99 - base_p99) / base_p99 : 0.0;
    worst_delta = std::max(worst_delta, delta);
    table.add_row(
        {stats::Table::num(rps_levels[level], 0),
         stats::Table::num(base_p99, 1), stats::Table::num(opt_p99, 1),
         stats::Table::num(delta * 100.0, 1) + "%",
         stats::Table::num(base.at("li_p50_ms"), 1),
         stats::Table::num(opt.at("li_p50_ms"), 1),
         stats::Table::num(base.at("ls_p99_ms") / opt.at("ls_p99_ms"), 2) +
             "x"});
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("worst LI p99 degradation across loads: %.1f%% (paper: < 5%%)\n",
              worst_delta * 100.0);

  const stats::BenchReport report = workload::make_bench_report(
      "li_degradation",
      {{"seed", std::to_string(seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"warmup_s",
        std::to_string(options.flags.get_int_or("warmup", 4))},
       {"rps", "10,20,30,40,50"}},
      sweep);
  return workload::finish_harness(report, options);
}
