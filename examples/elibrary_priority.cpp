// The paper's case study as a runnable demo: the e-library application
// serving a mix of latency-sensitive page loads and latency-insensitive
// analytics scans, first without and then with cross-layer
// prioritization, printing the before/after latency comparison plus the
// cross-layer machinery's own view (tc rules, provenance tables,
// classifier counters).
//
//   ./elibrary_priority [--rps=30] [--duration=10] [--seed=42]
//                       [--threads=N] [--json-out[=PATH]] [--baseline=P]
//
// The two arms (with/without cross-layer) are independent sweep points,
// so --threads=2 runs them in parallel with bit-identical output.

#include <cstdio>
#include <vector>

#include "core/cross_layer.h"
#include "stats/table.h"
#include "workload/bench_harness.h"
#include "workload/elibrary_experiment.h"

using namespace meshnet;

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "elibrary_priority", /*default_duration_s=*/10,
      /*default_seed=*/42, {"rps"});
  const double rps = options.flags.get_double_or(
      "rps", 30.0, util::NumberRange::kPositive);
  const auto duration = sim::seconds(options.duration_s);
  const auto seed = options.seed;

  std::printf("e-library, %g RPS per workload, %lld s measured\n\n", rps,
              static_cast<long long>(options.duration_s));
  std::printf("topology (paper Fig. 3):\n"
              "  client -> [ingress gateway] -> frontend -> { details,\n"
              "             reviews-v1 (priority=high) | reviews-v2\n"
              "             (priority=low) } ; reviews -> ratings\n"
              "  all vNICs 15 Gbps, ratings vNIC 1 Gbps (bottleneck)\n\n");

  workload::SweepRunner runner(workload::sweep_options(options));
  for (const bool cross_layer : {false, true}) {
    runner.add({{"cross_layer", cross_layer ? "on" : "off"}},
               [rps, duration, seed, cross_layer] {
                 workload::ElibraryExperimentConfig config;
                 config.ls_rps = rps;
                 config.li_rps = rps;
                 config.duration = duration;
                 config.seed = seed;
                 config.cross_layer = cross_layer;
                 return workload::elibrary_point_metrics(
                     workload::run_elibrary_experiment(config));
               });
  }
  const workload::SweepResult sweep = runner.run();
  const workload::PointMetrics& base = sweep.points[0].metrics;
  const workload::PointMetrics& opt = sweep.points[1].metrics;
  for (const bool cross_layer : {false, true}) {
    std::printf("%s cross-layer optimization: done (%llu events)\n",
                cross_layer ? "with   " : "without",
                static_cast<unsigned long long>(
                    (cross_layer ? opt : base).counters.at("events")));
  }

  stats::Table table({"metric", "w/o cross-layer", "w/ cross-layer",
                      "change"});
  auto row = [&](const char* name, const char* key, bool ratio) {
    const double b = base.scalars.at(key);
    const double o = opt.scalars.at(key);
    table.add_row({name, stats::Table::num(b, 1), stats::Table::num(o, 1),
                   ratio ? stats::Table::num(b / o, 2) + "x better"
                         : stats::Table::num((o - b) / b * 100.0, 1) + "%"});
  };
  row("LS p50 (ms)", "ls_p50_ms", true);
  row("LS p99 (ms)", "ls_p99_ms", true);
  row("LI p50 (ms)", "li_p50_ms", false);
  row("LI p99 (ms)", "li_p99_ms", false);
  std::printf("\n%s\n", table.to_string().c_str());

  std::printf("bottleneck utilization: %.2f (w/o) vs %.2f (w/)\n",
              base.scalars.at("bottleneck_utilization"),
              opt.scalars.at("bottleneck_utilization"));
  std::printf("priority bands at the bottleneck (w/ only): high %.1f MB, "
              "low %.1f MB\n\n",
              static_cast<double>(opt.counters.at("high_band_bytes")) / 1e6,
              static_cast<double>(opt.counters.at("low_band_bytes")) / 1e6);

  // Show the installed machinery on a fresh instance (the experiment
  // helper tears its instance down).
  sim::Simulator sim;
  app::Elibrary app(sim, {});
  core::CrossLayerController controller(
      app.control_plane(), app.cluster(),
      workload::ElibraryExperimentConfig::default_cross_layer_config());
  controller.install();
  std::printf("installed tc rules (`tc qdisc show` equivalent):\n%s\n",
              controller.tc().show().c_str());

  const stats::BenchReport report = workload::make_bench_report(
      "elibrary_priority",
      {{"seed", std::to_string(seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"rps", stats::Table::num(rps, 0)}},
      sweep);
  return workload::finish_harness(report, options);
}
