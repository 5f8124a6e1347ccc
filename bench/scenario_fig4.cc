// FIG4 — reproduces the paper's Figure 4: "Reduction in request latency
// from cross-layer optimization."
//
// Sweeps offered load (RPS per workload, default 10..50 as in the paper)
// and, for each level, runs the e-library mix twice — without and with
// cross-layer prioritization — reporting the latency-sensitive workload's
// p50 and p99, the same four series the figure plots. The 2×|rps| points
// fan across the sweep harness (--threads) and produce bit-identical
// results at any thread count.
//
// TXT-LI, the paper's §4.3 text claim ("This improvement comes at the
// cost of degrading the performance of the latency-insensitive workloads
// (less than 5% increase in the p99 response latency)"), comes from the
// same runs: a second table reports the latency-INSENSITIVE workload's
// p99 with and without the optimization and the relative degradation.
//
// Flags (plus the standard harness set, see workload/bench_harness.h):
//   --rps=10,20,30,40,50   load levels
//   --duration=15          measured seconds per run
//   --warmup=4 --cooldown=2
//   --seed=42
//   --csv                  also emit CSV for plotting
//   --threads=N --json-out[=PATH] --baseline=PATH --tolerance=R

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "scenario.h"
#include "stats/table.h"
#include "workload/elibrary_experiment.h"

namespace meshnet::bench {

Outcome run_fig4(const Args& args, workload::SweepRunner& runner) {
  const std::vector<int>& rps_levels = args.counts("rps");
  const auto duration = args.duration();
  const auto warmup = sim::seconds(args.count("warmup"));
  const auto cooldown = sim::seconds(args.count("cooldown"));
  const auto seed = args.seed();

  std::printf(
      "FIG4: HTTP request latency of the latency-sensitive workload vs "
      "offered RPS,\nwith and without cross-layer optimization "
      "(e-library app, 1 Gbps reviews->ratings bottleneck,\nLI responses "
      "~200x larger, uniform-random arrivals).\n\n");

  // One sweep point per (rps, cross_layer) pair; each runs its own
  // simulator. The table reads the points' reports.
  for (const double rps : rps_levels) {
    for (const bool cross_layer : {false, true}) {
      runner.add(
          {{"rps", stats::Table::num(rps, 0)},
           {"cross_layer", cross_layer ? "on" : "off"}},
          [rps, cross_layer, duration, warmup, cooldown, seed] {
            workload::ElibraryExperimentConfig config;
            config.ls_rps = rps;
            config.li_rps = rps;
            config.duration = duration;
            config.warmup = warmup;
            config.cooldown = cooldown;
            config.seed = seed;
            config.cross_layer = cross_layer;
            return workload::elibrary_point_metrics(
                workload::run_elibrary_experiment(config));
          });
    }
  }
  const workload::SweepResult sweep = runner.run();

  stats::Table table({"RPS", "p50 w/o (ms)", "p50 w/ (ms)", "p99 w/o (ms)",
                      "p99 w/ (ms)", "p50 gain", "p99 gain", "bneck util"});
  stats::Table li_table({"RPS", "LI p99 w/o (ms)", "LI p99 w/ (ms)", "delta",
                         "LI p50 w/o (ms)", "LI p50 w/ (ms)",
                         "LS p99 gain"});
  double worst_li_delta = 0.0;

  struct Row {
    double rps, p50_base, p50_opt, p99_base, p99_opt, util;
  };
  std::vector<Row> rows;
  for (std::size_t level = 0; level < rps_levels.size(); ++level) {
    const auto& base = sweep.points[level * 2].metrics.scalars;
    const auto& opt = sweep.points[level * 2 + 1].metrics.scalars;
    Row row{static_cast<double>(rps_levels[level]), base.at("ls_p50_ms"),
            opt.at("ls_p50_ms"), base.at("ls_p99_ms"),
            opt.at("ls_p99_ms"), opt.at("bottleneck_utilization")};
    rows.push_back(row);
    table.add_row({stats::Table::num(row.rps, 0),
                   stats::Table::num(row.p50_base, 1),
                   stats::Table::num(row.p50_opt, 1),
                   stats::Table::num(row.p99_base, 1),
                   stats::Table::num(row.p99_opt, 1),
                   stats::Table::num(row.p50_base / row.p50_opt, 2) + "x",
                   stats::Table::num(row.p99_base / row.p99_opt, 2) + "x",
                   stats::Table::num(row.util, 2)});

    const double li_base = base.at("li_p99_ms");
    const double li_opt = opt.at("li_p99_ms");
    const double li_delta = li_base > 0 ? (li_opt - li_base) / li_base : 0.0;
    worst_li_delta = std::max(worst_li_delta, li_delta);
    li_table.add_row({stats::Table::num(row.rps, 0),
                      stats::Table::num(li_base, 1),
                      stats::Table::num(li_opt, 1),
                      stats::Table::num(li_delta * 100.0, 1) + "%",
                      stats::Table::num(base.at("li_p50_ms"), 1),
                      stats::Table::num(opt.at("li_p50_ms"), 1),
                      stats::Table::num(row.p99_base / row.p99_opt, 2) + "x"});
  }

  std::printf("%s\n", table.to_string().c_str());

  // The paper's headline claim: ~1.5x improvement in p50 and p99 at load.
  const Row& top = rows.back();
  std::printf("at %.0f RPS: cross-layer optimization improves LS p50 %.2fx "
              "and p99 %.2fx (paper: ~1.5x)\n",
              top.rps, top.p50_base / top.p50_opt,
              top.p99_base / top.p99_opt);
  std::printf(
      "\nTXT-LI: latency-insensitive workload p99 with vs without "
      "cross-layer optimization\n(paper: < 5%% increase in p99).\n\n");
  std::printf("%s\n", li_table.to_string().c_str());
  std::printf("worst LI p99 degradation across loads: %.1f%% (paper: < 5%%)\n",
              worst_li_delta * 100.0);

  std::fprintf(stderr, "sweep: %zu points, %d threads, %.0f ms wall\n",
               sweep.points.size(), sweep.threads_used, sweep.wall_ms);

  if (args.on("csv")) {
    stats::Table csv({"rps", "p50_wo_ms", "p50_w_ms", "p99_wo_ms",
                      "p99_w_ms", "util"});
    for (const Row& r : rows) {
      csv.add_row({stats::Table::num(r.rps, 0), stats::Table::num(r.p50_base, 3),
                   stats::Table::num(r.p50_opt, 3),
                   stats::Table::num(r.p99_base, 3),
                   stats::Table::num(r.p99_opt, 3),
                   stats::Table::num(r.util, 4)});
    }
    std::printf("\n%s", csv.to_csv().c_str());
  }

  return {sweep, {}};
}

}  // namespace meshnet::bench
