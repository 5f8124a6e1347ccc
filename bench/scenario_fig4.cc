// FIG4 — reproduces the paper's Figure 4: "Reduction in request latency
// from cross-layer optimization."
//
// Sweeps offered load (RPS per workload, default 10..50 as in the paper)
// and, for each level, runs the e-library mix twice — without and with
// cross-layer prioritization — reporting the latency-sensitive workload's
// p50 and p99, the same four series the figure plots.
//
// TXT-LI, the paper's §4.3 text claim ("This improvement comes at the
// cost of degrading the performance of the latency-insensitive workloads
// (less than 5% increase in the p99 response latency)"), comes from the
// same runs: a second table reports the latency-INSENSITIVE workload's
// p99 with and without the optimization, and a line per load gives the
// LS gains and the relative LI degradation.

#include <algorithm>
#include <string>
#include <vector>

#include "scenario.h"
#include "stats/table.h"

namespace meshnet::bench {
namespace {

/// Arm "off/<rps>" runs without cross-layer prioritization, "on/<rps>"
/// with it; the notes pair them by load.
std::vector<Arm> arms(const Args& args) {
  workload::ElibraryExperimentConfig control;
  control.duration = args.duration();
  control.warmup = sim::seconds(args.count("warmup"));
  control.cooldown = sim::seconds(args.count("cooldown"));
  control.seed = args.seed();
  std::vector<Arm> arms;
  for (const int rps : args.counts("rps")) {
    for (const bool cross_layer : {false, true}) {
      workload::ElibraryExperimentConfig config = control;
      config.ls_rps = config.li_rps = rps;
      config.cross_layer = cross_layer;
      const std::string level = std::to_string(rps);
      arms.push_back(elibrary_arm(
          (cross_layer ? "on/" : "off/") + level,
          {{"rps", level}, {"cross_layer", cross_layer ? "on" : "off"}},
          std::move(config)));
    }
  }
  return arms;
}

/// An LS gain is a ratio of the two arms' percentiles, which are 0 for an
/// arm that completed no LS request: "n/a" rather than nan.
std::string gain(const Results& results, const std::string& level,
                 const std::string& key) {
  const double base = results.scalar("off/" + level, key);
  const double opt = results.scalar("on/" + level, key);
  return base > 0 && opt > 0 ? stats::Table::num(base / opt, 2) + "x"
                             : std::string("n/a");
}

/// The figure's comparison at each load: the LS gains of the "on" arm
/// over the "off" arm, and the LI p99 change they cost (TXT-LI).
std::vector<Check> checks(const Args& args, const Results& results) {
  std::vector<Check> notes;
  double worst_li_delta = 0.0;
  for (const int rps : args.counts("rps")) {
    const std::string level = std::to_string(rps);
    const double base = results.scalar("off/" + level, "li_p99_ms");
    const double opt = results.scalar("on/" + level, "li_p99_ms");
    const double li_delta = base > 0 ? (opt - base) / base : 0.0;
    worst_li_delta = std::max(worst_li_delta, li_delta);
    notes.push_back(note("%4d RPS: LS p50 gain %s, LS p99 gain %s, LI p99 "
                         "delta %.1f%%",
                         rps, gain(results, level, "ls_p50_ms").c_str(),
                         gain(results, level, "ls_p99_ms").c_str(),
                         li_delta * 100.0));
  }
  // The paper's headline claim: ~1.5x improvement in p50 and p99 at load.
  const std::string top = std::to_string(args.counts("rps").back());
  notes.push_back(note("at %s RPS: cross-layer optimization improves LS p50 "
                       "%s and p99 %s (paper: ~1.5x)",
                       top.c_str(), gain(results, top, "ls_p50_ms").c_str(),
                       gain(results, top, "ls_p99_ms").c_str()));
  notes.push_back(note("worst LI p99 degradation across loads: %.1f%% "
                       "(paper: < 5%%)",
                       worst_li_delta * 100.0));
  return notes;
}

}  // namespace

const Scenario kFig4Scenario = {
    .name = "fig4",
    .title = "FIG4: HTTP request latency of the latency-sensitive workload "
             "vs offered RPS,\nwith and without cross-layer optimization "
             "(e-library app, 1 Gbps reviews->ratings bottleneck,\nLI "
             "responses ~200x larger, uniform-random arrivals).",
    .duration_s = 15,
    .seed = 42,
    .flags = {{"warmup", FlagKind::kInt, 0, "4", "warmup_s"},
              {"cooldown", FlagKind::kInt, 0, "2", "cooldown_s"},
              {"rps", FlagKind::kInts, 1, "10,20,30,40,50", "rps"},
              {"csv", FlagKind::kSwitch, 0, ""}},
    .arms = arms,
    .tables = {{.columns = {{"LS p50 (ms)", "ls_p50_ms"},
                            {"LS p99 (ms)", "ls_p99_ms"},
                            {"bneck util", "bottleneck_utilization", 2}},
                .label = "cross-layer/RPS"},
               {.title = "TXT-LI: latency-insensitive workload p99 with vs "
                         "without cross-layer optimization\n(paper: < 5% "
                         "increase in p99).\n",
                .columns = {{"LI p99 (ms)", "li_p99_ms"},
                            {"LI p50 (ms)", "li_p50_ms"}},
                .label = "cross-layer/RPS"},
               {.columns = {{"p50_ms", "ls_p50_ms", 3},
                            {"p99_ms", "ls_p99_ms", 3},
                            {"util", "bottleneck_utilization", 4}},
                .label = "cross_layer/rps",
                .csv = true}},
    .checks = checks,
};

}  // namespace meshnet::bench
