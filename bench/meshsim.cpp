// meshsim — runs one of the paper's experiments by name:
//
//   meshsim --scenario=NAME [harness flags] [scenario flags]
//
// The harness flags are those of workload/bench_harness.h (--threads,
// --json-out[=PATH], --baseline, --tolerance, --duration, --seed); each
// scenario (bench/scenario_<name>.cc) adds its own. A missing or unknown
// scenario, an unknown flag (one of another scenario included) and a bad
// value exit 2 before anything runs. The report is written and compared
// with --baseline before the acceptance checks apply, so a failed check
// still leaves its report. Exit 1: a regression or a failed check.

#include <cstdio>
#include <cstdlib>

#include "scenario.h"

using namespace meshnet;
using bench::Scenario;

namespace {

using bench::FlagKind;

const Scenario kScenarios[] = {
    {.name = "fig4", .duration_s = 15, .seed = 42,
     .flags = {{"warmup", FlagKind::kInt, 0, "4", "warmup_s"},
               {"cooldown", FlagKind::kInt, 0, "2", "cooldown_s"},
               {"rps", FlagKind::kInts, 1, "10,20,30,40,50", "rps"},
               {"csv", FlagKind::kSwitch, 0, ""}},
     .run = bench::run_fig4},
    {.name = "overload", .duration_s = 10, .seed = 42,
     .flags = {{"capacity-rps", FlagKind::kReal, 1, "90", "capacity_rps"},
               {"ls-rps", FlagKind::kReal, 1, "10", "ls_rps"}},
     .run = bench::run_overload},
    {.name = "cp", .duration_s = 46, .seed = 42,
     .flags = {{"ls-rps", FlagKind::kReal, 1, "30", "ls_rps"},
               {"li-rps", FlagKind::kReal, 1, "10", "li_rps"},
               {"outage-duration-s", FlagKind::kInt, 1, "30",
                "outage_duration_s"},
               {"churn-period-s", FlagKind::kInt, 1, "4", "churn_period_s"}},
     .run = bench::run_cp},
    {.name = "sidecar_overhead", .duration_s = 30, .seed = 7,
     .flags = {{"rps", FlagKind::kRealRounded, 1, "200", "rps"}},
     .run = bench::run_sidecar_overhead},
    {.name = "ablation_components", .duration_s = 15, .seed = 42,
     .flags = {{"rps", FlagKind::kRealRounded, 1, "40", "rps"}},
     .run = bench::run_ablation_components},
    {.name = "lb_policies", .duration_s = 20, .seed = 7,
     .flags = {{"rps", FlagKind::kRealRounded, 1, "300", "rps"}},
     .run = bench::run_lb_policies},
    {.name = "compute_priority", .duration_s = 20, .seed = 7,
     .flags = {{"ls-rps", FlagKind::kRealRounded, 1, "100", "ls_rps"},
               {"li-rps", FlagKind::kRealRounded, 1, "85", "li_rps"}},
     .run = bench::run_compute_priority},
    {.name = "scavenger", .duration_s = 20, .seed = 0, .flags = {},
     .run = bench::run_scavenger,
     .fixed_config = {{"flows", "1,4"}, {"cc", "reno,ledbat"}},
     .seeded = false},
    {.name = "parsim", .duration_s = 5, .seed = 42,
     .flags = {{"shards", FlagKind::kInt, 1, "8", "shards"},
               {"engine-threads", FlagKind::kInts, 0, "1,2,4,8",
                "engine_threads"},
               {"require-speedup", FlagKind::kReal, 0, "0"}},
     .run = bench::run_parsim,
     .fixed_config = {{"topology", "4x8x16x36"}},
     .sequential = true},
    {.name = "meshscale", .duration_s = 3, .seed = 42,
     .flags = {{"services", FlagKind::kInts, 1, "10,50,100", "services"},
               {"cells", FlagKind::kInt, 1, "2", "cells"},
               {"engine-threads", FlagKind::kInt, 0, "1"}},
     .run = bench::run_meshscale},
    {.name = "mtls", .duration_s = 30, .seed = 42,
     .flags = {{"ls-rps", FlagKind::kReal, 1, "30", "ls_rps"},
               {"li-rps", FlagKind::kReal, 1, "10", "li_rps"}},
     .run = bench::run_mtls},
    {.name = "chaos_elibrary", .duration_s = 24, .seed = 42,
     .flags = {{"ls-rps", FlagKind::kReal, 1, "30", "ls_rps"},
               {"li-rps", FlagKind::kReal, 1, "10", "li_rps"},
               {"fault-duration-s", FlagKind::kInt, 1, "10",
                "fault_duration_s"}},
     .run = bench::run_chaos_elibrary},
};

const Scenario& find_scenario(int argc, char** argv) {
  const std::string name =
      util::Flags::parse(argc, argv).get_or("scenario", "");
  for (const Scenario& scenario : kScenarios) {
    if (scenario.name == name) return scenario;
  }
  std::fprintf(stderr, "meshsim: %s; pick one with --scenario=NAME:\n",
               name.empty() ? "no scenario given"
                            : ("unknown scenario '" + name + "'").c_str());
  for (const Scenario& scenario : kScenarios) {
    std::fprintf(stderr, "  %s\n", std::string(scenario.name).c_str());
  }
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Scenario& scenario = find_scenario(argc, argv);
  std::vector<std::string_view> known = {"scenario"};
  for (const bench::Flag& flag : scenario.flags) known.push_back(flag.name);
  const bench::Args args(
      workload::parse_harness_flags(argc, argv, scenario.name,
                                    scenario.duration_s, scenario.seed, known),
      scenario.flags);

  workload::SweepOptions options = workload::sweep_options(args.harness());
  if (scenario.sequential && options.threads != 1) {
    std::fprintf(stderr, "note: %s arms measure whole-machine wall clock "
                         "and always run sequentially; --threads does not "
                         "fan them.\n",
                 std::string(scenario.name).c_str());
    options.threads = 1;
  }
  workload::SweepRunner runner(options);
  const bench::Outcome outcome = scenario.run(args, runner);

  bool passed = true;
  if (!outcome.checks.empty()) std::printf("\nacceptance:\n");
  for (const bench::Check& check : outcome.checks) {
    std::printf("  %s  %s\n", check.pass ? "PASS" : "FAIL", check.what.c_str());
    passed = passed && check.pass;
  }

  std::vector<std::pair<std::string, std::string>> config;
  if (scenario.seeded) config.emplace_back("seed", std::to_string(args.seed()));
  config.emplace_back("duration_s", std::to_string(args.duration_s()));
  config.insert(config.end(), args.config.begin(), args.config.end());
  config.insert(config.end(), scenario.fixed_config.begin(),
                scenario.fixed_config.end());
  stats::BenchReport report = workload::make_bench_report(
      std::string(scenario.name), std::move(config), outcome.sweep);
  report.engine = outcome.engine;
  const int harness_rc = workload::finish_harness(report, args.harness());
  return harness_rc != 0 ? harness_rc : passed ? 0 : 1;
}
