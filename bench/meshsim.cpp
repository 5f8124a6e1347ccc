// meshsim — runs one of the paper's experiments by name:
//
//   meshsim --scenario=NAME [harness flags] [scenario flags]
//
// The harness flags are those of workload/bench_harness.h (--threads,
// --json-out[=PATH], --baseline, --tolerance, --duration, --seed); each
// scenario (its Scenario value in bench/scenario_<name>.cc) adds its own.
// A missing or unknown scenario, an unknown flag (one of another scenario
// included) and a bad value exit 2 before anything runs. The report is
// written and compared with --baseline before the acceptance checks
// apply, so a failed check still leaves its report. Exit 1: a regression
// or a failed check.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "scenario.h"

using namespace meshnet;

int main(int argc, char** argv) {
  const std::string name =
      util::Flags::parse(argc, argv).get_or("scenario", "");
  const bench::Scenario* scenario = bench::find_scenario(name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "meshsim: %s; pick one with --scenario=NAME:\n",
                 name.empty() ? "no scenario given"
                              : ("unknown scenario '" + name + "'").c_str());
    for (const bench::Scenario& known : bench::scenarios()) {
      std::fprintf(stderr, "  %s\n", std::string(known.name).c_str());
    }
    return 2;
  }
  return bench::run_scenario(*scenario,
                             bench::parse_args(*scenario, argc, argv));
}
