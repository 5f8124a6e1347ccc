// meshsim — runs one of the paper's experiments by name:
//
//   meshsim --scenario=NAME [harness flags] [scenario flags]
//
// The harness flags are those of workload/bench_harness.h (--threads,
// --json-out[=PATH], --duration, --seed); each scenario (its Scenario
// value in bench/scenario_<name>.cc) adds its own. A missing or unknown
// scenario, an unknown flag (one of another scenario included), a bad
// value and flags that put an e-library phase outside the measured window
// exit 2 before anything runs. The report is written before the
// acceptance checks apply, so a failed check still leaves its report;
// tools/bench_check compares it with a baseline. Exit 1: a failed
// check.

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
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
  try {
    return bench::run_scenario(*scenario,
                               bench::parse_args(*scenario, argc, argv));
  } catch (const std::invalid_argument& error) {
    // An experiment the flags describe but that cannot be measured (an
    // e-library phase outside the measured window).
    std::fprintf(stderr, "meshsim: %s\n", error.what());
    return 2;
  }
}
