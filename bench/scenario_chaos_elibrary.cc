// CHAOS — the resilience claim under fault injection.
//
// Runs the LS/LI e-library workload twice while a FaultPlan crashes the
// reviews-v1 replica for --fault-duration-s and flaps the ratings
// bottleneck vNIC through the same window:
//   resilient  active health checking, circuit breakers, per-try timeouts
//              and retries;
//   baseline   all of that off, the mesh as a dumb pipe.
// LS goodput, success rate, p50 and p99 are reported for the before /
// during / after phases of both arms, so the resilience machinery's value
// shows up as "the during row barely moves" in one arm and a goodput
// collapse in the other. The whole run is a function of the flags (seed
// included): same seed, identical fault log and mesh event log.
//
// Acceptance (exit 1 on violation): the resilient arm keeps >= 99% LS
// success during the fault, and the baseline arm's falls more than 5
// points below it.

#include <vector>

#include "scenario.h"

namespace meshnet::bench {
namespace {

/// The fault window starts this long into the measured window.
constexpr sim::Duration kFaultOffset = sim::seconds(6);

/// Killed for the fault window (crash at start, restart at end; the
/// registry is never told — detection is active health checking's job).
constexpr const char* kCrashTarget = "reviews-v1";

/// The bottleneck (ratings vNIC), down kFlapDowntime out of every
/// kFlapPeriod during the fault window.
constexpr const char* kFlapTarget = "ratings-v1";
constexpr sim::Duration kFlapPeriod = sim::seconds(2);
constexpr sim::Duration kFlapDowntime = sim::milliseconds(40);

/// Report keys read from `mesh_events_total`: breaker state transitions,
/// executed faults and every mesh event.
const std::vector<workload::ReportSeries> kSeries = {
    {"breaker_events", "mesh_events_total", {{"kind", "breaker"}}},
    {"fault_log_entries", "mesh_events_total", {{"kind", "fault"}}},
    {"mesh_events", "mesh_events_total", {}},
};

std::vector<Arm> arms(const Args& args) {
  workload::ElibraryExperimentConfig control = fault_control(args);
  const sim::Time measure_start = control.warmup;
  const sim::Time fault_start = measure_start + kFaultOffset;
  const sim::Time fault_end =
      fault_start + sim::seconds(args.count("fault-duration-s"));
  control.faults.crash(fault_start, kCrashTarget);
  control.faults.restart(fault_end, kCrashTarget);
  control.faults.flap(fault_start + kFlapPeriod / 2, fault_end, kFlapTarget,
                      kFlapPeriod, kFlapDowntime);
  control.phases = {{"before", measure_start},
                    {"during", fault_start},
                    {"after", fault_end}};
  control.sample_bottleneck = false;

  workload::ElibraryExperimentConfig resilient = control;
  workload::apply_resilience_policies(resilient.app.policies);
  workload::ElibraryExperimentConfig baseline = control;
  mesh::MeshPolicies& dumb_pipe = baseline.app.policies;
  dumb_pipe.retry.max_retries = 0;
  dumb_pipe.retry.per_try_timeout = 0;
  dumb_pipe.breaker.consecutive_failures = 0;  // disabled
  dumb_pipe.health_check.enabled = false;
  return {elibrary_arm("resilient", {{"resilience", "on"}},
                       std::move(resilient), kSeries, /*log_faults=*/true),
          elibrary_arm("baseline", {{"resilience", "off"}},
                       std::move(baseline), kSeries)};
}

std::vector<Check> checks(const Args&, const Results& results) {
  const double resilient = results.scalar("resilient", "during_success_rate");
  const double baseline = results.scalar("baseline", "during_success_rate");
  return {check(resilient >= 0.99,
                "resilient arm keeps %.2f%% LS success during the fault "
                "(goal >= 99%%)",
                100.0 * resilient),
          check(baseline < resilient - 0.05,
                "baseline arm's %.2f%% is more than 5 points below it",
                100.0 * baseline)};
}

}  // namespace

const Scenario kChaosElibraryScenario = {
    .name = "chaos_elibrary",
    .title = "CHAOS: crash reviews-v1 + flap ratings-v1 during the fault "
             "window,\nresilient mesh vs dumb pipe.",
    .duration_s = 24,
    .seed = 42,
    .flags = {{"ls-rps", FlagKind::kReal, 1, "30", "ls_rps"},
              {"li-rps", FlagKind::kReal, 1, "10", "li_rps"},
              {"fault-duration-s", FlagKind::kInt, 1, "10",
               "fault_duration_s"}},
    .arms = arms,
    .tables = {{.title = "LS workload by phase (fault window = 'during'):",
                .columns = {{"goodput", "goodput_rps"},
                            {"success %", "success_rate", 2, 100},
                            {"p50 (ms)", "p50_ms"},
                            {"p99 (ms)", "p99_ms"}},
                .phases = {"before", "during", "after"}},
               {.columns = {{"evictions", "health_evictions"},
                            {"readmissions", "health_readmissions"},
                            {"breaker events", "breaker_events"},
                            {"retries", "upstream_retries"}}}},
    .checks = checks,
};

}  // namespace meshnet::bench
