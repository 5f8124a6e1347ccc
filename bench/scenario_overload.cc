// OVERLOAD — priority-aware admission control past the compute knee.
//
// The paper's case study (§4.3) protects LS traffic at a *bandwidth*
// bottleneck; this scenario drives the complementary failure mode:
// offered load past the compute knee of the service tree. The e-library
// is tuned so the frontend's worker pool (not the ratings vNIC) is the
// bottleneck. LS load is fixed (--ls-rps, well under capacity: the
// protected workload is not the one causing the overload); LI analytics
// traffic fills the rest of load_factor x --capacity-rps, for load
// factors 0.5x..3x, each with the admission subsystem on and off. The
// claim under test: at 2x overload, admission keeps LS p99 within 25% of
// its uncontended (0.5x) value while >= 90% of the shedding falls on LI
// traffic.

#include <string>
#include <vector>

#include "scenario.h"
#include "stats/table.h"

namespace meshnet::bench {
namespace {

constexpr double kLoadFactors[] = {0.5, 1.0, 2.0, 3.0};

/// Report keys read from the `admission_*` series: sheds by class (every
/// shed is `queue-full`), admissions and queued arrivals.
const std::vector<workload::ReportSeries> kSeries = {
    {"ls_shed", "admission_shed_total", {{"class", "latency-sensitive"}}},
    {"li_shed", "admission_shed_total", {{"class", "scavenger"}}},
    {"default_shed", "admission_shed_total", {{"class", "default"}}},
    {"shed_queue_full", "admission_shed_total", {{"reason", "queue-full"}}},
    {"admission_accepted", "admission_accepted_total", {}},
    {"admission_queued", "admission_queued_total", {}},
};

workload::ElibraryExperimentConfig control(const Args& args) {
  workload::ElibraryExperimentConfig run;
  run.ls_rps = args.real("ls-rps");
  run.warmup = sim::seconds(3);
  run.duration = args.duration();
  run.cooldown = sim::seconds(2);
  run.seed = args.seed();

  app::ElibraryOptions& app = run.app;
  // Compute-bound tuning: payloads small enough that the 1 Gbps ratings
  // vNIC never saturates; the frontend's seven workers (each held for
  // the whole fan-out, ~63 ms per request) are the knee, near 110 rps.
  app.component_bytes = 2 * 1024;
  app.analytics_multiplier = 2;
  app.service_time = sim::milliseconds(20);
  app.app_max_concurrency = 7;

  mesh::MeshPolicies& policies = app.policies;
  // A short end-to-end deadline bounds the drain tail.
  policies.request_timeout = sim::seconds(2);
  policies.retry.max_retries = 1;

  mesh::AdmissionConfig& admission = policies.admission;
  admission.queue_capacity = 64;
  // One admission slot per app worker. Four of the seven are reserved:
  // an LS arrival waits only when four LS requests are already in flight
  // (~0.4% at 10 rps x 63 ms), while uncontended LI load (~2.3
  // concurrent) fits the other three.
  admission.concurrency_limit = 7;
  admission.reserve_slots = 4;

  // Classification at the gateway + provenance propagation are what give
  // the admission controllers a priority to act on; both arms run with
  // the cross-layer filters installed so the only difference between
  // them is the admission subsystem itself.
  run.cross_layer = true;
  // Drain: every in-flight request either completes or hits its armed
  // deadline within request_timeout of the last arrival.
  run.drain = policies.request_timeout + sim::seconds(5);
  run.sample_bottleneck = false;
  return run;
}

/// Arm "<load>x/<on|off>": LI fills load x capacity, admission on or off.
std::vector<Arm> arms(const Args& args) {
  const workload::ElibraryExperimentConfig base = control(args);
  std::vector<Arm> arms;
  for (const double factor : kLoadFactors) {
    const std::string load = stats::Table::num(factor, 1) + "x";
    for (const bool admission : {true, false}) {
      workload::ElibraryExperimentConfig config = base;
      const double total = factor * args.real("capacity-rps");
      config.li_rps = total > config.ls_rps ? total - config.ls_rps : 0.0;
      config.app.policies.admission.enabled = admission;
      const char* on = admission ? "on" : "off";
      arms.push_back(elibrary_arm(load + "/" + on,
                                  {{"load", load}, {"admission", on}},
                                  std::move(config), kSeries));
    }
  }
  return arms;
}

/// The acceptance comparison: 2x overload vs the uncontended 0.5x point,
/// both with admission on.
std::vector<Check> checks(const Args&, const Results& results) {
  const double uncontended = results.scalar("0.5x/on", "ls_p99_ms");
  const double overloaded = results.scalar("2.0x/on", "ls_p99_ms");
  const double p99_ratio = uncontended > 0 ? overloaded / uncontended : 0.0;
  const auto sheds = [&](const char* key) {
    return static_cast<unsigned long long>(results.count("2.0x/on", key));
  };
  const unsigned long long total =
      sheds("ls_shed") + sheds("li_shed") + sheds("default_shed");
  const double li_share =
      total > 0 ? static_cast<double>(sheds("li_shed")) / total : 1.0;
  return {check(p99_ratio <= 1.25,
                "at 2x, LS p99 %.1f ms vs %.1f ms uncontended: ratio %.2f "
                "(goal <= 1.25)",
                overloaded, uncontended, p99_ratio),
          check(li_share >= 0.9,
                "at 2x, sheds LS %llu / LI %llu / default %llu: %.1f%% on LI "
                "(goal >= 90%%)",
                sheds("ls_shed"), sheds("li_shed"), sheds("default_shed"),
                100.0 * li_share)};
}

}  // namespace

const Scenario kOverloadScenario = {
    .name = "overload",
    .title = "OVERLOAD: priority-aware admission on the compute-bound "
             "e-library, LS fixed,\nLI filling 0.5x..3x capacity, "
             "admission on/off.",
    .duration_s = 10,
    .seed = 42,
    .flags = {{"capacity-rps", FlagKind::kReal, 1, "90", "capacity_rps"},
              {"ls-rps", FlagKind::kReal, 1, "10", "ls_rps"}},
    .arms = arms,
    .tables = {{.columns = {{"LS rps", "ls_rps"},
                            {"LS err", "ls_errors"},
                            {"LS p50", "ls_p50_ms"},
                            {"LS p99", "ls_p99_ms"},
                            {"LI rps", "li_rps"},
                            {"LI err", "li_errors"},
                            {"LI p99", "li_p99_ms"},
                            {"timeouts", "timeouts"}}},
               {.title = "sheds by class, and retries the overload "
                         "marker suppressed:",
                .columns = {{"LS", "ls_shed"},
                            {"LI", "li_shed"},
                            {"default", "default_shed"},
                            {"queue-full", "shed_queue_full"},
                            {"retries suppressed",
                             "retries_suppressed_by_overload"}}}},
    .checks = checks,
};

}  // namespace meshnet::bench
