// MTLS — the mTLS datapath's cost on the e-library, and session
// resumption as the mitigation for a mesh-wide handshake storm.
//
// Six arms through the sweep harness (--threads runs them in parallel,
// bit-identically):
//
//   plaintext     mesh-wide mTLS off (the overhead baseline)
//   mtls-full     mTLS on, session resumption off
//   mtls-resume   mTLS on, resumption on (the recommended config)
//   mtls-ratings  per-service knob: mTLS on *only* for the ratings
//                 service — the reviews->ratings bottleneck hop pays
//                 crypto, every other hop stays plaintext
//   storm-full    mTLS on, resumption off, mass pod restart mid-window
//   storm-resume  same storm, resumption on — cached tickets turn the
//                 reconnect wave into cheap resumed handshakes
//
// Acceptance (exit 1 on violation): mTLS shows a nonzero steady-state
// p50/p99 overhead over plaintext; the storm arms' post-restart p99
// recovers faster with resumption than without; full and resumed
// handshake counters are nonzero where the arm implies them; and the
// per-hop arm performs fewer handshakes than the mesh-wide one.

#include <cstdio>
#include <vector>

#include "workload/bench_harness.h"
#include "workload/mtls_experiment.h"

using namespace meshnet;

namespace {

struct Arm {
  const char* name;
  bool mtls;
  bool resumption;
  bool storm;
  bool ratings_only;
};

constexpr Arm kArms[] = {
    {"plaintext", false, false, false, false},
    {"mtls-full", true, false, false, false},
    {"mtls-resume", true, true, false, false},
    {"mtls-ratings", false, true, false, true},
    {"storm-full", true, false, true, false},
    {"storm-resume", true, true, true, false},
};

}  // namespace

int main(int argc, char** argv) {
  const workload::HarnessOptions options = workload::parse_harness_flags(
      argc, argv, "mtls", /*default_duration_s=*/30, /*default_seed=*/42,
      {"ls-rps", "li-rps"});
  workload::ElibraryExperimentConfig base;
  base.ls_rps = options.flags.get_double_or("ls-rps", 30.0,
                                            util::NumberRange::kPositive);
  base.li_rps = options.flags.get_double_or("li-rps", 10.0,
                                            util::NumberRange::kPositive);
  base.duration = sim::seconds(options.duration_s);
  base.seed = options.seed;

  std::printf(
      "MTLS: plaintext vs mTLS e-library, %llds window, seed %llu\n"
      "(storm arms: every service pod restarts mid-window; resumption is "
      "the measured mitigation)\n\n",
      static_cast<long long>(options.duration_s),
      static_cast<unsigned long long>(base.seed));

  workload::SweepRunner runner(workload::sweep_options(options));
  for (const Arm& arm : kArms) {
    runner.add({{"arm", arm.name}}, [base, arm] {
      workload::MtlsArm point;
      point.mtls = arm.mtls;
      point.session_resumption = arm.resumption;
      point.storm = arm.storm;
      if (arm.ratings_only) point.mtls_overrides["ratings"] = true;
      return workload::elibrary_point_metrics(
          workload::run_elibrary_experiment(workload::mtls_config(base, point)),
          workload::mtls_report_series());
    });
  }
  const workload::SweepResult sweep = runner.run();

  const workload::PointMetrics& plaintext = sweep.points[0].metrics;
  const workload::PointMetrics& mtls_full = sweep.points[1].metrics;
  const workload::PointMetrics& mtls_resume = sweep.points[2].metrics;
  const workload::PointMetrics& mtls_ratings = sweep.points[3].metrics;
  const workload::PointMetrics& storm_full = sweep.points[4].metrics;
  const workload::PointMetrics& storm_resume = sweep.points[5].metrics;
  const auto ms = [](const workload::PointMetrics& m, const char* key) {
    return m.scalars.at(key);
  };
  const auto count = [](const workload::PointMetrics& m, const char* key) {
    return m.counters.at(key);
  };

  std::fputs(workload::format_mtls_comparison(plaintext, mtls_full,
                                              mtls_resume, storm_full,
                                              storm_resume)
                 .c_str(),
             stdout);
  std::printf(
      "per-hop arm (ratings only): p50 %.2f ms, %llu full handshakes "
      "(mesh-wide arm: %llu)\n",
      ms(mtls_ratings, "ls_p50_ms"),
      static_cast<unsigned long long>(
          count(mtls_ratings, "tls_handshakes_full")),
      static_cast<unsigned long long>(count(mtls_full, "tls_handshakes_full")));

  // The crypto cost lands where the bytes are: the bulk LI workload's
  // p50/p99 carry the per-record AEAD charge on every hop, and the LS
  // p50 carries the fixed per-request share.
  const bool overhead_ok =
      ms(mtls_resume, "ls_p50_ms") > ms(plaintext, "ls_p50_ms") &&
      ms(mtls_resume, "li_p50_ms") > ms(plaintext, "li_p50_ms") &&
      ms(mtls_resume, "li_p99_ms") > ms(plaintext, "li_p99_ms");
  const bool storm_ok =
      ms(storm_resume, "post_p99_ms") < ms(storm_full, "post_p99_ms") &&
      count(storm_resume, "tls_handshakes_resumed") > 0 &&
      count(storm_full, "tls_handshakes_full") > 0;
  const bool counters_ok = count(plaintext, "tls_handshakes_full") == 0 &&
                           count(mtls_full, "tls_handshakes_full") > 0 &&
                           count(mtls_full, "tls_handshakes_resumed") == 0 &&
                           count(mtls_resume, "tls_tickets_issued") > 0;
  const bool per_hop_ok =
      count(mtls_ratings, "tls_handshakes_full") > 0 &&
      count(mtls_ratings, "tls_handshakes_full") +
              count(mtls_ratings, "tls_handshakes_resumed") <
          count(mtls_full, "tls_handshakes_full") +
              count(mtls_full, "tls_handshakes_resumed");
  std::printf(
      "\nacceptance:\n"
      "  mTLS steady-state p50/p99 overhead nonzero          %s\n"
      "  resumption cuts post-storm p99 (%.2f < %.2f ms)     %s\n"
      "  handshake counters consistent per arm               %s\n"
      "  per-hop arm handshakes < mesh-wide arm              %s\n",
      overhead_ok ? "PASS" : "FAIL", ms(storm_resume, "post_p99_ms"),
      ms(storm_full, "post_p99_ms"), storm_ok ? "PASS" : "FAIL",
      counters_ok ? "PASS" : "FAIL", per_hop_ok ? "PASS" : "FAIL");

  const stats::BenchReport report = workload::make_bench_report(
      "mtls",
      {{"seed", std::to_string(base.seed)},
       {"duration_s", std::to_string(options.duration_s)},
       {"ls_rps", std::to_string(base.ls_rps)},
       {"li_rps", std::to_string(base.li_rps)}},
      sweep);
  const int harness_rc = workload::finish_harness(report, options);
  if (harness_rc != 0) return harness_rc;
  return (overhead_ok && storm_ok && counters_ok && per_hop_ok) ? 0 : 1;
}
