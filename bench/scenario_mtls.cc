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

#include "scenario.h"
#include "workload/mtls_experiment.h"

namespace meshnet::bench {
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

Outcome run_mtls(const Args& args, workload::SweepRunner& runner) {
  workload::ElibraryExperimentConfig base;
  base.ls_rps = args.real("ls-rps");
  base.li_rps = args.real("li-rps");
  base.duration = args.duration();
  base.seed = args.seed();

  std::printf(
      "MTLS: plaintext vs mTLS e-library, %llds window, seed %llu\n"
      "(storm arms: every service pod restarts mid-window; resumption is "
      "the measured mitigation)\n\n",
      static_cast<long long>(args.duration_s()),
      static_cast<unsigned long long>(base.seed));

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
  return {sweep,
          {check(overhead_ok, "mTLS steady-state p50/p99 overhead nonzero"),
           check(storm_ok, "resumption cuts post-storm p99 (%.2f < %.2f ms)",
                 ms(storm_resume, "post_p99_ms"),
                 ms(storm_full, "post_p99_ms")),
           check(counters_ok, "handshake counters consistent per arm"),
           check(per_hop_ok, "per-hop arm handshakes < mesh-wide arm")}};
}

}  // namespace meshnet::bench
