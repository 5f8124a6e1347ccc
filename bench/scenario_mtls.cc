// MTLS — the mTLS datapath's cost on the e-library, and session
// resumption as the mitigation for a mesh-wide handshake storm.
//
// The LS/LI workload mix runs through the gateway with the mesh-wide mTLS
// default on or off (the external client always speaks plaintext; the
// gateway's permissive inbound listener sniffs it through). With mTLS on,
// every in-mesh hop pays the crypto cost model of mesh/tls_session.h:
// handshake RTTs + asymmetric CPU on connection establishment,
// per-record AEAD on every byte after. Six arms:
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
// The storm restarts every service pod at once halfway through the
// measured window, severing all in-mesh connections; the LS phases "pre"
// and "post" split there (every arm reports them). With resumption on,
// the clients' cached tickets (still valid — the pod restart does not
// rotate the service certificate) make the reconnect wave cheap.
//
// Acceptance (exit 1 on violation): mTLS shows a nonzero steady-state
// p50/p99 overhead over plaintext; the storm arms' post-restart p99
// recovers faster with resumption than without; full and resumed
// handshake counters are nonzero where the arm implies them; and the
// per-hop arm performs fewer handshakes than the mesh-wide one.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "scenario.h"

namespace meshnet::bench {
namespace {

/// How long the storm keeps every pod down.
constexpr sim::Duration kStormRestartDelay = sim::milliseconds(200);

/// LS arrivals the post-storm window must hold. With fewer, the
/// nearest-rank p99 is the window's maximum, and the resumption check
/// would compare two single outliers.
constexpr double kMinPostStormRequests = 100;

/// Report keys read from the mesh-wide `tls_*` series, and the
/// certificate rotations.
const std::vector<workload::ReportSeries> kSeries = {
    {"tls_handshakes_full", "tls_handshakes_full_total", {}},
    {"tls_handshakes_resumed", "tls_handshakes_resumed_total", {}},
    {"tls_handshake_failures", "tls_handshake_failures_total", {}},
    {"tls_tickets_issued", "tls_tickets_issued_total", {}},
    {"tls_resumptions_rejected", "tls_resumptions_rejected_total", {}},
    {"tls_session_cache_evictions", "tls_session_cache_evictions_total", {}},
    {"tls_records_encrypted", "tls_records_encrypted_total", {}},
    {"tls_records_decrypted", "tls_records_decrypted_total", {}},
    {"tls_bytes_encrypted", "tls_bytes_encrypted_total", {}},
    {"tls_bytes_decrypted", "tls_bytes_decrypted_total", {}},
    {"tls_alerts", "tls_alerts_total", {}},
    {"cert_rotations", "cp_cert_rotations_total", {}},
};

std::vector<Arm> arms(const Args& args) {
  workload::ElibraryExperimentConfig control = fault_control(args);
  // Data-plane resilience, same stance as the chaos experiments: the
  // storm's reconnect wave is absorbed by health checking, breakers and
  // retries — identically across arms, so the measured deltas are pure
  // crypto cost.
  workload::apply_resilience_policies(control.app.policies);
  control.extra_epoch_before_run = true;
  const double ls_rps = args.real("ls-rps");
  const double post_requests =
      ls_rps * sim::to_seconds(control.duration - control.duration / 2);
  if (post_requests < kMinPostStormRequests) {
    char message[256];
    std::snprintf(message, sizeof message,
                  "the post-storm window holds %.0f LS requests at "
                  "--ls-rps=%g --duration=%lld; its p99 needs at least %.0f "
                  "(--duration >= %.0f at this rate)",
                  post_requests, ls_rps,
                  static_cast<long long>(args.duration_s()),
                  kMinPostStormRequests,
                  std::ceil(2 * kMinPostStormRequests / ls_rps));
    throw std::invalid_argument(message);
  }
  const sim::Time storm_at = control.warmup + control.duration / 2;
  control.phases = {{"pre", control.warmup}, {"post", storm_at}};

  std::vector<Arm> arms;
  const auto add = [&](const char* name, bool mtls, bool resumption,
                       bool storm, bool ratings_only = false) {
    workload::ElibraryExperimentConfig config = control;
    config.app.policies.tls.enabled = mtls;
    config.app.policies.tls.session_resumption = resumption;
    if (ratings_only) config.app.policies.mtls_overrides["ratings"] = true;
    if (storm) {
      // Every service pod bounces at once: all in-mesh connections (and
      // their TLS sessions) die, and the entire mesh re-handshakes when
      // the pods return. Sidecar objects — and with them the clients'
      // ticket caches and the services' certificates — survive the
      // restart, which is exactly what makes resumption applicable.
      for (const char* pod : {"frontend-v1", "details-v1", "reviews-v1",
                              "reviews-v2", "ratings-v1"}) {
        config.faults.crash(storm_at, pod);
        config.faults.restart(storm_at + kStormRestartDelay, pod);
        // A process restart loses TCP state: abort the pod's connections
        // so peers see RSTs and must reconnect (and re-handshake). The
        // restart entry is added first at the same timestamp, so the
        // links are back up when the RSTs go out.
        config.faults.reset_connections(storm_at + kStormRestartDelay, pod);
      }
    }
    arms.push_back(elibrary_arm(name, {{"arm", name}}, std::move(config),
                                kSeries));
  };
  add("plaintext", false, false, false);
  add("mtls-full", true, false, false);
  add("mtls-resume", true, true, false);
  add("mtls-ratings", false, true, false, /*ratings_only=*/true);
  add("storm-full", true, false, true);
  add("storm-resume", true, true, true);
  return arms;
}

std::vector<Check> checks(const Args&, const Results& results) {
  const auto ms = [&](const char* arm, const char* key) {
    return results.scalar(arm, key);
  };
  const auto count = [&](const char* arm, const char* key) {
    return static_cast<unsigned long long>(results.count(arm, key));
  };
  const auto handshakes = [&](const char* arm) {
    return count(arm, "tls_handshakes_full") +
           count(arm, "tls_handshakes_resumed");
  };
  // The crypto cost lands where the bytes are: the bulk LI workload's
  // p50/p99 carry the per-record AEAD charge on every hop, and the LS
  // p50 carries the fixed per-request share.
  const auto overhead = [&](const char* key) {
    return ms("mtls-resume", key) - ms("plaintext", key);
  };
  const bool overhead_ok = overhead("ls_p50_ms") > 0 &&
                           overhead("li_p50_ms") > 0 &&
                           overhead("li_p99_ms") > 0;
  const bool storm_ok =
      ms("storm-resume", "post_p99_ms") < ms("storm-full", "post_p99_ms") &&
      count("storm-resume", "tls_handshakes_resumed") > 0 &&
      count("storm-full", "tls_handshakes_full") > 0;
  const bool counters_ok =
      count("plaintext", "tls_handshakes_full") == 0 &&
      count("mtls-full", "tls_handshakes_full") > 0 &&
      count("mtls-full", "tls_handshakes_resumed") == 0 &&
      count("mtls-resume", "tls_tickets_issued") > 0;
  const bool per_hop_ok = count("mtls-ratings", "tls_handshakes_full") > 0 &&
                          handshakes("mtls-ratings") < handshakes("mtls-full");
  return {
      check(overhead_ok,
            "mTLS steady-state p50/p99 overhead nonzero: LS p50 +%.2f ms, "
            "LI p50 +%.2f ms, LI p99 +%.2f ms",
            overhead("ls_p50_ms"), overhead("li_p50_ms"),
            overhead("li_p99_ms")),
      check(storm_ok,
            "resumption cuts post-storm p99 by %.2f ms (%.2f < %.2f ms)",
            ms("storm-full", "post_p99_ms") - ms("storm-resume", "post_p99_ms"),
            ms("storm-resume", "post_p99_ms"), ms("storm-full", "post_p99_ms")),
      check(counters_ok, "handshake counters consistent per arm"),
      check(per_hop_ok, "per-hop arm handshakes %llu < mesh-wide arm %llu",
            handshakes("mtls-ratings"), handshakes("mtls-full"))};
}

}  // namespace

const Scenario kMtlsScenario = {
    .name = "mtls",
    .title = "MTLS: plaintext vs mTLS e-library (storm arms: every service "
             "pod restarts mid-window;\nresumption is the measured "
             "mitigation).",
    .duration_s = 30,
    .seed = 42,
    .flags = {{"ls-rps", FlagKind::kReal, 1, "30", "ls_rps"},
              {"li-rps", FlagKind::kReal, 1, "10", "li_rps"}},
    .arms = arms,
    .tables = {{.columns = {{"ls_p50", "ls_p50_ms", 2},
                            {"ls_p99", "ls_p99_ms", 2},
                            {"li_p50", "li_p50_ms", 2},
                            {"li_p99", "li_p99_ms", 2},
                            {"li_rps", "li_rps"},
                            {"bneck", "bottleneck_utilization", 3},
                            {"pre_p99", "pre_p99_ms", 2},
                            {"post_p99", "post_p99_ms", 2},
                            {"post_good", "post_goodput_rps"},
                            {"post_succ %", "post_success_rate", 2, 100},
                            {"full hs", "tls_handshakes_full"},
                            {"resumed hs", "tls_handshakes_resumed"}}}},
    .checks = checks,
};

}  // namespace meshnet::bench
