#pragma once

// The MTLS experiment: the mTLS datapath's cost on the e-library, with a
// handshake-storm arm where session resumption is the measured
// mitigation.
//
// The LS/LI workload mix runs through the gateway with the mesh-wide
// mTLS default on or off (the external client always speaks plaintext;
// the gateway's permissive inbound listener sniffs it through). With
// mTLS on, every in-mesh hop pays the crypto cost model of
// mesh/tls_session.h: handshake RTTs + asymmetric CPU on connection
// establishment, per-record AEAD on every byte after. Steady-state arms
// measure the plaintext vs mTLS p50/p99 overhead and goodput at the
// reviews->ratings bottleneck; a per-hop arm turns mTLS on for a single
// service (the per-service override knob) to isolate one hop's share.
//
// The storm arm mass-restarts every service pod mid-window
// (ChaosController), severing all in-mesh connections at once: the
// reconnect wave forces handshakes mesh-wide. With resumption on, the
// clients' cached tickets (still valid — the pod restart does not rotate
// the service certificate) turn that wave into cheap resumed handshakes;
// with it off every reconnect pays the full asymmetric cost. The
// post-storm phase p99 difference between those two arms is session
// resumption's value.
//
// Determinism: the whole run is a function of the config (seed
// included); results are bit-identical across --threads values.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "app/elibrary.h"
#include "workload/elibrary_experiment.h"
#include "workload/generator.h"

namespace meshnet::workload {

struct MtlsExperimentConfig {
  double ls_rps = 30.0;
  double li_rps = 10.0;

  sim::Duration warmup = sim::seconds(4);
  sim::Duration duration = sim::seconds(30);  ///< measured window
  sim::Duration cooldown = sim::seconds(4);
  std::uint64_t seed = 42;
  ArrivalProcess arrival = ArrivalProcess::kUniformRandom;

  /// The arm switches: mesh-wide mTLS default, per-service exceptions
  /// (compiled into MeshPolicies::mtls_overrides; entries win over the
  /// default), and session-ticket resumption.
  bool mtls = true;
  std::map<std::string, bool> mtls_overrides;
  bool session_resumption = true;

  /// Handshake storm: every service pod crashes at `storm_offset`
  /// (relative to the start of the measured window) and restarts
  /// `storm_restart_delay` later. All in-mesh connections die; the
  /// reconnect wave is the measured event.
  bool storm = false;
  sim::Duration storm_offset = sim::seconds(15);
  sim::Duration storm_restart_delay = sim::milliseconds(200);

  /// End-to-end deadline at every sidecar (same rationale as CHAOS: a
  /// request stranded by the storm must fail at the deadline, not ride
  /// it out).
  sim::Duration request_timeout = sim::milliseconds(2500);

  app::ElibraryOptions app;
};

/// The run config for one arm: resilience + mTLS policies, the
/// gateway's per-try timeout budget, the storm fault plan and the LS
/// phases "pre" and "post" (split at the storm instant; meaningful for
/// storm arms, still deterministic without one).
ElibraryExperimentConfig elibrary_config(const MtlsExperimentConfig& config);

/// Report keys read from the mesh-wide `tls_*` series (`tls_handshakes_full`,
/// `tls_handshakes_resumed`, `tls_handshake_failures`, `tls_tickets_issued`,
/// `tls_resumptions_rejected`, `tls_session_cache_evictions`,
/// `tls_records_{encrypted,decrypted}`, `tls_bytes_{encrypted,decrypted}`,
/// `tls_alerts`) and `cert_rotations`.
const std::vector<ReportSeries>& mtls_report_series();

/// The acceptance table: steady-state plaintext vs mTLS latency/goodput
/// and the storm arms' post-restart recovery, full vs resumed. Reads the
/// arms' reports (elibrary_point_metrics with mtls_report_series()).
std::string format_mtls_comparison(const PointMetrics& plaintext,
                                   const PointMetrics& mtls_full,
                                   const PointMetrics& mtls_resume,
                                   const PointMetrics& storm_full,
                                   const PointMetrics& storm_resume);

}  // namespace meshnet::workload
