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

#include <map>
#include <string>
#include <vector>

#include "workload/elibrary_experiment.h"

namespace meshnet::workload {

/// What the MTLS arms vary: the mesh-wide mTLS default, per-service
/// exceptions (compiled into MeshPolicies::mtls_overrides; entries win
/// over the default), session-ticket resumption, and the handshake
/// storm — every service pod crashes halfway through the measured
/// window and restarts shortly after. All in-mesh connections die; the
/// reconnect wave is the measured event.
struct MtlsArm {
  bool mtls = true;
  std::map<std::string, bool> mtls_overrides;
  bool session_resumption = true;
  bool storm = false;
};

/// `run` (rates, windows, seed and app as the caller set them) completed
/// for one arm: resilience + mTLS policies, the storm fault plan, the LS
/// phases "pre" and "post" (split at the storm instant, half the measured
/// window; meaningful for storm arms, still deterministic without one)
/// and the drain.
ElibraryExperimentConfig mtls_config(ElibraryExperimentConfig run,
                                     const MtlsArm& arm);

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
