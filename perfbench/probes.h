#pragma once

// Layer probes for the repository benchmark: warmed loops that call one
// layer's public entry point with a workload's shape and report host ns
// and global operator-new calls per operation. perfbench/ledger.py turns
// them, with the run's per-layer counts, into each layer's share of run_s.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mesh/control_plane.h"

namespace meshbench {

/// One probe's result. `per_op` holds extra per-operation counts the
/// ledger needs for self-cost subtraction (events per packet, packets per
/// segment, ...).
struct ProbeResult {
  double ns = 0.0;      ///< median over timed rounds, host ns per op
  double allocs = 0.0;  ///< operator-new calls per op, all timed rounds
  std::map<std::string, double> per_op;
};

/// What a workload's traffic looks like to the layers below the mesh.
struct ProbeShape {
  std::uint32_t mss = 1460;
  std::size_t small_body = 256;     ///< typical response body
  std::size_t large_body = 4096;    ///< largest response body the run moves
  /// Headers of an in-mesh request as the sidecars forward it.
  std::vector<std::pair<std::string, std::string>> request_headers;
  std::string edge_source;    ///< one telemetry edge of the workload
  std::string edge_upstream;
  meshnet::mesh::MeshPolicies policies;  ///< the workload's mesh policy
};

/// Simulator::schedule_after + fire, with a net::Packet-sized capture.
ProbeResult probe_sim();

/// Link::send -> sink, MSS-sized packets through a FIFO qdisc.
ProbeResult probe_net(const ProbeShape& shape);

/// One `message_bytes` message over a TransportHost pair, per data
/// segment.
ProbeResult probe_transport(const ProbeShape& shape,
                            std::size_t message_bytes);

/// HttpParser::feed of the workload's request head (small), and of a
/// response with a `body_bytes` body fed in MSS chunks; serialize_request
/// of the request.
ProbeResult probe_http_parse_small(const ProbeShape& shape);
ProbeResult probe_http_parse_response(const ProbeShape& shape,
                                      std::size_t body_bytes);
ProbeResult probe_http_serialize(const ProbeShape& shape);

/// One request hop through a gateway -> a -> b MeshBuilder mesh built with
/// the workload's policies, per telemetry-recorded request.
ProbeResult probe_mesh(const ProbeShape& shape);

/// ControlPlane::push_config() on the inline channel after one registry
/// change (crash + deregister, then restore), per sidecar compiled. Runs
/// against an existing mesh whose run is over.
ProbeResult probe_cp(meshnet::mesh::ControlPlane& cp,
                     const std::string& victim_pod);

/// TelemetrySink::record_request on the workload's edge.
ProbeResult probe_obs(const ProbeShape& shape);

}  // namespace meshbench
