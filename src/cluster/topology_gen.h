#pragma once

// Parameterized mesh topology generation.
//
// ROADMAP item 1 frames the scale problem as "thousands of services";
// the bookinfo e-library is six. This generator builds layered fan-out
// DAGs — the canonical microservice call pattern: a thin edge layer
// fanning out through aggregation layers to wide leaf layers — with
// seeded, reproducible wiring (cluster::mesh_spec_from_topology turns
// one into a MeshSpec).

#include <cstdint>
#include <vector>

namespace meshnet::cluster {

/// Spec for a layered fan-out DAG. layer_widths[0] services are roots
/// (traffic sources); the last layer's services are leaves.
struct FanoutSpec {
  std::vector<int> layer_widths;  ///< services per layer, front = roots
  int fanout = 3;                 ///< children sampled per service
};

struct GenEdge {
  int from = 0;
  int to = 0;
};

struct GenService {
  int id = 0;
  int layer = 0;
  std::vector<int> out_edges;  ///< indices into GenTopology::edges
};

struct GenTopology {
  std::vector<GenService> services;
  std::vector<GenEdge> edges;

  int service_count() const noexcept {
    return static_cast<int>(services.size());
  }
};

/// Builds the DAG: every service in layer k picks `fanout` distinct
/// children in layer k+1 (all of them when the next layer is narrower
/// than the fanout), seeded so the same (spec, seed) always yields the
/// same wiring.
GenTopology generate_layered_fanout(const FanoutSpec& spec,
                                    std::uint64_t seed);

}  // namespace meshnet::cluster
