#include "cluster/topology_gen.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "sim/random.h"
#include "sim/time.h"

namespace meshnet::cluster {

GenTopology generate_layered_fanout(const FanoutSpec& spec,
                                    std::uint64_t seed) {
  if (spec.layer_widths.empty()) {
    throw std::invalid_argument("generate_layered_fanout: no layers");
  }
  for (int width : spec.layer_widths) {
    if (width < 1) {
      throw std::invalid_argument("generate_layered_fanout: empty layer");
    }
  }
  if (spec.fanout < 1) {
    throw std::invalid_argument("generate_layered_fanout: fanout < 1");
  }

  GenTopology topology;
  // Wiring comes from a single stream keyed only by the run seed, so the
  // generated graph is a pure function of (spec, seed).
  sim::RngStream rng(seed, "topo-gen");

  std::vector<int> layer_start;  // first service id of each layer
  int next_id = 0;
  for (std::size_t layer = 0; layer < spec.layer_widths.size(); ++layer) {
    layer_start.push_back(next_id);
    for (int i = 0; i < spec.layer_widths[layer]; ++i) {
      GenService service;
      service.id = next_id++;
      service.layer = static_cast<int>(layer);
      topology.services.push_back(std::move(service));
    }
  }

  std::vector<int> candidates;
  for (std::size_t layer = 0; layer + 1 < spec.layer_widths.size(); ++layer) {
    const int child_base = layer_start[layer + 1];
    const int child_count = spec.layer_widths[layer + 1];
    const int picks = std::min(spec.fanout, child_count);
    for (int i = 0; i < spec.layer_widths[layer]; ++i) {
      const int parent = layer_start[layer] + i;
      candidates.resize(static_cast<std::size_t>(child_count));
      std::iota(candidates.begin(), candidates.end(), child_base);
      // Partial Fisher-Yates: the first `picks` entries become a uniform
      // distinct sample, consuming a deterministic number of draws.
      for (int k = 0; k < picks; ++k) {
        const auto j = static_cast<int>(rng.uniform_int(
            static_cast<std::uint64_t>(k),
            static_cast<std::uint64_t>(child_count - 1)));
        std::swap(candidates[static_cast<std::size_t>(k)],
                  candidates[static_cast<std::size_t>(j)]);
      }
      // Sorted children: the call order a service fans out in is part of
      // the topology, not an artifact of the sampling walk.
      std::sort(candidates.begin(), candidates.begin() + picks);
      for (int k = 0; k < picks; ++k) {
        GenEdge edge;
        edge.from = parent;
        edge.to = candidates[static_cast<std::size_t>(k)];
        // Unused latency draw, kept so every wiring stays seed-stable.
        rng.uniform_int(static_cast<std::uint64_t>(sim::milliseconds(1)),
                        static_cast<std::uint64_t>(sim::milliseconds(2)));
        topology.services[static_cast<std::size_t>(parent)].out_edges.push_back(
            static_cast<int>(topology.edges.size()));
        topology.edges.push_back(edge);
      }
    }
  }
  return topology;
}

}  // namespace meshnet::cluster
