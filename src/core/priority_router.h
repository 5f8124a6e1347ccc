#pragma once

// Priority-aware replica routing (design component 3a / prototype step 3,
// paper §4.2-4.3): forward requests to a high- or low-priority replica
// subset ("front end forwards requests to either reviews replica 1 or 2
// depending on priority").
//
// The filter translates the request's traffic class into an endpoint
// subset constraint on the label "priority"; the sidecar's subset load
// balancing does the rest. Clusters without priority-labelled replicas
// fall back to the full endpoint set (the sidecar's subset fallback), so
// the filter is safe to install mesh-wide.

#include <string>
#include <string_view>
#include <vector>

#include "core/priority.h"
#include "mesh/filter.h"

namespace meshnet::core {

class PriorityRouterFilter final : public mesh::HttpFilter {
 public:
  /// `clusters`: which upstream clusters have priority-dedicated replicas.
  /// Empty = apply to every cluster (safe due to subset fallback).
  explicit PriorityRouterFilter(std::vector<std::string> clusters = {});

  std::string name() const override { return "priority-router"; }
  mesh::FilterStatus on_request(mesh::RequestContext& ctx) override;

  std::uint64_t routed_high() const noexcept { return high_; }
  std::uint64_t routed_low() const noexcept { return low_; }

 private:
  bool applies_to(std::string_view host) const;

  std::vector<std::string> clusters_;
  std::uint64_t high_ = 0;
  std::uint64_t low_ = 0;
};

}  // namespace meshnet::core
