#pragma once

// Ingress classification (design component 1, paper §4.2): assign a
// performance objective to each request at the point it enters the mesh.
//
// Classification is rule-based: ordered path-prefix / host / header rules,
// first match wins. Installed on the ingress gateway's filter chain so
// every external request is classified exactly once; apps that already
// stamp x-mesh-priority themselves are respected (explicit app signalling,
// paper §3.3).

#include <optional>
#include <string>
#include <vector>

#include "core/priority.h"
#include "mesh/filter.h"
#include "obs/metric_registry.h"

namespace meshnet::core {

struct ClassificationRule {
  /// Empty matchers are wildcards; all non-empty matchers must match.
  std::string path_prefix;
  std::string host;
  std::string header_name;   ///< match when this header exists...
  std::string header_value;  ///< ...and (if non-empty) equals this value.
  mesh::TrafficClass assign = mesh::TrafficClass::kDefault;

  bool matches(const http::HttpRequest& request) const;
};

struct ClassifierConfig {
  std::vector<ClassificationRule> rules;
  mesh::TrafficClass default_class = mesh::TrafficClass::kLatencySensitive;
};

class IngressClassifierFilter final : public mesh::HttpFilter {
 public:
  /// With a registry, classification decisions also show up in the
  /// unified snapshot as ingress_classified_total{class=...}.
  explicit IngressClassifierFilter(ClassifierConfig config,
                                   obs::MetricRegistry* registry = nullptr);

  std::string name() const override { return "ingress-classifier"; }
  mesh::FilterStatus on_request(mesh::RequestContext& ctx) override;

  std::uint64_t classified_high() const noexcept { return high_; }
  std::uint64_t classified_low() const noexcept { return low_; }

 private:
  ClassifierConfig config_;
  std::uint64_t high_ = 0;
  std::uint64_t low_ = 0;
  obs::Counter* high_counter_ = nullptr;
  obs::Counter* low_counter_ = nullptr;
};

}  // namespace meshnet::core
