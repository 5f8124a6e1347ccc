#include "core/priority_router.h"

#include <algorithm>

#include "http/header_map.h"

namespace meshnet::core {

PriorityRouterFilter::PriorityRouterFilter(std::vector<std::string> clusters)
    : clusters_(std::move(clusters)) {}

bool PriorityRouterFilter::applies_to(std::string_view host) const {
  if (clusters_.empty()) return true;
  return std::find(clusters_.begin(), clusters_.end(), host) !=
         clusters_.end();
}

mesh::FilterStatus PriorityRouterFilter::on_request(
    mesh::RequestContext& ctx) {
  if (ctx.direction != mesh::FilterDirection::kOutbound) {
    return mesh::FilterStatus::kContinue;
  }
  // The Host header names the upstream cluster.
  if (!applies_to(ctx.request.headers.get_or(http::headers::Id::kHost, ""))) {
    return mesh::FilterStatus::kContinue;
  }

  switch (ctx.traffic_class) {
    case mesh::TrafficClass::kLatencySensitive:
      ctx.subset["priority"] = std::string(kPriorityHigh);
      ++high_;
      break;
    case mesh::TrafficClass::kScavenger:
      ctx.subset["priority"] = std::string(kPriorityLow);
      ++low_;
      break;
    case mesh::TrafficClass::kDefault:
      break;  // unclassified traffic is not constrained
  }
  return mesh::FilterStatus::kContinue;
}

}  // namespace meshnet::core
