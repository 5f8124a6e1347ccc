#include "mesh/filter.h"

#include <algorithm>

namespace meshnet::mesh {

std::string_view traffic_class_name(TrafficClass c) noexcept {
  switch (c) {
    case TrafficClass::kDefault:
      return "default";
    case TrafficClass::kLatencySensitive:
      return "latency-sensitive";
    case TrafficClass::kScavenger:
      return "scavenger";
  }
  return "?";
}

bool TriedPods::contains(std::uint32_t pod) const noexcept {
  const auto first = inline_.begin();
  const auto last = first + static_cast<std::ptrdiff_t>(
                                std::min(size_, kInline));
  return std::find(first, last, pod) != last ||
         std::find(spilled_.begin(), spilled_.end(), pod) != spilled_.end();
}

void TriedPods::insert(std::uint32_t pod) {
  if (contains(pod)) return;
  if (size_ < kInline) {
    inline_[size_] = pod;
  } else {
    spilled_.push_back(pod);
  }
  ++size_;
}

void FilterChain::insert_before(std::string_view name,
                                std::shared_ptr<HttpFilter> filter) {
  for (auto it = filters_.begin(); it != filters_.end(); ++it) {
    if ((*it)->name() == name) {
      filters_.insert(it, std::move(filter));
      return;
    }
  }
  filters_.push_back(std::move(filter));
}

ChainResult FilterChain::run_request(RequestContext& ctx) const {
  for (const auto& filter : filters_) {
    switch (filter->on_request(ctx)) {
      case FilterStatus::kContinue:
        break;
      case FilterStatus::kStopIteration:
        return ChainResult::kStopped;
      case FilterStatus::kPause:
        return ChainResult::kPaused;
    }
  }
  return ChainResult::kContinue;
}

void FilterChain::run_response(RequestContext& ctx,
                               http::HttpResponse& response) const {
  for (auto it = filters_.rbegin(); it != filters_.rend(); ++it) {
    (*it)->on_response(ctx, response);
  }
}

std::vector<std::string> FilterChain::filter_names() const {
  std::vector<std::string> names;
  names.reserve(filters_.size());
  for (const auto& filter : filters_) names.push_back(filter->name());
  return names;
}

}  // namespace meshnet::mesh
