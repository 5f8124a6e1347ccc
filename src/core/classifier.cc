#include "core/classifier.h"

#include "util/strings.h"

namespace meshnet::core {

bool ClassificationRule::matches(const http::HttpRequest& request) const {
  if (!path_prefix.empty() && !util::starts_with(request.path, path_prefix)) {
    return false;
  }
  if (!host.empty() &&
      request.headers.get_or(http::headers::Id::kHost, "") != host) {
    return false;
  }
  if (!header_name.empty()) {
    const auto value = request.headers.get(header_name);
    if (!value) return false;
    if (!header_value.empty() && *value != header_value) return false;
  }
  return true;
}

IngressClassifierFilter::IngressClassifierFilter(
    ClassifierConfig config, obs::MetricRegistry* registry)
    : config_(std::move(config)) {
  if (registry != nullptr) {
    high_counter_ = &registry->counter("ingress_classified_total",
                                       {{"class", "high"}});
    low_counter_ = &registry->counter("ingress_classified_total",
                                      {{"class", "low"}});
  }
}

mesh::FilterStatus IngressClassifierFilter::on_request(
    mesh::RequestContext& ctx) {
  // A pre-existing x-mesh-priority header is trusted over the rules.
  std::optional<mesh::TrafficClass> assigned = request_priority(ctx.request);
  if (!assigned) {
    for (const ClassificationRule& rule : config_.rules) {
      if (rule.matches(ctx.request)) {
        assigned = rule.assign;
        break;
      }
    }
  }
  if (!assigned) assigned = config_.default_class;
  ctx.traffic_class = *assigned;
  set_request_priority(ctx.request, *assigned);
  if (*assigned == mesh::TrafficClass::kLatencySensitive) {
    ++high_;
    if (high_counter_) high_counter_->inc();
  } else if (*assigned == mesh::TrafficClass::kScavenger) {
    ++low_;
    if (low_counter_) low_counter_->inc();
  }
  return mesh::FilterStatus::kContinue;
}

}  // namespace meshnet::core
