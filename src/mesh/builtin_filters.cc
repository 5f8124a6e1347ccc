#include "mesh/builtin_filters.h"

namespace meshnet::mesh {

TracingFilter::TracingFilter(Tracer& tracer, sim::Simulator& sim,
                             std::string service)
    : tracer_(tracer), sim_(sim), service_(std::move(service)) {}

FilterStatus TracingFilter::on_request(RequestContext& ctx) {
  http::HttpRequest& request = ctx.request;
  if (request.request_id().empty()) {
    request.set_request_id(http::generate_request_id());
  }
  // Only a retained span is ever read back, so only it is named.
  std::string operation;
  if (tracer_.retains_spans()) {
    const std::string_view direction =
        ctx.direction == FilterDirection::kInbound ? "in " : "out ";
    operation.reserve(direction.size() + request.method.size() + 1 +
                      request.path.size());
    operation.append(direction)
        .append(request.method)
        .append(" ")
        .append(request.path);
  }
  ctx.span = tracer_.start_span(service_, std::move(operation),
                                TraceContext::extract(request.headers),
                                sim_.now());
  ctx.span_active = true;
  TraceContext child;
  child.trace_id = ctx.span.trace_id;
  child.span_id = ctx.span.span_id;
  child.inject(request.headers, ctx.span.parent_span_id);
  return FilterStatus::kContinue;
}

void TracingFilter::on_response(RequestContext& ctx,
                                http::HttpResponse& response) {
  if (!ctx.span_active) return;
  ctx.span.error = response.status >= 500;
  // Resolved at this filter's first finished span, when the exporter
  // would first intern the series anyway.
  if (span_cells_ == nullptr) {
    span_cells_ = tracer_.exporter().cells_for(service_);
  }
  tracer_.finish_span(std::move(ctx.span), sim_.now(), span_cells_);
  ctx.span_active = false;
}

FilterStatus SourceIdentityFilter::on_request(RequestContext& ctx) {
  if (ctx.direction == FilterDirection::kOutbound) {
    ctx.request.headers.set(http::headers::Id::kMeshSource, service_);
  }
  return FilterStatus::kContinue;
}

}  // namespace meshnet::mesh
