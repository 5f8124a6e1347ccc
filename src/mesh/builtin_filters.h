#pragma once

// Standard mesh filters that ship with every sidecar (the Istio-native
// functionality the case study builds on): distributed tracing, source
// service identity and request-id stamping.

#include <memory>
#include <string>

#include "mesh/filter.h"
#include "mesh/tracing.h"
#include "sim/simulator.h"

namespace meshnet::mesh {

/// Creates a span per proxied request and propagates B3 trace context.
/// Also assigns an x-request-id when one is missing (ingress behaviour).
class TracingFilter final : public HttpFilter {
 public:
  TracingFilter(Tracer& tracer, sim::Simulator& sim, std::string service);

  std::string name() const override { return "tracing"; }
  FilterStatus on_request(RequestContext& ctx) override;
  void on_response(RequestContext& ctx, http::HttpResponse& response) override;

 private:
  Tracer& tracer_;
  sim::Simulator& sim_;
  std::string service_;
  /// The service's span series (null until the first span finishes).
  obs::SpanExporter::ServiceCells* span_cells_ = nullptr;
};

/// Stamps the caller's service identity onto outbound requests — the
/// header stands in for the mTLS peer certificate identity.
class SourceIdentityFilter final : public HttpFilter {
 public:
  explicit SourceIdentityFilter(std::string service)
      : service_(std::move(service)) {}

  std::string name() const override { return "source-identity"; }
  FilterStatus on_request(RequestContext& ctx) override;

 private:
  std::string service_;
};

}  // namespace meshnet::mesh
