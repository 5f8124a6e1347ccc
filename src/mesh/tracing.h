#pragma once

// Distributed tracing (paper §3.2 "better visibility").
//
// Sidecars create a span per request hop and propagate trace context via
// B3-style headers. The app runtime copies x-request-id and the b3 headers
// onto the sub-requests it spawns — exactly the cooperation Istio's
// bookinfo app performs — which is also what lets the provenance filter
// (core/) tie sub-requests back to the inbound request that caused them.
//
// The Tracer is a thin adapter over obs::SpanExporter: it owns id
// allocation and the start/finish API the filters use, while the exporter
// owns retention and the per-service span series in the unified metric
// registry.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "http/header_map.h"
#include "obs/span_exporter.h"
#include "sim/time.h"

namespace meshnet::mesh {

/// A span is exactly the exporter's record type; filters fill it in and
/// the exporter publishes it.
using Span = obs::SpanRecord;

/// Span context carried in HTTP headers. On the wire an id is
/// "trace-%016llx" or "span-%016llx" (the tracer's own format); in memory
/// it is the integer, 0 meaning none.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  bool valid() const noexcept { return trace_id != 0; }

  /// Reads the B3 trace and span ids. An id that is missing or not in the
  /// tracer's format reads as 0, so a foreign trace id starts a new trace.
  static TraceContext extract(const http::HeaderMap& headers) noexcept;
  /// Writes the B3 ids; the parent span id only when non-zero.
  void inject(http::HeaderMap& headers, std::uint64_t parent_span_id) const;
};

/// The wire form of a trace id ("trace-" and 16 hex digits), for
/// printing.
std::string format_trace_id(std::uint64_t id);

/// Allocates span ids and feeds finished spans to the exporter. One
/// tracer is shared mesh-wide (it stands in for the Jaeger/Zipkin backend
/// the control plane would export to).
class Tracer {
 public:
  /// Spans feed per-service series in `registry` when non-null.
  explicit Tracer(obs::MetricRegistry* registry = nullptr)
      : exporter_(registry) {}

  /// Starts a span; `parent` may be invalid (root span), in which case a
  /// fresh trace id is allocated.
  Span start_span(std::string_view service, std::string operation,
                  const TraceContext& parent, sim::Time now);

  /// Ends `span` at `now` and exports it into `cells`, its service's
  /// series (SpanExporter::cells_for; looked up by name when null).
  void finish_span(Span span, sim::Time now,
                   obs::SpanExporter::ServiceCells* cells = nullptr);

  /// Retained finished spans (bounded by the retention limit).
  const std::vector<Span>& spans() const noexcept {
    return exporter_.spans();
  }
  std::size_t span_count() const noexcept { return exporter_.span_count(); }

  /// All spans belonging to one trace, in start order.
  std::vector<const Span*> trace(std::uint64_t trace_id) const;

  /// Keep only the most recent `limit` spans (memory bound for long
  /// runs); 0 disables retention (benches) — span *metrics* still flow to
  /// the registry, only storage is skipped.
  void set_retention(std::size_t limit) noexcept {
    exporter_.set_retention(limit);
  }
  /// False at retention 0, when no finished span is kept to be read.
  bool retains_spans() const noexcept { return exporter_.retains(); }

  obs::SpanExporter& exporter() noexcept { return exporter_; }

 private:
  std::uint64_t counter_ = 0;  ///< the last id drawn (traces and spans)
  obs::SpanExporter exporter_;
};

}  // namespace meshnet::mesh
