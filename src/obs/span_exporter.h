#pragma once

// The span half of the observability layer. mesh::Tracer is a thin
// adapter over this pipeline: every finished span flows through
// export_span(), which (1) folds the span into per-service registry
// series — spans_total / span_errors_total / span_duration_ns, all
// labeled {service} — and (2) retains it for inspection, bounded by the
// retention limit.
//
// Metrics are recorded even at retention 0 (the bench setting): that is
// what puts span statistics into the unified snapshot without paying for
// span storage on long runs.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metric_registry.h"
#include "sim/time.h"

namespace meshnet::obs {

/// One finished span. mesh::Span is an alias of this type, so tracing
/// call sites and filters use it directly. Ids are integers drawn from the
/// tracer's counter, 0 meaning none; they are formatted only where they
/// leave the process (B3 headers, printed traces).
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  ///< 0 for a root span
  std::string service;
  std::string operation;
  sim::Time start = 0;
  sim::Time end = 0;
  bool error = false;

  sim::Duration duration() const noexcept { return end - start; }
};

class SpanExporter {
 public:
  /// When `registry` is non-null, every exported span updates the
  /// per-service series there.
  explicit SpanExporter(MetricRegistry* registry = nullptr);
  SpanExporter(const SpanExporter&) = delete;
  SpanExporter& operator=(const SpanExporter&) = delete;

  /// One service's span series.
  struct ServiceCells {
    Counter* total = nullptr;
    Counter* errors = nullptr;
    Histogram* duration = nullptr;
  };

  /// `service`'s series, interned on the first call (null without a
  /// registry). A caller that exports many spans of one service resolves
  /// them once and passes them to export_span.
  ServiceCells* cells_for(std::string_view service);

  /// Exports `span` into `cells` (its service's series from cells_for);
  /// when null, they are looked up by `span.service`.
  void export_span(SpanRecord span, ServiceCells* cells = nullptr);

  /// Keep only the most recent `limit` spans (memory bound for long
  /// runs); 0 disables retention entirely — metrics still see every
  /// span.
  void set_retention(std::size_t limit) noexcept { retention_ = limit; }
  /// False at retention 0: no span is kept, so none is ever read back.
  bool retains() const noexcept { return retention_ != 0; }

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  std::size_t span_count() const noexcept { return spans_.size(); }
  std::uint64_t exported_total() const noexcept { return exported_total_; }

 private:

  MetricRegistry* registry_ = nullptr;
  std::map<std::string, ServiceCells, std::less<>> cells_;
  std::size_t retention_ = SIZE_MAX;
  std::uint64_t exported_total_ = 0;
  std::vector<SpanRecord> spans_;
};

}  // namespace meshnet::obs
