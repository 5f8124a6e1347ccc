#include "obs/span_exporter.h"

#include <utility>

namespace meshnet::obs {

SpanExporter::SpanExporter(MetricRegistry* registry) : registry_(registry) {}

SpanExporter::ServiceCells* SpanExporter::cells_for(
    std::string_view service) {
  if (registry_ == nullptr) return nullptr;
  const auto it = cells_.find(service);
  if (it != cells_.end()) return &it->second;
  ServiceCells cells;
  const Labels labels = {{"service", std::string(service)}};
  cells.total = &registry_->counter("spans_total", labels);
  cells.errors = &registry_->counter("span_errors_total", labels);
  cells.duration = &registry_->histogram("span_duration_ns", labels);
  return &cells_.emplace(std::string(service), cells).first->second;
}

void SpanExporter::export_span(SpanRecord span, ServiceCells* cells) {
  ++exported_total_;
  if (cells == nullptr) cells = cells_for(span.service);
  if (cells != nullptr) {
    cells->total->inc();
    if (span.error) cells->errors->inc();
    const sim::Duration duration = span.duration();
    cells->duration->record(
        duration > 0 ? static_cast<std::uint64_t>(duration) : 0);
  }
  if (retention_ == 0) return;
  spans_.push_back(std::move(span));
  if (spans_.size() > retention_) {
    spans_.erase(spans_.begin(),
                 spans_.begin() +
                     static_cast<std::ptrdiff_t>(spans_.size() - retention_));
  }
}

}  // namespace meshnet::obs
