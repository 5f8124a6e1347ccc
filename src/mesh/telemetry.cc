#include "mesh/telemetry.h"

#include <utility>

namespace meshnet::mesh {

namespace {

bool is_failure(int status) noexcept { return status >= 500 || status <= 0; }

std::size_t class_index(TrafficClass c) noexcept {
  return static_cast<std::size_t>(c);
}

}  // namespace

TelemetrySink::TelemetrySink(obs::MetricRegistry* registry)
    : owned_registry_(registry ? nullptr
                               : std::make_unique<obs::MetricRegistry>()),
      registry_(registry ? registry : owned_registry_.get()) {
  intern_totals();
}

void TelemetrySink::intern_totals() {
  requests_total_ = &registry_->counter("mesh_requests_total");
  failures_total_ = &registry_->counter("mesh_failures_total");
  // Eagerly interned so every snapshot carries the three event series,
  // zero-valued when a run saw no resilience activity — consumers can
  // rely on their presence.
  for (int i = 0; i < obs::kEventKindCount; ++i) {
    const auto kind = static_cast<obs::EventKind>(i);
    event_counters_[static_cast<std::size_t>(i)] = &registry_->counter(
        "mesh_events_total", {{"kind", std::string(obs::to_string(kind))}});
  }
}

TelemetrySink::EdgeCells& TelemetrySink::edge_cells(
    const std::string& source, const std::string& upstream) {
  const auto it = edge_cells_.find({source, upstream});
  if (it != edge_cells_.end()) return it->second;
  const obs::Labels labels = {{"source", source}, {"upstream", upstream}};
  EdgeCells cells;
  cells.requests = &registry_->counter("mesh_requests_total", labels);
  cells.failures = &registry_->counter("mesh_failures_total", labels);
  cells.retries = &registry_->counter("mesh_retries_total", labels);
  const auto inserted =
      edge_cells_.emplace(std::make_pair(source, upstream), cells).first;
  inserted->second.key = &inserted->first;
  return inserted->second;
}

TelemetrySink::ClusterCells& TelemetrySink::cluster_cells(
    const std::string& cluster) {
  const auto it = cluster_cells_.find(cluster);
  if (it != cluster_cells_.end()) return it->second;
  const obs::Labels labels = {{"cluster", cluster}};
  ClusterCells cells;
  cells.requests = &registry_->counter("cluster_requests_total", labels);
  cells.failures = &registry_->counter("cluster_failures_total", labels);
  return cluster_cells_.emplace(cluster, cells).first->second;
}

TelemetrySink::Route TelemetrySink::route(const std::string& source,
                                          const std::string& upstream) {
  Route route;
  route.edge = &edge_cells(source, upstream);
  route.cluster = &cluster_cells(upstream);
  return route;
}

void TelemetrySink::record_request(const RequestSample& sample) {
  record_request(route(sample.source, sample.upstream), sample);
}

void TelemetrySink::record_request(const Route& route,
                                   const RequestOutcome& outcome) {
  EdgeCells& edge = *route.edge;
  ClusterCells& cluster = *route.cluster;

  edge.requests->inc();
  cluster.requests->inc();
  requests_total_->inc();
  if (is_failure(outcome.status)) {
    edge.failures->inc();
    cluster.failures->inc();
    failures_total_->inc();
  }
  if (outcome.retries > 0) {
    edge.retries->inc(static_cast<std::uint64_t>(outcome.retries));
  }
  if (outcome.latency > 0) {
    const std::size_t idx = class_index(outcome.priority);
    obs::Histogram*& cell = edge.latency_by_class[idx];
    if (!cell) {
      cell = &registry_->histogram(
          "mesh_request_latency_ns",
          {{"source", edge.key->first},
           {"upstream", edge.key->second},
           {"class", std::string(traffic_class_name(outcome.priority))}});
    }
    cell->record(static_cast<std::uint64_t>(outcome.latency));
  }
}

std::optional<EdgeMetrics> TelemetrySink::edge(
    const std::string& source_service,
    const std::string& upstream_cluster) const {
  const auto it = edge_cells_.find({source_service, upstream_cluster});
  if (it == edge_cells_.end()) return std::nullopt;
  const EdgeCells& cells = it->second;
  EdgeMetrics out;
  out.requests = cells.requests->value();
  out.failures = cells.failures->value();
  out.retries = cells.retries->value();
  for (const obs::Histogram* cell : cells.latency_by_class) {
    if (cell) out.latency.merge(cell->data());
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> TelemetrySink::edges()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(edge_cells_.size());
  for (const auto& [key, cells] : edge_cells_) out.push_back(key);
  return out;
}

std::uint64_t TelemetrySink::total_requests() const noexcept {
  return requests_total_->value();
}

std::uint64_t TelemetrySink::total_failures() const noexcept {
  return failures_total_->value();
}

void TelemetrySink::record_event(sim::Time at, obs::EventKind kind,
                                 std::string subject, std::string detail) {
  event_counters_[static_cast<std::size_t>(kind)]->inc();
  events_.push_back(
      MeshEvent{at, kind, std::move(subject), std::move(detail)});
}

std::uint64_t TelemetrySink::event_count(obs::EventKind kind) const noexcept {
  return event_counters_[static_cast<std::size_t>(kind)]->value();
}

}  // namespace meshnet::mesh
