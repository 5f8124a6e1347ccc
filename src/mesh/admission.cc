#include "mesh/admission.h"

#include <utility>

#include "http/header_map.h"

namespace meshnet::mesh {

namespace {

constexpr std::array<TrafficClass, 3> kClassOfRank = {
    TrafficClass::kLatencySensitive,
    TrafficClass::kDefault,
    TrafficClass::kScavenger,
};

}  // namespace

AdmissionController::AdmissionController(const std::string& service,
                                         AdmissionConfig config,
                                         obs::MetricRegistry* registry)
    : config_(config) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricRegistry>();
    registry = owned_registry_.get();
  }
  for (int rank = 0; rank < 3; ++rank) {
    const std::string klass =
        std::string(traffic_class_name(kClassOfRank[rank]));
    const obs::Labels labels = {{"service", service}, {"class", klass}};
    accepted_by_class_[rank] =
        &registry->counter("admission_accepted_total", labels);
    queued_by_class_[rank] =
        &registry->counter("admission_queued_total", labels);
    completed_by_class_[rank] =
        &registry->counter("admission_completed_total", labels);
    shed_by_class_[rank] = &registry->counter(
        "admission_shed_total", {{"service", service},
                                 {"class", klass},
                                 {"reason", std::string(kShedQueueFull)}});
  }
  queue_depth_gauge_ =
      &registry->gauge("admission_queue_depth_peak", {{"service", service}});
}

int AdmissionController::rank_of(TrafficClass klass) noexcept {
  switch (klass) {
    case TrafficClass::kLatencySensitive:
      return 0;
    case TrafficClass::kDefault:
      return 1;
    case TrafficClass::kScavenger:
      return 2;
  }
  return 1;
}

bool AdmissionController::has_capacity_for(int rank) const noexcept {
  const std::uint32_t limit = config_.concurrency_limit;
  if (in_flight_ >= limit) return false;
  if (rank == 0) return true;
  // Non-highest classes may not touch the reserved slots.
  const std::uint32_t usable =
      config_.reserve_slots >= limit ? 0 : limit - config_.reserve_slots;
  return in_flight_low_ < usable;
}

std::size_t AdmissionController::queue_depth() const noexcept {
  return queues_[0].size() + queues_[1].size() + queues_[2].size();
}

std::size_t AdmissionController::queue_depth(TrafficClass klass) const
    noexcept {
  return queues_[rank_of(klass)].size();
}

void AdmissionController::admit(int rank) {
  ++in_flight_;
  if (rank > 0) ++in_flight_low_;
  ++counters_.accepted;
  accepted_by_class_[rank]->inc();
}

AdmissionController::Decision AdmissionController::offer(TrafficClass klass) {
  ++counters_.offered;
  const int rank = rank_of(klass);

  // Capacity plus an empty same-or-higher-priority backlog means the
  // request bypasses the queue entirely. (The drain loop keeps queues
  // empty whenever their class has capacity, so the backlog check only
  // bites in the reserved-slot corner: an LS arrival may overtake queued
  // low-priority work, which is the point.)
  bool backlog = false;
  for (int r = 0; r <= rank; ++r) backlog = backlog || !queues_[r].empty();
  if (!backlog && has_capacity_for(rank)) {
    admit(rank);
    return {Decision::Outcome::kAdmitted, 0};
  }

  if (queue_depth() >= config_.queue_capacity) {
    ++counters_.shed;
    shed_by_class_[rank]->inc();
    return {Decision::Outcome::kShed, 0};
  }

  const std::uint64_t ticket = next_ticket_++;
  queues_[rank].push_back(Entry{ticket, rank, nullptr});
  ++counters_.queued;
  queued_by_class_[rank]->inc();
  if (static_cast<double>(queue_depth()) > queue_depth_gauge_->value()) {
    queue_depth_gauge_->set(static_cast<double>(queue_depth()));
  }
  return {Decision::Outcome::kQueued, ticket};
}

void AdmissionController::bind(std::uint64_t ticket,
                               std::function<void()> on_dispatch) {
  for (auto& queue : queues_) {
    for (Entry& entry : queue) {
      if (entry.ticket == ticket) {
        entry.on_dispatch = std::move(on_dispatch);
        return;
      }
    }
  }
}

void AdmissionController::on_complete(TrafficClass klass) {
  if (in_flight_ > 0) --in_flight_;
  if (rank_of(klass) > 0 && in_flight_low_ > 0) --in_flight_low_;
  ++counters_.completed;
  completed_by_class_[rank_of(klass)]->inc();
  drain();
}

void AdmissionController::drain() {
  for (int rank = 0; rank < 3; ++rank) {
    auto& queue = queues_[rank];
    while (!queue.empty() && has_capacity_for(rank)) {
      Entry entry = std::move(queue.front());
      queue.pop_front();
      admit(entry.rank);
      if (entry.on_dispatch) entry.on_dispatch();
    }
  }
}

FilterStatus AdmissionFilter::on_request(RequestContext& ctx) {
  AdmissionController* controller = provider_ ? provider_() : nullptr;
  if (controller == nullptr || ctx.direction != FilterDirection::kInbound) {
    return FilterStatus::kContinue;
  }

  TrafficClass klass = ctx.traffic_class;
  if (klass == TrafficClass::kDefault) {
    // No provenance filter resolved a class; fall back to the raw
    // cross-layer priority header ("high"/"low", paper §4.3 step 1).
    const auto priority =
        ctx.request.headers.get(http::headers::Id::kMeshPriority);
    if (priority == "high") {
      klass = TrafficClass::kLatencySensitive;
    } else if (priority == "low") {
      klass = TrafficClass::kScavenger;
    }
    ctx.traffic_class = klass;
  }
  ctx.admission_class = klass;

  const AdmissionController::Decision decision = controller->offer(klass);
  switch (decision.outcome) {
    case AdmissionController::Decision::Outcome::kAdmitted:
      ctx.admission_admitted = true;
      return FilterStatus::kContinue;
    case AdmissionController::Decision::Outcome::kQueued:
      ctx.admission_ticket = decision.ticket;
      return FilterStatus::kPause;
    case AdmissionController::Decision::Outcome::kShed:
      break;
  }
  http::HttpResponse response;
  response.status = 503;
  response.body = "admission shed: " + std::string(kShedQueueFull);
  response.headers.set(http::headers::Id::kShedReason, kShedQueueFull);
  ctx.local_response = std::move(response);
  return FilterStatus::kStopIteration;
}

void AdmissionFilter::on_response(RequestContext& ctx,
                                  http::HttpResponse& /*response*/) {
  if (!ctx.admission_admitted) return;
  AdmissionController* controller = provider_ ? provider_() : nullptr;
  if (controller == nullptr) return;
  ctx.admission_admitted = false;
  controller->on_complete(ctx.admission_class);
}

}  // namespace meshnet::mesh
