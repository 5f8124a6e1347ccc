#pragma once

// Priority-aware overload control at the sidecar inbound path.
//
// Past the saturation knee, a service's queue grows without bound and
// latency-sensitive and scavenger requests time out together — exactly
// the collapse the cross-layer priority header exists to prevent. The
// admission controller sits as the last inbound filter (after
// provenance has resolved the request's traffic class) and decides, per
// request: admit now, park in a bounded per-priority FIFO queue, or
// shed with a 503 carrying an `x-mesh-shed: queue-full` header.
//
// Discipline:
//  * At most `concurrency_limit` admitted requests are in flight toward
//    the local app; the limit is static.
//  * Queued requests dispatch strictly by priority class, FIFO within a
//    class. `reserve_slots` slots are usable only by the highest class,
//    so a latency-sensitive arrival never waits behind a full window of
//    admitted low-priority work.
//  * One queue budget shared by all classes: an arrival that finds it
//    full is shed. A queued request is never shed; it waits for a slot.
//
// Shed responses are marked so the *caller's* sidecar neither retries
// them nor counts them against the endpoint's circuit breaker.
//
// The controller is simulator-free, so the model-based property test can
// drive it as a pure state machine.

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "mesh/filter.h"
#include "obs/metric_registry.h"

namespace meshnet::mesh {

/// The `x-mesh-shed` value and `reason` label of every shed.
inline constexpr std::string_view kShedQueueFull = "queue-full";

struct AdmissionConfig {
  bool enabled = false;
  /// Shared queue budget across all priority classes.
  std::size_t queue_capacity = 128;
  /// Concurrency slots only the highest priority class may occupy, so an
  /// LS arrival finds capacity without waiting out a low-priority burst.
  std::uint32_t reserve_slots = 0;
  /// Admitted requests in flight toward the app at once (at least 1).
  std::uint32_t concurrency_limit = 8;
};

/// Monotonic counters mirrored outside the registry for cheap asserts in
/// tests and experiments.
struct AdmissionCounters {
  std::uint64_t offered = 0;
  /// Granted a slot: directly, or on dispatch from the queue (a queued
  /// request whose downstream has gone releases its slot at once).
  std::uint64_t accepted = 0;
  std::uint64_t queued = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;  ///< arrivals that found the queue full
};

class AdmissionController {
 public:
  struct Decision {
    enum class Outcome { kAdmitted, kQueued, kShed };
    Outcome outcome = Outcome::kAdmitted;
    std::uint64_t ticket = 0;  ///< valid when kQueued
  };

  /// Records admission_* series into `registry` when non-null, else into
  /// a private registry (unit tests).
  AdmissionController(const std::string& service, AdmissionConfig config,
                      obs::MetricRegistry* registry = nullptr);
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Offers one request.
  Decision offer(TrafficClass klass);

  /// Attaches the dispatch continuation to a kQueued ticket. Must be
  /// called before the next offer()/on_complete().
  void bind(std::uint64_t ticket, std::function<void()> on_dispatch);

  /// Releases the slot held by an admitted request and drains the queues
  /// into the freed capacity.
  void on_complete(TrafficClass klass);

  std::uint32_t in_flight() const noexcept { return in_flight_; }
  std::size_t queue_depth() const noexcept;
  std::size_t queue_depth(TrafficClass klass) const noexcept;
  const AdmissionCounters& counters() const noexcept { return counters_; }

 private:
  struct Entry {
    std::uint64_t ticket = 0;
    int rank = 0;
    std::function<void()> on_dispatch;
  };

  static int rank_of(TrafficClass klass) noexcept;
  bool has_capacity_for(int rank) const noexcept;
  void admit(int rank);
  void drain();

  AdmissionConfig config_;
  std::uint32_t in_flight_ = 0;
  /// Admitted requests currently occupying non-reserved (low) capacity.
  std::uint32_t in_flight_low_ = 0;
  std::array<std::deque<Entry>, 3> queues_;  ///< indexed by rank
  std::uint64_t next_ticket_ = 1;
  AdmissionCounters counters_;

  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  std::array<obs::Counter*, 3> accepted_by_class_{};
  std::array<obs::Counter*, 3> queued_by_class_{};
  std::array<obs::Counter*, 3> completed_by_class_{};
  std::array<obs::Counter*, 3> shed_by_class_{};
  obs::Gauge* queue_depth_gauge_ = nullptr;  ///< high-water mark
};

/// The inbound-chain enforcement point. Resolves the request's priority
/// (ctx.traffic_class, falling back to the x-mesh-priority header), then
/// asks the controller. kAdmitted continues the chain; kShed
/// short-circuits with a marked 503; kQueued pauses the chain — the
/// sidecar binds the dispatch continuation. The controller is fetched
/// through `provider` so the filter can be installed before the
/// sidecar's controller exists (it is created on the first config push
/// that enables admission).
class AdmissionFilter : public HttpFilter {
 public:
  explicit AdmissionFilter(std::function<AdmissionController*()> provider)
      : provider_(std::move(provider)) {}

  std::string name() const override { return "admission"; }
  FilterStatus on_request(RequestContext& ctx) override;
  void on_response(RequestContext& ctx, http::HttpResponse& response) override;

 private:
  std::function<AdmissionController*()> provider_;
};

}  // namespace meshnet::mesh
