#pragma once

// Adaptive concurrency limiting for the admission controller.
//
// The limit follows the AIMD discipline of Netflix's concurrency-limits
// (Gradient2-flavoured, simplified): observed latency is averaged over a
// sampling window and compared against a baseline — the minimum of the
// last kBaselineWindows window means, i.e. the service's least-loaded
// recent latency. When the gradient (window mean / baseline) exceeds
// `latency_tolerance` the limit is cut multiplicatively (x0.7); otherwise,
// if the window actually pressed against the limit, it grows additively
// (+1). The step sizes and the estimate weight are constants in
// concurrency_limit.cc.
// Growth requires pressure so an idle service does not drift to max and
// then admit a thundering herd.
//
// The class is deliberately simulator-free: `now` is passed in
// explicitly, so the model-based property test can drive it (and the
// AdmissionController above it) as a pure state machine.

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"

namespace meshnet::mesh {

struct ConcurrencyLimitConfig {
  std::uint32_t initial_limit = 8;
  std::uint32_t min_limit = 1;
  std::uint32_t max_limit = 64;
  /// Latency-sampling window; the limit is reconsidered once per window.
  sim::Duration window = sim::milliseconds(250);
  /// Windows with fewer samples are discarded (too noisy to act on).
  std::uint32_t min_window_samples = 5;
  /// Multiplicative-decrease trigger: window mean > tolerance * baseline.
  double latency_tolerance = 2.0;
};

class ConcurrencyLimit {
 public:
  explicit ConcurrencyLimit(ConcurrencyLimitConfig config = {});

  /// Current limit (changes only inside on_complete()).
  std::uint32_t limit() const noexcept { return limit_; }
  std::uint32_t in_flight() const noexcept { return in_flight_; }
  bool has_capacity() const noexcept { return in_flight_ < limit_; }

  /// Claims a slot. Caller must have checked has_capacity().
  void on_start() noexcept;

  /// Releases a slot and feeds the AIMD sampler.
  void on_complete(sim::Duration latency, sim::Time now);

  /// EWMA of observed completion latency, for deadline-aware shedding.
  /// 0 until the first completion.
  sim::Duration latency_estimate() const noexcept { return estimate_; }

  std::uint64_t increases() const noexcept { return increases_; }
  std::uint64_t decreases() const noexcept { return decreases_; }

  /// Invoked with the new limit after every AIMD adjustment (metrics).
  void set_on_limit_change(std::function<void(std::uint32_t)> hook) {
    on_limit_change_ = std::move(hook);
  }

 private:
  void close_window(sim::Time now);

  ConcurrencyLimitConfig config_;
  std::uint32_t limit_;
  double limit_f_;  ///< fractional limit, so +1.0 AI survives rounding
  std::uint32_t in_flight_ = 0;
  /// Did in-flight reach the limit at any point during this window?
  bool limit_hit_ = false;

  sim::Time window_start_ = 0;
  sim::Duration window_sum_ = 0;
  std::uint32_t window_samples_ = 0;

  /// Ring of recent window means (the baseline min filter).
  std::vector<sim::Duration> recent_means_;
  std::size_t recent_next_ = 0;

  sim::Duration estimate_ = 0;
  std::uint64_t increases_ = 0;
  std::uint64_t decreases_ = 0;
  std::function<void(std::uint32_t)> on_limit_change_;
};

}  // namespace meshnet::mesh
