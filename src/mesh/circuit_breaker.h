#pragma once

// Per-endpoint circuit breaker / outlier detection (paper §2: "resilience,
// such as ... implementing a 'circuit breaker' pattern to avoid
// underperforming instances").
//
// Classic three-state machine: CLOSED counts consecutive failures; at the
// threshold it OPENs for a cooldown during which the endpoint is skipped
// by endpoint selection; after cooldown it goes HALF-OPEN and admits one
// probe request at a time — a probe success closes the circuit, a probe
// failure re-opens it.

#include <cstdint>
#include <functional>
#include <string>

#include "sim/time.h"

namespace meshnet::mesh {

struct CircuitBreakerConfig {
  /// Consecutive failures that trip the breaker. 0 disables it.
  std::uint32_t consecutive_failures = 5;
  sim::Duration open_duration = sim::milliseconds(500);

  bool operator==(const CircuitBreakerConfig&) const = default;
};

enum class CircuitState { kClosed, kOpen, kHalfOpen };

std::string_view circuit_state_name(CircuitState state) noexcept;

class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerConfig config = {});

  /// True when a request may be sent at `now`. Transitions kOpen ->
  /// kHalfOpen when the cooldown has elapsed. In kHalfOpen, admits one
  /// in-flight probe.
  bool allow_request(sim::Time now);

  void on_success(sim::Time now);
  void on_failure(sim::Time now);

  CircuitState state() const noexcept { return state_; }
  std::uint32_t consecutive_failures() const noexcept { return failures_; }
  std::uint64_t times_opened() const noexcept { return times_opened_; }

  /// Observes every state transition (telemetry wiring). Fires after the
  /// new state is in effect.
  using TransitionHook =
      std::function<void(CircuitState from, CircuitState to, sim::Time at)>;
  void set_transition_hook(TransitionHook hook) {
    transition_hook_ = std::move(hook);
  }

 private:
  void open(sim::Time now);
  void transition(CircuitState to, sim::Time at);

  CircuitBreakerConfig config_;
  CircuitState state_ = CircuitState::kClosed;
  std::uint32_t failures_ = 0;
  bool probe_in_flight_ = false;
  sim::Time opened_at_ = 0;
  std::uint64_t times_opened_ = 0;
  TransitionHook transition_hook_;
};

}  // namespace meshnet::mesh
