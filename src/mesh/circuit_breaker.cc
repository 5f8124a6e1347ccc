#include "mesh/circuit_breaker.h"

namespace meshnet::mesh {

std::string_view circuit_state_name(CircuitState state) noexcept {
  switch (state) {
    case CircuitState::kClosed:
      return "closed";
    case CircuitState::kOpen:
      return "open";
    case CircuitState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config)
    : config_(config) {}

bool CircuitBreaker::allow_request(sim::Time now) {
  if (config_.consecutive_failures == 0) return true;  // disabled
  switch (state_) {
    case CircuitState::kClosed:
      return true;
    case CircuitState::kOpen:
      if (now - opened_at_ >= config_.open_duration) {
        probe_in_flight_ = false;
        transition(CircuitState::kHalfOpen, now);
      } else {
        return false;
      }
      [[fallthrough]];
    case CircuitState::kHalfOpen:
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::on_success(sim::Time now) {
  if (config_.consecutive_failures == 0) return;
  failures_ = 0;
  if (state_ == CircuitState::kHalfOpen) {
    probe_in_flight_ = false;
    transition(CircuitState::kClosed, now);
  }
}

void CircuitBreaker::on_failure(sim::Time now) {
  if (config_.consecutive_failures == 0) return;
  if (state_ == CircuitState::kHalfOpen) {
    open(now);
    return;
  }
  if (state_ == CircuitState::kClosed) {
    ++failures_;
    if (failures_ >= config_.consecutive_failures) open(now);
  }
}

void CircuitBreaker::open(sim::Time now) {
  opened_at_ = now;
  failures_ = 0;
  probe_in_flight_ = false;
  ++times_opened_;
  transition(CircuitState::kOpen, now);
}

void CircuitBreaker::transition(CircuitState to, sim::Time at) {
  const CircuitState from = state_;
  state_ = to;
  if (transition_hook_ && from != to) transition_hook_(from, to, at);
}

}  // namespace meshnet::mesh
