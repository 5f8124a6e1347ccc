#pragma once

// A timeout: at most one pending simulator event, owned by the component
// whose timeout it is (a connection's RTO, a sidecar's per-try and
// deadline timers, a TLS handshake timeout, the control plane's ack, poll
// and rotation timers, a health checker's probe timers).
//
// Arming cancels whatever is still pending, then schedules the caller's
// callable unchanged (no wrapper, so arming costs what schedule_at
// costs). Disarming and destruction cancel. The simulator frees an
// event's slot before running it, so armed() reads false inside the
// callback, and the callback may re-arm its own timer.
//
// A Timer is neither copyable nor movable, because its pending event
// belongs to this object. The simulator must outlive it.

#include <utility>

#include "sim/simulator.h"
#include "sim/time.h"

namespace meshnet::sim {

class Timer {
 public:
  explicit Timer(Simulator& sim) noexcept : sim_(sim) {}
  ~Timer() { disarm(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Replaces any pending event with `fn` at absolute time `when`
  /// (clamped to now()).
  template <typename Fn>
  void arm_at(Time when, Fn&& fn) {
    disarm();
    id_ = sim_.schedule_at(when, std::forward<Fn>(fn));
  }

  /// Replaces any pending event with `fn` after `delay` (clamped to 0).
  template <typename Fn>
  void arm_after(Duration delay, Fn&& fn) {
    disarm();
    id_ = sim_.schedule_after(delay, std::forward<Fn>(fn));
  }

  /// Cancels the pending event, if any. The id is cleared before the
  /// cancel, so a destructor that the released captures run may safely
  /// reach this timer again.
  void disarm() {
    if (id_ != kInvalidEventId) {
      sim_.cancel(std::exchange(id_, kInvalidEventId));
    }
  }

  /// True while the event is scheduled and has neither fired nor been
  /// cancelled.
  bool armed() const noexcept { return sim_.pending(id_); }

 private:
  Simulator& sim_;
  EventId id_ = kInvalidEventId;
};

}  // namespace meshnet::sim
