#pragma once

// A timeout: at most one pending simulator event, owned by the component
// whose timeout it is (a connection's RTO, a sidecar's per-try and
// deadline timers, a TLS handshake timeout, the control plane's ack, poll
// and rotation timers, a health checker's probe timers).
//
// Arming is lazy. Re-arming for a time at or after the pending event's
// time only hands the simulator the new time and callable
// (Simulator::postpone): the event keeps its queue entry, which moves to
// the new time when it surfaces. Only an earlier time, or arming with
// nothing pending, cancels and schedules. Either way the callable runs
// exactly where a cancel plus a fresh schedule would run it, so laziness
// changes no simulated result; it saves the cancel, the tombstone and
// the queue insert of a connection's per-ACK RTO re-arm.
//
// Disarming and destruction cancel. The simulator frees an event's slot
// before running it, so armed() reads false inside the callback, and the
// callback may re-arm its own timer.
//
// A Timer is neither copyable nor movable, because its pending event
// belongs to this object. The simulator must outlive it.

#include <utility>

#include "sim/inline_task.h"
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
    if (when < sim_.now()) when = sim_.now();
    InlineTask task(std::forward<Fn>(fn));
    if (when < when_ || !sim_.postpone(id_, when, task)) {
      disarm();
      id_ = sim_.schedule_at(when, std::move(task));
    }
    when_ = when;
  }

  /// Replaces any pending event with `fn` after `delay` (clamped to 0).
  template <typename Fn>
  void arm_after(Duration delay, Fn&& fn) {
    arm_at(sim_.now() + (delay < 0 ? 0 : delay), std::forward<Fn>(fn));
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
  /// cancelled; a postponed event stays armed until it runs.
  bool armed() const noexcept { return sim_.pending(id_); }

 private:
  Simulator& sim_;
  EventId id_ = kInvalidEventId;
  /// When the pending event runs. Its queue entry surfaces no later, so
  /// a re-arm at or after it may postpone.
  Time when_ = 0;
};

}  // namespace meshnet::sim
