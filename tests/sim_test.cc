// Tests for the discrete-event engine, its timeouts (sim::Timer) and the
// named PRNG streams.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/random.h"
#include "sim/ring.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/timer.h"

namespace meshnet::sim {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(microseconds(1), 1'000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(7)), 7.0);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(9)), 9.0);
}

TEST(Time, FromSecondsRoundTrip) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_EQ(from_seconds(0.0), 0);
}

TEST(Time, TransmissionTime) {
  // 1250 bytes at 1 Gbps = 10 us.
  EXPECT_EQ(transmission_time(1250, 1e9), microseconds(10));
  // 1 byte at 8 bps = 1 s.
  EXPECT_EQ(transmission_time(1, 8.0), seconds(1));
}

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameTimestampRunsInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  Time observed = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(observed, 150);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  Time observed = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_at(10, [&] { observed = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(observed, 100);
}

TEST(Simulator, NegativeDelayClampsToZero) {
  Simulator sim;
  bool ran = false;
  sim.schedule_after(-5, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, CancelTwiceIsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelInvalidIdIsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(kInvalidEventId));
  EXPECT_FALSE(sim.cancel(9999));  // never scheduled
}

TEST(Simulator, CancelAfterExecutionIsHarmless) {
  Simulator sim;
  const EventId id = sim.schedule_at(1, [] {});
  sim.run();
  // The event already ran; cancelling is a no-op that must not corrupt
  // later events with a recycled id check.
  sim.cancel(id);
  bool ran = false;
  sim.schedule_at(2, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<Time> fired;
  for (Time t = 10; t <= 100; t += 10) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run_until(55);
  EXPECT_EQ(fired.size(), 5u);
  EXPECT_EQ(sim.now(), 55);
  sim.run_until(200);
  EXPECT_EQ(fired.size(), 10u);
  EXPECT_EQ(sim.now(), 200);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.run_until(1234);
  EXPECT_EQ(sim.now(), 1234);
}

TEST(Simulator, StopHaltsProcessing) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(i, [&] {
      ++count;
      if (count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  // run() resumes where it left off.
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_after(1, recurse);
  };
  sim.schedule_after(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
}

TEST(Simulator, PendingEventsExcludesCancelled) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  const EventId id = sim.schedule_at(20, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(RngStream, DeterministicForSameSeedAndName) {
  RngStream a(42, "stream");
  RngStream b(42, "stream");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, UINT64_MAX), b.uniform_int(0, UINT64_MAX));
  }
}

TEST(RngStream, DifferentNamesAreIndependent) {
  RngStream a(42, "alpha");
  RngStream b(42, "beta");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, UINT64_MAX) == b.uniform_int(0, UINT64_MAX)) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(RngStream, DifferentSeedsAreIndependent) {
  RngStream a(1, "s");
  RngStream b(2, "s");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, UINT64_MAX) == b.uniform_int(0, UINT64_MAX)) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(RngStream, UniformIsInUnitInterval) {
  RngStream rng(7, "u");
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngStream, UniformRangeRespectsBounds) {
  RngStream rng(7, "u2");
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(5.0, 9.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 9.0);
  }
}

TEST(RngStream, UniformIntInclusiveBounds) {
  RngStream rng(7, "ui");
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three values occur
}

TEST(RngStream, ExponentialMeanIsApproximatelyCorrect) {
  RngStream rng(7, "exp");
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kN, 4.0, 0.15);
}

TEST(RngStream, BernoulliFrequency) {
  RngStream rng(7, "bern");
  int heads = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / kN, 0.3, 0.02);
}

// Determinism property across the whole engine: two identical runs yield
// identical event interleavings.
TEST(Simulator, EndToEndDeterminism) {
  auto run = [] {
    Simulator sim;
    RngStream rng(99, "drive");
    std::vector<Time> trace;
    std::function<void()> step = [&] {
      trace.push_back(sim.now());
      if (trace.size() < 500) {
        sim.schedule_after(static_cast<Duration>(rng.uniform_int(1, 1000)),
                           step);
      }
    };
    sim.schedule_after(0, step);
    sim.run();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

// ---- Hot-path internals: wheel geometry, slot reuse, compaction --------

// Events exactly at wheel level boundaries (64 ticks, 64*64 ticks) and
// beyond the wheel must still fire in time order with same-time FIFO.
TEST(Simulator, WheelLevelBoundariesPreserveOrder) {
  constexpr Duration kTick = 8192;  // 2^13 ns level-0 tick
  Simulator sim;
  std::vector<int> order;
  const Duration delays[] = {
      kTick * 64 - 1,       // last level-0 tick
      kTick * 64,           // first level-1 bucket unit
      kTick * 64 + 1,       // same tick as above, later seq
      kTick * 64 * 64 - 1,  // last level-1 unit
      kTick * 64 * 64,      // first level-2 unit
      kTick * 64 * 64 * 64,  // beyond the wheel: heap
      kTick * 64 * 64 * 64 - 1,  // last level-2 unit
  };
  // Schedule in scrambled order; the expected firing order is by delay.
  const int scramble[] = {5, 2, 0, 6, 4, 1, 3};
  for (const int i : scramble) {
    sim.schedule_after(delays[i], [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 7u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 6, 5}));
}

// Same absolute time, scheduled from different structures (wheel via a
// short delay, then merged while the tick drains): FIFO by seq.
TEST(Simulator, SameTimestampFifoAcrossWheelAndReschedule) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(1000, [&] {
    order.push_back(0);
    // now == 1000; these land at the same time as each other and as the
    // event below that was scheduled earlier.
    sim.schedule_after(0, [&] { order.push_back(2); });
    sim.schedule_after(0, [&] { order.push_back(3); });
  });
  sim.schedule_at(1000, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Cancelling most of a large far-future batch triggers lazy compaction
// (visible in loop_stats) and pending_events stays truthful.
TEST(Simulator, CancelledFarTimersAreCompacted) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(sim.schedule_after(seconds(100) + i, [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 2000u);
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(sim.cancel(ids[i]));
  }
  EXPECT_EQ(sim.pending_events(), 1000u);
  for (std::size_t i = 1; i < ids.size(); i += 2) {
    EXPECT_TRUE(sim.cancel(ids[i]));
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_GE(sim.loop_stats().heap_compactions, 1u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, LoopStatsCountersAreConsistent) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.schedule_after(1000 + i, [] {}));  // wheel
  }
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.schedule_after(seconds(10) + i, [] {}));  // heap
  }
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
  sim.run();
  const LoopStats& stats = sim.loop_stats();
  EXPECT_EQ(stats.scheduled, 110u);
  EXPECT_EQ(stats.cancelled, 20u);
  EXPECT_EQ(stats.executed, 90u);
  EXPECT_EQ(stats.executed + stats.cancelled, stats.scheduled);
  EXPECT_EQ(stats.wheel_pushes + stats.heap_pushes + stats.due_merges, 110u);
  EXPECT_GE(stats.max_queue_depth, 110u);
  std::uint64_t histogram_total = 0;
  for (const std::uint64_t bucket : stats.depth_histogram) {
    histogram_total += bucket;
  }
  EXPECT_EQ(histogram_total, stats.executed);
}

// Small lambdas must use the inline buffer (no heap allocation); only
// oversized captures fall back to the heap, and the profiler sees it.
TEST(Simulator, InlineTasksAvoidHeapAllocation) {
  Simulator sim;
  int counter = 0;
  sim.schedule_after(1, [&counter] { ++counter; });
  EXPECT_EQ(sim.loop_stats().task_heap_allocs, 0u);
  struct Big {
    char bytes[128];
  } big{};
  sim.schedule_after(2, [&counter, big] { counter += big.bytes[0] ? 2 : 1; });
  EXPECT_EQ(sim.loop_stats().task_heap_allocs, 1u);
  sim.run();
  EXPECT_EQ(counter, 2);
}

// ---------------------------------------------------------------- Timer --

TEST(Timer, FiresOnceAtTheDeadline) {
  Simulator sim;
  Timer timer(sim);
  std::vector<Time> fired;
  timer.arm_after(100, [&] { fired.push_back(sim.now()); });
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, std::vector<Time>{100});
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Timer, RearmEarlierLeavesOnePendingEvent) {
  Simulator sim;
  Timer timer(sim);
  std::vector<Time> fired;
  timer.arm_at(200, [&] { fired.push_back(sim.now()); });
  timer.arm_at(100, [&] { fired.push_back(sim.now()); });
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.loop_stats().cancelled, 1u);
  sim.run();
  EXPECT_EQ(fired, std::vector<Time>{100});
}

TEST(Timer, RearmLaterLeavesOnePendingEvent) {
  Simulator sim;
  Timer timer(sim);
  std::vector<Time> fired;
  timer.arm_at(100, [&] { fired.push_back(sim.now()); });
  timer.arm_at(200, [&] { fired.push_back(sim.now()); });
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, std::vector<Time>{200});
}

TEST(Timer, DisarmCancels) {
  Simulator sim;
  Timer timer(sim);
  bool ran = false;
  timer.arm_after(100, [&] { ran = true; });
  timer.disarm();
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.loop_stats().cancelled, 1u);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Timer, DestructorCancels) {
  Simulator sim;
  bool ran = false;
  {
    Timer timer(sim);
    timer.arm_after(100, [&] { ran = true; });
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.loop_stats().cancelled, 1u);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Timer, ArmedIsFalseInsideTheCallback) {
  Simulator sim;
  Timer timer(sim);
  std::optional<bool> armed_inside;
  timer.arm_after(5, [&] { armed_inside = timer.armed(); });
  sim.run();
  ASSERT_TRUE(armed_inside.has_value());
  EXPECT_FALSE(*armed_inside);
}

// The RTO pattern: the callback re-arms its own timer with a backoff.
TEST(Timer, CallbackCanRearmItsOwnTimer) {
  Simulator sim;
  Timer timer(sim);
  std::vector<Time> fired;
  std::function<void()> on_fire = [&] {
    fired.push_back(sim.now());
    if (fired.size() < 3) timer.arm_after(10 * fired.size(), on_fire);
  };
  timer.arm_after(10, on_fire);
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{10, 20, 40}));
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(sim.loop_stats().cancelled, 0u);
}

TEST(Timer, DisarmingAnIdleOrFiredTimerIsANoOp) {
  Simulator sim;
  Timer timer(sim);
  timer.disarm();  // never armed
  timer.arm_after(1, [] {});
  sim.run();
  // The fired event's slot is recycled by an unrelated event; the stale
  // timer must leave it alone.
  bool other_ran = false;
  sim.schedule_after(1, [&] { other_ran = true; });
  timer.disarm();
  EXPECT_EQ(sim.loop_stats().cancelled, 0u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(other_ran);
}

// A TLS channel keeps itself alive through its own handshake timer: the
// timer's task holds the last reference to the timer's owner. Releasing
// that task destroys the timer from inside the release, which must not
// cancel the event a second time (the std::string capture makes a double
// release a double free).
struct SelfOwned {
  SelfOwned(Simulator& sim, int* destroyed)
      : timer(sim), destroyed(destroyed) {}
  ~SelfOwned() { ++*destroyed; }
  static SelfOwned* arm(Simulator& sim, int* destroyed) {
    auto owner = std::make_shared<SelfOwned>(sim, destroyed);
    owner->timer.arm_after(100, [owner, tag = std::string(64, 'x')] {
      (void)owner;
      (void)tag;
    });
    return owner.get();
  }
  Timer timer;
  int* destroyed;
};

TEST(Timer, DisarmMayReleaseItsOwner) {
  Simulator sim;
  int destroyed = 0;
  SelfOwned::arm(sim, &destroyed)->timer.disarm();
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.loop_stats().cancelled, 1u);
}

TEST(Timer, SimulatorTeardownReleasesATaskThatOwnsItsTimer) {
  int destroyed = 0;
  {
    Simulator sim;
    SelfOwned::arm(sim, &destroyed);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

// A request queue's cancel: erase keeps the survivors in FIFO order,
// also when the ring has wrapped around its storage.
TEST(Ring, EraseKeepsOrderAcrossTheWrap) {
  Ring<std::string, 1> ring;
  for (int i = 0; i < 4; ++i) ring.push_back(std::to_string(i));
  ring.pop_front();
  ring.pop_front();
  ring.push_back("4");
  ring.push_back("5");  // storage of 4 now wraps: 2 3 4 5
  ring.erase(1);
  ring.erase(2);
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0], "2");
  EXPECT_EQ(ring[1], "4");
  ring.erase(0);
  ring.push_back("6");
  EXPECT_EQ(ring.take_front(), "4");
  EXPECT_EQ(ring.take_front(), "6");
  EXPECT_TRUE(ring.empty());
}

TEST(InlineTask, InvokesAndReleasesCaptures) {
  auto shared = std::make_shared<int>(7);
  EXPECT_EQ(shared.use_count(), 1);
  {
    InlineTask task([shared] { (void)*shared; });
    EXPECT_EQ(shared.use_count(), 2);
    task();
    EXPECT_EQ(shared.use_count(), 2);  // invoke does not destroy captures
    task.reset();
    EXPECT_EQ(shared.use_count(), 1);
  }
  // Move transfers ownership (inline relocate).
  int runs = 0;
  InlineTask a([&runs] { ++runs; });
  InlineTask b = std::move(a);
  b();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move) moved-from is empty
  EXPECT_TRUE(b);
}

}  // namespace
}  // namespace meshnet::sim
