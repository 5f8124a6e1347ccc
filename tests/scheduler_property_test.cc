// Property tests for the event scheduler: the heap + timer-wheel + due-run
// split must execute events in exactly the order the old single
// priority-queue implementation did — (when, seq) lexicographic, i.e.
// time-ordered with same-timestamp FIFO — and cancel() must behave like
// removal from that queue. The reference model is a plain vector sorted
// with std::stable_sort, which is trivially correct.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/timer.h"

namespace meshnet::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A delay from the distributions that stress the wheel geometry: zero
/// (same-timestamp FIFO), sub-tick, exact tick multiples, level
/// boundaries, and beyond-wheel far timers that land in the heap.
Duration interesting_delay(std::uint64_t r) {
  constexpr Duration kTick = 8192;  // level-0 tick (2^13 ns)
  switch (r % 10) {
    case 0:
      return 0;
    case 1:
      return 1 + static_cast<Duration>((r >> 8) % 100);  // sub-tick
    case 2:
      return kTick * static_cast<Duration>(1 + ((r >> 8) % 4));
    case 3:
      return kTick * 64 - 1;  // just inside level 0's window
    case 4:
      return kTick * 64 + static_cast<Duration>((r >> 8) % 3);  // level 1
    case 5:
      return kTick * 64 * 64 + static_cast<Duration>((r >> 8) % 1000);
    case 6:
      return kTick * 64 * 64 * 64 +  // beyond the wheel: heap
             static_cast<Duration>((r >> 8) % 1000000);
    case 7:
      return seconds(3) + static_cast<Duration>((r >> 8) % 1000000);
    default:
      return 1 + static_cast<Duration>((r >> 8) % 2000000);  // <= 2 ms
  }
}

// ---- Offline model: schedule everything up front, cancel a subset -----

struct ModelEvent {
  Time when;
  int token;  // scheduling order == seq order
};

TEST(SchedulerProperty, MatchesStableSortModelOfflineMix) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::uint64_t rng = seed * 0x100000001b3ULL;
    Simulator sim;
    std::vector<EventId> ids;
    std::vector<ModelEvent> model;
    std::vector<int> fired;
    constexpr int kEvents = 600;
    for (int token = 0; token < kEvents; ++token) {
      const Duration delay = interesting_delay(splitmix64(rng));
      model.push_back(ModelEvent{delay, token});
      ids.push_back(
          sim.schedule_after(delay, [&fired, token] { fired.push_back(token); }));
    }
    // Cancel ~1/3, chosen by hash.
    std::vector<char> cancelled(kEvents, 0);
    for (int token = 0; token < kEvents; ++token) {
      if (splitmix64(rng) % 3 == 0) {
        EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(token)]));
        cancelled[static_cast<std::size_t>(token)] = 1;
      }
    }
    sim.run();

    std::vector<ModelEvent> expected;
    for (const ModelEvent& e : model) {
      if (!cancelled[static_cast<std::size_t>(e.token)]) expected.push_back(e);
    }
    // stable_sort by time alone: ties keep scheduling (seq) order, which
    // is exactly the contract the simulator documents.
    std::stable_sort(expected.begin(), expected.end(),
                     [](const ModelEvent& a, const ModelEvent& b) {
                       return a.when < b.when;
                     });
    ASSERT_EQ(fired.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(fired[i], expected[i].token)
          << "seed " << seed << " position " << i;
    }
  }
}

// ---- Online model: events schedule and cancel while running ------------
//
// Every fired event makes decisions that are a pure function of its token
// (not of execution order), so the reference model can replay the same
// decisions against a sorted pending set. Any order divergence between
// the simulator and the model shows up as a token-sequence mismatch.

struct OnlineDriver {
  Simulator sim;
  std::uint64_t next_token = 0;
  std::uint64_t budget;  // total events allowed (bounds the run)
  std::map<std::uint64_t, EventId> live;  // token -> id, pending only
  std::vector<std::pair<std::uint64_t, Time>> fired;

  explicit OnlineDriver(std::uint64_t total) : budget(total) {}

  void spawn(Duration delay) {
    if (budget == 0) return;
    --budget;
    const std::uint64_t token = next_token++;
    const EventId id =
        sim.schedule_after(delay, [this, token] { on_fire(token); });
    live.emplace(token, id);
  }

  void on_fire(std::uint64_t token) {
    live.erase(token);
    fired.emplace_back(token, sim.now());
    std::uint64_t rng = token * 0x9e3779b97f4a7c15ULL + 12345;
    const std::uint64_t r = splitmix64(rng);
    // Schedule 0-2 children.
    const int children = static_cast<int>(r % 3);
    for (int i = 0; i < children; ++i) {
      spawn(interesting_delay(splitmix64(rng)));
    }
    // Maybe cancel the pending event with the smallest token >= pivot
    // (wrapping) — a deterministic choice given the pending set.
    if (splitmix64(rng) % 4 == 0 && !live.empty()) {
      auto it = live.lower_bound(splitmix64(rng) % next_token);
      if (it == live.end()) it = live.begin();
      EXPECT_TRUE(sim.cancel(it->second));
      live.erase(it);
    }
  }
};

struct OnlineModel {
  struct Pending {
    Time when;
    std::uint64_t seq;
    std::uint64_t token;
  };
  std::uint64_t next_token = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t budget;
  Time now = 0;
  std::vector<Pending> pending;  // kept sorted by (when, seq)
  std::set<std::uint64_t> live;
  std::vector<std::pair<std::uint64_t, Time>> fired;

  explicit OnlineModel(std::uint64_t total) : budget(total) {}

  void spawn(Duration delay) {
    if (budget == 0) return;
    --budget;
    const Pending p{now + delay, next_seq++, next_token++};
    pending.insert(std::upper_bound(pending.begin(), pending.end(), p,
                                    [](const Pending& a, const Pending& b) {
                                      return a.when != b.when
                                                 ? a.when < b.when
                                                 : a.seq < b.seq;
                                    }),
                   p);
    live.insert(p.token);
  }

  void run() {
    while (!pending.empty()) {
      const Pending p = pending.front();
      pending.erase(pending.begin());
      now = p.when;
      live.erase(p.token);
      fired.emplace_back(p.token, now);
      std::uint64_t rng = p.token * 0x9e3779b97f4a7c15ULL + 12345;
      const std::uint64_t r = splitmix64(rng);
      const int children = static_cast<int>(r % 3);
      for (int i = 0; i < children; ++i) {
        spawn(interesting_delay(splitmix64(rng)));
      }
      if (splitmix64(rng) % 4 == 0 && !live.empty()) {
        auto it = live.lower_bound(splitmix64(rng) % next_token);
        if (it == live.end()) it = live.begin();
        const std::uint64_t victim = *it;
        live.erase(it);
        pending.erase(std::find_if(pending.begin(), pending.end(),
                                   [victim](const Pending& q) {
                                     return q.token == victim;
                                   }));
      }
    }
  }
};

TEST(SchedulerProperty, MatchesModelWithReentrantScheduleAndCancel) {
  constexpr std::uint64_t kTotal = 4000;
  OnlineDriver driver(kTotal);
  OnlineModel model(kTotal);
  // Seed both with the same initial burst (tokens 0..31 at t=0 decide
  // their own delays on fire; seed spawns use token-hash delays too).
  for (int i = 0; i < 32; ++i) {
    std::uint64_t rng = static_cast<std::uint64_t>(i) * 0x517cc1b727220a95ULL;
    const Duration delay = interesting_delay(splitmix64(rng));
    driver.spawn(delay);
    model.spawn(delay);
  }
  driver.sim.run();
  model.run();

  ASSERT_EQ(driver.fired.size(), model.fired.size());
  for (std::size_t i = 0; i < model.fired.size(); ++i) {
    EXPECT_EQ(driver.fired[i].first, model.fired[i].first) << "position " << i;
    EXPECT_EQ(driver.fired[i].second, model.fired[i].second)
        << "position " << i;
    if (driver.fired[i] != model.fired[i]) break;  // avoid noise cascades
  }
  EXPECT_EQ(driver.sim.pending_events(), 0u);
}

// ---- Lazy timers against eager cancel-plus-schedule --------------------

// N timeouts re-armed, disarmed and left to fire in random order, by the
// test and by their own callbacks (which also schedule plain events, so
// ties at one time mix timer and non-timer events). One engine holds
// sim::Timers, whose later re-arms postpone; the other cancels and
// schedules on every re-arm. Both must run the same events at the same
// times in the same order.
template <bool kLazy>
struct TimerHarness {
  static constexpr int kTimers = 24;

  Simulator sim;
  std::vector<std::unique_ptr<Timer>> timers;
  std::vector<EventId> ids = std::vector<EventId>(kTimers, kInvalidEventId);
  std::vector<Time> deadline = std::vector<Time>(kTimers, 0);
  std::vector<std::pair<Time, int>> log;
  std::uint64_t rng = 0x2545f4914f6cdd1dULL;
  int budget = 20000;

  TimerHarness() {
    for (int i = 0; i < kTimers; ++i) {
      timers.push_back(std::make_unique<Timer>(sim));
    }
  }

  void arm(int i, Time when) {
    deadline[static_cast<std::size_t>(i)] = std::max(when, sim.now());
    auto fire = [this, i] { fired(i); };
    if constexpr (kLazy) {
      timers[static_cast<std::size_t>(i)]->arm_at(when, fire);
    } else {
      sim.cancel(ids[static_cast<std::size_t>(i)]);
      ids[static_cast<std::size_t>(i)] = sim.schedule_at(when, fire);
    }
  }

  void disarm(int i) {
    if constexpr (kLazy) {
      timers[static_cast<std::size_t>(i)]->disarm();
    } else {
      sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
  }

  void fired(int i) {
    log.emplace_back(sim.now(), i);
    if (--budget <= 0) return;
    const std::uint64_t r = splitmix64(rng);
    switch (r % 6) {
      case 0:  // re-arm itself (the RTO pattern)
        arm(i, sim.now() + interesting_delay(r >> 3));
        break;
      case 1:  // re-arm itself, then push it back
        arm(i, sim.now() + interesting_delay(r >> 3));
        arm(i, deadline[static_cast<std::size_t>(i)] +
                   static_cast<Duration>((r >> 40) % 3) * 8192);
        break;
      case 2: {  // re-arm a neighbour: later, earlier or equal
        const int j = static_cast<int>((r >> 8) % kTimers);
        arm(j, sim.now() + interesting_delay(r >> 16));
        break;
      }
      case 3: {  // a plain event that may tie with a timer
        const int label = 1000 + static_cast<int>((r >> 8) % 1000);
        sim.schedule_at(deadline[(r >> 20) % kTimers],
                        [this, label] { log.emplace_back(sim.now(), label); });
        break;
      }
      case 4:
        disarm(static_cast<int>((r >> 8) % kTimers));
        break;
      default:
        break;
    }
  }

  /// One step of the test's own script: the same for both engines.
  void step(std::uint64_t r) {
    const int i = static_cast<int>((r >> 4) % kTimers);
    switch (r % 5) {
      case 0:
      case 1:
        arm(i, sim.now() + interesting_delay(r >> 12));
        break;
      case 2:  // the same deadline again
        arm(i, deadline[static_cast<std::size_t>(i)]);
        break;
      case 3:
        disarm(i);
        break;
      default:
        sim.run_until(sim.now() + 1 +
                      static_cast<Duration>((r >> 12) % 3'000'000));
        break;
    }
  }
};

TEST(SchedulerProperty, LazyTimersMatchCancelAndSchedule) {
  TimerHarness<true> lazy;
  TimerHarness<false> eager;
  std::uint64_t script = 42;
  for (int n = 0; n < 10000; ++n) {
    const std::uint64_t r = splitmix64(script);
    lazy.step(r);
    eager.step(r);
    ASSERT_EQ(lazy.sim.now(), eager.sim.now()) << "step " << n;
    ASSERT_EQ(lazy.sim.pending_events(), eager.sim.pending_events())
        << "step " << n;
    ASSERT_EQ(lazy.log.size(), eager.log.size()) << "step " << n;
  }
  lazy.sim.run();
  eager.sim.run();
  ASSERT_EQ(lazy.log.size(), eager.log.size());
  for (std::size_t i = 0; i < eager.log.size(); ++i) {
    ASSERT_EQ(lazy.log[i], eager.log[i]) << "position " << i;
  }
  EXPECT_GT(eager.log.size(), 5000u);
  EXPECT_EQ(lazy.sim.events_executed(), eager.sim.events_executed());
  // The lazy engine postponed the later re-arms instead of cancelling.
  EXPECT_LT(lazy.sim.loop_stats().cancelled,
            eager.sim.loop_stats().cancelled);
  EXPECT_LT(lazy.sim.loop_stats().scheduled, eager.sim.loop_stats().scheduled);
}

// ---- Cancel semantics against the model --------------------------------

TEST(SchedulerProperty, CancelSemanticsMatchQueueRemoval) {
  Simulator sim;
  int fired = 0;
  const EventId a = sim.schedule_after(100, [&] { ++fired; });
  const EventId b = sim.schedule_after(100, [&] { ++fired; });
  const EventId far = sim.schedule_after(seconds(10), [&] { ++fired; });

  EXPECT_TRUE(sim.cancel(b));
  EXPECT_FALSE(sim.cancel(b));  // double cancel
  EXPECT_TRUE(sim.cancel(far));
  EXPECT_FALSE(sim.cancel(far));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(a));  // cancel after execution
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Ids are generation-tagged: a slot reused by a new event must not make a
// stale id cancellable.
TEST(SchedulerProperty, StaleIdsNeverCancelReusedSlots) {
  Simulator sim;
  std::vector<EventId> stale;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 20; ++i) {
      ids.push_back(sim.schedule_after(10 + i, [] {}));
    }
    for (const EventId id : ids) EXPECT_TRUE(sim.cancel(id));
    stale.insert(stale.end(), ids.begin(), ids.end());
    // New events reuse the freed slots; stale ids must all be dead.
    std::vector<EventId> fresh;
    for (int i = 0; i < 20; ++i) {
      fresh.push_back(sim.schedule_after(10 + i, [] {}));
    }
    for (const EventId id : stale) EXPECT_FALSE(sim.cancel(id));
    for (const EventId id : fresh) EXPECT_TRUE(sim.cancel(id));
  }
}

}  // namespace
}  // namespace meshnet::sim
