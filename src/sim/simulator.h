#pragma once

// Deterministic single-threaded discrete-event simulator.
//
// Components schedule callbacks at absolute or relative simulated times.
// Events at the same timestamp run in scheduling order (a monotonically
// increasing sequence number breaks ties), which makes runs bit-for-bit
// reproducible.
//
// A component that owns a timeout holds a sim::Timer (sim/timer.h), not a
// raw EventId: the timer keeps at most one event pending, postpones it in
// place when re-armed for a later time (postpone()), and cancels it when
// re-armed for an earlier time and on destruction.
//
// Hot-path layout (see DESIGN.md "Performance model"):
//
//  - Callables are stored in a slab of generation-tagged slots as
//    InlineTask (no allocation for captures <= 48 bytes). An EventId is
//    (generation << 32) | (slot + 1), so cancel() is an O(1) tag check
//    that frees the slot (and the callable's captures) immediately.
//  - Pending events are 24-byte {when, seq, slot, gen} entries held in
//    either a hierarchical timer wheel (3 levels x 64 slots, 8.192 us
//    base tick — the short retry/pacing/transmission delays that
//    dominate) or a 4-ary min-heap for far timers. Entries whose slot
//    generation no longer matches are tombstones, skipped on pop;
//    the heap and wheel compact lazily once tombstones exceed half
//    their population, so cancelled far-future timers cannot
//    accumulate.
//  - A postponed event keeps its queued entry: the slot takes the new
//    callable and a flag, a side table the new (when, seq), and when the
//    stale entry surfaces it is re-inserted at that key instead of
//    firing. The seq is drawn at postpone() time, so the order is the
//    one a cancel plus a fresh schedule would give.
//  - Execution order is always resolved by exact (when, seq)
//    comparisons: the wheel drains one tick at a time into a sorted
//    "due" run that is merge-compared against the heap top, so the
//    data-structure split never changes the event order the old
//    priority-queue implementation produced.

#include <array>
#include <cstdint>
#include <vector>

#include "sim/inline_task.h"
#include "sim/loop_stats.h"
#include "sim/time.h"

namespace meshnet::sim {

/// Identifies a scheduled event so it can be cancelled (timers).
using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  /// Returned by next_event_time() when the queue is empty.
  static constexpr Time kNoEventTime = INT64_MIN;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const noexcept { return now_; }

  /// Absolute time of the earliest live pending event, or kNoEventTime
  /// when nothing is scheduled. Prunes tombstones lazily but never
  /// executes events or advances the clock.
  Time next_event_time();

  /// Shard-affinity guard (see sim/parallel.h). While a ShardGuard for
  /// simulator S is armed on the current thread, schedule_at /
  /// schedule_after / cancel on any *other* simulator throw
  /// std::logic_error: the parallel engine's cells are independent, so
  /// a component that touches another cell's event queue is a bug that
  /// would otherwise break determinism (and thread safety) silently.
  /// Unarmed threads (every single-simulator program) pay one
  /// thread-local load + branch per schedule.
  class ShardGuard {
   public:
    explicit ShardGuard(const Simulator* active) noexcept
        : previous_(t_active_shard_) {
      t_active_shard_ = active;
    }
    ~ShardGuard() { t_active_shard_ = previous_; }
    ShardGuard(const ShardGuard&) = delete;
    ShardGuard& operator=(const ShardGuard&) = delete;

   private:
    const Simulator* previous_;
  };

  /// Schedules `fn` to run at absolute time `when` (clamped to now()).
  EventId schedule_at(Time when, InlineTask fn);

  /// Schedules `fn` to run `delay` after now() (negative delays are
  /// clamped to zero).
  EventId schedule_after(Duration delay, InlineTask fn);

  /// Cancels a pending event. Safe to call with an id that already fired
  /// or was already cancelled (no-op). Returns true if the event was
  /// pending and is now cancelled.
  bool cancel(EventId id);

  /// True while `id` is scheduled and has neither fired nor been
  /// cancelled (the generation-tag check cancel() makes). An event's
  /// slot is freed before it runs, so this is false inside its callback.
  bool pending(EventId id) const noexcept {
    const auto index_plus_one = static_cast<std::uint32_t>(id);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    return index_plus_one != 0 && index_plus_one <= slots_.size() &&
           slots_[index_plus_one - 1].gen == gen;
  }

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Runs until simulated time strictly exceeds `deadline` or the queue
  /// drains. The clock ends at `deadline`, also when stop() ends the run
  /// early.
  void run_until(Time deadline);

  /// Requests that run()/run_until() return after the current event.
  void stop() noexcept { stopped_ = true; }

  /// Number of events executed so far (for diagnostics and tests).
  std::uint64_t events_executed() const noexcept { return stats_.executed; }

  /// Number of events currently pending (scheduled, not fired, not
  /// cancelled).
  std::size_t pending_events() const noexcept { return live_count_; }

  /// Engine throughput counters (deterministic; see sim/loop_stats.h).
  const LoopStats& loop_stats() const noexcept { return stats_; }

 private:
  friend class Timer;

  /// sim::Timer's re-arm for a time `when` at or after the pending
  /// event's current time, which the timer tracks (the engine keeps no
  /// per-event time outside its queue entries). Replaces the callable
  /// with `fn` and keeps the id and the queue entry: no cancel, no
  /// insert. The event then runs exactly where a cancel plus
  /// schedule_at(when, fn) would have put it, because the (when, seq)
  /// it will be re-inserted at is drawn now. Returns false, leaving `fn`
  /// untouched, when `id` is not pending. The replaced callable is
  /// released before this returns.
  bool postpone(EventId id, Time when, InlineTask& fn);

  // -- timer wheel geometry ------------------------------------------------
  static constexpr int kTickBits = 13;  ///< 8.192 us per level-0 tick
  static constexpr int kSlotBits = 6;   ///< 64 slots per level
  static constexpr int kWheelLevels = 3;
  static constexpr int kWheelSlots = 1 << kSlotBits;
  static constexpr int kSlotMask = kWheelSlots - 1;
  // Delays beyond the level-2 window (~2.1 s) go to the 4-ary heap.
  /// Lazy-compaction floor: below this population tombstones are
  /// harmless and a rebuild would cost more than it saves.
  static constexpr std::size_t kCompactMin = 64;

  static constexpr Time kNoEvent = kNoEventTime;
  static constexpr Time kNoHorizon = -1;
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  enum class Where : std::uint8_t { kHeap, kWheel, kDue };

  struct Slot {
    InlineTask task;
    std::uint32_t gen = 1;             ///< bumped on free; tags EventIds
    std::uint32_t next_free = kNilSlot;
    Where where = Where::kHeap;
    /// The queued entry is stale: the event runs at postponed_[slot].
    bool postponed = false;
  };

  /// Where a postponed event runs. Kept beside the slots, not in them:
  /// only postpone() and requeue() read it, and every event touches its
  /// slot, which stays small.
  struct Postponement {
    Time when;
    std::uint64_t seq;
  };

  /// 24-byte pending-event reference; the callable stays in its slot.
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static bool entry_less(const Entry& a, const Entry& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  bool dead(const Entry& e) const noexcept {
    return slots_[e.slot].gen != e.gen;
  }

  /// A live entry whose event was postponed past it.
  bool stale(const Entry& e) const noexcept {
    return slots_[e.slot].postponed;
  }

  std::int64_t cur_tick() const noexcept { return now_ >> kTickBits; }

  /// Trips when a ShardGuard for a different simulator is armed on this
  /// thread (cold path lives in the .cc).
  void check_shard_affinity() const {
    if (t_active_shard_ != nullptr && t_active_shard_ != this) {
      throw_cross_shard_access();
    }
  }
  [[noreturn]] void throw_cross_shard_access() const;

  /// Inline with its initializer, so every translation unit sees a
  /// constant-initialized thread-local and accesses it directly (no TLS
  /// init wrapper, which UBSan's null check trips over).
  static inline thread_local const Simulator* t_active_shard_ = nullptr;

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t index) noexcept;

  void insert_entry(const Entry& e);
  /// Re-inserts a stale entry where its event was postponed to.
  void requeue(Entry e);
  void wheel_insert(int level, const Entry& e);

  void heap_push(const Entry& e);
  Entry heap_pop();
  void heap_sift_down(std::size_t i);
  void compact_heap();
  void compact_wheel();

  /// Minimal pending tick held by the wheel, or -1 if the wheel is
  /// empty. Prunes dead entries from the buckets it inspects so the
  /// occupancy bitmaps stay truthful.
  std::int64_t wheel_min_tick();

  /// Moves every wheel entry at exactly `tick` into the sorted due run.
  void drain_tick(std::int64_t tick);

  /// Time of the next live event (draining/pruning lazily as needed), or
  /// kNoEvent when everything ran. take_next() must follow with no
  /// intervening mutation.
  Time next_when();
  Entry take_next();
  void fire(const Entry& e);
  void run_loop(Time deadline);

  Time now_ = 0;
  bool stopped_ = false;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  LoopStats stats_;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::vector<Postponement> postponed_;  ///< indexed by slot; grown lazily

  std::vector<Entry> heap_;  ///< 4-ary min-heap ordered by (when, seq)
  std::size_t heap_tombstones_ = 0;

  std::array<std::array<std::vector<Entry>, kWheelSlots>, kWheelLevels>
      wheel_;
  std::array<std::uint64_t, kWheelLevels> occupancy_{};
  std::size_t wheel_entries_ = 0;
  std::size_t wheel_tombstones_ = 0;

  /// The currently draining wheel tick, sorted by (when, seq) and
  /// consumed from due_head_. Active while due_horizon_ >= 0: new events
  /// below the horizon merge in to preserve global order.
  std::vector<Entry> due_;
  std::size_t due_head_ = 0;
  Time due_horizon_ = kNoHorizon;
};

}  // namespace meshnet::sim
