#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace meshnet::sim {

void Simulator::throw_cross_shard_access() const {
  throw std::logic_error(
      "sim::Simulator: schedule/cancel on a simulator other than the "
      "shard armed on this thread — the parallel engine's cells are "
      "independent and must never schedule into one another");
}

namespace {

/// Earliest occupied slot index at or after `from` (wrapping), given a
/// per-level occupancy bitmap. Bitmap must be non-zero.
int next_occupied(std::uint64_t bitmap, int from) noexcept {
  const std::uint64_t ahead = bitmap >> from;
  if (ahead != 0) return from + std::countr_zero(ahead);
  return std::countr_zero(bitmap);
}

}  // namespace

Simulator::Simulator() {
  // Typical experiments keep a few hundred timers in flight; reserving
  // here keeps the first seconds of a run allocation-quiet too.
  slots_.reserve(256);
  heap_.reserve(64);
  due_.reserve(32);
}

Simulator::~Simulator() {
  // A pending task may own the last reference to a component whose
  // sim::Timer cancels on destruction, so tasks are released while the
  // slots and queues are still intact. Each is moved out first: a cancel
  // of its own id from inside its destruction then finds an empty slot.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    InlineTask task = std::move(slots_[i].task);
  }
}

std::uint32_t Simulator::alloc_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::free_slot(std::uint32_t index) noexcept {
  Slot& slot = slots_[index];
  slot.task.reset();  // release captures eagerly
  ++slot.gen;         // invalidates the EventId and any queued Entry
  slot.postponed = false;
  slot.next_free = free_head_;
  free_head_ = index;
}

EventId Simulator::schedule_at(Time when, InlineTask fn) {
  check_shard_affinity();
  if (when < now_) when = now_;
  if (fn.heap_allocated()) ++stats_.task_heap_allocs;
  const std::uint32_t slot_index = alloc_slot();
  Slot& slot = slots_[slot_index];
  slot.task = std::move(fn);
  ++stats_.scheduled;
  ++live_count_;
  if (live_count_ > stats_.max_queue_depth) {
    stats_.max_queue_depth = live_count_;
  }
  insert_entry(Entry{when, next_seq_++, slot_index, slot.gen});
  return (static_cast<EventId>(slot.gen) << 32) |
         static_cast<EventId>(slot_index + 1);
}

EventId Simulator::schedule_after(Duration delay, InlineTask fn) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::postpone(EventId id, Time when, InlineTask& fn) {
  check_shard_affinity();
  if (!pending(id)) return false;
  const auto index = static_cast<std::uint32_t>(id) - 1;
  if (index >= postponed_.size()) postponed_.resize(slots_.size());
  if (fn.heap_allocated()) ++stats_.task_heap_allocs;
  Slot& slot = slots_[index];
  InlineTask replaced = std::move(slot.task);
  slot.task = std::move(fn);
  slot.postponed = true;
  // The seq a cancel plus a fresh schedule_at would draw here.
  postponed_[index] = Postponement{when, next_seq_++};
  return true;
}

void Simulator::requeue(Entry e) {
  slots_[e.slot].postponed = false;
  const Postponement& to = postponed_[e.slot];
  insert_entry(Entry{to.when, to.seq, e.slot, e.gen});
}

bool Simulator::cancel(EventId id) {
  check_shard_affinity();
  if (!pending(id)) return false;
  const auto index = static_cast<std::uint32_t>(id) - 1;
  const Where where = slots_[index].where;
  free_slot(index);
  --live_count_;
  ++stats_.cancelled;
  // The queued Entry is now a tombstone: skipped when it surfaces, or
  // reclaimed by a lazy compaction once tombstones outnumber live
  // entries (cancelled far-future timers must not accumulate).
  if (where == Where::kHeap) {
    ++heap_tombstones_;
    if (heap_tombstones_ * 2 > heap_.size() && heap_.size() >= kCompactMin) {
      compact_heap();
    }
  } else if (where == Where::kWheel) {
    ++wheel_tombstones_;
    if (wheel_tombstones_ * 2 > wheel_entries_ &&
        wheel_entries_ >= kCompactMin) {
      compact_wheel();
    }
  }
  return true;
}

void Simulator::insert_entry(const Entry& e) {
  if (due_horizon_ != kNoHorizon && e.when < due_horizon_) {
    // The event lands inside the tick currently draining: merge it into
    // the due run to keep global (when, seq) order.
    const auto pos = std::upper_bound(due_.begin() + due_head_, due_.end(),
                                      e, entry_less);
    due_.insert(pos, e);
    slots_[e.slot].where = Where::kDue;
    ++stats_.due_merges;
    return;
  }
  // Pick the first level whose bucket-unit distance fits. Comparing in
  // bucket units (tick >> 6*level) rather than raw tick deltas keeps
  // every level's live window at exactly 64 distinct units, so a bucket
  // never mixes a near tick with one a whole wheel-turn later.
  const std::int64_t tick = e.when >> kTickBits;
  const std::int64_t cur = cur_tick();
  int level = -1;
  for (int candidate = 0; candidate < kWheelLevels; ++candidate) {
    if ((tick >> (kSlotBits * candidate)) - (cur >> (kSlotBits * candidate)) <
        kWheelSlots) {
      level = candidate;
      break;
    }
  }
  if (level >= 0) {
    wheel_insert(level, e);
  } else {
    heap_push(e);
    slots_[e.slot].where = Where::kHeap;
    ++stats_.heap_pushes;
  }
}

void Simulator::wheel_insert(int level, const Entry& e) {
  const int index = static_cast<int>(
      ((e.when >> kTickBits) >> (kSlotBits * level)) & kSlotMask);
  wheel_[level][index].push_back(e);
  occupancy_[level] |= std::uint64_t{1} << index;
  ++wheel_entries_;
  slots_[e.slot].where = Where::kWheel;
  ++stats_.wheel_pushes;
}

void Simulator::heap_push(const Entry& e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!entry_less(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

Simulator::Entry Simulator::heap_pop() {
  const Entry top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_sift_down(0);
  return top;
}

void Simulator::heap_sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) return;
    std::size_t best = i;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t child = first; child < last; ++child) {
      if (entry_less(heap_[child], heap_[best])) best = child;
    }
    if (best == i) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void Simulator::compact_heap() {
  std::erase_if(heap_, [this](const Entry& e) { return dead(e); });
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
      heap_sift_down(i);
    }
  }
  heap_tombstones_ = 0;
  ++stats_.heap_compactions;
}

void Simulator::compact_wheel() {
  for (int level = 0; level < kWheelLevels; ++level) {
    for (int index = 0; index < kWheelSlots; ++index) {
      auto& bucket = wheel_[level][index];
      if (bucket.empty()) continue;
      const std::size_t before = bucket.size();
      std::erase_if(bucket, [this](const Entry& e) { return dead(e); });
      wheel_entries_ -= before - bucket.size();
      if (bucket.empty()) {
        occupancy_[level] &= ~(std::uint64_t{1} << index);
      }
    }
  }
  wheel_tombstones_ = 0;
  ++stats_.wheel_compactions;
}

std::int64_t Simulator::wheel_min_tick() {
  std::int64_t best = -1;
  const std::int64_t cur = cur_tick();
  for (int level = 0; level < kWheelLevels; ++level) {
    for (;;) {
      if (occupancy_[level] == 0) break;
      const int cur_index =
          static_cast<int>((cur >> (kSlotBits * level)) & kSlotMask);
      const int index = next_occupied(occupancy_[level], cur_index);
      auto& bucket = wheel_[level][index];
      const std::size_t before = bucket.size();
      std::erase_if(bucket, [this](const Entry& e) { return dead(e); });
      const std::size_t removed = before - bucket.size();
      wheel_entries_ -= removed;
      wheel_tombstones_ -= std::min(wheel_tombstones_, removed);
      if (bucket.empty()) {
        occupancy_[level] &= ~(std::uint64_t{1} << index);
        continue;  // bucket was all tombstones; rescan the level
      }
      std::int64_t min_tick = bucket.front().when >> kTickBits;
      for (const Entry& e : bucket) {
        min_tick = std::min(min_tick, e.when >> kTickBits);
      }
      if (best < 0 || min_tick < best) best = min_tick;
      break;
    }
  }
  return best;
}

void Simulator::drain_tick(std::int64_t tick) {
  // Entries at `tick` can sit at any level (a long delay shrinks as the
  // clock advances without ever being re-bucketed), but within a level
  // the slot index is a pure function of the tick.
  for (int level = 0; level < kWheelLevels; ++level) {
    const int index =
        static_cast<int>((tick >> (kSlotBits * level)) & kSlotMask);
    if ((occupancy_[level] & (std::uint64_t{1} << index)) == 0) continue;
    auto& bucket = wheel_[level][index];
    std::erase_if(bucket, [&](const Entry& e) {
      if (dead(e)) {
        --wheel_entries_;
        wheel_tombstones_ -= std::min<std::size_t>(wheel_tombstones_, 1);
        return true;
      }
      if ((e.when >> kTickBits) == tick) {
        due_.push_back(e);
        slots_[e.slot].where = Where::kDue;
        --wheel_entries_;
        return true;
      }
      return false;
    });
    if (bucket.empty()) occupancy_[level] &= ~(std::uint64_t{1} << index);
  }
  std::sort(due_.begin(), due_.end(), entry_less);
  due_horizon_ = (tick + 1) << kTickBits;
}

Time Simulator::next_when() {
  for (;;) {
    while (due_head_ < due_.size() && dead(due_[due_head_])) ++due_head_;
    while (!heap_.empty() && dead(heap_.front())) {
      heap_pop();
      if (heap_tombstones_ > 0) --heap_tombstones_;
    }
    bool from_heap = true;
    if (due_head_ < due_.size()) {
      from_heap = !heap_.empty() && entry_less(heap_.front(), due_[due_head_]);
    } else {
      // Current due run exhausted; the wheel may hold the next tick. The
      // heap wins outright only when its top fires strictly before every
      // wheel tick — on a tie the tick is drained so heap and wheel
      // events merge in exact (when, seq) order.
      due_.clear();
      due_head_ = 0;
      due_horizon_ = kNoHorizon;
      if (wheel_entries_ > 0) {
        const std::int64_t best = wheel_min_tick();
        if (best >= 0 &&
            (heap_.empty() || (heap_.front().when >> kTickBits) >= best)) {
          drain_tick(best);
          continue;
        }
      }
      if (heap_.empty()) return kNoEvent;
    }
    const Entry& next = from_heap ? heap_.front() : due_[due_head_];
    if (!stale(next)) return next.when;
    // A postponed event's entry surfaced: move it on, fire nothing.
    requeue(from_heap ? heap_pop() : due_[due_head_++]);
  }
}

Simulator::Entry Simulator::take_next() {
  if (due_head_ < due_.size()) {
    const Entry& front = due_[due_head_];
    if (!heap_.empty() && entry_less(heap_.front(), front)) {
      return heap_pop();
    }
    return due_[due_head_++];
  }
  return heap_pop();
}

void Simulator::fire(const Entry& e) {
  InlineTask task = std::move(slots_[e.slot].task);
  free_slot(e.slot);
  --live_count_;
  ++stats_.executed;
  stats_.record_depth(live_count_);
  task();
}

void Simulator::run_loop(Time deadline) {
  stopped_ = false;
  while (!stopped_) {
    const Time when = next_when();
    if (when == kNoEvent) break;
    if (when > deadline) {
      now_ = deadline;
      return;
    }
    const Entry e = take_next();
    now_ = e.when;
    fire(e);
  }
}

Time Simulator::next_event_time() { return next_when(); }

void Simulator::run() { run_loop(INT64_MAX); }

void Simulator::run_until(Time deadline) {
  run_loop(deadline);
  if (now_ < deadline) now_ = deadline;
}

}  // namespace meshnet::sim
