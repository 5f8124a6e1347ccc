#pragma once

// Lightweight event-loop profiler. The simulator updates these counters
// inline (a handful of integer ops per event, no allocation, no clock
// reads), so they are deterministic: two identical runs produce identical
// LoopStats. Wall-clock throughput (events/sec) is derived by the bench
// harness from `executed` and host wall time, and is reported under a
// "wall_" name so baselines never compare it.

#include <array>
#include <cstddef>
#include <cstdint>

namespace meshnet::sim {

/// A sim::Timer re-arm that postpones its event counts as no schedule and
/// no cancel; the event's re-insert when its stale entry surfaces counts
/// as a heap push, wheel push or due merge like any other insert.
struct LoopStats {
  std::uint64_t scheduled = 0;        ///< schedule_at/schedule_after calls
  std::uint64_t executed = 0;         ///< events fired
  std::uint64_t cancelled = 0;        ///< successful cancel() calls
  std::uint64_t heap_pushes = 0;      ///< far timers sent to the 4-ary heap
  std::uint64_t wheel_pushes = 0;     ///< short timers sent to the wheel
  std::uint64_t due_merges = 0;       ///< inserts into the active due run
  std::uint64_t task_heap_allocs = 0; ///< InlineTask captures > inline buffer
  std::uint64_t heap_compactions = 0; ///< tombstone purges of the heap
  std::uint64_t wheel_compactions = 0;///< tombstone purges of the wheel
  std::uint64_t max_queue_depth = 0;  ///< peak live pending events

  /// Queue-depth histogram: bucket i counts events that fired while the
  /// number of live pending events was in [2^i, 2^(i+1)); bucket 0 also
  /// holds depth 0.
  static constexpr std::size_t kDepthBuckets = 24;
  std::array<std::uint64_t, kDepthBuckets> depth_histogram{};

  void record_depth(std::size_t depth) noexcept {
    if (depth > max_queue_depth) max_queue_depth = depth;
    std::size_t bucket = 0;
    while ((std::size_t{1} << (bucket + 1)) <= depth &&
           bucket + 1 < kDepthBuckets) {
      ++bucket;
    }
    ++depth_histogram[bucket];
  }

  /// Order-independent fold of another loop's counters, used by the
  /// parallel engine to merge per-shard profiles into one snapshot.
  /// Counters sum; max_queue_depth takes the max of the per-loop maxima
  /// (the merged value is "deepest any one shard ever got", not a
  /// simultaneous global depth).
  void merge(const LoopStats& other) noexcept {
    scheduled += other.scheduled;
    executed += other.executed;
    cancelled += other.cancelled;
    heap_pushes += other.heap_pushes;
    wheel_pushes += other.wheel_pushes;
    due_merges += other.due_merges;
    task_heap_allocs += other.task_heap_allocs;
    heap_compactions += other.heap_compactions;
    wheel_compactions += other.wheel_compactions;
    if (other.max_queue_depth > max_queue_depth) {
      max_queue_depth = other.max_queue_depth;
    }
    for (std::size_t i = 0; i < kDepthBuckets; ++i) {
      depth_histogram[i] += other.depth_histogram[i];
    }
  }
};

}  // namespace meshnet::sim
