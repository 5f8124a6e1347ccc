#pragma once

// Conservative parallel discrete-event engine (Chandy–Misra–Bryant-style
// barrier epochs over sharded sim::Simulator instances).
//
// The topology is partitioned into S shards, each owning one unmodified
// zero-alloc Simulator (DESIGN.md §7) and all state of the services,
// links and timers assigned to it. Cross-shard interactions are only
// allowed through post(): the sender appends a task, stamped with its
// delivery time, to its own shard's outbox. The delivery time must be at
// least `lookahead` after the sender's clock — in mesh terms, the
// propagation latency of the cut link the event is crossing.
//
// Epoch protocol (run_until):
//   1. T      = min over shards of next_event_time()    (global min).
//   2. E      = min(deadline, T + lookahead - 1)        (epoch horizon).
//   3. Every shard independently runs run_until(E) — no shared state,
//      one executor thread per block of shards. Any event it executes
//      has time t in [T, E], so any cross-shard message it emits is
//      delivered at t + lookahead > E: never inside this epoch.
//   4. Barrier. The coordinator joins every outbox, sorts the batch by
//      the canonical (delivery time, source shard, send sequence) key,
//      and schedules each task into its destination shard in that order.
//   5. Repeat until no shard holds an event at or before the deadline.
//
// An outbox needs no synchronization of its own: only the executor
// running its shard appends to it, during an epoch, and only the
// coordinator drains it, between epochs. The std::barrier every executor
// passes twice per epoch (start, done) orders the two.
//
// Determinism: epoch horizons are pure functions of simulator state,
// shard execution is sequential within an epoch, and step 4's canonical
// order fixes the destination's tie-breaking seq assignment — so for a
// fixed shard count the run is bit-identical at any worker thread count
// (threads only change which host thread executes a shard, never what it
// observes). The thread-invariance goldens rely on exactly this.
//
// Safety rails: while an executor runs a shard (and while the
// coordinator injects into one), a Simulator::ShardGuard is armed, so a
// partitioning bug that schedules straight onto a foreign shard throws
// std::logic_error instead of silently racing; posts whose delivery time
// violates the lookahead also throw. An error on a worker thread is
// rethrown to the run_until caller.

#include <barrier>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "sim/inline_task.h"
#include "sim/loop_stats.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace meshnet::sim {

struct ParallelEngineOptions {
  /// Number of shards (fixed by the partition; results depend on it).
  int shards = 1;

  /// Conservative lookahead window: the minimum latency of any cut link.
  /// Every cross-shard post must deliver at least this far after the
  /// sender's clock. Must be >= 1 ns.
  Duration lookahead = 1;

  /// Worker threads to execute shards on (0 = one per hardware thread).
  /// Clamped to the shard count, and — when respect_worker_budget is set
  /// — to what util::WorkerBudget::global() grants, so nested use under
  /// a sweep pool cannot oversubscribe the host. Results never depend on
  /// this value.
  int threads = 1;

  /// Opt out of the shared worker budget (top-level benchmarks that are
  /// explicitly measuring N-thread wall clock set this to false).
  bool respect_worker_budget = true;
};

struct ParallelEngineStats {
  std::uint64_t epochs = 0;    ///< barrier rounds executed
  std::uint64_t messages = 0;  ///< cross-shard tasks delivered
};

class ParallelEngine {
 public:
  explicit ParallelEngine(ParallelEngineOptions options);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  int shard_count() const noexcept {
    return static_cast<int>(shards_.size());
  }

  /// Executor threads actually used (after budget/shard clamping),
  /// including the calling thread.
  int executor_count() const noexcept { return executors_; }

  /// Executors an engine runs when it ignores the worker budget:
  /// `threads` resolved (0 = one per hardware thread), clamped to
  /// `shards`. The budget can only lower it.
  static int unbudgeted_executors(int threads, int shards);

  Duration lookahead() const noexcept { return options_.lookahead; }

  /// The shard's simulator: build shard-local state against it, and read
  /// clocks/stats from it after a run.
  Simulator& shard(int index) { return *shards_[index].sim; }
  const Simulator& shard(int index) const { return *shards_[index].sim; }

  /// Posts `task` for execution on shard `dst` at absolute time `when`.
  /// Must be called from shard `src`'s execution context during a run
  /// (the engine arms a ShardGuard; this is the only legal way to cross
  /// shards). Throws std::logic_error if `when` is closer than the
  /// lookahead to the source clock.
  void post(int src, int dst, Time when, InlineTask task);

  /// Runs every shard until simulated time strictly exceeds `deadline`
  /// (events at exactly `deadline` run, matching Simulator::run_until).
  /// All shard clocks end at `deadline`. May be called repeatedly with
  /// increasing deadlines.
  void run_until(Time deadline);

  /// Sum of events executed across shards (deterministic).
  std::uint64_t events_executed() const noexcept;

  /// Order-independent fold of every shard's loop profile.
  LoopStats merged_loop_stats() const;

  /// Deterministic synchronization counters.
  const ParallelEngineStats& stats() const noexcept { return stats_; }

 private:
  struct Message {
    Time when = 0;
    std::uint32_t src = 0;
    std::uint64_t seq = 0;  ///< send order: position in the source outbox
    std::uint32_t dst = 0;
    InlineTask task;
  };

  /// A shard's simulator and send state, on its own cache line so that
  /// executors appending to neighbouring outboxes never share one.
  struct alignas(64) Shard {
    std::unique_ptr<Simulator> sim;
    std::vector<Message> outbox;  ///< this epoch's posts, in send order
  };

  /// Runs executor `executor`'s contiguous block of shards to `horizon`.
  void run_block(int executor, Time horizon);
  void worker_loop(int executor);
  void run_epoch(Time horizon);
  void inject_messages(Time horizon);

  ParallelEngineOptions options_;
  std::vector<Shard> shards_;
  ParallelEngineStats stats_;
  std::vector<Message> batch_;  ///< reused barrier scratch

  int executors_ = 1;
  int budget_granted_ = 0;

  // Executor coordination (only used when executors_ > 1). The
  // coordinator writes horizon_ and quit_ before the start phase; each
  // executor writes only its own error slot, read after the done phase.
  std::unique_ptr<std::barrier<>> barrier_;
  Time horizon_ = 0;
  bool quit_ = false;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> workers_;
};

}  // namespace meshnet::sim
