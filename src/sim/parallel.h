#pragma once

// Parallel engine of independent cells: S unmodified zero-alloc
// sim::Simulator instances (DESIGN.md §7), each owning every service,
// link and timer of one cell. Cells never exchange events, so each
// run_until is one round: every executor advances its contiguous block
// of cells to the deadline, and the caller waits for all of them.
//
// Determinism: a cell's run depends only on its own simulator, so for a
// fixed cell count the run is bit-identical at any worker thread count
// and however run_until is sliced (threads only change which host
// thread executes a cell, never what it observes).
//
// Safety rail: while an executor runs a cell, a Simulator::ShardGuard is
// armed, so a component that schedules onto a foreign cell throws
// std::logic_error instead of silently racing. An error on a worker
// thread is rethrown to the run_until caller.

#include <barrier>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "sim/loop_stats.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace meshnet::sim {

struct ParallelEngineOptions {
  /// Number of cells (results depend on it).
  int shards = 1;

  /// Read by nothing: cells never exchange events, so there is no
  /// window to bound. Kept because perfbench still sets it.
  Duration lookahead = 1;

  /// Worker threads to execute cells on (0 = one per hardware thread).
  /// Clamped to the cell count, and — when respect_worker_budget is set
  /// — to what util::WorkerBudget::global() grants, so nested use under
  /// a sweep pool cannot oversubscribe the host. Results never depend on
  /// this value.
  int threads = 1;

  /// Opt out of the shared worker budget (top-level benchmarks that are
  /// explicitly measuring N-thread wall clock set this to false).
  bool respect_worker_budget = true;
};

struct ParallelEngineStats {
  std::uint64_t epochs = 0;  ///< run_until rounds executed
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

  /// Executor threads actually used (after budget/cell clamping),
  /// including the calling thread.
  int executor_count() const noexcept { return executors_; }

  /// The cell's simulator: build cell-local state against it, and read
  /// clocks/stats from it after a run.
  Simulator& shard(int index) { return *shards_[index]; }
  const Simulator& shard(int index) const { return *shards_[index]; }

  /// Runs every cell until simulated time strictly exceeds `deadline`
  /// (events at exactly `deadline` run, matching Simulator::run_until).
  /// All cell clocks end at `deadline`. May be called repeatedly with
  /// increasing deadlines.
  void run_until(Time deadline);

  /// Sum of events executed across cells (deterministic).
  std::uint64_t events_executed() const noexcept;

  /// Order-independent fold of every cell's loop profile.
  LoopStats merged_loop_stats() const;

  /// Deterministic round counter.
  const ParallelEngineStats& stats() const noexcept { return stats_; }

 private:
  /// Executors an engine runs when it ignores the worker budget:
  /// `threads` resolved (0 = one per hardware thread), clamped to
  /// `shards`. The budget can only lower it.
  static int unbudgeted_executors(int threads, int shards);

  /// Runs executor `executor`'s contiguous block of cells to `deadline`.
  void run_block(int executor, Time deadline);
  void worker_loop(int executor);

  std::vector<std::unique_ptr<Simulator>> shards_;
  ParallelEngineStats stats_;

  int executors_ = 1;
  int budget_granted_ = 0;

  // Executor coordination (only used when executors_ > 1). The caller
  // writes deadline_ and quit_ before the start phase; each executor
  // writes only its own error slot, read after the done phase.
  std::unique_ptr<std::barrier<>> barrier_;
  Time deadline_ = 0;
  bool quit_ = false;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> workers_;
};

}  // namespace meshnet::sim
