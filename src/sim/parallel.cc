#include "sim/parallel.h"

#include <algorithm>
#include <utility>

#include "util/thread_pool.h"

namespace meshnet::sim {

ParallelEngine::ParallelEngine(ParallelEngineOptions options) {
  const int shards = std::max(options.shards, 1);
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }

  const int requested = unbudgeted_executors(options.threads, shards);
  if (options.respect_worker_budget) {
    // The calling thread is executor 0 and is not a new worker; only the
    // extras count against the shared budget. A grant of zero degrades
    // to sequential execution with identical results.
    budget_granted_ =
        util::WorkerBudget::global().acquire(requested - 1, 0);
    executors_ = 1 + budget_granted_;
  } else {
    executors_ = requested;
  }
  if (executors_ > 1) {
    barrier_ = std::make_unique<std::barrier<>>(executors_);
    errors_.resize(static_cast<std::size_t>(executors_));
    workers_.reserve(static_cast<std::size_t>(executors_ - 1));
    for (int executor = 1; executor < executors_; ++executor) {
      workers_.emplace_back([this, executor] { worker_loop(executor); });
    }
  }
}

int ParallelEngine::unbudgeted_executors(int threads, int shards) {
  return std::min(util::ThreadPool::resolve_thread_count(threads), shards);
}

ParallelEngine::~ParallelEngine() {
  if (!workers_.empty()) {
    quit_ = true;
    barrier_->arrive_and_wait();  // start phase: workers see quit_
    for (std::thread& worker : workers_) worker.join();
  }
  util::WorkerBudget::global().release(budget_granted_);
}

void ParallelEngine::run_block(int executor, Time deadline) {
  // Contiguous cell blocks per executor; executor 0 is the caller.
  const int shards = shard_count();
  const int last = shards * (executor + 1) / executors_;
  for (int index = shards * executor / executors_; index < last; ++index) {
    Simulator& sim = *shards_[static_cast<std::size_t>(index)];
    Simulator::ShardGuard guard(&sim);
    sim.run_until(deadline);
  }
}

void ParallelEngine::worker_loop(int executor) {
  for (;;) {
    barrier_->arrive_and_wait();  // start
    if (quit_) return;
    try {
      run_block(executor, deadline_);
    } catch (...) {
      errors_[static_cast<std::size_t>(executor)] = std::current_exception();
    }
    barrier_->arrive_and_wait();  // done
  }
}

void ParallelEngine::run_until(Time deadline) {
  ++stats_.epochs;
  if (executors_ <= 1) {
    run_block(0, deadline);
    return;
  }
  deadline_ = deadline;
  barrier_->arrive_and_wait();  // start
  try {
    run_block(0, deadline);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  barrier_->arrive_and_wait();  // done
  for (std::exception_ptr& error : errors_) {
    if (error) std::rethrow_exception(std::exchange(error, nullptr));
  }
}

std::uint64_t ParallelEngine::events_executed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->events_executed();
  return total;
}

LoopStats ParallelEngine::merged_loop_stats() const {
  LoopStats merged;
  for (const auto& shard : shards_) merged.merge(shard->loop_stats());
  return merged;
}

}  // namespace meshnet::sim
