#include "sim/parallel.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.h"

namespace meshnet::sim {

ParallelEngine::ParallelEngine(ParallelEngineOptions options)
    : options_(options) {
  if (options_.shards < 1) options_.shards = 1;
  if (options_.lookahead < 1) {
    throw std::invalid_argument("ParallelEngine: lookahead must be >= 1 ns");
  }
  shards_.resize(static_cast<std::size_t>(options_.shards));
  for (Shard& shard : shards_) {
    shard.sim = std::make_unique<Simulator>();
  }

  const int requested =
      unbudgeted_executors(options_.threads, options_.shards);
  if (options_.respect_worker_budget) {
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

void ParallelEngine::post(int src, int dst, Time when, InlineTask task) {
  Shard& source = shards_[static_cast<std::size_t>(src)];
  if (when < source.sim->now() + options_.lookahead) {
    throw std::logic_error(
        "ParallelEngine::post: delivery time violates the lookahead "
        "window (cut-link latency shorter than the configured lookahead, "
        "or a zero-latency cross-shard path)");
  }
  source.outbox.push_back(Message{when, static_cast<std::uint32_t>(src),
                                  source.outbox.size(),
                                  static_cast<std::uint32_t>(dst),
                                  std::move(task)});
}

void ParallelEngine::run_block(int executor, Time horizon) {
  // Contiguous shard blocks per executor; executor 0 is the caller.
  const int shards = shard_count();
  const int last = shards * (executor + 1) / executors_;
  for (int index = shards * executor / executors_; index < last; ++index) {
    Simulator& sim = *shards_[static_cast<std::size_t>(index)].sim;
    Simulator::ShardGuard guard(&sim);
    sim.run_until(horizon);
  }
}

void ParallelEngine::worker_loop(int executor) {
  for (;;) {
    barrier_->arrive_and_wait();  // start
    if (quit_) return;
    try {
      run_block(executor, horizon_);
    } catch (...) {
      errors_[static_cast<std::size_t>(executor)] = std::current_exception();
    }
    barrier_->arrive_and_wait();  // done
  }
}

void ParallelEngine::run_epoch(Time horizon) {
  if (executors_ <= 1) {
    run_block(0, horizon);
    return;
  }
  horizon_ = horizon;
  barrier_->arrive_and_wait();  // start
  try {
    run_block(0, horizon);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  barrier_->arrive_and_wait();  // done
  for (std::exception_ptr& error : errors_) {
    if (error) std::rethrow_exception(std::exchange(error, nullptr));
  }
}

void ParallelEngine::inject_messages(Time horizon) {
  for (Shard& shard : shards_) {
    batch_.insert(batch_.end(), std::make_move_iterator(shard.outbox.begin()),
                  std::make_move_iterator(shard.outbox.end()));
    shard.outbox.clear();
  }
  // Canonical cross-shard order: (time, source shard, send sequence).
  // The key is unique per source, so destinations assign their internal
  // tie-breaking seq numbers identically on every run.
  std::sort(batch_.begin(), batch_.end(),
            [](const Message& a, const Message& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (Message& message : batch_) {
    if (message.when <= horizon) {
      throw std::logic_error(
          "ParallelEngine: cross-shard message due inside the epoch that "
          "produced it — lookahead is larger than the actual cut-link "
          "latency");
    }
    Simulator& dst = *shards_[message.dst].sim;
    Simulator::ShardGuard guard(&dst);
    dst.schedule_at(message.when, std::move(message.task));
    ++stats_.messages;
  }
  batch_.clear();
}

void ParallelEngine::run_until(Time deadline) {
  for (;;) {
    Time next = Simulator::kNoEventTime;
    for (Shard& shard : shards_) {
      const Time when = shard.sim->next_event_time();
      if (when == Simulator::kNoEventTime) continue;
      if (next == Simulator::kNoEventTime || when < next) next = when;
    }
    if (next == Simulator::kNoEventTime || next > deadline) break;
    const Time reach = (next > INT64_MAX - options_.lookahead)
                           ? INT64_MAX
                           : next + options_.lookahead - 1;
    const Time horizon = std::min(deadline, reach);
    run_epoch(horizon);
    ++stats_.epochs;
    inject_messages(horizon);
  }
  // Nothing at or before the deadline remains anywhere; advance every
  // clock to the deadline (cheap, no events fire).
  for (Shard& shard : shards_) {
    Simulator::ShardGuard guard(shard.sim.get());
    shard.sim->run_until(deadline);
  }
}

std::uint64_t ParallelEngine::events_executed() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.sim->events_executed();
  return total;
}

LoopStats ParallelEngine::merged_loop_stats() const {
  LoopStats merged;
  for (const Shard& shard : shards_) merged.merge(shard.sim->loop_stats());
  return merged;
}

}  // namespace meshnet::sim
