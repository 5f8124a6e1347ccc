#include "sim/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.h"

namespace meshnet::sim {

/// Epoch barrier shared between the coordinator (the run_until caller)
/// and the persistent workers. The mutex/condvar handoff establishes the
/// happens-before edges that make shard state and mailbox overflow
/// vectors safe to touch from the coordinator between epochs.
struct ParallelEngine::Sync {
  std::mutex mutex;
  std::condition_variable start_cv;
  std::condition_variable done_cv;
  std::uint64_t epoch = 0;  ///< generation counter; bumped to start work
  Time horizon = 0;
  int remaining = 0;  ///< workers still executing the current epoch
  bool quit = false;
  std::exception_ptr first_error;
};

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
  mailboxes_.reserve(shards_.size() * shards_.size());
  for (std::size_t i = 0; i < shards_.size() * shards_.size(); ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>(options_.mailbox_capacity));
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
  if (executors_ > 1) sync_ = std::make_unique<Sync>();
}

int ParallelEngine::unbudgeted_executors(int threads, int shards) {
  return std::min(util::ThreadPool::resolve_thread_count(threads), shards);
}

ParallelEngine::~ParallelEngine() {
  if (workers_started_) {
    {
      std::lock_guard<std::mutex> lock(sync_->mutex);
      sync_->quit = true;
    }
    sync_->start_cv.notify_all();
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
  Message message{when, source.next_send_seq++, std::move(task)};
  Mailbox& box = mailbox(src, dst);
  if (!box.ring.try_push(message)) {
    // Ring full: spill producer-side. Nothing drains the ring until the
    // barrier, so every later message this epoch lands behind it in the
    // overflow — per-producer order is preserved. The spill is counted at
    // the barrier (post() runs concurrently across workers; stats_ is
    // coordinator-owned).
    box.overflow.push_back(std::move(message));
  }
}

void ParallelEngine::run_shard_range(int first, int last, Time horizon) {
  for (int index = first; index < last; ++index) {
    Simulator& sim = *shards_[static_cast<std::size_t>(index)].sim;
    Simulator::ShardGuard guard(&sim);
    sim.run_until(horizon);
  }
}

void ParallelEngine::worker_loop(int worker_index, int first_shard,
                                 int last_shard) {
  std::uint64_t seen = 0;
  for (;;) {
    Time horizon;
    {
      std::unique_lock<std::mutex> lock(sync_->mutex);
      sync_->start_cv.wait(
          lock, [&] { return sync_->quit || sync_->epoch != seen; });
      if (sync_->quit) return;
      seen = sync_->epoch;
      horizon = sync_->horizon;
    }
    try {
      run_shard_range(first_shard, last_shard, horizon);
    } catch (...) {
      std::lock_guard<std::mutex> lock(sync_->mutex);
      if (!sync_->first_error) sync_->first_error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(sync_->mutex);
      --sync_->remaining;
    }
    sync_->done_cv.notify_all();
    (void)worker_index;
  }
}

void ParallelEngine::start_workers() {
  if (workers_started_ || executors_ <= 1) return;
  workers_started_ = true;
  workers_.reserve(static_cast<std::size_t>(executors_ - 1));
  // Contiguous shard blocks per executor; executor 0 is the caller.
  const int shards = shard_count();
  for (int executor = 1; executor < executors_; ++executor) {
    const int first = shards * executor / executors_;
    const int last = shards * (executor + 1) / executors_;
    workers_.emplace_back(
        [this, executor, first, last] { worker_loop(executor, first, last); });
  }
}

void ParallelEngine::run_epoch(Time horizon) {
  if (executors_ <= 1) {
    run_shard_range(0, shard_count(), horizon);
    return;
  }
  start_workers();
  {
    std::lock_guard<std::mutex> lock(sync_->mutex);
    sync_->horizon = horizon;
    sync_->remaining = executors_ - 1;
    ++sync_->epoch;
  }
  sync_->start_cv.notify_all();
  run_shard_range(0, shard_count() / executors_, horizon);
  std::unique_lock<std::mutex> lock(sync_->mutex);
  sync_->done_cv.wait(lock, [&] { return sync_->remaining == 0; });
  if (sync_->first_error) {
    std::exception_ptr error = std::exchange(sync_->first_error, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ParallelEngine::inject_messages(Time horizon) {
  batch_.clear();
  const int shards = shard_count();
  for (int src = 0; src < shards; ++src) {
    for (int dst = 0; dst < shards; ++dst) {
      Mailbox& box = mailbox(src, dst);
      Message message;
      while (box.ring.try_pop(message)) {
        batch_.push_back(PendingDelivery{message.when,
                                         static_cast<std::uint32_t>(src),
                                         message.seq,
                                         static_cast<std::uint32_t>(dst),
                                         std::move(message.task)});
      }
      stats_.mailbox_overflows += box.overflow.size();
      for (Message& spilled : box.overflow) {
        batch_.push_back(PendingDelivery{spilled.when,
                                         static_cast<std::uint32_t>(src),
                                         spilled.seq,
                                         static_cast<std::uint32_t>(dst),
                                         std::move(spilled.task)});
      }
      box.overflow.clear();
    }
  }
  // Canonical cross-shard order: (time, source shard, send sequence).
  // The key is unique per source, so destinations assign their internal
  // tie-breaking seq numbers identically on every run.
  std::sort(batch_.begin(), batch_.end(),
            [](const PendingDelivery& a, const PendingDelivery& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (PendingDelivery& delivery : batch_) {
    if (delivery.when <= horizon) {
      throw std::logic_error(
          "ParallelEngine: mailbox message due inside the epoch that "
          "produced it — lookahead is larger than the actual cut-link "
          "latency");
    }
    Simulator& dst = *shards_[delivery.dst].sim;
    Simulator::ShardGuard guard(&dst);
    dst.schedule_at(delivery.when, std::move(delivery.task));
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
