#pragma once

// Fixed-size worker pool for fanning independent jobs across threads.
//
// The pool is deliberately minimal: submit() enqueues a job, wait_idle()
// blocks until every submitted job has finished. Jobs must be independent
// (the pool gives no ordering guarantees between them); anything that needs
// a deterministic result must derive it from the job's *inputs*, not from
// scheduling — which is exactly the contract workload::SweepRunner builds
// on. A job that throws stores the first exception, which wait_idle()
// rethrows on the caller's thread.

#include <cstddef>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace meshnet::util {

/// Process-wide accounting of worker threads, shared by every layer that
/// spawns parallelism, so nested parallel layers do not oversubscribe the
/// host. The failure mode this exists for: `sweep_runner --threads N`
/// fans sweep points across a ThreadPool, and each MESHSCALE point
/// internally builds a multi-cell sim::ParallelEngine — without a shared
/// budget that spawns N*M threads on an N-core box and everything
/// thrashes.
///
/// Protocol:
///  * Top-level pools (the user's explicit --threads choice) REGISTER
///    their workers via acquire(n, n): they are never clamped, they just
///    make their concurrency visible.
///  * Nested engines acquire their *extra* workers with acquire(m, 0)
///    and run with whatever was granted. Clamping is always safe for
///    them because engine results are thread-count-invariant by design;
///    only wall-clock changes.
///
/// The limit defaults to the hardware thread count; release() must return
/// exactly what acquire() granted.
class WorkerBudget {
 public:
  /// The process-wide instance every pool/engine shares.
  static WorkerBudget& global();

  WorkerBudget() = default;
  WorkerBudget(const WorkerBudget&) = delete;
  WorkerBudget& operator=(const WorkerBudget&) = delete;

  /// Sets the total worker limit (0 = hardware concurrency, the default).
  void set_limit(int workers);
  int limit() const;

  /// Workers currently registered/granted.
  int in_use() const;

  /// Grants between `minimum` and `requested` workers, never pushing
  /// in_use above the limit unless `minimum` itself requires it (a
  /// caller that must make progress — e.g. a pool needing one worker —
  /// may exceed the limit by its minimum). Returns the grant, which the
  /// caller must eventually release().
  int acquire(int requested, int minimum);

  void release(int granted);

 private:
  mutable std::mutex mutex_;
  int limit_ = 0;  ///< 0 = hardware concurrency
  int in_use_ = 0;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers; values < 1 are clamped to 1, and 0 means
  /// "one per hardware thread" (at least 1).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job. Safe to call from any thread, including from inside
  /// a running job.
  void submit(std::function<void()> job);

  /// Blocks until the queue is empty and all workers are idle. Rethrows
  /// the first exception any job raised since the last wait_idle().
  void wait_idle();

  int thread_count() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// The worker count a `threads` option resolves to (0 => hardware).
  static int resolve_thread_count(int requested);

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
  int budget_granted_ = 0;  ///< registered with WorkerBudget::global()
};

}  // namespace meshnet::util
