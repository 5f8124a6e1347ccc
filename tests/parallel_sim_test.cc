// Tests for the parallel engine of independent cells (sim/parallel.h):
// the shared worker budget, the cross-cell safety guard and worker error
// handoff, and the determinism property the engine stands on — each
// cell's run is the same at any thread count and however run_until is
// sliced — checked on seeded cells and on the MESHSCALE report.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "sim/parallel.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "util/thread_pool.h"
#include "workload/meshscale_experiment.h"

namespace meshnet {
namespace {

// ------------------------------------------------------------ WorkerBudget

TEST(WorkerBudget, AcquireClampsToRemainingCapacity) {
  util::WorkerBudget& budget = util::WorkerBudget::global();
  const int saved_limit = budget.limit();
  const int base = budget.in_use();
  budget.set_limit(base + 4);

  const int first = budget.acquire(3, 0);
  EXPECT_EQ(first, 3);
  const int second = budget.acquire(3, 0);
  EXPECT_EQ(second, 1);  // only one slot left
  const int third = budget.acquire(3, 0);
  EXPECT_EQ(third, 0);  // exhausted; degrade to sequential
  const int forced = budget.acquire(3, 2);
  EXPECT_EQ(forced, 2);  // minimum wins over the cap (top-level pools)

  budget.release(first);
  budget.release(second);
  budget.release(third);
  budget.release(forced);
  EXPECT_EQ(budget.in_use(), base);
  budget.set_limit(saved_limit);
}

TEST(WorkerBudget, EngineUnderPoolDoesNotOversubscribe) {
  util::WorkerBudget& budget = util::WorkerBudget::global();
  const int saved_limit = budget.limit();
  const int base = budget.in_use();
  budget.set_limit(base + 4);
  {
    // A sweep pool takes its workers unclamped...
    util::ThreadPool pool(3);
    // ...so a nested engine asking for 8 shards' worth of extras only
    // gets what is left (1), plus the calling thread.
    sim::ParallelEngineOptions options;
    options.shards = 8;
    options.threads = 8;
    sim::ParallelEngine engine(options);
    EXPECT_EQ(engine.executor_count(), 2);

    // A second nested engine finds the budget exhausted and degrades to
    // the calling thread alone — still correct, never oversubscribed.
    sim::ParallelEngine sequential(options);
    EXPECT_EQ(sequential.executor_count(), 1);
  }
  EXPECT_EQ(budget.in_use(), base);
  budget.set_limit(saved_limit);
}

// ------------------------------------------------- Simulator shard guard

TEST(ShardGuard, ForeignScheduleThrows) {
  sim::Simulator mine;
  sim::Simulator other;
  {
    sim::Simulator::ShardGuard guard(&mine);
    EXPECT_NO_THROW(mine.schedule_at(10, [] {}));
    EXPECT_THROW(other.schedule_at(10, [] {}), std::logic_error);
  }
  // Guard released: direct scheduling is legal again (single-shard use).
  EXPECT_NO_THROW(other.schedule_at(10, [] {}));
}

TEST(ShardGuard, EngineCatchesCrossShardScheduling) {
  sim::ParallelEngineOptions options;
  options.shards = 2;
  sim::ParallelEngine engine(options);
  sim::Simulator& foreign = engine.shard(1);
  engine.shard(0).schedule_at(5, [&foreign] {
    foreign.schedule_at(100, [] {});  // partitioning bug: must throw
  });
  EXPECT_THROW(engine.run_until(1000), std::logic_error);
}

// The same partitioning bug on a worker thread: shard 1 runs on the
// second executor, its error crosses back to the run_until caller, and
// the engine still shuts its worker down.
TEST(ShardGuard, WorkerThreadErrorReachesTheCaller) {
  sim::ParallelEngineOptions options;
  options.shards = 2;
  options.threads = 2;
  options.respect_worker_budget = false;
  auto engine = std::make_unique<sim::ParallelEngine>(options);
  ASSERT_EQ(engine->executor_count(), 2);
  sim::Simulator& foreign = engine->shard(0);
  engine->shard(1).schedule_at(5, [&foreign] {
    foreign.schedule_at(100, [] {});  // partitioning bug: must throw
  });
  EXPECT_THROW(engine->run_until(1000), std::logic_error);
  engine.reset();  // must not hang
}

TEST(Simulator, NextEventTimeObservesWithoutAdvancing) {
  sim::Simulator sim;
  EXPECT_EQ(sim.next_event_time(), sim::Simulator::kNoEventTime);
  sim.schedule_at(42, [] {});
  EXPECT_EQ(sim.next_event_time(), 42);
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_executed(), 0u);
  sim.run();
  EXPECT_EQ(sim.next_event_time(), sim::Simulator::kNoEventTime);
}

// ---------------------------------------------------------- ParallelEngine

TEST(ParallelEngine, MergedLoopStatsSumShards) {
  sim::ParallelEngineOptions options;
  options.shards = 2;
  sim::ParallelEngine engine(options);
  engine.shard(0).schedule_at(1, [] {});
  engine.shard(0).schedule_at(2, [] {});
  engine.shard(1).schedule_at(3, [] {});
  engine.run_until(10);
  const sim::LoopStats merged = engine.merged_loop_stats();
  EXPECT_EQ(merged.scheduled, 3u);
  EXPECT_EQ(merged.executed, 3u);
}

// One cell's seeded self-rescheduling work: an event chain with
// RngStream delays that now and then re-arms a sim::Timer, whose expiry
// re-arms itself. Each firing appends (time, seq, source) to the trace,
// where seq is the cell's event ordinal.
class CellWork {
 public:
  using Trace = std::vector<std::tuple<sim::Time, std::uint64_t, int>>;

  CellWork(sim::Simulator& sim, int cell)
      : sim_(sim), rng_(7, "cell:" + std::to_string(cell)), timer_(sim) {
    sim_.schedule_at(delay(), [this] { tick(); });
  }

  const Trace& trace() const { return trace_; }

 private:
  sim::Duration delay() {
    return static_cast<sim::Duration>(rng_.uniform_int(
        static_cast<std::uint64_t>(sim::microseconds(1)),
        static_cast<std::uint64_t>(sim::microseconds(500))));
  }
  void record(int source) {
    trace_.emplace_back(sim_.now(), sim_.events_executed(), source);
  }
  void tick() {
    record(0);
    sim_.schedule_after(delay(), [this] { tick(); });
    if (rng_.bernoulli(0.3)) timer_.arm_after(2 * delay(), [this] { expire(); });
  }
  void expire() {
    record(1);
    timer_.arm_after(3 * delay(), [this] { expire(); });
  }

  sim::Simulator& sim_;
  sim::RngStream rng_;
  sim::Timer timer_;
  Trace trace_;
};

// The property the MESHSCALE report relies on: a cell's trace and event
// count are the same at 1, 2 and 3 executor threads, with one run_until
// call or with 1 ms steps. The engine opts out of the worker budget, so
// real threads spawn even on single-core hosts.
TEST(ParallelEngine, CellsIndependentOfThreadsAndSlicing) {
  constexpr int kCells = 3;
  static constexpr sim::Time kEnd = sim::milliseconds(50);
  struct Run {
    std::vector<CellWork::Trace> traces;
    std::vector<std::uint64_t> events;
  };
  const auto run = [](int threads, bool sliced) {
    sim::ParallelEngineOptions options;
    options.shards = kCells;
    options.threads = threads;
    options.respect_worker_budget = false;
    sim::ParallelEngine engine(options);
    EXPECT_EQ(engine.executor_count(), threads);
    std::vector<std::unique_ptr<CellWork>> cells;
    for (int c = 0; c < kCells; ++c) {
      cells.push_back(std::make_unique<CellWork>(engine.shard(c), c));
    }
    if (sliced) {
      for (sim::Time t = sim::milliseconds(1); t <= kEnd;
           t += sim::milliseconds(1)) {
        engine.run_until(t);
      }
    } else {
      engine.run_until(kEnd);
    }
    EXPECT_EQ(engine.stats().epochs, sliced ? 50u : 1u);
    Run result;
    for (int c = 0; c < kCells; ++c) {
      EXPECT_EQ(engine.shard(c).now(), kEnd);
      result.traces.push_back(cells[static_cast<std::size_t>(c)]->trace());
      result.events.push_back(engine.shard(c).events_executed());
    }
    return result;
  };

  const Run reference = run(1, false);
  for (const CellWork::Trace& trace : reference.traces) {
    ASSERT_GT(trace.size(), 100u);
  }
  EXPECT_NE(reference.traces[0], reference.traces[1]);  // seeded per cell
  for (const int threads : {1, 2, 3}) {
    for (const bool sliced : {false, true}) {
      const Run point = run(threads, sliced);
      const std::string what = "threads=" + std::to_string(threads) +
                               (sliced ? " sliced" : " one call");
      EXPECT_EQ(point.traces, reference.traces) << what;
      EXPECT_EQ(point.events, reference.events) << what;
    }
  }
}

// MESHSCALE reports from the registry: its push keys are the sums of the
// cells' cp_* series in the run's snapshot, its churn keys are those
// series' growth across the churn window, and the whole report is the
// same at 1 and 2 engine threads.
TEST(MeshscaleReport, KeysComeFromTheRegistryAndMatchAcrossThreadCounts) {
  workload::MeshscaleConfig config;
  config.services = 10;
  config.duration = sim::seconds(1);  // churn at 400 ms, restore at 600 ms
  config.respect_worker_budget = false;
  config.threads = 1;
  const workload::PointMetrics report =
      workload::run_meshscale_experiment(config);
  const auto& counters = report.counters;
  const auto series = [&report](std::string_view name) {
    return report.snapshot.counter_sum(name);
  };
  ASSERT_GT(counters.at("requests_generated"), 0u);
  EXPECT_EQ(counters.at("successes") + counters.at("failures"),
            counters.at("responses"));

  EXPECT_GT(counters.at("cp_epochs"), 0u);
  EXPECT_EQ(counters.at("cp_pushes"), counters.at("cp_epochs"));
  EXPECT_EQ(counters.at("cp_full_pushes"), series("cp_full_pushes_total"));
  EXPECT_EQ(counters.at("cp_delta_pushes"), series("cp_delta_pushes_total"));
  EXPECT_EQ(counters.at("cp_delta_fallbacks"),
            series("cp_delta_fallbacks_total"));
  EXPECT_EQ(counters.at("cp_full_push_bytes"),
            series("cp_full_push_bytes_total"));
  EXPECT_EQ(counters.at("cp_delta_push_bytes"),
            series("cp_delta_push_bytes_total"));
  EXPECT_GT(counters.at("cp_delta_pushes"), 0u);

  const std::uint64_t bytes =
      series("cp_full_push_bytes_total") + series("cp_delta_push_bytes_total");
  const std::uint64_t pushes =
      series("cp_full_pushes_total") + series("cp_delta_pushes_total");
  EXPECT_EQ(counters.at("cp_churn_push_bytes"),
            bytes - series("meshscale_churn_start_push_bytes"));
  EXPECT_EQ(counters.at("cp_churn_pushes"),
            pushes - series("meshscale_churn_start_pushes"));
  EXPECT_GT(counters.at("cp_churn_pushes"), 0u);
  EXPECT_LT(counters.at("cp_churn_push_bytes"), bytes);

  config.threads = 2;
  EXPECT_TRUE(workload::run_meshscale_experiment(config) == report);
}

}  // namespace
}  // namespace meshnet
