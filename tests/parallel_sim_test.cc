// Tests for the sharded parallel engine (sim/parallel.h): the shared
// worker budget, the cross-shard safety guard and worker error handoff,
// the barrier-epoch protocol's ordering rules, and the two determinism
// properties the design stands on — thread-count invariance for a fixed
// shard count, and shard-count invariance of the PARSIM workload surface
// against a single-shard reference (ParsimShardInvariance/*, labelled
// slow in tests/CMakeLists.txt together with ParsimThreadDeterminism).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/topology_gen.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"
#include "workload/meshscale_experiment.h"
#include "workload/parsim_experiment.h"

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
  options.lookahead = 10;
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
  options.lookahead = 10;
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

TEST(ParallelEngine, PingPongCrossesShardsAtExactTimes) {
  sim::ParallelEngineOptions options;
  options.shards = 2;
  options.lookahead = 10;
  sim::ParallelEngine engine(options);

  std::vector<std::pair<int, sim::Time>> fired;  // (shard, when)
  struct Hop {
    sim::ParallelEngine* engine;
    std::vector<std::pair<int, sim::Time>>* fired;
    int rounds_left;
    void run(int shard) const {
      sim::Simulator& sim = engine->shard(shard);
      fired->emplace_back(shard, sim.now());
      if (rounds_left == 0) return;
      const Hop next{engine, fired, rounds_left - 1};
      const int dst = 1 - shard;
      engine->post(shard, dst, sim.now() + engine->lookahead(),
                   [next, dst] { next.run(dst); });
    }
  };
  const Hop first{&engine, &fired, 4};
  engine.shard(0).schedule_at(5, [first] { first.run(0); });
  engine.run_until(1000);

  const std::vector<std::pair<int, sim::Time>> expected = {
      {0, 5}, {1, 15}, {0, 25}, {1, 35}, {0, 45}};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(engine.stats().messages, 4u);
  EXPECT_EQ(engine.events_executed(), 5u);
  EXPECT_EQ(engine.shard(0).now(), 1000);
  EXPECT_EQ(engine.shard(1).now(), 1000);
}

TEST(ParallelEngine, PostInsideLookaheadWindowThrows) {
  sim::ParallelEngineOptions options;
  options.shards = 2;
  options.lookahead = 10;
  sim::ParallelEngine engine(options);
  engine.shard(0).schedule_at(5, [&engine] {
    engine.post(0, 1, engine.shard(0).now() + 5, [] {});  // 5 < lookahead
  });
  EXPECT_THROW(engine.run_until(1000), std::logic_error);
}

TEST(ParallelEngine, SameTimeDeliveriesFollowCanonicalOrder) {
  // Shards 1 and 2 both post to shard 0 for the same delivery time; the
  // barrier must inject them in (time, src shard, seq) order no matter
  // which shard's epoch ran first.
  sim::ParallelEngineOptions options;
  options.shards = 3;
  options.lookahead = 10;
  sim::ParallelEngine engine(options);

  std::vector<int> order;
  for (const int src : {2, 1}) {  // post from the higher shard first
    engine.shard(src).schedule_at(5, [&engine, &order, src] {
      engine.post(src, 0, 15, [&order, src] { order.push_back(src); });
      engine.post(src, 0, 15,
                  [&order, src] { order.push_back(src + 10); });
    });
  }
  engine.run_until(100);
  const std::vector<int> expected = {1, 11, 2, 12};  // src asc, seq asc
  EXPECT_EQ(order, expected);
}

// A burst of same-time posts from one shard arrives in send order.
TEST(ParallelEngine, MailboxOverflowSpillsWithoutReordering) {
  sim::ParallelEngineOptions options;
  options.shards = 2;
  options.lookahead = 10;
  sim::ParallelEngine engine(options);

  std::vector<int> order;
  engine.shard(0).schedule_at(1, [&engine, &order] {
    for (int i = 0; i < 8; ++i) {
      engine.post(0, 1, 11, [&order, i] { order.push_back(i); });
    }
  });
  engine.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(engine.stats().messages, 8u);
}

TEST(ParallelEngine, MergedLoopStatsSumShards) {
  sim::ParallelEngineOptions options;
  options.shards = 2;
  options.lookahead = 10;
  sim::ParallelEngine engine(options);
  engine.shard(0).schedule_at(1, [] {});
  engine.shard(0).schedule_at(2, [] {});
  engine.shard(1).schedule_at(3, [] {});
  engine.run_until(10);
  const sim::LoopStats merged = engine.merged_loop_stats();
  EXPECT_EQ(merged.scheduled, 3u);
  EXPECT_EQ(merged.executed, 3u);
}

// ------------------------------------------- determinism property tests

using PointKey = std::map<std::string, std::uint64_t>;

// Strips the engine surface (epochs, loop stats, events, partition shape)
// from a point: what remains must be invariant across shard counts.
workload::PointMetrics workload_surface(workload::PointMetrics metrics) {
  for (auto it = metrics.counters.begin(); it != metrics.counters.end();) {
    if (it->first == "events" || it->first.rfind("engine_", 0) == 0) {
      it = metrics.counters.erase(it);
    } else {
      ++it;
    }
  }
  return metrics;
}

void expect_same_workload_surface(const workload::PointMetrics& a,
                                  const workload::PointMetrics& b,
                                  const std::string& what) {
  EXPECT_EQ(a.scalars, b.scalars) << what;
  EXPECT_EQ(a.counters, b.counters) << what;
  EXPECT_TRUE(a.histograms == b.histograms) << what;
  EXPECT_TRUE(a.snapshot == b.snapshot) << what;
}

// Fixed shard count, varying worker threads: EVERYTHING must match, the
// engine surface included. PARSIM opts out of the worker budget, so real
// threads spawn even on single-core hosts.
TEST(ParsimThreadDeterminism, BitIdenticalAcrossThreadCounts) {
  workload::ParsimConfig config;
  config.shards = 8;
  config.duration = sim::milliseconds(500);

  config.threads = 1;
  const workload::PointMetrics reference =
      workload::run_parsim_experiment(config);
  ASSERT_GT(reference.counters.at("leaf_completions"), 0u);

  for (const int threads : {2, 4, 8}) {
    config.threads = threads;
    const workload::PointMetrics point =
        workload::run_parsim_experiment(config);
    const std::string what = "threads=" + std::to_string(threads);
    EXPECT_EQ(point.scalars, reference.scalars) << what;
    EXPECT_EQ(point.counters, reference.counters) << what;
    EXPECT_TRUE(point.histograms == reference.histograms) << what;
    EXPECT_TRUE(point.snapshot == reference.snapshot) << what;
  }
}

// Random layered fan-out topologies: the workload surface of a sharded
// run must equal the single-shard reference exactly (satellite of the
// conservative-lookahead design: partitioning may change synchronization
// granularity, never simulation semantics).
TEST(ParsimShardInvariance, RandomTopologiesMatchSingleShardReference) {
  for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
    std::mt19937_64 shape(seed);
    cluster::FanoutSpec spec;
    const int layers = 3 + static_cast<int>(shape() % 2);  // 3 or 4
    for (int layer = 0; layer < layers; ++layer) {
      spec.layer_widths.push_back(2 + static_cast<int>(shape() % 11));
    }
    spec.fanout = 2 + static_cast<int>(shape() % 2);
    spec.min_edge_latency = sim::milliseconds(1 + shape() % 2);
    spec.max_edge_latency =
        spec.min_edge_latency + sim::milliseconds(1 + shape() % 3);

    workload::ParsimConfig config;
    config.topology = spec;
    config.seed = seed;
    config.duration = sim::milliseconds(300);
    config.root_rps = 150.0;

    config.shards = 1;
    config.threads = 1;
    const workload::PointMetrics reference =
        workload_surface(workload::run_parsim_experiment(config));
    ASSERT_GT(reference.counters.at("leaf_completions"), 0u)
        << "seed=" << seed;

    for (const int shards : {2, 4, 8}) {
      config.shards = shards;
      config.threads = std::min(shards, 4);
      const workload::PointMetrics point =
          workload_surface(workload::run_parsim_experiment(config));
      expect_same_workload_surface(point, reference,
                                   "seed=" + std::to_string(seed) +
                                       " shards=" + std::to_string(shards));
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
