// Model-checked randomized tests for the admission controller.
//
// The controller is a pure state machine (no simulator), so these tests
// drive it with randomized arrival / completion schedules across 1,000
// seeds and check the invariants the design promises after every
// transition:
//
//   (a) FIFO within a priority class: requests of the same class are
//       dispatched in offer order (lower classes may be overtaken,
//       that's the point of priorities);
//   (b) an arrival is shed only when the queue is full, and a queued
//       request is never shed;
//   (c) the static limit and the reservation hold: at most `limit`
//       requests in flight, at most `limit - reserve_slots` of them
//       below the highest class;
//   (d) work conservation: no request waits in a queue while its class
//       has a free slot;
//   (e) conservation: every offered request reaches exactly one terminal
//       outcome (dispatched+completed, or shed), callbacks fire exactly
//       once, and the controller's counters balance at every step:
//       offered == accepted + shed + queued.
//
// Each seed also randomizes the config (queue capacity, limit, reserve
// slots), so the sweep explores the corner where the reserved slot
// forces low-priority requests to queue while high priority sails
// through.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "mesh/admission.h"
#include "sim/random.h"

namespace meshnet::mesh {
namespace {

constexpr std::array<TrafficClass, 3> kClassOfRank = {
    TrafficClass::kLatencySensitive,
    TrafficClass::kDefault,
    TrafficClass::kScavenger,
};

struct Tracked {
  std::uint64_t seq = 0;  ///< offer order, 1-based
  TrafficClass klass = TrafficClass::kDefault;
  int rank = 1;
  bool dispatched = false;
  bool shed = false;
  bool completed = false;
};

class Harness {
 public:
  Harness(AdmissionConfig config, std::uint64_t seed)
      : config_(config),
        controller_("svc", config),
        rng_(seed, "admission-property") {}

  void arrival() {
    auto owned = std::make_unique<Tracked>();
    Tracked* t = owned.get();
    t->seq = ++next_seq_;
    t->rank = static_cast<int>(rng_.uniform_int(0, 2));
    t->klass = kClassOfRank[t->rank];
    all_.push_back(std::move(owned));

    const std::size_t depth_before = controller_.queue_depth();
    const AdmissionController::Decision decision = controller_.offer(t->klass);
    switch (decision.outcome) {
      case AdmissionController::Decision::Outcome::kAdmitted:
        record_dispatch(t);
        break;
      case AdmissionController::Decision::Outcome::kQueued:
        controller_.bind(decision.ticket, [this, t] { record_dispatch(t); });
        break;
      case AdmissionController::Decision::Outcome::kShed:
        // (b) Shed only when the queue budget is used up.
        EXPECT_EQ(depth_before, config_.queue_capacity)
            << "request " << t->seq << " shed with queue room left";
        t->shed = true;
        break;
    }
  }

  void complete_one() {
    if (running_.empty()) return;
    const std::size_t idx =
        static_cast<std::size_t>(rng_.uniform_int(0, running_.size() - 1));
    Tracked* t = running_[idx];
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(idx));
    t->completed = true;
    // drain() runs inside: dispatch callbacks re-enter record_dispatch.
    controller_.on_complete(t->klass);
  }

  void check_step_invariants() {
    EXPECT_EQ(controller_.in_flight(), running_.size());
    EXPECT_LE(controller_.queue_depth(), config_.queue_capacity);
    // (d) A class queues only while it has no usable slot.
    const bool full = running_.size() >= config_.concurrency_limit;
    const bool low_full =
        full || running_low() + config_.reserve_slots >=
                    config_.concurrency_limit;
    if (controller_.queue_depth(kClassOfRank[0]) > 0) {
      EXPECT_TRUE(full) << "LS queued beside a free slot";
    }
    for (int rank = 1; rank < 3; ++rank) {
      if (controller_.queue_depth(kClassOfRank[rank]) > 0) {
        EXPECT_TRUE(low_full)
            << "rank " << rank << " queued beside a free unreserved slot";
      }
    }
    const AdmissionCounters& c = controller_.counters();
    EXPECT_EQ(c.offered, all_.size());
    // (e) Every offered request is admitted, shed, or still queued.
    EXPECT_EQ(c.offered, c.accepted + c.shed + controller_.queue_depth());
  }

  void drain_to_empty() {
    // Completing everything must dispatch every queued entry; the queue
    // cannot outlive the in-flight set.
    int guard = 0;
    while (!running_.empty()) {
      ASSERT_LT(++guard, 100000) << "drain did not terminate";
      complete_one();
    }
    EXPECT_EQ(controller_.queue_depth(), 0u);
  }

  void check_final_accounting() const {
    const AdmissionCounters& c = controller_.counters();
    std::uint64_t dispatched = 0;
    std::uint64_t shed = 0;
    for (const auto& t : all_) {
      // (e) Exactly one terminal outcome each.
      EXPECT_NE(t->dispatched, t->shed)
          << "request " << t->seq << " finished with dispatched="
          << t->dispatched << " shed=" << t->shed;
      if (t->dispatched) {
        EXPECT_TRUE(t->completed);
        ++dispatched;
      } else {
        ++shed;
      }
    }
    EXPECT_EQ(c.accepted, dispatched);
    EXPECT_EQ(c.completed, dispatched);
    EXPECT_EQ(c.shed, shed);
    EXPECT_EQ(c.offered, dispatched + shed);
  }

  sim::RngStream& rng() { return rng_; }

 private:
  std::size_t running_low() const {
    std::size_t low = 0;
    for (const Tracked* t : running_) low += t->rank > 0 ? 1 : 0;
    return low;
  }

  void record_dispatch(Tracked* t) {
    EXPECT_FALSE(t->dispatched) << "double dispatch of " << t->seq;
    EXPECT_FALSE(t->shed) << "dispatch after shed of " << t->seq;
    t->dispatched = true;
    running_.push_back(t);
    // (c) The limit, and the reservation for the highest class.
    EXPECT_LE(running_.size(), config_.concurrency_limit);
    if (t->rank > 0) {
      EXPECT_LE(running_low() + config_.reserve_slots,
                config_.concurrency_limit)
          << "rank " << t->rank << " took a reserved slot";
    }
    // (a) FIFO within the class: across direct admits and queue drains,
    // same-class dispatch order is offer order.
    EXPECT_GT(t->seq, last_dispatched_[t->rank])
        << "class rank " << t->rank << " reordered";
    last_dispatched_[t->rank] = t->seq;
  }

  AdmissionConfig config_;
  AdmissionController controller_;
  sim::RngStream rng_;
  std::uint64_t next_seq_ = 0;
  std::vector<std::unique_ptr<Tracked>> all_;
  std::vector<Tracked*> running_;
  std::array<std::uint64_t, 3> last_dispatched_{{0, 0, 0}};
};

AdmissionConfig random_config(sim::RngStream& rng) {
  AdmissionConfig config;
  config.enabled = true;
  config.queue_capacity = rng.uniform_int(0, 7);
  config.reserve_slots = rng.bernoulli(0.5) ? 1 : 0;
  // Keep the limit above the reservation so low-priority classes always
  // retain at least one usable slot (no permanent starvation).
  config.concurrency_limit =
      config.reserve_slots + 1 + static_cast<std::uint32_t>(
                                     rng.uniform_int(0, 4));
  return config;
}

TEST(AdmissionProperty, RandomScheduleHoldsInvariants) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::RngStream config_rng(seed, "admission-config");
    Harness harness(random_config(config_rng), seed);
    for (int op = 0; op < 120; ++op) {
      if (harness.rng().uniform() < 0.6) {
        harness.arrival();
      } else {
        harness.complete_one();
      }
      harness.check_step_invariants();
      if (::testing::Test::HasFatalFailure()) return;
    }
    harness.drain_to_empty();
    harness.check_final_accounting();
    if (::testing::Test::HasFailure()) {
      FAIL() << "invariant violated at seed " << seed;
    }
  }
}

// ----- Targeted unit test for the corner the property sweep exercises
// only statistically. -----

TEST(AdmissionController, ReservedSlotKeepsCapacityForHighPriority) {
  AdmissionConfig config;
  config.enabled = true;
  config.queue_capacity = 8;
  config.reserve_slots = 1;
  config.concurrency_limit = 2;
  AdmissionController controller("svc", config);
  // First scavenger takes the one unreserved slot.
  auto low1 = controller.offer(TrafficClass::kScavenger);
  EXPECT_EQ(low1.outcome, AdmissionController::Decision::Outcome::kAdmitted);
  // Second scavenger must queue: the remaining slot is reserved.
  auto low2 = controller.offer(TrafficClass::kScavenger);
  EXPECT_EQ(low2.outcome, AdmissionController::Decision::Outcome::kQueued);
  // A latency-sensitive arrival takes the reserved slot immediately,
  // overtaking the queued scavenger.
  auto high = controller.offer(TrafficClass::kLatencySensitive);
  EXPECT_EQ(high.outcome, AdmissionController::Decision::Outcome::kAdmitted);
  EXPECT_EQ(controller.in_flight(), 2u);
  EXPECT_EQ(controller.queue_depth(TrafficClass::kScavenger), 1u);
}

}  // namespace
}  // namespace meshnet::mesh
