// Property-style parameterized tests for the queueing disciplines: the
// invariants the cross-layer results rest on, swept across
// configurations, and the link's in-flight FIFO under each of them.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "net/link.h"
#include "net/qdisc.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace meshnet::net {
namespace {

Packet packet_of(std::uint32_t bytes, Dscp dscp) {
  Packet p;
  p.flow = FlowKey{1, 1, 2, 2};
  p.dscp = dscp;
  p.payload = Payload::filled(bytes, 'x');
  return p;
}

// ---- Weighted DRR share accuracy across (share, packet-size mix) ------

using ShareParam = std::tuple<double, std::uint32_t, std::uint32_t>;

class WeightedShareTest : public ::testing::TestWithParam<ShareParam> {};

TEST_P(WeightedShareTest, LongRunShareMatchesConfig) {
  const auto [share, high_size, low_size] = GetParam();
  WeightedPrioQdisc q({share, 1.0 - share}, classify_by_dscp(), 1 << 30);
  auto refill = [&] {
    while (q.band_backlog_packets(0) < 20) {
      q.enqueue(packet_of(high_size, Dscp::kExpedited));
    }
    while (q.band_backlog_packets(1) < 20) {
      q.enqueue(packet_of(low_size, Dscp::kScavenger));
    }
  };
  for (int i = 0; i < 20000; ++i) {
    refill();
    ASSERT_TRUE(q.dequeue().has_value());
  }
  const double high = static_cast<double>(q.band_dequeued_bytes(0));
  const double low = static_cast<double>(q.band_dequeued_bytes(1));
  EXPECT_NEAR(high / (high + low), share, 0.03)
      << "share=" << share << " sizes=" << high_size << "/" << low_size;
}

INSTANTIATE_TEST_SUITE_P(
    Shares, WeightedShareTest,
    ::testing::Values(ShareParam{0.95, 1400, 1400},
                      ShareParam{0.95, 200, 8900},   // small high pkts
                      ShareParam{0.95, 8900, 200},   // large high pkts
                      ShareParam{0.75, 1400, 1400},
                      ShareParam{0.50, 1400, 700},
                      ShareParam{0.99, 1400, 1400}));

// ---- Work conservation: every enqueued byte is dequeued or dropped ----

class WorkConservationTest
    : public ::testing::TestWithParam<int> {};  // qdisc kind

std::unique_ptr<Qdisc> make_qdisc(int kind, std::uint64_t limit) {
  switch (kind) {
    case 0:
      return std::make_unique<FifoQdisc>(limit);
    case 1:
      return std::make_unique<StrictPrioQdisc>(2, classify_by_dscp(), limit);
    default:
      return std::make_unique<WeightedPrioQdisc>(
          std::vector<double>{0.9, 0.1}, classify_by_dscp(), limit);
  }
}

TEST_P(WorkConservationTest, BytesBalance) {
  auto q = make_qdisc(GetParam(), 20'000);
  sim::RngStream rng(GetParam(), "work-conservation");
  std::uint64_t dequeued_bytes = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto size = static_cast<std::uint32_t>(rng.uniform_int(1, 9000));
    const Dscp dscp = rng.bernoulli(0.5) ? Dscp::kExpedited : Dscp::kScavenger;
    q->enqueue(packet_of(size, dscp));
    if (rng.bernoulli(0.7)) {
      if (const auto p = q->dequeue()) dequeued_bytes += p->size_bytes();
    }
  }
  // Drain.
  for (int i = 0; i < 20000 && !q->empty(); ++i) {
    if (const auto p = q->dequeue()) {
      dequeued_bytes += p->size_bytes();
    }
  }
  const auto& s = q->stats();
  // Accounting convention: note_enqueue fires only for accepted packets,
  // note_drop for rejected ones; every accepted byte must eventually be
  // dequeued once the queue drains.
  EXPECT_EQ(s.enqueued_packets + s.dropped_packets, 5000u);
  EXPECT_EQ(s.enqueued_bytes, s.dequeued_bytes);
  EXPECT_EQ(s.enqueued_packets, s.dequeued_packets);
  EXPECT_EQ(s.dequeued_bytes, dequeued_bytes);
  EXPECT_EQ(q->backlog_bytes(), 0u);
  EXPECT_EQ(q->backlog_packets(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, WorkConservationTest,
                         ::testing::Values(0, 1, 2));

// ---- FIFO order within a class, under every discipline -----------------

class IntraClassOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(IntraClassOrderTest, NeverReordersWithinAClass) {
  auto q = make_qdisc(GetParam(), 1 << 30);
  sim::RngStream rng(7, "order");
  // Tag packets with increasing seq per class.
  std::uint64_t next_seq[2] = {0, 0};
  std::uint64_t last_out[2] = {0, 0};
  for (int i = 0; i < 3000; ++i) {
    const int cls = rng.bernoulli(0.3) ? 0 : 1;
    Packet p = packet_of(100, cls == 0 ? Dscp::kExpedited : Dscp::kScavenger);
    p.seq = ++next_seq[cls];
    q->enqueue(std::move(p));
    if (rng.bernoulli(0.6)) {
      if (const auto out = q->dequeue()) {
        const int out_cls = out->dscp == Dscp::kExpedited ? 0 : 1;
        EXPECT_GT(out->seq, last_out[out_cls]);
        last_out[out_cls] = out->seq;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, IntraClassOrderTest,
                         ::testing::Values(0, 1, 2));

// ---- Strict priority: high band never waits behind low ----------------

TEST(StrictPriorityProperty, HighNeverQueuedBehindLow) {
  StrictPrioQdisc q(2, classify_by_dscp(), 1 << 30);
  sim::RngStream rng(9, "strict");
  for (int i = 0; i < 2000; ++i) {
    if (rng.bernoulli(0.5)) {
      q.enqueue(packet_of(500, Dscp::kScavenger));
    }
    if (rng.bernoulli(0.2)) {
      q.enqueue(packet_of(500, Dscp::kExpedited));
    }
    if (rng.bernoulli(0.6)) {
      const auto p = q.dequeue();
      if (p && p->dscp != Dscp::kExpedited) {
        // A low packet may only leave when no high packet waits.
        EXPECT_EQ(q.band_backlog_packets(0), 0u);
      }
    }
  }
}

// ---- Links: serialized packets outlive carrier flaps and qdisc swaps ---

// (qdisc kind, mid-flight action: 0 = carrier down then up, 1 = set_qdisc)
using InFlightParam = std::tuple<int, int>;

class InFlightTest : public ::testing::TestWithParam<InFlightParam> {};

TEST_P(InFlightTest, SerializedPacketsArriveOnTimeInSendOrder) {
  const auto [kind, action] = GetParam();
  constexpr double kRate = 1e9;
  // Propagation spans ~30 serializations, so the wire ring grows past its
  // first capacity and its head wraps while packets are in flight.
  const sim::Duration kProp = sim::microseconds(200);
  sim::Simulator sim;
  Link link(sim, "l", kRate, kProp, make_qdisc(kind, 1 << 30));
  struct Arrival {
    std::uint64_t id;
    sim::Time at;
    bool operator==(const Arrival&) const = default;
  };
  std::vector<Arrival> arrivals;
  std::size_t max_on_wire = 0;
  link.set_sink([&](Packet&& p) {
    max_on_wire = std::max(max_on_wire, link.packets_on_wire() + 1);
    arrivals.push_back({p.seq, sim.now()});
  });

  sim::RngStream rng(static_cast<std::uint64_t>(kind), "in-flight");
  std::vector<std::uint32_t> sizes;
  const auto send_batch = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      sizes.push_back(static_cast<std::uint32_t>(rng.uniform_int(100, 1400)));
      Packet p = packet_of(sizes.back(), Dscp::kDefault);
      p.seq = sizes.size() - 1;
      link.send(std::move(p));
    }
  };
  const auto tx_time = [&](std::size_t id) {
    return sim::transmission_time(sizes[id] + 40, kRate);
  };

  // Batch one at t=0; at `flap` (mid-serialization, with packets on the
  // wire) the backlog is dropped and batch two is sent.
  constexpr std::size_t kBatch = 60;
  const sim::Time flap = sim::microseconds(150);
  send_batch(kBatch);
  std::vector<Arrival> expected;
  sim::Time done = 0;  // serialization-complete time of the previous packet
  for (std::size_t id = 0; id < kBatch && done <= flap; ++id) {
    ASSERT_NE(done, flap);  // the flap must not tie with a completion
    done += tx_time(id);
    expected.push_back({id, done + kProp});
  }
  ASSERT_GT(done, flap);
  sim.schedule_at(flap, [&] {
    if (action == 0) {
      link.set_up(false);
      link.set_up(true);
    } else {
      link.set_qdisc(make_qdisc(kind, 1 << 30));
    }
    send_batch(kBatch);
  });
  sim.run_until(flap);
  for (std::size_t id = kBatch; id < 2 * kBatch; ++id) {
    done += tx_time(id);
    expected.push_back({id, done + kProp});
  }
  sim.run();

  EXPECT_EQ(arrivals, expected);
  EXPECT_GT(max_on_wire, 16u);
  EXPECT_EQ(link.packets_on_wire(), 0u);
  if (action == 0) {
    EXPECT_EQ(link.stats().down_drops, kBatch - (expected.size() - kBatch));
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndActions, InFlightTest,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(0, 1)));

}  // namespace
}  // namespace meshnet::net
