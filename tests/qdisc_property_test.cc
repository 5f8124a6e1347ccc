// Property-style parameterized tests for the queueing disciplines: the
// invariants the cross-layer results rest on, swept across
// configurations, and the link's in-flight FIFO under each of them.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "net/link.h"
#include "net/qdisc.h"
#include "sim/random.h"
#include "sim/ring.h"
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

// ---- Weighted DRR: the lone-band fast path replays the plain loop -------

// The deficit round robin loop as it stood before WeightedPrioQdisc
// learned to fast-forward a lone backlogged band: one band visit per
// iteration, a `% n` cursor step, the 64n+4 iteration budget and the
// serve-any-head safety valve. Quantums are computed exactly as the
// qdisc computes them.
class ReferenceDrr {
 public:
  ReferenceDrr(const std::vector<double>& shares, std::uint64_t limit)
      : limit_(limit), bands_(shares.size()) {
    double max_share = 0.0;
    for (double s : shares) max_share = std::max(max_share, s);
    for (std::size_t i = 0; i < shares.size(); ++i) {
      bands_[i].quantum = (shares[i] / max_share) * 9000.0;
    }
  }

  bool enqueue(Packet packet, std::size_t b) {
    Band& band = bands_[b];
    if (band.bytes + packet.size_bytes() > limit_ && !band.queue.empty()) {
      ++band.drops;
      return false;
    }
    band.bytes += packet.size_bytes();
    band.queue.push_back(std::move(packet));
    return true;
  }

  std::optional<Packet> dequeue() {
    std::size_t backlog = 0;
    for (const Band& b : bands_) backlog += b.queue.size();
    if (backlog == 0) return std::nullopt;
    const std::size_t n = bands_.size();
    const std::size_t max_iterations = 64 * n + 4;
    for (std::size_t attempts = 0; attempts < max_iterations; ++attempts) {
      Band& band = bands_[round_cursor_];
      if (band.queue.empty()) {
        band.deficit = 0.0;
        turn_credited_ = false;
        round_cursor_ = (round_cursor_ + 1) % n;
        continue;
      }
      if (!turn_credited_) {
        band.deficit += band.quantum;
        turn_credited_ = true;
      }
      const auto head_size =
          static_cast<double>(band.queue.front().size_bytes());
      if (band.deficit >= head_size) {
        band.deficit -= head_size;
        Packet p = band.queue.take_front();
        band.bytes -= p.size_bytes();
        band.dequeued_bytes += p.size_bytes();
        if (band.queue.empty()) {
          band.deficit = 0.0;
          turn_credited_ = false;
          round_cursor_ = (round_cursor_ + 1) % n;
        }
        return p;
      }
      turn_credited_ = false;
      round_cursor_ = (round_cursor_ + 1) % n;
    }
    ++safety_valves_;
    for (Band& band : bands_) {
      if (band.queue.empty()) continue;
      Packet p = band.queue.take_front();
      band.bytes -= p.size_bytes();
      band.dequeued_bytes += p.size_bytes();
      return p;
    }
    return std::nullopt;
  }

  std::uint64_t dequeued_bytes(std::size_t b) const {
    return bands_[b].dequeued_bytes;
  }
  std::uint64_t drops(std::size_t b) const { return bands_[b].drops; }
  std::uint64_t backlog(std::size_t b) const { return bands_[b].queue.size(); }
  std::uint64_t safety_valves() const { return safety_valves_; }

 private:
  struct Band {
    sim::Ring<Packet> queue;
    std::uint64_t bytes = 0;
    double quantum = 0.0;
    double deficit = 0.0;
    std::uint64_t dequeued_bytes = 0;
    std::uint64_t drops = 0;
  };
  std::uint64_t limit_;
  std::vector<Band> bands_;
  std::size_t round_cursor_ = 0;
  bool turn_credited_ = false;
  std::uint64_t safety_valves_ = 0;
};

struct DrrCase {
  const char* name;
  std::vector<double> shares;
  bool expect_safety_valve;
};

class WeightedDrrDifferentialTest
    : public ::testing::TestWithParam<DrrCase> {};

// Random enqueue/dequeue sequences in phases that feed a random subset of
// bands, so every band spends stretches alone and backlogged (the fast
// path) and stretches competing (the plain loop). Sizes span 64..9054
// bytes; a tight per-band limit makes drops. Order, per-band bytes and
// drops must agree with the reference at every step.
TEST_P(WeightedDrrDifferentialTest, MatchesTheReferenceLoopStepByStep) {
  const DrrCase& param = GetParam();
  const std::size_t n = param.shares.size();
  constexpr std::uint64_t kLimit = 64 * 1024;
  // The band rides in the otherwise unused ack field.
  WeightedPrioQdisc q(param.shares,
                      [](const Packet& p) { return static_cast<int>(p.ack); },
                      kLimit);
  ReferenceDrr ref(param.shares, kLimit);
  sim::RngStream rng(n * 1000 + static_cast<std::uint64_t>(
                                    param.shares.back() * 1e6),
                     "drr-differential");
  std::uint64_t next_id = 0;
  std::vector<bool> fed(n, true);
  for (int step = 0; step < 40000; ++step) {
    if (step % 500 == 0) {
      for (std::size_t b = 0; b < n; ++b) fed[b] = rng.bernoulli(0.5);
    }
    const auto b = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (fed[b] && rng.bernoulli(0.5)) {
      const auto size = static_cast<std::uint32_t>(rng.uniform_int(64, 9054));
      Packet p = packet_of(size - 40, Dscp::kDefault);
      p.ack = b;
      p.seq = next_id++;
      const bool accepted = ref.enqueue(p, b);
      ASSERT_EQ(q.enqueue(std::move(p)), accepted) << "step " << step;
    }
    if (rng.bernoulli(0.45)) {
      const auto expected = ref.dequeue();
      const auto actual = q.dequeue();
      ASSERT_EQ(actual.has_value(), expected.has_value()) << "step " << step;
      if (expected) {
        ASSERT_EQ(actual->seq, expected->seq) << "step " << step;
      }
    }
    for (std::size_t band = 0; band < n; ++band) {
      const int i = static_cast<int>(band);
      ASSERT_EQ(q.band_dequeued_bytes(i), ref.dequeued_bytes(band))
          << "step " << step << " band " << band;
      ASSERT_EQ(q.band_drops(i), ref.drops(band))
          << "step " << step << " band " << band;
      ASSERT_EQ(q.band_backlog_packets(i), ref.backlog(band))
          << "step " << step << " band " << band;
    }
  }
  EXPECT_GT(next_id, 5000u);
  EXPECT_GT(ref.drops(0) + ref.drops(n - 1), 0u);
  if (param.expect_safety_valve) {
    EXPECT_GT(ref.safety_valves(), 0u);
  } else {
    EXPECT_EQ(ref.safety_valves(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shares, WeightedDrrDifferentialTest,
    ::testing::Values(DrrCase{"s95_5", {0.95, 0.05}, false},
                      DrrCase{"s80_20", {0.8, 0.2}, false},
                      DrrCase{"s50_50", {0.5, 0.5}, false},
                      DrrCase{"s60_30_10", {0.6, 0.3, 0.1}, false},
                      // A 9-byte quantum: a large head outlasts the
                      // iteration budget and the safety valve serves it.
                      DrrCase{"s999_1", {0.999, 0.001}, true},
                      // With three bands the budget can run out part-way
                      // through a round, before every empty band is
                      // visited again; the safety valve leaves deficits
                      // on bands it empties for those visits to zero.
                      DrrCase{"s998_1_1", {0.998, 0.001, 0.001}, true}),
    [](const ::testing::TestParamInfo<DrrCase>& info) {
      return std::string(info.param.name);
    });

// A lone band whose credit comes to exactly its head's size is served on
// that round and keeps no deficit, so a band that turns backlogged next
// goes before the lone band's second packet (quantums 9,000 and 4,500).
TEST(WeightedDrr, LoneBandCreditEqualToItsHeadServesOnThatRound) {
  WeightedPrioQdisc q({1.0, 0.5},
                      [](const Packet& p) { return static_cast<int>(p.ack); },
                      1 << 20);
  const auto make = [](std::uint64_t id, std::uint64_t band,
                       std::uint32_t size) {
    Packet p = packet_of(size - 40, Dscp::kDefault);
    p.ack = band;
    p.seq = id;
    return p;
  };
  q.enqueue(make(1, 1, 9000));
  q.enqueue(make(2, 1, 4500));
  EXPECT_EQ(q.dequeue()->seq, 1u);
  q.enqueue(make(3, 0, 1000));
  EXPECT_EQ(q.dequeue()->seq, 3u);
  EXPECT_EQ(q.dequeue()->seq, 2u);
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
