// Property-style parameterized transport tests: every byte arrives
// exactly once, in order, across a sweep of adverse path conditions
// (tiny queues forcing loss, long delays, small MSS, both congestion
// controllers), and concurrent flows all complete.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "net/network.h"
#include "net/qdisc.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "transport/transport_host.h"

namespace meshnet::transport {
namespace {

// (queue_bytes, delay_us, mss, use_ledbat)
using PathParam = std::tuple<std::uint64_t, int, std::uint32_t, bool>;

class PathSweepTest : public ::testing::TestWithParam<PathParam> {};

std::string patterned(std::size_t n, std::uint64_t seed) {
  std::string out(n, '\0');
  sim::RngStream rng(seed, "payload");
  for (std::size_t i = 0; i < n; i += 64) {
    const std::uint64_t v = rng.next_u64();
    for (std::size_t j = i; j < std::min(i + 64, n); ++j) {
      out[j] = static_cast<char>((v >> ((j % 8) * 8)) ^ j);
    }
  }
  return out;
}

TEST_P(PathSweepTest, ExactlyOnceInOrderDelivery) {
  const auto [queue_bytes, delay_us, mss, ledbat] = GetParam();
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  net.add_link(a, b, 1e8, sim::microseconds(delay_us),
               std::make_unique<net::FifoQdisc>(queue_bytes), "fwd");
  net.add_link(b, a, 1e8, sim::microseconds(delay_us),
               std::make_unique<net::FifoQdisc>(queue_bytes), "rev");
  const auto ip_a = net::make_ip(10, 0, 0, 1);
  const auto ip_b = net::make_ip(10, 0, 0, 2);
  net.attach_interface(ip_a, a);
  net.attach_interface(ip_b, b);
  TransportHost host_a(sim, net, ip_a);
  TransportHost host_b(sim, net, ip_b);

  std::string received;
  host_b.listen(80, [&](Connection& c) {
    c.set_on_data([&](std::string_view d) { received.append(d); });
  });

  ConnectionOptions options;
  options.mss = mss;
  options.cc = ledbat ? CcAlgorithm::kLedbat : CcAlgorithm::kReno;
  Connection& client = host_a.connect({ip_b, 80}, options);
  const std::string sent = patterned(400'000, queue_bytes ^ mss);
  client.send(sent);
  sim.run_until(sim::seconds(120));
  ASSERT_EQ(received.size(), sent.size())
      << "queue=" << queue_bytes << " delay=" << delay_us << " mss=" << mss
      << " cc=" << (ledbat ? "ledbat" : "reno");
  EXPECT_EQ(received, sent);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, PathSweepTest,
    ::testing::Values(
        PathParam{3'000, 100, 1000, false},     // heavy loss, Reno
        PathParam{3'000, 100, 1000, true},      // heavy loss, LEDBAT
        PathParam{6'000, 5'000, 1460, false},   // loss + long RTT
        PathParam{64'000, 100, 536, false},     // tiny MSS
        PathParam{1'000'000, 10'000, 8960, false},  // clean fat path
        PathParam{1'000'000, 10'000, 8960, true},
        PathParam{4'500, 1'000, 9000, false},   // queue < one segment pair
        PathParam{20'000, 50, 100, true}));     // many tiny segments

TEST(ConcurrentFlows, AllCompleteOverSharedBottleneck) {
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  net.add_link(a, b, 1e8, sim::microseconds(500),
               std::make_unique<net::FifoQdisc>(30'000), "fwd");
  net.add_link(b, a, 1e8, sim::microseconds(500),
               std::make_unique<net::FifoQdisc>(30'000), "rev");
  const auto ip_a = net::make_ip(10, 0, 0, 1);
  const auto ip_b = net::make_ip(10, 0, 0, 2);
  net.attach_interface(ip_a, a);
  net.attach_interface(ip_b, b);
  TransportHost host_a(sim, net, ip_a);
  TransportHost host_b(sim, net, ip_b);

  constexpr int kFlows = 8;
  constexpr std::size_t kPerFlow = 200'000;
  std::vector<std::uint64_t> received(kFlows, 0);
  int next_flow = 0;
  host_b.listen(80, [&](Connection& c) {
    const int idx = next_flow++;
    c.set_on_data([&received, idx](std::string_view d) {
      received[static_cast<std::size_t>(idx)] += d.size();
    });
  });
  for (int i = 0; i < kFlows; ++i) {
    ConnectionOptions options;
    options.mss = 1460;
    // Mix of controllers sharing the link.
    options.cc = i % 2 ? CcAlgorithm::kLedbat : CcAlgorithm::kReno;
    host_a.connect({ip_b, 80}, options).send(std::string(kPerFlow, 'a' + i));
  }
  sim.run_until(sim::seconds(120));
  for (int i = 0; i < kFlows; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], kPerFlow)
        << "flow " << i;
  }
  // The shared path saw real loss (otherwise this test proves little).
  EXPECT_GT(host_a.stats().retransmits, 0u);
}

TEST(ConcurrentFlows, LedbatYieldsToReno) {
  // One Reno and one LEDBAT bulk flow share a bottleneck: after
  // convergence the Reno flow should hold clearly more than half the
  // goodput (the scavenger property at transport level).
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  net.add_link(a, b, 1e8, sim::microseconds(500),
               std::make_unique<net::FifoQdisc>(500'000), "fwd");
  net.add_link(b, a, 1e8, sim::microseconds(500),
               std::make_unique<net::FifoQdisc>(500'000), "rev");
  const auto ip_a = net::make_ip(10, 0, 0, 1);
  const auto ip_b = net::make_ip(10, 0, 0, 2);
  net.attach_interface(ip_a, a);
  net.attach_interface(ip_b, b);
  TransportHost host_a(sim, net, ip_a);
  TransportHost host_b(sim, net, ip_b);

  std::uint64_t received_reno = 0, received_ledbat = 0;
  int accepted = 0;
  host_b.listen(80, [&](Connection& c) {
    auto* counter = accepted++ == 0 ? &received_reno : &received_ledbat;
    c.set_on_data([counter](std::string_view d) { *counter += d.size(); });
  });

  ConnectionOptions reno;
  reno.mss = 1460;
  Connection& reno_conn = host_a.connect({ip_b, 80}, reno);
  ConnectionOptions ledbat;
  ledbat.mss = 1460;
  ledbat.cc = CcAlgorithm::kLedbat;
  Connection& ledbat_conn = host_a.connect({ip_b, 80}, ledbat);

  // Keep both flows backlogged.
  const std::string chunk(1 << 18, 'x');
  std::function<void()> top_up = [&] {
    if (reno_conn.send_backlog() < (1u << 20)) reno_conn.send(chunk);
    if (ledbat_conn.send_backlog() < (1u << 20)) ledbat_conn.send(chunk);
    sim.schedule_after(sim::milliseconds(20), top_up);
  };
  sim.schedule_after(0, top_up);
  sim.run_until(sim::seconds(30));

  const double total =
      static_cast<double>(received_reno + received_ledbat);
  ASSERT_GT(total, 0.0);
  EXPECT_GT(static_cast<double>(received_reno) / total, 0.7)
      << "reno=" << received_reno << " ledbat=" << received_ledbat;
}

// ----- send(head, body) cuts the segments send(head + body) would -----

constexpr std::uint32_t kSplitMss = 1000;

/// A FIFO that drops each offered packet with probability `loss`, and
/// counts what it dropped: data segments and pure ACKs apart.
class LossyQdisc : public net::FifoQdisc {
 public:
  LossyQdisc(double loss, std::uint64_t seed, std::string_view name)
      : loss_(loss), rng_(seed, name) {}

  bool enqueue(net::Packet packet) override {
    if (rng_.bernoulli(loss_)) {
      ++(packet.payload_size() > 0 ? data_drops : ack_drops);
      return false;
    }
    return net::FifoQdisc::enqueue(std::move(packet));
  }

  std::uint64_t data_drops = 0;
  std::uint64_t ack_drops = 0;

 private:
  double loss_;
  sim::RngStream rng_;
};

TEST(RandomLoss, EveryByteArrivesWhenDataAndAcksAreLost) {
  // 30% of the packets in each direction are lost, the handshake's
  // included: the sender must recover lost data and lost ACKs alike.
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  auto fwd = std::make_unique<LossyQdisc>(0.3, 7, "fwd");
  auto rev = std::make_unique<LossyQdisc>(0.3, 7, "rev");
  const LossyQdisc& data_path = *fwd;
  const LossyQdisc& ack_path = *rev;
  net.add_link(a, b, 1e8, sim::microseconds(100), std::move(fwd), "fwd");
  net.add_link(b, a, 1e8, sim::microseconds(100), std::move(rev), "rev");
  const auto ip_a = net::make_ip(10, 0, 0, 1);
  const auto ip_b = net::make_ip(10, 0, 0, 2);
  net.attach_interface(ip_a, a);
  net.attach_interface(ip_b, b);
  TransportHost host_a(sim, net, ip_a);
  TransportHost host_b(sim, net, ip_b);

  std::string received;
  host_b.listen(80, [&](Connection& c) {
    c.set_on_data([&](std::string_view d) { received.append(d); });
  });
  Connection& client = host_a.connect({ip_b, 80});
  const std::string sent = patterned(40'000, 11);
  for (std::size_t at = 0; at < sent.size(); at += 2000) {
    client.send(sent.substr(at, 2000));
    sim.run_until(sim.now() + sim::milliseconds(200));
  }
  sim.run_until(sim.now() + sim::seconds(20));
  EXPECT_EQ(received, sent);
  EXPECT_GT(data_path.data_drops, 0u);
  EXPECT_GT(ack_path.ack_drops, 0u);
}

/// One data segment as the fabric saw it (retransmits included).
struct WireSegment {
  std::uint64_t seq;
  std::string bytes;  ///< payload then payload_tail
  bool operator==(const WireSegment&) const = default;
};

/// A FIFO that logs every data segment offered to it and drops the first
/// transmission of the segment at `drop_seq`.
class TapQdisc : public net::FifoQdisc {
 public:
  TapQdisc(std::vector<WireSegment>* log, std::size_t* two_slice,
           std::optional<std::uint64_t> drop_seq)
      : net::FifoQdisc(1 << 20),
        log_(log),
        two_slice_(two_slice),
        drop_seq_(drop_seq) {}

  bool enqueue(net::Packet packet) override {
    if (packet.payload_size() > 0) {
      log_->push_back({packet.seq, std::string(packet.payload.view()) +
                                       std::string(packet.payload_tail.view())});
      if (!packet.payload_tail.empty()) ++*two_slice_;
      if (drop_seq_ == packet.seq) {
        drop_seq_.reset();
        return false;
      }
    }
    return net::FifoQdisc::enqueue(std::move(packet));
  }

 private:
  std::vector<WireSegment>* log_;
  std::size_t* two_slice_;
  std::optional<std::uint64_t> drop_seq_;
};

struct SplitRun {
  std::vector<WireSegment> segments;
  std::size_t two_slice_segments = 0;
  std::string delivered;
};

/// Sends `copies` copies of the message (head, body), split or joined,
/// over a clean path whose forward qdisc drops the segment at `drop_seq`
/// once.
SplitRun run_split(const std::string& head, const std::string& body,
                   bool split, std::optional<std::uint64_t> drop_seq,
                   int copies = 2) {
  SplitRun run;
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  net.add_link(a, b, 1e8, sim::microseconds(100),
               std::make_unique<TapQdisc>(&run.segments,
                                          &run.two_slice_segments, drop_seq),
               "fwd");
  net.add_link(b, a, 1e8, sim::microseconds(100), nullptr, "rev");
  const auto ip_a = net::make_ip(10, 0, 0, 1);
  const auto ip_b = net::make_ip(10, 0, 0, 2);
  net.attach_interface(ip_a, a);
  net.attach_interface(ip_b, b);
  TransportHost host_a(sim, net, ip_a);
  TransportHost host_b(sim, net, ip_b);
  host_b.listen(80, [&](Connection& c) {
    c.set_on_data([&](std::string_view d) { run.delivered.append(d); });
  });
  ConnectionOptions options;
  options.mss = kSplitMss;
  Connection& client = host_a.connect({ip_b, 80}, options);
  for (int copy = 0; copy < copies; ++copy) {
    if (split) {
      client.send(net::Payload::copy_of(head), net::Payload::copy_of(body));
    } else {
      client.send(net::Payload::copy_of(head + body));
    }
  }
  sim.run_until(sim::seconds(60));
  return run;
}

class HeadBodySplitTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HeadBodySplitTest, SameSegmentsAndBytesAsTheJoinedSend) {
  constexpr std::size_t kM = kSplitMss;
  const std::string head = patterned(GetParam(), 1);
  for (const std::size_t body_bytes :
       {std::size_t{0}, std::size_t{1}, kM - 1, kM, kM + 1, 5 * kM + 3}) {
    const std::string body = patterned(body_bytes, 2);
    const std::size_t total = head.size() + body.size();
    if (total == 0) continue;
    // The segment holding the first body byte (the straddling one, when
    // the boundary is not on an MSS multiple), and the one before it, so
    // the straddler itself goes through the out-of-order buffer.
    const std::uint64_t at_boundary =
        std::min(head.size(), total - 1) / kM * kM;
    std::vector<std::optional<std::uint64_t>> drops = {std::nullopt,
                                                       at_boundary};
    if (at_boundary >= kM) drops.push_back(at_boundary - kM);
    for (const auto& drop : drops) {
      SCOPED_TRACE(::testing::Message()
                   << "head=" << head.size() << " body=" << body.size()
                   << " drop=" << (drop ? std::to_string(*drop) : "none"));
      const SplitRun joined = run_split(head, body, false, drop);
      const SplitRun split = run_split(head, body, true, drop);
      EXPECT_EQ(split.segments, joined.segments);
      EXPECT_EQ(split.delivered, joined.delivered);
      EXPECT_EQ(joined.delivered, head + body + head + body);
      EXPECT_EQ(joined.two_slice_segments, 0u);
      // Exactly the segments (retransmits included) that cross a copy's
      // head/body boundary carry two slices.
      std::size_t straddlers = 0;
      for (const WireSegment& seg : joined.segments) {
        for (const std::size_t boundary : {head.size(), total + head.size()}) {
          straddlers += !body.empty() && seg.seq < boundary &&
                        boundary < seg.seq + seg.bytes.size();
        }
      }
      EXPECT_EQ(split.two_slice_segments, straddlers);
      if (drop) {
        EXPECT_GT(joined.segments.size(), 2 * ((total + kM - 1) / kM));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HeadSizes, HeadBodySplitTest,
                         ::testing::Values(0, 1, kSplitMss - 1, kSplitMss,
                                           kSplitMss + 1, 3 * kSplitMss + 17));

// ----- go-back-N over the segment ring ---------------------------------

TEST(SegmentRing, CumulativeAckCoversSegmentsParkedByAnRto) {
  // Three segments, the first lost: the other two wait out of order at
  // the receiver, two duplicate ACKs are too few for fast retransmit, and
  // the RTO moves the send cursor back over all three. Resending the
  // first releases the receiver's buffer, and its cumulative ACK covers
  // the two parked segments, which must not go out again.
  const std::string head = patterned(1500, 3);  // segment 1 straddles
  const std::string body = patterned(1200, 4);
  const std::vector<WireSegment> expected = {
      {0, head.substr(0, 1000)},
      {1000, head.substr(1000) + body.substr(0, 500)},
      {2000, body.substr(500)},
      {0, head.substr(0, 1000)},  // the RTO's one retransmit
  };
  for (const bool split : {false, true}) {
    SCOPED_TRACE(split ? "split" : "joined");
    const SplitRun run = run_split(head, body, split, 0, /*copies=*/1);
    EXPECT_EQ(run.segments, expected);
    EXPECT_EQ(run.delivered, head + body);
    EXPECT_EQ(run.two_slice_segments, split ? 1u : 0u);
  }
}

}  // namespace
}  // namespace meshnet::transport
