// Tests for addressing, qdiscs, links and the routed fabric, and for the
// heap-free packet path under a transport pair.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "net/address.h"
#include "net/link.h"
#include "net/network.h"
#include "net/packet.h"
#include "net/qdisc.h"
#include "sim/simulator.h"
#include "transport/transport_host.h"

namespace meshnet::net {
namespace {

Packet make_packet(std::uint32_t payload_bytes, Dscp dscp = Dscp::kDefault,
                   IpAddress dst = make_ip(10, 0, 0, 2)) {
  Packet p;
  p.flow = FlowKey{make_ip(10, 0, 0, 1), 1000, dst, 2000};
  p.dscp = dscp;
  if (payload_bytes > 0) {
    p.payload = Payload::filled(payload_bytes, 'x');
  }
  return p;
}

TEST(Address, IpFormatting) {
  EXPECT_EQ(ip_to_string(make_ip(10, 244, 0, 2)), "10.244.0.2");
  EXPECT_EQ(ip_to_string(0), "0.0.0.0");
  EXPECT_EQ(ip_to_string(0xffffffff), "255.255.255.255");
}

TEST(Address, ParseRoundTrip) {
  const IpAddress ip = make_ip(192, 168, 1, 77);
  EXPECT_EQ(parse_ip(ip_to_string(ip)), ip);
}

TEST(Address, ParseRejectsMalformed) {
  EXPECT_EQ(parse_ip(""), kNoAddress);
  EXPECT_EQ(parse_ip("10.0.0"), kNoAddress);
  EXPECT_EQ(parse_ip("10.0.0.256"), kNoAddress);
  EXPECT_EQ(parse_ip("a.b.c.d"), kNoAddress);
}

TEST(Address, FlowKeyReversed) {
  const FlowKey key{1, 2, 3, 4};
  const FlowKey rev = key.reversed();
  EXPECT_EQ(rev.src_ip, 3u);
  EXPECT_EQ(rev.src_port, 4);
  EXPECT_EQ(rev.dst_ip, 1u);
  EXPECT_EQ(rev.dst_port, 2);
  EXPECT_EQ(rev.reversed(), key);
}

TEST(Address, FlowKeyHashDiffers) {
  FlowKeyHash hash;
  const FlowKey a{1, 2, 3, 4};
  const FlowKey b{1, 2, 3, 5};
  EXPECT_NE(hash(a), hash(b));
  EXPECT_EQ(hash(a), hash(FlowKey{1, 2, 3, 4}));
}

// ---- Pooled payload buffers -------------------------------------------

TEST(Payload, CopySliceAndViews) {
  const std::string data = "0123456789abcdef";
  Payload whole = Payload::copy_of(data);
  EXPECT_EQ(whole.view(), data);
  EXPECT_EQ(whole.size(), data.size());
  EXPECT_FALSE(whole.empty());

  Payload mid = whole.slice(4, 6);
  EXPECT_EQ(mid.view(), "456789");
  // Slices share the block: same underlying bytes.
  EXPECT_EQ(mid.data(), whole.data() + 4);

  // The slice keeps the block alive after the parent dies.
  whole.reset();
  EXPECT_TRUE(whole.empty());
  EXPECT_EQ(mid.view(), "456789");

  Payload copy = mid;          // copy shares
  Payload moved = std::move(mid);
  EXPECT_EQ(copy.view(), "456789");
  EXPECT_EQ(moved.view(), "456789");
  EXPECT_TRUE(mid.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(Payload, EmptyAndFilled) {
  Payload empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.view(), "");
  EXPECT_TRUE(Payload::copy_of("").empty());

  Payload filled = Payload::filled(1000, 'x');
  EXPECT_EQ(filled.size(), 1000u);
  EXPECT_EQ(filled.view().front(), 'x');
  EXPECT_EQ(filled.view().back(), 'x');
}

TEST(Payload, PoolReusesBlocks) {
  // Packet-sized and whole-bulk-message-sized blocks alike.
  for (const std::size_t bytes : {std::size_t{1400}, std::size_t{2} << 20}) {
    SCOPED_TRACE(bytes);
    payload_pool_trim();
    const PayloadPoolStats before = payload_pool_stats();
    char* out = nullptr;
    { Payload p = Payload::uninitialized(bytes, &out); }
    { Payload p = Payload::uninitialized(bytes, &out); }  // same class: reuse
    const PayloadPoolStats after = payload_pool_stats();
    EXPECT_EQ(after.pool_misses - before.pool_misses, 1u);
    EXPECT_EQ(after.pool_hits - before.pool_hits, 1u);
    EXPECT_EQ(after.unpooled, before.unpooled);
    EXPECT_EQ(after.blocks_cached, 1u);
    payload_pool_trim();
    EXPECT_EQ(payload_pool_stats().blocks_cached, 0u);
    EXPECT_EQ(payload_pool_stats().bytes_cached, 0u);
  }
}

TEST(Payload, FillsOfOneByteShareACachedBlock) {
  payload_pool_trim();
  const Payload first = Payload::filled(1000, 'f');
  const Payload second = Payload::filled(600, 'f');
  EXPECT_EQ(first.view(), std::string(1000, 'f'));
  EXPECT_EQ(second.view(), std::string(600, 'f'));
  EXPECT_EQ(second.data(), first.data());  // one block, filled once
  const Payload other = Payload::filled(600, 'g');
  EXPECT_EQ(other.view(), std::string(600, 'g'));
  EXPECT_NE(other.data(), first.data());

  // A larger fill grows the cached block to at least twice its size;
  // slices of the old block stay valid.
  const Payload grown = Payload::filled(1500, 'f');
  EXPECT_EQ(grown.view(), std::string(1500, 'f'));
  EXPECT_NE(grown.data(), first.data());
  EXPECT_EQ(Payload::filled(2000, 'f').data(), grown.data());
  EXPECT_EQ(first.view(), std::string(1000, 'f'));

  // Trim drops the cached blocks: the next fill starts a fresh one.
  payload_pool_trim();
  const PayloadPoolStats before = payload_pool_stats();
  const Payload fresh = Payload::filled(1500, 'f');
  EXPECT_EQ(payload_pool_stats().pool_misses - before.pool_misses, 1u);
  EXPECT_NE(fresh.data(), grown.data());
  EXPECT_EQ(fresh.view(), std::string(1500, 'f'));
}

TEST(Payload, OversizedBlocksBypassThePool) {
  payload_pool_trim();
  const PayloadPoolStats before = payload_pool_stats();
  char* out = nullptr;
  { Payload p = Payload::uninitialized(16 * 1024 * 1024 + 1, &out); }
  const PayloadPoolStats after = payload_pool_stats();
  EXPECT_EQ(after.unpooled - before.unpooled, 1u);
  EXPECT_EQ(after.blocks_cached, 0u);  // not cached on release
}

TEST(Payload, UninitializedIsFilledBeforeSharing) {
  char* bytes = nullptr;
  Payload p = Payload::uninitialized(5, &bytes);
  ASSERT_NE(bytes, nullptr);
  std::memcpy(bytes, "hello", 5);
  const Payload copy = p;
  EXPECT_EQ(copy.view(), "hello");
  EXPECT_TRUE(Payload::uninitialized(0, &bytes).empty());
  EXPECT_EQ(bytes, nullptr);
}

TEST(Payload, ContinuedByHoldsOnlyForAdjacentSlicesOfOneBlock) {
  const Payload whole = Payload::copy_of("0123456789");
  Payload head = whole.slice(0, 4);
  EXPECT_TRUE(head.continued_by(whole.slice(4, 3)));
  EXPECT_FALSE(head.continued_by(whole.slice(5, 3)));  // gap
  EXPECT_FALSE(head.continued_by(whole.slice(2, 3)));  // overlap
  EXPECT_FALSE(whole.slice(4, 3).continued_by(head));  // wrong order
  // Same bytes, other block: never a continuation, even if the addresses
  // happen to line up.
  const Payload other = Payload::copy_of("456");
  EXPECT_FALSE(head.continued_by(other));
  EXPECT_FALSE(Payload().continued_by(Payload()));

  head.extend(whole.slice(4, 3));
  EXPECT_EQ(head.view(), "0123456");
  EXPECT_TRUE(head.continued_by(whole.slice(7, 3)));
  const std::string_view as_view = head;  // implicit conversion
  EXPECT_EQ(as_view, "0123456");
}

TEST(Payload, SizesOf4GiBOrMoreThrowWithoutAllocating) {
  if constexpr (sizeof(std::size_t) > sizeof(std::uint32_t)) {
    const PayloadPoolStats before = payload_pool_stats();
    char* bytes = nullptr;
    EXPECT_THROW(Payload::uninitialized(std::size_t{1} << 32, &bytes),
                 std::length_error);
    EXPECT_THROW(Payload::filled((std::size_t{1} << 32) + 100, 'x'),
                 std::length_error);
    const PayloadPoolStats after = payload_pool_stats();
    EXPECT_EQ(after.pool_hits, before.pool_hits);
    EXPECT_EQ(after.pool_misses, before.pool_misses);
    EXPECT_EQ(after.unpooled, before.unpooled);
  }
}

TEST(Payload, CopiesAreCountedAndSlicesAreNot) {
  const std::uint64_t before = payload_pool_stats().bytes_copied;
  const Payload copied = Payload::copy_of("0123456789");
  EXPECT_EQ(payload_pool_stats().bytes_copied - before, 10u);
  const Payload filled = Payload::filled(1000, 'x');
  const Payload slice = copied.slice(2, 5);
  EXPECT_EQ(payload_pool_stats().bytes_copied - before, 10u);
  count_bytes_copied(7);
  EXPECT_EQ(payload_pool_stats().bytes_copied - before, 17u);
}

TEST(Packet, SizeAccounting) {
  Packet p = make_packet(100);
  EXPECT_EQ(p.payload_size(), 100u);
  EXPECT_EQ(p.size_bytes(), 140u);  // 40B header
  // A segment straddling a head/body boundary: both slices count.
  p.payload_tail = Payload::filled(30, 'y');
  EXPECT_EQ(p.payload_size(), 130u);
  EXPECT_EQ(p.size_bytes(), 170u);
  Packet ack = make_packet(0);
  EXPECT_EQ(ack.payload_size(), 0u);
  EXPECT_EQ(ack.size_bytes(), 40u);
}

TEST(FifoQdisc, FifoOrder) {
  FifoQdisc q(1 << 20);
  for (int i = 1; i <= 3; ++i) q.enqueue(make_packet(100 * i), 0);
  EXPECT_EQ(q.dequeue(0)->payload_size(), 100u);
  EXPECT_EQ(q.dequeue(0)->payload_size(), 200u);
  EXPECT_EQ(q.dequeue(0)->payload_size(), 300u);
  EXPECT_FALSE(q.dequeue(0).has_value());
}

TEST(FifoQdisc, DropsWhenFull) {
  FifoQdisc q(300);
  EXPECT_TRUE(q.enqueue(make_packet(200), 0));   // 240 bytes
  EXPECT_FALSE(q.enqueue(make_packet(200), 0));  // would exceed 300
  EXPECT_EQ(q.stats().dropped_packets, 1u);
  EXPECT_EQ(q.backlog_packets(), 1u);
}

TEST(FifoQdisc, AlwaysAcceptsIntoEmptyQueue) {
  FifoQdisc q(10);  // limit below even one packet
  EXPECT_TRUE(q.enqueue(make_packet(1000), 0));
  EXPECT_EQ(q.backlog_packets(), 1u);
}

TEST(FifoQdisc, StatsTrackBytes) {
  FifoQdisc q(1 << 20);
  q.enqueue(make_packet(100), 0);
  q.enqueue(make_packet(50), 0);
  EXPECT_EQ(q.stats().enqueued_packets, 2u);
  EXPECT_EQ(q.stats().enqueued_bytes, 230u);
  EXPECT_EQ(q.stats().max_backlog_bytes, 230u);
  q.dequeue(0);
  EXPECT_EQ(q.stats().dequeued_packets, 1u);
  EXPECT_EQ(q.backlog_bytes(), 90u);
}

TEST(FifoQdisc, NextReady) {
  FifoQdisc q(1 << 20);
  EXPECT_FALSE(q.next_ready(5).has_value());
  q.enqueue(make_packet(10), 5);
  EXPECT_EQ(q.next_ready(5).value(), 5);
}

TEST(StrictPrioQdisc, HighBandAlwaysFirst) {
  StrictPrioQdisc q(2, classify_by_dscp());
  q.enqueue(make_packet(100, Dscp::kScavenger), 0);
  q.enqueue(make_packet(200, Dscp::kExpedited), 0);
  q.enqueue(make_packet(300, Dscp::kScavenger), 0);
  q.enqueue(make_packet(400, Dscp::kExpedited), 0);
  EXPECT_EQ(q.dequeue(0)->payload_size(), 200u);
  EXPECT_EQ(q.dequeue(0)->payload_size(), 400u);
  EXPECT_EQ(q.dequeue(0)->payload_size(), 100u);
  EXPECT_EQ(q.dequeue(0)->payload_size(), 300u);
}

TEST(StrictPrioQdisc, PerBandLimits) {
  StrictPrioQdisc q(2, classify_by_dscp(), 300);
  EXPECT_TRUE(q.enqueue(make_packet(200, Dscp::kExpedited), 0));
  EXPECT_FALSE(q.enqueue(make_packet(200, Dscp::kExpedited), 0));
  // The low band has its own budget.
  EXPECT_TRUE(q.enqueue(make_packet(200, Dscp::kScavenger), 0));
  EXPECT_EQ(q.band_drops(0), 1u);
  EXPECT_EQ(q.band_drops(1), 0u);
}

TEST(StrictPrioQdisc, ClassifierClamping) {
  StrictPrioQdisc q(2, classify_all_to(99));  // out of range -> last band
  EXPECT_TRUE(q.enqueue(make_packet(10), 0));
  EXPECT_EQ(q.band_backlog_packets(1), 1u);
  StrictPrioQdisc q2(2, classify_all_to(-5));  // negative -> band 0
  EXPECT_TRUE(q2.enqueue(make_packet(10), 0));
  EXPECT_EQ(q2.band_backlog_packets(0), 1u);
}

TEST(WeightedPrioQdisc, EmptyDequeue) {
  WeightedPrioQdisc q({0.95, 0.05}, classify_by_dscp());
  EXPECT_FALSE(q.dequeue(0).has_value());
}

TEST(WeightedPrioQdisc, SharesApproximateConfiguration) {
  // Keep both bands saturated and measure the byte split.
  WeightedPrioQdisc q({0.95, 0.05}, classify_by_dscp(), 1 << 30);
  auto refill = [&] {
    while (q.band_backlog_packets(0) < 50) {
      q.enqueue(make_packet(1400, Dscp::kExpedited), 0);
    }
    while (q.band_backlog_packets(1) < 50) {
      q.enqueue(make_packet(1400, Dscp::kScavenger), 0);
    }
  };
  for (int i = 0; i < 4000; ++i) {
    refill();
    ASSERT_TRUE(q.dequeue(0).has_value());
  }
  const double high = static_cast<double>(q.band_dequeued_bytes(0));
  const double low = static_cast<double>(q.band_dequeued_bytes(1));
  EXPECT_NEAR(high / (high + low), 0.95, 0.02);
}

TEST(WeightedPrioQdisc, IdleHighBandYieldsFully) {
  WeightedPrioQdisc q({0.95, 0.05}, classify_by_dscp(), 1 << 30);
  for (int i = 0; i < 100; ++i) {
    q.enqueue(make_packet(1000, Dscp::kScavenger), 0);
  }
  // With no high traffic, every dequeue serves the low band immediately.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.dequeue(0).has_value());
  }
  EXPECT_EQ(q.band_dequeued_bytes(1), 100u * 1040u);
}

TEST(WeightedPrioQdisc, HighPacketJumpsLowBacklog) {
  WeightedPrioQdisc q({0.95, 0.05}, classify_by_dscp(), 1 << 30);
  for (int i = 0; i < 50; ++i) {
    q.enqueue(make_packet(1400, Dscp::kScavenger), 0);
  }
  q.enqueue(make_packet(100, Dscp::kExpedited), 0);
  // The next few dequeues must include the high packet almost instantly
  // (DRR may emit at most one low packet first from residual deficit).
  bool high_seen = false;
  for (int i = 0; i < 2 && !high_seen; ++i) {
    const auto p = q.dequeue(0);
    ASSERT_TRUE(p.has_value());
    high_seen = p->dscp == Dscp::kExpedited;
  }
  EXPECT_TRUE(high_seen);
}

TEST(WeightedPrioQdisc, DropsPerBand) {
  WeightedPrioQdisc q({0.5, 0.5}, classify_by_dscp(), 300);
  EXPECT_TRUE(q.enqueue(make_packet(200, Dscp::kExpedited), 0));
  EXPECT_FALSE(q.enqueue(make_packet(200, Dscp::kExpedited), 0));
  EXPECT_TRUE(q.enqueue(make_packet(200, Dscp::kScavenger), 0));
  EXPECT_EQ(q.band_drops(0), 1u);
  EXPECT_EQ(q.band_drops(1), 0u);
}

TEST(TokenBucketQdisc, ShapesToRate) {
  // 8 Mbps = 1 byte/us. A 1000-byte packet needs 1040 us of tokens.
  TokenBucketQdisc q(8e6, 100, 1 << 20);  // tiny burst
  q.enqueue(make_packet(1000), 0);
  EXPECT_FALSE(q.dequeue(0).has_value());  // not enough tokens yet
  const auto ready = q.next_ready(0);
  ASSERT_TRUE(ready.has_value());
  EXPECT_GT(*ready, 0);
  EXPECT_TRUE(q.dequeue(*ready).has_value());
}

TEST(TokenBucketQdisc, BurstAllowsImmediateDequeue) {
  TokenBucketQdisc q(8e6, 10'000, 1 << 20);
  q.enqueue(make_packet(1000), 0);
  EXPECT_TRUE(q.dequeue(0).has_value());
}

TEST(TokenBucketQdisc, TokensCapAtBurst) {
  TokenBucketQdisc q(8e9, 5000, 1 << 20);
  EXPECT_NEAR(q.tokens_at(sim::seconds(100)), 5000.0, 1e-6);
}

TEST(Classifiers, ByDstIp) {
  const IpAddress high = make_ip(10, 244, 0, 7);
  auto c = classify_by_dst_ip(high);
  EXPECT_EQ(c(make_packet(1, Dscp::kDefault, high)), 0);
  EXPECT_EQ(c(make_packet(1, Dscp::kDefault, make_ip(10, 244, 0, 8))), 1);
}

TEST(Classifiers, ByDscp) {
  auto c = classify_by_dscp();
  EXPECT_EQ(c(make_packet(1, Dscp::kExpedited)), 0);
  EXPECT_EQ(c(make_packet(1, Dscp::kScavenger)), 1);
  EXPECT_EQ(c(make_packet(1, Dscp::kDefault)), 1);
}

// ---------------------------------------------------------------- Link --

TEST(Link, SerializationAndPropagationDelay) {
  sim::Simulator sim;
  // 1250-byte payload + 40B header = 1290 bytes at 1 Gbps = 10.32 us,
  // plus 5 us propagation.
  Link link(sim, "l", 1e9, sim::microseconds(5),
            std::make_unique<FifoQdisc>());
  sim::Time delivered_at = -1;
  link.set_sink([&](Packet) { delivered_at = sim.now(); });
  link.send(make_packet(1250));
  sim.run();
  EXPECT_EQ(delivered_at, sim::transmission_time(1290, 1e9) +
                              sim::microseconds(5));
}

TEST(Link, BackToBackPacketsSerialize) {
  sim::Simulator sim;
  Link link(sim, "l", 1e9, 0, std::make_unique<FifoQdisc>());
  std::vector<sim::Time> deliveries;
  link.set_sink([&](Packet) { deliveries.push_back(sim.now()); });
  link.send(make_packet(1210));  // 1250B -> 10 us
  link.send(make_packet(1210));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[1] - deliveries[0], sim::microseconds(10));
}

TEST(Link, UtilizationAndStats) {
  sim::Simulator sim;
  Link link(sim, "l", 1e9, 0, std::make_unique<FifoQdisc>());
  link.set_sink([](Packet) {});
  link.send(make_packet(1210));
  sim.run();
  EXPECT_EQ(link.stats().delivered_packets, 1u);
  EXPECT_EQ(link.stats().delivered_bytes, 1250u);
  EXPECT_GT(link.utilization(sim.now()), 0.99);
}

TEST(Link, QdiscReplaceDropsBacklog) {
  sim::Simulator sim;
  Link link(sim, "l", 1e3, 0, std::make_unique<FifoQdisc>());  // slow
  int delivered = 0;
  link.set_sink([&](Packet) { ++delivered; });
  for (int i = 0; i < 5; ++i) link.send(make_packet(100));
  link.set_qdisc(std::make_unique<FifoQdisc>());
  sim.run();
  EXPECT_EQ(delivered, 1);  // only the packet already on the wire
}

TEST(Link, ShapedQdiscRetries) {
  sim::Simulator sim;
  // Link is fast, but the token bucket inside only allows ~1 packet per
  // 100 us; the link must keep polling next_ready.
  Link link(sim, "l", 1e12, 0,
            std::make_unique<TokenBucketQdisc>(8e7, 1100, 1 << 20));
  std::vector<sim::Time> deliveries;
  link.set_sink([&](Packet) { deliveries.push_back(sim.now()); });
  for (int i = 0; i < 3; ++i) link.send(make_packet(960));  // 1000B each
  sim.run();
  ASSERT_EQ(deliveries.size(), 3u);
  // 8e7 bps = 10 bytes/us -> 1000 bytes = 100 us between packets.
  EXPECT_NEAR(static_cast<double>(deliveries[2] - deliveries[1]),
              static_cast<double>(sim::microseconds(100)), 2000.0);
}

// -------------------------------------------------------------- Network --

class NetworkTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  Network net{sim};
};

TEST_F(NetworkTest, DeliversAcrossOneLink) {
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  net.add_duplex_link(a, b, 1e9, sim::microseconds(1));
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& dst = net.attach_interface(make_ip(10, 0, 0, 2), b);
  int got = 0;
  dst.set_handler([&](Packet) { ++got; });
  net.send(make_packet(100));
  sim.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NetworkTest, DuplicateAddressThrows) {
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  Interface& first = net.attach_interface(make_ip(10, 0, 0, 1), a);
  EXPECT_THROW(net.attach_interface(make_ip(10, 0, 0, 1), b),
               std::invalid_argument);
  EXPECT_EQ(net.find_interface(make_ip(10, 0, 0, 1)), &first);
}

TEST_F(NetworkTest, MultiHopRouting) {
  // a - m1 - m2 - b line topology.
  const auto a = net.add_location("a");
  const auto m1 = net.add_location("m1");
  const auto m2 = net.add_location("m2");
  const auto b = net.add_location("b");
  net.add_duplex_link(a, m1, 1e9, 1000);
  net.add_duplex_link(m1, m2, 1e9, 1000);
  net.add_duplex_link(m2, b, 1e9, 1000);
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& dst = net.attach_interface(make_ip(10, 0, 0, 2), b);
  sim::Time arrival = -1;
  dst.set_handler([&](Packet) { arrival = sim.now(); });
  net.send(make_packet(100));
  sim.run();
  ASSERT_GE(arrival, 0);
  // Three hops of propagation plus three serializations.
  EXPECT_GE(arrival, 3000);
}

TEST_F(NetworkTest, ShortestPathPreferred) {
  // Direct link a-b plus a detour a-c-b: traffic must use the direct one.
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  const auto c = net.add_location("c");
  auto [direct, _] = net.add_duplex_link(a, b, 1e9, 1000, "direct");
  net.add_duplex_link(a, c, 1e9, 1000);
  net.add_duplex_link(c, b, 1e9, 1000);
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& dst = net.attach_interface(make_ip(10, 0, 0, 2), b);
  dst.set_handler([](Packet) {});
  net.send(make_packet(100));
  sim.run();
  EXPECT_EQ(direct->stats().delivered_packets, 1u);
}

TEST_F(NetworkTest, LoopbackForSameLocation) {
  const auto a = net.add_location("a");
  net.set_loopback_delay(sim::microseconds(3));
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& dst = net.attach_interface(make_ip(10, 0, 0, 2), a);
  sim::Time arrival = -1;
  dst.set_handler([&](Packet) { arrival = sim.now(); });
  net.send(make_packet(100));
  sim.run();
  EXPECT_EQ(arrival, sim::microseconds(3));
}

TEST_F(NetworkTest, LoopbackDeliversInSendOrderAcrossInterfaces) {
  const auto a = net.add_location("a");
  net.set_loopback_delay(sim::microseconds(3));
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& left = net.attach_interface(make_ip(10, 0, 0, 2), a);
  Interface& right = net.attach_interface(make_ip(10, 0, 0, 3), a);
  // (packet id, arrival time, receiving interface)
  std::vector<std::tuple<std::uint64_t, sim::Time, IpAddress>> arrivals;
  for (Interface* iface : {&left, &right}) {
    iface->set_handler([&arrivals, this, ip = iface->ip()](Packet p) {
      arrivals.emplace_back(p.seq, sim.now(), ip);
    });
  }
  // Bursts of varying depth, 1 us apart: the ring grows past its first
  // capacity and wraps while packets are in flight.
  std::vector<std::tuple<std::uint64_t, sim::Time, IpAddress>> expected;
  std::uint64_t id = 0;
  for (int burst = 0; burst < 12; ++burst) {
    sim.schedule_at(sim::microseconds(burst), [&, burst] {
      for (int i = 0; i < 1 + burst % 5 * 4; ++i) {
        const IpAddress dst = id % 3 == 0 ? right.ip() : left.ip();
        Packet p = make_packet(10, Dscp::kDefault, dst);
        p.seq = id++;
        expected.emplace_back(p.seq, sim.now() + sim::microseconds(3), dst);
        net.send(std::move(p));
      }
    });
  }
  sim.run();
  EXPECT_GT(expected.size(), 3u * 8u);
  EXPECT_EQ(arrivals, expected);
}

TEST_F(NetworkTest, LoopbackDelayChangeWithPacketsInFlightThrows) {
  const auto a = net.add_location("a");
  net.set_loopback_delay(sim::microseconds(3));
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& dst = net.attach_interface(make_ip(10, 0, 0, 2), a);
  std::vector<sim::Time> arrivals;
  dst.set_handler([&](Packet) { arrivals.push_back(sim.now()); });
  net.send(make_packet(100));
  // A new delay would let a later packet overtake this one.
  EXPECT_THROW(net.set_loopback_delay(sim::microseconds(1)), std::logic_error);
  EXPECT_EQ(net.loopback_delay(), sim::microseconds(3));
  sim.run();
  EXPECT_EQ(arrivals, std::vector<sim::Time>{sim::microseconds(3)});
  // Nothing in flight: the delay may change again.
  net.set_loopback_delay(sim::microseconds(1));
  net.send(make_packet(100));
  sim.run();
  EXPECT_EQ(arrivals.back(), sim::microseconds(4));
}

TEST(HeapFreePacketPath, MebibyteOverPrioLinkAndLoopbackSchedulesNoHeapTasks) {
  sim::Simulator sim;
  Network net(sim);
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  net.add_link(a, b, 1e9, sim::microseconds(50),
               std::make_unique<WeightedPrioQdisc>(std::vector<double>{95, 5},
                                                   classify_by_dscp()));
  net.add_link(b, a, 1e9, sim::microseconds(50));
  const IpAddress client_ip = make_ip(10, 0, 0, 1);
  const IpAddress remote_ip = make_ip(10, 0, 0, 2);
  const IpAddress local_ip = make_ip(10, 0, 0, 3);
  net.attach_interface(client_ip, a);
  net.attach_interface(remote_ip, b);  // across the prio link
  net.attach_interface(local_ip, a);   // loopback from the client
  transport::TransportHost client(sim, net, client_ip);
  transport::TransportHost remote(sim, net, remote_ip);
  transport::TransportHost local(sim, net, local_ip);
  std::string remote_bytes;
  std::string local_bytes;
  remote.listen(80, [&](transport::Connection& c) {
    c.set_on_data([&](std::string_view d) { remote_bytes.append(d); });
  });
  local.listen(80, [&](transport::Connection& c) {
    c.set_on_data([&](std::string_view d) { local_bytes.append(d); });
  });
  constexpr std::size_t kBody = std::size_t{1} << 20;
  client.connect({remote_ip, 80}).send(Payload::filled(kBody, 'r'));
  client.connect({local_ip, 80}).send(Payload::filled(kBody, 'l'));
  sim.run_until(sim::seconds(10));
  EXPECT_EQ(remote_bytes, std::string(kBody, 'r'));
  EXPECT_EQ(local_bytes, std::string(kBody, 'l'));
  EXPECT_GT(sim.loop_stats().executed, 2 * kBody / 1460);
  EXPECT_EQ(sim.loop_stats().task_heap_allocs, 0u);
}

TEST_F(NetworkTest, UnroutableCountsAndDrops) {
  const auto a = net.add_location("a");
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  net.send(make_packet(100));  // dst 10.0.0.2 unknown
  sim.run();
  EXPECT_EQ(net.unroutable_drops(), 1u);
}

TEST_F(NetworkTest, PartitionedFabricCounts) {
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");  // no link between them
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& dst = net.attach_interface(make_ip(10, 0, 0, 2), b);
  int got = 0;
  dst.set_handler([&](Packet) { ++got; });
  net.send(make_packet(100));
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.unroutable_drops(), 1u);
}

TEST_F(NetworkTest, FindLinkByName) {
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  net.add_link(a, b, 1e9, 0, nullptr, "my-link");
  EXPECT_NE(net.find_link("my-link"), nullptr);
  EXPECT_EQ(net.find_link("nope"), nullptr);
  EXPECT_EQ(net.links().size(), 1u);
}

TEST_F(NetworkTest, TopologyChangeRecomputesRoutes) {
  const auto a = net.add_location("a");
  const auto b = net.add_location("b");
  net.attach_interface(make_ip(10, 0, 0, 1), a);
  Interface& dst = net.attach_interface(make_ip(10, 0, 0, 2), b);
  int got = 0;
  dst.set_handler([&](Packet) { ++got; });
  net.send(make_packet(100));
  sim.run();
  EXPECT_EQ(got, 0);  // no route yet
  net.add_duplex_link(a, b, 1e9, 0);
  net.send(make_packet(100));
  sim.run();
  EXPECT_EQ(got, 1);
}

}  // namespace
}  // namespace meshnet::net
