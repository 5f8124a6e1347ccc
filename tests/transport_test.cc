// Tests for congestion controllers, the connection state machine and the
// host-level demux, run over a real simulated network.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "net/network.h"
#include "net/qdisc.h"
#include "sim/simulator.h"
#include "transport/congestion.h"
#include "transport/connection.h"
#include "transport/transport_host.h"

namespace meshnet::transport {
namespace {

// ------------------------------------------------- congestion control --

TEST(RenoController, InitialWindowIsIw10) {
  RenoController cc;
  EXPECT_EQ(cc.cwnd(), 10u * 1460u);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(RenoController, SlowStartDoublesPerRtt) {
  RenoController cc;
  const std::uint64_t before = cc.cwnd();
  cc.on_ack(before, sim::milliseconds(1), 0);  // a full window acked
  EXPECT_EQ(cc.cwnd(), 2 * before);
}

TEST(RenoController, LossHalvesWindow) {
  RenoController cc;
  for (int i = 0; i < 10; ++i) cc.on_ack(cc.cwnd(), 0, 0);
  const std::uint64_t before = cc.cwnd();
  cc.on_loss(0);
  EXPECT_EQ(cc.cwnd(), before / 2);
  EXPECT_EQ(cc.ssthresh(), before / 2);
  EXPECT_FALSE(cc.in_slow_start());
}

TEST(RenoController, CongestionAvoidanceIsLinear) {
  RenoConfig config;
  RenoController cc(config);
  for (int i = 0; i < 6; ++i) cc.on_ack(cc.cwnd(), 0, 0);
  cc.on_loss(0);
  const std::uint64_t base = cc.cwnd();
  // One window of acks in CA grows the window by about one MSS.
  std::uint64_t acked = 0;
  while (acked < base) {
    cc.on_ack(config.mss, 0, 0);
    acked += config.mss;
  }
  EXPECT_GE(cc.cwnd(), base + config.mss / 2);
  EXPECT_LE(cc.cwnd(), base + 2 * config.mss);
}

TEST(RenoController, TimeoutCollapsesToOneMss) {
  RenoController cc;
  for (int i = 0; i < 5; ++i) cc.on_ack(cc.cwnd(), 0, 0);
  cc.on_timeout(0);
  EXPECT_EQ(cc.cwnd(), 1460u);
}

TEST(RenoController, WindowNeverExceedsMax) {
  RenoConfig config;
  config.max_window_bytes = 100'000;
  RenoController cc(config);
  for (int i = 0; i < 50; ++i) cc.on_ack(cc.cwnd(), 0, 0);
  EXPECT_LE(cc.cwnd(), 100'000u);
}

TEST(LedbatController, GrowsWhenDelayBelowTarget) {
  LedbatConfig config;
  LedbatController cc(config);
  const std::uint64_t before = cc.cwnd();
  // base rtt 1 ms, then acks at the same rtt: zero queueing delay.
  for (int i = 0; i < 20; ++i) {
    cc.on_ack(config.mss, sim::milliseconds(1), sim::milliseconds(i));
  }
  EXPECT_GT(cc.cwnd(), before);
}

TEST(LedbatController, ShrinksWhenDelayAboveTarget) {
  LedbatConfig config;
  config.target_delay = sim::milliseconds(2);
  LedbatController cc(config);
  // Learn a 1 ms base, grow a bit.
  for (int i = 0; i < 50; ++i) {
    cc.on_ack(config.mss, sim::milliseconds(1), i);
  }
  const std::uint64_t grown = cc.cwnd();
  // Now rtt jumps to base + 4x target: the controller must back off.
  for (int i = 0; i < 50; ++i) {
    cc.on_ack(config.mss, sim::milliseconds(9), 1000 + i);
  }
  EXPECT_LT(cc.cwnd(), grown);
  EXPECT_EQ(cc.last_queue_delay(), sim::milliseconds(8));
}

TEST(LedbatController, TracksBaseRtt) {
  LedbatController cc;
  cc.on_ack(1460, sim::milliseconds(5), 0);
  EXPECT_EQ(cc.base_rtt(), sim::milliseconds(5));
  cc.on_ack(1460, sim::milliseconds(3), 1);
  EXPECT_EQ(cc.base_rtt(), sim::milliseconds(3));
  cc.on_ack(1460, sim::milliseconds(7), 2);  // higher: base unchanged
  EXPECT_EQ(cc.base_rtt(), sim::milliseconds(3));
}

TEST(LedbatController, LossStillHalves) {
  LedbatController cc;
  for (int i = 0; i < 50; ++i) cc.on_ack(1460, sim::milliseconds(1), i);
  const std::uint64_t grown = cc.cwnd();
  cc.on_loss(100);
  EXPECT_LE(cc.cwnd(), grown / 2 + 1460);
}

TEST(LedbatController, WindowFloorsAtOneMss) {
  LedbatController cc;
  for (int i = 0; i < 20; ++i) cc.on_timeout(i);
  EXPECT_GE(cc.cwnd(), 1460u);
}

TEST(MakeController, Factory) {
  EXPECT_EQ(make_controller(CcAlgorithm::kReno, 1460)->name(), "reno");
  EXPECT_EQ(make_controller(CcAlgorithm::kLedbat, 1460)->name(), "ledbat");
}

// ------------------------------------------------------- connections --

// Two hosts joined by a configurable duplex path.
class TransportFixture : public ::testing::Test {
 protected:
  void build(double rate_bps = 1e9,
             sim::Duration delay = sim::microseconds(100),
             std::uint64_t queue_bytes = 9'000'000) {
    const auto a = net.add_location("a");
    const auto b = net.add_location("b");
    ab = &net.add_link(a, b, rate_bps, delay,
                       std::make_unique<net::FifoQdisc>(queue_bytes), "ab");
    ba = &net.add_link(b, a, rate_bps, delay,
                       std::make_unique<net::FifoQdisc>(queue_bytes), "ba");
    net.attach_interface(ip_a, a);
    net.attach_interface(ip_b, b);
    host_a = std::make_unique<TransportHost>(sim, net, ip_a);
    host_b = std::make_unique<TransportHost>(sim, net, ip_b);
  }

  sim::Simulator sim;
  net::Network net{sim};
  const net::IpAddress ip_a = net::make_ip(10, 0, 0, 1);
  const net::IpAddress ip_b = net::make_ip(10, 0, 0, 2);
  net::Link* ab = nullptr;
  net::Link* ba = nullptr;
  std::unique_ptr<TransportHost> host_a;
  std::unique_ptr<TransportHost> host_b;
};

TEST_F(TransportFixture, HostWithoutInterfaceThrowsNamingTheAddress) {
  build();
  const net::IpAddress stray = net::make_ip(10, 0, 0, 9);
  try {
    TransportHost host(sim, net, stray);
    FAIL() << "a host without an interface must not construct";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("10.0.0.9"), std::string::npos)
        << error.what();
  }
}

TEST_F(TransportFixture, HandshakeEstablishesBothSides) {
  build();
  Connection* accepted = nullptr;
  host_b->listen(80, [&](Connection& c) { accepted = &c; });
  Connection& client = host_a->connect({ip_b, 80});
  bool connected = false;
  client.set_on_connected([&] { connected = true; });
  sim.run_until(sim::seconds(1));
  EXPECT_TRUE(connected);
  EXPECT_TRUE(client.established());
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(host_b->stats().connections_accepted, 1u);
  EXPECT_EQ(host_a->stats().connections_opened, 1u);
}

TEST_F(TransportFixture, DataArrivesInOrderAndIntact) {
  build();
  std::string received;
  host_b->listen(80, [&](Connection& c) {
    c.set_on_data([&](std::string_view d) { received.append(d); });
  });
  Connection& client = host_a->connect({ip_b, 80});
  std::string sent;
  for (int i = 0; i < 100; ++i) {
    sent += "chunk-" + std::to_string(i) + ";";
  }
  client.send(sent);
  sim.run_until(sim::seconds(2));
  EXPECT_EQ(received, sent);
}

TEST_F(TransportFixture, LargeTransferIntegrity) {
  build();
  std::string received;
  host_b->listen(80, [&](Connection& c) {
    c.set_on_data([&](std::string_view d) { received.append(d); });
  });
  ConnectionOptions options;
  options.mss = 8960;
  Connection& client = host_a->connect({ip_b, 80}, options);
  std::string sent(3 * 1024 * 1024, '\0');
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<char>((i * 131) ^ (i >> 7));
  }
  client.send(sent);
  sim.run_until(sim::seconds(10));
  ASSERT_EQ(received.size(), sent.size());
  EXPECT_EQ(received, sent);
}

TEST_F(TransportFixture, BidirectionalTransfer) {
  build();
  std::string at_b, at_a;
  host_b->listen(80, [&](Connection& c) {
    c.set_on_data([&](std::string_view d) {
      at_b.append(d);
      c.send("pong:" + std::string(d));
    });
  });
  Connection& client = host_a->connect({ip_b, 80});
  client.set_on_data([&](std::string_view d) { at_a.append(d); });
  client.send("ping");
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(at_b, "ping");
  EXPECT_EQ(at_a, "pong:ping");
}

TEST_F(TransportFixture, SendBeforeEstablishedIsBuffered) {
  build();
  std::string received;
  host_b->listen(80, [&](Connection& c) {
    c.set_on_data([&](std::string_view d) { received.append(d); });
  });
  Connection& client = host_a->connect({ip_b, 80});
  client.send("early");  // handshake not yet complete
  EXPECT_FALSE(client.established());
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(received, "early");
}

TEST_F(TransportFixture, MssSegmentation) {
  build();
  host_b->listen(80, [&](Connection& c) { c.set_on_data([](std::string_view) {}); });
  ConnectionOptions options;
  options.mss = 1000;
  Connection& client = host_a->connect({ip_b, 80}, options);
  client.send(std::string(10'000, 'x'));
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(client.stats().segments_sent, 10u);
}

TEST_F(TransportFixture, MssNegotiationViaSynOption) {
  build();
  Connection* server = nullptr;
  host_b->listen(80, [&](Connection& c) { server = &c; });
  ConnectionOptions options;
  options.mss = 4321;
  host_a->connect({ip_b, 80}, options);
  sim.run_until(sim::seconds(1));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->mss(), 4321u);
}

TEST_F(TransportFixture, LossIsRecoveredThroughTinyQueue) {
  // A queue that holds barely two packets forces drops during slow start.
  build(1e8, sim::microseconds(100), 3000);
  std::string received;
  host_b->listen(80, [&](Connection& c) {
    c.set_on_data([&](std::string_view d) { received.append(d); });
  });
  ConnectionOptions options;
  options.mss = 1000;
  Connection& client = host_a->connect({ip_b, 80}, options);
  const std::string sent(300'000, 'y');
  client.send(sent);
  sim.run_until(sim::seconds(30));
  EXPECT_EQ(received.size(), sent.size());
  EXPECT_GT(client.stats().retransmits, 0u);
}

TEST_F(TransportFixture, HostCountsBytesDrainedOutOfOrder) {
  // Drops in a tiny queue make the receiver hold segments out of order
  // and hand them up later from its reassembly buffer.
  build(1e8, sim::microseconds(100), 3000);
  Connection* server = nullptr;
  std::uint64_t delivered = 0;
  host_b->listen(80, [&](Connection& c) {
    server = &c;
    c.set_on_data([&](std::string_view d) { delivered += d.size(); });
  });
  ConnectionOptions options;
  options.mss = 1000;
  Connection& client = host_a->connect({ip_b, 80}, options);
  constexpr std::uint64_t kBytes = 300'000;
  client.send(std::string(kBytes, 'o'));
  sim.run_until(sim::seconds(30));
  ASSERT_NE(server, nullptr);
  EXPECT_GT(client.stats().retransmits, 0u);
  EXPECT_EQ(delivered, kBytes);
  EXPECT_EQ(server->stats().bytes_received, kBytes);
  EXPECT_EQ(host_b->stats().bytes_received, server->stats().bytes_received);
  EXPECT_EQ(host_a->stats().bytes_sent, kBytes);
}

TEST_F(TransportFixture, DuplicateOutOfOrderSegmentKeepsTheFirstCopy) {
  build();
  // A raw peer at location a with no transport stack: the test writes its
  // segments by hand, and the server's replies to it are dropped.
  const net::IpAddress ip_raw = net::make_ip(10, 0, 0, 3);
  net.attach_interface(ip_raw, net::LocationId{0});
  std::string received;
  host_b->listen(80, [&](Connection& c) {
    c.set_on_data([&](std::string_view d) { received.append(d); });
  });
  const auto segment = [&](std::uint8_t flags, std::uint64_t seq,
                           std::string_view bytes) {
    net::Packet p;
    p.flow = net::FlowKey{ip_raw, 5000, ip_b, 80};
    p.flags = flags;
    p.seq = seq;
    p.payload = net::Payload::copy_of(bytes);
    net.send(std::move(p));
    sim.run_until(sim.now() + sim::milliseconds(1));
  };
  segment(net::kFlagSyn, 0, "");
  segment(net::kFlagAck, 4, "old1");  // ahead of the gap at 0: held
  segment(net::kFlagAck, 4, "NEW2");  // same seq again: the first stays
  segment(net::kFlagAck, 12, "last");
  segment(net::kFlagAck, 8, "mid3");  // held between the two
  EXPECT_EQ(received, "");
  segment(net::kFlagAck, 0, "head");  // fills the gap
  EXPECT_EQ(received, "headold1mid3last");
}

TEST_F(TransportFixture, FastRetransmitFiresOnDupAcks) {
  build(1e8, sim::microseconds(100), 2500);
  std::string received;
  host_b->listen(80, [&](Connection& c) {
    c.set_on_data([&](std::string_view d) { received.append(d); });
  });
  ConnectionOptions options;
  options.mss = 1000;
  Connection& client = host_a->connect({ip_b, 80}, options);
  client.send(std::string(500'000, 'z'));
  sim.run_until(sim::seconds(30));
  EXPECT_EQ(received.size(), 500'000u);
  EXPECT_GT(client.stats().fast_retransmits, 0u);
}

TEST_F(TransportFixture, RttIsMeasured) {
  build(1e9, sim::milliseconds(1));
  host_b->listen(80, [&](Connection& c) { c.set_on_data([](std::string_view) {}); });
  Connection& client = host_a->connect({ip_b, 80});
  client.send("x");
  sim.run_until(sim::seconds(1));
  // RTT must be at least the two-way propagation delay.
  EXPECT_GE(client.stats().smoothed_rtt, sim::milliseconds(2));
  EXPECT_LT(client.stats().smoothed_rtt, sim::milliseconds(5));
}

TEST_F(TransportFixture, GracefulCloseReachesBothSides) {
  build();
  bool server_closed = false, server_graceful = false;
  Connection* server = nullptr;
  host_b->listen(80, [&](Connection& c) {
    server = &c;
    c.set_on_data([](std::string_view) {});
    c.set_on_closed([&](bool graceful) {
      server_closed = true;
      server_graceful = graceful;
    });
  });
  Connection& client = host_a->connect({ip_b, 80});
  bool client_closed = false, client_graceful = false;
  client.set_on_closed([&](bool graceful) {
    client_closed = true;
    client_graceful = graceful;
  });
  client.send("bye");
  client.close();
  sim.run_until(sim::seconds(5));
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(client_graceful);
  EXPECT_TRUE(server_closed);
  EXPECT_TRUE(server_graceful);
}

TEST_F(TransportFixture, CloseFlushesPendingData) {
  build();
  std::string received;
  host_b->listen(80, [&](Connection& c) {
    c.set_on_data([&](std::string_view d) { received.append(d); });
  });
  ConnectionOptions options;
  options.mss = 1000;
  Connection& client = host_a->connect({ip_b, 80}, options);
  // The host destroys a connection once it closes, so observe the close
  // through the handler rather than through `client` afterwards.
  bool closed = false;
  client.set_on_closed([&](bool) { closed = true; });
  client.send(std::string(50'000, 'f'));
  client.close();  // before anything was transmitted
  sim.run_until(sim::seconds(5));
  EXPECT_EQ(received.size(), 50'000u);
  EXPECT_TRUE(closed);
}

TEST_F(TransportFixture, SendAfterCloseIsIgnored) {
  build();
  std::string received;
  host_b->listen(80, [&](Connection& c) {
    c.set_on_data([&](std::string_view d) { received.append(d); });
  });
  Connection& client = host_a->connect({ip_b, 80});
  client.send("keep");
  client.close();
  client.send("drop");
  sim.run_until(sim::seconds(5));
  EXPECT_EQ(received, "keep");
}

TEST_F(TransportFixture, AbortSendsRst) {
  build();
  bool server_closed = false, server_graceful = true;
  host_b->listen(80, [&](Connection& c) {
    c.set_on_data([](std::string_view) {});
    c.set_on_closed([&](bool graceful) {
      server_closed = true;
      server_graceful = graceful;
    });
  });
  Connection& client = host_a->connect({ip_b, 80});
  client.send("hello");
  sim.run_until(sim::milliseconds(100));
  client.abort();
  // Checked before running on: the host destroys closed connections.
  EXPECT_TRUE(client.closed());
  sim.run_until(sim::seconds(1));
  EXPECT_TRUE(server_closed);
  EXPECT_FALSE(server_graceful);
}

TEST_F(TransportFixture, ConnectToClosedPortGetsRst) {
  build();
  Connection& client = host_a->connect({ip_b, 4444});  // nobody listens
  bool closed = false, graceful = true;
  client.set_on_closed([&](bool g) {
    closed = true;
    graceful = g;
  });
  sim.run_until(sim::seconds(2));
  EXPECT_TRUE(closed);
  EXPECT_FALSE(graceful);
}

TEST_F(TransportFixture, SynRetransmitsOnBlackhole) {
  build();
  // Black-hole the forward path after routing works: with the carrier
  // down, every SYN is dropped.
  ab->set_up(false);
  Connection& client = host_a->connect({ip_b, 80});
  std::optional<bool> graceful;
  sim::Time closed_at = -1;
  std::uint64_t timeouts_at_close = 0;
  client.set_on_closed([&](bool g) {
    graceful = g;
    closed_at = sim.now();
    timeouts_at_close = client.stats().timeouts;
  });
  sim.run_until(sim::seconds(2));
  EXPECT_FALSE(client.established());
  EXPECT_GT(client.stats().timeouts, 0u);
  // The RTO starts at kInitialRto (1 s) and doubles per timeout up to
  // kMaxRto (4 s): the SYN times out at 1, 3, 7, 11, ..., 35 s.
  sim.run_until(sim::seconds(39) - 1);
  EXPECT_EQ(client.stats().timeouts, 10u);
  EXPECT_FALSE(graceful.has_value());
  // One timeout past kMaxRtoBackoffs gives up, non-gracefully.
  sim.run_until(sim::seconds(39));
  ASSERT_TRUE(graceful.has_value());
  EXPECT_FALSE(*graceful);
  EXPECT_EQ(closed_at, sim::seconds(39));
  EXPECT_EQ(timeouts_at_close, 11u);
  EXPECT_EQ(host_a->stats().timeouts, 11u);
}

// An ACK after a timeout resets the backoff, so the next RTO deadline is
// earlier than the backed-off one armed when the timeout fired. The
// retransmission must follow the earlier deadline.
TEST_F(TransportFixture, RetransmitFollowsAnEarlierRtoDeadline) {
  build(1e9, sim::milliseconds(1));
  std::string received;
  host_b->listen(80, [&](Connection& c) {
    c.set_on_data([&](std::string_view d) { received.append(d); });
  });
  ConnectionOptions options;
  options.mss = 1000;
  Connection& client = host_a->connect({ip_b, 80}, options);
  client.send("x");  // one RTT sample of ~2 ms: the RTO drops to kMinRto
  sim.run_until(sim::milliseconds(50));
  ASSERT_EQ(received, "x");
  ASSERT_EQ(client.stats().timeouts, 0u);

  // Three segments into a dead link; the first RTO (t0 + 200 ms) resends
  // the first under a one-segment window and backs off to t0 + 600 ms.
  const sim::Time t0 = sim.now();
  ab->set_up(false);
  client.send(std::string(3000, 'r'));
  sim.run_until(t0 + sim::milliseconds(100));
  ab->set_up(true);
  sim.run_until(t0 + kMinRto);
  ASSERT_EQ(client.stats().timeouts, 1u);
  // The resent segment is on the wire; its ACK (t0 + ~202 ms) resets the
  // backoff and re-arms at t0 + ~402 ms, sending the other two, which die.
  sim.run_until(t0 + kMinRto + sim::microseconds(1500));
  ab->set_up(false);
  sim.run_until(t0 + sim::milliseconds(300));
  ab->set_up(true);
  EXPECT_EQ(received.size(), 1u + 1000u);
  sim.run_until(t0 + sim::milliseconds(401));
  EXPECT_EQ(client.stats().timeouts, 1u);
  sim.run_until(t0 + sim::milliseconds(420));
  EXPECT_EQ(client.stats().timeouts, 2u);
  EXPECT_EQ(received.size(), 1u + 3000u);
}

TEST_F(TransportFixture, ConnectionsAreRemovedAfterClose) {
  build();
  host_b->listen(80, [&](Connection& c) { c.set_on_data([](std::string_view) {}); });
  Connection& client = host_a->connect({ip_b, 80});
  client.send("x");
  sim.run_until(sim::milliseconds(500));
  EXPECT_EQ(host_a->connection_count(), 1u);
  client.close();
  sim.run_until(sim::seconds(5));
  EXPECT_EQ(host_a->connection_count(), 0u);
  EXPECT_EQ(host_b->connection_count(), 0u);
}

TEST_F(TransportFixture, DscpMarksAllPackets) {
  build();
  // Count EF packets on the forward link by sniffing with a classifier
  // qdisc installed up front.
  auto counter = std::make_unique<net::StrictPrioQdisc>(
      2, net::classify_by_dscp(), 1 << 20);
  auto* counter_raw = counter.get();
  ab->set_qdisc(std::move(counter));
  host_b->listen(80, [&](Connection& c) { c.set_on_data([](std::string_view) {}); });
  ConnectionOptions options;
  options.dscp = net::Dscp::kExpedited;
  Connection& client = host_a->connect({ip_b, 80}, options);
  client.send(std::string(5000, 'm'));
  sim.run_until(sim::seconds(1));
  EXPECT_GT(counter_raw->stats().enqueued_packets, 0u);
  EXPECT_EQ(counter_raw->band_drops(0), 0u);
  // Everything the client sent landed in band 0 (EF).
  EXPECT_EQ(counter_raw->band_backlog_packets(1), 0u);
}

TEST_F(TransportFixture, AcceptMapperControlsServerOptions) {
  build();
  Connection* server = nullptr;
  host_b->set_accept_options_mapper([](const net::Packet& syn) {
    ConnectionOptions options;
    options.dscp = syn.dscp;
    options.cc = syn.dscp == net::Dscp::kScavenger ? CcAlgorithm::kLedbat
                                                   : CcAlgorithm::kReno;
    return options;
  });
  host_b->listen(80, [&](Connection& c) { server = &c; });
  ConnectionOptions options;
  options.dscp = net::Dscp::kScavenger;
  host_a->connect({ip_b, 80}, options);
  sim.run_until(sim::seconds(1));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->congestion().name(), "ledbat");
  EXPECT_EQ(server->dscp(), net::Dscp::kScavenger);
}

TEST_F(TransportFixture, ServerEchoesDscpByDefault) {
  build();
  Connection* server = nullptr;
  host_b->listen(80, [&](Connection& c) { server = &c; });
  ConnectionOptions options;
  options.dscp = net::Dscp::kExpedited;
  host_a->connect({ip_b, 80}, options);
  sim.run_until(sim::seconds(1));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->dscp(), net::Dscp::kExpedited);
}

TEST_F(TransportFixture, ThroughputApproachesLineRate) {
  build(1e9, sim::microseconds(100));
  std::uint64_t received = 0;
  sim::Time last_byte_at = 0;
  host_b->listen(80, [&](Connection& c) {
    c.set_on_data([&](std::string_view d) {
      received += d.size();
      last_byte_at = sim.now();
    });
  });
  ConnectionOptions options;
  options.mss = 8960;
  Connection& client = host_a->connect({ip_b, 80}, options);
  // 50 MB over 1 Gbps takes ~0.42 s once the window opens.
  constexpr std::uint64_t kBytes = 50 * 1024 * 1024;
  client.send(std::string(kBytes, 't'));
  sim.run_until(sim::seconds(5));
  ASSERT_EQ(received, kBytes);
  const double goodput_gbps = static_cast<double>(received) * 8 /
                              sim::to_seconds(last_byte_at) / 1e9;
  EXPECT_GT(goodput_gbps, 0.8);
}

TEST_F(TransportFixture, ConnStateNames) {
  EXPECT_EQ(conn_state_name(ConnState::kSynSent), "SYN_SENT");
  EXPECT_EQ(conn_state_name(ConnState::kEstablished), "ESTABLISHED");
  EXPECT_EQ(conn_state_name(ConnState::kClosed), "CLOSED");
}

}  // namespace
}  // namespace meshnet::transport
