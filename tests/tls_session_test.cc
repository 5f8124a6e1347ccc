// Tests for the simulated TLS session layer (DESIGN.md §14): record
// codec round-trips and fuzzing, handshake state-machine legality under
// random chunking and delays, ticket resumption, session-cache bounds,
// cert expiry/rotation edges, and rotation under a lossy push channel.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "mesh/control_plane.h"
#include "mesh/sidecar.h"
#include "mesh/tls_session.h"
#include "net/payload.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace meshnet::mesh {
namespace {

using State = TlsChannel::State;

net::Payload bytes(std::string_view text) {
  return net::Payload::copy_of(text);
}

// ------------------------------------------------------- record codec --

TEST(TlsCodec, RecordRoundTrip) {
  const net::Payload wire =
      encode_tls_record(TlsRecordType::kAppData, "hello");
  TlsRecordParser parser(16 * 1024);
  std::vector<std::pair<TlsRecordType, std::string>> records;
  parser.set_on_record([&](TlsRecordType type, const net::Payload& body) {
    records.emplace_back(type, std::string(body.view()));
  });
  EXPECT_TRUE(parser.feed(wire));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first, TlsRecordType::kAppData);
  EXPECT_EQ(records[0].second, "hello");
}

TEST(TlsCodec, UnknownTypeIsStickyError) {
  TlsRecordParser parser(16 * 1024);
  std::string bad(encode_tls_record(TlsRecordType::kAppData, "x").view());
  bad[0] = 0x42;  // not a known content type
  EXPECT_FALSE(parser.feed(bad));
  EXPECT_TRUE(parser.has_error());
  // Sticky: valid bytes after the error still fail.
  EXPECT_FALSE(parser.feed(encode_tls_record(TlsRecordType::kAppData, "y")));
  parser.reset();
  EXPECT_TRUE(parser.feed(encode_tls_record(TlsRecordType::kAppData, "y")));
}

TEST(TlsCodec, OversizedRecordIsError) {
  TlsRecordParser parser(/*max_body_bytes=*/8);
  EXPECT_FALSE(
      parser.feed(encode_tls_record(TlsRecordType::kAppData, "123456789")));
  EXPECT_EQ(parser.error(), "oversized record");
}

TEST(TlsCodec, ErrorsFireOnTheHeadersLastByteWhenFedByteByByte) {
  using Case = std::pair<std::string, std::string>;
  for (const auto& [bad, error] :
       {Case{{'\x42', '\0', '\0', '\x01', 'x'}, "unknown record type"},
        Case{{'\x17', '\0', '\0', '\x09'}, "oversized record"}}) {
    TlsRecordParser parser(/*max_body_bytes=*/8);
    for (std::size_t i = 0; i + 1 < kTlsRecordHeaderBytes; ++i) {
      EXPECT_TRUE(parser.feed(std::string_view(bad).substr(i, 1)));
    }
    EXPECT_FALSE(parser.feed(std::string_view(bad).substr(3, 1)));
    EXPECT_EQ(parser.error(), error);
  }
}

using Records = std::vector<std::pair<TlsRecordType, std::string>>;

/// A parser whose records are appended to `out`, bodies as text.
std::unique_ptr<TlsRecordParser> collecting_parser(Records* out) {
  auto parser = std::make_unique<TlsRecordParser>(kTlsMaxRecordBytes);
  parser->set_on_record([out](TlsRecordType type, const net::Payload& body) {
    out->emplace_back(type, std::string(body.view()));
  });
  return parser;
}

TEST(TlsCodec, RecordInsideOneFedBlockIsASliceOfIt) {
  const std::string body(3000, 'b');
  const net::Payload wire = encode_tls_record(TlsRecordType::kAppData, body);
  TlsRecordParser parser(kTlsMaxRecordBytes);
  net::Payload seen;
  parser.set_on_record(
      [&](TlsRecordType, const net::Payload& record) { seen = record; });
  const std::uint64_t copied = net::payload_pool_stats().bytes_copied;
  // As the transport hands it up: MSS slices of the sender's block, the
  // first one cutting the body, not the header.
  constexpr std::size_t kMss = 1460;
  for (std::size_t at = 0; at < wire.size(); at += kMss) {
    ASSERT_TRUE(
        parser.feed(wire.slice(at, std::min(kMss, wire.size() - at))));
  }
  EXPECT_EQ(seen.view(), body);
  EXPECT_EQ(seen.data(), wire.data() + kTlsRecordHeaderBytes);
  EXPECT_EQ(net::payload_pool_stats().bytes_copied, copied);
}

TEST(TlsCodec, EveryChunkingYieldsTheSameRecords) {
  std::string stream;
  Records expected;
  for (std::size_t size : {0u, 1u, 5u, 700u, 16u * 1024u, 3u}) {
    const auto type =
        size == 0 ? TlsRecordType::kFinished : TlsRecordType::kAppData;
    const std::string body(size, static_cast<char>('a' + size % 26));
    stream += encode_tls_record(type, body);
    expected.emplace_back(type, body);
  }
  const net::Payload block = net::Payload::copy_of(stream);

  Records whole;
  ASSERT_TRUE(collecting_parser(&whole)->feed(block));
  EXPECT_EQ(whole, expected);

  // Two blocks, cut at every offset of the first records' headers and
  // bodies (a header straddles the blocks when the cut falls inside one).
  for (std::size_t cut = 1; cut < 24; ++cut) {
    Records split;
    auto parser = collecting_parser(&split);
    ASSERT_TRUE(parser->feed(
        net::Payload::copy_of(std::string_view(stream).substr(0, cut))));
    ASSERT_TRUE(parser->feed(
        net::Payload::copy_of(std::string_view(stream).substr(cut))));
    EXPECT_EQ(split, expected) << "cut at " << cut;
  }

  // Slices of one block, seven bytes each: headers straddle segments.
  Records segments;
  auto segmented = collecting_parser(&segments);
  for (std::size_t at = 0; at < block.size(); at += 7) {
    ASSERT_TRUE(segmented->feed(
        block.slice(at, std::min<std::size_t>(7, block.size() - at))));
  }
  EXPECT_EQ(segments, expected);

  Records bytes_in;
  auto byte_by_byte = collecting_parser(&bytes_in);
  for (const char c : stream) {
    ASSERT_TRUE(byte_by_byte->feed(std::string_view(&c, 1)));
  }
  EXPECT_EQ(bytes_in, expected);
}

TEST(TlsCodec, HellosAndTicketsRoundTrip) {
  TlsClientHello ch;
  ch.cert_serial = 7;
  ch.cert_expires_at = sim::seconds(90);
  ch.ticket = "some-ticket-bytes";
  const auto ch2 = decode_client_hello(encode_client_hello(ch));
  ASSERT_TRUE(ch2.has_value());
  EXPECT_EQ(ch2->cert_serial, 7u);
  EXPECT_EQ(ch2->cert_expires_at, sim::seconds(90));
  EXPECT_EQ(ch2->ticket, ch.ticket);

  TlsServerHello sh;
  sh.cert_serial = 9;
  sh.cert_expires_at = sim::seconds(120);
  sh.resumed = true;
  sh.ticket = "fresh";
  const auto sh2 = decode_server_hello(encode_server_hello(sh));
  ASSERT_TRUE(sh2.has_value());
  EXPECT_EQ(sh2->cert_serial, 9u);
  EXPECT_TRUE(sh2->resumed);
  EXPECT_EQ(sh2->ticket, "fresh");

  TlsSessionTicket ticket;
  ticket.cert_serial = 3;
  ticket.issued_at = sim::seconds(5);
  ticket.nonce = 77;
  const std::string encoded = encode_session_ticket(ticket);
  EXPECT_EQ(encoded.size(), 24u);
  const auto ticket2 = decode_session_ticket(encoded);
  ASSERT_TRUE(ticket2.has_value());
  EXPECT_EQ(ticket2->cert_serial, 3u);
  EXPECT_EQ(ticket2->issued_at, sim::seconds(5));
  EXPECT_EQ(ticket2->nonce, 77u);

  // Strict decode: trailing bytes and truncation are malformations.
  EXPECT_FALSE(decode_client_hello(encode_client_hello(ch) + "x").has_value());
  EXPECT_FALSE(decode_server_hello("short").has_value());
  EXPECT_FALSE(decode_session_ticket(encoded + encoded).has_value());
  EXPECT_FALSE(decode_session_ticket(encoded.substr(0, 23)).has_value());
}

// ------------------------------------------------------- channel pair --

/// A client/server channel pair joined by an in-sim pipe. The pipe can
/// chunk bytes randomly and add per-delivery delay, but always preserves
/// byte order per direction (it is a stream, like the transport).
struct ChannelPair {
  ChannelPair(sim::Simulator& sim, const TlsParams* client_params,
              const TlsParams* server_params, const Certificate* client_cert,
              const Certificate* server_cert, TlsRuntime* client_rt,
              TlsRuntime* server_rt, sim::RngStream* rng = nullptr)
      : sim_(sim), rng_(rng) {
    client = std::make_shared<TlsChannel>(sim, TlsChannel::Role::kClient,
                                          client_params, client_cert,
                                          client_rt, "10.0.0.2:15001");
    server = std::make_shared<TlsChannel>(sim, TlsChannel::Role::kServer,
                                          server_params, server_cert,
                                          server_rt, "");
    client->set_send_wire(
        [this](net::Payload bytes) { deliver(server, &to_server_, bytes); });
    server->set_send_wire(
        [this](net::Payload bytes) { deliver(client, &to_client_, bytes); });
  }

  void start() {
    server->start();
    client->start();
  }

  /// Streams `bytes` to `dst` in random chunks with random (order-
  /// preserving) delays when an RNG is wired; immediately otherwise.
  void deliver(std::shared_ptr<TlsChannel> dst, sim::Time* clock,
               const net::Payload& bytes) {
    std::size_t offset = 0;
    while (offset < bytes.size()) {
      std::size_t n = bytes.size() - offset;
      sim::Duration delay = 0;
      if (rng_ != nullptr) {
        n = std::min<std::size_t>(n, rng_->uniform_int(1, 64));
        delay = static_cast<sim::Duration>(
            rng_->uniform_int(0, 200) * sim::microseconds(1));
      }
      const net::Payload chunk = bytes.slice(offset, n);
      offset += n;
      *clock = std::max(*clock, sim_.now() + delay);
      sim_.schedule_at(*clock, [dst, chunk] { dst->on_wire_data(chunk); });
    }
  }

  sim::Simulator& sim_;
  sim::RngStream* rng_;
  /// Per-direction delivery clocks keep the stream in order.
  sim::Time to_server_ = 0;
  sim::Time to_client_ = 0;
  std::shared_ptr<TlsChannel> client;
  std::shared_ptr<TlsChannel> server;
};

Certificate make_cert(std::uint64_t serial, sim::Time issued_at,
                      sim::Time expires_at) {
  Certificate cert;
  cert.serial = serial;
  cert.spiffe_id = "spiffe://cluster.local/ns/default/sa/test";
  cert.issued_at = issued_at;
  cert.expires_at = expires_at;
  return cert;
}

/// Allowed successor states per role. The no-skip property: every
/// observed transition must be in this relation — e.g. a server must
/// never jump from kWaitClientHello to kEstablished on a full handshake
/// without passing kWaitFinished.
bool legal_transition(TlsChannel::Role role, State from, State to,
                      bool resumed) {
  switch (from) {
    case State::kIdle:
      return role == TlsChannel::Role::kClient &&
             to == State::kWaitServerHello;
    case State::kWaitServerHello:
      return to == State::kEstablished || to == State::kFailed;
    case State::kWaitClientHello:
      if (to == State::kWaitFinished || to == State::kFailed) return true;
      // The one legal shortcut: an accepted ticket establishes the
      // server on the ClientHello.
      return to == State::kEstablished && resumed;
    case State::kWaitFinished:
      return to == State::kEstablished || to == State::kFailed;
    case State::kEstablished:
      return to == State::kFailed;
    case State::kFailed:
      return false;
  }
  return false;
}

void observe_transitions(TlsChannel& channel, std::vector<State>* out) {
  channel.set_state_observer([out](State next) { out->push_back(next); });
}

void expect_legal_sequence(TlsChannel::Role role, State initial,
                           const std::vector<State>& seen,
                           const TlsChannel& channel) {
  State from = initial;
  for (const State to : seen) {
    EXPECT_TRUE(legal_transition(role, from, to, channel.resumed()))
        << "illegal transition " << tls_state_name(from) << " -> "
        << tls_state_name(to);
    from = to;
  }
}

// --------------------------------------------------- handshake states --

TEST(TlsHandshake, FullHandshakeNeverSkipsStatesUnderRandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::Simulator sim;
    sim::RngStream rng(seed, "tls-interleave");
    TlsParams params;
    params.enabled = true;
    const Certificate cert = make_cert(1, 0, sim::seconds(3600));
    TlsRuntime client_rt(nullptr, 16);
    TlsRuntime server_rt(nullptr, 16);
    ChannelPair pair(sim, &params, &params, &cert, &cert, &client_rt,
                     &server_rt, &rng);
    std::vector<State> client_states;
    std::vector<State> server_states;
    observe_transitions(*pair.client, &client_states);
    observe_transitions(*pair.server, &server_states);
    std::string received;
    pair.server->set_on_plaintext(
        [&](const net::Payload& data) { received.append(data.view()); });
    pair.start();
    pair.client->send_app_data(bytes("GET / HTTP/1.1\r\n\r\n"));
    sim.run_until(sim::seconds(10));

    ASSERT_TRUE(pair.client->established());
    ASSERT_TRUE(pair.server->established());
    EXPECT_FALSE(pair.client->resumed());
    // A full handshake walks every state, in order, no skips.
    expect_legal_sequence(TlsChannel::Role::kClient, State::kIdle,
                          client_states, *pair.client);
    expect_legal_sequence(TlsChannel::Role::kServer, State::kWaitClientHello,
                          server_states, *pair.server);
    ASSERT_EQ(server_states.size(), 2u);
    EXPECT_EQ(server_states[0], State::kWaitFinished);
    EXPECT_EQ(server_states[1], State::kEstablished);
    // Buffered app data flushed after establishment, intact and in order.
    EXPECT_EQ(received, "GET / HTTP/1.1\r\n\r\n");
    if (::testing::Test::HasNonfatalFailure()) return;
  }
}

TEST(TlsHandshake, TicketResumptionRoundTrip) {
  sim::Simulator sim;
  TlsParams params;
  params.enabled = true;
  const Certificate cert = make_cert(1, 0, sim::seconds(3600));
  TlsRuntime client_rt(nullptr, 16);
  TlsRuntime server_rt(nullptr, 16);

  // First connection: full handshake, ticket lands in the client cache.
  ChannelPair first(sim, &params, &params, &cert, &cert, &client_rt,
                    &server_rt);
  first.start();
  sim.run_until(sim::seconds(1));
  ASSERT_TRUE(first.client->established());
  EXPECT_FALSE(first.client->resumed());
  EXPECT_EQ(server_rt.metrics().handshakes_full->value(), 1u);
  EXPECT_GE(server_rt.metrics().tickets_issued->value(), 1u);
  ASSERT_TRUE(client_rt.session_cache().contains("10.0.0.2:15001"));

  // Second connection to the same peer: resumed, with 0-RTT early data
  // delivered to the server before its ServerHello round trip completes.
  ChannelPair second(sim, &params, &params, &cert, &cert, &client_rt,
                     &server_rt);
  std::vector<State> server_states;
  observe_transitions(*second.server, &server_states);
  std::string received;
  second.server->set_on_plaintext(
      [&](const net::Payload& data) { received.append(data.view()); });
  second.start();
  second.client->send_app_data(bytes("early"));
  sim.run_until(sim::seconds(2));
  ASSERT_TRUE(second.client->established());
  ASSERT_TRUE(second.server->established());
  EXPECT_TRUE(second.client->resumed());
  EXPECT_TRUE(second.server->resumed());
  EXPECT_EQ(server_rt.metrics().handshakes_resumed->value(), 1u);
  EXPECT_EQ(server_rt.metrics().handshakes_full->value(), 1u);
  EXPECT_EQ(received, "early");
  // Resumed server shortcut is the only shortcut taken.
  expect_legal_sequence(TlsChannel::Role::kServer, State::kWaitClientHello,
                        server_states, *second.server);
}

TEST(TlsHandshake, ResumptionOffMeansEveryHandshakeIsFull) {
  sim::Simulator sim;
  TlsParams params;
  params.enabled = true;
  params.session_resumption = false;
  const Certificate cert = make_cert(1, 0, sim::seconds(3600));
  TlsRuntime client_rt(nullptr, 16);
  TlsRuntime server_rt(nullptr, 16);
  for (int i = 0; i < 2; ++i) {
    ChannelPair pair(sim, &params, &params, &cert, &cert, &client_rt,
                     &server_rt);
    pair.start();
    sim.run_until(sim.now() + sim::seconds(1));
    ASSERT_TRUE(pair.client->established());
    EXPECT_FALSE(pair.client->resumed());
  }
  EXPECT_EQ(server_rt.metrics().handshakes_full->value(), 2u);
  EXPECT_EQ(server_rt.metrics().handshakes_resumed->value(), 0u);
  EXPECT_EQ(server_rt.metrics().tickets_issued->value(), 0u);
  EXPECT_FALSE(client_rt.session_cache().contains("10.0.0.2:15001"));
}

TEST(TlsHandshake, TimeoutFailsCleanlyWithoutPeer) {
  sim::Simulator sim;
  TlsParams params;
  params.enabled = true;
  const Certificate cert = make_cert(1, 0, sim::seconds(3600));
  TlsRuntime rt(nullptr, 16);
  auto client = std::make_shared<TlsChannel>(
      sim, TlsChannel::Role::kClient, &params, &cert, &rt, "peer:1");
  client->set_send_wire([](net::Payload) {});  // wire goes nowhere
  std::string error;
  client->set_on_error([&](const std::string& reason) { error = reason; });
  client->start();
  sim.run_until(kTlsHandshakeTimeout + sim::seconds(1));
  EXPECT_TRUE(client->failed());
  EXPECT_EQ(error, "tls handshake timeout");
  EXPECT_EQ(rt.metrics().handshake_failures->value(), 1u);
}

// The handshake timeout's callable holds the channel, so a channel that
// nobody else holds lives until the timeout fires, or until simulator
// teardown releases the pending callable (LSan checks for a leak).
TEST(TlsHandshake, SimulatorTeardownReleasesAChannelItsTimeoutOwns) {
  TlsParams params;
  params.enabled = true;
  const Certificate cert = make_cert(1, 0, sim::seconds(3600));
  TlsRuntime rt(nullptr, 16);
  std::weak_ptr<TlsChannel> weak;
  {
    sim::Simulator sim;
    auto client = std::make_shared<TlsChannel>(
        sim, TlsChannel::Role::kClient, &params, &cert, &rt, "peer:1");
    client->set_send_wire([](net::Payload) {});
    client->start();
    weak = client;
    client.reset();
    sim.run_until(kTlsHandshakeTimeout / 2);
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());
}

// ----------------------------------------------------- session cache --

TEST(TlsSessionCacheTest, EvictionBoundsAndLruOrder) {
  obs::MetricRegistry registry;
  obs::Counter& evictions = registry.counter("evictions");
  TlsSessionCache cache(4, &evictions);
  for (int i = 0; i < 10; ++i) {
    cache.put("peer-" + std::to_string(i), "ticket-" + std::to_string(i));
    EXPECT_LE(cache.size(), 4u);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(evictions.value(), 6u);
  // The survivors are the four most recently inserted.
  EXPECT_EQ(cache.get("peer-9"), "ticket-9");
  EXPECT_EQ(cache.get("peer-6"), "ticket-6");
  EXPECT_EQ(cache.get("peer-0"), "");

  // get() refreshes recency: peer-6 was just touched, so the next two
  // inserts evict peer-7 and peer-8, not peer-6.
  cache.put("peer-a", "ta");
  cache.put("peer-b", "tb");
  EXPECT_TRUE(cache.contains("peer-6"));
  EXPECT_FALSE(cache.contains("peer-7"));
  EXPECT_FALSE(cache.contains("peer-8"));

  // Shrinking the bound in place (a config push retune) evicts LRU-first.
  cache.set_capacity(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.contains("peer-b"));

  // put() on an existing key refreshes, never grows.
  cache.put("peer-b", "tb2");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get("peer-b"), "tb2");

  // Capacity 0 stores nothing (resumption effectively off).
  cache.set_capacity(0);
  cache.put("peer-z", "tz");
  EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------------------ cert expiry edges --

TEST(TlsCertificate, ExpiredServerCertFailsHandshakeCleanly) {
  sim::Simulator sim;
  TlsParams params;
  params.enabled = true;
  const Certificate client_cert = make_cert(1, 0, sim::seconds(3600));
  const Certificate expired = make_cert(2, 0, sim::milliseconds(10));
  TlsRuntime client_rt(nullptr, 16);
  TlsRuntime server_rt(nullptr, 16);
  sim.run_until(sim::seconds(1));  // past the server cert's expiry
  ChannelPair pair(sim, &params, &params, &client_cert, &expired, &client_rt,
                   &server_rt);
  std::string client_error;
  pair.client->set_on_error(
      [&](const std::string& reason) { client_error = reason; });
  pair.start();
  sim.run_until(sim::seconds(10));
  EXPECT_TRUE(pair.server->failed());
  EXPECT_TRUE(pair.client->failed());
  // The alert reached the client: it failed on the peer's alert, not on
  // its own timeout.
  EXPECT_EQ(client_error, "tls alert from peer: server certificate invalid");
  EXPECT_GE(server_rt.metrics().alerts_sent->value(), 1u);
}

TEST(TlsCertificate, EstablishedSessionSurvivesRotationMidRequest) {
  // Real TLS does not rekey an established session on cert rotation; the
  // edge this pins: a request in flight exactly when the rotation push
  // lands keeps flowing, while the *next* handshake sees the new serial.
  sim::Simulator sim;
  TlsParams params;
  params.enabled = true;
  Certificate server_cert = make_cert(1, 0, sim::seconds(10));
  const Certificate client_cert = make_cert(7, 0, sim::seconds(3600));
  TlsRuntime client_rt(nullptr, 16);
  TlsRuntime server_rt(nullptr, 16);
  ChannelPair pair(sim, &params, &params, &client_cert, &server_cert,
                   &client_rt, &server_rt);
  std::string received;
  pair.server->set_on_plaintext(
      [&](const net::Payload& data) { received.append(data.view()); });
  pair.start();
  sim.run_until(sim::seconds(1));
  ASSERT_TRUE(pair.client->established());

  // Rotation lands through the stable cert pointer, mid-"request".
  pair.client->send_app_data(bytes("part-1|"));
  server_cert = make_cert(2, sim.now(), sim.now() + sim::seconds(10));
  pair.client->send_app_data(bytes("part-2"));
  sim.run_until(sim::seconds(2));
  EXPECT_TRUE(pair.client->established());
  EXPECT_EQ(received, "part-1|part-2");

  // The cached ticket is bound to serial 1; the next handshake offers it,
  // gets rejected, and falls back to a full handshake — establishment
  // still succeeds, just without the shortcut.
  ASSERT_TRUE(client_rt.session_cache().contains("10.0.0.2:15001"));
  ChannelPair next(sim, &params, &params, &client_cert, &server_cert,
                   &client_rt, &server_rt);
  std::string early;
  next.server->set_on_plaintext(
      [&](const net::Payload& data) { early.append(data.view()); });
  next.start();
  // 0-RTT data rides the rejected ticket; it must be delivered after the
  // full handshake completes instead of being lost or replayed early.
  next.client->send_app_data(bytes("early-after-rotation"));
  sim.run_until(sim::seconds(4));
  ASSERT_TRUE(next.client->established());
  EXPECT_FALSE(next.client->resumed());
  EXPECT_EQ(server_rt.metrics().resumptions_rejected->value(), 1u);
  EXPECT_EQ(early, "early-after-rotation");
}

// ------------------------------------------------------- codec fuzz --

/// Random wire streams against a server channel: malformed hellos,
/// truncated records, duplicated/oversized tickets, alerts, raw noise.
/// The property: the channel always reaches a terminal state (established
/// or failed-with-reason) by the handshake deadline — clean error, never
/// a crash or a hang.
TEST(TlsCodecFuzz, MalformedHandshakeStreamsFailCleanlyNeverHang) {
  const Certificate good = make_cert(3, 0, sim::seconds(3600));
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::Simulator sim;
    sim::RngStream rng(seed, "tls-fuzz");
    TlsParams params;
    params.enabled = true;
    TlsRuntime rt(nullptr, 16);
    auto server = std::make_shared<TlsChannel>(
        sim, TlsChannel::Role::kServer, &params, &good, &rt, "");
    server->set_send_wire([](net::Payload) {});
    server->set_on_plaintext([](const net::Payload&) {});
    server->start();

    std::string wire;
    const std::uint64_t pieces = rng.uniform_int(1, 6);
    for (std::uint64_t p = 0; p < pieces; ++p) {
      switch (rng.uniform_int(0, 6)) {
        case 0: {  // well-formed ClientHello, possibly with a bad ticket
          TlsClientHello hello;
          hello.cert_serial = rng.uniform_int(0, 3);
          hello.cert_expires_at =
              static_cast<sim::Time>(rng.uniform_int(0, 2)) *
              sim::seconds(3600);
          const std::uint64_t kind = rng.uniform_int(0, 3);
          if (kind == 1) {  // duplicated ticket (48 bytes: decode fails)
            TlsSessionTicket t;
            t.cert_serial = 3;
            t.nonce = rng.uniform_int(0, UINT64_MAX);
            const std::string one = encode_session_ticket(t);
            hello.ticket = one + one;
          } else if (kind == 2) {  // truncated ticket
            TlsSessionTicket t;
            t.cert_serial = 3;
            hello.ticket = encode_session_ticket(t).substr(
                0, rng.uniform_int(1, 23));
          } else if (kind == 3) {  // random garbage ticket
            hello.ticket = std::string(rng.uniform_int(1, 40), 'x');
          }
          wire += encode_tls_record(TlsRecordType::kClientHello,
                                    encode_client_hello(hello));
          break;
        }
        case 1:  // truncated ClientHello body
          wire += encode_tls_record(
              TlsRecordType::kClientHello,
              std::string(rng.uniform_int(0, 17), '\x01'));
          break;
        case 2:  // Finished out of nowhere
          wire += encode_tls_record(TlsRecordType::kFinished, {});
          break;
        case 3:  // app data before the handshake
          wire += encode_tls_record(TlsRecordType::kAppData, "sneaky");
          break;
        case 4:  // alert
          wire += encode_tls_record(TlsRecordType::kAlert, "boom");
          break;
        case 5: {  // raw noise (usually an unknown record type)
          std::string noise(rng.uniform_int(1, 64), '\0');
          for (char& c : noise) {
            c = static_cast<char>(rng.uniform_int(0, 255));
          }
          wire += noise;
          break;
        }
        default: {  // header promising more bytes than ever arrive
          std::string header;
          header.push_back('\x17');
          header.push_back('\x00');
          header.push_back('\x20');
          header.push_back('\x00');
          wire += header + std::string(rng.uniform_int(0, 30), 'z');
          break;
        }
      }
    }
    // Random chunking, with a chance of truncating the tail entirely.
    const std::size_t keep = static_cast<std::size_t>(
        rng.uniform_int(0, wire.size()));
    const net::Payload stream = net::Payload::copy_of(wire);
    std::size_t offset = 0;
    while (offset < keep) {
      const std::size_t n = std::min<std::size_t>(
          rng.uniform_int(1, 48), keep - offset);
      const net::Payload chunk = stream.slice(offset, n);
      offset += n;
      sim.schedule_after(
          static_cast<sim::Duration>(rng.uniform_int(0, 100)) *
              sim::microseconds(1),
          [server, chunk] { server->on_wire_data(chunk); });
    }
    sim.run_until(kTlsHandshakeTimeout + sim::seconds(1));
    // Terminal, always: established (a lucky valid stream) or failed
    // with a reason — the handshake timer guarantees no hang.
    ASSERT_TRUE(server->established() || server->failed());
    if (server->failed()) {
      EXPECT_FALSE(server->error().empty());
    }
    if (::testing::Test::HasNonfatalFailure()) return;
  }
}

// ----------------------------------- rotation under a lossy push channel --

std::uint64_t cp_counter(const ControlPlane& cp, std::string_view name) {
  const obs::Counter* c = cp.metrics().find_counter(name);
  return c == nullptr ? 0 : c->value();
}

TEST(TlsRotationPush, RotatedCertReachesSidecarOnlyAfterPushHeals) {
  sim::Simulator sim;
  cluster::Cluster cluster(sim);
  cluster.add_node("n1");
  cluster::Pod& server_pod = cluster.add_pod("n1", "server-v1", "server", 8080);
  MeshPolicies policies;
  policies.tls.enabled = true;
  policies.certificate_lifetime = sim::seconds(2);
  policies.cp.cert_refresh_ahead = 0.25;
  policies.cp.ack_timeout = sim::milliseconds(20);
  ControlPlane cp(sim, cluster, policies);
  Sidecar& sidecar = cp.inject_sidecar(server_pod, {});
  cp.start();
  sim.run_until(sim::milliseconds(100));
  const std::uint64_t initial_serial = sidecar.config().identity_cert.serial;
  ASSERT_NE(initial_serial, 0u);
  EXPECT_TRUE(sidecar.config().tls.enabled);

  // Sever the push channel, then run past the rotation point: the CP
  // rotates, the sidecar keeps serving with the old (still valid) cert.
  cp.policies().cp.push_loss = 1.0;
  sim.run_until(sim::milliseconds(1900));
  EXPECT_GE(cp_counter(cp, "cp_cert_rotations_total"), 1u);
  const Certificate* rotated = cp.certificate("server");
  ASSERT_NE(rotated, nullptr);
  EXPECT_NE(rotated->serial, initial_serial);
  EXPECT_EQ(sidecar.config().identity_cert.serial, initial_serial);
  EXPECT_TRUE(
      sidecar.config().identity_cert.valid_at(sim.now()));  // not yet expired
  EXPECT_FALSE(cp.converged());

  // Heal the channel: the ack/retry loop converges and the sidecar's
  // identity catches up to the CP's current cert without a fresh
  // operator push. The retry pending at the heal sleeps at most the 2 s
  // backoff cap.
  cp.policies().cp.push_loss = 0.0;
  sim.run_until(sim.now() + sim::seconds(3));
  EXPECT_TRUE(cp.converged());
  EXPECT_EQ(sidecar.config().identity_cert.serial,
            cp.certificate("server")->serial);
  EXPECT_TRUE(sidecar.config().identity_cert.valid_at(sim.now()));
}

}  // namespace
}  // namespace meshnet::mesh
