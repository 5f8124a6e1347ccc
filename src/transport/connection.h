#pragma once

// A reliable, ordered byte-stream connection over the simulated fabric.
//
// This is the sidecar-to-sidecar channel: SYN/SYN-ACK setup, MSS
// segmentation, sliding window bounded by a pluggable congestion
// controller, cumulative ACKs, NewReno-style fast retransmit on three
// duplicate ACKs, and RFC 6298 RTO estimation with exponential backoff.
// A connection ends only by RST (abort(), or the peer's) or by giving up
// after kMaxRtoBackoffs timeouts: the mesh keeps connections open or
// aborts them, so there is no FIN close. Sequence numbers are 64-bit byte
// offsets, so wraparound never occurs within a simulation.
//
// Payload bytes are never copied here: send() queues MSS slices of the
// caller's blocks (only the string_view overload copies, once). A message
// sent as send(head, body) is cut into exactly the segments send(joined)
// would give; the one segment that straddles the head/body boundary
// carries two slices (Packet::payload ends the head, Packet::payload_tail
// starts the body), and so does its retransmit or out-of-order entry.
// Delivery hands the slices up in order, so a parser above sees the body
// as consecutive slices of the sender's body block.
//
// Segment bookkeeping allocates nothing once warm. The sender keeps every
// unacknowledged segment in one seq-ordered ring (sim::Ring): the front
// `send_cursor_` segments are in flight, the rest are unsent. A
// cumulative ACK pops covered segments from the front; a go-back-N RTO
// resets the cursor to the front, so the whole window is resent in seq
// order. The receiver keeps out-of-order segments in a ring sorted by seq;
// when a seq arrives twice the first copy is kept.
//
// Connections are created by TransportHost (client via connect(), server
// via a listener); user code interacts through send()/abort() and the
// three handlers.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "net/address.h"
#include "net/packet.h"
#include "sim/ring.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "transport/congestion.h"

namespace meshnet::transport {

class TransportHost;

/// Linux defaults: 200 ms RTO floor, 1 s initial RTO. The floor matters:
/// transient queueing above a too-low floor causes spurious timeouts.
/// Backoff doubles the RTO up to kMaxRto; the timeout after
/// kMaxRtoBackoffs consecutive ones closes the connection.
constexpr sim::Duration kMinRto = sim::milliseconds(200);
constexpr sim::Duration kInitialRto = sim::seconds(1);
constexpr sim::Duration kMaxRto = sim::seconds(4);
constexpr int kMaxRtoBackoffs = 10;

struct ConnectionOptions {
  std::uint32_t mss = 1460;
  CcAlgorithm cc = CcAlgorithm::kReno;
  net::Dscp dscp = net::Dscp::kDefault;
};

enum class ConnState {
  kSynSent,
  kSynReceived,
  kEstablished,
  kClosed,
};

std::string_view conn_state_name(ConnState state) noexcept;

struct ConnectionStats {
  std::uint64_t bytes_sent = 0;       ///< Payload bytes handed to send().
  std::uint64_t bytes_acked = 0;
  std::uint64_t bytes_received = 0;   ///< In-order payload delivered up.
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
  sim::Duration smoothed_rtt = 0;
  sim::Duration last_rtt = 0;
};

class Connection {
 public:
  /// In-order bytes, as a slice of the sender's block (handlers that take
  /// a std::string_view bind through Payload's conversion).
  using DataHandler = std::function<void(const net::Payload&)>;
  using ConnectedHandler = std::function<void()>;
  /// Called once, when the connection is reset, aborted or gives up.
  using ClosedHandler = std::function<void()>;

  Connection(TransportHost& host, net::FlowKey flow, bool is_client,
             ConnectionOptions options);
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Queues `head` then `body` as one byte stream, cut into the same MSS
  /// segments as their concatenation would be. Each segment (and every
  /// retransmit) is a zero-copy slice of the two blocks; the segment that
  /// straddles the boundary holds one slice of each. Data sent before
  /// establishment is buffered and flushed once the handshake completes.
  /// No-op once closed.
  void send(net::Payload head, net::Payload body);
  void send(net::Payload data) { send(std::move(data), net::Payload{}); }
  /// Copies `data` into one pooled block and sends that.
  void send(std::string_view data);

  /// Immediate teardown: sends RST, drops all state.
  void abort();

  void set_on_data(DataHandler handler) { on_data_ = std::move(handler); }
  void set_on_connected(ConnectedHandler handler) {
    on_connected_ = std::move(handler);
  }
  void set_on_closed(ClosedHandler handler) {
    on_closed_ = std::move(handler);
  }

  /// Changes the DSCP mark for all future packets (cross-layer tagging).
  void set_dscp(net::Dscp dscp) noexcept { options_.dscp = dscp; }
  net::Dscp dscp() const noexcept { return options_.dscp; }

  std::uint32_t mss() const noexcept { return options_.mss; }

  const net::FlowKey& flow() const noexcept { return flow_; }
  ConnState state() const noexcept { return state_; }
  bool is_client() const noexcept { return is_client_; }
  bool established() const noexcept {
    return state_ == ConnState::kEstablished;
  }
  bool closed() const noexcept { return state_ == ConnState::kClosed; }

  const ConnectionStats& stats() const noexcept { return stats_; }
  std::uint64_t cwnd() const noexcept { return cc_->cwnd(); }
  std::uint64_t bytes_in_flight() const noexcept { return in_flight_bytes_; }
  std::uint64_t send_backlog() const noexcept { return unsent_bytes_; }
  const CongestionController& congestion() const noexcept { return *cc_; }
  sim::Duration rto() const noexcept { return rto_; }

  // --- Internal API used by TransportHost ---------------------------
  void start_connect();
  void handle_packet(const net::Packet& packet);

 private:
  /// A segment's bytes as they go on the wire: `payload`, then `tail`
  /// (the body's first bytes) when the segment straddles a
  /// send(head, body) boundary.
  struct Slices {
    net::Payload payload;
    net::Payload tail;
    std::size_t size() const noexcept { return payload.size() + tail.size(); }
  };

  struct Segment {
    std::uint64_t seq = 0;
    Slices bytes;  ///< zero-copy slices of the send() blocks
    sim::Time sent_at = 0;
    bool retransmitted = false;
    std::uint32_t length() const noexcept {
      return static_cast<std::uint32_t>(bytes.size());
    }
    std::uint64_t end() const noexcept { return seq + length(); }
  };

  /// A segment received ahead of rcv_next_.
  struct OutOfOrder {
    std::uint64_t seq = 0;
    Slices bytes;
  };

  void enter_established();
  void maybe_send();
  void transmit_segment(Segment& segment, bool is_retransmit);
  void send_control(std::uint8_t flags, std::uint64_t seq);
  void send_ack();
  void handle_ack(const net::Packet& packet);
  void handle_data(const net::Packet& packet);
  /// Hands the in-order bytes of `payload` then `tail`, from `skip` bytes
  /// in, up at rcv_next_.
  void deliver(const net::Payload& payload, const net::Payload& tail,
               std::size_t skip);
  /// Hands in-order bytes at rcv_next_ up and counts them.
  void deliver(const net::Payload& data);
  void arm_rto();
  void on_rto_fired();
  void update_rtt(sim::Duration sample);
  void become_closed();

  TransportHost& host_;
  net::FlowKey flow_;
  bool is_client_;
  ConnectionOptions options_;
  ConnState state_;
  std::unique_ptr<CongestionController> cc_;

  // Sender state. segments_ holds every unacknowledged segment in seq
  // order: [0, send_cursor_) are in flight, the rest not yet (re)sent.
  sim::Ring<Segment> segments_;
  std::size_t send_cursor_ = 0;
  std::uint64_t unsent_bytes_ = 0;
  std::uint64_t in_flight_bytes_ = 0;
  std::uint64_t next_seq_ = 0;       ///< Next fresh byte to assign.
  std::uint64_t snd_una_ = 0;        ///< Oldest unacked byte.
  std::uint64_t last_ack_seen_ = 0;
  int dup_acks_ = 0;
  std::uint64_t recover_ = 0;        ///< NewReno recovery point.
  bool in_recovery_ = false;

  // RTO state.
  sim::Duration srtt_ = 0;
  sim::Duration rttvar_ = 0;
  sim::Duration rto_;
  int rto_backoff_ = 0;
  sim::Timer rto_timer_;

  // Receiver state.
  std::uint64_t rcv_next_ = 0;
  sim::Ring<OutOfOrder> out_of_order_;  ///< sorted by seq, unique seqs

  ConnectionStats stats_;
  DataHandler on_data_;
  ConnectedHandler on_connected_;
  ClosedHandler on_closed_;
};

}  // namespace meshnet::transport
