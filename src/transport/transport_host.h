#pragma once

// Per-interface transport endpoint: owns the connections bound to one IP,
// demultiplexes incoming packets by 4-tuple, accepts new connections on
// listening ports, and allocates ephemeral ports for outbound connects.
// One TransportHost is attached to every pod interface (the "kernel" of
// that pod).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/address.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "transport/connection.h"

namespace meshnet::transport {

/// Host-wide transport counters (the `netstat -s` of a pod), aggregated
/// across all live and dead connections.
struct HostStats {
  std::uint64_t connections_opened = 0;
  std::uint64_t connections_accepted = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

class TransportHost {
 public:
  using AcceptHandler = std::function<void(Connection&)>;

  /// Attaches to `ip`'s interface in `network` (which must already exist).
  TransportHost(sim::Simulator& sim, net::Network& network, net::IpAddress ip);

  TransportHost(const TransportHost&) = delete;
  TransportHost& operator=(const TransportHost&) = delete;

  /// Starts accepting connections on `port`. The handler runs when the
  /// first SYN of a new connection arrives, before any data is delivered,
  /// so it can attach data/closed handlers.
  void listen(net::Port port, AcceptHandler handler);

  /// Opens a client connection; the returned connection is owned by this
  /// host and stays valid until it reaches CLOSED (after which it is
  /// destroyed on a subsequent simulator step).
  Connection& connect(net::SocketAddress remote,
                      ConnectionOptions options = {});

  /// Chooses connection options for *accepted* connections based on the
  /// incoming SYN. The default copies the SYN's DSCP so replies travel in
  /// the sender's traffic class; the cross-layer controller installs a
  /// mapper that additionally selects scavenger congestion control for
  /// scavenger-marked peers (so large low-priority *responses* also yield).
  using AcceptOptionsMapper = std::function<ConnectionOptions(const net::Packet& syn)>;
  void set_accept_options_mapper(AcceptOptionsMapper mapper) {
    accept_mapper_ = std::move(mapper);
  }

  /// Aborts every live connection on this host, as a process restart
  /// would: all TCP state is lost and an RST notifies each peer. New
  /// connections (and fresh TLS handshakes) must be established from
  /// scratch afterwards.
  void reset_all_connections();

  net::IpAddress ip() const noexcept { return ip_; }
  sim::Simulator& sim() noexcept { return sim_; }
  sim::Time now() const noexcept { return sim_.now(); }
  std::size_t connection_count() const noexcept { return connections_.size(); }
  const HostStats& stats() const noexcept { return stats_; }
  HostStats& mutable_stats() noexcept { return stats_; }

  // --- Internal API ----------------------------------------------------
  void send_packet(net::Packet packet);
  void on_connection_closed(Connection& connection);

 private:
  void on_packet(net::Packet&& packet);

  sim::Simulator& sim_;
  net::Network& network_;
  net::IpAddress ip_;
  net::Port next_ephemeral_ = 40001;
  std::unordered_map<net::FlowKey, std::unique_ptr<Connection>,
                     net::FlowKeyHash>
      connections_;
  std::unordered_map<net::Port, AcceptHandler> listeners_;
  AcceptOptionsMapper accept_mapper_;
  HostStats stats_;
};

}  // namespace meshnet::transport
