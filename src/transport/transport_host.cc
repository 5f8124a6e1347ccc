#include "transport/transport_host.h"

#include <stdexcept>
#include <utility>
#include <vector>

namespace meshnet::transport {

TransportHost::TransportHost(sim::Simulator& sim, net::Network& network,
                             net::IpAddress ip)
    : sim_(sim), network_(network), ip_(ip) {
  net::Interface* iface = network.find_interface(ip);
  if (iface == nullptr) {
    throw std::invalid_argument("TransportHost: no interface for " +
                                net::ip_to_string(ip));
  }
  iface->set_handler([this](net::Packet&& p) { on_packet(std::move(p)); });
}

void TransportHost::listen(net::Port port, AcceptHandler handler) {
  listeners_[port] = std::move(handler);
}

Connection& TransportHost::connect(net::SocketAddress remote,
                                   ConnectionOptions options) {
  net::FlowKey flow;
  flow.src_ip = ip_;
  flow.src_port = next_ephemeral_++;
  flow.dst_ip = remote.ip;
  flow.dst_port = remote.port;
  auto conn = std::make_unique<Connection>(*this, flow, /*is_client=*/true,
                                           options);
  Connection& ref = *conn;
  connections_.emplace(flow, std::move(conn));
  ++stats_.connections_opened;
  ref.start_connect();
  return ref;
}

void TransportHost::send_packet(net::Packet packet) {
  network_.send(std::move(packet));
}

void TransportHost::reset_all_connections() {
  // abort() re-enters on_connection_closed (which schedules erasure from
  // connections_), so collect the targets before touching any of them.
  std::vector<Connection*> live;
  live.reserve(connections_.size());
  for (auto& [flow, conn] : connections_) live.push_back(conn.get());
  for (Connection* conn : live) {
    if (conn->state() != ConnState::kClosed) conn->abort();
  }
}

void TransportHost::on_connection_closed(Connection& connection) {
  // Defer destruction to a fresh simulator step: the connection object is
  // still on the stack when this is called.
  const net::FlowKey flow = connection.flow();
  sim_.schedule_after(0, [this, flow] { connections_.erase(flow); });
}

void TransportHost::on_packet(net::Packet&& packet) {
  // The local view of the flow reverses the wire header.
  const net::FlowKey local = packet.flow.reversed();
  const auto it = connections_.find(local);
  if (it != connections_.end()) {
    it->second->handle_packet(packet);
    return;
  }
  if (packet.has(net::kFlagSyn) && !packet.has(net::kFlagAck)) {
    const auto lit = listeners_.find(packet.flow.dst_port);
    if (lit != listeners_.end()) {
      ConnectionOptions options;
      if (accept_mapper_) {
        options = accept_mapper_(packet);
      } else {
        options.dscp = packet.dscp;  // answer in the sender's traffic class
      }
      if (packet.mss_option > 0) options.mss = packet.mss_option;
      auto conn = std::make_unique<Connection>(*this, local,
                                               /*is_client=*/false, options);
      Connection& ref = *conn;
      connections_.emplace(local, std::move(conn));
      ++stats_.connections_accepted;
      lit->second(ref);
      ref.handle_packet(packet);
      return;
    }
  }
  // No connection and not a connectable SYN: emit RST so the peer does
  // not hang (unless this is itself an RST).
  if (!packet.has(net::kFlagRst)) {
    net::Packet rst;
    rst.flow = local;
    rst.flags = net::kFlagRst;
    rst.seq = 0;
    rst.ack = 0;
    network_.send(std::move(rst));
  }
}

}  // namespace meshnet::transport
