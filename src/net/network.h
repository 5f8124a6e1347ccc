#pragma once

// The simulated fabric: locations (hosts / switches) joined by links, with
// interfaces (pod vNIC endpoints) attached to locations. Routing is
// shortest-path by hop count, precomputed as next-hop tables the way a
// static L3 fabric would be. Same-location traffic ("localhost" between an
// app container and its sidecar inside one pod) bypasses the fabric with a
// small configurable loopback delay.
//
// Like a link, the loopback path allocates nothing per packet: loopback
// packets wait in one FIFO ring with their destination interface, and
// each loopback event delivers the ring's front. The delay is the same for
// every packet, so delivery order is send order; changing it while
// packets are in flight would break that, and throws.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/address.h"
#include "net/link.h"
#include "net/packet.h"
#include "sim/ring.h"
#include "sim/simulator.h"

namespace meshnet::net {

using LocationId = std::uint32_t;
constexpr LocationId kInvalidLocation = UINT32_MAX;

/// A packet delivery endpoint with an IP, attached to a location.
class Interface {
 public:
  Interface(IpAddress ip, LocationId location, std::string name)
      : ip_(ip), location_(location), name_(std::move(name)) {}

  IpAddress ip() const noexcept { return ip_; }
  LocationId location() const noexcept { return location_; }
  const std::string& name() const noexcept { return name_; }

  void set_handler(std::function<void(Packet&&)> handler) {
    handler_ = std::move(handler);
  }
  void deliver(Packet&& packet) const {
    if (handler_) handler_(std::move(packet));
  }

 private:
  IpAddress ip_;
  LocationId location_;
  std::string name_;
  std::function<void(Packet&&)> handler_;
};

class Network {
 public:
  explicit Network(sim::Simulator& sim);

  /// Adds a routing node (host bridge, switch, ...).
  LocationId add_location(std::string name);

  /// Adds a unidirectional link. Default qdisc is a drop-tail FIFO.
  Link& add_link(LocationId from, LocationId to, double rate_bps,
                 sim::Duration propagation_delay,
                 std::unique_ptr<Qdisc> qdisc = nullptr,
                 std::string name = {});

  /// Adds a pair of unidirectional links (A->B and B->A) with identical
  /// parameters; returns {forward, reverse}.
  std::pair<Link*, Link*> add_duplex_link(LocationId a, LocationId b,
                                          double rate_bps,
                                          sim::Duration propagation_delay,
                                          std::string name = {});

  /// Attaches an interface with the given IP at a location. IPs are
  /// unique across the network: a second interface with an attached
  /// address throws std::invalid_argument.
  Interface& attach_interface(IpAddress ip, LocationId location,
                              std::string name = {});

  /// Injects a packet from its flow's source toward its destination.
  /// Unroutable packets (unknown IPs, partitioned fabric) are dropped and
  /// counted.
  void send(Packet packet);

  Interface* find_interface(IpAddress ip);
  Link* find_link(const std::string& name);

  /// All links, for stats sweeps.
  std::vector<Link*> links();

  /// Delay applied to same-location (loopback) deliveries. Throws
  /// std::logic_error while loopback packets are in flight: a new delay
  /// would reorder them against the FIFO ring they wait in.
  void set_loopback_delay(sim::Duration delay);
  sim::Duration loopback_delay() const noexcept { return loopback_delay_; }

  std::uint64_t unroutable_drops() const noexcept { return unroutable_; }
  std::size_t location_count() const noexcept { return location_names_.size(); }

 private:
  void on_link_output(LocationId arrived_at, Packet&& packet);
  void deliver_loopback();
  void rebuild_routes();
  Link* next_hop(LocationId from, LocationId to);

  sim::Simulator& sim_;
  std::vector<std::string> location_names_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::pair<LocationId, LocationId>> link_endpoints_;
  std::unordered_map<IpAddress, std::unique_ptr<Interface>> interfaces_;
  // next_hop_[from * n + to] = link index + 1 (0 = unreachable).
  std::vector<std::uint32_t> next_hop_table_;
  bool routes_dirty_ = true;
  sim::Duration loopback_delay_ = sim::microseconds(25);
  struct LoopbackPacket {
    Interface* dst = nullptr;
    Packet packet;
  };
  sim::Ring<LoopbackPacket> loopback_;  ///< In flight, send order.
  std::uint64_t unroutable_ = 0;
};

}  // namespace meshnet::net
