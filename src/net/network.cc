#include "net/network.h"

#include <deque>
#include <stdexcept>
#include <utility>

#include "util/logging.h"

namespace meshnet::net {

Network::Network(sim::Simulator& sim) : sim_(sim) {}

LocationId Network::add_location(std::string name) {
  const auto id = static_cast<LocationId>(location_names_.size());
  if (name.empty()) name = "loc-" + std::to_string(id);
  location_names_.push_back(std::move(name));
  routes_dirty_ = true;
  return id;
}

Link& Network::add_link(LocationId from, LocationId to, double rate_bps,
                        sim::Duration propagation_delay,
                        std::unique_ptr<Qdisc> qdisc, std::string name) {
  if (!qdisc) qdisc = std::make_unique<FifoQdisc>();
  if (name.empty()) {
    name = location_names_.at(from) + "->" + location_names_.at(to);
  }
  auto link = std::make_unique<Link>(sim_, std::move(name), rate_bps,
                                     propagation_delay, std::move(qdisc));
  Link* raw = link.get();
  link->set_sink(
      [this, to](Packet&& p) { on_link_output(to, std::move(p)); });
  links_.push_back(std::move(link));
  link_endpoints_.emplace_back(from, to);
  routes_dirty_ = true;
  return *raw;
}

std::pair<Link*, Link*> Network::add_duplex_link(
    LocationId a, LocationId b, double rate_bps,
    sim::Duration propagation_delay, std::string name) {
  std::string fwd_name = name.empty() ? std::string() : name + ":fwd";
  std::string rev_name = name.empty() ? std::string() : name + ":rev";
  Link& fwd = add_link(a, b, rate_bps, propagation_delay, nullptr,
                       std::move(fwd_name));
  Link& rev = add_link(b, a, rate_bps, propagation_delay, nullptr,
                       std::move(rev_name));
  return {&fwd, &rev};
}

Interface& Network::attach_interface(IpAddress ip, LocationId location,
                                     std::string name) {
  if (interfaces_.count(ip) != 0) {
    throw std::invalid_argument("net::Network: address " + ip_to_string(ip) +
                                " is already attached");
  }
  if (name.empty()) name = ip_to_string(ip);
  auto iface = std::make_unique<Interface>(ip, location, std::move(name));
  Interface& ref = *iface;
  interfaces_[ip] = std::move(iface);
  return ref;
}

Interface* Network::find_interface(IpAddress ip) {
  const auto it = interfaces_.find(ip);
  return it == interfaces_.end() ? nullptr : it->second.get();
}

Link* Network::find_link(const std::string& name) {
  for (const auto& link : links_) {
    if (link->name() == name) return link.get();
  }
  return nullptr;
}

std::vector<Link*> Network::links() {
  std::vector<Link*> out;
  out.reserve(links_.size());
  for (const auto& link : links_) out.push_back(link.get());
  return out;
}

void Network::set_loopback_delay(sim::Duration delay) {
  if (!loopback_.empty()) {
    throw std::logic_error(
        "net::Network: loopback delay changed with packets in flight");
  }
  loopback_delay_ = delay;
}

void Network::rebuild_routes() {
  const std::size_t n = location_names_.size();
  next_hop_table_.assign(n * n, 0);
  // Reverse BFS from every destination over the link graph gives the
  // first-hop link toward that destination from each location.
  std::vector<std::vector<std::pair<LocationId, std::uint32_t>>> in_links(n);
  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    in_links[link_endpoints_[i].second].emplace_back(link_endpoints_[i].first,
                                                     i);
  }
  for (LocationId dst = 0; dst < n; ++dst) {
    std::vector<int> dist(n, -1);
    dist[dst] = 0;
    std::deque<LocationId> frontier{dst};
    // BFS over reversed edges: dist[v] = hops from v to dst.
    while (!frontier.empty()) {
      const LocationId v = frontier.front();
      frontier.pop_front();
      for (const auto& [prev, link_idx] : in_links[v]) {
        if (dist[prev] == -1) {
          dist[prev] = dist[v] + 1;
          frontier.push_back(prev);
        }
        // Record the best (shortest, first-added) outgoing link from prev
        // toward dst.
        if (dist[prev] == dist[v] + 1 &&
            next_hop_table_[prev * n + dst] == 0) {
          next_hop_table_[prev * n + dst] = link_idx + 1;
        }
      }
    }
  }
  routes_dirty_ = false;
}

Link* Network::next_hop(LocationId from, LocationId to) {
  if (routes_dirty_) rebuild_routes();
  const std::size_t n = location_names_.size();
  const std::uint32_t entry = next_hop_table_[from * n + to];
  return entry == 0 ? nullptr : links_[entry - 1].get();
}

void Network::send(Packet packet) {
  Interface* src = find_interface(packet.flow.src_ip);
  Interface* dst = find_interface(packet.flow.dst_ip);
  if (src == nullptr || dst == nullptr) {
    ++unroutable_;
    MESHNET_DEBUG() << "unroutable packet " << packet.flow.to_string();
    return;
  }
  if (src->location() == dst->location()) {
    loopback_.push_back({dst, std::move(packet)});
    auto on_loopback = [this] { deliver_loopback(); };
    static_assert(sim::InlineTask::fits_inline<decltype(on_loopback)>());
    sim_.schedule_after(loopback_delay_, on_loopback);
    return;
  }
  Link* hop = next_hop(src->location(), dst->location());
  if (hop == nullptr) {
    ++unroutable_;
    MESHNET_DEBUG() << "no route " << packet.flow.to_string();
    return;
  }
  hop->send(std::move(packet));
}

void Network::deliver_loopback() {
  LoopbackPacket next = loopback_.take_front();
  next.dst->deliver(std::move(next.packet));
}

void Network::on_link_output(LocationId arrived_at, Packet&& packet) {
  Interface* dst = find_interface(packet.flow.dst_ip);
  if (dst == nullptr) {
    ++unroutable_;
    return;
  }
  if (dst->location() == arrived_at) {
    dst->deliver(std::move(packet));
    return;
  }
  Link* hop = next_hop(arrived_at, dst->location());
  if (hop == nullptr) {
    ++unroutable_;
    return;
  }
  hop->send(std::move(packet));
}

}  // namespace meshnet::net
