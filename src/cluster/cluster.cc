#include "cluster/cluster.h"

#include <stdexcept>
#include <utility>

namespace meshnet::cluster {

Pod::Pod(Cluster& cluster, std::string name, std::string service,
         net::IpAddress ip, net::LocationId location, net::Link* egress,
         net::Link* ingress)
    : name_(std::move(name)),
      service_(std::move(service)),
      ip_(ip),
      location_(location),
      egress_(egress),
      ingress_(ingress),
      transport_(std::make_unique<transport::TransportHost>(
          cluster.sim(), cluster.network(), ip)) {}

Cluster::Cluster(sim::Simulator& sim) : sim_(sim), network_(sim) {
  network_.set_loopback_delay(kLoopbackDelay);
  fabric_ = network_.add_location("fabric");
}

NodeInfo& Cluster::add_node(const std::string& name) {
  const auto it = nodes_.find(name);
  if (it != nodes_.end()) return it->second;
  if (static_cast<int>(nodes_.size()) >= kMaxNodes) {
    throw std::length_error("cluster::Cluster: node " + name +
                            " needs a 257th /24 in 10.244.0.0/16");
  }
  NodeInfo info;
  info.name = name;
  info.index = static_cast<std::uint8_t>(nodes_.size());
  info.bridge = network_.add_location("node:" + name);
  network_.add_link(info.bridge, fabric_, kNodeUplinkBps, kNodeUplinkDelay,
                    std::make_unique<net::FifoQdisc>(kVnicQueueBytes),
                    "uplink:" + name + ":fwd");
  network_.add_link(fabric_, info.bridge, kNodeUplinkBps, kNodeUplinkDelay,
                    std::make_unique<net::FifoQdisc>(kVnicQueueBytes),
                    "uplink:" + name + ":rev");
  return nodes_.emplace(name, std::move(info)).first->second;
}

Pod& Cluster::add_pod(const std::string& node, const std::string& pod_name,
                      const std::string& service, net::Port service_port,
                      PodOptions options) {
  NodeInfo& n = add_node(node);
  if (n.next_pod_ip >= 2 + kMaxPodsPerNode) {
    throw std::length_error("cluster::Cluster: node " + node +
                            " has no free pod address for " + pod_name);
  }
  const net::IpAddress ip = net::make_ip(
      10, 244, n.index, static_cast<std::uint8_t>(n.next_pod_ip++));
  const net::LocationId loc = network_.add_location("pod:" + pod_name);
  const double bps = options.link_bps > 0.0 ? options.link_bps : kPodLinkBps;
  const sim::Duration delay =
      options.link_delay >= 0 ? options.link_delay : kPodLinkDelay;
  net::Link& egress = network_.add_link(
      loc, n.bridge, bps, delay,
      std::make_unique<net::FifoQdisc>(kVnicQueueBytes),
      "vnic:" + pod_name + ":egress");
  net::Link& ingress = network_.add_link(
      n.bridge, loc, bps, delay,
      std::make_unique<net::FifoQdisc>(kVnicQueueBytes),
      "vnic:" + pod_name + ":ingress");
  network_.attach_interface(ip, loc, pod_name);
  auto pod = std::make_unique<Pod>(*this, pod_name, service, ip, loc,
                                   &egress, &ingress);
  Pod& ref = *pod;
  ref.service_port_ = service_port;
  ref.labels_ = std::move(options.labels);
  pods_.push_back(std::move(pod));

  if (!service.empty() && service_port != 0) {
    Endpoint ep;
    ep.pod_name = pod_name;
    ep.ip = ip;
    ep.port = service_port;
    ep.labels = ref.labels_;
    registry_.add_endpoint(service, std::move(ep));
  }
  return ref;
}

Pod* Cluster::find_pod(const std::string& name) {
  for (const auto& pod : pods_) {
    if (pod->name() == name) return pod.get();
  }
  return nullptr;
}

bool Cluster::crash_pod(const std::string& name) {
  Pod* pod = find_pod(name);
  if (pod == nullptr || !pod->running_) return false;
  pod->running_ = false;
  pod->egress_link().set_up(false);
  pod->ingress_link().set_up(false);
  return true;
}

bool Cluster::deregister_pod(const std::string& name) {
  Pod* pod = find_pod(name);
  if (pod == nullptr || pod->service().empty()) return false;
  return registry_.remove_endpoint(pod->service(), name);
}

bool Cluster::restart_pod(const std::string& name) {
  Pod* pod = find_pod(name);
  if (pod == nullptr || pod->running_) return false;
  pod->running_ = true;
  pod->egress_link().set_up(true);
  pod->ingress_link().set_up(true);
  if (!pod->service().empty() && pod->service_port_ != 0) {
    Endpoint ep;
    ep.pod_name = name;
    ep.ip = pod->ip();
    ep.port = pod->service_port_;
    ep.labels = pod->labels_;
    registry_.add_endpoint(pod->service(), std::move(ep));
  }
  return true;
}

}  // namespace meshnet::cluster
