#pragma once

// The orchestration substrate: a cluster of nodes hosting pods, each pod
// with one IP (app container and sidecar share the pod network namespace,
// as in Kubernetes), a vNIC modelled as a duplex link to its node's
// bridge, and a TransportHost acting as the pod's kernel. IP allocation
// follows the CNI convention of one /24 per node (10.244.<node>.<pod>).
//
// The paper's testbed maps onto this as: one node (single 32-core server
// under KIND), 15 Gbps vNIC links, and the reviews->ratings bottleneck
// expressed by giving the ratings pod a 1 Gbps vNIC.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/service_registry.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "transport/transport_host.h"

namespace meshnet::cluster {

class Cluster;

struct NodeInfo {
  std::string name;
  net::LocationId bridge = net::kInvalidLocation;
  std::uint8_t index = 0;
  int next_pod_ip = 2;  ///< .0/.1 reserved, CNI-style; .255 is the last.
};

struct PodOptions {
  /// vNIC rate; 0 means "use the cluster default".
  double link_bps = 0.0;
  /// vNIC one-way propagation delay; negative means cluster default.
  sim::Duration link_delay = -1;
  std::map<std::string, std::string> labels;
};

class Pod {
 public:
  Pod(Cluster& cluster, std::string name, std::string service,
      net::IpAddress ip, net::LocationId location, net::Link* egress,
      net::Link* ingress);

  const std::string& name() const noexcept { return name_; }
  const std::string& service() const noexcept { return service_; }
  net::IpAddress ip() const noexcept { return ip_; }
  net::LocationId location() const noexcept { return location_; }

  /// False while the pod is crashed (vNICs down, packets blackholed).
  bool running() const noexcept { return running_; }

  /// Degradation factor applied to the app container's processing delay
  /// (1.0 = healthy; the fault layer raises it to model CPU starvation /
  /// noisy neighbours). Apps read it at admission time.
  double compute_multiplier() const noexcept { return compute_multiplier_; }
  void set_compute_multiplier(double multiplier) noexcept {
    compute_multiplier_ = multiplier < 0.0 ? 0.0 : multiplier;
  }

  /// The pod's "kernel": listen/connect through this.
  transport::TransportHost& transport() noexcept { return *transport_; }

  /// The vNIC links (pod->node and node->pod). The cross-layer TcManager
  /// installs qdiscs on these, mirroring `tc qdisc replace dev veth...`.
  net::Link& egress_link() noexcept { return *egress_; }
  net::Link& ingress_link() noexcept { return *ingress_; }

 private:
  friend class Cluster;
  std::string name_;
  std::string service_;
  net::IpAddress ip_;
  net::LocationId location_;
  net::Link* egress_;
  net::Link* ingress_;
  std::unique_ptr<transport::TransportHost> transport_;
  // Registration snapshot so a restarted pod can re-join its service.
  net::Port service_port_ = 0;
  std::map<std::string, std::string> labels_;
  bool running_ = true;
  double compute_multiplier_ = 1.0;
};

struct ClusterConfig {
  double default_link_bps = 15e9;                      ///< paper: 15 Gbps
  sim::Duration default_link_delay = sim::microseconds(20);
  sim::Duration loopback_delay = sim::microseconds(10);
  double node_uplink_bps = 40e9;  ///< node bridge <-> cluster fabric
  sim::Duration node_uplink_delay = sim::microseconds(5);
  /// vNIC queue capacity (Linux txqueuelen 1000 x ~9000B MTU by default);
  /// must comfortably exceed one congestion window or every slow-start
  /// burst becomes a drop storm.
  std::uint64_t vnic_queue_bytes = 9'000'000;
};

class Cluster {
 public:
  Cluster(sim::Simulator& sim, ClusterConfig config = {});
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Adds a worker node (a bridge location uplinked to the cluster fabric).
  /// Node i owns 10.244.i.0/24, so the 257th node throws
  /// std::length_error.
  NodeInfo& add_node(const std::string& name);

  /// Schedules a pod onto a node. The pod gets an IP, its own location,
  /// vNIC links to the node bridge, and a TransportHost. If `service` is
  /// non-empty and `service_port` != 0, the pod is registered as an
  /// endpoint of that service with the given labels. A node holds 254
  /// pods (.2 to .255 of its /24); one more throws std::length_error.
  Pod& add_pod(const std::string& node, const std::string& pod_name,
               const std::string& service, net::Port service_port,
               PodOptions options = {});

  Pod* find_pod(const std::string& name);
  const std::vector<std::unique_ptr<Pod>>& pods() const { return pods_; }

  // --- Pod lifecycle (the fault layer's kubelet) ----------------------
  //
  // crash_pod models a hard failure: both vNICs go down, so in-flight and
  // future packets blackhole. It deliberately does NOT touch the service
  // registry — detecting the failure is the job of health checking (fast
  // path) or deregister_pod (the slow "node controller noticed" path).
  // All three return false when no pod by that name exists (crash/restart
  // additionally no-op when already in the requested state).

  bool crash_pod(const std::string& name);

  /// Removes the crashed pod's endpoint from the registry (endpoint
  /// churn the control plane will push to every sidecar).
  bool deregister_pod(const std::string& name);

  /// Brings the vNICs back up and re-registers the endpoint with its
  /// original port and labels.
  bool restart_pod(const std::string& name);

  sim::Simulator& sim() noexcept { return sim_; }
  net::Network& network() noexcept { return network_; }
  ServiceRegistry& registry() noexcept { return registry_; }
  const ClusterConfig& config() const noexcept { return config_; }

 private:
  sim::Simulator& sim_;
  ClusterConfig config_;
  net::Network network_;
  ServiceRegistry registry_;
  net::LocationId fabric_;
  std::map<std::string, NodeInfo> nodes_;
  std::vector<std::unique_ptr<Pod>> pods_;
};

}  // namespace meshnet::cluster
