#pragma once

// Service discovery state: named services, each with a port and a set of
// endpoints (pods). This is the cluster's "DNS + Endpoints" store; the
// mesh control plane watches it (by version number) and pushes endpoint
// updates to sidecars, the way Istio's pilot consumes the Kubernetes API.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/address.h"

namespace meshnet::cluster {

struct Endpoint {
  std::string pod_name;
  net::IpAddress ip = net::kNoAddress;
  net::Port port = 0;
  /// Free-form labels; the priority-subset router selects on these
  /// (e.g. {"priority", "high"}).
  std::map<std::string, std::string> labels;

  std::string label_or(const std::string& key, const std::string& fb) const {
    const auto it = labels.find(key);
    return it == labels.end() ? fb : it->second;
  }

  bool operator==(const Endpoint&) const = default;
};

struct ServiceInfo {
  std::string name;
  net::Port port = 0;
  std::vector<Endpoint> endpoints;
};

class ServiceRegistry {
 public:
  /// Adds (or replaces, by pod name) an endpoint. The service is created
  /// implicitly if unknown.
  void add_endpoint(const std::string& service, Endpoint endpoint);

  /// Removes an endpoint by pod name; returns true if one was removed.
  bool remove_endpoint(const std::string& service,
                       const std::string& pod_name);

  const ServiceInfo* find(const std::string& service) const;

  /// All services, sorted by name.
  std::vector<const ServiceInfo*> services() const;

  /// Monotonically increasing; bumped by every mutation. Control planes
  /// poll this to decide when to push.
  std::uint64_t version() const noexcept { return version_; }

  /// Fires after every version bump with the new version. The control
  /// plane uses this to timestamp discovery churn (staleness accounting)
  /// even while it is crashed — the watch channel is the cluster's, not
  /// the control plane's. One listener; set empty to clear.
  void set_change_listener(std::function<void(std::uint64_t version)> fn) {
    change_listener_ = std::move(fn);
  }

 private:
  void bump_version();

  std::map<std::string, ServiceInfo> services_;
  std::uint64_t version_ = 0;
  std::function<void(std::uint64_t)> change_listener_;
};

}  // namespace meshnet::cluster
