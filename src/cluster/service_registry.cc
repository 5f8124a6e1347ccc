#include "cluster/service_registry.h"

#include <algorithm>

namespace meshnet::cluster {

void ServiceRegistry::bump_version() {
  ++version_;
  if (change_listener_) change_listener_(version_);
}

void ServiceRegistry::add_endpoint(const std::string& service,
                                   Endpoint endpoint) {
  ServiceInfo& info = services_[service];
  if (info.name.empty()) info.name = service;
  if (info.port == 0) info.port = endpoint.port;
  const auto it = std::find_if(info.endpoints.begin(), info.endpoints.end(),
                               [&](const Endpoint& e) {
                                 return e.pod_name == endpoint.pod_name;
                               });
  if (it != info.endpoints.end()) {
    *it = std::move(endpoint);
  } else {
    info.endpoints.push_back(std::move(endpoint));
  }
  bump_version();
}

bool ServiceRegistry::remove_endpoint(const std::string& service,
                                      const std::string& pod_name) {
  const auto sit = services_.find(service);
  if (sit == services_.end()) return false;
  auto& eps = sit->second.endpoints;
  const auto before = eps.size();
  eps.erase(std::remove_if(
                eps.begin(), eps.end(),
                [&](const Endpoint& e) { return e.pod_name == pod_name; }),
            eps.end());
  if (eps.size() != before) {
    bump_version();
    return true;
  }
  return false;
}

const ServiceInfo* ServiceRegistry::find(const std::string& service) const {
  const auto it = services_.find(service);
  return it == services_.end() ? nullptr : &it->second;
}

std::vector<const ServiceInfo*> ServiceRegistry::services() const {
  std::vector<const ServiceInfo*> out;
  out.reserve(services_.size());
  for (const auto& [name, info] : services_) out.push_back(&info);
  return out;
}

}  // namespace meshnet::cluster
