#include "mesh/config_delta.h"

#include <string_view>
#include <utility>

namespace meshnet::mesh {

namespace {

std::size_t string_bytes(std::string_view s) { return s.size() + 4; }

std::size_t endpoint_bytes(const cluster::Endpoint& ep) {
  std::size_t bytes = string_bytes(ep.pod_name) + 6;  // ip + port
  for (const auto& [k, v] : ep.labels) {
    bytes += string_bytes(k) + string_bytes(v);
  }
  return bytes;
}

std::size_t cluster_spec_bytes(const ClusterSpec& spec) {
  // lb + breaker + health-check block, fixed-size, plus the probe path.
  std::size_t bytes = string_bytes(spec.name) + 48 +
                      string_bytes(kHealthCheckPath);
  for (const cluster::Endpoint& ep : spec.endpoints) {
    bytes += endpoint_bytes(ep);
  }
  return bytes;
}

std::size_t policy_section_bytes(const SidecarPolicy& policy) {
  // retry + timeouts + admission + class policies + transport + proxy
  // overhead knobs: fixed-size scalar fields.
  std::size_t bytes = 160 + string_bytes(policy.service_name) +
                      string_bytes(policy.identity_cert.spiffe_id);
  bytes += policy.class_policies.size() * 6;
  return bytes;
}

}  // namespace

SidecarConfig CompiledConfig::materialize() const {
  SidecarConfig config;
  static_cast<SidecarPolicy&>(config) = policy;
  config.routes = fingerprint.routes;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    config.clusters.emplace_hint(config.clusters.end(),
                                 fingerprint.clusters[i].name, *specs[i]);
  }
  return config;
}

CompiledConfig compiled_from(SidecarConfig config) {
  CompiledConfig compiled;
  compiled.fingerprint = fingerprint_config(config);
  compiled.policy = static_cast<const SidecarPolicy&>(config);
  auto owned = std::make_unique<const SidecarConfig>(std::move(config));
  compiled.specs.reserve(owned->clusters.size());
  for (const auto& [name, spec] : owned->clusters) {
    compiled.specs.push_back(&spec);
  }
  compiled.owned = std::move(owned);
  return compiled;
}

ConfigDelta make_config_delta(const ConfigFingerprint& base,
                              const CompiledConfig& target) {
  const ConfigFingerprint& next = target.fingerprint;
  ConfigDelta delta;
  delta.epoch = target.policy.epoch;
  delta.base_hash = base.hash;
  delta.target_hash = next.hash;

  if (base.policy_hash != next.policy_hash) delta.policy = target.policy;

  // Both cluster lists are sorted by name: one merge walk finds the
  // upserts (new, or same name with a different hash) and the removals.
  std::size_t b = 0;
  for (std::size_t t = 0; t < next.clusters.size(); ++t) {
    const ClusterHash& cluster = next.clusters[t];
    while (b < base.clusters.size() && base.clusters[b].name < cluster.name) {
      delta.cluster_removals.push_back(base.clusters[b++].name);
    }
    const bool in_base =
        b < base.clusters.size() && base.clusters[b].name == cluster.name;
    if (!in_base || base.clusters[b].hash != cluster.hash) {
      delta.cluster_upserts.emplace_hint(delta.cluster_upserts.end(),
                                         cluster.name, *target.specs[t]);
    }
    if (in_base) ++b;
  }
  for (; b < base.clusters.size(); ++b) {
    delta.cluster_removals.push_back(base.clusters[b].name);
  }

  for (const auto& [host, cluster] : next.routes) {
    const auto it = base.routes.find(host);
    if (it == base.routes.end() || it->second != cluster) {
      delta.route_upserts.emplace(host, cluster);
    }
  }
  for (const auto& [host, cluster] : base.routes) {
    if (!next.routes.contains(host)) delta.route_removals.push_back(host);
  }
  return delta;
}

std::size_t estimate_config_bytes(const SidecarConfig& config) {
  std::size_t bytes = 16 + policy_section_bytes(config);  // epoch + framing
  for (const auto& [host, cluster] : config.routes) {
    bytes += string_bytes(host) + string_bytes(cluster);
  }
  for (const auto& [name, spec] : config.clusters) {
    bytes += cluster_spec_bytes(spec);
  }
  return bytes;
}

std::size_t estimate_delta_bytes(const ConfigDelta& delta) {
  std::size_t bytes = 40;  // epoch + base/target hashes + framing
  if (delta.policy) bytes += policy_section_bytes(*delta.policy);
  for (const auto& [name, spec] : delta.cluster_upserts) {
    bytes += cluster_spec_bytes(spec);
  }
  for (const std::string& name : delta.cluster_removals) {
    bytes += string_bytes(name);
  }
  for (const auto& [host, cluster] : delta.route_upserts) {
    bytes += string_bytes(host) + string_bytes(cluster);
  }
  for (const std::string& host : delta.route_removals) {
    bytes += string_bytes(host);
  }
  return bytes;
}

}  // namespace meshnet::mesh
