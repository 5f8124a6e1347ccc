#include "mesh/config_delta.h"

#include <string_view>

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
  static_cast<SidecarPolicy&>(config) = *policy;
  config.epoch = epoch;
  config.clusters.reserve(scope != nullptr ? scope->size() : table->size());
  for_each_cluster([&config](const ClusterSpecRef& spec, bool) {
    config.clusters.append(spec);
  });
  return config;
}

void AckedConfig::apply(const ConfigDelta& delta,
                        const ConfigFingerprint& target) {
  fingerprint = target;
  for (const std::string& name : delta.cluster_removals) clusters.erase(name);
  for (const auto& [name, spec] : delta.cluster_upserts) clusters.put(spec);
}

ConfigDelta make_config_delta(const AckedConfig& base,
                              const CompiledConfig& target) {
  const ConfigFingerprint& next = target.fingerprint;
  ConfigDelta delta;
  delta.epoch = target.epoch;
  delta.base_hash = base.fingerprint.hash;
  delta.target_hash = next.hash;

  if (base.fingerprint.policy_hash != next.policy_hash) {
    delta.policy = *target.policy;
    delta.policy->epoch = target.epoch;
  }

  // Both cluster lists are in name order: one merge walk finds the
  // upserts (new, or same name with a different hash) and the removals.
  // A spec object both sides hold is unchanged without a name compare.
  const ClusterMap& acked = base.clusters;
  auto b = acked.begin();
  target.for_each_cluster([&](const ClusterSpecRef& spec, bool) {
    if (b != acked.end() && b.shared().same_object(spec)) {
      ++b;
      return;
    }
    const std::string& name = spec->name;
    for (; b != acked.end() && b->first < name; ++b) {
      delta.cluster_removals.push_back(b->first);
    }
    const bool in_base = b != acked.end() && b->first == name;
    if (!in_base || b.shared().hash() != spec.hash()) {
      delta.cluster_upserts.emplace_hint(delta.cluster_upserts.end(), name,
                                         spec);
    }
    if (in_base) ++b;
  });
  for (; b != acked.end(); ++b) delta.cluster_removals.push_back(b->first);
  return delta;
}

std::size_t estimate_config_bytes(const SidecarConfig& config) {
  std::size_t bytes = 16 + policy_section_bytes(config);  // epoch + framing
  for (const auto& [name, spec] : config.clusters) {
    bytes += cluster_spec_bytes(spec);
  }
  return bytes;
}

std::size_t estimate_delta_bytes(const ConfigDelta& delta) {
  std::size_t bytes = 40;  // epoch + base/target hashes + framing
  if (delta.policy) bytes += policy_section_bytes(*delta.policy);
  for (const auto& [name, spec] : delta.cluster_upserts) {
    bytes += cluster_spec_bytes(*spec);
  }
  for (const std::string& name : delta.cluster_removals) {
    bytes += string_bytes(name);
  }
  return bytes;
}

}  // namespace meshnet::mesh
