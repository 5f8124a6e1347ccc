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

void AckedConfig::apply(ConfigPush& push, const ConfigFingerprint& target) {
  fingerprint = target;
  if (push.replace) {
    clusters = std::move(push.clusters);
    return;
  }
  for (const std::string& name : push.removals) clusters.erase(name);
  for (auto it = push.clusters.begin(); it != push.clusters.end(); ++it) {
    clusters.put(it.shared());
  }
}

ConfigPush make_config_push(const AckedConfig* base,
                            const CompiledConfig& target) {
  static const AckedConfig kNoBase;
  const ConfigFingerprint& next = target.fingerprint;
  ConfigPush push;
  push.epoch = target.epoch;
  push.target_hash = next.hash;
  push.replace = base == nullptr;
  if (push.replace) {
    base = &kNoBase;
    push.clusters.reserve(target.scope != nullptr ? target.scope->size()
                                                  : target.table->size());
  }
  push.base_hash = base->fingerprint.hash;
  if (push.replace || base->fingerprint.policy_hash != next.policy_hash) {
    push.policy = *target.policy;
  }

  // Both cluster lists are in name order: one merge walk finds the
  // upserts (new, or same name with a different hash) and the removals.
  // A spec object both sides hold is unchanged without a name compare.
  const ClusterMap& acked = base->clusters;
  auto b = acked.begin();
  target.for_each_cluster([&](const ClusterSpecRef& spec, bool) {
    if (b != acked.end() && b.shared().same_object(spec)) {
      ++b;
      return;
    }
    const std::string& name = spec->name;
    for (; b != acked.end() && b->first < name; ++b) {
      push.removals.push_back(b->first);
    }
    const bool in_base = b != acked.end() && b->first == name;
    if (!in_base || b.shared().hash() != spec.hash()) {
      push.clusters.append(spec);
    }
    if (in_base) ++b;
  });
  for (; b != acked.end(); ++b) push.removals.push_back(b->first);
  return push;
}

std::size_t estimate_push_bytes(const ConfigPush& push) {
  // The epoch and framing, plus a delta's base and target hashes.
  std::size_t bytes = push.replace ? 16 : 40;
  if (push.policy) bytes += policy_section_bytes(*push.policy);
  for (const auto& [name, spec] : push.clusters) {
    bytes += cluster_spec_bytes(spec);
  }
  for (const std::string& name : push.removals) bytes += string_bytes(name);
  return bytes;
}

}  // namespace meshnet::mesh
