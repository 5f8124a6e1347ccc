#pragma once

// Incremental (xDS delta-style) config push (MESHSCALE, DESIGN.md §13).
//
// A full-snapshot push re-transmits every cluster to every sidecar on
// every epoch; at N services that is O(N) bytes per sidecar
// per endpoint flap, O(N^2) mesh-wide. A ConfigDelta carries only what
// changed since the sidecar's last *acked* config:
//
//   * per-cluster upserts (new or changed clusters, compared by
//     hash_cluster_spec) and removals;
//   * the sidecar's policy (mesh/sidecar.h SidecarPolicy: the policy
//     section, service name and cert) as one blob, only when its
//     fingerprint changed.
//
// The control plane diffs shared specs, not copies: it compiles each
// cluster once per epoch into an immutable ClusterSpecRef (mesh/sidecar.h)
// held by the epoch's cluster table, reusing last epoch's object when the
// content is unchanged. A CompiledConfig walks that table; the control
// plane keeps what each sidecar acked as an AckedConfig, so a delta is a
// merge walk that compares pointers and carries refs to the changed specs.
//
// Safety over cleverness: a delta names the exact base it diffs against
// (base_hash) and the exact result it must produce (target_hash). The
// sidecar checks base_hash against the fingerprint of its running
// config, checks target_hash against a fingerprint it patches itself
// from the content it received (each upserted spec hashed by its own
// constructor), and validates the changed parts before patching its
// config in place — so delta and full push converge to identical
// fingerprints by construction. Either mismatch nacks
// ("delta-base-mismatch" / "delta-target-mismatch") and the control
// plane falls back to a full push for that sidecar.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mesh/sidecar.h"

namespace meshnet::mesh {

struct ConfigDelta {
  std::uint64_t epoch = 0;
  /// Fingerprint of the config this delta applies on top of (the
  /// sidecar's running config; the control plane tracks it per ack).
  std::uint64_t base_hash = 0;
  /// Fingerprint the patched config must have.
  std::uint64_t target_hash = 0;

  /// Set when the policy changed; it replaces the running one wholesale.
  std::optional<SidecarPolicy> policy;

  /// By name; the sidecar refuses an upsert whose key is not its spec's
  /// name.
  std::map<std::string, ClusterSpecRef> cluster_upserts;
  std::vector<std::string> cluster_removals;

  bool empty() const noexcept {
    return !policy && cluster_upserts.empty() && cluster_removals.empty();
  }
};

/// One registry service compiled for an epoch: the spec every subscriber
/// gets, and the narrower ones endpoint subsetting assigns.
struct EpochCluster {
  ClusterSpecRef full;
  /// The subscribers whose endpoint subset is narrower than the full set,
  /// by pod name (empty unless policies.subset applies).
  std::map<std::string, ClusterSpecRef, std::less<>> narrowed;
};

/// One sidecar's compiled config as the push path holds it: the policy,
/// the fingerprint, and its clusters as a walk over the epoch's cluster
/// table, so compiling builds no per-sidecar container. It borrows the
/// table, so it lives only as long as the push that compiled it.
struct CompiledConfig {
  /// The control plane's compiled policy of this sidecar's service,
  /// shared by every compile until the mesh policy, the service's mTLS
  /// resolution or its certificate changes. Its epoch is not this
  /// compile's: that is `epoch`.
  const SidecarPolicy* policy = nullptr;
  std::uint64_t epoch = 0;
  ConfigFingerprint fingerprint;
  /// The table entries this config holds: every one, or the ascending
  /// indices in `scope` (the sidecar's cluster scope).
  const std::vector<EpochCluster>* table = nullptr;
  const std::vector<std::size_t>* scope = nullptr;
  /// Picks this pod's narrowed specs.
  std::string_view pod;

  /// Calls fn(spec, narrowed) for every cluster, in name order.
  template <class Fn>
  void for_each_cluster(Fn&& fn) const {
    const auto visit = [&](const EpochCluster& entry) {
      if (!entry.narrowed.empty()) {
        const auto it = entry.narrowed.find(pod);
        if (it != entry.narrowed.end()) {
          fn(it->second, true);
          return;
        }
      }
      fn(entry.full, false);
    };
    if (scope == nullptr) {
      for (const EpochCluster& entry : *table) visit(entry);
    } else {
      for (const std::size_t index : *scope) visit((*table)[index]);
    }
  }

  /// The full config, as a full-snapshot push carries it.
  SidecarConfig materialize() const;
};

/// What the control plane knows a sidecar runs: the config it last acked.
/// Built from a full push and patched in place by every acked delta, so
/// no per-sidecar container is rebuilt per compile.
struct AckedConfig {
  ConfigFingerprint fingerprint;
  ClusterMap clusters;

  /// Applies an acked delta, whose patched fingerprint is `target`.
  void apply(const ConfigDelta& delta, const ConfigFingerprint& target);
};

/// Diffs `target` against the acked config `base` with a merge walk over
/// their name-ordered clusters; a cluster whose spec object is unchanged
/// costs a pointer compare, and only changed clusters are carried (by
/// reference). epoch/target_hash are taken from `target`; base_hash from
/// `base`.
ConfigDelta make_config_delta(const AckedConfig& base,
                              const CompiledConfig& target);

/// Modeled wire size of a full-snapshot push / a delta push, in bytes.
/// Not a serialization — a stable cost model (string bytes + fixed
/// per-field costs) so the MESHSCALE experiment can compare transfer
/// volume deterministically across hosts.
std::size_t estimate_config_bytes(const SidecarConfig& config);
std::size_t estimate_delta_bytes(const ConfigDelta& delta);

}  // namespace meshnet::mesh
