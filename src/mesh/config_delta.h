#pragma once

// Incremental (xDS delta-style) config push (MESHSCALE, DESIGN.md §13).
//
// A full-snapshot push re-transmits every cluster and route to every
// sidecar on every epoch; at N services that is O(N) bytes per sidecar
// per endpoint flap, O(N^2) mesh-wide. A ConfigDelta carries only what
// changed since the sidecar's last *acked* config:
//
//   * per-cluster upserts (new or changed ClusterSpecs, compared by
//     hash_cluster_spec) and removals;
//   * per-route upserts/removals;
//   * the sidecar's policy (mesh/sidecar.h SidecarPolicy: the policy
//     section, service name and cert) as one blob, only when its
//     fingerprint changed.
//
// The control plane diffs fingerprints, not configs: it keeps the
// ConfigFingerprint (mesh/sidecar.h) of each sidecar's acked config and
// compiles the next config as a CompiledConfig whose specs it borrows
// from a cluster table built once per epoch, so a delta costs a walk
// over two name-sorted (name, hash) lists plus copies of the changed
// specs.
//
// Safety over cleverness: a delta names the exact base it diffs against
// (base_hash) and the exact result it must produce (target_hash). The
// sidecar checks base_hash against the fingerprint of its running
// config, checks target_hash against hashes it computes itself over the
// content it received, and validates the changed parts before patching
// its config in place — so delta and full push converge to identical
// fingerprints by construction. Either mismatch nacks
// ("delta-base-mismatch" / "delta-target-mismatch") and the control
// plane falls back to a full push for that sidecar.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
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

  std::map<std::string, ClusterSpec> cluster_upserts;
  std::vector<std::string> cluster_removals;
  std::map<std::string, std::string> route_upserts;
  std::vector<std::string> route_removals;

  bool empty() const noexcept {
    return !policy && cluster_upserts.empty() &&
           cluster_removals.empty() && route_upserts.empty() &&
           route_removals.empty();
  }
};

/// One sidecar's compiled config as the push path holds it: the policy,
/// the fingerprint, and the spec behind each fingerprinted cluster. The
/// specs are borrowed — from the control plane's per-epoch cluster
/// table, or from `owned` — so a CompiledConfig lives only as long as
/// the push that compiled it.
struct CompiledConfig {
  SidecarPolicy policy;
  ConfigFingerprint fingerprint;
  /// specs[i] is the spec fingerprint.clusters[i] was hashed from.
  std::vector<const ClusterSpec*> specs;
  /// Backs `specs` for a config that was built whole (compiled_from).
  std::unique_ptr<const SidecarConfig> owned;

  /// The full config, as a full-snapshot push carries it.
  SidecarConfig materialize() const;
};

/// A whole config as a CompiledConfig, fingerprinted from scratch.
CompiledConfig compiled_from(SidecarConfig config);

/// Diffs `target` against the acked fingerprint `base` with a merge walk
/// over their name-sorted cluster lists, copying only the changed specs.
/// epoch/target_hash are taken from `target`; base_hash from `base`.
ConfigDelta make_config_delta(const ConfigFingerprint& base,
                              const CompiledConfig& target);

/// Modeled wire size of a full-snapshot push / a delta push, in bytes.
/// Not a serialization — a stable cost model (string bytes + fixed
/// per-field costs) so the MESHSCALE experiment can compare transfer
/// volume deterministically across hosts.
std::size_t estimate_config_bytes(const SidecarConfig& config);
std::size_t estimate_delta_bytes(const ConfigDelta& delta);

}  // namespace meshnet::mesh
