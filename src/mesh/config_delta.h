#pragma once

// The config push (xDS-style, MESHSCALE, DESIGN.md §13): one type for
// both shapes the control plane sends.
//
//   * A replace carries the whole config: the sidecar's policy
//     (mesh/sidecar.h SidecarPolicy: the policy section, service name and
//     cert) and every cluster. The sidecar drops whatever it runs that
//     the push does not hold.
//   * A delta carries only what changed since the sidecar's last *acked*
//     config: new or changed clusters (compared by hash_cluster_spec),
//     removed cluster names, and the policy only when its fingerprint
//     changed. At N services a replace is O(N) bytes per sidecar per
//     endpoint flap, O(N^2) mesh-wide; a delta is O(changed).
//
// The control plane diffs shared specs, not copies: it compiles each
// cluster once per epoch into an immutable ClusterSpecRef (mesh/sidecar.h)
// held by the epoch's cluster table, reusing last epoch's object when the
// content is unchanged. A CompiledConfig walks that table; the control
// plane keeps what each sidecar acked as an AckedConfig, so a push is a
// merge walk that compares pointers and carries refs to the changed specs
// (a replace is the walk against no base).
//
// Safety over cleverness: every push names the exact result it must
// produce (target_hash), and a delta also the exact base it diffs against
// (base_hash). The sidecar checks base_hash against the fingerprint of its
// running config, checks target_hash against a fingerprint it computes
// itself from the content it received (each pushed spec hashed by its own
// constructor), and validates the pushed parts before changing its config
// — so delta and replace converge to identical fingerprints by
// construction. A delta's mismatch nacks ("delta-base-mismatch" /
// "delta-target-mismatch") and the control plane falls back to a replace
// for that sidecar; a replace that fails a check is nacked like a poison
// config, so a bad replace cannot loop.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mesh/sidecar.h"

namespace meshnet::mesh {

struct ConfigPush {
  std::uint64_t epoch = 0;
  /// Fingerprint of the config a delta applies on top of (the sidecar's
  /// running config; the control plane tracks it per ack). A replace
  /// has no base: 0, never checked.
  std::uint64_t base_hash = 0;
  /// Fingerprint the resulting config must have.
  std::uint64_t target_hash = 0;
  /// The push holds the whole config: `clusters` is every cluster and
  /// `removals` is empty.
  bool replace = false;

  /// Always set for a replace; a delta carries it when it changed. It
  /// replaces the running one wholesale.
  std::optional<SidecarPolicy> policy;

  /// The pushed clusters in name order: a replace's every one, a delta's
  /// new and changed ones.
  ClusterMap clusters;
  /// The clusters a delta drops, by name.
  std::vector<std::string> removals;
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
};

/// What the control plane knows a sidecar runs: the config it last acked.
/// Started by an acked replace and patched in place by every acked delta,
/// so no per-sidecar container is rebuilt per compile.
struct AckedConfig {
  ConfigFingerprint fingerprint;
  ClusterMap clusters;

  /// Applies an acked push, whose resulting fingerprint is `target`; a
  /// replace's clusters are moved out of `push`.
  void apply(ConfigPush& push, const ConfigFingerprint& target);
};

/// Diffs `target` against the acked config `base` with a merge walk over
/// their name-ordered clusters; a cluster whose spec object is unchanged
/// costs a pointer compare, and only changed clusters are carried (by
/// reference). No base (nullptr) makes a replace: the walk against an
/// empty config, with the policy. epoch/target_hash are taken from
/// `target`; base_hash from `base`.
ConfigPush make_config_push(const AckedConfig* base,
                            const CompiledConfig& target);

/// Modeled wire size of a push, in bytes. Not a serialization — a stable
/// cost model (string bytes + fixed per-field costs) so the MESHSCALE
/// experiment can compare transfer volume deterministically across hosts.
std::size_t estimate_push_bytes(const ConfigPush& push);

}  // namespace meshnet::mesh
