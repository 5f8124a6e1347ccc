#pragma once

// TC rule management (design component 3c / prototype step 3, paper §4.3):
// "we set Linux TC rules that direct packets matching the pod's IP address
// to be given nearly-strict prioritization (up to 95% of bandwidth) in the
// kernel's outgoing packet queue on the sidecar container's virtual
// interface."
//
// TcManager is the programmatic `tc`: it installs queueing disciplines on
// pod vNIC links and keeps an inspectable rule inventory
// (the `tc qdisc show` equivalent). Supported matchers mirror the
// prototype (destination pod IP) plus the DSCP matcher used for in-band
// signalling to the physical network.

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "net/qdisc.h"

namespace meshnet::core {

/// The high band's share of a weighted priority qdisc: the prototype's
/// "up to 95% of bandwidth". The low band gets the rest.
inline constexpr double kHighShare = 0.95;

enum class TcMatch {
  kDstIp,  ///< high band when packet dst == a high-priority pod IP
  kDscp,   ///< high band when packet carries DSCP EF
};

struct TcRule {
  std::string pod_name;   ///< whose egress vNIC the qdisc sits on
  TcMatch match = TcMatch::kDstIp;
  std::vector<net::IpAddress> high_priority_ips;  ///< for kDstIp
  bool strict = false;  ///< pure strict priority instead of 95/5 DRR
};

class TcManager {
 public:
  explicit TcManager(cluster::Cluster& cluster);

  /// Installs a weighted (or strict) priority qdisc per the rule on the
  /// pod's egress vNIC, each band holding cluster::kVnicQueueBytes.
  /// Replaces any prior qdisc (backlog is dropped, as with real `tc qdisc
  /// replace`). Returns false if the pod is unknown.
  bool install(TcRule rule);

  /// Installs the same rule on every pod in the cluster (the prototype
  /// applies its rules uniformly to all sidecar interfaces).
  void install_on_all_pods(TcRule rule_template);

  const std::vector<TcRule>& rules() const noexcept { return rules_; }

  /// Renders the rule inventory like `tc qdisc show`.
  std::string show() const;

 private:
  net::Classifier make_classifier(const TcRule& rule) const;

  cluster::Cluster& cluster_;
  std::vector<TcRule> rules_;
};

}  // namespace meshnet::core
