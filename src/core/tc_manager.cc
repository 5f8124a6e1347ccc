#include "core/tc_manager.h"

#include <algorithm>
#include <sstream>

namespace meshnet::core {

TcManager::TcManager(cluster::Cluster& cluster) : cluster_(cluster) {}

net::Classifier TcManager::make_classifier(const TcRule& rule) const {
  if (rule.match == TcMatch::kDscp) {
    return net::classify_by_dscp();
  }
  std::vector<net::IpAddress> ips = rule.high_priority_ips;
  return [ips = std::move(ips)](const net::Packet& p) {
    return std::find(ips.begin(), ips.end(), p.flow.dst_ip) != ips.end() ? 0
                                                                         : 1;
  };
}

bool TcManager::install(TcRule rule) {
  cluster::Pod* pod = cluster_.find_pod(rule.pod_name);
  if (pod == nullptr) return false;
  std::unique_ptr<net::Qdisc> qdisc;
  if (rule.strict) {
    qdisc = std::make_unique<net::StrictPrioQdisc>(
        2, make_classifier(rule), cluster::kVnicQueueBytes);
  } else {
    qdisc = std::make_unique<net::WeightedPrioQdisc>(
        std::vector<double>{kHighShare, 1.0 - kHighShare},
        make_classifier(rule), cluster::kVnicQueueBytes);
  }
  pod->egress_link().set_qdisc(std::move(qdisc));
  // Replace any existing rule for this pod in the inventory.
  rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                              [&](const TcRule& r) {
                                return r.pod_name == rule.pod_name;
                              }),
               rules_.end());
  rules_.push_back(std::move(rule));
  return true;
}

void TcManager::install_on_all_pods(TcRule rule_template) {
  for (const auto& pod : cluster_.pods()) {
    TcRule rule = rule_template;
    rule.pod_name = pod->name();
    install(std::move(rule));
  }
}

std::string TcManager::show() const {
  std::ostringstream out;
  for (const TcRule& rule : rules_) {
    out << "qdisc " << (rule.strict ? "prio" : "drr") << " dev vnic:"
        << rule.pod_name << ":egress";
    if (!rule.strict) {
      out << " shares " << kHighShare << "/" << (1.0 - kHighShare);
    }
    if (rule.match == TcMatch::kDscp) {
      out << " filter dscp ef -> band 0";
    } else {
      out << " filter dst in {";
      for (std::size_t i = 0; i < rule.high_priority_ips.size(); ++i) {
        if (i > 0) out << ",";
        out << net::ip_to_string(rule.high_priority_ips[i]);
      }
      out << "} -> band 0";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace meshnet::core
