#include "core/sdn_coordinator.h"

#include "cluster/cluster.h"
#include "core/tc_manager.h"

namespace meshnet::core {

void SdnCoordinator::advertise(const net::FlowKey& flow,
                               mesh::TrafficClass traffic_class) {
  flows_[flow] = traffic_class;
  ++advertisements_;
}

mesh::TrafficClass SdnCoordinator::classify(const net::FlowKey& flow) const {
  auto it = flows_.find(flow);
  if (it == flows_.end()) it = flows_.find(flow.reversed());
  return it == flows_.end() ? mesh::TrafficClass::kDefault : it->second;
}

void SdnCoordinator::program_link(net::Link& link) {
  link.set_qdisc(std::make_unique<net::WeightedPrioQdisc>(
      std::vector<double>{kHighShare, 1.0 - kHighShare},
      [this](const net::Packet& p) {
        return classify(p.flow) == mesh::TrafficClass::kLatencySensitive ? 0
                                                                         : 1;
      },
      cluster::kVnicQueueBytes));
}

}  // namespace meshnet::core
