#pragma once

// Out-of-band coordination with the physical network (design component 3d,
// paper §4.2: "the service mesh supplying knowledge of flow priority to
// the physical network ... out-of-band (an API call into the SDN
// controller)").
//
// Sidecars (via the cross-layer controller) advertise flow -> priority
// mappings to the SdnCoordinator, which stands in for the fabric's SDN
// controller. The coordinator can then program priority scheduling on
// chosen fabric links using a classifier that consults its live flow
// table — prioritization without any in-band packet marking, the
// deployment model of B4/SWAN-style systems the paper cites.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "mesh/filter.h"
#include "net/address.h"
#include "net/link.h"
#include "net/qdisc.h"

namespace meshnet::core {

class SdnCoordinator {
 public:
  /// Advertises (or updates) a flow's traffic class. Typically called by
  /// the cross-layer machinery when an upstream connection is opened.
  void advertise(const net::FlowKey& flow, mesh::TrafficClass traffic_class);

  /// The class advertised for a flow, looked up directionlessly (the
  /// reverse direction of a prioritized flow is prioritized too, since
  /// responses carry the bulk of the bytes).
  mesh::TrafficClass classify(const net::FlowKey& flow) const;

  /// Programs nearly-strict priority scheduling on a fabric link, with
  /// band selection driven by this coordinator's flow table: the high band
  /// gets kHighShare (core/tc_manager.h). Each band holds
  /// cluster::kVnicQueueBytes.
  void program_link(net::Link& link);

  std::size_t advertised_flows() const noexcept { return flows_.size(); }
  std::uint64_t advertisements() const noexcept { return advertisements_; }

 private:
  std::unordered_map<net::FlowKey, mesh::TrafficClass, net::FlowKeyHash>
      flows_;
  std::uint64_t advertisements_ = 0;
};

}  // namespace meshnet::core
