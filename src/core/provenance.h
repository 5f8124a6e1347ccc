#pragma once

// Provenance propagation (design component 2, paper §4.2-4.3): carry each
// request's performance objective through the entire system.
//
// The mechanism is exactly the paper's: the sidecar knows which outgoing
// requests were caused by which incoming ones because the application
// propagates the same global x-request-id (already required for
// distributed tracing). The ProvenanceFilter therefore:
//
//  * inbound:  if the request carries x-mesh-priority, records
//              request-id -> priority in the pod-local ProvenanceTable
//              and assigns the matching traffic class;
//  * outbound: if a sub-request carries the same x-request-id but no
//              priority header (apps are unmodified!), it looks the id up
//              and stamps the inherited priority onto the sub-request.
//
// Entries expire after a TTL so the table stays bounded under load.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/priority.h"
#include "mesh/filter.h"
#include "sim/simulator.h"

namespace meshnet::core {

class ProvenanceTable {
 public:
  explicit ProvenanceTable(sim::Simulator& sim,
                           sim::Duration ttl = sim::seconds(60));

  void record(std::string_view request_id, mesh::TrafficClass priority);
  std::optional<mesh::TrafficClass> lookup(std::string_view request_id);

  std::size_t size() const noexcept { return entries_.size(); }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

 private:
  struct Entry {
    mesh::TrafficClass priority;
    sim::Time expires_at;
  };
  void maybe_sweep();

  sim::Simulator& sim_;
  sim::Duration ttl_;
  /// Looked up by the request's header view, with no key copy.
  struct IdHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view id) const noexcept {
      return std::hash<std::string_view>{}(id);
    }
  };
  std::unordered_map<std::string, Entry, IdHash, std::equal_to<>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  sim::Time last_sweep_ = 0;
};

class ProvenanceFilter final : public mesh::HttpFilter {
 public:
  explicit ProvenanceFilter(std::shared_ptr<ProvenanceTable> table);

  std::string name() const override { return "provenance"; }
  mesh::FilterStatus on_request(mesh::RequestContext& ctx) override;
  void on_response(mesh::RequestContext& ctx,
                   http::HttpResponse& response) override;

  const ProvenanceTable& table() const noexcept { return *table_; }

 private:
  std::shared_ptr<ProvenanceTable> table_;
};

}  // namespace meshnet::core
