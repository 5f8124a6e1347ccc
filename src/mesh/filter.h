#pragma once

// The sidecar's HTTP filter chain (Envoy's extension point, simplified).
//
// Filters see every request the sidecar proxies — inbound (remote sidecar
// -> local app) and outbound (local app -> remote service) — and may
// rewrite headers, assign a traffic class, choose a subset of upstream
// endpoints, or short-circuit with a local response. The cross-layer case
// study (core/) is implemented entirely as filters plugged in here, which
// is the paper's "easier evolvability" argument made concrete.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "http/message.h"
#include "mesh/tracing.h"
#include "sim/time.h"

namespace meshnet::mesh {

/// Mesh-level traffic class. The mesh itself is policy-free about what the
/// classes *mean*; the cross-layer prioritization maps application
/// priority onto them and attaches per-class transport/DSCP policy.
enum class TrafficClass {
  kDefault,
  kLatencySensitive,
  kScavenger,
};

std::string_view traffic_class_name(TrafficClass c) noexcept;

enum class FilterDirection { kInbound, kOutbound };

/// A request's upstream cluster id (ClusterSpecRef::cluster_id) before
/// the sidecar has routed it.
inline constexpr std::uint32_t kNoCluster = UINT32_MAX;

/// The pod ids one request was sent to, as a set: the first kInline stay
/// inside the context, more spill to the heap (a request tries at most
/// max_retries + 1 pods).
class TriedPods {
 public:
  bool empty() const noexcept { return size_ == 0; }
  bool contains(std::uint32_t pod) const noexcept;
  /// Adds `pod` unless it is already in the set.
  void insert(std::uint32_t pod);

 private:
  static constexpr std::size_t kInline = 4;
  std::array<std::uint32_t, kInline> inline_{};
  std::size_t size_ = 0;
  std::vector<std::uint32_t> spilled_;  ///< pods past the first kInline
};

/// Per-request state threaded through the filter chain and the upstream
/// send machinery.
struct RequestContext {
  http::HttpRequest request;
  FilterDirection direction = FilterDirection::kOutbound;
  TrafficClass traffic_class = TrafficClass::kDefault;

  /// Route result: the upstream cluster the Host header named, resolved
  /// to its id once by the sidecar (kNoCluster before routing).
  std::uint32_t cluster_id = kNoCluster;
  /// Subset constraint on endpoint labels (e.g. {"priority","high"}),
  /// typically set by the priority-subset routing filter.
  std::map<std::string, std::string> subset;

  sim::Time start_time = 0;
  int attempt = 0;
  /// Previous retry backoff, threaded for decorrelated jitter.
  sim::Duration prev_backoff = 0;
  /// Pods already attempted for this request; retries prefer endpoints
  /// not in this set (Envoy's previous-hosts retry predicate).
  TriedPods tried_pods;
  Span span;
  bool span_active = false;

  /// The local reply of a filter that stops the chain (kStopIteration).
  std::optional<http::HttpResponse> local_response;

  // --- admission-control state (mesh/admission.h) ---
  /// Ticket for a request parked in the admission queue (kPause).
  std::uint64_t admission_ticket = 0;
  /// True while the request holds an admission concurrency slot; the
  /// admission filter's on_response releases it exactly once.
  bool admission_admitted = false;
  /// Priority class the admission decision was made under (stable even
  /// if a later filter rewrites traffic_class).
  TrafficClass admission_class = TrafficClass::kDefault;
};

enum class FilterStatus {
  kContinue,
  /// Stop the chain and answer with ctx.local_response, which the filter
  /// must set: the sidecar sends it as is and has no response of its own.
  kStopIteration,
  kPause,  ///< Park the request; a continuation resumes it.
};

class HttpFilter {
 public:
  virtual ~HttpFilter() = default;
  virtual std::string name() const = 0;

  /// Runs (in order) before the request is forwarded.
  virtual FilterStatus on_request(RequestContext& ctx) = 0;

  /// Runs (in reverse order) when the response heads back.
  virtual void on_response(RequestContext& ctx,
                           http::HttpResponse& response) {
    (void)ctx;
    (void)response;
  }
};

/// Outcome of running the request half of a chain.
enum class ChainResult {
  kContinue,  ///< every filter continued; forward the request
  kStopped,   ///< a filter stopped; send ctx.local_response
  kPaused,    ///< a filter parked the request (admission queue)
};

class FilterChain {
 public:
  void append(std::shared_ptr<HttpFilter> filter) {
    filters_.push_back(std::move(filter));
  }

  /// Inserts `filter` immediately before the first filter named `name`;
  /// appends when no such filter exists.
  void insert_before(std::string_view name, std::shared_ptr<HttpFilter> filter);

  /// Runs request filters in order until one stops or pauses iteration.
  ChainResult run_request(RequestContext& ctx) const;

  /// Runs response filters in reverse registration order.
  void run_response(RequestContext& ctx, http::HttpResponse& response) const;

  std::size_t size() const noexcept { return filters_.size(); }
  std::vector<std::string> filter_names() const;

 private:
  std::vector<std::shared_ptr<HttpFilter>> filters_;
};

}  // namespace meshnet::mesh
