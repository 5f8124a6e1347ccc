// Tests for the mesh data plane (sidecar, pools, balancers, breakers) and
// control plane (config push, discovery, certificates, telemetry).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "app/microservice.h"
#include "mesh/builtin_filters.h"
#include "mesh/circuit_breaker.h"
#include "mesh/control_plane.h"
#include "mesh/filter.h"
#include "mesh/http_client.h"
#include "mesh/load_balancer.h"
#include "mesh/sidecar.h"
#include "mesh/telemetry.h"
#include "mesh/tracing.h"
#include "sim/simulator.h"

namespace meshnet::mesh {
namespace {

// ---------------------------------------------------------- tracing --

TEST(Tracing, RootSpanGetsFreshTraceId) {
  Tracer tracer;
  const Span span = tracer.start_span("svc", "op", TraceContext{}, 100);
  EXPECT_NE(span.trace_id, 0u);
  EXPECT_EQ(span.parent_span_id, 0u);
  EXPECT_EQ(span.start, 100);
}

TEST(Tracing, ChildInheritsTraceId) {
  Tracer tracer;
  const Span parent = tracer.start_span("a", "op", TraceContext{}, 0);
  TraceContext ctx{parent.trace_id, parent.span_id};
  const Span child = tracer.start_span("b", "op", ctx, 1);
  EXPECT_EQ(child.trace_id, parent.trace_id);
  EXPECT_EQ(child.parent_span_id, parent.span_id);
  EXPECT_NE(child.span_id, parent.span_id);
}

TEST(Tracing, ContextHeaderRoundTrip) {
  TraceContext ctx{1, 0x9abcdef012345678};
  http::HeaderMap headers;
  ctx.inject(headers, 8);
  // Integer ids are formatted only on the wire, in the tracer's format.
  EXPECT_EQ(headers.get_or(http::headers::kTraceId, ""),
            "trace-0000000000000001");
  EXPECT_EQ(headers.get_or(http::headers::kSpanId, ""),
            "span-9abcdef012345678");
  EXPECT_EQ(headers.get_or(http::headers::kParentSpanId, ""),
            "span-0000000000000008");
  const TraceContext out = TraceContext::extract(headers);
  EXPECT_EQ(out.trace_id, 1u);
  EXPECT_EQ(out.span_id, 0x9abcdef012345678u);
  EXPECT_EQ(format_trace_id(out.trace_id), "trace-0000000000000001");

  // A root span injects no parent; ids not in the tracer's format read
  // as none, so a foreign trace id starts a new trace.
  http::HeaderMap root;
  TraceContext{2, 3}.inject(root, 0);
  EXPECT_FALSE(root.has(http::headers::kParentSpanId));
  for (const char* foreign : {"trace-1", "trace-000000000000000g",
                              "TRACE-0000000000000001", "span-0000000000000001",
                              "trace-00000000000000011"}) {
    http::HeaderMap in;
    in.set(http::headers::kTraceId, foreign);
    EXPECT_FALSE(TraceContext::extract(in).valid()) << foreign;
  }
  EXPECT_FALSE(TraceContext::extract(http::HeaderMap{}).valid());
}

TEST(Tracing, FinishRecordsAndFiltersByTrace) {
  Tracer tracer;
  Span a = tracer.start_span("s", "op-a", TraceContext{}, 0);
  const std::uint64_t trace_id = a.trace_id;
  Span b = tracer.start_span("s", "op-b",
                             TraceContext{a.trace_id, a.span_id}, 5);
  tracer.finish_span(std::move(b), 10);
  tracer.finish_span(std::move(a), 20);
  Span other = tracer.start_span("s", "op-c", TraceContext{}, 0);
  tracer.finish_span(std::move(other), 1);
  EXPECT_EQ(tracer.span_count(), 3u);
  const auto spans = tracer.trace(trace_id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0]->operation, "op-a");  // sorted by start
  EXPECT_EQ(spans[1]->operation, "op-b");
}

TEST(Tracing, RetentionBoundsMemory) {
  Tracer tracer;
  tracer.set_retention(10);
  for (int i = 0; i < 50; ++i) {
    tracer.finish_span(tracer.start_span("s", "op", TraceContext{}, i), i);
  }
  EXPECT_EQ(tracer.span_count(), 10u);
  tracer.set_retention(0);
  tracer.finish_span(tracer.start_span("s", "op", TraceContext{}, 0), 0);
  EXPECT_EQ(tracer.span_count(), 10u);  // collection disabled
}

// ------------------------------------------------------ filter chain --

class RecordingFilter : public HttpFilter {
 public:
  RecordingFilter(std::string tag, std::vector<std::string>* log,
                  FilterStatus status = FilterStatus::kContinue)
      : tag_(std::move(tag)), log_(log), status_(status) {}
  std::string name() const override { return tag_; }
  FilterStatus on_request(RequestContext&) override {
    log_->push_back("req:" + tag_);
    return status_;
  }
  void on_response(RequestContext&, http::HttpResponse&) override {
    log_->push_back("resp:" + tag_);
  }

 private:
  std::string tag_;
  std::vector<std::string>* log_;
  FilterStatus status_;
};

TEST(FilterChain, RequestOrderAndResponseReversed) {
  std::vector<std::string> log;
  FilterChain chain;
  chain.append(std::make_shared<RecordingFilter>("a", &log));
  chain.append(std::make_shared<RecordingFilter>("b", &log));
  RequestContext ctx;
  EXPECT_EQ(chain.run_request(ctx), ChainResult::kContinue);
  http::HttpResponse response;
  chain.run_response(ctx, response);
  EXPECT_EQ(log, (std::vector<std::string>{"req:a", "req:b", "resp:b",
                                           "resp:a"}));
}

TEST(FilterChain, StopIterationShortCircuits) {
  std::vector<std::string> log;
  FilterChain chain;
  chain.append(std::make_shared<RecordingFilter>(
      "gate", &log, FilterStatus::kStopIteration));
  chain.append(std::make_shared<RecordingFilter>("never", &log));
  RequestContext ctx;
  EXPECT_EQ(chain.run_request(ctx), ChainResult::kStopped);
  EXPECT_EQ(log, std::vector<std::string>{"req:gate"});
}

TEST(FilterChain, Names) {
  FilterChain chain;
  std::vector<std::string> log;
  chain.append(std::make_shared<RecordingFilter>("x", &log));
  EXPECT_EQ(chain.filter_names(), std::vector<std::string>{"x"});
  EXPECT_EQ(chain.size(), 1u);
}

TEST(TrafficClassNames, AllNamed) {
  EXPECT_EQ(traffic_class_name(TrafficClass::kDefault), "default");
  EXPECT_EQ(traffic_class_name(TrafficClass::kLatencySensitive),
            "latency-sensitive");
  EXPECT_EQ(traffic_class_name(TrafficClass::kScavenger), "scavenger");
}

// ---------------------------------------------------- load balancers --

std::vector<cluster::Endpoint> three_endpoints() {
  return {{"p1", 1, 80, {{"weight", "1"}}},
          {"p2", 2, 80, {{"weight", "2"}}},
          {"p3", 3, 80, {{"weight", "7"}}}};
}

std::vector<const cluster::Endpoint*> pointers(
    const std::vector<cluster::Endpoint>& endpoints) {
  std::vector<const cluster::Endpoint*> out;
  for (const auto& ep : endpoints) out.push_back(&ep);
  return out;
}

TEST(LoadBalancer, RoundRobinCycles) {
  const auto endpoints = three_endpoints();
  RoundRobinBalancer lb;
  LbContext ctx;
  const auto c = pointers(endpoints);
  EXPECT_EQ(lb.pick(c, ctx)->pod_name, "p1");
  EXPECT_EQ(lb.pick(c, ctx)->pod_name, "p2");
  EXPECT_EQ(lb.pick(c, ctx)->pod_name, "p3");
  EXPECT_EQ(lb.pick(c, ctx)->pod_name, "p1");
}

TEST(LoadBalancer, EmptyCandidatesYieldNull) {
  RoundRobinBalancer rr;
  RandomBalancer random(1);
  LeastRequestBalancer least(1);
  WeightedRoundRobinBalancer wrr;
  LbContext ctx;
  const std::vector<const cluster::Endpoint*> empty;
  EXPECT_EQ(rr.pick(empty, ctx), nullptr);
  EXPECT_EQ(random.pick(empty, ctx), nullptr);
  EXPECT_EQ(least.pick(empty, ctx), nullptr);
  EXPECT_EQ(wrr.pick(empty, ctx), nullptr);
}

TEST(LoadBalancer, RandomCoversAllEndpoints) {
  const auto endpoints = three_endpoints();
  RandomBalancer lb(7);
  LbContext ctx;
  const auto c = pointers(endpoints);
  std::map<std::string, int> counts;
  for (int i = 0; i < 3000; ++i) ++counts[lb.pick(c, ctx)->pod_name];
  for (const auto& [name, count] : counts) {
    EXPECT_NEAR(count, 1000, 150) << name;
  }
}

TEST(LoadBalancer, LeastRequestPrefersIdle) {
  const auto endpoints = three_endpoints();
  LeastRequestBalancer lb(7);
  LbContext ctx;
  ctx.active_requests = [](const cluster::Endpoint& ep) -> std::uint64_t {
    return ep.pod_name == "p2" ? 0 : 100;  // p2 is idle
  };
  const auto c = pointers(endpoints);
  int p2 = 0;
  for (int i = 0; i < 1000; ++i) {
    if (lb.pick(c, ctx)->pod_name == "p2") ++p2;
  }
  // Power-of-two-choices picks the idle endpoint whenever sampled (~2/3
  // of rounds with 3 candidates).
  EXPECT_GT(p2, 500);
}

TEST(LoadBalancer, WeightedRoundRobinMatchesWeights) {
  const auto endpoints = three_endpoints();  // weights 1,2,7
  WeightedRoundRobinBalancer lb;
  LbContext ctx;
  const auto c = pointers(endpoints);
  std::map<std::string, int> counts;
  for (int i = 0; i < 1000; ++i) ++counts[lb.pick(c, ctx)->pod_name];
  EXPECT_EQ(counts["p1"], 100);
  EXPECT_EQ(counts["p2"], 200);
  EXPECT_EQ(counts["p3"], 700);
}

TEST(LoadBalancer, WrrSmoothness) {
  // With weights 1:1, WRR must alternate, never burst.
  std::vector<cluster::Endpoint> endpoints = {{"a", 1, 80, {}},
                                              {"b", 2, 80, {}}};
  WeightedRoundRobinBalancer lb;
  LbContext ctx;
  const auto c = pointers(endpoints);
  std::string last;
  for (int i = 0; i < 10; ++i) {
    const std::string now = lb.pick(c, ctx)->pod_name;
    if (!last.empty()) {
      EXPECT_NE(now, last);
    }
    last = now;
  }
}

TEST(LoadBalancer, FactoryNames) {
  EXPECT_EQ(make_balancer(LbPolicy::kRoundRobin, 1)->name(), "round-robin");
  EXPECT_EQ(make_balancer(LbPolicy::kRandom, 1)->name(), "random");
  EXPECT_EQ(make_balancer(LbPolicy::kLeastRequest, 1)->name(),
            "least-request");
  EXPECT_EQ(make_balancer(LbPolicy::kWeightedRoundRobin, 1)->name(),
            "weighted-round-robin");
  EXPECT_EQ(lb_policy_name(LbPolicy::kLeastRequest), "least-request");
}

// A sidecar restarts its balancers in place after every applied push:
// reset() must leave each policy exactly as make_balancer built it.
TEST(LoadBalancer, ResetRestartsAsFreshlyBuilt) {
  const auto endpoints = three_endpoints();
  const auto c = pointers(endpoints);
  LbContext ctx;
  ctx.active_requests = [](const cluster::Endpoint& ep) -> std::uint64_t {
    return ep.ip;
  };
  const auto picks = [&](LoadBalancer& lb) {
    std::vector<std::string> out;
    for (int i = 0; i < 20; ++i) out.push_back(lb.pick(c, ctx)->pod_name);
    return out;
  };
  for (const LbPolicy policy :
       {LbPolicy::kRoundRobin, LbPolicy::kRandom, LbPolicy::kLeastRequest,
        LbPolicy::kWeightedRoundRobin}) {
    const auto fresh = make_balancer(policy, 11);
    const std::vector<std::string> first = picks(*fresh);
    const auto used = make_balancer(policy, 11);
    for (int i = 0; i < 7; ++i) used->pick(c, ctx);
    used->reset();
    EXPECT_EQ(picks(*used), first) << lb_policy_name(policy);
  }
}

// --------------------------------------------------- circuit breaker --

TEST(CircuitBreaker, OpensAfterConsecutiveFailures) {
  CircuitBreaker cb({3, sim::milliseconds(100)});
  EXPECT_TRUE(cb.allow_request(0));
  cb.on_failure(0);
  cb.on_failure(0);
  EXPECT_EQ(cb.state(), CircuitState::kClosed);
  cb.on_failure(0);
  EXPECT_EQ(cb.state(), CircuitState::kOpen);
  EXPECT_FALSE(cb.allow_request(1));
  EXPECT_EQ(cb.times_opened(), 1u);
}

TEST(CircuitBreaker, SuccessResetsFailureCount) {
  CircuitBreaker cb({3, sim::milliseconds(100)});
  cb.on_failure(0);
  cb.on_failure(0);
  cb.on_success(0);
  cb.on_failure(0);
  cb.on_failure(0);
  EXPECT_EQ(cb.state(), CircuitState::kClosed);
}

TEST(CircuitBreaker, HalfOpenAdmitsLimitedProbes) {
  CircuitBreaker cb({1, sim::milliseconds(100)});
  cb.on_failure(0);
  EXPECT_EQ(cb.state(), CircuitState::kOpen);
  EXPECT_FALSE(cb.allow_request(50));
  EXPECT_TRUE(cb.allow_request(sim::milliseconds(100)));  // the probe
  EXPECT_EQ(cb.state(), CircuitState::kHalfOpen);
  EXPECT_FALSE(cb.allow_request(sim::milliseconds(100)));
}

TEST(CircuitBreaker, ProbeSuccessCloses) {
  CircuitBreaker cb({1, sim::milliseconds(100)});
  cb.on_failure(0);
  EXPECT_TRUE(cb.allow_request(sim::milliseconds(200)));
  cb.on_success(sim::milliseconds(201));
  EXPECT_EQ(cb.state(), CircuitState::kClosed);
  EXPECT_TRUE(cb.allow_request(sim::milliseconds(202)));
}

TEST(CircuitBreaker, ProbeFailureReopens) {
  CircuitBreaker cb({1, sim::milliseconds(100)});
  cb.on_failure(0);
  EXPECT_TRUE(cb.allow_request(sim::milliseconds(200)));
  cb.on_failure(sim::milliseconds(201));
  EXPECT_EQ(cb.state(), CircuitState::kOpen);
  EXPECT_FALSE(cb.allow_request(sim::milliseconds(250)));
  EXPECT_EQ(cb.times_opened(), 2u);
}

TEST(CircuitBreaker, ZeroThresholdDisables) {
  CircuitBreaker cb({0, sim::milliseconds(100)});
  for (int i = 0; i < 100; ++i) cb.on_failure(i);
  EXPECT_TRUE(cb.allow_request(1000));
  EXPECT_EQ(cb.state(), CircuitState::kClosed);
}

TEST(CircuitBreaker, StateNames) {
  EXPECT_EQ(circuit_state_name(CircuitState::kClosed), "closed");
  EXPECT_EQ(circuit_state_name(CircuitState::kOpen), "open");
  EXPECT_EQ(circuit_state_name(CircuitState::kHalfOpen), "half-open");
}

// -------------------------------------------------------- telemetry --

RequestSample sample_of(std::string source, std::string upstream, int status,
                        sim::Duration latency, int retries,
                        TrafficClass priority = TrafficClass::kDefault) {
  RequestSample sample;
  sample.source = std::move(source);
  sample.upstream = std::move(upstream);
  sample.status = status;
  sample.latency = latency;
  sample.retries = retries;
  sample.priority = priority;
  return sample;
}

TEST(Telemetry, AggregatesPerEdge) {
  TelemetrySink sink;
  sink.record_request(sample_of("a", "b", 200, sim::milliseconds(5), 0));
  sink.record_request(sample_of("a", "b", 503, sim::milliseconds(9), 2));
  sink.record_request(sample_of("a", "c", 200, sim::milliseconds(1), 0));
  const auto ab = sink.edge("a", "b");
  ASSERT_TRUE(ab.has_value());
  EXPECT_EQ(ab->requests, 2u);
  EXPECT_EQ(ab->failures, 1u);
  EXPECT_EQ(ab->retries, 2u);
  EXPECT_EQ(ab->latency.count(), 2u);
  EXPECT_EQ(sink.total_requests(), 3u);
  EXPECT_EQ(sink.total_failures(), 1u);
  EXPECT_EQ(sink.edges().size(), 2u);
  EXPECT_FALSE(sink.edge("x", "y").has_value());
}

TEST(Telemetry, TransportErrorsCountAsFailures) {
  TelemetrySink sink;
  sink.record_request(sample_of("a", "b", 0, 0, 0));  // 0 = no response
  EXPECT_EQ(sink.edge("a", "b")->failures, 1u);
}

TEST(Telemetry, LatencyLabelledByPriorityClass) {
  TelemetrySink sink;
  RequestSample sample = sample_of("a", "b", 200, sim::milliseconds(2), 0,
                                  TrafficClass::kLatencySensitive);
  sink.record_request(sample);
  sample.priority = TrafficClass::kScavenger;
  sink.record_request(sample);
  // The per-class series are distinct; edge() merges them back.
  const obs::MetricsSnapshot snap = sink.registry().snapshot();
  EXPECT_NE(snap.find("mesh_request_latency_ns",
                      {{"source", "a"},
                       {"upstream", "b"},
                       {"class", "latency-sensitive"}}),
            nullptr);
  EXPECT_NE(snap.find("mesh_request_latency_ns",
                      {{"source", "a"},
                       {"upstream", "b"},
                       {"class", "scavenger"}}),
            nullptr);
  EXPECT_EQ(sink.edge("a", "b")->latency.count(), 2u);
}

// ---------------------------------------------- meshed test fixture --

class MeshFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    http::reset_request_id_counter();
    cluster_ = std::make_unique<cluster::Cluster>(sim_);
    cluster_->add_node("n1");
  }

  /// Builds client pod (meshed), N server replicas, control plane, apps.
  void build(int replicas = 1, MeshPolicies policies = {},
             std::function<app::HandlerResult(const http::HttpRequest&,
                                              int replica)>
                 behavior = nullptr) {
    client_pod_ = &cluster_->add_pod("n1", "client", "client", 0);
    for (int i = 1; i <= replicas; ++i) {
      server_pods_.push_back(&cluster_->add_pod(
          "n1", "server-v" + std::to_string(i), "server", 8080));
    }
    control_plane_ =
        std::make_unique<ControlPlane>(sim_, *cluster_, std::move(policies));
    client_sidecar_ = &control_plane_->inject_sidecar(*client_pod_, {});
    for (auto* pod : server_pods_) {
      server_sidecars_.push_back(&control_plane_->inject_sidecar(*pod, {}));
    }
    control_plane_->start();
    for (std::size_t i = 0; i < server_pods_.size(); ++i) {
      const int replica = static_cast<int>(i) + 1;
      apps_.push_back(std::make_unique<app::Microservice>(
          sim_, *server_pods_[i],
          [behavior, replica](const http::HttpRequest& request) {
            if (behavior) return behavior(request, replica);
            app::HandlerResult plan;
            plan.response_bytes = 64;
            return plan;
          }));
    }
    HttpClientPool::Options options;
    options.max_connections = 64;
    client_ = std::make_unique<HttpClientPool>(
        sim_, client_pod_->transport(),
        net::SocketAddress{client_pod_->ip(), 15001}, options);
  }

  /// Sends one GET via the mesh and runs until it completes.
  std::optional<http::HttpResponse> get(const std::string& host,
                                        const std::string& path,
                                        sim::Duration timeout = sim::seconds(20)) {
    http::HttpRequest request;
    request.path = path;
    request.headers.set(http::headers::kHost, host);
    std::optional<http::HttpResponse> result;
    bool done = false;
    client_->request(std::move(request),
                     [&](std::optional<http::HttpResponse> response,
                         const std::string&) {
                       result = std::move(response);
                       done = true;
                     });
    const sim::Time deadline = sim_.now() + timeout;
    while (!done && sim_.now() < deadline) {
      sim_.run_until(sim_.now() + sim::milliseconds(10));
    }
    return result;
  }

  sim::Simulator sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<ControlPlane> control_plane_;
  cluster::Pod* client_pod_ = nullptr;
  std::vector<cluster::Pod*> server_pods_;
  Sidecar* client_sidecar_ = nullptr;
  std::vector<Sidecar*> server_sidecars_;
  std::vector<std::unique_ptr<app::Microservice>> apps_;
  std::unique_ptr<HttpClientPool> client_;
};

TEST_F(MeshFixture, EndToEndRequestThroughMesh) {
  build();
  const auto response = get("server", "/hello");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body.size(), 64u);
  EXPECT_EQ(client_sidecar_->stats().outbound_requests, 1u);
  EXPECT_EQ(server_sidecars_[0]->stats().inbound_requests, 1u);
}

TEST_F(MeshFixture, UnknownHostGets404) {
  build();
  const auto response = get("ghost-service", "/x");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 404);
}

TEST_F(MeshFixture, TracingProducesLinkedSpans) {
  build();
  ASSERT_TRUE(get("server", "/traced").has_value());
  const auto& spans = control_plane_->tracer().spans();
  ASSERT_EQ(spans.size(), 2u);  // client outbound + server inbound
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
}

TEST_F(MeshFixture, RequestIdAssignedWhenMissing) {
  build(1, {}, [](const http::HttpRequest& request, int) {
    app::HandlerResult plan;
    plan.response_bytes = request.request_id().empty() ? 1 : 2;
    return plan;
  });
  const auto response = get("server", "/id");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body.size(), 2u);  // app saw a request id
}

TEST_F(MeshFixture, TelemetryRecordsEdge) {
  build();
  get("server", "/a");
  get("server", "/b");
  const auto edge = control_plane_->telemetry().edge("client", "server");
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->requests, 2u);
  EXPECT_EQ(edge->failures, 0u);
}

TEST_F(MeshFixture, NoRouteResponseStillClosesSpan) {
  build();
  const auto response = get("nowhere", "/lost");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 404);
  // The 404 short-circuits before any upstream attempt, but the outbound
  // span must still be finished — it used to leak (never exported).
  const auto& spans = control_plane_->tracer().spans();
  ASSERT_FALSE(spans.empty());
  bool found = false;
  for (const Span& span : spans) {
    if (span.service != "client") continue;
    found = true;
    EXPECT_GE(span.end, span.start);
    EXPECT_FALSE(span.error);  // 404 is a routing miss, not a mesh error
  }
  EXPECT_TRUE(found);
}

TEST_F(MeshFixture, DeadlineAbandonedRequestClosesSpanAsError) {
  MeshPolicies policies;
  policies.request_timeout = sim::milliseconds(200);
  build(1, policies, [](const http::HttpRequest&, int) {
    app::HandlerResult plan;
    plan.processing_delay = sim::seconds(5);  // far past the deadline
    return plan;
  });
  const auto response = get("server", "/slow");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 504);
  // The armed-deadline path must export the outbound span, flagged as an
  // error, with a duration pinned to the deadline (not the handler's 5s).
  bool found = false;
  for (const Span& span : control_plane_->tracer().spans()) {
    if (span.service != "client" || !span.error) continue;
    found = true;
    EXPECT_GE(span.duration(), sim::milliseconds(200));
    EXPECT_LT(span.duration(), sim::seconds(1));
  }
  EXPECT_TRUE(found);
}

TEST_F(MeshFixture, MtlsRequestSucceedsAndChargesCrypto) {
  MeshPolicies policies;
  policies.tls.enabled = true;
  build(1, policies);
  const auto response = get("server", "/secure");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  // Exactly one client->server hop handshakes, full (no prior ticket),
  // and both directions' app records pay AEAD.
  const obs::Counter* full =
      control_plane_->metrics().find_counter("tls_handshakes_full_total");
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(full->value(), 1u);
  const obs::Counter* enc =
      control_plane_->metrics().find_counter("tls_records_encrypted_total");
  ASSERT_NE(enc, nullptr);
  EXPECT_GE(enc->value(), 2u);
}

TEST_F(MeshFixture, HandshakeFailureClosesClientSpanAsError) {
  // Certs expire with rotation disabled, so every handshake attempt dies
  // before a single HTTP byte flows. The regression this pins: a request
  // that fails *during the handshake* must still open and close a client
  // span — as an error, through the finish_outbound funnel — instead of
  // leaking because no response parser ever ran.
  MeshPolicies policies;
  policies.tls.enabled = true;
  policies.certificate_lifetime = sim::seconds(1);
  policies.cp.cert_refresh_ahead = 0.0;  // no rotation: certs just lapse
  build(1, policies);
  sim_.run_until(sim::seconds(2));  // past every cert's expiry
  const auto response = get("server", "/mtls");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 503);
  EXPECT_NE(response->body.view().find("tls handshake failed"),
            std::string::npos);
  // The handshake actually failed (and was counted), and the client span
  // was exported with an end time and the error flag.
  const obs::Counter* failures = control_plane_->metrics().find_counter(
      "tls_handshake_failures_total");
  ASSERT_NE(failures, nullptr);
  EXPECT_GE(failures->value(), 1u);
  bool found = false;
  for (const Span& span : control_plane_->tracer().spans()) {
    if (span.service != "client") continue;
    found = true;
    EXPECT_GE(span.end, span.start);
    EXPECT_TRUE(span.error);
  }
  EXPECT_TRUE(found);
}

TEST_F(MeshFixture, SourceIdentityReachesUpstream) {
  // The caller's sidecar stamps its service identity on every outbound
  // request; the callee's sidecar and app see it.
  std::string source;
  build(1, {}, [&source](const http::HttpRequest& request, int) {
    source = request.headers.get_or(http::headers::Id::kMeshSource, "");
    app::HandlerResult plan;
    plan.response_bytes = 4;
    return plan;
  });
  const auto response = get("server", "/whoami");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(source, "client");
}

TEST_F(MeshFixture, RetryRecoversFrom5xx) {
  MeshPolicies policies;
  policies.retry.max_retries = 2;
  int failures_left = 1;
  build(1, policies, [&failures_left](const http::HttpRequest&, int) {
    app::HandlerResult plan;
    if (failures_left > 0) {
      --failures_left;
      plan.status = 503;
    }
    plan.response_bytes = 8;
    return plan;
  });
  const auto response = get("server", "/flaky");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(client_sidecar_->stats().upstream_retries, 1u);
}

TEST_F(MeshFixture, RetriesExhaustTo5xx) {
  MeshPolicies policies;
  policies.retry.max_retries = 1;
  build(1, policies, [](const http::HttpRequest&, int) {
    app::HandlerResult plan;
    plan.status = 500;
    return plan;
  });
  const auto response = get("server", "/always-bad");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 500);
  EXPECT_EQ(client_sidecar_->stats().upstream_retries, 1u);
  EXPECT_GE(client_sidecar_->stats().upstream_failures, 1u);
}

TEST_F(MeshFixture, PerTryTimeoutProduces504) {
  MeshPolicies policies;
  policies.retry.max_retries = 0;
  policies.retry.per_try_timeout = sim::milliseconds(50);
  build(1, policies, [](const http::HttpRequest&, int) {
    app::HandlerResult plan;
    plan.processing_delay = sim::seconds(30);  // never answers in time
    return plan;
  });
  const auto response = get("server", "/slow", sim::seconds(40));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 503);  // upstream failed: per-try timeout
}

TEST_F(MeshFixture, CircuitBreakerOpensOnRepeatedFailure) {
  MeshPolicies policies;
  policies.retry.max_retries = 0;
  policies.breaker.consecutive_failures = 3;
  policies.breaker.open_duration = sim::seconds(60);
  build(1, policies, [](const http::HttpRequest&, int) {
    app::HandlerResult plan;
    plan.status = 500;
    return plan;
  });
  for (int i = 0; i < 3; ++i) get("server", "/bad");
  const CircuitBreaker* breaker =
      client_sidecar_->breaker("server", "server-v1");
  ASSERT_NE(breaker, nullptr);
  EXPECT_EQ(breaker->state(), CircuitState::kOpen);
  // With the only endpoint ejected, requests fail fast with 503.
  const auto response = get("server", "/next");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 503);
}

TEST_F(MeshFixture, RoundRobinSpreadsAcrossReplicas) {
  build(2, {}, [](const http::HttpRequest&, int replica) {
    app::HandlerResult plan;
    plan.response_bytes = static_cast<std::size_t>(replica);
    return plan;
  });
  std::map<std::size_t, int> seen;
  for (int i = 0; i < 10; ++i) {
    const auto response = get("server", "/lb");
    ASSERT_TRUE(response.has_value());
    ++seen[response->body.size()];
  }
  EXPECT_EQ(seen[1], 5);
  EXPECT_EQ(seen[2], 5);
}

TEST_F(MeshFixture, SubsetRoutingSelectsLabelledReplica) {
  build(2);
  // Relabel endpoints: v1 high, v2 low, then re-push.
  auto& registry = cluster_->registry();
  registry.add_endpoint("server", {"server-v1", server_pods_[0]->ip(), 8080,
                                   {{"priority", "high"}}});
  registry.add_endpoint("server", {"server-v2", server_pods_[1]->ip(), 8080,
                                   {{"priority", "low"}}});
  control_plane_->push_config();
  // A filter that pins every request to the high subset.
  class PinFilter : public HttpFilter {
   public:
    std::string name() const override { return "pin"; }
    FilterStatus on_request(RequestContext& ctx) override {
      ctx.subset["priority"] = "high";
      return FilterStatus::kContinue;
    }
  };
  client_sidecar_->outbound_filters().append(std::make_shared<PinFilter>());
  for (int i = 0; i < 6; ++i) get("server", "/pinned");
  EXPECT_EQ(apps_[0]->requests_served(), 6u);
  EXPECT_EQ(apps_[1]->requests_served(), 0u);
}

TEST_F(MeshFixture, SubsetFallbackUsesAllEndpointsWhenNoMatch) {
  build(1);
  class PinFilter : public HttpFilter {
   public:
    std::string name() const override { return "pin"; }
    FilterStatus on_request(RequestContext& ctx) override {
      ctx.subset["priority"] = "nonexistent";
      return FilterStatus::kContinue;
    }
  };
  client_sidecar_->outbound_filters().append(std::make_shared<PinFilter>());
  const auto response = get("server", "/fallback");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
}

TEST_F(MeshFixture, ConfigPushPropagatesNewEndpoints) {
  build(1);
  // A new replica appears in the registry; the poller pushes it.
  cluster::Pod& new_pod = cluster_->add_pod("n1", "server-v9", "server", 8080);
  control_plane_->inject_sidecar(new_pod, {});
  apps_.push_back(std::make_unique<app::Microservice>(
      sim_, new_pod, [](const http::HttpRequest&) {
        app::HandlerResult plan;
        plan.response_bytes = 9;
        return plan;
      }));
  sim_.run_until(sim_.now() + sim::seconds(1));  // let the poll fire
  const auto spec =
      client_sidecar_->config().clusters.find("server")->second;
  EXPECT_EQ(spec.endpoints.size(), 2u);
}

TEST_F(MeshFixture, CertificatesAreIssuedAndValid) {
  build();
  const Certificate cert = control_plane_->issue_certificate("server");
  EXPECT_NE(cert.spiffe_id.find("server"), std::string::npos);
  EXPECT_TRUE(cert.valid_at(sim_.now()));
  EXPECT_FALSE(cert.valid_at(cert.expires_at));
  const Certificate cert2 = control_plane_->issue_certificate("server");
  EXPECT_GT(cert2.serial, cert.serial);
}

TEST_F(MeshFixture, SidecarForLookup) {
  build();
  EXPECT_EQ(control_plane_->sidecar_for("client"), client_sidecar_);
  EXPECT_EQ(control_plane_->sidecar_for("ghost"), nullptr);
}

TEST_F(MeshFixture, PoolReusesConnections) {
  build();
  for (int i = 0; i < 5; ++i) get("server", "/reuse");
  // The client app pool holds one connection to the sidecar, the sidecar
  // one upstream connection: far fewer than one per request.
  EXPECT_LE(client_pod_->transport().stats().connections_opened, 3u);
}

TEST_F(MeshFixture, ActiveRequestTrackingReturnsToZero) {
  build();
  get("server", "/done");
  EXPECT_EQ(client_sidecar_->active_requests_to("server-v1"), 0u);
}

// ------------------------------ upstream state across config pushes --

MeshPolicies delta_push_policies() {
  MeshPolicies policies;
  policies.cp.delta_push = true;
  return policies;
}

// A pod's breaker is kept by pod id: a delta that removes and re-adds
// another pod of the cluster leaves it as it was.
TEST_F(MeshFixture, OpenBreakerSurvivesDeltasThatRemoveAndReaddAnotherPod) {
  MeshPolicies policies = delta_push_policies();
  policies.retry.max_retries = 0;
  policies.breaker.consecutive_failures = 2;
  policies.breaker.open_duration = sim::seconds(60);
  build(2, policies, [](const http::HttpRequest&, int replica) {
    app::HandlerResult plan;
    plan.status = replica == 1 ? 500 : 200;
    return plan;
  });
  // Round robin alternates v1, v2, v1: two failures open v1's breaker.
  for (int i = 0; i < 3; ++i) get("server", "/r");
  const CircuitBreaker* breaker =
      client_sidecar_->breaker("server", "server-v1");
  ASSERT_NE(breaker, nullptr);
  ASSERT_EQ(breaker->state(), CircuitState::kOpen);

  const std::uint64_t deltas = client_sidecar_->stats().deltas_applied;
  cluster_->crash_pod("server-v2");
  cluster_->deregister_pod("server-v2");
  control_plane_->push_config();
  ASSERT_EQ(client_sidecar_->config().clusters.at("server").endpoints.size(),
            1u);
  cluster_->restart_pod("server-v2");
  control_plane_->push_config();
  ASSERT_EQ(client_sidecar_->config().clusters.at("server").endpoints.size(),
            2u);
  EXPECT_EQ(client_sidecar_->stats().deltas_applied, deltas + 2);

  breaker = client_sidecar_->breaker("server", "server-v1");
  ASSERT_NE(breaker, nullptr);
  EXPECT_EQ(breaker->state(), CircuitState::kOpen);
  EXPECT_EQ(breaker->times_opened(), 1u);
  // v1 stays ejected, so the next request goes to v2.
  const auto response = get("server", "/after");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
}

// An applied push restarts the balancer, full or delta, as a freshly
// built one would start: round robin picks the first endpoint again.
TEST_F(MeshFixture, RoundRobinRestartsAfterEveryAppliedPush) {
  build(2);
  std::vector<std::uint64_t> served(2, 0);
  // The replica (1 or 2) that served the next request.
  const auto next_replica = [&] {
    const auto response = get("server", "/rr");
    EXPECT_TRUE(response.has_value() && response->status == 200);
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      if (apps_[i]->requests_served() != served[i]) {
        served[i] = apps_[i]->requests_served();
        return static_cast<int>(i) + 1;
      }
    }
    return 0;
  };
  const auto push_retry_change = [&](int max_retries) {
    control_plane_->policies().retry.max_retries = max_retries;
    control_plane_->push_config();
    ASSERT_EQ(client_sidecar_->config().retry.max_retries, max_retries);
  };
  EXPECT_EQ(next_replica(), 1);
  EXPECT_EQ(next_replica(), 2);
  EXPECT_EQ(next_replica(), 1);

  // Full pushes.
  push_retry_change(2);
  EXPECT_EQ(next_replica(), 1);
  EXPECT_EQ(next_replica(), 2);
  control_plane_->policies().cp.delta_push = true;
  push_retry_change(3);  // full: no acked base to diff against yet
  EXPECT_EQ(client_sidecar_->stats().deltas_applied, 0u);
  EXPECT_EQ(next_replica(), 1);

  // A delta push.
  push_retry_change(4);
  EXPECT_EQ(client_sidecar_->stats().deltas_applied, 1u);
  EXPECT_EQ(next_replica(), 1);
  EXPECT_EQ(next_replica(), 2);
}

// A retry whose cluster a delta removed during its backoff answers 503
// instead of routing to the removed cluster's endpoints.
TEST_F(MeshFixture, RetryAfterDeltaRemovedTheClusterAnswersVanished) {
  MeshPolicies policies = delta_push_policies();
  policies.retry.max_retries = 1;
  policies.retry.backoff_base = sim::seconds(1);
  policies.retry.backoff_max = sim::seconds(1);
  build(1, policies, [](const http::HttpRequest&, int) {
    app::HandlerResult plan;
    plan.status = 500;
    return plan;
  });
  http::HttpRequest request;
  request.path = "/gone";
  request.headers.set(http::headers::kHost, "server");
  std::optional<http::HttpResponse> result;
  client_->request(std::move(request),
                   [&](std::optional<http::HttpResponse> response,
                       const std::string&) { result = std::move(response); });
  // The first attempt fails within milliseconds; the retry sleeps 1 s.
  sim_.run_until(sim_.now() + sim::milliseconds(300));
  ASSERT_FALSE(result.has_value());
  ASSERT_EQ(client_sidecar_->stats().upstream_retries, 1u);

  control_plane_->policies().cluster_scopes["client"] = {};
  control_plane_->push_config();
  ASSERT_FALSE(client_sidecar_->config().clusters.contains("server"));
  EXPECT_EQ(client_sidecar_->stats().deltas_applied, 1u);

  sim_.run_until(sim_.now() + sim::seconds(2));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, 503);
  EXPECT_EQ(result->body.view(), "cluster vanished");
  EXPECT_EQ(apps_[0]->requests_served(), 1u);
}

// Upstream state and its series are made for the clusters a sidecar
// calls, not for every cluster its config holds.
TEST_F(MeshFixture, ClusterNeverCalledHasNoSeries) {
  cluster_->add_pod("n1", "idle-v1", "idle", 8080);
  build();
  ASSERT_TRUE(client_sidecar_->config().clusters.contains("idle"));
  get("server", "/x");
  const obs::MetricsSnapshot snap = control_plane_->metrics().snapshot();
  std::size_t server_series = 0;
  for (const obs::SeriesSnapshot& series : snap.series) {
    if (!series.name.starts_with("mesh_") &&
        !series.name.starts_with("cluster_")) {
      continue;
    }
    for (const auto& [key, value] : series.labels) {
      EXPECT_NE(value, "idle") << series.key();
      if (value == "server") ++server_series;
    }
  }
  // requests, failures and retries per edge, the edge's latency, and the
  // cluster's requests and failures.
  EXPECT_EQ(server_series, 6u);
}

// ------------------------------------------ breaker edge cases --------

TEST(CircuitBreakerEdge, ZeroThresholdDisablesBreaker) {
  CircuitBreaker breaker{CircuitBreakerConfig{0, sim::milliseconds(100)}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(breaker.allow_request(i));
    breaker.on_failure(i);
  }
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  EXPECT_EQ(breaker.times_opened(), 0u);
}

TEST(CircuitBreakerEdge, HalfOpenAdmitsConfiguredConcurrentProbes) {
  CircuitBreaker breaker{CircuitBreakerConfig{2, sim::milliseconds(100)}};
  breaker.on_failure(0);
  breaker.on_failure(1);
  ASSERT_EQ(breaker.state(), CircuitState::kOpen);
  const sim::Time after = 1 + sim::milliseconds(100);
  // Cooldown elapsed: exactly one concurrent probe is admitted.
  EXPECT_TRUE(breaker.allow_request(after));
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
  EXPECT_FALSE(breaker.allow_request(after));  // probe cap
  // One probe succeeding closes the circuit and resets probe accounting.
  breaker.on_success(after + 1);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  EXPECT_TRUE(breaker.allow_request(after + 2));
}

TEST(CircuitBreakerEdge, ProbeFailureReopensFromHalfOpen) {
  CircuitBreaker breaker{CircuitBreakerConfig{1, sim::milliseconds(50)}};
  breaker.on_failure(0);
  ASSERT_EQ(breaker.state(), CircuitState::kOpen);
  const sim::Time probe_at = sim::milliseconds(50);
  EXPECT_TRUE(breaker.allow_request(probe_at));
  ASSERT_EQ(breaker.state(), CircuitState::kHalfOpen);
  breaker.on_failure(probe_at + 1);
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2u);
  // The fresh open period starts at the probe failure, not the original
  // trip: still open just before the new cooldown expires.
  EXPECT_FALSE(breaker.allow_request(probe_at + sim::milliseconds(50)));
  EXPECT_TRUE(breaker.allow_request(probe_at + 1 + sim::milliseconds(50)));
}

TEST(CircuitBreakerEdge, TransitionHookSeesAllFourTransitions) {
  CircuitBreaker breaker{CircuitBreakerConfig{1, sim::milliseconds(10)}};
  std::vector<std::pair<CircuitState, CircuitState>> transitions;
  breaker.set_transition_hook(
      [&](CircuitState from, CircuitState to, sim::Time) {
        transitions.emplace_back(from, to);
      });
  breaker.on_failure(0);                              // closed -> open
  breaker.allow_request(sim::milliseconds(10));       // open -> half-open
  breaker.on_failure(sim::milliseconds(11));          // half-open -> open
  breaker.allow_request(sim::milliseconds(25));       // open -> half-open
  breaker.on_success(sim::milliseconds(26));          // half-open -> closed
  const std::vector<std::pair<CircuitState, CircuitState>> expected{
      {CircuitState::kClosed, CircuitState::kOpen},
      {CircuitState::kOpen, CircuitState::kHalfOpen},
      {CircuitState::kHalfOpen, CircuitState::kOpen},
      {CircuitState::kOpen, CircuitState::kHalfOpen},
      {CircuitState::kHalfOpen, CircuitState::kClosed},
  };
  EXPECT_EQ(transitions, expected);
}

// ------------------------------------------------- retry backoff ------

TEST(RetryBackoff, DecorrelatedJitterStaysWithinBounds) {
  RetryPolicy policy;
  policy.backoff_base = sim::milliseconds(2);
  policy.backoff_max = sim::milliseconds(250);
  sim::RngStream rng(7, "test");
  sim::Duration prev = 0;
  for (int i = 1; i <= 500; ++i) {
    const sim::Duration sleep = next_retry_backoff(policy, i, prev, rng);
    EXPECT_GE(sleep, policy.backoff_base);
    EXPECT_LE(sleep, policy.backoff_max);
    // Decorrelated jitter's upper envelope: 3x the previous sleep (with
    // prev floored at base), before the cap.
    const sim::Duration envelope =
        std::min<sim::Duration>(policy.backoff_max,
                                3 * std::max(prev, policy.backoff_base));
    EXPECT_LE(sleep, envelope);
    prev = sleep;
  }
}

TEST(RetryBackoff, DeterministicForSameSeed) {
  RetryPolicy policy;
  sim::RngStream rng_a(13, "same");
  sim::RngStream rng_b(13, "same");
  sim::Duration prev_a = 0;
  sim::Duration prev_b = 0;
  for (int i = 1; i <= 50; ++i) {
    prev_a = next_retry_backoff(policy, i, prev_a, rng_a);
    prev_b = next_retry_backoff(policy, i, prev_b, rng_b);
    EXPECT_EQ(prev_a, prev_b);
  }
}

// --------------------------------------------------- retry paths ------

TEST_F(MeshFixture, ConnectionResetIsRetried) {
  MeshPolicies policies;
  policies.retry.max_retries = 2;
  build(1, policies, [](const http::HttpRequest&, int) {
    app::HandlerResult plan;
    plan.processing_delay = sim::milliseconds(100);
    plan.response_bytes = 8;
    return plan;
  });
  http::HttpRequest request;
  request.path = "/reset";
  request.headers.set(http::headers::kHost, "server");
  std::optional<http::HttpResponse> result;
  bool done = false;
  client_->request(std::move(request),
                   [&](std::optional<http::HttpResponse> response,
                       const std::string&) {
                     result = std::move(response);
                     done = true;
                   });
  // While the app works on the request, every connection of the server
  // pod is reset: the client sidecar's upstream try fails with a reset
  // and is retried on a fresh connection.
  sim_.run_until(sim_.now() + sim::milliseconds(50));
  ASSERT_FALSE(done);
  server_pods_[0]->transport().reset_all_connections();
  sim_.run_until(sim_.now() + sim::seconds(2));
  ASSERT_TRUE(done);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, 200);
  EXPECT_EQ(client_sidecar_->stats().upstream_retries, 1u);
  EXPECT_EQ(client_sidecar_->stats().timeouts, 0u);
}

TEST_F(MeshFixture, PerTryTimeoutFiresOnEveryAttempt) {
  MeshPolicies policies;
  policies.retry.max_retries = 1;
  policies.retry.per_try_timeout = sim::milliseconds(50);
  build(1, policies, [](const http::HttpRequest&, int) {
    app::HandlerResult plan;
    plan.processing_delay = sim::seconds(30);
    return plan;
  });
  const auto response = get("server", "/hang-twice", sim::seconds(10));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 503);
  EXPECT_EQ(client_sidecar_->stats().upstream_retries, 1u);
  EXPECT_EQ(client_sidecar_->stats().timeouts, 2u);  // original + retry
}

// ---------------------------------------------- health checking -------

TEST_F(MeshFixture, HealthProbesAnsweredBySidecarNotApp) {
  MeshPolicies policies;
  policies.health_check.enabled = true;
  std::uint64_t app_saw_probe_path = 0;
  build(1, policies,
        [&](const http::HttpRequest& request, int) {
          if (request.path == std::string(kHealthCheckPath)) {
            ++app_saw_probe_path;
          }
          app::HandlerResult plan;
          plan.response_bytes = 4;
          return plan;
        });
  sim_.run_until(sim_.now() + sim::seconds(2));
  EXPECT_GT(server_sidecars_[0]->stats().health_probes_answered, 0u);
  EXPECT_EQ(app_saw_probe_path, 0u);
  ASSERT_NE(client_sidecar_->health_checker(), nullptr);
  EXPECT_GT(client_sidecar_->health_checker()->stats().probes_sent, 0u);
  EXPECT_EQ(client_sidecar_->health_checker()->stats().evictions, 0u);
  EXPECT_TRUE(client_sidecar_->health_checker()->healthy("server",
                                                         "server-v1"));
}

TEST_F(MeshFixture, HealthCheckerEvictsCrashedPodAndReadmitsOnRestart) {
  MeshPolicies policies;
  policies.health_check.enabled = true;
  policies.retry.max_retries = 1;
  policies.retry.per_try_timeout = sim::milliseconds(200);
  build(2, policies);
  ASSERT_TRUE(get("server", "/warm").has_value());

  ASSERT_TRUE(cluster_->crash_pod("server-v1"));
  sim_.run_until(sim_.now() + sim::seconds(2));
  EXPECT_FALSE(
      client_sidecar_->health_checker()->healthy("server", "server-v1"));
  EXPECT_GE(client_sidecar_->health_checker()->stats().evictions, 1u);
  // With v1 evicted, traffic flows to v2 only — no failures, no hangs.
  const std::uint64_t served_before = apps_[1]->requests_served();
  for (int i = 0; i < 4; ++i) {
    const auto response = get("server", "/during-crash");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);
  }
  EXPECT_EQ(apps_[1]->requests_served(), served_before + 4);

  ASSERT_TRUE(cluster_->restart_pod("server-v1"));
  sim_.run_until(sim_.now() + sim::seconds(2));
  EXPECT_TRUE(
      client_sidecar_->health_checker()->healthy("server", "server-v1"));
  EXPECT_GE(client_sidecar_->health_checker()->stats().readmissions, 1u);
  // Telemetry carries the eviction/readmission transitions.
  EXPECT_GE(control_plane_->telemetry().event_count(obs::EventKind::kHealth),
            2u);
}

// Re-targeting or disabling one cluster drops only that cluster's
// vanished targets; another cluster probing the same pods keeps its
// targets and their health state.
TEST_F(MeshFixture, HealthCheckerRetargetsOnlyTheNamedCluster) {
  MeshPolicies policies;
  policies.health_check.enabled = true;
  build(2, policies);
  HealthChecker& checker = *client_sidecar_->health_checker();
  const std::vector<cluster::Endpoint> endpoints =
      client_sidecar_->config().clusters.at("server").endpoints;
  ASSERT_EQ(endpoints.size(), 2u);
  // "mirror" sorts right before "server" and probes the same two pods.
  checker.update_targets("mirror", policies.health_check, endpoints,
                         kSidecarInboundPort);
  const std::size_t targets = checker.target_count();

  ASSERT_TRUE(cluster_->crash_pod("server-v1"));
  sim_.run_until(sim_.now() + sim::seconds(2));
  ASSERT_FALSE(checker.healthy("server", "server-v1"));
  ASSERT_FALSE(checker.healthy("mirror", "server-v1"));
  const std::uint64_t evictions = checker.stats().evictions;

  // server-v1 leaves "mirror" only.
  const std::vector<cluster::Endpoint> v2_only = {endpoints[1]};
  ASSERT_EQ(v2_only.front().pod_name, "server-v2");
  checker.update_targets("mirror", policies.health_check, v2_only,
                         kSidecarInboundPort);
  EXPECT_EQ(checker.target_count(), targets - 1);
  EXPECT_TRUE(checker.healthy("mirror", "server-v1"));  // no longer probed
  EXPECT_FALSE(checker.healthy("server", "server-v1"));
  EXPECT_TRUE(checker.healthy("server", "server-v2"));

  // Disabling "mirror" drops its last target and nothing else.
  checker.update_targets("mirror", HealthCheckConfig{}, {},
                         kSidecarInboundPort);
  EXPECT_EQ(checker.target_count(), targets - 2);
  EXPECT_FALSE(checker.healthy("server", "server-v1"));
  EXPECT_EQ(checker.stats().evictions, evictions);
}

// ------------------------------------- admission / overload control --

/// MeshFixture plus concurrent (non-blocking) request issue, so tests
/// can hold the server's admission slot busy while more arrivals land.
class AdmissionFixture : public MeshFixture {
 protected:
  struct Pending {
    std::optional<http::HttpResponse> response;
    bool done = false;
  };

  static AdmissionConfig pinned_admission(std::uint32_t limit,
                                          std::size_t queue_capacity) {
    AdmissionConfig admission;
    admission.enabled = true;
    admission.queue_capacity = queue_capacity;
    admission.concurrency_limit = limit;
    return admission;
  }

  void send(const std::string& host, const std::string& path, Pending* out,
            const std::string& priority = "") {
    http::HttpRequest request;
    request.path = path;
    request.headers.set(http::headers::kHost, host);
    if (!priority.empty()) {
      request.headers.set(http::headers::kMeshPriority, priority);
    }
    client_->request(std::move(request),
                     [out](std::optional<http::HttpResponse> response,
                           const std::string&) {
                       out->response = std::move(response);
                       out->done = true;
                     });
  }

  void run_for(sim::Duration duration) {
    sim_.run_until(sim_.now() + duration);
  }

  static bool is_shed_503(const Pending& pending) {
    return pending.done && pending.response.has_value() &&
           pending.response->status == 503 &&
           pending.response->headers.has(http::headers::Id::kShedReason);
  }
};

TEST_F(AdmissionFixture, ShedRespondsWith503AndMarkerHeader) {
  MeshPolicies policies;
  policies.admission = pinned_admission(1, 0);
  int invocations = 0;
  build(1, policies, [&invocations](const http::HttpRequest&, int) {
    ++invocations;
    app::HandlerResult plan;
    plan.processing_delay = sim::milliseconds(100);
    plan.response_bytes = 8;
    return plan;
  });

  Pending first;
  Pending second;
  send("server", "/a", &first);
  send("server", "/b", &second);
  run_for(sim::seconds(1));

  ASSERT_TRUE(first.done);
  ASSERT_TRUE(second.done);
  // One slot, no queue: the earlier arrival is served, the other is shed
  // with the marked 503 and never reaches the app.
  ASSERT_TRUE(first.response.has_value());
  EXPECT_EQ(first.response->status, 200);
  EXPECT_TRUE(is_shed_503(second));
  EXPECT_EQ(second.response->headers.get_or(http::headers::Id::kShedReason,
                                            ""),
            "queue-full");
  EXPECT_EQ(invocations, 1);

  const AdmissionController* admission =
      server_sidecars_[0]->admission_controller();
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(admission->counters().accepted, 1u);
  EXPECT_EQ(admission->counters().completed, 1u);
  EXPECT_EQ(admission->counters().shed, 1u);
}

TEST_F(AdmissionFixture, RetryStormSuppressedWhenUpstreamSheds) {
  MeshPolicies policies;
  policies.retry.max_retries = 3;  // would amplify 4x if sheds were retried
  policies.admission = pinned_admission(1, 0);
  int invocations = 0;
  build(1, policies, [&invocations](const http::HttpRequest&, int) {
    ++invocations;
    app::HandlerResult plan;
    plan.processing_delay = sim::milliseconds(200);
    plan.response_bytes = 8;
    return plan;
  });

  std::vector<Pending> pending(4);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    send("server", "/r" + std::to_string(i), &pending[i]);
  }
  run_for(sim::seconds(2));

  // A shed 503 is retryable by status but marked as overload, so the
  // three sheds produce zero upstream retries (no retry storm) and
  // exactly one app attempt.
  int served = 0;
  int shed = 0;
  for (const Pending& p : pending) {
    ASSERT_TRUE(p.done);
    ASSERT_TRUE(p.response.has_value());
    if (p.response->status == 200) ++served;
    if (is_shed_503(p)) ++shed;
  }
  EXPECT_EQ(served, 1);
  EXPECT_EQ(shed, 3);
  EXPECT_EQ(invocations, 1);
  EXPECT_EQ(client_sidecar_->stats().upstream_retries, 0u);
  EXPECT_EQ(client_sidecar_->stats().retries_suppressed_by_overload, 3u);
}

TEST_F(AdmissionFixture, ShedStormDoesNotTripCircuitBreaker) {
  MeshPolicies policies;
  policies.breaker.consecutive_failures = 3;
  policies.admission = pinned_admission(1, 0);
  int invocations = 0;
  build(1, policies, [&invocations](const http::HttpRequest&, int) {
    ++invocations;
    app::HandlerResult plan;
    plan.processing_delay = sim::milliseconds(500);
    plan.response_bytes = 8;
    return plan;
  });

  // Well past the breaker threshold in sheds while the slot is held.
  Pending holder;
  send("server", "/hold", &holder);
  std::vector<Pending> storm(6);
  for (std::size_t i = 0; i < storm.size(); ++i) {
    run_for(sim::milliseconds(10));
    send("server", "/s" + std::to_string(i), &storm[i]);
  }
  run_for(sim::seconds(1));
  for (const Pending& p : storm) EXPECT_TRUE(is_shed_503(p));

  // Sheds are deliberate backpressure from a live endpoint, not endpoint
  // failure: the breaker must still be closed, so the next request (sent
  // after the holder freed the slot) flows straight through.
  Pending after;
  send("server", "/after", &after);
  run_for(sim::seconds(1));
  ASSERT_TRUE(after.done);
  ASSERT_TRUE(after.response.has_value());
  EXPECT_EQ(after.response->status, 200);
  EXPECT_EQ(invocations, 2);
}

TEST_F(AdmissionFixture, QueueDispatchesHighPriorityFirst) {
  MeshPolicies policies;
  policies.admission = pinned_admission(1, 4);
  std::vector<std::string> order;
  build(1, policies, [&order](const http::HttpRequest& request, int) {
    order.push_back(request.path);
    app::HandlerResult plan;
    plan.processing_delay = sim::milliseconds(100);
    plan.response_bytes = 8;
    return plan;
  });

  Pending holder;
  Pending low;
  Pending high;
  send("server", "/hold", &holder);
  run_for(sim::milliseconds(10));
  send("server", "/low", &low, "low");      // queued first...
  run_for(sim::milliseconds(10));
  send("server", "/high", &high, "high");   // ...but dispatched second
  run_for(sim::seconds(1));

  ASSERT_TRUE(holder.done && low.done && high.done);
  EXPECT_EQ(holder.response->status, 200);
  EXPECT_EQ(low.response->status, 200);
  EXPECT_EQ(high.response->status, 200);
  // High priority jumps the scavenger in the queue despite arriving later.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "/hold");
  EXPECT_EQ(order[1], "/high");
  EXPECT_EQ(order[2], "/low");
}

TEST_F(AdmissionFixture, DeadlineAbandonedSpanStillClosesUnderOverload) {
  MeshPolicies policies;
  policies.request_timeout = sim::milliseconds(200);
  policies.admission = pinned_admission(1, 4);
  int handled = 0;
  build(1, policies, [&handled](const http::HttpRequest&, int) {
    ++handled;
    app::HandlerResult plan;
    plan.processing_delay = sim::seconds(5);  // far past every deadline
    plan.response_bytes = 8;
    return plan;
  });

  Pending first;
  Pending queued;
  send("server", "/slow", &first);
  run_for(sim::milliseconds(10));
  send("server", "/queued", &queued);
  run_for(sim::seconds(6));  // past the handler, so the queue drains too

  // Both requests hit the client-side deadline; the PR-4 abandoned-span
  // path must export error spans pinned to the deadline even when the
  // request died queued behind an admission slot.
  ASSERT_TRUE(first.done && queued.done);
  EXPECT_EQ(first.response->status, 504);
  EXPECT_EQ(queued.response->status, 504);
  int error_spans = 0;
  for (const Span& span : control_plane_->tracer().spans()) {
    if (span.service != "client" || !span.error) continue;
    ++error_spans;
    EXPECT_GE(span.duration(), sim::milliseconds(200));
    EXPECT_LT(span.duration(), sim::seconds(1));
  }
  EXPECT_EQ(error_spans, 2);

  // A queued request is never shed: the second one waited for the slot,
  // and when the first completed it got the slot with its downstream
  // already gone, so it released the slot without reaching the app.
  const AdmissionController* admission =
      server_sidecars_[0]->admission_controller();
  ASSERT_NE(admission, nullptr);
  const AdmissionCounters& counters = admission->counters();
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(admission->in_flight(), 0u);
  EXPECT_EQ(counters.queued, 1u);
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.offered, counters.accepted + counters.shed);
  EXPECT_EQ(counters.completed, counters.accepted);
}

}  // namespace
}  // namespace meshnet::mesh
