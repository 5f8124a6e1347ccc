// Tests for the application runtime (HTTP server, microservice fan-out)
// and the e-library application.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "app/elibrary.h"
#include "app/http_server.h"
#include "app/microservice.h"
#include "mesh/control_plane.h"
#include "mesh/http_client.h"
#include "net/payload.h"
#include "sim/simulator.h"

namespace meshnet::app {
namespace {

// ----------------------------------------------------- SimpleHttpServer --

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture() : cluster(sim) {
    cluster.add_node("n1");
    server_pod = &cluster.add_pod("n1", "srv", "srv", 0);
    client_pod = &cluster.add_pod("n1", "cli", "", 0);
  }

  std::optional<http::HttpResponse> get(mesh::HttpClientPool& pool,
                                        const std::string& path) {
    http::HttpRequest request;
    request.path = path;
    std::optional<http::HttpResponse> out;
    pool.request(std::move(request),
                 [&](std::optional<http::HttpResponse> response,
                     const std::string&) { out = std::move(response); });
    sim.run_until(sim.now() + sim::seconds(5));
    return out;
  }

  sim::Simulator sim;
  cluster::Cluster cluster;
  cluster::Pod* server_pod;
  cluster::Pod* client_pod;
};

TEST_F(ServerFixture, ServesSynchronousHandler) {
  SimpleHttpServer server(sim, server_pod->transport(), 8080,
                          [](http::HttpRequest request,
                             SimpleHttpServer::Responder respond) {
                            http::HttpResponse response;
                            response.body = "echo:" + request.path;
                            respond(std::move(response));
                          });
  mesh::HttpClientPool pool(sim, client_pod->transport(),
                            {server_pod->ip(), 8080}, {});
  const auto response = get(pool, "/abc");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body, "echo:/abc");
  EXPECT_EQ(server.requests_served(), 1u);
}

// One plaintext hop moves a body without copying it: each side parses
// the other's body as a slice of the sender's own block.
TEST_F(ServerFixture, BodiesCrossAHopWithoutACopy) {
  http::HttpResponse reply;
  reply.body.assign(100'000, 'r');
  const char* request_body_seen = nullptr;
  SimpleHttpServer server(sim, server_pod->transport(), 8080,
                          [&](http::HttpRequest request,
                              SimpleHttpServer::Responder respond) {
                            request_body_seen = request.body.data();
                            respond(reply);  // the copy shares the block
                          });
  mesh::HttpClientPool pool(sim, client_pod->transport(),
                            {server_pod->ip(), 8080}, {});
  http::HttpRequest request;
  request.method = "POST";
  request.body.assign(50'000, 'q');
  const char* request_body_sent = request.body.data();
  std::optional<http::HttpResponse> out;
  const std::uint64_t copied_before = net::payload_pool_stats().bytes_copied;
  pool.request(std::move(request),
               [&](std::optional<http::HttpResponse> response,
                   const std::string&) { out = std::move(response); });
  sim.run_until(sim.now() + sim::seconds(5));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(request_body_seen, request_body_sent);
  EXPECT_EQ(out->body.data(), reply.body.data());
  EXPECT_EQ(out->body, reply.body);
  EXPECT_EQ(net::payload_pool_stats().bytes_copied, copied_before);
}

TEST_F(ServerFixture, ServesDeferredResponses) {
  SimpleHttpServer server(
      sim, server_pod->transport(), 8080,
      [this](http::HttpRequest, SimpleHttpServer::Responder respond) {
        sim.schedule_after(sim::milliseconds(20),
                           [respond = std::move(respond)] {
                             respond(http::HttpResponse{204});
                           });
      });
  mesh::HttpClientPool pool(sim, client_pod->transport(),
                            {server_pod->ip(), 8080}, {});
  const auto response = get(pool, "/later");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 204);
}

TEST_F(ServerFixture, HandlesConcurrentConnections) {
  int served = 0;
  SimpleHttpServer server(
      sim, server_pod->transport(), 8080,
      [&](http::HttpRequest, SimpleHttpServer::Responder respond) {
        ++served;
        respond(http::HttpResponse{200});
      });
  mesh::HttpClientPool pool(sim, client_pod->transport(),
                            {server_pod->ip(), 8080}, {});
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    http::HttpRequest request;
    request.path = "/" + std::to_string(i);
    pool.request(std::move(request),
                 [&](std::optional<http::HttpResponse>, const std::string&) {
                   ++done;
                 });
  }
  sim.run_until(sim::seconds(5));
  EXPECT_EQ(done, 20);
  EXPECT_EQ(served, 20);
}

// --------------------------------------------------------- Microservice --

class MicroFixture : public ::testing::Test {
 protected:
  MicroFixture() : cluster(sim), control_plane(sim, cluster) {
    cluster.add_node("n1");
    front = &cluster.add_pod("n1", "front-v1", "front", 8080);
    back = &cluster.add_pod("n1", "back-v1", "back", 8080);
    control_plane.inject_sidecar(*front, {});
    control_plane.inject_sidecar(*back, {});
    control_plane.start();
    client_pod = &cluster.add_pod("n1", "cli", "", 0);
  }

  std::optional<http::HttpResponse> call_front(
      const std::string& path,
      std::function<void(http::HttpRequest&)> mutate = nullptr) {
    // Talk to the front service the meshed way: through its inbound
    // sidecar port (we are "another sidecar" for this purpose).
    mesh::HttpClientPool pool(sim, client_pod->transport(),
                              {front->ip(), 15006}, {});
    http::HttpRequest request;
    request.path = path;
    request.headers.set(http::headers::kHost, "front");
    if (mutate) mutate(request);
    std::optional<http::HttpResponse> out;
    pool.request(std::move(request),
                 [&](std::optional<http::HttpResponse> response,
                     const std::string&) { out = std::move(response); });
    sim.run_until(sim.now() + sim::seconds(10));
    return out;
  }

  sim::Simulator sim;
  cluster::Cluster cluster;
  mesh::ControlPlane control_plane;
  cluster::Pod* front;
  cluster::Pod* back;
  cluster::Pod* client_pod;
};

TEST_F(MicroFixture, LeafServiceResponds) {
  Microservice app(sim, *front, [](const http::HttpRequest&) {
    HandlerResult plan;
    plan.response_bytes = 100;
    return plan;
  });
  const auto response = call_front("/leaf");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body.size(), 100u);
  EXPECT_EQ(response->headers.get_or("x-app", ""), "front");
}

TEST_F(MicroFixture, FanOutAggregatesSubResponses) {
  Microservice front_app(sim, *front, [](const http::HttpRequest&) {
    HandlerResult plan;
    plan.response_bytes = 10;
    plan.calls = {SubCall{"back", "/b1"}, SubCall{"back", "/b2"}};
    return plan;
  });
  Microservice back_app(sim, *back, [](const http::HttpRequest&) {
    HandlerResult plan;
    plan.response_bytes = 50;
    return plan;
  });
  const auto response = call_front("/agg");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body.size(), 110u);  // 10 + 2*50
  EXPECT_EQ(front_app.sub_requests_sent(), 2u);
  EXPECT_EQ(back_app.requests_served(), 2u);
}

TEST_F(MicroFixture, AggregationCanBeDisabled) {
  Microservice front_app(sim, *front, [](const http::HttpRequest&) {
    HandlerResult plan;
    plan.response_bytes = 10;
    plan.aggregate_sub_bodies = false;
    plan.calls = {SubCall{"back", "/b"}};
    return plan;
  });
  Microservice back_app(sim, *back, [](const http::HttpRequest&) {
    HandlerResult plan;
    plan.response_bytes = 50;
    return plan;
  });
  const auto response = call_front("/no-agg");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body.size(), 10u);
}

TEST_F(MicroFixture, SubErrorBecomes502) {
  Microservice front_app(sim, *front, [](const http::HttpRequest&) {
    HandlerResult plan;
    plan.calls = {SubCall{"back", "/b"}};
    return plan;
  });
  Microservice back_app(sim, *back, [](const http::HttpRequest&) {
    HandlerResult plan;
    plan.status = 500;
    return plan;
  });
  const auto response = call_front("/bad-dep");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 502);
}

TEST_F(MicroFixture, SubErrorToleratedWhenConfigured) {
  MicroserviceOptions options;
  options.fail_on_sub_error = false;
  Microservice front_app(
      sim, *front,
      [](const http::HttpRequest&) {
        HandlerResult plan;
        plan.response_bytes = 33;
        plan.calls = {SubCall{"back", "/b"}};
        return plan;
      },
      options);
  Microservice back_app(sim, *back, [](const http::HttpRequest&) {
    HandlerResult plan;
    plan.status = 500;
    return plan;
  });
  const auto response = call_front("/tolerant");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body.size(), 33u);
}

TEST_F(MicroFixture, PropagatesRequestIdNotPriority) {
  std::string seen_id, seen_priority = "unset";
  Microservice front_app(sim, *front, [](const http::HttpRequest&) {
    HandlerResult plan;
    plan.calls = {SubCall{"back", "/b"}};
    return plan;
  });
  Microservice back_app(sim, *back, [&](const http::HttpRequest& request) {
    seen_id = request.request_id();
    seen_priority =
        request.headers.get_or(http::headers::kMeshPriority, "absent");
    return HandlerResult{};
  });
  call_front("/prop", [](http::HttpRequest& request) {
    request.set_request_id("req-propagate-me");
    request.headers.set(http::headers::kMeshPriority, "high");
  });
  EXPECT_EQ(seen_id, "req-propagate-me");
  // The unmodified app does NOT copy the priority header; only the
  // provenance filter does (not installed in this fixture).
  EXPECT_EQ(seen_priority, "absent");
}

TEST_F(MicroFixture, FrontendModePropagatesPriority) {
  MicroserviceOptions options;
  options.propagate_priority_header = true;  // paper's front-end behaviour
  Microservice front_app(
      sim, *front,
      [](const http::HttpRequest&) {
        HandlerResult plan;
        plan.calls = {SubCall{"back", "/b"}};
        return plan;
      },
      options);
  std::string seen_priority;
  Microservice back_app(sim, *back, [&](const http::HttpRequest& request) {
    seen_priority = request.headers.get_or(http::headers::kMeshPriority, "");
    return HandlerResult{};
  });
  call_front("/prio", [](http::HttpRequest& request) {
    request.headers.set(http::headers::kMeshPriority, "low");
  });
  EXPECT_EQ(seen_priority, "low");
}

TEST_F(MicroFixture, ProcessingDelayIsApplied) {
  Microservice app(sim, *front, [](const http::HttpRequest&) {
    HandlerResult plan;
    plan.processing_delay = sim::milliseconds(40);
    return plan;
  });
  const sim::Time start = sim.now();
  call_front("/slow");
  EXPECT_GE(sim.now() - start, sim::milliseconds(40));
}

TEST_F(MicroFixture, ConcurrencyLimitSerializesWork) {
  MicroserviceOptions options;
  options.max_concurrency = 1;
  int peak = 0;
  std::unique_ptr<Microservice> app;
  app = std::make_unique<Microservice>(
      sim, *front,
      [&](const http::HttpRequest&) {
        peak = std::max(peak, app ? app->in_service() : 0);
        HandlerResult plan;
        plan.processing_delay = sim::milliseconds(30);
        return plan;
      },
      options);

  mesh::HttpClientPool pool(sim, client_pod->transport(),
                            {front->ip(), 15006}, {});
  int done = 0;
  const sim::Time start = sim.now();
  sim::Time last_done = 0;
  for (int i = 0; i < 3; ++i) {
    http::HttpRequest request;
    request.path = "/serial";
    request.headers.set(http::headers::kHost, "front");
    pool.request(std::move(request),
                 [&](std::optional<http::HttpResponse>, const std::string&) {
                   ++done;
                   last_done = sim.now();
                 });
  }
  sim.run_until(sim.now() + sim::seconds(10));
  EXPECT_EQ(done, 3);
  EXPECT_LE(peak, 1);
  // Three 30 ms jobs through one worker take >= 90 ms.
  EXPECT_GE(last_done - start, sim::milliseconds(90));
  EXPECT_GE(app->max_admission_queue_seen(), 1u);
}

TEST_F(MicroFixture, PrioritySchedulingReordersAdmissionQueue) {
  MicroserviceOptions options;
  options.max_concurrency = 1;
  options.priority_scheduling = true;
  std::vector<std::string> completion_order;
  Microservice app(
      sim, *front,
      [](const http::HttpRequest&) {
        HandlerResult plan;
        plan.processing_delay = sim::milliseconds(20);
        return plan;
      },
      options);

  mesh::HttpClientPool::Options pool_options;
  pool_options.max_connections = 16;
  mesh::HttpClientPool pool(sim, client_pod->transport(),
                            {front->ip(), 15006}, pool_options);
  auto send = [&](const std::string& name, const std::string& priority) {
    http::HttpRequest request;
    request.path = "/" + name;
    request.headers.set(http::headers::kHost, "front");
    if (!priority.empty()) {
      request.headers.set(http::headers::kMeshPriority, priority);
    }
    pool.request(std::move(request),
                 [&completion_order, name](std::optional<http::HttpResponse>,
                                           const std::string&) {
                   completion_order.push_back(name);
                 });
  };
  // Occupy the worker, queue two lows, then a high: the high must be
  // served before the queued lows.
  send("first", "low");
  sim.run_until(sim.now() + sim::milliseconds(5));
  send("low-1", "low");
  send("low-2", "low");
  sim.run_until(sim.now() + sim::milliseconds(2));
  send("high-1", "high");
  sim.run_until(sim.now() + sim::seconds(5));
  ASSERT_EQ(completion_order.size(), 4u);
  EXPECT_EQ(completion_order[0], "first");
  EXPECT_EQ(completion_order[1], "high-1");
}

TEST_F(MicroFixture, FifoAdmissionWithoutPriorityScheduling) {
  MicroserviceOptions options;
  options.max_concurrency = 1;
  options.priority_scheduling = false;
  std::vector<std::string> completion_order;
  Microservice app(
      sim, *front,
      [](const http::HttpRequest&) {
        HandlerResult plan;
        plan.processing_delay = sim::milliseconds(20);
        return plan;
      },
      options);
  mesh::HttpClientPool::Options pool_options;
  pool_options.max_connections = 16;
  mesh::HttpClientPool pool(sim, client_pod->transport(),
                            {front->ip(), 15006}, pool_options);
  auto send = [&](const std::string& name, const std::string& priority) {
    http::HttpRequest request;
    request.path = "/" + name;
    request.headers.set(http::headers::kHost, "front");
    request.headers.set(http::headers::kMeshPriority, priority);
    pool.request(std::move(request),
                 [&completion_order, name](std::optional<http::HttpResponse>,
                                           const std::string&) {
                   completion_order.push_back(name);
                 });
  };
  send("first", "low");
  sim.run_until(sim.now() + sim::milliseconds(5));
  send("low-1", "low");
  sim.run_until(sim.now() + sim::milliseconds(2));
  send("high-1", "high");
  sim.run_until(sim.now() + sim::seconds(5));
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[1], "low-1");  // FIFO: no reordering
}

// ------------------------------------------------------------ Elibrary --

class ElibraryFixture : public ::testing::Test {
 protected:
  ElibraryFixture() {
    // Small payloads keep tests fast.
    options.component_bytes = 1024;
    options.analytics_multiplier = 10;
    options.service_time = sim::microseconds(100);
    app = std::make_unique<Elibrary>(sim, options);
  }

  std::optional<http::HttpResponse> get(const std::string& path) {
    mesh::HttpClientPool pool(sim, app->client_pod().transport(),
                              app->gateway_address(), {});
    http::HttpRequest request;
    request.path = path;
    request.headers.set(http::headers::kHost, "frontend");
    std::optional<http::HttpResponse> out;
    pool.request(std::move(request),
                 [&](std::optional<http::HttpResponse> response,
                     const std::string&) { out = std::move(response); });
    sim.run_until(sim.now() + sim::seconds(10));
    return out;
  }

  sim::Simulator sim;
  ElibraryOptions options;
  std::unique_ptr<Elibrary> app;
};

TEST_F(ElibraryFixture, TopologyMatchesFig3) {
  for (const std::string name :
       {"istio-ingressgateway", "frontend-v1", "details-v1", "reviews-v1",
        "reviews-v2", "ratings-v1", "external-client"}) {
    EXPECT_NE(app->pod(name), nullptr) << name;
  }
  const auto* reviews = app->cluster().registry().find("reviews");
  ASSERT_NE(reviews, nullptr);
  ASSERT_EQ(reviews->endpoints.size(), 2u);
  EXPECT_EQ(reviews->endpoints[0].label_or("priority", ""), "high");
  EXPECT_EQ(reviews->endpoints[1].label_or("priority", ""), "low");
}

TEST_F(ElibraryFixture, BottleneckIsRatingsVnic) {
  EXPECT_DOUBLE_EQ(app->bottleneck_link().rate_bps(), 1e9);
  EXPECT_DOUBLE_EQ(app->pod("frontend-v1")->egress_link().rate_bps(), 15e9);
}

TEST_F(ElibraryFixture, LsRequestReturnsExpectedBytes) {
  const auto response = get("/product/1");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body.size(), app->expected_ls_body_bytes());
}

TEST_F(ElibraryFixture, LiRequestReturnsBulkBytes) {
  const auto response = get("/analytics/7");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body.size(), app->expected_li_body_bytes());
  // With multiplier M, LI/LS = (1.75 + M) / 2.75; M=10 gives ~4.3x.
  EXPECT_GT(app->expected_li_body_bytes(),
            4 * app->expected_ls_body_bytes());
}

TEST_F(ElibraryFixture, RequestTraversesWholeTree) {
  get("/product/1");
  const auto& telemetry = app->control_plane().telemetry();
  EXPECT_TRUE(telemetry.edge("gateway", "frontend").has_value());
  EXPECT_TRUE(telemetry.edge("frontend", "details").has_value());
  EXPECT_TRUE(telemetry.edge("frontend", "reviews").has_value());
  EXPECT_TRUE(telemetry.edge("reviews", "ratings").has_value());
}

TEST_F(ElibraryFixture, TraceCoversAllHops) {
  get("/product/2");
  const auto& spans = app->control_plane().tracer().spans();
  ASSERT_FALSE(spans.empty());
  // All spans of this request share one trace id.
  const std::string trace_id = spans.front().trace_id;
  const auto trace = app->control_plane().tracer().trace(trace_id);
  // gateway out, frontend in/out/out, details in, reviews in/out,
  // ratings in = 8 spans.
  EXPECT_EQ(trace.size(), 8u);
}

// Message bytes are pooled blocks end to end: once one bulk request has
// warmed the pool, the next allocates no payload block at all (each hop
// serializes its head into a cached block and sends the body's own block;
// each receiver keeps the body by reference). Nor does it copy a body:
// what it copies end to end is less than one LS component.
TEST(ElibraryPayloadPool, SteadyStateLiRequestAllocatesNoBlocks) {
  sim::Simulator sim;
  Elibrary app(sim, ElibraryOptions{});  // 8 KiB components, 200x LI
  mesh::HttpClientPool pool(sim, app.client_pod().transport(),
                            app.gateway_address(), {});
  const auto li = [&] {
    http::HttpRequest request;
    request.path = "/analytics/7";
    request.headers.set(http::headers::kHost, "frontend");
    std::optional<http::HttpResponse> out;
    pool.request(std::move(request),
                 [&](std::optional<http::HttpResponse> response,
                     const std::string&) { out = std::move(response); });
    sim.run_until(sim.now() + sim::seconds(10));
    return out;
  };
  {
    // Dropped before measuring: its body still holds a wire block.
    const auto warm = li();
    ASSERT_TRUE(warm.has_value());
    ASSERT_EQ(warm->body.size(), app.expected_li_body_bytes());
  }
  const net::PayloadPoolStats before = net::payload_pool_stats();
  const auto again = li();
  const net::PayloadPoolStats after = net::payload_pool_stats();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->body.size(), app.expected_li_body_bytes());
  EXPECT_EQ(after.pool_misses, before.pool_misses);
  EXPECT_EQ(after.unpooled, before.unpooled);
  EXPECT_GT(after.pool_hits, before.pool_hits);
  EXPECT_LT(after.bytes_copied - before.bytes_copied,
            ElibraryOptions{}.component_bytes);
}

}  // namespace
}  // namespace meshnet::app
