#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string_view>

#include "app/mesh_builder.h"
#include "http/codec.h"
#include "mesh/http_client.h"
#include "mesh/telemetry.h"
#include "net/link.h"
#include "net/network.h"
#include "net/payload.h"
#include "net/qdisc.h"
#include "sim/simulator.h"
#include "transport/transport_host.h"
#include "workload/bench_harness.h"

namespace meshbench {

namespace {

using namespace meshnet;

constexpr int kRounds = 7;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `round` once to warm pools, caches and interned series, then
/// kRounds timed rounds. `round` returns the operations it performed.
template <class Round>
ProbeResult measure(Round&& round) {
  round();
  std::vector<double> ns_per_op;
  std::uint64_t allocs = 0;
  std::uint64_t ops = 0;
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t a0 = workload::bench_allocation_count();
    const std::int64_t t0 = now_ns();
    const std::uint64_t n = std::max<std::uint64_t>(1, round());
    const std::int64_t t1 = now_ns();
    allocs += workload::bench_allocation_count() - a0;
    ops += n;
    ns_per_op.push_back(static_cast<double>(t1 - t0) /
                        static_cast<double>(n));
  }
  std::sort(ns_per_op.begin(), ns_per_op.end());
  ProbeResult result;
  result.ns = ns_per_op[ns_per_op.size() / 2];
  result.allocs = static_cast<double>(allocs) / static_cast<double>(ops);
  return result;
}

std::uint64_t delivered_packets(net::Network& network) {
  std::uint64_t total = 0;
  for (const net::Link* link : network.links()) {
    total += link->stats().delivered_packets;
  }
  return total;
}

http::HttpRequest workload_request(const ProbeShape& shape) {
  http::HttpRequest request;
  request.path = "/r/svc-0/1234";
  for (const auto& [name, value] : shape.request_headers) {
    request.headers.set(name, value);
  }
  return request;
}

http::HttpResponse workload_response(std::size_t body_bytes) {
  http::HttpResponse response;
  response.headers.set("x-served-by", "svc-0-sidecar");
  response.body.assign(body_bytes, 'x');
  return response;
}

/// Feeds `wire` to `parser` in MSS-sized chunks, as a connection would.
void feed_chunked(http::HttpParser& parser, std::string_view wire,
                  std::size_t chunk) {
  for (std::size_t at = 0; at < wire.size(); at += chunk) {
    parser.feed(wire.substr(at, chunk));
  }
}

}  // namespace

ProbeResult probe_sim() {
  sim::Simulator sim;
  net::Packet packet;
  packet.payload = net::Payload::filled(64, 'x');
  std::uint64_t sink = 0;
  // Shallow bursts, like the packet path: a few pending events at a time.
  constexpr std::uint64_t kBursts = 2500;
  constexpr std::uint64_t kBurst = 8;
  ProbeResult result = measure([&] {
    for (std::uint64_t b = 0; b < kBursts; ++b) {
      for (std::uint64_t i = 0; i < kBurst; ++i) {
        sim.schedule_after(static_cast<sim::Duration>(i),
                           [packet, &sink] { sink += packet.seq + 1; });
      }
      sim.run();
    }
    return kBursts * kBurst;
  });
  if (sink == 0) std::fprintf(stderr, "probe_sim: no events fired\n");
  return result;
}

ProbeResult probe_net(const ProbeShape& shape) {
  sim::Simulator sim;
  net::Link link(sim, "probe", 100e9, sim::microseconds(1),
                 std::make_unique<net::FifoQdisc>(std::uint64_t{1} << 30));
  std::uint64_t delivered = 0;
  link.set_sink([&](net::Packet) { ++delivered; });
  const net::Payload payload = net::Payload::filled(shape.mss, 'x');
  constexpr std::uint64_t kBursts = 500;
  constexpr std::uint64_t kBurst = 8;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  ProbeResult result = measure([&] {
    const std::uint64_t e0 = sim.events_executed();
    for (std::uint64_t b = 0; b < kBursts; ++b) {
      for (std::uint64_t i = 0; i < kBurst; ++i) {
        net::Packet packet;
        packet.payload = payload;
        link.send(std::move(packet));
      }
      sim.run();
    }
    events += sim.events_executed() - e0;
    packets += kBursts * kBurst;
    return kBursts * kBurst;
  });
  result.per_op["events"] =
      static_cast<double>(events) / static_cast<double>(packets);
  if (delivered == 0) std::fprintf(stderr, "probe_net: nothing delivered\n");
  return result;
}

ProbeResult probe_transport(const ProbeShape& shape,
                            std::size_t message_bytes) {
  sim::Simulator sim;
  net::Network network(sim);
  const net::LocationId a = network.add_location("a");
  const net::LocationId b = network.add_location("b");
  network.add_duplex_link(a, b, 15e9, sim::microseconds(20));
  const net::IpAddress ip_a = net::make_ip(10, 0, 0, 1);
  const net::IpAddress ip_b = net::make_ip(10, 0, 0, 2);
  network.attach_interface(ip_a, a, "a");
  network.attach_interface(ip_b, b, "b");
  transport::TransportHost host_a(sim, network, ip_a);
  transport::TransportHost host_b(sim, network, ip_b);
  std::uint64_t received = 0;
  host_b.listen(9080, [&](transport::Connection& conn) {
    conn.set_on_data([&](std::string_view data) { received += data.size(); });
  });
  transport::ConnectionOptions options;
  options.mss = shape.mss;
  transport::Connection& conn =
      host_a.connect(net::SocketAddress{ip_b, 9080}, options);
  const std::string message(message_bytes, 'x');
  const std::uint64_t segments_per_message = std::max<std::uint64_t>(
      1, (message_bytes + shape.mss - 1) / shape.mss);
  const std::uint64_t messages =
      std::max<std::uint64_t>(1, 4000 / segments_per_message);
  std::uint64_t segments = 0;
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
  const auto sent = [&] {
    return host_a.stats().segments_sent + host_b.stats().segments_sent;
  };
  ProbeResult result = measure([&] {
    const std::uint64_t s0 = sent();
    const std::uint64_t p0 = delivered_packets(network);
    const std::uint64_t e0 = sim.events_executed();
    for (std::uint64_t m = 0; m < messages; ++m) {
      conn.send(message);
      sim.run_until(sim.now() + sim::seconds(10));
    }
    const std::uint64_t n = sent() - s0;
    segments += n;
    packets += delivered_packets(network) - p0;
    events += sim.events_executed() - e0;
    return n;
  });
  result.per_op["packets"] =
      static_cast<double>(packets) / static_cast<double>(segments);
  result.per_op["events"] =
      static_cast<double>(events) / static_cast<double>(segments);
  if (received == 0) std::fprintf(stderr, "probe_transport: no data\n");
  return result;
}

ProbeResult probe_http_parse_small(const ProbeShape& shape) {
  const std::string wire = http::serialize_request(workload_request(shape));
  http::HttpParser parser(http::ParserKind::kRequest);
  std::uint64_t parsed = 0;
  parser.set_on_request([&](http::HttpRequest) { ++parsed; });
  constexpr std::uint64_t kOps = 20000;
  ProbeResult result = measure([&] {
    for (std::uint64_t i = 0; i < kOps; ++i) parser.feed(wire);
    return kOps;
  });
  result.per_op["bytes"] = static_cast<double>(wire.size());
  if (parsed == 0) std::fprintf(stderr, "probe_http: nothing parsed\n");
  return result;
}

ProbeResult probe_http_parse_response(const ProbeShape& shape,
                                      std::size_t body_bytes) {
  const std::string wire =
      http::serialize_response(workload_response(body_bytes));
  http::HttpParser parser(http::ParserKind::kResponse);
  std::uint64_t parsed = 0;
  parser.set_on_response([&](http::HttpResponse) { ++parsed; });
  const std::uint64_t ops =
      std::max<std::uint64_t>(1, (std::uint64_t{64} << 20) / wire.size());
  ProbeResult result = measure([&] {
    for (std::uint64_t i = 0; i < ops; ++i) {
      feed_chunked(parser, wire, shape.mss);
    }
    return ops;
  });
  result.per_op["bytes"] = static_cast<double>(wire.size());
  if (parsed == 0) std::fprintf(stderr, "probe_http: nothing parsed\n");
  return result;
}

ProbeResult probe_http_serialize(const ProbeShape& shape) {
  const http::HttpRequest request = workload_request(shape);
  std::uint64_t bytes = 0;
  constexpr std::uint64_t kOps = 20000;
  ProbeResult result = measure([&] {
    for (std::uint64_t i = 0; i < kOps; ++i) {
      bytes += http::serialize_request(request).size();
    }
    return kOps;
  });
  if (bytes == 0) std::fprintf(stderr, "probe_http: nothing serialized\n");
  return result;
}

ProbeResult probe_mesh(const ProbeShape& shape) {
  sim::Simulator sim;
  cluster::MeshSpec spec;
  spec.policies = shape.policies;
  // Inline push channel: the probe times the request path only.
  spec.policies.cp.push_latency_base = 0;
  spec.policies.cp.push_latency_jitter = 0;
  spec.policies.cp.push_loss = 0.0;
  spec.gateway.enabled = true;
  spec.gateway.pod_name = "gateway";
  const std::size_t body = shape.small_body;
  cluster::ServiceSpec front;
  front.name = "svc-a";
  front.calls = {"svc-b"};
  front.handler = [body](const http::HttpRequest& request) {
    app::HandlerResult plan;
    plan.processing_delay = sim::microseconds(100);
    plan.response_bytes = body;
    plan.calls.push_back(app::SubCall{"svc-b", request.path});
    return plan;
  };
  cluster::ServiceSpec leaf;
  leaf.name = "svc-b";
  leaf.handler = [body](const http::HttpRequest&) {
    app::HandlerResult plan;
    plan.processing_delay = sim::microseconds(100);
    plan.response_bytes = body;
    return plan;
  };
  spec.services.push_back(std::move(front));
  spec.services.push_back(std::move(leaf));
  spec.external_pods.push_back(cluster::ExternalPodSpec{
      "loadgen", "", cluster::PodOptions{40e9, sim::microseconds(50), {}}});
  cluster::MeshBuilder builder(sim);
  std::string error;
  std::unique_ptr<cluster::BuiltMesh> mesh = builder.build(std::move(spec),
                                                           &error);
  if (mesh == nullptr) {
    std::fprintf(stderr, "probe_mesh: %s\n", error.c_str());
    return {};
  }
  mesh->control_plane().tracer().set_retention(0);
  mesh::HttpClientPool::Options pool_options;
  pool_options.connection.mss = shape.mss;
  mesh::HttpClientPool pool(sim, mesh->pod("loadgen")->transport(),
                            mesh->gateway_address(), pool_options, "probe");
  mesh::TelemetrySink& telemetry = mesh->control_plane().telemetry();
  cluster::Cluster& cluster = mesh->cluster();
  const auto segments_sent = [&] {
    std::uint64_t segments = 0;
    for (const auto& pod : cluster.pods()) {
      segments += pod->transport().stats().segments_sent;
    }
    return segments;
  };

  constexpr int kRequests = 100;
  std::uint64_t next_id = 0;
  std::uint64_t failed = 0;
  std::uint64_t hops = 0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t segments = 0;
  ProbeResult result = measure([&] {
    const std::uint64_t h0 = telemetry.total_requests();
    const std::uint64_t e0 = sim.events_executed();
    const std::uint64_t p0 = delivered_packets(cluster.network());
    const std::uint64_t s0 = segments_sent();
    // Spaced 2 ms apart so requests never queue behind each other.
    for (int i = 0; i < kRequests; ++i) {
      sim.schedule_after(sim::milliseconds(2) * i, [&] {
        http::HttpRequest request;
        request.path = "/r/svc-a/" + std::to_string(next_id);
        request.headers.set(http::headers::kHost, "svc-a");
        char id[32];
        std::snprintf(id, sizeof id, "probe-%010llu",
                      static_cast<unsigned long long>(next_id++));
        request.set_request_id(id);
        pool.request(std::move(request),
                     [&](std::optional<http::HttpResponse> response,
                         const std::string&) {
                       if (!response || !response->ok()) ++failed;
                     });
      });
    }
    sim.run_until(sim.now() + sim::milliseconds(2) * kRequests +
                  sim::milliseconds(500));
    const std::uint64_t n = telemetry.total_requests() - h0;
    hops += n;
    events += sim.events_executed() - e0;
    packets += delivered_packets(cluster.network()) - p0;
    segments += segments_sent() - s0;
    return n;
  });
  const double per = static_cast<double>(std::max<std::uint64_t>(1, hops));
  result.per_op["events"] = static_cast<double>(events) / per;
  result.per_op["packets"] = static_cast<double>(packets) / per;
  result.per_op["segments"] = static_cast<double>(segments) / per;
  if (failed > 0) {
    std::fprintf(stderr, "probe_mesh: %llu requests failed\n",
                 static_cast<unsigned long long>(failed));
  }
  return result;
}

ProbeResult probe_cp(mesh::ControlPlane& cp, const std::string& victim_pod) {
  mesh::ControlPlaneConfig& channel = cp.policies().cp;
  channel.push_latency_base = 0;
  channel.push_latency_jitter = 0;
  channel.push_loss = 0.0;
  cluster::Cluster& cluster = cp.cluster();
  const std::uint64_t sidecars = cp.sidecars().size();
  return measure([&] {
    cluster.crash_pod(victim_pod);
    cluster.deregister_pod(victim_pod);
    cp.push_config();
    cluster.restart_pod(victim_pod);
    cp.push_config();
    return 2 * sidecars;
  });
}

ProbeResult probe_obs(const ProbeShape& shape) {
  obs::MetricRegistry registry;
  mesh::TelemetrySink sink(&registry);
  mesh::RequestSample sample;
  sample.source = shape.edge_source;
  sample.upstream = shape.edge_upstream;
  sample.status = 200;
  sample.latency = 1'500'000;
  sample.priority = mesh::TrafficClass::kLatencySensitive;
  constexpr std::uint64_t kOps = 20000;
  ProbeResult result = measure([&] {
    for (std::uint64_t i = 0; i < kOps; ++i) {
      sample.latency += 1;
      sink.record_request(sample);
    }
    return kOps;
  });
  if (sink.total_requests() == 0) {
    std::fprintf(stderr, "probe_obs: nothing recorded\n");
  }
  return result;
}

}  // namespace meshbench
