// Mesh resilience features (paper §2: "retrying requests and implementing
// a 'circuit breaker' pattern to avoid underperforming instances").
//
// A two-replica service where one replica starts failing mid-run. Shows:
//   phase 1  both replicas healthy - round robin spreads traffic;
//   phase 2  replica v2 starts returning 500s - retries mask the
//            failures, then the circuit breaker ejects v2 entirely;
//   phase 3  v2 recovers - the half-open probe re-admits it.
//
//   ./resilience

#include <cstdio>
#include <optional>

#include "app/mesh_builder.h"
#include "mesh/http_client.h"
#include "util/flags.h"

using namespace meshnet;

int main(int, char**) {
  sim::Simulator sim;

  // Pods, sidecars and policy come from a spec; "client" is a
  // sidecar-fronted pod with no app (we drive its sidecar directly).
  cluster::MeshSpec spec;
  spec.nodes = {"node-a"};
  spec.policies.retry.max_retries = 2;
  spec.policies.breaker.consecutive_failures = 3;
  spec.policies.breaker.open_duration = sim::seconds(2);
  cluster::ServiceSpec client_spec;
  client_spec.name = "client";
  client_spec.port = 0;  // not a routable endpoint
  cluster::ServiceSpec server;
  server.name = "server";
  server.replicas = 2;
  server.port = 8080;
  spec.services = {client_spec, server};

  auto mesh = cluster::MeshBuilder(sim).build(std::move(spec));
  mesh::ControlPlane& control_plane = mesh->control_plane();
  control_plane.tracer().set_retention(0);
  mesh::Sidecar& client_sidecar = *control_plane.sidecar_for("client-v1");
  cluster::Pod& client_pod = *mesh->pod("client-v1");

  // The server apps are hand-built: the two replicas run different code
  // (v2 can be told to fail), which a per-service spec handler cannot
  // express.
  bool v2_failing = false;
  app::Microservice app_v1(sim, *mesh->pod("server-v1"),
                           [](const http::HttpRequest&) {
                             app::HandlerResult plan;
                             plan.response_bytes = 32;
                             return plan;
                           });
  app::Microservice app_v2(sim, *mesh->pod("server-v2"),
                           [&](const http::HttpRequest&) {
                             app::HandlerResult plan;
                             plan.response_bytes = 32;
                             if (v2_failing) plan.status = 500;
                             return plan;
                           });

  mesh::HttpClientPool client(sim, client_pod.transport(),
                              net::SocketAddress{client_pod.ip(), 15001}, {});

  auto run_phase = [&](const char* label, int count) {
    int ok = 0, failed = 0;
    for (int i = 0; i < count; ++i) {
      http::HttpRequest request;
      request.path = "/work";
      request.headers.set(http::headers::kHost, "server");
      client.request(std::move(request),
                     [&](std::optional<http::HttpResponse> response,
                         const std::string&) {
                       if (response && response->ok()) {
                         ++ok;
                       } else {
                         ++failed;
                       }
                     });
      sim.run_until(sim.now() + sim::milliseconds(100));
    }
    const mesh::CircuitBreaker* breaker =
        client_sidecar.breaker("server", "server-v2");
    std::printf(
        "%-28s ok=%3d failed=%2d  v1 served=%3llu v2 served=%3llu  "
        "retries=%llu  breaker(v2)=%s\n",
        label, ok, failed,
        static_cast<unsigned long long>(app_v1.requests_served()),
        static_cast<unsigned long long>(app_v2.requests_served()),
        static_cast<unsigned long long>(
            client_sidecar.stats().upstream_retries),
        breaker != nullptr
            ? std::string(mesh::circuit_state_name(breaker->state())).c_str()
            : "unused");
  };

  run_phase("phase 1: both healthy", 20);
  v2_failing = true;
  run_phase("phase 2: v2 returns 500s", 20);
  run_phase("phase 2b: breaker open", 20);
  v2_failing = false;
  sim.run_until(sim.now() + sim::seconds(3));  // past the open duration
  run_phase("phase 3: v2 recovered", 20);
  return 0;
}
