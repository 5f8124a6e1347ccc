// "Better visibility" (paper §3.2): the mesh reconstructs the
// application's internal structure from purely passive observation.
//
// Sends a few requests through the e-library and prints (a) the
// distributed trace tree of one request, hop by hop with per-span
// latency, and (b) the service call graph aggregated by telemetry —
// without touching a line of application code.
//
//   ./tracing_observability [--requests=5]

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "app/elibrary.h"
#include "mesh/http_client.h"
#include "util/flags.h"

using namespace meshnet;

namespace {

void print_span_tree(const std::vector<const mesh::Span*>& spans,
                     const std::string& parent_id, int depth) {
  for (const mesh::Span* span : spans) {
    if (span->parent_span_id != parent_id) continue;
    std::printf("  %*s%-10s %-28s %8.3f ms%s\n", depth * 2, "",
                span->service.c_str(), span->operation.c_str(),
                sim::to_milliseconds(span->duration()),
                span->error ? "  [ERROR]" : "");
    print_span_tree(spans, span->span_id, depth + 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  const int requests = static_cast<int>(
      flags.get_int_or("requests", 5, util::NumberRange::kPositive));

  sim::Simulator sim;
  app::ElibraryOptions options;
  options.component_bytes = 4096;
  options.analytics_multiplier = 20;
  app::Elibrary app(sim, options);

  mesh::HttpClientPool client(sim, app.client_pod().transport(),
                              app.gateway_address(), {});
  std::vector<std::string> failures;
  for (int i = 0; i < requests; ++i) {
    http::HttpRequest request;
    request.path = (i % 2 == 0 ? "/product/" : "/analytics/") +
                   std::to_string(i);
    request.headers.set(http::headers::kHost, "frontend");
    client.request(std::move(request),
                   [&](std::optional<http::HttpResponse> response,
                       const std::string& error) {
                     if (!response || !response->ok()) {
                       failures.push_back(error);
                     }
                   });
    sim.run_until(sim.now() + sim::seconds(5));
  }
  std::printf("sent %d requests, %zu failures\n\n", requests,
              failures.size());

  // (a) one full distributed trace.
  const mesh::Tracer& tracer = app.control_plane().tracer();
  if (!tracer.spans().empty()) {
    const std::string trace_id = tracer.spans().front().trace_id;
    const auto spans = tracer.trace(trace_id);
    std::printf("distributed trace %s (%zu spans):\n", trace_id.c_str(),
                spans.size());
    print_span_tree(spans, "", 0);
  }

  // (b) the service call graph, reconstructed from telemetry.
  std::printf("\nservice call graph (from sidecar telemetry):\n");
  const mesh::TelemetrySink& telemetry = app.control_plane().telemetry();
  for (const auto& [src, dst] : telemetry.edges()) {
    const auto edge = telemetry.edge(src, dst);
    if (!edge) continue;
    std::printf("  %-10s -> %-10s  %4llu requests  p50 %7.3f ms  "
                "p99 %7.3f ms  failures %llu\n",
                src.c_str(), dst.c_str(),
                static_cast<unsigned long long>(edge->requests),
                sim::to_milliseconds(
                    static_cast<sim::Duration>(edge->latency.percentile(50))),
                sim::to_milliseconds(
                    static_cast<sim::Duration>(edge->latency.percentile(99))),
                static_cast<unsigned long long>(edge->failures));
  }
  return failures.empty() ? 0 : 1;
}
