// ABL-SCAV — scavenger transport in isolation (paper §4.2 optimization b:
// "utilization of scavenger transport protocols for latency-insensitive
// requests", citing TCP-LP / LEDBAT / Proteus).
//
// Pure transport experiment, no mesh: two hosts share a 1 Gbps bottleneck
// with a large (bufferbloat-sized) FIFO queue. N bulk background flows
// run either Reno or LEDBAT while a foreground flow sends periodic small
// messages whose delivery latency is measured. Expected shape: with Reno
// backgrounds the standing queue inflates foreground latency by tens of
// ms; LEDBAT backgrounds keep queueing near the delay target while still
// consuming most of the idle capacity. One sweep point per (cc, flows).

#include <cstdio>
#include <deque>
#include <memory>
#include <vector>

#include "net/network.h"
#include "scenario.h"
#include "stats/table.h"
#include "stats/histogram.h"
#include "transport/transport_host.h"

namespace meshnet::bench {
namespace {

workload::PointMetrics run_once(transport::CcAlgorithm bg_cc, int bg_flows,
                                sim::Duration duration) {
  sim::Simulator sim;
  net::Network network(sim);
  const auto a = network.add_location("host-a");
  const auto b = network.add_location("host-b");
  // 1 Gbps bottleneck with a 9 MB (≈72 ms) drop-tail queue; fat reverse
  // path for ACKs.
  net::Link& bottleneck = network.add_link(
      a, b, 1e9, sim::microseconds(100),
      std::make_unique<net::FifoQdisc>(9'000'000), "bottleneck");
  network.add_link(b, a, 10e9, sim::microseconds(100), nullptr, "ack-path");
  const auto ip_a = net::make_ip(10, 0, 0, 1);
  const auto ip_b = net::make_ip(10, 0, 0, 2);
  network.attach_interface(ip_a, a);
  network.attach_interface(ip_b, b);
  transport::TransportHost host_a(sim, network, ip_a);
  transport::TransportHost host_b(sim, network, ip_b);

  // Sink: accept everything, count bytes.
  std::uint64_t bg_bytes = 0;
  host_b.listen(9000, [&](transport::Connection& conn) {
    conn.set_on_data([&](std::string_view data) { bg_bytes += data.size(); });
  });

  // Foreground receiver: track 16 KB message boundaries.
  std::deque<sim::Time> fg_send_times;
  stats::LogHistogram fg_latency(7);
  constexpr std::size_t kFgMessage = 16 * 1024;
  std::uint64_t fg_received = 0;
  host_b.listen(9001, [&](transport::Connection& conn) {
    conn.set_on_data([&](std::string_view data) {
      fg_received += data.size();
      while (fg_received >= kFgMessage && !fg_send_times.empty()) {
        fg_received -= kFgMessage;
        fg_latency.record(
            static_cast<std::uint64_t>(sim.now() - fg_send_times.front()));
        fg_send_times.pop_front();
      }
    });
  });

  // Background bulk flows: keep ~4 MB of backlog queued in the sender.
  std::vector<transport::Connection*> bg;
  for (int i = 0; i < bg_flows; ++i) {
    transport::ConnectionOptions options;
    options.mss = 8960;
    options.cc = bg_cc;
    bg.push_back(&host_a.connect({ip_b, 9000}, options));
  }
  const std::string chunk(1 << 20, 'b');
  std::function<void()> top_up = [&] {
    for (transport::Connection* conn : bg) {
      while (conn->send_backlog() < 4 * (1 << 20)) conn->send(chunk);
    }
    sim.schedule_after(sim::milliseconds(10), top_up);
  };
  sim.schedule_after(0, top_up);

  // Foreground: one small message every 50 ms on a Reno connection.
  transport::ConnectionOptions fg_options;
  fg_options.mss = 8960;
  transport::Connection& fg = host_a.connect({ip_b, 9001}, fg_options);
  const std::string fg_message(kFgMessage, 'f');
  std::function<void()> tick = [&] {
    fg_send_times.push_back(sim.now());
    fg.send(fg_message);
    sim.schedule_after(sim::milliseconds(50), tick);
  };
  sim.schedule_after(sim::milliseconds(500), tick);  // after bg ramp-up

  // Sample bottleneck backlog.
  double backlog_sum = 0.0;
  std::uint64_t backlog_samples = 0;
  std::function<void()> sample = [&] {
    backlog_sum += static_cast<double>(bottleneck.qdisc().backlog_bytes());
    ++backlog_samples;
    sim.schedule_after(sim::milliseconds(5), sample);
  };
  sim.schedule_after(0, sample);

  sim.run_until(duration);

  workload::PointMetrics metrics;
  metrics.scalars["fg_p50_ms"] = sim::to_milliseconds(
      static_cast<sim::Duration>(fg_latency.percentile(50)));
  metrics.scalars["fg_p99_ms"] = sim::to_milliseconds(
      static_cast<sim::Duration>(fg_latency.percentile(99)));
  metrics.scalars["bg_goodput_gbps"] =
      static_cast<double>(bg_bytes) * 8.0 / sim::to_seconds(duration) / 1e9;
  const double avg_backlog_bytes =
      backlog_samples ? backlog_sum / static_cast<double>(backlog_samples)
                      : 0.0;
  // Mean bottleneck backlog in time units.
  metrics.scalars["avg_queue_ms"] = avg_backlog_bytes * 8.0 / 1e9 * 1e3;
  metrics.counters["drops"] = bottleneck.qdisc().stats().dropped_packets;
  metrics.histograms["fg_latency_ns"] = fg_latency;
  return metrics;
}

}  // namespace

Outcome run_scavenger(const Args& args, workload::SweepRunner& runner) {
  const auto duration = args.duration();

  std::printf(
      "ABL-SCAV: background bulk flows (Reno vs LEDBAT scavenger) sharing a "
      "1 Gbps\nbottleneck with a periodic small-message foreground flow.\n\n");

  struct Point {
    transport::CcAlgorithm cc;
    int flows;
  };
  std::vector<Point> grid;
  for (const int flows : {1, 4}) {
    for (const auto cc :
         {transport::CcAlgorithm::kReno, transport::CcAlgorithm::kLedbat}) {
      grid.push_back({cc, flows});
    }
  }

  for (const Point point : grid) {
    const char* cc_name =
        point.cc == transport::CcAlgorithm::kReno ? "reno" : "ledbat";
    runner.add({{"cc", cc_name}, {"flows", std::to_string(point.flows)}},
               [point, duration] {
                 return run_once(point.cc, point.flows, duration);
               });
  }
  const workload::SweepResult sweep = runner.run();

  stats::Table table({"background", "flows", "fg p50 (ms)", "fg p99 (ms)",
                      "bg goodput (Gbps)", "avg queue (ms)", "drops"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const workload::PointMetrics& m = sweep.points[i].metrics;
    table.add_row(
        {grid[i].cc == transport::CcAlgorithm::kReno ? "reno" : "ledbat",
         std::to_string(grid[i].flows),
         stats::Table::num(m.scalars.at("fg_p50_ms"), 2),
         stats::Table::num(m.scalars.at("fg_p99_ms"), 2),
         stats::Table::num(m.scalars.at("bg_goodput_gbps"), 3),
         stats::Table::num(m.scalars.at("avg_queue_ms"), 2),
         std::to_string(m.counters.at("drops"))});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("expected shape: ledbat keeps the queue near its delay target "
              "(~2 ms), cutting\nforeground latency by an order of magnitude "
              "while still using idle capacity.\n");
  return {sweep, {}};
}

}  // namespace meshnet::bench
