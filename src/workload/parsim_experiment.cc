#include "workload/parsim_experiment.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "net/qdisc.h"
#include "obs/metric_registry.h"
#include "sim/parallel.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "util/hash.h"

namespace meshnet::workload {

namespace {

/// Per-visit compute window: the deterministic hash of (service, request)
/// maps into [kComputeMin, kComputeMax].
constexpr sim::Duration kComputeMin = sim::microseconds(200);
constexpr sim::Duration kComputeMax = sim::microseconds(800);
constexpr auto kComputeSpan =
    static_cast<std::uint64_t>(kComputeMax - kComputeMin + 1);

/// On-wire size per edge crossing.
constexpr std::uint32_t kRequestBytes = 2048;

struct Arrival {
  std::uint64_t request_id = 0;
  sim::Time start = 0;  ///< root arrival time, carried end to end
  int src = -1;         ///< sending service id (-1 = root generator)
};

/// One simulated service: canonical same-timestamp ingestion in front of
/// a single-server FIFO with hash-deterministic compute, fanning out to
/// its children over per-edge links at completion.
class Service {
 public:
  int id = 0;
  bool leaf = false;
  sim::Simulator* sim = nullptr;
  std::vector<net::Link*> out_links;

  // Cached registry cells (shard-local registry; no locking needed).
  obs::Counter* visits = nullptr;
  obs::Counter* leaf_done = nullptr;
  obs::Histogram* latency = nullptr;

  std::uint64_t run_seed = 0;

  void deliver(std::uint64_t request_id, sim::Time start, int src) {
    visits->inc();
    pending_.push_back(Arrival{request_id, start, src});
    if (!drain_scheduled_) {
      // The drain is scheduled *during* the first same-timestamp
      // delivery, so its seq is higher than every delivery at this
      // timestamp (all were scheduled strictly earlier — every delay in
      // PARSIM is positive). It therefore observes the complete batch.
      drain_scheduled_ = true;
      sim->schedule_at(sim->now(), [this] { drain(); });
    }
  }

 private:
  void drain() {
    drain_scheduled_ = false;
    std::sort(pending_.begin(), pending_.end(),
              [](const Arrival& a, const Arrival& b) {
                return std::tie(a.request_id, a.src) <
                       std::tie(b.request_id, b.src);
              });
    for (Arrival& arrival : pending_) queue_.push_back(arrival);
    pending_.clear();
    if (!busy_ && !queue_.empty()) start_next();
  }

  void start_next() {
    busy_ = true;
    const Arrival job = queue_.front();
    queue_.pop_front();
    // A pure function of (seed, service, request), so it does not depend
    // on the order services happen to process requests in — one of the
    // three shard-invariance rules.
    const sim::Duration compute =
        kComputeMin +
        static_cast<sim::Duration>(
            util::splitmix64(run_seed ^
                             util::splitmix64(static_cast<std::uint64_t>(id)) ^
                             job.request_id) %
            kComputeSpan);
    sim->schedule_after(compute, [this, job] { complete(job); });
  }

  void complete(const Arrival& job) {
    if (leaf) {
      latency->record(
          static_cast<std::uint64_t>((sim->now() - job.start) /
                                     sim::kMicrosecond));
      leaf_done->inc();
    } else {
      for (net::Link* link : out_links) {
        net::Packet packet;
        packet.flow.src_ip = static_cast<net::IpAddress>(id);
        packet.seq = job.request_id;
        packet.sent_at = job.start;
        packet.header_bytes = kRequestBytes;
        link->send(std::move(packet));
      }
    }
    busy_ = false;
    if (!queue_.empty()) start_next();
  }

  std::vector<Arrival> pending_;  ///< same-timestamp ingestion buffer
  bool drain_scheduled_ = false;
  std::deque<Arrival> queue_;  ///< canonical-order FIFO
  bool busy_ = false;
};

/// Open-loop Poisson source in front of a root service. Each root owns
/// its own named stream, so the arrival sequence is independent of shard
/// and thread counts.
struct Root {
  Service* service = nullptr;
  sim::RngStream rng;
  obs::Counter* generated = nullptr;
  double rps = 1.0;
  sim::Time end = 0;
  std::uint64_t next_request = 0;

  Root(Service* svc, std::uint64_t seed)
      : service(svc),
        rng(seed, "parsim-arrivals:" + std::to_string(svc->id)) {}

  void schedule_next() {
    const sim::Duration gap = std::max<sim::Duration>(
        1, sim::from_seconds(rng.exponential(1.0 / rps)));
    const sim::Time when = service->sim->now() + gap;
    if (when > end) return;  // arrival window closed; the run then drains
    service->sim->schedule_at(when, [this] {
      generated->inc();
      const std::uint64_t request_id =
          (static_cast<std::uint64_t>(service->id) << 40) | next_request++;
      service->deliver(request_id, service->sim->now(), -1);
      schedule_next();
    });
  }
};

}  // namespace

cluster::FanoutSpec ParsimConfig::default_topology() {
  cluster::FanoutSpec spec;
  spec.layer_widths = {4, 8, 16, 36};  // 64 services
  spec.fanout = 3;
  // The band sets the engine's lookahead (min cut-edge latency): 2-4 ms
  // keeps epochs wide enough that each shard executes tens-to-hundreds
  // of events per barrier, which is what amortizes synchronization on
  // multi-core hosts.
  spec.min_edge_latency = sim::milliseconds(2);
  spec.max_edge_latency = sim::milliseconds(4);
  spec.edge_rate_bps = 10e9;
  return spec;
}

PointMetrics run_parsim_experiment(const ParsimConfig& config) {
  const cluster::GenTopology topology =
      cluster::generate_layered_fanout(config.topology, config.seed);
  const cluster::TopologyPartition partition =
      cluster::partition_topology(topology, config.shards);

  sim::ParallelEngineOptions engine_options;
  engine_options.shards = partition.shards;
  engine_options.lookahead = partition.lookahead;
  engine_options.threads = config.threads;
  engine_options.respect_worker_budget = false;  // see ParsimConfig::threads
  sim::ParallelEngine engine(engine_options);

  std::vector<std::unique_ptr<obs::MetricRegistry>> registries;
  registries.reserve(static_cast<std::size_t>(partition.shards));
  for (int s = 0; s < partition.shards; ++s) {
    registries.push_back(std::make_unique<obs::MetricRegistry>());
  }

  std::vector<std::unique_ptr<Service>> services;
  services.reserve(topology.services.size());
  for (const cluster::GenService& spec : topology.services) {
    const int shard = partition.shard_of[static_cast<std::size_t>(spec.id)];
    obs::MetricRegistry& registry = *registries[static_cast<std::size_t>(shard)];
    auto service = std::make_unique<Service>();
    service->id = spec.id;
    service->leaf = spec.out_edges.empty();
    service->sim = &engine.shard(shard);
    service->visits = &registry.counter(
        "parsim_visits", {{"layer", std::to_string(spec.layer)}});
    if (service->leaf) {
      service->leaf_done = &registry.counter("parsim_leaf_completions");
      // Microseconds, deliberately: LogHistogram keeps double sum/sum-sq
      // accumulators, and with us-scale values every partial sum stays
      // below 2^53 — exactly representable, so per-shard accumulation
      // merges to the same bits in any order. Nanosecond squares would
      // overflow the mantissa and make shard-count invariance bucket-
      // exact but not bit-exact.
      service->latency = &registry.histogram("parsim_e2e_latency_us");
    }
    service->run_seed = config.seed;
    services.push_back(std::move(service));
  }

  std::vector<std::unique_ptr<net::Link>> links;
  links.reserve(topology.edges.size());
  for (const cluster::GenEdge& edge : topology.edges) {
    const int src_shard = partition.shard_of[static_cast<std::size_t>(edge.from)];
    const int dst_shard = partition.shard_of[static_cast<std::size_t>(edge.to)];
    sim::Simulator& src_sim = engine.shard(src_shard);
    auto link = std::make_unique<net::Link>(
        src_sim,
        "edge:" + std::to_string(edge.from) + "-" + std::to_string(edge.to),
        edge.rate_bps, edge.latency, std::make_unique<net::FifoQdisc>());
    Service* dst = services[static_cast<std::size_t>(edge.to)].get();
    if (src_shard == dst_shard) {
      link->set_sink([dst](net::Packet packet) {
        dst->deliver(packet.seq, packet.sent_at,
                     static_cast<int>(packet.flow.src_ip));
      });
    } else {
      // Cut edge: serialize locally, then cross at serialization-complete
      // time via ParallelEngine::post. Only PODs cross the thread boundary
      // (the packet — and with it any pooled payload — dies on the
      // source shard).
      sim::ParallelEngine* engine_ptr = &engine;
      sim::Simulator* src_sim_ptr = &src_sim;
      link->set_handoff([engine_ptr, src_sim_ptr, src_shard, dst_shard, dst](
                            net::Packet packet, sim::Duration propagation) {
        const std::uint64_t request_id = packet.seq;
        const sim::Time start = packet.sent_at;
        const int src_id = static_cast<int>(packet.flow.src_ip);
        engine_ptr->post(src_shard, dst_shard,
                         src_sim_ptr->now() + propagation,
                         [dst, request_id, start, src_id] {
                           dst->deliver(request_id, start, src_id);
                         });
      });
    }
    services[static_cast<std::size_t>(edge.from)]->out_links.push_back(
        link.get());
    links.push_back(std::move(link));
  }

  std::vector<std::unique_ptr<Root>> roots;
  for (const cluster::GenService& spec : topology.services) {
    if (spec.layer != 0) continue;
    Service* service = services[static_cast<std::size_t>(spec.id)].get();
    const int shard = partition.shard_of[static_cast<std::size_t>(spec.id)];
    auto root = std::make_unique<Root>(service, config.seed);
    root->generated = &registries[static_cast<std::size_t>(shard)]->counter(
        "parsim_requests_generated");
    root->rps = config.root_rps;
    root->end = config.duration;
    root->schedule_next();
    roots.push_back(std::move(root));
  }

  // Arrivals stop at config.duration; one extra second drains in-flight
  // requests (per-visit residence is ~ms and utilization is low, so the
  // system empties deterministically long before the deadline).
  engine.run_until(config.duration + sim::seconds(1));

  obs::MetricRegistry merged;
  for (const auto& registry : registries) merged.merge(*registry);

  PointMetrics metrics;
  metrics.snapshot = merged.snapshot();
  const obs::MetricsSnapshot& snapshot = metrics.snapshot;
  metrics.counters["requests_generated"] =
      snapshot.counter_sum("parsim_requests_generated");
  metrics.counters["leaf_completions"] =
      snapshot.counter_sum("parsim_leaf_completions");
  metrics.counters["service_visits"] = snapshot.counter_sum("parsim_visits");
  report_e2e_latency_us(metrics, "parsim_e2e_latency_us");
  metrics.counters["services"] =
      static_cast<std::uint64_t>(topology.service_count());
  metrics.counters["edges"] = topology.edges.size();

  // Engine surface: everything below is named engine_* (or is the
  // harness's "events" throughput counter) so shard comparisons can
  // exclude it wholesale.
  metrics.counters["events"] = engine.events_executed();
  metrics.counters["engine_shards"] =
      static_cast<std::uint64_t>(partition.shards);
  metrics.counters["engine_cut_edges"] =
      static_cast<std::uint64_t>(partition.cut_edges);
  metrics.counters["engine_lookahead_ns"] =
      static_cast<std::uint64_t>(partition.lookahead);
  const sim::ParallelEngineStats engine_stats = engine.stats();
  metrics.counters["engine_epochs"] = engine_stats.epochs;
  metrics.counters["engine_messages"] = engine_stats.messages;
  const sim::LoopStats loop = engine.merged_loop_stats();
  metrics.counters["engine_scheduled"] = loop.scheduled;
  metrics.counters["engine_cancelled"] = loop.cancelled;
  metrics.counters["engine_wheel_pushes"] = loop.wheel_pushes;
  metrics.counters["engine_heap_pushes"] = loop.heap_pushes;
  metrics.counters["engine_due_merges"] = loop.due_merges;
  metrics.counters["engine_task_heap_allocs"] = loop.task_heap_allocs;
  metrics.counters["engine_max_queue_depth"] = loop.max_queue_depth;
  return metrics;
}

void report_e2e_latency_us(PointMetrics& metrics, std::string_view series) {
  stats::LogHistogram e2e{7};
  if (const obs::SeriesSnapshot* latency = metrics.snapshot.find(series)) {
    e2e = latency->histogram;
  }
  metrics.scalars["e2e_p50_ms"] =
      static_cast<double>(e2e.percentile(50.0)) / 1000.0;
  metrics.scalars["e2e_p99_ms"] =
      static_cast<double>(e2e.percentile(99.0)) / 1000.0;
  metrics.scalars["e2e_mean_ms"] = e2e.mean() / 1000.0;
  metrics.histograms["e2e_latency_us"] = std::move(e2e);
}

}  // namespace meshnet::workload
