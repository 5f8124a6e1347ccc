#include "workload/generator.h"

#include <cmath>
#include <utility>

namespace meshnet::workload {

OpenLoopGenerator::OpenLoopGenerator(sim::Simulator& sim,
                                     mesh::HttpClientPool& client,
                                     WorkloadSpec spec, std::uint64_t seed)
    : sim_(sim),
      client_(client),
      spec_(std::move(spec)),
      rng_(seed, "gen:" + spec_.name),
      recorder_(spec_.measure_start, spec_.measure_end) {}

sim::Duration OpenLoopGenerator::next_gap() {
  const double mean_s = 1.0 / spec_.rps;
  switch (spec_.arrival) {
    case ArrivalProcess::kUniformRandom:
      return sim::from_seconds(rng_.uniform(0.0, 2.0 * mean_s));
    case ArrivalProcess::kPoisson:
      return sim::from_seconds(rng_.exponential(mean_s));
    case ArrivalProcess::kConstant:
      return sim::from_seconds(mean_s);
  }
  return sim::from_seconds(mean_s);
}

void OpenLoopGenerator::start() { schedule_next(spec_.start); }

void OpenLoopGenerator::schedule_next(sim::Time from) {
  // A rate that is not > 0 (NaN included) has no gap distribution, and
  // neither has one whose 2/rps bound is not finite: send nothing.
  if (!(spec_.rps > 0.0) || !std::isfinite(2.0 / spec_.rps)) return;
  if (from >= spec_.end) return;
  // Compared as a gap, not as from + gap: a tiny rate's gap saturates at
  // the largest Duration, and the sum would overflow.
  const sim::Duration gap = next_gap();
  if (gap >= spec_.end - from) return;
  const sim::Time next = from + gap;
  sim_.schedule_at(next, [this, next] { arrive(next); });
}

void OpenLoopGenerator::arrive(sim::Time scheduled) {
  // Open loop: the next arrival is scheduled before this request's fate
  // is known.
  schedule_next(sim_.now());

  http::HttpRequest request = spec_.make_request(seq_++);
  ++sent_;
  if (arrival_observer_) arrival_observer_(scheduled);
  client_.request(std::move(request),
                  [this, scheduled](std::optional<http::HttpResponse> response,
                                    const std::string& /*error*/) {
                    const bool success = response && response->ok();
                    if (success) {
                      ++completed_;
                    } else {
                      ++failed_;
                    }
                    recorder_.record(scheduled, sim_.now(), success);
                    if (sample_observer_) {
                      sample_observer_(scheduled, sim_.now(), success);
                    }
                  });
}

ClosedLoopGenerator::ClosedLoopGenerator(sim::Simulator& sim,
                                         mesh::HttpClientPool& client,
                                         WorkloadSpec spec, int concurrency)
    : sim_(sim),
      client_(client),
      spec_(std::move(spec)),
      concurrency_(concurrency),
      recorder_(spec_.measure_start, spec_.measure_end) {}

void ClosedLoopGenerator::start() {
  for (int i = 0; i < concurrency_; ++i) issue_one();
}

void ClosedLoopGenerator::issue_one() {
  if (sim_.now() >= spec_.end) return;
  const sim::Time issued = sim_.now();
  http::HttpRequest request = spec_.make_request(seq_++);
  client_.request(std::move(request),
                  [this, issued](std::optional<http::HttpResponse> response,
                                 const std::string& /*error*/) {
                    const bool success = response && response->ok();
                    if (success) {
                      ++completed_;
                    } else {
                      ++failed_;
                    }
                    recorder_.record(issued, sim_.now(), success);
                    issue_one();
                  });
}

std::function<http::HttpRequest(std::uint64_t)> simple_get_factory(
    std::string host, std::string path_prefix, std::uint64_t modulo) {
  return [host = std::move(host), path_prefix = std::move(path_prefix),
          modulo](std::uint64_t i) {
    http::HttpRequest request;
    request.method = "GET";
    request.path = path_prefix + "/" + std::to_string(i % modulo);
    request.headers.set(http::headers::Id::kHost, host);
    return request;
  };
}

}  // namespace meshnet::workload
