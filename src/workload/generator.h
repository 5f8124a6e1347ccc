#pragma once

// The open-loop load generator (the wrk2 stand-in, DESIGN.md §2).
//
// It emits requests on a schedule independent of completions — the
// paper's methodology ("uniformly random inter-arrival times", average
// RPS swept 10..50).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "http/message.h"
#include "mesh/http_client.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "workload/recorder.h"

namespace meshnet::workload {

enum class ArrivalProcess {
  kUniformRandom,  ///< U(0, 2/rps) gaps — the paper's choice
  kPoisson,        ///< exponential gaps
  kConstant,       ///< fixed 1/rps gaps
};

struct WorkloadSpec {
  std::string name = "workload";
  double rps = 10.0;
  ArrivalProcess arrival = ArrivalProcess::kUniformRandom;
  /// Builds the i-th request (i starts at 0).
  std::function<http::HttpRequest(std::uint64_t)> make_request;
  sim::Time start = 0;
  sim::Time end = 0;            ///< last arrival strictly before this
  sim::Time measure_start = 0;  ///< warm-up boundary
  sim::Time measure_end = 0;    ///< cool-down boundary
};

class OpenLoopGenerator {
 public:
  /// Observes every arrival, with its scheduled (intended) send time.
  using ArrivalObserver = std::function<void(sim::Time scheduled)>;
  /// Observes every completion (success or failure). Fires in addition
  /// to the internal recorder — experiments use it to bucket samples
  /// into extra windows (e.g. before/during/after a fault).
  using SampleObserver = std::function<void(sim::Time scheduled,
                                            sim::Time completed,
                                            bool success)>;

  OpenLoopGenerator(sim::Simulator& sim, mesh::HttpClientPool& client,
                    WorkloadSpec spec, std::uint64_t seed);

  /// Schedules the first arrival. Call once. A rate that is not > 0
  /// (NaN included) sends nothing.
  void start();

  void set_arrival_observer(ArrivalObserver observer) {
    arrival_observer_ = std::move(observer);
  }
  void set_sample_observer(SampleObserver observer) {
    sample_observer_ = std::move(observer);
  }

  const WorkloadSpec& spec() const noexcept { return spec_; }
  const LatencyRecorder& recorder() const noexcept { return recorder_; }
  std::uint64_t sent() const noexcept { return sent_; }
  std::uint64_t completed() const noexcept { return completed_; }
  std::uint64_t failed() const noexcept { return failed_; }
  std::uint64_t outstanding() const noexcept { return sent_ - completed_ - failed_; }

 private:
  void arrive(sim::Time scheduled);
  /// Schedules the arrival one gap after `from` if it falls before
  /// spec.end.
  void schedule_next(sim::Time from);
  sim::Duration next_gap();

  sim::Simulator& sim_;
  mesh::HttpClientPool& client_;
  WorkloadSpec spec_;
  sim::RngStream rng_;
  LatencyRecorder recorder_;
  ArrivalObserver arrival_observer_;
  SampleObserver sample_observer_;
  std::uint64_t seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
};

/// Convenience: a GET request factory for a fixed path prefix; request i
/// targets "<prefix>/<i % modulo>".
std::function<http::HttpRequest(std::uint64_t)> simple_get_factory(
    std::string host, std::string path_prefix, std::uint64_t modulo = 100);

}  // namespace meshnet::workload
