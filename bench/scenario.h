#pragma once

// A scenario is one reproduced table or figure, run by name with
// `meshsim --scenario=NAME`: a Scenario value in bench/meshsim.cpp (its
// defaults and flag table) and a run function in scenario_<name>.cc that
// adds the arms, runs them and prints the results. The runner owns the
// rest: flag parsing, the report, the baseline comparison, the
// acceptance block and the exit code.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "app/mesh_builder.h"
#include "faults/chaos.h"
#include "workload/bench_harness.h"
#include "workload/generator.h"

namespace meshnet::bench {

/// How a flag parses, and how the report `config` records it.
enum class FlagKind {
  kInt,          ///< one integer >= min; reported as printed
  kInts,         ///< comma-separated integers >= min; reported as typed
  kReal,         ///< real, > 0 if min is 1 else >= 0; std::to_string
  kRealRounded,  ///< as kReal; reported as a whole number
  kSwitch,       ///< --name or --name=true/false; never reported
};

struct Flag {
  std::string_view name;
  FlagKind kind;
  int min;
  std::string_view fallback;
  std::string_view report_key = {};  ///< empty = not in the report
};

/// The harness options plus the scenario's flags, all parsed (a bad value
/// exits 2) before any arm runs.
class Args {
 public:
  Args(workload::HarnessOptions harness, const std::vector<Flag>& flags);

  const workload::HarnessOptions& harness() const { return harness_; }
  std::uint64_t seed() const { return harness_.seed; }
  std::int64_t duration_s() const { return harness_.duration_s; }
  sim::Duration duration() const { return sim::seconds(duration_s()); }
  int count(std::string_view flag) const { return find(flag).ints.front(); }
  const std::vector<int>& counts(std::string_view flag) const {
    return find(flag).ints;
  }
  double real(std::string_view flag) const { return find(flag).real; }
  bool on(std::string_view flag) const { return find(flag).on; }
  /// The reported flags' `config` entries, in table order.
  std::vector<std::pair<std::string, std::string>> config;

 private:
  struct Value {
    std::string_view name;
    std::vector<int> ints;
    double real = 0.0;
    bool on = false;
  };
  const Value& find(std::string_view flag) const;

  workload::HarnessOptions harness_;
  std::vector<Value> values_;
};

struct Check {
  bool pass;
  std::string what;
};
Check check(bool pass, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

/// What a scenario run hands back to the runner.
struct Outcome {
  workload::SweepResult sweep;
  std::vector<Check> checks;  ///< acceptance criteria; none = report only
  /// Host-dependent wall_* figures for the report's engine section.
  std::vector<std::pair<std::string, double>> engine = {};
};

struct Scenario {
  std::string_view name;  ///< the report's experiment id: BENCH_<name>.json
  std::int64_t duration_s;
  std::uint64_t seed;
  std::vector<Flag> flags;
  /// Adds the arms, runs them and prints the results.
  Outcome (*run)(const Args& args, workload::SweepRunner& runner);
  /// Report `config` entries that no flag sets.
  std::vector<std::pair<std::string, std::string>> fixed_config = {};
  /// False: no arm draws random numbers, so the report has no seed.
  bool seeded = true;
  /// Each arm measures whole-machine wall clock, so arms run one at a
  /// time whatever --threads says.
  bool sequential = false;
};

Outcome run_fig4(const Args& args, workload::SweepRunner& runner);
Outcome run_overload(const Args& args, workload::SweepRunner& runner);
Outcome run_cp(const Args& args, workload::SweepRunner& runner);
Outcome run_sidecar_overhead(const Args& args, workload::SweepRunner& runner);
Outcome run_ablation_components(const Args& args,
                                workload::SweepRunner& runner);
Outcome run_lb_policies(const Args& args, workload::SweepRunner& runner);
Outcome run_compute_priority(const Args& args, workload::SweepRunner& runner);
Outcome run_scavenger(const Args& args, workload::SweepRunner& runner);
Outcome run_parsim(const Args& args, workload::SweepRunner& runner);
Outcome run_meshscale(const Args& args, workload::SweepRunner& runner);
Outcome run_mtls(const Args& args, workload::SweepRunner& runner);
Outcome run_chaos_elibrary(const Args& args, workload::SweepRunner& runner);

/// A one-node mesh whose pod "client" drives open-loop streams (TXT-OVH,
/// ABL-LB, ABL-CPU). The spec holds the servers; this adds the node
/// and the client. With `through_gateway` the client is the mesh gateway,
/// so requests enter on its sidecar's outbound listener; without it the
/// client is an out-of-mesh pod that dials the app port of the first
/// service's first replica.
class ClientMesh {
 public:
  ClientMesh(cluster::MeshSpec spec, bool through_gateway);

  sim::Simulator& sim() { return sim_; }
  cluster::BuiltMesh& mesh() { return *mesh_; }

  /// Offers the streams until 1 s + `duration`, measured from 1 s, then
  /// drains. Stream i draws from `seed + i`. Returns p50/p90/p99/mean_ms,
  /// generated/completed/errors and latency_ns per stream, prefixed with
  /// "<name>_" when there are several.
  workload::PointMetrics run(std::vector<workload::WorkloadSpec> streams,
                             std::uint64_t seed, sim::Duration duration,
                             sim::Duration drain,
                             std::size_t max_connections);

 private:
  sim::Simulator sim_;
  std::unique_ptr<cluster::BuiltMesh> mesh_;
  net::SocketAddress target_;
};

void print_fault_log(const char* arm,
                     const std::vector<faults::FaultLogEntry>& log);

}  // namespace meshnet::bench
