#pragma once

// A scenario is one reproduced table or figure, run by name with
// `meshsim --scenario=NAME`. Its Scenario value (scenario_<name>.cc) is
// the whole definition of the experiment: defaults and flags, the named
// arms it measures, the tables that print them and the acceptance checks
// over them. run_scenario() is the one loop that runs every scenario: it
// parses the flags, runs the arms as one sweep, prints the tables, writes
// the report, compares the baseline and applies the checks.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "app/mesh_builder.h"
#include "workload/bench_harness.h"
#include "workload/elibrary_experiment.h"
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

using Params = std::vector<std::pair<std::string, std::string>>;

/// What an arm leaves beside its report point.
struct ArmLog {
  std::string text;  ///< printed after the tables
  /// Never printed: the run's mesh event log, one line per event, which
  /// the determinism tests compare event by event.
  std::string events;

  friend bool operator==(const ArmLog&, const ArmLog&) = default;
};

/// One measured configuration of a scenario.
struct Arm {
  std::string name;  ///< how tables and checks find the arm
  Params params;     ///< the report point's params (and so its id)
  std::function<workload::PointMetrics(ArmLog& log)> run;
};

/// End-to-end deadline at every sidecar in the fault scenarios (CHAOS,
/// CHAOS_CP, MTLS). Shorter than their fault windows: a request parked
/// on a crashed replica must *fail* at the deadline, not ride it out.
constexpr sim::Duration kFaultRequestTimeout = sim::milliseconds(2500);

/// The control config of the fault scenarios: --ls-rps, --li-rps,
/// --duration and --seed, the deadline above, and a drain long enough
/// for every request pinned to that deadline to resolve.
workload::ElibraryExperimentConfig fault_control(const Args& args);

/// An e-library arm: run_elibrary_experiment(config), reported by
/// elibrary_point_metrics with the scenario's `series`. Its log's
/// `events` holds the run's mesh event log; with `log_faults` the fault
/// log is printed too.
Arm elibrary_arm(std::string name, Params params,
                 workload::ElibraryExperimentConfig config,
                 const std::vector<workload::ReportSeries>& series = {},
                 bool log_faults = false);

/// What the arms measured, looked up by arm name (an unknown name is a
/// bug in the scenario and aborts).
class Results {
 public:
  Results(const std::vector<Arm>& arms, const workload::SweepResult& sweep);

  const workload::PointMetrics& operator[](std::string_view arm) const {
    return point(arm).metrics;
  }
  double scalar(std::string_view arm, const std::string& key) const {
    return (*this)[arm].scalars.at(key);
  }
  std::uint64_t count(std::string_view arm, const std::string& key) const {
    return (*this)[arm].counters.at(key);
  }
  /// The arm's sweep point, with its host wall-clock time.
  const workload::SweepPointResult& point(std::string_view arm) const;
  /// Every arm's name, in run order.
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  const workload::SweepResult& sweep_;
};

/// A table column: one report key of each row's arm.
struct Column {
  std::string_view header;
  /// A scalar or counter of the arm ("<phase>_<key>" in a phase table).
  std::string_view key;
  int precision = 1;   ///< decimals; an unscaled counter prints whole
  double scale = 1.0;  ///< the value is multiplied by this first
};

/// One row per arm, in run order, labelled with the arm's name.
struct Table {
  std::string_view title = {};  ///< printed above the table; empty = none
  std::vector<Column> columns;
  std::string_view label = "arm";  ///< header of the row-label column
  /// Non-empty: each arm gives one row per phase, keys read
  /// "<phase>_<key>".
  std::vector<std::string_view> phases = {};
  /// Printed as CSV, and only under the scenario's --csv switch.
  bool csv = false;
};

/// An acceptance check, or a note: a summary line with no verdict.
struct Check {
  bool note = false;
  bool pass = true;
  std::string what;
};
Check check(bool pass, const char* format, ...)
    __attribute__((format(printf, 2, 3)));
Check note(const char* format, ...) __attribute__((format(printf, 1, 2)));

struct Scenario {
  std::string_view name;   ///< the report's experiment id: BENCH_<name>.json
  std::string_view title;  ///< printed first: what the scenario reproduces
  std::int64_t duration_s;
  std::uint64_t seed;
  std::vector<Flag> flags;
  std::vector<Arm> (*arms)(const Args& args);
  std::vector<Table> tables;
  /// Summary lines and acceptance checks over the arms' results.
  std::vector<Check> (*checks)(const Args& args,
                               const Results& results) = nullptr;
  /// Report `config` entries that no flag sets.
  std::vector<std::pair<std::string, std::string>> fixed_config = {};
  /// False: no arm draws random numbers, so the report has no seed.
  bool seeded = true;
};

/// Every scenario, in the order meshsim lists them.
const std::vector<Scenario>& scenarios();
/// The scenario named `name`, or nullptr.
const Scenario* find_scenario(std::string_view name);

/// Parses argv against the harness flags and the scenario's own (exit 2
/// on an unknown flag or a bad value).
Args parse_args(const Scenario& scenario, int argc, const char* const* argv);

/// Runs the arms as one sweep. `logs`, if given, receives each arm's log.
workload::SweepResult run_arms(const std::vector<Arm>& arms,
                               const workload::SweepOptions& options,
                               std::vector<ArmLog>* logs = nullptr);

/// The whole run of a scenario; returns the process exit code (0, 1 on a
/// regression or a failed check, 2 on a report I/O error).
int run_scenario(const Scenario& scenario, const Args& args);

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

// The scenarios, one per scenario_<name>.cc.
extern const Scenario kFig4Scenario;
extern const Scenario kOverloadScenario;
extern const Scenario kCpScenario;
extern const Scenario kSidecarOverheadScenario;
extern const Scenario kAblationComponentsScenario;
extern const Scenario kLbPoliciesScenario;
extern const Scenario kComputePriorityScenario;
extern const Scenario kScavengerScenario;
extern const Scenario kMeshscaleScenario;
extern const Scenario kMtlsScenario;
extern const Scenario kChaosElibraryScenario;

}  // namespace meshnet::bench
