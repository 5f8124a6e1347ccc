#include "scenario.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "stats/table.h"

namespace meshnet::bench {

Args::Args(workload::HarnessOptions harness, const std::vector<Flag>& flags)
    : harness_(std::move(harness)) {
  for (const Flag& flag : flags) {
    Value& value = values_.emplace_back();
    value.name = flag.name;
    std::string report;
    switch (flag.kind) {
      case FlagKind::kInt:
        value.ints = {workload::int_flag(
            harness_, flag.name, std::atoi(flag.fallback.data()), flag.min)};
        report = std::to_string(value.ints.front());
        break;
      case FlagKind::kInts:
        value.ints = workload::int_list_flag(harness_, flag.name,
                                             flag.fallback, flag.min);
        report = harness_.flags.get_or(flag.name, flag.fallback);
        break;
      case FlagKind::kReal:
      case FlagKind::kRealRounded:
        value.real = harness_.flags.get_double_or(
            flag.name, std::atof(flag.fallback.data()),
            flag.min > 0 ? util::NumberRange::kPositive
                         : util::NumberRange::kNonNegative);
        report = flag.kind == FlagKind::kReal
                     ? std::to_string(value.real)
                     : stats::Table::num(value.real, 0);
        break;
      case FlagKind::kSwitch:
        value.on = harness_.flags.get_bool_or(flag.name, false);
        break;
    }
    if (!flag.report_key.empty()) {
      config.emplace_back(std::string(flag.report_key), std::move(report));
    }
  }
}

const Args::Value& Args::find(std::string_view flag) const {
  for (const Value& value : values_) {
    if (value.name == flag) return value;
  }
  std::fprintf(stderr, "undeclared flag --%.*s\n",
               static_cast<int>(flag.size()), flag.data());
  std::abort();
}

namespace {

std::string vformat(const char* format, va_list args) {
  char what[256];
  std::vsnprintf(what, sizeof what, format, args);
  return what;
}

[[noreturn]] void scenario_bug(const char* what, std::string_view name) {
  std::fprintf(stderr, "scenario bug: %s '%.*s'\n", what,
               static_cast<int>(name.size()), name.data());
  std::abort();
}

/// `key` of one arm: a scalar, or a counter (`whole` set).
double read_key(const workload::PointMetrics& m, const std::string& key,
                bool& whole) {
  if (const auto it = m.scalars.find(key); it != m.scalars.end()) {
    return it->second;
  }
  if (const auto it = m.counters.find(key); it != m.counters.end()) {
    whole = true;
    return static_cast<double>(it->second);
  }
  scenario_bug("no report key", key);
}

std::string cell(const Column& column, const workload::PointMetrics& arm,
                 std::string_view phase) {
  const std::string key =
      phase.empty() ? std::string(column.key)
                    : std::string(phase) + "_" + std::string(column.key);
  bool whole = false;
  const double value = read_key(arm, key, whole) * column.scale;
  return whole && column.scale == 1.0
             ? std::to_string(static_cast<std::uint64_t>(value))
             : stats::Table::num(value, column.precision);
}

void print_table(const Table& table, const Results& results) {
  std::vector<std::string> headers = {std::string(table.label)};
  if (!table.phases.empty()) headers.emplace_back("phase");
  for (const Column& column : table.columns) {
    headers.emplace_back(column.header);
  }
  stats::Table out(std::move(headers));
  const std::vector<std::string_view> phases =
      table.phases.empty() ? std::vector<std::string_view>{""} : table.phases;
  for (const std::string& arm : results.names()) {
    for (const std::string_view phase : phases) {
      std::vector<std::string> row = {arm};
      if (!phase.empty()) row.emplace_back(phase);
      for (const Column& column : table.columns) {
        row.push_back(cell(column, results[arm], phase));
      }
      out.add_row(std::move(row));
    }
  }
  if (!table.title.empty()) {
    std::printf("%.*s\n", static_cast<int>(table.title.size()),
                table.title.data());
  }
  std::printf("%s\n", (table.csv ? out.to_csv() : out.to_string()).c_str());
}

}  // namespace

Check check(bool pass, const char* format, ...) {
  va_list args;
  va_start(args, format);
  Check result{.pass = pass, .what = vformat(format, args)};
  va_end(args);
  return result;
}

Check note(const char* format, ...) {
  va_list args;
  va_start(args, format);
  Check result{.note = true, .what = vformat(format, args)};
  va_end(args);
  return result;
}

workload::ElibraryExperimentConfig fault_control(const Args& args) {
  workload::ElibraryExperimentConfig control;
  control.ls_rps = args.real("ls-rps");
  control.li_rps = args.real("li-rps");
  control.duration = args.duration();
  control.seed = args.seed();
  control.app.policies.request_timeout = kFaultRequestTimeout;
  control.drain = 2 * kFaultRequestTimeout + sim::seconds(10);
  return control;
}

Arm elibrary_arm(std::string name, Params params,
                 workload::ElibraryExperimentConfig config,
                 const std::vector<workload::ReportSeries>& series,
                 bool log_faults) {
  workload::validate_phases(config);  // a bad window fails before any run
  std::string log_title = "fault log (" + name + " arm):\n";
  return {std::move(name), std::move(params),
          [config = std::move(config), series, log_faults,
           log_title = std::move(log_title)](ArmLog& log) {
            workload::ElibraryExperimentResult result =
                workload::run_elibrary_experiment(config);
            if (log_faults) {
              log.text += log_title;
              char line[128];
              for (const faults::FaultLogEntry& entry : result.fault_log) {
                std::snprintf(
                    line, sizeof line, "  t=%8.3fs %-14s %-12s%s\n",
                    sim::to_seconds(entry.at),
                    std::string(faults::fault_action_name(entry.action))
                        .c_str(),
                    entry.target.c_str(),
                    entry.applied ? "" : " (not applied)");
                log.text += line;
              }
            }
            for (const mesh::MeshEvent& event : result.mesh_events) {
              log.events += std::to_string(event.at) + " " +
                            std::string(obs::to_string(event.kind)) + " " +
                            event.subject + " " + event.detail + "\n";
            }
            return workload::elibrary_point_metrics(std::move(result),
                                                    series);
          }};
}

Results::Results(const std::vector<Arm>& arms,
                 const workload::SweepResult& sweep)
    : sweep_(sweep) {
  for (const Arm& arm : arms) {
    if (std::find(names_.begin(), names_.end(), arm.name) != names_.end()) {
      scenario_bug("two arms named", arm.name);
    }
    names_.push_back(arm.name);
  }
}

const workload::SweepPointResult& Results::point(std::string_view arm) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == arm) return sweep_.points[i];
  }
  scenario_bug("no arm", arm);
}

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all = {
      kFig4Scenario,
      kOverloadScenario,
      kCpScenario,
      kSidecarOverheadScenario,
      kAblationComponentsScenario,
      kLbPoliciesScenario,
      kComputePriorityScenario,
      kScavengerScenario,
      kMeshscaleScenario,
      kMtlsScenario,
      kChaosElibraryScenario,
  };
  return all;
}

const Scenario* find_scenario(std::string_view name) {
  for (const Scenario& scenario : scenarios()) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

Args parse_args(const Scenario& scenario, int argc,
                const char* const* argv) {
  std::vector<std::string_view> known = {"scenario"};
  for (const Flag& flag : scenario.flags) known.push_back(flag.name);
  return Args(workload::parse_harness_flags(argc, argv, scenario.name,
                                            scenario.duration_s,
                                            scenario.seed, known),
              scenario.flags);
}

workload::SweepResult run_arms(const std::vector<Arm>& arms,
                               const workload::SweepOptions& options,
                               std::vector<ArmLog>* logs) {
  std::vector<ArmLog> arm_logs(arms.size());
  workload::SweepRunner runner(options);
  for (std::size_t i = 0; i < arms.size(); ++i) {
    runner.add(arms[i].params,
               [&arm = arms[i], &log = arm_logs[i]] { return arm.run(log); });
  }
  workload::SweepResult sweep = runner.run();
  if (logs != nullptr) *logs = std::move(arm_logs);
  return sweep;
}

int run_scenario(const Scenario& scenario, const Args& args) {
  std::vector<std::pair<std::string, std::string>> config;
  if (scenario.seeded) config.emplace_back("seed", std::to_string(args.seed()));
  config.emplace_back("duration_s", std::to_string(args.duration_s()));
  config.insert(config.end(), args.config.begin(), args.config.end());
  config.insert(config.end(), scenario.fixed_config.begin(),
                scenario.fixed_config.end());
  std::printf("%.*s\nconfig:", static_cast<int>(scenario.title.size()),
              scenario.title.data());
  for (const auto& [key, value] : config) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n\n");

  workload::SweepOptions options = workload::sweep_options(args.harness());
  const std::vector<Arm> arms = scenario.arms(args);
  std::vector<ArmLog> logs;
  const workload::SweepResult sweep = run_arms(arms, options, &logs);
  const Results results(arms, sweep);
  std::fprintf(stderr, "sweep: %zu points, %d threads, %.0f ms wall\n",
               sweep.points.size(), sweep.threads_used, sweep.wall_ms);

  for (const Table& table : scenario.tables) {
    if (!table.csv || args.on("csv")) print_table(table, results);
  }
  const std::vector<Check> checks =
      scenario.checks != nullptr ? scenario.checks(args, results)
                                 : std::vector<Check>{};
  bool notes = false;
  for (const Check& line : checks) {
    if (!line.note) continue;
    std::printf("%s\n", line.what.c_str());
    notes = true;
  }
  if (notes) std::printf("\n");
  for (const ArmLog& log : logs) {
    if (!log.text.empty()) std::printf("%s\n", log.text.c_str());
  }
  bool passed = true;
  bool header = false;
  for (const Check& line : checks) {
    if (line.note) continue;
    if (!header) std::printf("acceptance:\n");
    header = true;
    std::printf("  %s  %s\n", line.pass ? "PASS" : "FAIL", line.what.c_str());
    passed = passed && line.pass;
  }

  stats::BenchReport report = workload::make_bench_report(
      std::string(scenario.name), std::move(config), sweep);
  const int harness_rc = workload::finish_harness(report, args.harness());
  return harness_rc != 0 ? harness_rc : passed ? 0 : 1;
}

ClientMesh::ClientMesh(cluster::MeshSpec spec, bool through_gateway) {
  http::reset_request_id_counter();
  spec.nodes = {"node-a"};
  if (through_gateway) {
    spec.gateway.enabled = true;
    spec.gateway.pod_name = spec.gateway.service = "client";
    spec.gateway.port = 15001;
  } else {
    spec.external_pods.emplace_back().name = "client";
  }
  const cluster::ServiceSpec& server = spec.services.front();
  const std::string direct_pod = cluster::service_pod_names(server).front();
  const net::Port direct_port = server.port;
  mesh_ = cluster::MeshBuilder(sim_).build(std::move(spec));
  mesh_->control_plane().tracer().set_retention(0);
  target_ = through_gateway
                ? mesh_->gateway_address()
                : net::SocketAddress{mesh_->pod(direct_pod)->ip(), direct_port};
}

workload::PointMetrics ClientMesh::run(
    std::vector<workload::WorkloadSpec> streams, std::uint64_t seed,
    sim::Duration duration, sim::Duration drain,
    std::size_t max_connections) {
  mesh::HttpClientPool::Options options;
  options.max_connections = max_connections;
  mesh::HttpClientPool client(sim_, mesh_->pod("client")->transport(),
                              target_, options);
  const sim::Time end = sim::seconds(1) + duration;
  std::vector<std::unique_ptr<workload::OpenLoopGenerator>> generators;
  for (workload::WorkloadSpec& spec : streams) {
    spec.start = 0;
    spec.end = spec.measure_end = end;
    spec.measure_start = sim::seconds(1);
    generators.push_back(std::make_unique<workload::OpenLoopGenerator>(
        sim_, client, std::move(spec), seed + generators.size()));
  }
  for (const auto& generator : generators) generator->start();
  sim_.run_until(end + drain);

  workload::PointMetrics metrics;
  for (const auto& generator : generators) {
    const std::string prefix =
        generators.size() > 1 ? generator->spec().name + "_" : "";
    const workload::LatencyRecorder& recorder = generator->recorder();
    metrics.scalars[prefix + "p50_ms"] = recorder.p50_ms();
    metrics.scalars[prefix + "p90_ms"] = recorder.p90_ms();
    metrics.scalars[prefix + "p99_ms"] = recorder.p99_ms();
    metrics.scalars[prefix + "mean_ms"] = recorder.mean_ms();
    metrics.counters[prefix + "generated"] = generator->sent();
    metrics.counters[prefix + "completed"] = recorder.count();
    metrics.counters[prefix + "errors"] = recorder.errors();
    metrics.histograms[prefix + "latency_ns"] = recorder.histogram();
  }
  return metrics;
}

}  // namespace meshnet::bench
