#include "workload/bench_harness.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>

#include "util/strings.h"

namespace meshnet::workload {

// Weak fallback: binaries that do not link bench/alloc_counter.cc (the
// examples) report no allocation profile. The attribute form is portable
// across the gcc/clang matrix; MSVC is not a supported toolchain here.
__attribute__((weak)) std::uint64_t bench_allocation_count() noexcept {
  return 0;
}

HarnessOptions parse_harness_flags(
    int argc, const char* const* argv, std::string_view experiment,
    std::int64_t default_duration_s, std::uint64_t default_seed,
    const std::vector<std::string_view>& extra_flags,
    const std::vector<std::string_view>& extra_prefixes) {
  std::vector<std::string_view> known = {"threads", "json-out", "duration",
                                         "seed"};
  known.insert(known.end(), extra_flags.begin(), extra_flags.end());

  HarnessOptions options;
  options.flags = util::Flags::parse_or_die(argc, argv, known, extra_prefixes);
  options.threads = int_flag(options, "threads", 1, /*min=*/0);
  options.json_out = options.flags.get_or("json-out", "");
  if (options.json_out == "true") {  // bare --json-out
    options.json_out = "BENCH_" + std::string(experiment) + ".json";
  }
  options.duration_s =
      int_flag(options, "duration", static_cast<int>(default_duration_s));
  options.seed = static_cast<std::uint64_t>(options.flags.get_int_or(
      "seed", static_cast<std::int64_t>(default_seed),
      util::NumberRange::kNonNegative));
  return options;
}

std::vector<int> int_list_flag(const HarnessOptions& options,
                               std::string_view flag,
                               std::string_view fallback, int min) {
  const std::string text = options.flags.get_or(flag, fallback);
  std::vector<int> values;
  for (const std::string_view part : util::split(text, ',')) {
    const auto value = util::parse_u64(util::trim(part));
    if (!value || *value < static_cast<std::uint64_t>(min) ||
        *value > static_cast<std::uint64_t>(INT_MAX)) {
      std::fprintf(stderr, "bad --%.*s entry '%.*s' in '%s' (want %s "
                           "integers)\n",
                   static_cast<int>(flag.size()), flag.data(),
                   static_cast<int>(part.size()), part.data(), text.c_str(),
                   min > 0 ? "positive" : "non-negative");
      std::exit(2);
    }
    // Each entry is a sweep point (and an arm name): a repeat would be a
    // second point with the same id.
    if (std::find(values.begin(), values.end(), static_cast<int>(*value)) !=
        values.end()) {
      std::fprintf(stderr, "bad --%.*s entry '%.*s' in '%s' (repeated)\n",
                   static_cast<int>(flag.size()), flag.data(),
                   static_cast<int>(part.size()), part.data(), text.c_str());
      std::exit(2);
    }
    values.push_back(static_cast<int>(*value));
  }
  return values;
}

int int_flag(const HarnessOptions& options, std::string_view flag,
             int fallback, int min) {
  if (!options.flags.has(flag)) return fallback;
  const std::vector<int> values = int_list_flag(options, flag, "", min);
  if (values.size() != 1) {
    std::fprintf(stderr, "bad --%.*s: want one integer, got %zu\n",
                 static_cast<int>(flag.size()), flag.data(), values.size());
    std::exit(2);
  }
  return values.front();
}

SweepOptions sweep_options(const HarnessOptions& options) {
  SweepOptions sweep;
  sweep.threads = options.threads;
  sweep.progress = true;
  return sweep;
}

int finish_harness(const stats::BenchReport& input,
                   const HarnessOptions& options) {
  stats::BenchReport report = input;
  // Engine throughput profile: host wall-clock events/sec across the
  // whole run. Lives under the top-level "engine" object and "wall_"
  // names, which the comparator never visits (machine-dependent).
  double total_events = 0.0;
  for (const stats::BenchPoint& point : report.points) {
    const auto it = point.counters.find("events");
    if (it != point.counters.end()) {
      total_events += static_cast<double>(it->second);
    }
  }
  if (total_events > 0.0 && report.wall_ms > 0.0) {
    report.engine.emplace_back("wall_events_total", total_events);
    report.engine.emplace_back("wall_events_per_sec",
                               total_events / (report.wall_ms / 1000.0));
  }
  // Allocation profile (zero-alloc discipline, measured): present only in
  // binaries that link the counting allocator. Process-lifetime counts,
  // so the per-event figure includes setup — an upper bound, comparable
  // run to run on the same binary, and like all wall_* fields never part
  // of baseline comparisons.
  const double total_allocs =
      static_cast<double>(bench_allocation_count());
  if (total_allocs > 0.0 && total_events > 0.0) {
    report.engine.emplace_back("wall_allocs_total", total_allocs);
    report.engine.emplace_back("wall_allocs_per_event",
                               total_allocs / total_events);
  }
  if (!options.json_out.empty()) {
    const std::string error = report.write_file(options.json_out);
    if (!error.empty()) {
      std::fprintf(stderr, "json-out: %s\n", error.c_str());
      return 2;
    }
    std::fprintf(stderr, "wrote %s (%zu points)\n", options.json_out.c_str(),
                 report.points.size());
  }
  return 0;
}

}  // namespace meshnet::workload
