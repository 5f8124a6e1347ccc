#pragma once

// Shared command-line front end for the bench binaries and example
// sweeps. Every binary that reproduces a figure/table row accepts the
// same harness flags:
//
//   --threads=N     sweep points fanned across N workers (0 = all cores;
//                   results are bit-identical at any N)
//   --json-out[=P]  write the machine-readable report (default path
//                   BENCH_<experiment>.json)
//   --baseline=P    after the run, compare against a committed baseline
//                   and exit 1 on regression (same rules as bench_check)
//   --tolerance=R   relative tolerance for --baseline comparisons
//   --duration=S    measured seconds per point
//   --seed=S        run-level PRNG seed
//
// plus any bench-specific flags the binary declares. Unknown or duplicate
// flags, and numeric values that are malformed or out of range (threads
// and seed >= 0, duration > 0), abort with exit code 2 (a typo must not
// silently run a default sweep).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats/bench_report.h"
#include "util/flags.h"
#include "workload/sweep_runner.h"

namespace meshnet::workload {

struct HarnessOptions {
  int threads = 1;
  std::string json_out;   ///< empty = no report file
  std::string baseline;   ///< empty = no comparison
  double tolerance = 1e-9;
  std::int64_t duration_s = 0;
  std::uint64_t seed = 0;
  util::Flags flags;      ///< full parse, for bench-specific extras
};

/// Parses and validates argv against the standard harness flags plus
/// `extra_flags` (and `extra_prefixes`, for embedded libraries like
/// google-benchmark). Exits 2 on unknown/duplicate flags. The experiment
/// id decides the default --json-out path.
HarnessOptions parse_harness_flags(
    int argc, const char* const* argv, std::string_view experiment,
    std::int64_t default_duration_s, std::uint64_t default_seed,
    const std::vector<std::string_view>& extra_flags = {},
    const std::vector<std::string_view>& extra_prefixes = {});

/// Reads --<flag> as a comma-separated list of distinct integers, each
/// >= `min` (`fallback` when the flag is absent). A malformed, repeated
/// or out-of-range entry ends the process with exit code 2 and a message
/// naming it: a typo must not silently run another sweep.
std::vector<int> int_list_flag(const HarnessOptions& options,
                               std::string_view flag,
                               std::string_view fallback, int min = 1);

/// A single-valued int_list_flag: exactly one entry, else exit code 2.
int int_flag(const HarnessOptions& options, std::string_view flag,
             int fallback, int min = 1);

/// SweepOptions matching the parsed flags (progress lines on stderr).
SweepOptions sweep_options(const HarnessOptions& options);

/// Post-run bookkeeping: writes --json-out if requested, then compares
/// against --baseline if given. Returns the process exit code (0 ok,
/// 1 regression, 2 I/O or parse failure).
int finish_harness(const stats::BenchReport& report,
                   const HarnessOptions& options);

/// Process-lifetime count of global operator-new calls. The strong
/// definition lives in bench/alloc_counter.cc (its counting allocator is
/// linked into every bench binary); elsewhere a weak zero-returning
/// default applies and the allocation profile is simply omitted from
/// reports. finish_harness uses it for wall_allocs_per_event.
std::uint64_t bench_allocation_count() noexcept;

}  // namespace meshnet::workload
