// bench_check — diffs a bench run against a committed baseline.
//
//   bench_check --baseline=bench/baselines/BENCH_fig4.json
//               --current=BENCH_fig4.json
//               [--tolerance=1e-9] [--tol=ls_p99_ms=0.05 --tol=p99=0.05]
//
// Exit codes: 0 = within tolerance, 1 = regression/mismatch, 2 = usage or
// I/O error. Rules are in stats/bench_report.h: every baseline point and
// metric must exist in the current run and match within the (relative)
// tolerance; host wall-clock and thread counts are never compared; metrics
// added since the baseline was captured are ignored. When the baseline
// carries a top-level "metrics" block (the unified meshnet-metrics-v1
// snapshot), its series gate too — counter values exactly at the default
// tolerance, histogram summaries per-leaf (override with --tol=p99=...);
// "wall_*"-named leaves are skipped like everywhere else.
//
// Refreshing a baseline is deliberate: re-run the bench with --json-out
// pointed at the baseline path and commit the diff (see EXPERIMENTS.md).

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "stats/bench_report.h"
#include "util/flags.h"
#include "util/strings.h"

using namespace meshnet;

namespace {

// --tol can repeat, but util::Flags keeps one value per name (recording
// the duplicate as an error), so multiple overrides use a comma list:
//   --tol=ls_p99_ms=0.05,p99=0.02
bool parse_tolerances(const std::string& spec,
                      std::map<std::string, double>& out) {
  for (const std::string_view item : util::split(spec, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string_view::npos) return false;
    const std::string name(util::trim(item.substr(0, eq)));
    char* end = nullptr;
    const std::string value_text(item.substr(eq + 1));
    const double value = std::strtod(value_text.c_str(), &end);
    if (name.empty() || end == value_text.c_str() || *end != '\0') {
      return false;
    }
    out[name] = value;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse_or_die(
      argc, argv, {"baseline", "current", "tolerance", "tol"});

  const std::string baseline_path = flags.get_or("baseline", "");
  const std::string current_path = flags.get_or("current", "");
  if (baseline_path.empty() || current_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_check --baseline=FILE --current=FILE "
                 "[--tolerance=REL] [--tol=metric=REL,...]\n");
    return 2;
  }

  stats::CompareOptions options;
  options.default_tolerance =
      flags.get_double_or("tolerance", options.default_tolerance,
                          util::NumberRange::kNonNegative);
  if (flags.has("tol") &&
      !parse_tolerances(flags.get_or("tol", ""), options.metric_tolerance)) {
    std::fprintf(stderr, "bench_check: malformed --tol (want metric=REL[,"
                         "metric=REL...])\n");
    return 2;
  }

  std::string error;
  const auto baseline = stats::load_report(baseline_path, &error);
  if (!baseline) {
    std::fprintf(stderr, "bench_check: %s\n", error.c_str());
    return 2;
  }
  const auto current = stats::load_report(current_path, &error);
  if (!current) {
    std::fprintf(stderr, "bench_check: %s\n", error.c_str());
    return 2;
  }

  const stats::CompareOutcome outcome =
      stats::compare_reports(*baseline, *current, options);
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "FAIL %s\n", failure.c_str());
  }
  std::printf("bench_check: %zu comparisons, %zu failures — %s\n",
              outcome.compared, outcome.failures.size(),
              outcome.ok ? "OK" : "REGRESSION");
  return outcome.ok ? 0 : 1;
}
