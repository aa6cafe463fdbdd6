// Shared vocabulary of the repository benchmark: timing helpers, exact
// order statistics, the per-run outcome (metrics + checks) and its JSON
// result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// `t` plus `s` seconds.
[[nodiscard]] inline Clock::time_point after(Clock::time_point t, double s) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(s));
}

/// Exact median with linear interpolation between order statistics; 0
/// for an empty sample.
[[nodiscard]] inline double median(std::span<const double> v) {
  return pbc::percentile(v, 50.0);
}

/// Peak resident set size of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

/// Command line of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace-event JSON of the traced run's spans.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured and whether its outputs were right. `attempted`
/// and `failed` count operations (requests, or cluster jobs); a failed
/// check marks the whole run incorrect.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a check; a false `ok` is a problem that fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  [[nodiscard]] bool correct() const {
    return problems.empty() && failed == 0 && attempted > 0;
  }
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(const Outcome& out);

/// One human-readable report line: "  name  value unit  note".
void report(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");

}  // namespace perfbench
