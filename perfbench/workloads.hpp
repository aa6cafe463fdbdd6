// The benchmark's three workloads. Each runs for Options::seconds and
// returns its metrics: the end-to-end set when Options::trace is false,
// the per-layer set when it is true.
#pragma once

#include "common.hpp"

namespace perfbench {

[[nodiscard]] Outcome run_point_open(const Options& opt);
[[nodiscard]] Outcome run_sweep_mixed(const Options& opt);
[[nodiscard]] Outcome run_cluster_event(const Options& opt);

}  // namespace perfbench
