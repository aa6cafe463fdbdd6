// The cluster_event workload's inputs and run, shared by the untraced
// measurement and the traced per-layer run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/cluster_hier.hpp"
#include "core/cluster_sim.hpp"
#include "hw/platforms.hpp"
#include "sim/cpu_node.hpp"
#include "sim/gpu_node.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/cpu_suite.hpp"
#include "workload/gpu_suite.hpp"

namespace perfbench {

/// Everything one cluster run needs, generated from the seed.
struct ClusterSetup {
  pbc::hw::CpuMachine cpu;
  pbc::hw::GpuMachine gpu;
  std::vector<pbc::core::SimJob> jobs;
  pbc::core::ClusterSimConfig config;
  pbc::core::HierarchySpec hierarchy;
  pbc::core::ClusterScenario scenario;
  /// Profiling runs on one thread, as in the repository's cluster
  /// throughput gate: the figure is the algorithm's cost, not the core
  /// count, and a run that needs one core is the one a shared host
  /// disturbs least.
  std::unique_ptr<pbc::ThreadPool> pool;
};

/// The harness's part of the set-up: machines, config, and the seeded job
/// list (suite workloads, work, names) without arrival times.
[[nodiscard]] ClusterSetup make_cluster_inputs(std::uint64_t seed);

/// The program's part of the set-up, which setup_s times: seeded diurnal
/// arrivals for the jobs, the budget tree and the scenario, built with
/// the core builders after the previous round's are released. Returns
/// the timed seconds.
double build_cluster_setup(ClusterSetup& s, std::uint64_t seed);

/// One core::simulate_cluster call over the setup, taking `jobs` (a copy
/// of s.jobs the caller makes outside its timer).
[[nodiscard]] pbc::core::ClusterRun run_cluster(
    const ClusterSetup& s, std::vector<pbc::core::SimJob> jobs);

/// Every job completed and every tree vertex stayed under its cap.
void check_cluster_run(const ClusterSetup& s,
                       const pbc::core::ClusterRun& run, Outcome& out);

}  // namespace perfbench
