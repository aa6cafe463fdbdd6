// cluster_event: in-process core::simulate_cluster on ClusterPath::kEvent
// at 100k CPU nodes plus 12.5k GPU nodes, under a uniform budget tree of
// 32-node racks and 32-rack rows, with backfill and admission, seeded
// diurnal arrivals of suite jobs, one facility-feed drop and a few rack
// failures. The core event loop, ledger, subtree re-solves and
// redistribution do the work; net and svc are not involved.
#include <algorithm>
#include <bit>
#include <cstdio>

#include "cluster.hpp"
#include "traced.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pbc;

namespace {

constexpr std::size_t kNodes = 100000;
constexpr std::size_t kGpuNodes = 12500;
constexpr std::size_t kJobs = 200000;
constexpr double kGpuJobShare = 0.125;
constexpr int kSetups = 7;

/// Identity of a run's simulated outputs: makespan and every completed
/// job's name, start and finish, bit for bit.
[[nodiscard]] std::uint64_t outputs_digest(const core::ClusterRun& run) {
  Fnv1a64 h;
  h.u64(std::bit_cast<std::uint64_t>(run.makespan.value()));
  for (const auto& j : run.jobs) {
    h.str(j.name);
    h.u64(std::bit_cast<std::uint64_t>(j.start.value()));
    h.u64(std::bit_cast<std::uint64_t>(j.finish.value()));
  }
  return h.digest();
}

}  // namespace

/// Jobs last 20-200 s at full speed; arrivals span half the zero-wait
/// makespan over two simulated "days", so queues form at each peak.
constexpr double kSpanS = 0.5 * 110.0 * static_cast<double>(kJobs) /
                          static_cast<double>(kNodes);

ClusterSetup make_cluster_inputs(std::uint64_t seed) {
  ClusterSetup s;
  s.cpu = hw::ivybridge_node();
  s.gpu = hw::titan_xp();
  const auto cpu_wls = workload::cpu_suite();
  const auto gpu_wls = workload::gpu_suite();
  std::vector<double> cpu_rate(cpu_wls.size());
  for (std::size_t i = 0; i < cpu_wls.size(); ++i) {
    cpu_rate[i] = sim::CpuNodeSim(s.cpu, cpu_wls[i]).uncapped().rate_gunits;
  }
  std::vector<double> gpu_rate(gpu_wls.size());
  for (std::size_t i = 0; i < gpu_wls.size(); ++i) {
    gpu_rate[i] = sim::GpuNodeSim(s.gpu, gpu_wls[i])
                      .default_policy(s.gpu.gpu.board_max_cap)
                      .rate_gunits;
  }

  Xoshiro256 rng(seed, /*stream=*/21);
  s.jobs.reserve(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    core::SimJob job;
    const bool gpu = rng.uniform() < kGpuJobShare;
    const std::size_t w = rng.below(gpu ? gpu_wls.size() : cpu_wls.size());
    job.wl = gpu ? gpu_wls[w] : cpu_wls[w];
    job.work_gunits =
        (gpu ? gpu_rate[w] : cpu_rate[w]) * rng.uniform(20.0, 200.0);
    char name[24];
    std::snprintf(name, sizeof(name), "%c%zu", gpu ? 'g' : 'c', j);
    job.name = name;
    s.jobs.push_back(std::move(job));
  }

  s.config.nodes = kNodes;
  s.config.gpu_nodes = kGpuNodes;
  s.config.global_budget =
      Watts{0.7 * (static_cast<double>(kNodes) * 220.0 +
                   static_cast<double>(kGpuNodes) * 230.0)};
  s.config.queue_policy = core::QueuePolicy::kBackfill;
  s.config.admission_control = true;
  s.config.path = core::ClusterPath::kEvent;
  s.pool = std::make_unique<ThreadPool>(1);
  return s;
}

double build_cluster_setup(ClusterSetup& s, std::uint64_t seed) {
  s.hierarchy = {};
  s.scenario = {};
  const auto t0 = Clock::now();
  const auto arrivals = core::diurnal_arrivals(
      kJobs, Seconds{kSpanS}, Seconds{kSpanS / 2.0}, 3.0, seed);
  for (std::size_t j = 0; j < kJobs; ++j) s.jobs[j].arrival = arrivals[j];
  s.hierarchy = core::uniform_hierarchy(kNodes, kGpuNodes,
                                        s.config.global_budget, {32, 32});
  s.scenario = core::make_emergency_scenario(
      s.config.global_budget, Seconds{0.4 * kSpanS}, 0.75,
      Seconds{0.2 * kSpanS});
  s.scenario.failures =
      core::make_failure_scenario(s.hierarchy, 4, Seconds{kSpanS}, seed)
          .failures;
  return seconds_between(t0, Clock::now());
}

core::ClusterRun run_cluster(const ClusterSetup& s,
                             std::vector<core::SimJob> jobs) {
  core::ClusterSimConfig config = s.config;
  config.hierarchy = &s.hierarchy;
  config.scenario = &s.scenario;
  config.pool = s.pool.get();
  return core::simulate_cluster(s.cpu, s.gpu, std::move(jobs), config);
}

void check_cluster_run(const ClusterSetup& s, const core::ClusterRun& run,
                       Outcome& out) {
  out.check(run.jobs.size() == s.jobs.size(),
            "cluster: " + std::to_string(run.jobs.size()) + " of " +
                std::to_string(s.jobs.size()) + " jobs completed");
  out.check(run.event_stats.caps_respected,
            "cluster: a budget-tree vertex went over its cap");
}

Outcome run_cluster_event(const Options& opt) {
  Outcome out;
  ClusterSetup setup = make_cluster_inputs(opt.seed);
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(build_cluster_setup(setup, opt.seed));
  }
  const double setup_s = median(setups);
  out.check(core::validate_scenario(setup.scenario, setup.hierarchy).ok(),
            "cluster: scenario does not fit the tree");
  std::printf("cluster_event: seed %llu, %zu CPU + %zu GPU nodes, %zu jobs\n",
              static_cast<unsigned long long>(opt.seed), kNodes, kGpuNodes,
              kJobs);

  if (opt.trace) {
    run_cluster_event_traced(opt, setup, out);
    out.attempted = setup.jobs.size();
    out.failed = out.correct() ? 0 : setup.jobs.size();
    return out;
  }

  // Whole runs until the time is spent, at least two: the second must
  // repeat the first's simulated outputs exactly.
  const auto end = after(Clock::now(), opt.seconds);
  std::vector<double> wall_s;
  std::uint64_t digest = 0;
  double makespan = 0.0;
  std::size_t completed = 0;
  while (wall_s.size() < 2 || Clock::now() < end) {
    auto jobs = setup.jobs;
    const auto t0 = Clock::now();
    const core::ClusterRun run = run_cluster(setup, std::move(jobs));
    wall_s.push_back(seconds_between(t0, Clock::now()));
    check_cluster_run(setup, run, out);
    const std::uint64_t d = outputs_digest(run);
    if (wall_s.size() == 1) {
      digest = d;
      makespan = run.makespan.value();
      completed = run.jobs.size();
    } else {
      out.check(d == digest, "cluster: a rerun changed the simulated outputs");
    }
    std::printf("  run %zu: %.3f s wall, %zu jobs, makespan %.6f s sim\n",
                wall_s.size(), wall_s.back(), run.jobs.size(),
                run.makespan.value());
  }

  std::vector<double> jps;
  std::vector<double> wall_ms;
  for (const double w : wall_s) {
    jps.push_back(static_cast<double>(setup.jobs.size()) / w);
    wall_ms.push_back(1e3 * w);
  }
  out.attempted = setup.jobs.size();
  out.failed = setup.jobs.size() - std::min(completed, setup.jobs.size());
  const double rss = peak_rss_mb();

  std::printf("end-to-end (tracing off):\n");
  report("setup_s", setup_s, "s",
         "arrivals + tree + scenario, median of " + std::to_string(kSetups));
  report("peak_rss_mb", rss, "MB");
  report("failed_share",
         static_cast<double>(out.failed) / static_cast<double>(out.attempted),
         "share", "jobs not completed");
  report("cluster_jobs_per_s", median(jps), "1/s",
         "host time, median of " + std::to_string(jps.size()) + " runs");
  report("cluster_makespan_sim_s", makespan, "s",
         "simulated; identical across runs");
  report("cluster_run_p50_ms", median(wall_ms), "ms",
         "one simulate_cluster call");

  out.metric("setup_s", setup_s, "s");
  out.metric("peak_rss_mb", rss, "MB");
  out.metric("p50_ms", median(wall_ms), "ms");
  return out;
}

}  // namespace perfbench
