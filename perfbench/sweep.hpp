// The sweep_mixed workload's inputs and daemon traffic, shared by the
// untraced measurement and the traced per-layer run.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"

namespace perfbench {

/// Everything one sweep_mixed run sends, generated from the seed.
struct SweepSetup {
  std::vector<pbc::svc::Request> heavy;  ///< the heavy pool
  PointPool points;                      ///< the background point stream
  std::vector<std::size_t> order;        ///< skewed draws from `heavy`
  std::vector<bool> sampled;             ///< heavy entries checked in full
};

[[nodiscard]] SweepSetup make_sweep_setup(std::uint64_t seed);

/// What the daemon was sent and answered.
struct SweepTraffic {
  ClosedResult heavy;
  PacedResult point;
  /// First response bytes of each sampled heavy entry seen.
  std::unordered_map<std::size_t, std::vector<std::uint8_t>> kept;
  double seconds = 0.0;
  std::size_t window = 0;  ///< heavy requests in flight
  /// Layer counters over the traffic window.
  LayerCounters counters;
  /// Peak RSS at the end of the traffic, before the reference engine of
  /// the output check exists.
  double peak_rss_mb = 0.0;
};

/// The heavy closed loop (one thread) beside the paced point stream (the
/// calling thread) for `seconds`, then the sampled heavy responses
/// checked against a separate engine.
[[nodiscard]] SweepTraffic run_sweep_traffic(const SweepSetup& setup,
                                             pbc::net::Daemon& daemon,
                                             pbc::net::Client& heavy_client,
                                             pbc::net::Client& point_client,
                                             double seconds, Outcome& out);

}  // namespace perfbench
