// The traced run: per-layer numbers for each workload.
//
// Serving workloads replay their generated request stream in-process, in
// the daemon's order: client encode -> frame decode -> request decode ->
// admit -> route -> QueryEngine::execute (with the matching direct
// sim/core/ctrl call as a child span on a cache miss) -> response encode
// -> client decode. Every request gets one span id and every layer
// boundary one span; the spans stay in memory and are written at the end
// as Chrome trace-event JSON. The cluster workload times the public calls
// around one simulate_cluster run. Each call is timed from the
// benchmark's own files; the program under test is unchanged.
#pragma once

#include <cstdint>

#include "cluster.hpp"
#include "common.hpp"
#include "loadgen.hpp"
#include "sweep.hpp"

namespace perfbench {

/// An untraced open loop at `rate` against the daemon (the observed
/// figure), then the same stream replayed in-process.
void run_point_open_traced(const Options& opt, const PointPool& pool,
                           double rate, double window_s,
                           pbc::net::Daemon& daemon, pbc::net::Client& client,
                           Tally& tally, Outcome& out);

/// The heavy draw order (with the point stream interleaved) replayed
/// in-process; `traffic` is the untraced daemon run before it.
void run_sweep_mixed_traced(const Options& opt, const SweepSetup& setup,
                            const SweepTraffic& traffic, Outcome& out);

void run_cluster_event_traced(const Options& opt, const ClusterSetup& setup,
                              Outcome& out);

}  // namespace perfbench
