// Load generation against an in-process pbcd daemon through net::Client:
// an open loop at a fixed offered rate (timed from each request's
// scheduled send time), a pipelined closed loop of heavy requests, and a
// paced point stream. Every outcome lands in a Tally whose totals must
// match the daemon's own counters.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "svc/request.hpp"

namespace perfbench {

/// Client-side outcome counts. Every sent request ends as exactly one of
/// ok, shed, deadline, error or transport; `wrong` counts ok responses
/// whose bytes differ from the expected output (a subset of ok).
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t error = 0;
  std::uint64_t transport = 0;
  std::uint64_t wrong = 0;

  void add(const Tally& o);
  /// Failed operations: everything but a correct response.
  [[nodiscard]] std::uint64_t failed() const {
    return shed + deadline + error + transport + wrong;
  }
};

/// Counts one receive() outcome; returns true for a response.
bool classify(const pbc::Result<pbc::svc::Response>& r, Tally& t);

/// A daemon with default DaemonOptions on an ephemeral port, started.
[[nodiscard]] std::unique_ptr<pbc::net::Daemon> start_daemon();

[[nodiscard]] pbc::net::Client connect(const pbc::net::Daemon& d);

/// One round of the serving set-up that setup_s times. The previous
/// round's connections and daemon are released first, outside the timer;
/// then a fresh daemon starts, every client connects and the first sends
/// `priming`. The caller generates its inputs beforehand, so the figure
/// is the program's start-up alone. `tally` holds the priming outcomes.
/// Returns the timed seconds.
double restart_serving(std::unique_ptr<pbc::net::Daemon>& daemon,
                       std::span<pbc::net::Client* const> clients,
                       const std::vector<pbc::svc::Request>& priming,
                       Tally& tally);

/// Conservation: client-side sent = ok + shed + deadline + error +
/// transport, and requests/responses/shed/errors/deadline match the
/// daemon's pbc_net_* counters exactly. Mismatches become problems.
void check_conservation(const Tally& t, pbc::net::Daemon& d, Outcome& out);

/// The layer counters a traced run reports, as read at one moment: svc
/// cache traffic and net outcomes from the daemon's registry, sim builds
/// from the process-wide one. Subtract two reads for a window's counts.
struct LayerCounters {
  static constexpr std::array<const char*, 5> kCaches{
      "profile", "sim", "frontier", "replay", "online"};
  std::array<std::uint64_t, 5> hits{};
  std::array<std::uint64_t, 5> misses{};
  std::uint64_t computes = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t errors = 0;
  std::uint64_t table_builds = 0;
  std::uint64_t frontier_builds = 0;
  std::uint64_t blocked_tiles = 0;

  [[nodiscard]] LayerCounters operator-(const LayerCounters& o) const;
};

/// `daemon` may be null: then only the process-wide counters are read.
[[nodiscard]] LayerCounters read_layer_counters(pbc::net::Daemon* daemon);

/// Warm point requests with their expected encoded responses (from a
/// separate in-process engine).
struct PointPool {
  std::vector<pbc::svc::Request> requests;
  std::vector<std::vector<std::uint8_t>> expected;
};

[[nodiscard]] PointPool make_point_pool_with_expected(std::uint64_t seed,
                                                      std::size_t n);


/// One open-loop step: `rate` req/s for `duration_s`, uniformly spaced,
/// one sender and one receiver thread on one connection. Latency runs
/// from each request's scheduled send time. The step's percentiles are
/// medians over `window_s` windows (by scheduled time), so a short host
/// stall moves one window, not the step.
struct StepResult {
  double rate = 0.0;
  std::vector<double> latency_ms;  ///< correct responses
  std::vector<double> due_s;       ///< their scheduled send times
  std::vector<double> late_ms;     ///< actual minus scheduled send time
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double late_p50_ms = 0.0;        ///< generator lateness
  double late_p99_ms = 0.0;
  std::size_t windows = 0;
  std::uint64_t backlog_max = 0;   ///< most requests in flight
  std::uint64_t backlog_end = 0;   ///< in flight at the last scheduled send
  Tally tally;
  /// The generator held its schedule (lateness p99 within tolerance).
  bool valid = false;
  /// Valid, p99 <= 1 ms, no growing backlog, no failure: the step counts
  /// toward point_max_rps.
  bool pass = false;
  /// The daemon kept up: no growing backlog, p50 <= 1 ms, median
  /// generator lateness within tolerance, no failure. Host stalls move a
  /// step's p99 but not this.
  bool sustained = false;
};

[[nodiscard]] StepResult run_open_step(pbc::net::Client& c,
                                       const PointPool& pool,
                                       std::size_t& cursor, double rate,
                                       double duration_s, double window_s);

/// Checks one response to pool entry `index`; false means wrong output.
using ResponseCheck =
    std::function<bool(std::size_t index, const pbc::svc::Response&)>;

/// Pipelined closed loop over `order` (pool indices, cycled) with
/// `window` requests in flight on one connection, until `end`.
struct ClosedResult {
  Tally tally;
  std::vector<double> latency_ms;  ///< send to correct response
  std::vector<double> done_s;      ///< completion time since `start`
  std::size_t issued = 0;          ///< entries of `order` sent
};

[[nodiscard]] ClosedResult run_closed_loop(
    pbc::net::Client& c, const std::vector<pbc::svc::Request>& pool,
    const std::vector<std::size_t>& order, std::size_t offset,
    std::size_t window, Clock::time_point start, Clock::time_point end,
    const ResponseCheck& check);

/// A paced point stream: one request per 1/rate seconds, each timed from
/// its scheduled send time, until `end`.
struct PacedResult {
  Tally tally;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
};

[[nodiscard]] PacedResult run_paced_points(pbc::net::Client& c,
                                           const PointPool& pool,
                                           std::size_t first, double rate,
                                           Clock::time_point start,
                                           Clock::time_point end);

/// Medians over fixed windows of a completion series: of the per-window
/// rate, p50 and p99. On a shared host, steal and wake-up delays come in
/// bursts that move whole windows; the median over windows moves little.
struct WindowStats {
  double rate = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t windows = 0;
};

[[nodiscard]] WindowStats window_stats(const std::vector<double>& done_s,
                                       const std::vector<double>& value,
                                       double span_s, double window_s);

}  // namespace perfbench
