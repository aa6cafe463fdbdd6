// point_open: warm QueryCpuOp/QueryGpuOp requests against an in-process
// pbcd. The net layers do nearly all the work; svc does a cache lookup;
// sim does nothing. Three phases share one daemon:
//   1. an open loop at a fixed rate well under capacity (latency figures),
//   2. a pipelined closed loop (capacity),
//   3. open-loop climbs of a fine fixed rate ladder (point_max_rps).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "corpus.hpp"
#include "loadgen.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pbc;

namespace {

constexpr std::size_t kPoolSize = 4096;
/// The fixed rate of the latency figures: well under capacity.
constexpr double kFixedRate = 20000.0;
/// Percentile windows of the fixed-rate stream.
constexpr double kWindowS = 0.1;
/// Requests in flight in the capacity phase.
constexpr std::size_t kCapacityWindow = 64;
constexpr double kCapacityWindowS = 0.25;
/// The rate ladder: rung k offers kLadderBase * kLadderFactor^k req/s.
constexpr double kLadderBase = 20000.0;
constexpr double kLadderFactor = 1.025;
constexpr int kLadderTop = 120;
constexpr double kStepS = 0.3;
constexpr double kStepWindowS = 0.05;
constexpr int kSetups = 15;

[[nodiscard]] double ladder_rate(int k) {
  return kLadderBase * std::pow(kLadderFactor, k);
}

/// The highest rung whose rate is at most `rate`.
[[nodiscard]] int rung_below(double rate) {
  if (rate <= kLadderBase) return 0;
  return static_cast<int>(std::floor(std::log(rate / kLadderBase) /
                                     std::log(kLadderFactor)));
}

struct PointRig {
  PointPool pool;
  std::unique_ptr<net::Daemon> daemon;
  net::Client client;
  Tally tally;
};

void print_step(const char* phase, const StepResult& s) {
  std::printf(
      "  %-6s %8.0f/s  n %6zu  p50 %.4f ms  p99 %.4f ms  late p99 %.4f ms  "
      "backlog max %5llu end %5llu  %s, %s\n",
      phase, s.rate, s.latency_ms.size(), s.p50_ms, s.p99_ms, s.late_p99_ms,
      static_cast<unsigned long long>(s.backlog_max),
      static_cast<unsigned long long>(s.backlog_end),
      s.pass ? "pass" : (s.valid ? "fail" : "INVALID (generator late)"),
      s.sustained ? "sustained" : "not sustained");
}

/// Pipelined closed loop on one connection: the daemon's point capacity.
/// One generator thread keeps the machine's busy threads to two (client
/// and serve loop), which a shared host disturbs least.
[[nodiscard]] WindowStats run_capacity(PointRig& rig, double seconds) {
  const auto& pool = rig.pool;
  std::vector<std::size_t> order(pool.requests.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const ResponseCheck check = [&](std::size_t i, const svc::Response& r) {
    return encode(r) == pool.expected[i];
  };
  const auto start = Clock::now();
  ClosedResult c = run_closed_loop(rig.client, pool.requests, order, 0,
                                   kCapacityWindow, start,
                                   after(start, seconds), check);
  rig.tally.add(c.tally);
  return window_stats(c.done_s, c.latency_ms, seconds, kCapacityWindowS);
}

/// Highest rungs reached by one climb: by the p99 criterion (pass) and
/// by the kept-up criterion (sustained).
struct Climb {
  int max_pass = -1;
  int max_sustained = -1;
};

/// Climbs single rungs from `from` until two consecutive steps are not
/// sustained.
[[nodiscard]] Climb climb(PointRig& rig, std::size_t& cursor, int from) {
  Climb c;
  int fails = 0;
  for (int k = std::max(0, from); k <= kLadderTop && fails < 2; ++k) {
    const StepResult s = run_open_step(rig.client, rig.pool, cursor,
                                       ladder_rate(k), kStepS, kStepWindowS);
    rig.tally.add(s.tally);
    print_step("ladder", s);
    if (s.pass) c.max_pass = k;
    if (s.sustained) {
      c.max_sustained = k;
      fails = 0;
    } else {
      ++fails;
    }
  }
  return c;
}

}  // namespace

Outcome run_point_open(const Options& opt) {
  Outcome out;
  std::vector<double> setups;
  PointRig rig;
  rig.pool = make_point_pool_with_expected(opt.seed, kPoolSize);
  const auto priming = make_priming_requests();
  net::Client* const clients[] = {&rig.client};
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(restart_serving(rig.daemon, clients, priming, rig.tally));
  }
  out.check(rig.daemon != nullptr && rig.client.connected(),
            "daemon failed to start or the client failed to connect");
  const double setup_s = median(setups);
  if (!out.problems.empty()) {
    out.attempted = 1;
    out.failed = 1;
    return out;
  }
  std::printf("point_open: seed %llu, %zu pooled requests\n",
              static_cast<unsigned long long>(opt.seed), kPoolSize);

  if (opt.trace) {
    run_point_open_traced(opt, rig.pool, kFixedRate, kWindowS, *rig.daemon,
                          rig.client, rig.tally, out);
    check_conservation(rig.tally, *rig.daemon, out);
    out.attempted = rig.tally.sent;
    out.failed = rig.tally.failed();
    return out;
  }

  const auto t0 = Clock::now();
  std::size_t cursor = 0;
  StepResult fixed = run_open_step(rig.client, rig.pool, cursor, kFixedRate,
                                   0.3 * opt.seconds, kWindowS);
  rig.tally.add(fixed.tally);
  print_step("fixed", fixed);

  const WindowStats capacity = run_capacity(rig, 0.4 * opt.seconds);
  std::printf("  closed loop, %zu in flight: %.0f/s, median of %zu "
              "windows\n",
              kCapacityWindow, capacity.rate, capacity.windows);

  // Peak memory before the ladder: overloaded rungs grow socket and
  // decoder buffers by however far the host let the backlog run.
  const double rss = peak_rss_mb();

  // The ladder starts a little under the measured capacity and climbs
  // until two consecutive rungs are not sustained; it repeats while time
  // remains. Each figure is the median over climbs of its highest rung.
  const auto end = after(t0, opt.seconds);
  const int from = rung_below(0.85 * capacity.rate);
  std::vector<double> max_pass;
  std::vector<double> max_sustained;
  while (max_pass.empty() || Clock::now() < end) {
    const Climb c = climb(rig, cursor, from);
    max_pass.push_back(c.max_pass >= 0 ? ladder_rate(c.max_pass) : 0.0);
    max_sustained.push_back(
        c.max_sustained >= 0 ? ladder_rate(c.max_sustained) : 0.0);
  }

  check_conservation(rig.tally, *rig.daemon, out);
  out.attempted = rig.tally.sent;
  out.failed = rig.tally.failed();
  const double failed_share =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);

  std::printf("end-to-end (tracing off):\n");
  report("setup_s", setup_s, "s",
         "daemon start + connect + priming, median of " +
             std::to_string(kSetups));
  report("peak_rss_mb", rss, "MB", "before the ladder");
  report("failed_share", failed_share, "share",
         std::to_string(out.failed) + " of " +
             std::to_string(out.attempted));
  report("point_p50_ms", fixed.p50_ms, "ms",
         "open loop at " + std::to_string(static_cast<int>(kFixedRate)) +
             "/s, n=" + std::to_string(fixed.latency_ms.size()) +
             ", median of " + std::to_string(fixed.windows) + " windows");
  report("point_p99_ms", fixed.p99_ms, "ms", "median of window p99s");
  report("point_capacity_rps", capacity.rate, "1/s",
         "pipelined closed loop, median of windows");
  report("point_max_rps", median(max_pass), "1/s",
         "ladder, p99 <= 1 ms, median of " +
             std::to_string(max_pass.size()) + " climbs");
  report("point_sustained_rps", median(max_sustained), "1/s",
         "ladder, p50 <= 1 ms and no growing backlog");
  report("loadgen.late_p99_ms", fixed.late_p99_ms, "ms");
  report("loadgen.backlog_max", static_cast<double>(fixed.backlog_max),
         "count");

  out.metric("setup_s", setup_s, "s");
  out.metric("peak_rss_mb", rss, "MB");
  out.metric("p50_ms", fixed.p50_ms, "ms");
  return out;
}

}  // namespace perfbench
