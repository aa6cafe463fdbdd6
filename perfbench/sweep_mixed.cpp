// sweep_mixed: a pipelined closed loop of heavy requests (frontier,
// sample, replay, shift, online) drawn with Zipf skew from a seeded pool
// larger than the engine's frontier and replay caches, beside a paced
// low-rate point stream on its own connection. sim/core/ctrl compute and
// svc cache misses dominate; the point stream shows head-of-line blocking
// behind compute on the daemon's single serve thread.
#include <cstdio>
#include <thread>

#include "corpus.hpp"
#include "loadgen.hpp"
#include "sweep.hpp"
#include "traced.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pbc;

namespace {

constexpr std::size_t kHeavyPool = 4096;
constexpr std::size_t kPointPool = 1024;
/// Zipf exponent of the pool's popularity: within the 0.64-0.83 range
/// Breslau et al. (INFOCOM 1999) fit to web proxy request traces.
constexpr double kSkew = 0.8;
/// Draws precomputed per run; the closed loop cycles through them.
constexpr std::size_t kOrderLength = std::size_t{1} << 19;
/// Heavy requests in flight on the heavy connection: the 4 clients x 8
/// pipelined requests that bench/svc_net_throughput keeps outstanding
/// against the daemon, on one connection, so the daemon always has work
/// queued while the client decodes responses.
constexpr std::size_t kWindow = 32;
/// The background point stream: about 1% of the daemon's measured warm
/// point capacity (80k req/s), so it adds no load of its own and its
/// latency shows only the wait behind heavy requests.
constexpr double kPointRate = 1000.0;
constexpr double kWindowS = 0.5;
/// One heavy pool entry in kSampleEvery is checked against a separate
/// engine.
constexpr std::uint64_t kSampleEvery = 8;
/// Set-up rounds before the traffic, and again after it.
constexpr int kSetups = 8;

}  // namespace

SweepSetup make_sweep_setup(std::uint64_t seed) {
  SweepSetup s;
  s.heavy = make_heavy_pool(seed, kHeavyPool);
  s.points = make_point_pool_with_expected(seed, kPointPool);
  SkewedPicker picker(kHeavyPool, kSkew, seed);
  s.order.resize(kOrderLength);
  for (auto& i : s.order) i = picker.next();
  Xoshiro256 rng(seed, /*stream=*/15);
  s.sampled.resize(kHeavyPool);
  for (std::size_t i = 0; i < kHeavyPool; ++i) {
    s.sampled[i] = rng.below(kSampleEvery) == 0;
  }
  return s;
}

Outcome run_sweep_mixed(const Options& opt) {
  Outcome out;
  const SweepSetup setup = make_sweep_setup(opt.seed);
  const auto priming = make_priming_requests();
  std::unique_ptr<net::Daemon> daemon;
  net::Client heavy_client;
  net::Client point_client;
  net::Client* const clients[] = {&point_client, &heavy_client};
  Tally tally;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(restart_serving(daemon, clients, priming, tally));
  }
  out.check(daemon && heavy_client.connected() && point_client.connected(),
            "daemon failed to start or a client failed to connect");
  if (!out.problems.empty()) {
    out.attempted = 1;
    out.failed = 1;
    return out;
  }
  std::printf("sweep_mixed: seed %llu, %zu heavy + %zu point pooled requests\n",
              static_cast<unsigned long long>(opt.seed), kHeavyPool,
              kPointPool);

  // The traced run spends most of its time in the in-process replay.
  const double seconds = opt.trace ? 0.4 * opt.seconds : opt.seconds;
  const SweepTraffic traffic =
      run_sweep_traffic(setup, *daemon, heavy_client, point_client, seconds,
                        out);
  tally.add(traffic.heavy.tally);
  tally.add(traffic.point.tally);
  check_conservation(tally, *daemon, out);

  if (opt.trace) {
    run_sweep_mixed_traced(opt, setup, traffic, out);
    out.attempted = tally.sent;
    out.failed = tally.failed();
    return out;
  }

  // A set-up round lasts about a millisecond, so the host's state at one
  // moment would set the figure: as many rounds again run after the
  // traffic, each checked like the first daemon.
  for (int i = 0; i < kSetups; ++i) {
    Tally round;
    setups.push_back(restart_serving(daemon, clients, priming, round));
    out.check(daemon != nullptr, "daemon failed to restart");
    if (!daemon) break;
    check_conservation(round, *daemon, out);
    tally.add(round);
  }
  const double setup_s = median(setups);

  const WindowStats heavy = window_stats(
      traffic.heavy.done_s, traffic.heavy.latency_ms, opt.seconds, kWindowS);
  out.attempted = tally.sent;
  out.failed = tally.failed();
  const double rss = traffic.peak_rss_mb;

  std::printf("end-to-end (tracing off):\n");
  report("setup_s", setup_s, "s",
         "daemon start + connect + priming, median of " +
             std::to_string(setups.size()) + " before and after the traffic");
  report("peak_rss_mb", rss, "MB", "before the reference check");
  report("failed_share",
         static_cast<double>(out.failed) / static_cast<double>(out.attempted),
         "share",
         std::to_string(out.failed) + " of " + std::to_string(out.attempted));
  report("heavy_rps", heavy.rate, "1/s",
         "median of " + std::to_string(heavy.windows) + " windows, " +
             std::to_string(kWindow) + " in flight");
  report("heavy_p50_ms", heavy.p50, "ms",
         "n=" + std::to_string(traffic.heavy.latency_ms.size()) +
             ", median of window p50s");
  report("heavy_p99_ms", heavy.p99, "ms", "median of window p99s");
  report("point_p50_ms", percentile(traffic.point.latency_ms, 50.0), "ms",
         "background stream at " +
             std::to_string(static_cast<int>(kPointRate)) + "/s, n=" +
             std::to_string(traffic.point.latency_ms.size()));
  report("point_p99_ms", percentile(traffic.point.latency_ms, 99.0), "ms");
  report("loadgen.late_p99_ms", percentile(traffic.point.late_ms, 99.0),
         "ms");

  out.metric("setup_s", setup_s, "s");
  out.metric("peak_rss_mb", rss, "MB");
  out.metric("p50_ms", heavy.p50, "ms");
  return out;
}

SweepTraffic run_sweep_traffic(const SweepSetup& setup, net::Daemon& daemon,
                               net::Client& heavy_client,
                               net::Client& point_client, double seconds,
                               Outcome& out) {
  SweepTraffic t;
  std::vector<std::uint64_t> first_hash(setup.heavy.size(), 0);
  const ResponseCheck check = [&](std::size_t i, const svc::Response& r) {
    if (!setup.sampled[i]) return true;
    auto bytes = encode(r);
    const std::uint64_t h =
        fnv1a64({reinterpret_cast<const char*>(bytes.data()), bytes.size()}) |
        1;
    if (first_hash[i] == 0) {
      first_hash[i] = h;
      t.kept.emplace(i, std::move(bytes));
      return true;
    }
    return first_hash[i] == h;
  };
  const LayerCounters before = read_layer_counters(&daemon);
  const auto start = Clock::now();
  const auto end = after(start, seconds);
  std::thread heavy([&] {
    t.heavy = run_closed_loop(heavy_client, setup.heavy, setup.order, 0,
                              kWindow, start, end, check);
  });
  t.point = run_paced_points(point_client, setup.points, 0, kPointRate, start,
                             end);
  heavy.join();
  t.seconds = seconds;
  t.window = kWindow;
  t.counters = read_layer_counters(&daemon) - before;
  t.peak_rss_mb = peak_rss_mb();

  // The sampled heavy responses against a separate in-process engine.
  svc::QueryEngine reference;
  std::size_t mismatched = 0;
  for (const auto& [i, bytes] : t.kept) {
    if (expected_bytes(reference, setup.heavy[i]) != bytes) ++mismatched;
  }
  t.heavy.tally.wrong += mismatched;
  out.check(mismatched == 0, std::to_string(mismatched) + " of " +
                                 std::to_string(t.kept.size()) +
                                 " sampled heavy responses differ from a "
                                 "separate engine");
  return t;
}

}  // namespace perfbench
