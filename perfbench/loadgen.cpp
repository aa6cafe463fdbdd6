#include "loadgen.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <string_view>
#include <thread>

#include "corpus.hpp"

namespace perfbench {

using namespace pbc;

namespace {

/// Generator lateness (p99) above which a step is invalid: the sender
/// could not hold the offered schedule.
constexpr double kLateToleranceMs = 0.25;
/// ROADMAP item 2's latency target for a passing step.
constexpr double kP99TargetMs = 1.0;

/// Sleeps until `t`. The generator never spins: a spinning thread shares
/// the machine's few cores with the daemon it measures. Requests whose
/// time passed during a sleep go out back to back, and their lateness is
/// recorded.
void wait_until(Clock::time_point t) {
  if (Clock::now() < t) std::this_thread::sleep_until(t);
}

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Errors the client raises itself (the stream broke) rather than
/// decodes from a server error payload.
[[nodiscard]] bool is_transport(const Error& e) {
  return std::string_view(e.message).starts_with("pbc_client:");
}

}  // namespace

void Tally::add(const Tally& o) {
  sent += o.sent;
  ok += o.ok;
  shed += o.shed;
  deadline += o.deadline;
  error += o.error;
  transport += o.transport;
  wrong += o.wrong;
}

bool classify(const Result<svc::Response>& r, Tally& t) {
  if (r.ok()) {
    ++t.ok;
    return true;
  }
  const Error& e = r.error();
  if (is_transport(e)) {
    ++t.transport;
  } else if (e.code == ErrorCode::kUnavailable) {
    ++t.shed;
  } else if (e.code == ErrorCode::kDeadlineExceeded) {
    ++t.deadline;
  } else {
    ++t.error;
  }
  return false;
}

std::unique_ptr<net::Daemon> start_daemon() {
  auto d = std::make_unique<net::Daemon>(net::DaemonOptions{});
  if (!d->start().ok()) return nullptr;
  return d;
}

net::Client connect(const net::Daemon& d) {
  auto c = net::Client::connect("127.0.0.1", d.port());
  return c.ok() ? std::move(c.value()) : net::Client{};
}

namespace {

/// Sends `reqs` pipelined, then reads every answer and checks it is a
/// response; the priming pass.
void send_all(net::Client& c, const std::vector<svc::Request>& reqs,
              Tally& t) {
  std::size_t in_flight = 0;
  for (const auto& req : reqs) {
    ++t.sent;
    if (c.send(req).ok()) {
      ++in_flight;
    } else {
      ++t.transport;
    }
  }
  for (; in_flight > 0; --in_flight) (void)classify(c.receive(), t);
}

}  // namespace

double restart_serving(std::unique_ptr<net::Daemon>& daemon,
                       std::span<net::Client* const> clients,
                       const std::vector<svc::Request>& priming,
                       Tally& tally) {
  for (net::Client* c : clients) c->close();
  daemon.reset();
  tally = {};
  const auto t0 = Clock::now();
  daemon = start_daemon();
  if (daemon) {
    for (net::Client* c : clients) *c = connect(*daemon);
    send_all(*clients.front(), priming, tally);
  }
  return seconds_between(t0, Clock::now());
}

void check_conservation(const Tally& t, net::Daemon& d, Outcome& out) {
  const auto snap = d.metrics().snapshot();
  const std::uint64_t requests = snap.counter("pbc_net_requests_total");
  const std::uint64_t responses = snap.counter("pbc_net_responses_total");
  const std::uint64_t shed = snap.counter("pbc_net_shed_total");
  const std::uint64_t errors = snap.counter("pbc_net_errors_total");
  const std::uint64_t deadline =
      snap.counter("pbc_net_deadline_rejected_total");
  out.check(t.sent == t.ok + t.shed + t.deadline + t.error + t.transport,
            "conservation: client sent != ok + shed + deadline + error + "
            "transport");
  out.check(requests == t.sent && responses == t.ok && shed == t.shed &&
                errors == t.error && deadline == t.deadline,
            "conservation: daemon counters (requests " +
                std::to_string(requests) + ", responses " +
                std::to_string(responses) + ", shed " + std::to_string(shed) +
                ", errors " + std::to_string(errors) + ", deadline " +
                std::to_string(deadline) + ") != client tally (sent " +
                std::to_string(t.sent) + ", ok " + std::to_string(t.ok) +
                ")");
}

LayerCounters LayerCounters::operator-(const LayerCounters& o) const {
  LayerCounters d;
  for (std::size_t i = 0; i < kCaches.size(); ++i) {
    d.hits[i] = hits[i] - o.hits[i];
    d.misses[i] = misses[i] - o.misses[i];
  }
  d.computes = computes - o.computes;
  d.coalesced = coalesced - o.coalesced;
  d.shed = shed - o.shed;
  d.deadline = deadline - o.deadline;
  d.errors = errors - o.errors;
  d.table_builds = table_builds - o.table_builds;
  d.frontier_builds = frontier_builds - o.frontier_builds;
  d.blocked_tiles = blocked_tiles - o.blocked_tiles;
  return d;
}

LayerCounters read_layer_counters(net::Daemon* daemon) {
  LayerCounters c;
  if (daemon != nullptr) {
    const auto snap = daemon->metrics().snapshot();
    for (std::size_t i = 0; i < LayerCounters::kCaches.size(); ++i) {
      const obs::Labels cache{{"cache", LayerCounters::kCaches[i]}};
      c.hits[i] = snap.counter("pbc_svc_cache_hits_total", cache);
      c.misses[i] = snap.counter("pbc_svc_cache_misses_total", cache);
    }
    c.computes = snap.counter("pbc_svc_computes_total");
    c.coalesced = snap.counter("pbc_svc_coalesced_total");
    c.shed = snap.counter("pbc_net_shed_total");
    c.deadline = snap.counter("pbc_net_deadline_rejected_total");
    c.errors = snap.counter("pbc_net_errors_total");
  }
  const auto global = obs::global_registry().snapshot();
  for (const char* component : {"cpu", "gpu"}) {
    const obs::Labels l{{"component", component}};
    c.table_builds += global.counter("pbc_sim_table_builds_total", l);
    c.frontier_builds += global.counter("pbc_sim_frontier_builds_total", l);
  }
  c.blocked_tiles = global.counter("pbc_sim_blocked_sweep_tiles_total");
  return c;
}

PointPool make_point_pool_with_expected(std::uint64_t seed, std::size_t n) {
  PointPool pool;
  pool.requests = make_point_pool(seed, n);
  svc::QueryEngine reference;
  pool.expected.reserve(n);
  for (const auto& req : pool.requests) {
    pool.expected.push_back(expected_bytes(reference, req));
  }
  return pool;
}

StepResult run_open_step(net::Client& c, const PointPool& pool,
                         std::size_t& cursor, double rate, double duration_s,
                         double window_s) {
  using namespace std::chrono;
  StepResult r;
  r.rate = rate;
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(rate * duration_s)));
  const double period_ns = 1e9 / rate;
  std::vector<std::size_t> idx(n);
  for (std::size_t k = 0; k < n; ++k) {
    idx[k] = (cursor + k) % pool.requests.size();
  }
  cursor += n;
  const auto t0 = Clock::now() + microseconds(200);
  const auto due = [&](std::size_t k) {
    return t0 + nanoseconds(static_cast<std::int64_t>(
                    std::llround(static_cast<double>(k) * period_ns)));
  };

  // `sent` counts requests on the wire; kBroken tells the receiver the
  // sender stopped. The receiver sleeps on it while it is caught up.
  constexpr std::size_t kBroken = ~std::size_t{0};
  std::vector<double> latency(n, -1.0);
  std::atomic<std::size_t> sent{0};
  std::atomic<std::size_t> received{0};
  std::atomic<bool> broken{false};
  Tally rx;
  std::thread receiver([&] {
    for (std::size_t k = 0; k < n; ++k) {
      for (;;) {
        const std::size_t s = sent.load(std::memory_order_acquire);
        if (s == kBroken) return;
        if (s > k) break;
        sent.wait(s);
      }
      const auto resp = c.receive();
      const auto now = Clock::now();
      if (classify(resp, rx)) {
        if (encode(resp.value()) != pool.expected[idx[k]]) {
          ++rx.wrong;
        } else {
          latency[k] = ms_between(due(k), now);
        }
      } else if (is_transport(resp.error())) {
        broken.store(true);
        return;
      }
      received.store(k + 1, std::memory_order_release);
    }
  });

  // Tight timer slack so sleep_until wakes within microseconds.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  r.late_ms.reserve(n);
  std::size_t on_wire = 0;
  for (std::size_t k = 0; k < n && !broken.load(); ++k) {
    wait_until(due(k));
    r.late_ms.push_back(ms_between(due(k), Clock::now()));
    ++r.tally.sent;
    if (!c.send(pool.requests[idx[k]]).ok()) break;
    on_wire = k + 1;
    sent.store(on_wire, std::memory_order_release);
    sent.notify_one();
    r.backlog_max = std::max<std::uint64_t>(
        r.backlog_max, on_wire - received.load(std::memory_order_acquire));
  }
  r.backlog_end = on_wire - received.load();
  if (on_wire < n) {
    sent.store(kBroken, std::memory_order_release);
    sent.notify_one();
  }
  receiver.join();

  const std::uint64_t answered = rx.ok + rx.shed + rx.deadline + rx.error +
                                 rx.transport;
  rx.sent = 0;
  r.tally.add(rx);
  r.tally.transport += r.tally.sent - answered;
  for (std::size_t k = 0; k < n; ++k) {
    if (latency[k] < 0.0) continue;
    r.latency_ms.push_back(latency[k]);
    r.due_s.push_back(static_cast<double>(k) / rate);
  }
  const WindowStats lat =
      window_stats(r.due_s, r.latency_ms, duration_s, window_s);
  std::vector<double> late_due(r.late_ms.size());
  for (std::size_t k = 0; k < late_due.size(); ++k) {
    late_due[k] = static_cast<double>(k) / rate;
  }
  r.p50_ms = lat.p50;
  r.p99_ms = lat.p99;
  r.windows = lat.windows;
  const WindowStats late =
      window_stats(late_due, r.late_ms, duration_s, window_s);
  r.late_p50_ms = late.p50;
  r.late_p99_ms = late.p99;
  r.valid = r.late_p99_ms <= kLateToleranceMs;
  const double backlog_limit = std::max(16.0, 2e-3 * rate);
  const bool kept_up = r.tally.failed() == 0 &&
                       static_cast<double>(r.backlog_end) <= backlog_limit;
  r.pass = kept_up && r.valid && r.p99_ms <= kP99TargetMs;
  r.sustained = kept_up && r.late_p50_ms <= kLateToleranceMs &&
                r.p50_ms <= kP99TargetMs;
  return r;
}

ClosedResult run_closed_loop(net::Client& c,
                             const std::vector<svc::Request>& pool,
                             const std::vector<std::size_t>& order,
                             std::size_t offset, std::size_t window,
                             Clock::time_point start, Clock::time_point end,
                             const ResponseCheck& check) {
  ClosedResult r;
  std::deque<std::pair<std::size_t, Clock::time_point>> in_flight;
  bool broken = false;
  const auto receive_one = [&] {
    const auto [i, t_sent] = in_flight.front();
    in_flight.pop_front();
    const auto resp = c.receive();
    const auto now = Clock::now();
    if (!classify(resp, r.tally)) {
      broken = broken || is_transport(resp.error());
      return;
    }
    if (!check(i, resp.value())) {
      ++r.tally.wrong;
      return;
    }
    r.latency_ms.push_back(ms_between(t_sent, now));
    r.done_s.push_back(seconds_between(start, now));
  };

  while (!broken && Clock::now() < end) {
    while (in_flight.size() < window) {
      const std::size_t i = order[(offset + r.issued) % order.size()];
      ++r.issued;
      ++r.tally.sent;
      if (!c.send(pool[i]).ok()) {
        ++r.tally.transport;
        broken = true;
        break;
      }
      in_flight.emplace_back(i, Clock::now());
    }
    if (!in_flight.empty()) receive_one();
  }
  while (!broken && !in_flight.empty()) receive_one();
  r.tally.transport += in_flight.size();
  return r;
}

PacedResult run_paced_points(net::Client& c, const PointPool& pool,
                             std::size_t first, double rate,
                             Clock::time_point start, Clock::time_point end) {
  using namespace std::chrono;
  PacedResult r;
  const double period_ns = 1e9 / rate;
  for (std::size_t k = 0;; ++k) {
    const auto due = start + nanoseconds(static_cast<std::int64_t>(
                                 std::llround(static_cast<double>(k) *
                                              period_ns)));
    if (due >= end) break;
    wait_until(due);
    r.late_ms.push_back(ms_between(due, Clock::now()));
    const std::size_t i = (first + k) % pool.requests.size();
    ++r.tally.sent;
    if (!c.send(pool.requests[i]).ok()) {
      ++r.tally.transport;
      break;
    }
    const auto resp = c.receive();
    const auto now = Clock::now();
    if (!classify(resp, r.tally)) {
      if (is_transport(resp.error())) break;
      continue;
    }
    if (encode(resp.value()) != pool.expected[i]) {
      ++r.tally.wrong;
      continue;
    }
    r.latency_ms.push_back(ms_between(due, now));
  }
  return r;
}

WindowStats window_stats(const std::vector<double>& done_s,
                         const std::vector<double>& value, double span_s,
                         double window_s) {
  WindowStats w;
  const auto n = static_cast<std::size_t>(std::floor(span_s / window_s));
  if (n == 0) return w;
  std::vector<std::vector<double>> per(n);
  for (std::size_t i = 0; i < done_s.size(); ++i) {
    const auto b = static_cast<std::size_t>(done_s[i] / window_s);
    if (b < n) per[b].push_back(value[i]);
  }
  std::vector<double> rates;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const auto& v : per) {
    rates.push_back(static_cast<double>(v.size()) / window_s);
    if (v.empty()) continue;
    p50.push_back(percentile(v, 50.0));
    p99.push_back(percentile(v, 99.0));
  }
  w.rate = median(rates);
  w.p50 = median(p50);
  w.p99 = median(p99);
  w.windows = n;
  return w;
}

}  // namespace perfbench
