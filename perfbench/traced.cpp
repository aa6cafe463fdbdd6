#include "traced.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_map>

#include "core/cluster_profile.hpp"
#include "core/critical.hpp"
#include "core/dynamic.hpp"
#include "core/frontier.hpp"
#include "corpus.hpp"
#include "ctrl/closed_loop.hpp"
#include "net/codec.hpp"
#include "net/router.hpp"
#include "sim/phase_nodes.hpp"
#include "sim/trace_replay.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace pbc;

namespace {

constexpr net::Codec kCodec = net::Codec::kBinary;
/// Requests whose spans go into the Chrome trace file (all requests feed
/// the statistics).
constexpr std::size_t kExportRequests = 4000;
/// Frames timed by the loopback echo.
constexpr std::size_t kEchoFrames = 4000;

// ---------------------------------------------------------------- spans

/// One timed layer boundary. `depth` 0 is the request, 1 a stage, 2+ a
/// direct compute call inside svc.execute.
struct Span {
  std::uint32_t name = 0;
  std::uint32_t depth = 0;
  std::uint64_t request = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

/// In-memory span store with interned names.
class SpanLog {
 public:
  std::uint32_t intern(const std::string& name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    names_.push_back(name);
    return ids_[name] = static_cast<std::uint32_t>(names_.size() - 1);
  }
  /// Appends a span; returns its index for set_duration().
  std::size_t add(std::uint32_t name, std::uint32_t depth,
                  std::uint64_t request, double ts_us, double dur_us) {
    spans_.push_back({name, depth, request, ts_us, dur_us});
    return spans_.size() - 1;
  }
  void set_duration(std::size_t index, double dur_us) {
    spans_[index].dur_us = dur_us;
  }

  /// Mean self time per request of each span name: duration minus the
  /// durations of its direct children. Spans are stored parent first, so
  /// a span's parent is the latest earlier span one level up.
  [[nodiscard]] std::map<std::string, double> self_us_per_request(
      std::size_t requests) const {
    std::map<std::string, double> total;
    std::vector<std::size_t> open;  // index of the latest span per depth
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (open.size() <= s.depth) open.resize(s.depth + 1);
      open[s.depth] = i;
      total[names_[s.name]] += s.dur_us;
      if (s.depth > 0) {
        const Span& parent = spans_[open[s.depth - 1]];
        if (parent.request == s.request) {
          total[names_[parent.name]] -= s.dur_us;
        }
      }
    }
    for (auto& [n, v] : total) {
      v /= static_cast<double>(std::max<std::size_t>(requests, 1));
    }
    return total;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds), for the
  /// first `max_requests` requests.
  [[nodiscard]] bool write_chrome(const std::string& path,
                                  std::size_t max_requests) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    bool first = true;
    char buf[256];
    for (const Span& s : spans_) {
      if (s.request >= max_requests) continue;
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                    "\"args\": {\"span_id\": %llu}}",
                    first ? "" : ",\n", names_[s.name].c_str(),
                    s.depth == 0 ? "request" : "layer", s.ts_us, s.dur_us,
                    static_cast<unsigned long long>(s.request));
      f << buf;
      first = false;
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ pipeline

/// Per-request stage timings of one traced request.
struct RequestTiming {
  svc::QueryKind kind = svc::QueryKind::kQueryCpu;
  double encode_us = 0.0;     ///< client request encode + response encode
  double decode_us = 0.0;     ///< frame + request decode, client decode
  double admit_us = 0.0;
  double route_us = 0.0;
  double execute_us = 0.0;
  double children_us = 0.0;   ///< direct compute calls on a miss
  bool miss = false;
  double bytes = 0.0;         ///< request + response frame bytes
};

/// Counter handles of the in-process engine's cache traffic.
struct MissCounters {
  explicit MissCounters(obs::MetricsRegistry& reg) {
    const auto miss = [&reg](const char* cache) {
      return &reg.counter("pbc_svc_cache_misses_total", "",
                          {{"cache", cache}});
    };
    profile = miss("profile");
    sim = miss("sim");
    frontier = miss("frontier");
    replay = miss("replay");
    online = miss("online");
  }
  struct Read {
    std::uint64_t profile, sim, frontier, replay, online;
  };
  [[nodiscard]] Read read() const {
    return {profile->value(), sim->value(), frontier->value(),
            replay->value(), online->value()};
  }
  obs::Counter* profile;
  obs::Counter* sim;
  obs::Counter* frontier;
  obs::Counter* replay;
  obs::Counter* online;
};

/// The daemon's serving path run stage by stage in-process: the same
/// public calls Daemon::process_frame and Client make, on a fresh engine
/// primed like the daemon.
class StagedPipeline {
 public:
  StagedPipeline() : router_(net::DaemonOptions{}.shards,
                             net::DaemonOptions{}.vnodes),
                     misses_(engine_.metrics()) {
    for (const auto& req : make_priming_requests()) {
      (void)engine_.execute(req);
    }
  }

  /// The whole path with no timers inside: the untraced reference for
  /// trace.overhead_share. Returns false when a stage fails.
  bool run_plain(const svc::Request& req) {
    const auto frame_bytes = net::frame_request(req, kCodec);
    server_.feed(frame_bytes);
    auto frame = server_.next();
    if (!frame.ok() || !frame.value()) return false;
    auto decoded = net::decode_request(frame.value()->payload, kCodec);
    if (!decoded.ok()) return false;
    if (!admission_.try_admit(1, Clock::now())) return false;
    (void)router_.route(svc::descriptor_hash(decoded.value()));
    auto resp = engine_.execute(decoded.value());
    if (!resp.ok()) return false;
    const auto out = net::frame_response(resp.value(), kCodec);
    client_.feed(out);
    auto back = client_.next();
    if (!back.ok() || !back.value()) return false;
    return net::decode_response(back.value()->payload, kCodec).ok();
  }

  /// The whole path with a span per stage; on a cache miss, the matching
  /// direct compute call runs after execute() as its child. `clock_us` is
  /// the trace's virtual clock: it advances by the pipeline's own time
  /// only, so direct calls do not shift later requests.
  bool run_traced(const svc::Request& req, std::uint64_t span_id,
                  double& clock_us, SpanLog& log, RequestTiming& t,
                  std::vector<std::uint8_t>& response_frame, Outcome& out) {
    t.kind = svc::request_kind(req);
    const double start_us = clock_us;
    const std::size_t root = log.add(log.intern("request"), 0, span_id,
                                     start_us, 0.0);
    const auto stage = [&](const char* name, Clock::time_point a,
                           Clock::time_point b) {
      const double d = us_between(a, b);
      log.add(log.intern(name), 1, span_id, clock_us, d);
      clock_us += d;
      return d;
    };

    const auto t0 = Clock::now();
    const auto frame_bytes = net::frame_request(req, kCodec);
    const auto t1 = Clock::now();
    server_.feed(frame_bytes);
    auto frame = server_.next();
    const auto t2 = Clock::now();
    if (!frame.ok() || !frame.value()) return false;
    auto decoded = net::decode_request(frame.value()->payload, kCodec);
    const auto t3 = Clock::now();
    if (!decoded.ok()) return false;
    const bool admitted = admission_.try_admit(1, t3);
    const auto t4 = Clock::now();
    if (!admitted) return false;
    (void)router_.route(svc::descriptor_hash(decoded.value()));
    const auto t5 = Clock::now();
    const MissCounters::Read before = misses_.read();
    auto resp = engine_.execute(decoded.value());
    const auto t6 = Clock::now();
    if (!resp.ok()) return false;
    const MissCounters::Read after = misses_.read();

    t.encode_us = stage("net.client_encode", t0, t1);
    t.decode_us = stage("net.frame_decode", t1, t2);
    t.decode_us += stage("net.request_decode", t2, t3);
    t.admit_us = stage("net.admit", t3, t4);
    t.route_us = stage("net.route", t4, t5);
    const double exec_ts = clock_us;
    t.execute_us = stage("svc.execute", t5, t6);
    t.children_us = direct_children(decoded.value(), resp.value(), before,
                                    after, span_id, exec_ts, log, t, out);

    const auto t7 = Clock::now();
    response_frame = net::frame_response(resp.value(), kCodec);
    const auto t8 = Clock::now();
    client_.feed(response_frame);
    auto back = client_.next();
    const bool ok = back.ok() && back.value() &&
                    net::decode_response(back.value()->payload, kCodec).ok();
    const auto t9 = Clock::now();
    t.encode_us += stage("net.response_encode", t7, t8);
    t.decode_us += stage("net.client_decode", t8, t9);
    t.bytes = static_cast<double>(frame_bytes.size() + response_frame.size());
    log.set_duration(root, clock_us - start_us);
    return ok;
  }

 private:
  /// Times the direct sim/core/ctrl call behind a cache miss and checks
  /// its result is bit-identical to execute()'s. Returns the children's
  /// total time.
  double direct_children(const svc::Request& req, const svc::Response& resp,
                         const MissCounters::Read& before,
                         const MissCounters::Read& after,
                         std::uint64_t span_id, double exec_ts, SpanLog& log,
                         RequestTiming& t, Outcome& out) {
    const std::uint64_t sim_missed = after.sim - before.sim;
    double ts = exec_ts;
    double total = 0.0;
    const auto child = [&](const char* name, std::uint32_t depth, auto&& f) {
      const auto a = Clock::now();
      f();
      const double d = us_between(a, Clock::now());
      log.add(log.intern(name), depth, span_id, ts, d);
      if (depth == 2) {
        ts += d;
        total += d;
      }
      direct_us[name].push_back(d);
      return d;
    };
    const auto same = [&](svc::ResponseOp direct, const char* what) {
      const bool eq =
          encode(svc::Response{resp.id, std::move(direct)}) == encode(resp);
      out.check(eq, std::string("traced: direct ") + what +
                        " result differs from execute()");
    };
    const std::uint64_t key = svc::descriptor_hash(req);
    const bool table_miss = sim_missed >= 1;
    const auto node_for = [&](const hw::CpuMachine& m,
                              const workload::Workload& wl, bool built) {
      if (built) {
        child("sim.table_build", 2,
              [&] { nodes_[key] = sim::make_prepared_cpu_node(m, wl); });
      } else if (!nodes_.count(key)) {
        nodes_[key] = sim::make_prepared_cpu_node(m, wl);
      }
      return nodes_[key];
    };
    const auto set_for = [&](const hw::CpuMachine& m,
                             const workload::Workload& wl) {
      // replay/shift/online: one sim miss builds the phase-node set, a
      // second the table under it.
      const auto node = node_for(m, wl, sim_missed >= 2);
      if (sim_missed >= 1) {
        child("sim.phase_nodes_build", 2, [&] {
          sets_[key] = std::make_shared<const sim::PhaseNodeSet>(node);
        });
      } else if (!sets_.count(key)) {
        sets_[key] = std::make_shared<const sim::PhaseNodeSet>(node);
      }
      return sets_[key];
    };

    std::visit(
        [&](const auto& op) {
          using T = std::decay_t<decltype(op)>;
          const svc::CallOptions& o = req.options;
          if constexpr (std::is_same_v<T, svc::QueryCpuOp>) {
            if (after.profile == before.profile) return;
            t.miss = true;
            child("core.profile", 2, [&] {
              (void)core::profile_critical_powers(
                  sim::CpuNodeSim(op.machine, op.wl));
            });
          } else if constexpr (std::is_same_v<T, svc::SampleOp>) {
            if (!table_miss) return;
            t.miss = true;
            const auto node = node_for(op.machine, op.wl, true);
            sim::AllocationSample s;
            child("sim.sample", 2,
                  [&] { s = node->steady_state(op.cpu_cap, op.mem_cap); });
            same(s, "sample");
          } else if constexpr (std::is_same_v<T, svc::FrontierOp>) {
            if (after.frontier == before.frontier) return;
            t.miss = true;
            const auto node = node_for(op.machine, op.wl, table_miss);
            const sim::CpuSweepOptions sweep{op.mem_lo, op.proc_lo, op.step,
                                             o.solver_path, o.budget_block};
            std::vector<core::FrontierPoint> f;
            child("sim.frontier", 2, [&] {
              f = core::perf_frontier_cpu(*node, op.budgets, sweep,
                                          &global_pool());
            });
            same(std::move(f), "frontier");
          } else if constexpr (std::is_same_v<T, svc::ReplayOp>) {
            if (after.replay == before.replay) return;
            t.miss = true;
            const auto set = set_for(op.machine, op.wl);
            sim::TraceReplayResult r;
            child("sim.replay", 2, [&] {
              r = sim::replay_trace(*set, op.trace, op.cpu_cap, op.mem_cap);
            });
            same(std::move(r), "replay");
          } else if constexpr (std::is_same_v<T, svc::ShiftOp>) {
            if (after.replay == before.replay) return;
            t.miss = true;
            const auto set = set_for(op.machine, op.wl);
            core::ShiftingConfig cfg;
            cfg.step = op.step;
            cfg.max_steps_per_segment = op.max_steps_per_segment;
            cfg.cpu_min = op.cpu_min;
            cfg.mem_min = op.mem_min;
            cfg.path = o.replay_path;
            core::ShiftingResult r;
            const double shift_ts = ts;
            child("core.shift", 2, [&] {
              r = core::replay_with_shifting(*set, op.trace, op.total_budget,
                                             cfg);
            });
            // The COORD starting split inside the shift, timed alone and
            // placed at the start of its parent.
            const double saved = ts;
            ts = shift_ts;
            child("core.profile", 3,
                  [&] { (void)core::profile_critical_powers(set->full()); });
            ts = saved;
            same(std::move(r), "shift");
          } else if constexpr (std::is_same_v<T, svc::OnlineOp>) {
            if (after.online == before.online) return;
            t.miss = true;
            const auto set = set_for(op.machine, op.wl);
            ctrl::ControllerConfig cfg;
            cfg.step = op.step;
            cfg.cpu_min = op.cpu_min;
            cfg.mem_min = op.mem_min;
            cfg.explore_rate = op.explore_rate;
            cfg.explore_decay = op.explore_decay;
            cfg.explore_floor = op.explore_floor;
            cfg.ema_alpha = op.ema_alpha;
            cfg.hysteresis_margin = op.hysteresis_margin;
            cfg.seed = o.seed;
            ctrl::ClosedLoopResult r;
            child("ctrl.online", 2, [&] {
              r = ctrl::run_closed_loop(*set, op.trace, op.total_budget, cfg);
            });
            same(std::move(r), "online");
          }
        },
        req.op);
    return total;
  }

 public:
  /// Durations of each direct call, by span name.
  std::map<std::string, std::vector<double>> direct_us;

 private:
  svc::QueryEngine engine_;
  net::ShardRouter router_;
  net::AdmissionController admission_;
  net::FrameDecoder server_;
  net::FrameDecoder client_;
  MissCounters misses_;
  std::unordered_map<std::uint64_t, sim::PreparedCpuNode> nodes_;
  std::unordered_map<std::uint64_t, sim::PreparedPhaseNodes> sets_;
};

// ------------------------------------------------------------ transport

/// Median round trip of the same frames over a loopback TCP connection
/// to an echo thread that answers each request frame with its response
/// frame: the socket and wake-up cost without the daemon.
[[nodiscard]] double loopback_echo_us(
    const std::vector<std::vector<std::uint8_t>>& requests,
    const std::vector<std::vector<std::uint8_t>>& responses, Outcome& out) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (lfd < 0 ||
      ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(lfd, 1) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (lfd >= 0) ::close(lfd);
    out.check(false, "traced: loopback echo socket failed");
    return 0.0;
  }
  const auto read_n = [](int fd, std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      const ssize_t got = ::recv(fd, p, n, 0);
      if (got <= 0) return false;
      p += got;
      n -= static_cast<std::size_t>(got);
    }
    return true;
  };
  const auto write_n = [](int fd, const std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      const ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
      if (put <= 0) return false;
      p += put;
      n -= static_cast<std::size_t>(put);
    }
    return true;
  };
  const int one = 1;
  std::thread echo([&] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::vector<std::uint8_t> buf;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      buf.resize(requests[i].size());
      if (!read_n(fd, buf.data(), buf.size()) ||
          !write_n(fd, responses[i].data(), responses[i].size())) {
        break;
      }
    }
    ::close(fd);
  });
  const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  std::vector<double> rtt;
  if (cfd >= 0 && ::connect(cfd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) == 0) {
    (void)setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::vector<std::uint8_t> buf;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      buf.resize(responses[i].size());
      const auto t0 = Clock::now();
      if (!write_n(cfd, requests[i].data(), requests[i].size()) ||
          !read_n(cfd, buf.data(), buf.size())) {
        break;
      }
      rtt.push_back(us_between(t0, Clock::now()));
    }
  }
  if (cfd >= 0) ::close(cfd);
  echo.join();
  ::close(lfd);
  out.check(rtt.size() == requests.size(), "traced: loopback echo broke");
  return median(rtt);
}

// ------------------------------------------------------------- replay

/// Results of replaying one stream through the staged pipeline.
struct Replay {
  SpanLog log;
  std::vector<RequestTiming> timings;
  std::map<std::string, std::vector<double>> direct;
  double plain_s = 0.0;   ///< untraced pipeline, whole stream
  double traced_s = 0.0;  ///< traced pipeline minus direct calls
  double transport_us = 0.0;
};

/// Replays `stream` untraced on one fresh pipeline, for at most
/// `budget_s` (the stream is cut where the time ran out), then the same
/// requests traced on another, then times their frames over the loopback
/// echo.
[[nodiscard]] Replay replay_stream(std::vector<const svc::Request*> stream,
                                   double budget_s, Outcome& out) {
  Replay r;
  {
    StagedPipeline plain;
    const auto t0 = Clock::now();
    const auto end = after(t0, budget_s);
    std::size_t k = 0;
    while (k < stream.size() && (k % 64 != 0 || Clock::now() < end)) {
      out.check(plain.run_plain(*stream[k]),
                "traced: untraced pipeline failed");
      ++k;
    }
    r.plain_s = seconds_between(t0, Clock::now());
    stream.resize(k);
  }
  StagedPipeline traced;
  double clock_us = 0.0;
  std::vector<std::vector<std::uint8_t>> req_frames;
  std::vector<std::vector<std::uint8_t>> resp_frames;
  r.timings.resize(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    std::vector<std::uint8_t> resp_frame;
    out.check(traced.run_traced(*stream[i], i, clock_us, r.log, r.timings[i],
                                resp_frame, out),
              "traced: staged pipeline failed");
    if (i < kEchoFrames) {
      req_frames.push_back(net::frame_request(*stream[i], kCodec));
      resp_frames.push_back(std::move(resp_frame));
    }
  }
  r.traced_s = clock_us * 1e-6;
  r.direct = std::move(traced.direct_us);
  r.transport_us = loopback_echo_us(req_frames, resp_frames, out);
  return r;
}

/// Median of one RequestTiming field over the requests `pick` selects.
template <class Field, class Pick>
[[nodiscard]] double median_of(const std::vector<RequestTiming>& ts,
                               Field field, Pick pick) {
  std::vector<double> v;
  for (const auto& t : ts) {
    if (pick(t)) v.push_back(field(t));
  }
  return median(std::move(v));
}

/// Per-layer metrics every workload reports; the ones a workload does
/// not exercise read 0.
struct Layers {
  std::map<std::string, std::pair<double, std::string>> values;
  void set(const std::string& name, double v, const std::string& unit) {
    values[name] = {v, unit};
  }
};

[[nodiscard]] Layers zero_layers() {
  Layers l;
  for (const char* n :
       {"net.encode_us", "net.decode_us", "net.route_us", "net.admit_us",
        "net.transport_us", "svc.hit_us", "svc.miss_overhead_us",
        "sim.frontier_us", "sim.replay_us", "sim.sample_us",
        "sim.table_build_us", "core.profile_us", "core.shift_us",
        "ctrl.online_us", "core.cluster_us_per_event",
        "core.cluster_event_p99_us"}) {
    l.set(n, 0.0, "us");
  }
  for (std::size_t k = 0; k < svc::kQueryKindCount; ++k) {
    const auto kind = static_cast<svc::QueryKind>(k);
    if (kind == svc::QueryKind::kCluster) continue;
    l.set(std::string("svc.execute_us.") + svc::to_string(kind), 0.0, "us");
    l.set(std::string("svc.time_share.") + svc::to_string(kind), 0.0,
          "share");
  }
  for (const char* c : LayerCounters::kCaches) {
    l.set(std::string("svc.hit_ratio.") + c, 0.0, "ratio");
  }
  for (const char* n :
       {"net.shed", "net.deadline_rejected", "net.errors", "svc.computes",
        "svc.coalesced", "sim.table_builds", "sim.frontier_builds",
        "sim.blocked_tiles", "core.cluster_events",
        "core.cluster_subtree_resolves", "core.cluster_donations",
        "core.cluster_preempted", "loadgen.backlog_max"}) {
    l.set(n, 0.0, "count");
  }
  l.set("net.bytes_per_req", 0.0, "B");
  l.set("net.unaccounted_share", 0.0, "share");
  l.set("trace.overhead_share", 0.0, "share");
  l.set("loadgen.late_p99_ms", 0.0, "ms");
  l.set("core.cluster_profile_s", 0.0, "s");
  l.set("core.cluster_loop_s", 0.0, "s");
  return l;
}

void set_counters(Layers& l, const LayerCounters& c) {
  for (std::size_t i = 0; i < LayerCounters::kCaches.size(); ++i) {
    const double n = static_cast<double>(c.hits[i] + c.misses[i]);
    l.set(std::string("svc.hit_ratio.") + LayerCounters::kCaches[i],
          n > 0.0 ? static_cast<double>(c.hits[i]) / n : 0.0, "ratio");
  }
  l.set("svc.computes", static_cast<double>(c.computes), "count");
  l.set("svc.coalesced", static_cast<double>(c.coalesced), "count");
  l.set("net.shed", static_cast<double>(c.shed), "count");
  l.set("net.deadline_rejected", static_cast<double>(c.deadline), "count");
  l.set("net.errors", static_cast<double>(c.errors), "count");
  l.set("sim.table_builds", static_cast<double>(c.table_builds), "count");
  l.set("sim.frontier_builds", static_cast<double>(c.frontier_builds),
        "count");
  l.set("sim.blocked_tiles", static_cast<double>(c.blocked_tiles), "count");
}

/// Fills the serving layers from a replay; returns the sum of the stage
/// medians a request's observed latency is accounted against.
double set_replay(Layers& l, const Replay& r) {
  const auto all = [](const RequestTiming&) { return true; };
  const double encode = median_of(
      r.timings, [](const RequestTiming& t) { return t.encode_us; }, all);
  const double decode = median_of(
      r.timings, [](const RequestTiming& t) { return t.decode_us; }, all);
  const double route = median_of(
      r.timings, [](const RequestTiming& t) { return t.route_us; }, all);
  const double admit = median_of(
      r.timings, [](const RequestTiming& t) { return t.admit_us; }, all);
  const double execute = median_of(
      r.timings, [](const RequestTiming& t) { return t.execute_us; }, all);
  l.set("net.encode_us", encode, "us");
  l.set("net.decode_us", decode, "us");
  l.set("net.route_us", route, "us");
  l.set("net.admit_us", admit, "us");
  l.set("net.transport_us", r.transport_us, "us");
  double bytes = 0.0;
  for (const auto& t : r.timings) bytes += t.bytes;
  l.set("net.bytes_per_req",
        bytes / static_cast<double>(std::max<std::size_t>(r.timings.size(), 1)),
        "B");
  // Each kind's share of the serving path's time (every stage, not the
  // direct calls), so a gain on one kind can be weighed against the mix.
  std::array<double, svc::kQueryKindCount> kind_us{};
  double total_us = 0.0;
  for (const auto& t : r.timings) {
    const double us =
        t.encode_us + t.decode_us + t.admit_us + t.route_us + t.execute_us;
    kind_us[static_cast<std::size_t>(t.kind)] += us;
    total_us += us;
  }
  for (std::size_t k = 0; k < svc::kQueryKindCount; ++k) {
    const auto kind = static_cast<svc::QueryKind>(k);
    if (kind == svc::QueryKind::kCluster) continue;
    l.set(std::string("svc.execute_us.") + svc::to_string(kind),
          median_of(
              r.timings, [](const RequestTiming& t) { return t.execute_us; },
              [kind](const RequestTiming& t) { return t.kind == kind; }),
          "us");
    l.set(std::string("svc.time_share.") + svc::to_string(kind),
          total_us > 0.0 ? kind_us[k] / total_us : 0.0, "share");
  }
  l.set("svc.hit_us",
        median_of(
            r.timings, [](const RequestTiming& t) { return t.execute_us; },
            [](const RequestTiming& t) { return !t.miss; }),
        "us");
  l.set("svc.miss_overhead_us",
        median_of(
            r.timings,
            [](const RequestTiming& t) {
              return t.execute_us - t.children_us;
            },
            [](const RequestTiming& t) { return t.miss; }),
        "us");
  const auto direct = [&](const char* span) {
    const auto it = r.direct.find(span);
    return it == r.direct.end() ? 0.0 : median(it->second);
  };
  l.set("sim.frontier_us", direct("sim.frontier"), "us");
  l.set("sim.replay_us", direct("sim.replay"), "us");
  l.set("sim.sample_us", direct("sim.sample"), "us");
  l.set("sim.table_build_us", direct("sim.table_build"), "us");
  l.set("core.profile_us", direct("core.profile"), "us");
  l.set("core.shift_us", direct("core.shift"), "us");
  l.set("ctrl.online_us", direct("ctrl.online"), "us");
  l.set("trace.overhead_share",
        r.plain_s > 0.0 ? (r.traced_s - r.plain_s) / r.plain_s : 0.0,
        "share");
  return encode + decode + route + admit + execute + r.transport_us;
}

/// The accounting report: where a request's time goes, beside the
/// untraced end-to-end figure.
void print_accounting(const char* figure, double observed_ms,
                      double stages_us, const Replay& r, const Layers& l) {
  const std::size_t n = r.timings.size();
  std::printf(
      "accounting over %zu replayed requests (self time per request):\n", n);
  for (const auto& [name, us] : r.log.self_us_per_request(n)) {
    if (name == "request") continue;  // the sum of its stages
    std::printf("  %-28s %10.3f us\n", name.c_str(), us);
  }
  std::printf("  %-28s %10.3f us (median round trip)\n", "net.transport",
              r.transport_us);
  std::printf("  untraced %s %.3f us; stage medians + transport %.3f us; "
              "unaccounted share %.3f; trace overhead share %.3f\n",
              figure, 1e3 * observed_ms, stages_us,
              l.values.at("net.unaccounted_share").first,
              l.values.at("trace.overhead_share").first);
}

void emit(const Layers& l, Outcome& out) {
  std::printf("per-layer (traced):\n");
  for (const auto& [name, v] : l.values) {
    report(name, v.first, v.second);
    out.metric(name, v.first, v.second);
  }
}

void write_trace(const Options& opt, const SpanLog& log, Outcome& out) {
  if (opt.trace_out.empty()) return;
  out.check(log.write_chrome(opt.trace_out, kExportRequests),
            "traced: cannot write " + opt.trace_out);
  std::printf("spans of the first %zu requests written to %s\n",
              kExportRequests, opt.trace_out.c_str());
}

}  // namespace

void run_point_open_traced(const Options& opt, const PointPool& pool,
                           double rate, double window_s,
                           net::Daemon& daemon, net::Client& client,
                           Tally& tally, Outcome& out) {
  // The untraced daemon figure first: the open loop at the fixed rate.
  const LayerCounters before = read_layer_counters(&daemon);
  std::size_t cursor = 0;
  const StepResult fixed = run_open_step(client, pool, cursor, rate,
                                         0.4 * opt.seconds, window_s);
  tally.add(fixed.tally);
  Layers l = zero_layers();
  set_counters(l, read_layer_counters(&daemon) - before);
  l.set("loadgen.late_p99_ms", fixed.late_p99_ms, "ms");
  l.set("loadgen.backlog_max", static_cast<double>(fixed.backlog_max),
        "count");

  // The same stream (pool order from the start), replayed in-process.
  std::vector<const svc::Request*> stream;
  const std::size_t n = std::min<std::size_t>(cursor, 20000);
  for (std::size_t i = 0; i < n; ++i) {
    stream.push_back(&pool.requests[i % pool.requests.size()]);
  }
  const Replay r = replay_stream(std::move(stream), 0.2 * opt.seconds, out);
  const double stages = set_replay(l, r);
  const double observed_us = 1e3 * fixed.p50_ms;
  l.set("net.unaccounted_share",
        observed_us > 0.0 ? (observed_us - stages) / observed_us : 0.0,
        "share");
  print_accounting("point_p50", fixed.p50_ms, stages, r, l);
  write_trace(opt, r.log, out);
  emit(l, out);
}

void run_sweep_mixed_traced(const Options& opt, const SweepSetup& setup,
                            const SweepTraffic& traffic, Outcome& out) {
  Layers l = zero_layers();
  set_counters(l, traffic.counters);
  l.set("loadgen.late_p99_ms", percentile(traffic.point.late_ms, 99.0),
        "ms");

  // The heavy draw order from the start, with the point stream
  // interleaved at the ratio the daemon saw.
  const std::size_t heavy_n =
      std::min(traffic.heavy.issued, setup.order.size());
  const std::size_t point_every = std::max<std::size_t>(
      1, heavy_n / std::max<std::size_t>(traffic.point.tally.sent, 1));
  std::vector<const svc::Request*> stream;
  for (std::size_t i = 0; i < heavy_n; ++i) {
    stream.push_back(&setup.heavy[setup.order[i]]);
    if (i % point_every == point_every - 1) {
      const auto& points = setup.points.requests;
      stream.push_back(&points[(i / point_every) % points.size()]);
    }
  }
  const Replay r = replay_stream(std::move(stream), 0.2 * opt.seconds, out);
  const double stages = set_replay(l, r);
  const WindowStats heavy = window_stats(
      traffic.heavy.done_s, traffic.heavy.latency_ms, traffic.seconds, 0.5);
  const double observed_us = 1e3 * heavy.p50;
  l.set("net.unaccounted_share",
        observed_us > 0.0 ? (observed_us - stages) / observed_us : 0.0,
        "share");
  print_accounting("heavy_p50", heavy.p50, stages, r, l);
  std::printf("  with %zu in flight the p50 is mostly queueing; the serve "
              "loop's time per heavy request is 1/heavy_rps = %.3f us\n",
              traffic.window, heavy.rate > 0.0 ? 1e6 / heavy.rate : 0.0);
  write_trace(opt, r.log, out);
  emit(l, out);
}

void run_cluster_event_traced(const Options& opt, const ClusterSetup& setup,
                              Outcome& out) {
  Layers l = zero_layers();
  // Untraced reference run.
  auto jobs = setup.jobs;
  const auto u0 = Clock::now();
  const core::ClusterRun plain = run_cluster(setup, std::move(jobs));
  const double plain_s = seconds_between(u0, Clock::now());
  check_cluster_run(setup, plain, out);

  // Profiling alone, through the same entry point the run uses.
  core::ClusterSimConfig config = setup.config;
  config.hierarchy = &setup.hierarchy;
  config.scenario = &setup.scenario;
  config.pool = setup.pool.get();
  const auto p0 = Clock::now();
  const auto profiles = core::detail::build_cluster_profiles(
      setup.cpu, &setup.gpu, setup.jobs, config, nullptr);
  const double profile_s = seconds_between(p0, Clock::now());
  out.check(profiles.meta.size() == setup.jobs.size(),
            "traced: cluster profiles do not cover every job");

  // The traced run, with the sampled event-latency histogram and the sim
  // counters read around it.
  const auto hist_before = obs::global_registry()
                               .histogram("pbc_cluster_event_latency_us", "",
                                          obs::default_latency_bounds_us())
                               .snapshot();
  const LayerCounters before = read_layer_counters(nullptr);
  jobs = setup.jobs;
  const auto t0 = Clock::now();
  const core::ClusterRun run = run_cluster(setup, std::move(jobs));
  const double run_s = seconds_between(t0, Clock::now());
  check_cluster_run(setup, run, out);
  out.check(run.makespan.value() == plain.makespan.value() &&
                run.jobs.size() == plain.jobs.size(),
            "traced: cluster rerun changed the simulated outputs");
  set_counters(l, read_layer_counters(nullptr) - before);
  auto hist = obs::global_registry()
                  .histogram("pbc_cluster_event_latency_us", "",
                             obs::default_latency_bounds_us())
                  .snapshot();
  for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
    hist.buckets[i] -= hist_before.buckets[i];
  }
  hist.count -= hist_before.count;
  hist.sum -= hist_before.sum;

  const auto& st = run.event_stats;
  const double loop_s = std::max(0.0, run_s - profile_s);
  l.set("core.cluster_profile_s", profile_s, "s");
  l.set("core.cluster_loop_s", loop_s, "s");
  l.set("core.cluster_us_per_event",
        st.events ? 1e6 * loop_s / static_cast<double>(st.events) : 0.0, "us");
  l.set("core.cluster_events", static_cast<double>(st.events), "count");
  l.set("core.cluster_subtree_resolves",
        static_cast<double>(st.subtree_resolves), "count");
  l.set("core.cluster_donations", static_cast<double>(st.donations),
        "count");
  l.set("core.cluster_preempted", static_cast<double>(st.jobs_preempted),
        "count");
  l.set("core.cluster_event_p99_us", hist.percentile(99.0), "us");
  l.set("trace.overhead_share", (run_s - plain_s) / plain_s, "share");

  SpanLog log;
  log.add(log.intern("cluster.run"), 0, 0, 0.0, 1e6 * run_s);
  log.add(log.intern("core.cluster_profile"), 1, 0, 0.0, 1e6 * profile_s);
  log.add(log.intern("core.cluster_loop"), 1, 0, 1e6 * profile_s,
          1e6 * loop_s);
  std::printf("accounting of one run (%.3f s untraced, %.3f s traced):\n",
              plain_s, run_s);
  std::printf("  profiling %.3f s, event loop %.3f s over %llu events "
              "(%.3f us each), %llu subtree re-solves, %llu donations\n",
              profile_s, loop_s, static_cast<unsigned long long>(st.events),
              l.values.at("core.cluster_us_per_event").first,
              static_cast<unsigned long long>(st.subtree_resolves),
              static_cast<unsigned long long>(st.donations));
  write_trace(opt, log, out);
  emit(l, out);
}

}  // namespace perfbench
