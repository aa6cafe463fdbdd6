#include "corpus.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "hw/platforms.hpp"
#include "net/codec.hpp"
#include "workload/cpu_suite.hpp"
#include "workload/gpu_suite.hpp"
#include "workload/trace.hpp"

namespace perfbench {

using namespace pbc;

namespace {

// Stream ids keep the generators independent for one seed.
constexpr std::uint64_t kPointStream = 11;
constexpr std::uint64_t kHeavyStream = 12;
constexpr std::uint64_t kPerturbStream = 13;

/// Perturbed workloads per run; with both CPU machines and the 11 suite
/// workloads this gives more (machine, workload) descriptors than the
/// engine's default 256-entry simulator cache.
constexpr std::size_t kPerturbed = 128;

/// A multi-phase CPU workload spliced from suite phases, each with its
/// work mix scaled: phases differ, so traces over it switch phase and
/// replay/shift/online do real per-segment work.
[[nodiscard]] workload::Workload perturbed_workload(
    const std::vector<workload::Workload>& suite, std::size_t i,
    Xoshiro256& rng) {
  workload::Workload wl;
  wl.name = "perturbed" + std::to_string(i);
  wl.description = "seeded splice of suite phases";
  const std::size_t phases = 2 + i % 3;
  for (std::size_t p = 0; p < phases; ++p) {
    const auto& src = suite[rng.below(suite.size())];
    workload::Phase ph = src.phases[rng.below(src.phases.size())];
    ph.name = src.name + "." + ph.name + "." + std::to_string(p);
    ph.weight = rng.uniform(0.5, 2.0);
    ph.flops_per_unit *= rng.uniform(0.6, 1.4);
    ph.bytes_per_unit *= rng.uniform(0.6, 1.4);
    wl.phases.push_back(std::move(ph));
  }
  return wl;
}

[[nodiscard]] workload::PhaseTrace make_trace(const workload::Workload& wl,
                                              Xoshiro256& rng) {
  workload::TraceOptions opt;
  opt.total_units = 300.0;
  opt.segment_units = 1.0;
  opt.irregularity = 0.6;
  opt.seed = rng();
  return workload::generate_trace(wl, opt);
}

}  // namespace

std::vector<svc::Request> make_point_pool(std::uint64_t seed, std::size_t n) {
  const std::vector<hw::CpuMachine> cpus{hw::ivybridge_node(),
                                         hw::haswell_node()};
  const hw::GpuMachine gpu = hw::titan_xp();
  const auto cpu_wls = workload::cpu_suite();
  const auto gpu_wls = workload::gpu_suite();
  Xoshiro256 rng(seed, kPointStream);
  std::vector<svc::Request> pool(n);
  for (std::size_t i = 0; i < n; ++i) {
    svc::Request& req = pool[i];
    req.id = i + 1;
    if (rng.uniform() < 0.8) {
      req.op = svc::QueryCpuOp{cpus[rng.below(cpus.size())],
                               cpu_wls[rng.below(cpu_wls.size())],
                               Watts{rng.uniform(120.0, 280.0)},
                               core::CpuCoordVariant::kProportional};
    } else {
      req.op = svc::QueryGpuOp{gpu, gpu_wls[rng.below(gpu_wls.size())],
                               Watts{rng.uniform(100.0, 250.0)}, 0.5};
    }
  }
  return pool;
}

std::vector<svc::Request> make_priming_requests() {
  std::vector<svc::Request> out;
  for (const auto& m : {hw::ivybridge_node(), hw::haswell_node()}) {
    for (const auto& wl : workload::cpu_suite()) {
      svc::Request req;
      req.id = out.size() + 1;
      req.op = svc::QueryCpuOp{m, wl, Watts{200.0},
                               core::CpuCoordVariant::kProportional};
      out.push_back(std::move(req));
    }
  }
  for (const auto& wl : workload::gpu_suite()) {
    svc::Request req;
    req.id = out.size() + 1;
    req.op = svc::QueryGpuOp{hw::titan_xp(), wl, Watts{180.0}, 0.5};
    out.push_back(std::move(req));
  }
  return out;
}

std::vector<svc::Request> make_heavy_pool(std::uint64_t seed, std::size_t n) {
  const std::vector<hw::CpuMachine> cpus{hw::ivybridge_node(),
                                         hw::haswell_node()};
  const auto suite = workload::cpu_suite();
  Xoshiro256 prng(seed, kPerturbStream);
  std::vector<workload::Workload> perturbed;
  perturbed.reserve(kPerturbed);
  for (std::size_t i = 0; i < kPerturbed; ++i) {
    perturbed.push_back(perturbed_workload(suite, i, prng));
  }

  // The structure of the pool is fixed and only its parameters are
  // seeded: entry i's kind cycles through the five heavy kinds, so each
  // has an equal share (no measured request mix exists to weight them),
  // its machine and workload cycle, and suite and perturbed workloads
  // alternate. Entry i is also popularity rank i (SkewedPicker), so every
  // seed's hot set has the same make-up and the seed moves budgets, caps,
  // traces and the perturbations.
  static constexpr char kKinds[] = "FSRHO";
  Xoshiro256 rng(seed, kHeavyStream);
  std::vector<svc::Request> pool(n);
  for (std::size_t i = 0; i < n; ++i) {
    svc::Request& req = pool[i];
    req.id = i + 1;
    const hw::CpuMachine& m = cpus[(i / 2) % cpus.size()];
    // i / 4 (not i / 2) pairs each workload with both machines: 278
    // descriptors, more than the 256-entry simulator cache.
    const workload::Workload& wl = i % 2 == 0
                                       ? suite[(i / 4) % suite.size()]
                                       : perturbed[(i / 4) % perturbed.size()];
    const char kind = kKinds[i % 5];
    if (kind == 'F') {
      svc::FrontierOp op;
      op.machine = m;
      op.wl = wl;
      const double lo = rng.uniform(100.0, 160.0);
      const double step = rng.uniform(3.0, 6.0);
      for (int b = 0; b < 32; ++b) {
        op.budgets.push_back(Watts{lo + step * b});
      }
      req.op = std::move(op);
    } else if (kind == 'S') {
      req.op = svc::SampleOp{m, wl, Watts{rng.uniform(50.0, 140.0)},
                             Watts{rng.uniform(40.0, 110.0)}};
    } else if (kind == 'R') {
      svc::ReplayOp op;
      op.machine = m;
      op.wl = wl;
      op.trace = make_trace(wl, rng);
      op.cpu_cap = Watts{rng.uniform(60.0, 140.0)};
      op.mem_cap = Watts{rng.uniform(40.0, 110.0)};
      req.op = std::move(op);
    } else if (kind == 'H') {
      svc::ShiftOp op;
      op.machine = m;
      op.wl = wl;
      op.trace = make_trace(wl, rng);
      op.total_budget = Watts{rng.uniform(130.0, 260.0)};
      req.op = std::move(op);
    } else {
      svc::OnlineOp op;
      op.machine = m;
      op.wl = wl;
      op.trace = make_trace(wl, rng);
      op.total_budget = Watts{rng.uniform(130.0, 260.0)};
      req.op = std::move(op);
    }
  }
  return pool;
}

SkewedPicker::SkewedPicker(std::size_t n, double s, std::uint64_t seed)
    : cdf_(n), rng_(seed, /*stream=*/14) {
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t SkewedPicker::next() {
  const double u = rng_.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::vector<std::uint8_t> encode(const svc::Response& r) {
  std::vector<std::uint8_t> out;
  net::encode_response(r, net::Codec::kBinary, out);
  return out;
}

std::vector<std::uint8_t> expected_bytes(svc::QueryEngine& engine,
                                         const svc::Request& req) {
  auto resp = engine.execute(req);
  if (!resp.ok()) return {};
  return encode(resp.value());
}

}  // namespace perfbench
