// Seeded request generation for the serving workloads. Everything a run
// sends is a pure function of the seed; the program under test sees only
// the generated requests.
#pragma once

#include <cstdint>
#include <vector>

#include "svc/engine.hpp"
#include "svc/request.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Warm point queries: QueryCpuOp on ivybridge/haswell over the CPU suite
/// and QueryGpuOp on titan_xp over the GPU suite, at seeded budgets.
/// Request ids are pool index + 1.
[[nodiscard]] std::vector<pbc::svc::Request> make_point_pool(
    std::uint64_t seed, std::size_t n);

/// One query per (machine, workload) descriptor the point pool uses: the
/// priming pass that leaves every point query a profile-cache hit.
[[nodiscard]] std::vector<pbc::svc::Request> make_priming_requests();

/// Heavy requests: FrontierOp (32 budgets), SampleOp, ReplayOp, ShiftOp
/// and OnlineOp over suite workloads and seeded perturbed multi-phase
/// workloads, with more distinct entries per kind than the engine's
/// default frontier and replay caches hold. Request ids are index + 1;
/// index is also popularity rank for SkewedPicker.
[[nodiscard]] std::vector<pbc::svc::Request> make_heavy_pool(
    std::uint64_t seed, std::size_t n);

/// Zipf-skewed draws over [0, n): index r has weight 1 / (r + 1)^s.
class SkewedPicker {
 public:
  SkewedPicker(std::size_t n, double s, std::uint64_t seed);
  [[nodiscard]] std::size_t next();

 private:
  std::vector<double> cdf_;
  pbc::Xoshiro256 rng_;
};

/// The binary wire encoding of a response: the bit-exact identity the
/// output checks compare.
[[nodiscard]] std::vector<std::uint8_t> encode(const pbc::svc::Response& r);

/// Executes `req` on `engine` and returns the encoded response, or an
/// empty vector when execute fails.
[[nodiscard]] std::vector<std::uint8_t> expected_bytes(
    pbc::svc::QueryEngine& engine, const pbc::svc::Request& req);

}  // namespace perfbench
