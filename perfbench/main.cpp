// pbc_perfbench: the repository benchmark.
//
//   pbc_perfbench --workload point_open|sweep_mixed|cluster_event
//                 --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (and writes the traced
// replay's spans as Chrome trace-event JSON to --trace-out). Exits 1 when
// an output or conservation check fails, 2 on a bad command line.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "pbc_perfbench: %s\nusage: pbc_perfbench --workload "
               "point_open|sweep_mixed|cluster_event --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

[[nodiscard]] perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else {
        usage("unknown option " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (opt.seconds <= 0.0) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Outcome out;
  if (opt.workload == "point_open") {
    out = perfbench::run_point_open(opt);
  } else if (opt.workload == "sweep_mixed") {
    out = perfbench::run_sweep_mixed(opt);
  } else if (opt.workload == "cluster_event") {
    out = perfbench::run_cluster_event(opt);
  } else {
    usage("unknown workload '" + opt.workload + "'");
  }
  for (const std::string& p : out.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("%s\n", perfbench::result_json(out).c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
