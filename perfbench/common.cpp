#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string result_json(const Outcome& out) {
  std::string s = "{\"correct\": ";
  s += out.correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) s += ", ";
    first = false;
    s += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  s += "}}";
  return s;
}

void report(const std::string& name, double value, const std::string& unit,
            const std::string& note) {
  std::printf("  %-34s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

}  // namespace perfbench
