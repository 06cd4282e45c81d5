// The perfbench binary: runs one workload and prints its record.
//
//   perfbench --workload <noisy-fig1|true-100k|churn-noisy> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics. Every parallel
// stage runs on 4 worker threads. The last line of standard output is the
// JSON record; the lines before it give each metric with its unit and
// sample count.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <noisy-fig1|true-100k|churn-noisy>"
               " --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

/// Parses a whole decimal string into [lo, hi]; false on anything else.
bool parse_uint(const std::string& s, unsigned long long lo,
                unsigned long long hi, unsigned long long& out) {
  if (s.empty() || s[0] == '-' || s[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s.c_str(), &end, 10);
  return errno == 0 && *end == '\0' && out >= lo && out <= hi;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    unsigned long long n = 0;
    if (flag == "--workload") {
      const auto w = perfbench::parse_workload(value);
      if (!w) return usage(("unknown workload '" + value + "'").c_str());
      options.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_uint(value, 0, ~0ull, n)) return usage("bad --seed");
      options.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, 1, 3600, n)) return usage("bad --seconds");
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || trace < 0) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  std::printf("perfbench %s seed %llu, %g s, %u threads, %s\n",
              perfbench::workload_name(options.workload),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.threads, trace == 1 ? "traced" : "untraced");
  std::fflush(stdout);
  try {
    const perfbench::Record rec = trace == 1
                                      ? perfbench::run_traced(options)
                                      : perfbench::run_end_to_end(options);
    std::printf("%s%s\n", perfbench::summary(rec).c_str(),
                perfbench::to_json(rec).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
