#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/json.hpp"

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

std::size_t rank_of(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q outside [0, 1]");
  std::sort(samples.begin(), samples.end());
  return samples[rank_of(samples.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

Tail tail(const std::vector<double>& samples, std::size_t min_beyond) {
  Tail out;
  for (const double q : {0.99, 0.95, 0.9, 0.75, 0.5}) {
    out.q = q;
    out.beyond = samples_beyond(samples.size(), q);
    if (out.beyond >= min_beyond) break;
  }
  out.value = nearest_rank(samples, out.q);
  return out;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double utilisation(double cpu_ms, double wall_ms, unsigned threads) {
  return ratio(cpu_ms, wall_ms * static_cast<double>(threads));
}

double misclass_rate(const ballfit::core::DetectionStats& stats) {
  return ratio(static_cast<double>(stats.mistaken + stats.missing),
               static_cast<double>(stats.true_boundary));
}

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) * 1e-3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Record::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

std::string to_json(const Record& record) {
  ballfit::obs::JsonWriter w;
  w.begin_object();
  w.field("correct", record.correct);
  w.field("attempted", record.attempted);
  w.field("failed", record.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : record.metrics) {
    w.key(m.name).begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string summary(const Record& record) {
  std::string out;
  char line[256];
  for (const Metric& m : record.metrics) {
    std::snprintf(line, sizeof line, "  %-28s %14.6g %-6s (n=%zu)\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "  operations: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(record.attempted),
                static_cast<unsigned long long>(record.failed));
  out += line;
  return out;
}

}  // namespace perfbench
