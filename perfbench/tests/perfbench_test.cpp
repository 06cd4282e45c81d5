// Unit tests of the benchmark's own arithmetic and output record. Plain
// checks with no test framework, so the benchmark package builds from the
// library sources alone. Exits non-zero on the first failed check.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "obs/diff.hpp"
#include "sim/churn.hpp"
#include "stats.hpp"

namespace {

int g_checks = 0;

void check(bool ok, const char* what, int line) {
  ++g_checks;
  if (!ok) {
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
    std::exit(1);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b, double rel = 1e-11) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_median() {
  CHECK(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK(throws([] { perfbench::median({}); }));
}

void test_nearest_rank_matches_churn_report() {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0, 9.0, 7.0, 5.0};
  ballfit::sim::ChurnReport report;
  report.redetect_ms = v;
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    CHECK(perfbench::nearest_rank(v, q) == report.percentile_ms(q));
  }
  CHECK(perfbench::nearest_rank({4.0, 1.0, 3.0, 2.0}, 0.5) == 2.0);
  CHECK(throws([] { perfbench::nearest_rank({1.0}, 1.5); }));
  CHECK(throws([] { perfbench::nearest_rank({}, 0.5); }));
}

void test_tail_quantile() {
  // 100 samples 1..100: p90 sits at rank 90 with 10 samples beyond it,
  // p95 would leave only 5.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  perfbench::Tail t = perfbench::tail(v);
  CHECK(t.q == 0.9);
  CHECK(t.value == 90.0);
  CHECK(t.beyond == 10);

  // 40 samples: p75 (rank 30, 10 beyond) is the highest that qualifies.
  v.resize(40);
  for (int i = 0; i < 40; ++i) v[i] = i + 1;
  t = perfbench::tail(v);
  CHECK(t.q == 0.75);
  CHECK(t.value == 30.0);

  // Too few samples for any tail: fall back to the median.
  t = perfbench::tail({5.0, 1.0, 3.0});
  CHECK(t.q == 0.5);
  CHECK(t.value == 3.0);
  CHECK(t.beyond == 1);

  CHECK(perfbench::samples_beyond(20, 0.5) == 10);
  CHECK(perfbench::samples_beyond(0, 0.5) == 0);
}

void test_ratios() {
  CHECK(perfbench::ratio(3.0, 4.0) == 0.75);
  CHECK(perfbench::ratio(3.0, 0.0) == 0.0);
  // 4 threads busy for the whole wall time is full utilisation; one busy
  // thread of four is a quarter.
  CHECK(perfbench::utilisation(400.0, 100.0, 4) == 1.0);
  CHECK(perfbench::utilisation(100.0, 100.0, 4) == 0.25);
  CHECK(perfbench::utilisation(10.0, 0.0, 4) == 0.0);
}

void test_misclass_rate() {
  ballfit::core::DetectionStats s;
  s.true_boundary = 595;
  s.mistaken = 60;
  s.missing = 42;
  CHECK(near(perfbench::misclass_rate(s), 102.0 / 595.0));
  CHECK(perfbench::misclass_rate(ballfit::core::DetectionStats{}) == 0.0);
}

void test_record_round_trip() {
  perfbench::Record rec;
  rec.correct = true;
  rec.attempted = 1234;
  rec.failed = 0;
  rec.add("detect_s", 1.1734298765, "s", 15);
  rec.add("redetect_tail_ms", 412.0625, "ms", 52);
  rec.add("misclass_rate", 102.0 / 595.0, "ratio");
  const std::string line = perfbench::to_json(rec);
  CHECK(line.find('\n') == std::string::npos);

  const auto flat = ballfit::obs::flatten_json_numbers(line);
  CHECK(flat.size() == 6);
  CHECK(flat.at("correct") == 1.0);
  CHECK(flat.at("attempted") == 1234.0);
  CHECK(flat.at("failed") == 0.0);
  CHECK(near(flat.at("metrics.detect_s.value"), 1.1734298765));
  CHECK(near(flat.at("metrics.redetect_tail_ms.value"), 412.0625));
  CHECK(near(flat.at("metrics.misclass_rate.value"), 102.0 / 595.0));
  CHECK(line.find("\"unit\":\"ms\"") != std::string::npos);

  const std::string text = perfbench::summary(rec);
  CHECK(text.find("(n=15)") != std::string::npos);
  CHECK(text.find("1234 attempted, 0 failed") != std::string::npos);
}

}  // namespace

int main() {
  test_median();
  test_nearest_rank_matches_churn_report();
  test_tail_quantile();
  test_ratios();
  test_misclass_rate();
  test_record_round_trip();
  std::printf("perfbench_tests: %d checks passed\n", g_checks);
  return 0;
}
