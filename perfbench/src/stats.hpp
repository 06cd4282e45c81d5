#pragma once

/// \file stats.hpp
/// Summary statistics and the output record of the benchmark.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/stats.hpp"

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count).
/// Throws std::invalid_argument when empty.
double median(std::vector<double> samples);

/// Nearest-rank percentile, the rule `sim::ChurnReport::percentile_ms` uses:
/// the sample at rank ceil(q·N) (1-based, clamped to [1, N]) of the sorted
/// samples. Throws std::invalid_argument when empty or q is outside [0, 1].
double nearest_rank(std::vector<double> samples, double q);

/// Number of samples strictly after the nearest-rank sample for `q`.
std::size_t samples_beyond(std::size_t n, double q);

/// A tail percentile together with the quantile it was read at.
struct Tail {
  double q = 0.5;
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples ranked after the reported one
};

/// The highest of q ∈ {0.99, 0.95, 0.9, 0.75, 0.5} whose nearest-rank
/// sample still has at least `min_beyond` samples ranked after it. Falls
/// back to the median (q = 0.5) when even that has fewer. Throws when empty.
Tail tail(const std::vector<double>& samples, std::size_t min_beyond = 10);

/// num / den, or 0 when den is 0 (a layer that did no work).
double ratio(double num, double den);

/// Process CPU time over the wall time `threads` workers could have used:
/// cpu_ms / (wall_ms · threads); 0 when wall_ms is 0.
double utilisation(double cpu_ms, double wall_ms, unsigned threads);

/// (mistaken + missing) / true boundary nodes, from evaluate_detection.
double misclass_rate(const ballfit::core::DetectionStats& stats);

/// User + system CPU time of this process so far (getrusage), in ms.
double process_cpu_ms();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// One reported metric. `samples` is how many measurements the value
/// summarizes (1 for counts and deterministic values).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// The result of one benchmark run, printed as the last line of output.
struct Record {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1);
};

/// One-line JSON: {"correct", "attempted", "failed", "metrics": {name:
/// {"value", "unit"}}}.
std::string to_json(const Record& record);

/// Human-readable lines, one per metric with its unit and sample count,
/// plus the operation counts.
std::string summary(const Record& record);

}  // namespace perfbench
