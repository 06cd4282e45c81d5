#pragma once

/// \file trace.hpp
/// In-memory span recorder for the traced run.
///
/// The benchmark records spans from its own code, around each call into a
/// layer's public functions; nothing inside the library is instrumented.
/// Spans and their counters stay in memory and are written out once, at the
/// end of the run.

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int parent = -1;            ///< index of the enclosing span, -1 for a root
  int request = 0;            ///< spans of one repetition share this id
  double start_ms = 0.0;      ///< since the recorder was created
  double end_ms = 0.0;
  double cpu_ms = 0.0;        ///< process CPU time during the span
  std::map<std::string, double> counters;

  double wall_ms() const { return end_ms - start_ms; }
};

class Trace {
 public:
  Trace();

  /// Opens a span; returns its index for `end` and for children.
  int begin(std::string name, int request, int parent = -1);
  /// Closes span `id`, recording its end time and CPU time.
  void end(int id);
  void count(int id, const std::string& counter, double value);

  const Span& span(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

  /// Wall time of `id` not covered by its direct children.
  double self_ms(int id) const;

  /// Writes every span as one JSON document ({"spans": [...]}) to `path`.
  /// Throws std::runtime_error when the file cannot be written.
  void write_json(const std::string& path) const;

 private:
  double now_ms() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<double> cpu_start_;  // parallel to spans_
};

}  // namespace perfbench
