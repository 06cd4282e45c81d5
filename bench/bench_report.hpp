#pragma once

/// \file bench_report.hpp
/// Machine-readable bench telemetry: `bench_results.json`.
///
/// The figure harnesses narrate tables on stdout for humans; this writer
/// emits the same run, plus everything the observability subsystem
/// recorded (per-stage span timings, protocol message costs, work
/// histograms), as one JSON document so results can be diffed and trended
/// between builds. Schema (see EXPERIMENTS.md "bench_results.json"):
///
///   {"bench": <name>, "git_sha": <build revision>,
///    "threads": <hardware concurrency>,
///    "setup": <obs snapshot of network synthesis>,
///    "runs": [{"params": {...}, "detection": {...},
///              "costs": {name: {messages, rounds}},
///              "obs": {counters, gauges, histograms, spans}}]}
///
/// `git_sha` and `threads` tie every record to the build it came from and
/// the machine parallelism it ran under — without them, results files from
/// different checkouts or machines are silently incomparable.
///
/// Usage:
///   bench::BenchReport report("fig1_boundary_detection", argc, argv);
///   for (...) {
///     auto& run = report.begin_run();          // resets obs state
///     ... detect ...
///     run.param("error", e).detection(stats).cost("iff", result.iff_cost);
///   }                                           // report dtor writes file
///
/// Constructing the report enables observability collection for the
/// process. `--out <path>` overrides the default `bench_results.json`.

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/buildinfo.hpp"
#include "core/stats.hpp"
#include "obs/export.hpp"
#include "sim/protocols.hpp"

namespace ballfit::bench {

/// Telemetry for one swept configuration. Field setters are chainable.
class RunRecord {
 public:
  RunRecord& param(std::string key, double v) {
    nums_.emplace_back(std::move(key), v);
    return *this;
  }
  RunRecord& param(std::string key, std::string v) {
    strs_.emplace_back(std::move(key), std::move(v));
    return *this;
  }
  RunRecord& detection(const core::DetectionStats& s) {
    stats_ = s;
    return *this;
  }
  RunRecord& cost(std::string name, const sim::RunStats& rs) {
    costs_.emplace_back(std::move(name), rs);
    return *this;
  }

 private:
  friend class BenchReport;
  std::vector<std::pair<std::string, double>> nums_;
  std::vector<std::pair<std::string, std::string>> strs_;
  std::optional<core::DetectionStats> stats_;
  std::vector<std::pair<std::string, sim::RunStats>> costs_;
  obs::RunSnapshot snapshot_;
};

class BenchReport {
 public:
  BenchReport(std::string bench_name, const std::string& out_path)
      : name_(std::move(bench_name)), path_(out_path) {
    obs::set_enabled(true);
    obs::reset();
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() {
    try {
      write();
    } catch (...) {
      // A bench that already printed its tables should not die in a
      // destructor because the results file could not be written.
      std::fprintf(stderr, "BenchReport: failed to write %s\n",
                   path_.c_str());
    }
  }

  /// Opens the next run: snapshots whatever was recorded since the last
  /// run (first call: network synthesis -> "setup") and resets the obs
  /// state so the run's telemetry is isolated.
  RunRecord& begin_run() {
    capture();
    if (!setup_) setup_ = pending_;  // pre-first-run state = scenario setup
    pending_ = obs::RunSnapshot{};
    obs::reset();
    runs_.emplace_back();
    open_run_ = true;
    return runs_.back();
  }

  /// Serializes the report. Called automatically on destruction.
  void write() {
    if (written_) return;
    written_ = true;
    capture();

    obs::JsonWriter w;
    w.begin_object();
    w.field("bench", name_);
    w.field("git_sha", git_sha());
    w.field("threads", static_cast<std::uint64_t>(hardware_threads()));
    if (setup_) {
      w.key("setup");
      obs::write_json(w, *setup_);
    }
    w.key("runs").begin_array();
    for (const RunRecord& run : runs_) {
      w.begin_object();
      w.key("params").begin_object();
      for (const auto& [k, v] : run.strs_) w.field(k, v);
      for (const auto& [k, v] : run.nums_) w.field(k, v);
      w.end_object();
      if (run.stats_) {
        w.key("detection");
        write_detection(w, *run.stats_);
      }
      if (!run.costs_.empty()) {
        w.key("costs").begin_object();
        for (const auto& [name, rs] : run.costs_) {
          w.key(name)
              .begin_object()
              .field("messages", static_cast<std::uint64_t>(rs.messages))
              .field("rounds", static_cast<std::uint64_t>(rs.rounds))
              .field("dropped", static_cast<std::uint64_t>(rs.dropped))
              .field("duplicated",
                     static_cast<std::uint64_t>(rs.duplicated))
              .end_object();
        }
        w.end_object();
      }
      w.key("obs");
      obs::write_json(w, run.snapshot_);
      w.end_object();
    }
    w.end_array();
    w.end_object();

    std::ofstream out(path_);
    if (!out.good()) {
      std::fprintf(stderr, "BenchReport: cannot open %s\n", path_.c_str());
      return;
    }
    out << w.str() << '\n';
    std::fprintf(stderr, "wrote %s (%zu runs)\n", path_.c_str(),
                 runs_.size());
  }

  /// Renders the last run's spans/metrics as an aligned stderr table —
  /// the human-readable view of what went into the JSON.
  void print_last_run_summary(std::FILE* out = nullptr) {
    capture();
    if (runs_.empty()) return;
    if (out == nullptr) out = stderr;
    const std::string table = obs::render_table(runs_.back().snapshot_);
    if (!table.empty()) {
      std::fprintf(out, "\n-- telemetry of the last run --\n%s\n",
                   table.c_str());
    }
  }

 private:
  /// Folds the live obs state into the open run (or the pending pre-run
  /// buffer when no run is open).
  void capture() {
    if (open_run_) {
      runs_.back().snapshot_ = obs::snapshot();
      obs::reset();
      open_run_ = false;
    } else {
      pending_ = obs::snapshot();
    }
  }

  static void write_detection(obs::JsonWriter& w,
                              const core::DetectionStats& s) {
    w.begin_object()
        .field("total_nodes", static_cast<std::uint64_t>(s.total_nodes))
        .field("true_boundary", static_cast<std::uint64_t>(s.true_boundary))
        .field("found", static_cast<std::uint64_t>(s.found))
        .field("correct", static_cast<std::uint64_t>(s.correct))
        .field("mistaken", static_cast<std::uint64_t>(s.mistaken))
        .field("missing", static_cast<std::uint64_t>(s.missing))
        .field("found_rate", s.found_rate())
        .field("correct_rate", s.correct_rate())
        .field("mistaken_rate", s.mistaken_rate())
        .field("missing_rate", s.missing_rate());
    w.key("mistaken_hop_counts").begin_array();
    for (const std::size_t c : s.mistaken_hop_counts) {
      w.value(static_cast<std::uint64_t>(c));
    }
    w.end_array();
    w.key("missing_hop_counts").begin_array();
    for (const std::size_t c : s.missing_hop_counts) {
      w.value(static_cast<std::uint64_t>(c));
    }
    w.end_array();
    w.end_object();
  }

  std::string name_;
  std::string path_;
  std::vector<RunRecord> runs_;
  std::optional<obs::RunSnapshot> setup_;
  obs::RunSnapshot pending_;
  bool open_run_ = false;
  bool written_ = false;
};

}  // namespace ballfit::bench
