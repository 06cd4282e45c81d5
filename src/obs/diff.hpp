#pragma once

/// \file diff.hpp
/// Snapshot diffing for `bench_results.json` / JSONL trajectories.
///
/// `bench_compare` gates three kernels with a hard threshold; everything
/// else the benches record (counters, histograms, span times) only becomes
/// useful when two runs can be compared side by side. This module loads a
/// results file, flattens every *numeric* leaf to a dotted path, and diffs
/// two such maps into a table — the library behind the `obs_diff` CLI
/// (tools/) and its golden-output test.
///
/// This is the one place in the library that parses JSON, and it parses
/// only what the sibling `JsonWriter` emits (no unicode surrogate
/// handling, no duplicate-key semantics); `json.hpp`'s "write-only"
/// stance still holds for the exporters themselves.

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ballfit::obs {

/// Parses a JSON document and returns its numeric leaves keyed by dotted
/// path ("runs.0.obs.counters.pipeline.nodes"). Array elements use their
/// index as the segment; booleans flatten to 0/1; strings and nulls are
/// skipped. Throws InvalidArgument on malformed input.
std::map<std::string, double> flatten_json_numbers(std::string_view text);

/// Loads `path` and flattens it. A file with multiple lines (a JSONL
/// trajectory) uses its last non-empty line; a single JSON document may
/// span lines freely.
std::map<std::string, double> load_snapshot(const std::string& path);

/// One row of a snapshot comparison. `ratio` is after/before (0 when
/// before is 0); rows present on one side only carry the other as 0 with
/// the corresponding flag set.
struct DiffRow {
  std::string key;
  double before = 0.0;
  double after = 0.0;
  bool only_before = false;
  bool only_after = false;

  double delta() const { return after - before; }
  /// Relative change |after-before| / max(|before|, |after|); 0 if both 0.
  double rel() const;
};

struct DiffOptions {
  /// Hide rows whose relative change is below this (unchanged rows are
  /// always hidden unless `include_unchanged`).
  double min_rel = 0.0;
  /// Hide rows whose absolute delta is below this.
  double min_abs = 0.0;
  /// Keep rows with delta == 0.
  bool include_unchanged = false;
  /// Restrict to keys containing this substring ("" = all).
  std::string key_filter;
};

/// Key-aligned comparison of two flattened snapshots, sorted by key.
std::vector<DiffRow> diff_snapshots(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after,
    const DiffOptions& opts = {});

/// The first row that fails a `--fail-over` gate at relative bound
/// `fail_over`: one present on one side only (a gated metric that vanished
/// or appeared has not stayed within any bound), or one whose relative
/// change exceeds the bound. nullptr when every row passes.
const DiffRow* first_gate_failure(const std::vector<DiffRow>& rows,
                                  double fail_over);

/// Aligned table: key | before | after | delta | rel%. Rows only present
/// on one side render "-" on the missing side. Empty string when `rows`
/// is empty.
std::string render_diff(const std::vector<DiffRow>& rows);

}  // namespace ballfit::obs
