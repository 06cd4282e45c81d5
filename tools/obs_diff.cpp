// obs_diff — compare two bench_results.json / JSONL snapshots.
//
// Flattens every numeric leaf of both files to a dotted path and prints
// the rows that changed, so "what moved between these two runs?" takes one
// command instead of eyeballing two JSON trees. Companion to
// bench_compare: that tool gates three curated kernels hard; this one
// shows everything else (counters, histogram means, span times) softly.
//
//   obs_diff old.json new.json
//   obs_diff --filter spans --min-rel 0.05 old.json new.json
//   obs_diff --fail-over 0.25 baseline.json current.json   # CI tripwire
//
// Exit codes: 0 ok, 1 a row exceeded --fail-over or (under --fail-over) is
// present on one side only, 2 usage/IO error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "obs/diff.hpp"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: obs_diff [options] <before.json> <after.json>\n"
      "  --min-rel <r>    hide rows with relative change below r (default 0)\n"
      "  --min-abs <a>    hide rows with absolute delta below a (default 0)\n"
      "  --filter <sub>   only keys containing <sub>\n"
      "  --all            include unchanged rows\n"
      "  --fail-over <r>  exit 1 if any shown row's relative change > r or\n"
      "                   any shown row is present on one side only\n"
      "Inputs are bench_results.json documents or JSONL trajectories (the\n"
      "last line is used). Rows only present on one side show as new/gone.\n");
}

}  // namespace

int main(int argc, char** argv) {
  ballfit::obs::DiffOptions opts;
  double fail_over = -1.0;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--min-rel") {
      opts.min_rel = std::atof(next());
    } else if (arg == "--min-abs") {
      opts.min_abs = std::atof(next());
    } else if (arg == "--filter") {
      opts.key_filter = next();
    } else if (arg == "--all") {
      opts.include_unchanged = true;
    } else if (arg == "--fail-over") {
      fail_over = std::atof(next());
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "obs_diff: unknown option %s\n", arg.c_str());
      usage();
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    usage();
    return 2;
  }

  try {
    const auto before = ballfit::obs::load_snapshot(files[0]);
    const auto after = ballfit::obs::load_snapshot(files[1]);
    const auto rows = ballfit::obs::diff_snapshots(before, after, opts);

    if (rows.empty()) {
      std::printf("no differences (%zu metrics compared)\n", before.size());
      return 0;
    }
    std::fputs(ballfit::obs::render_diff(rows).c_str(), stdout);
    std::printf("%zu row(s) shown; %zu vs %zu metrics total\n", rows.size(),
                before.size(), after.size());

    if (fail_over >= 0.0) {
      if (const auto* r = ballfit::obs::first_gate_failure(rows, fail_over)) {
        if (r->only_before || r->only_after) {
          std::fprintf(stderr, "obs_diff: %s is %s\n", r->key.c_str(),
                       r->only_before ? "gone" : "new");
        } else {
          std::fprintf(stderr, "obs_diff: %s changed %.1f%% (> %.1f%%)\n",
                       r->key.c_str(), 100.0 * r->rel(), 100.0 * fail_over);
        }
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_diff: %s\n", e.what());
    return 2;
  }
}
