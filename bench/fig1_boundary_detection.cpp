/// \file fig1_boundary_detection.cpp
/// Reproduces Fig. 1(g), 1(h) and 1(i): boundary-node identification on a
/// general 3D network (box with one interior spherical hole) across the
/// distance-measurement-error axis.
///
///   Fig. 1(g): absolute counts of Found / Correct / Mistaken / Missing.
///   Fig. 1(h): distribution of mistaken nodes by hop distance (1/2/3) to
///              the nearest correctly identified boundary node.
///   Fig. 1(i): the same distribution for missing nodes.
///
/// Flags: --step <pct> (default 20), --seed <n>, --scale <x> (default 0.8;
/// pass 1.0 for the paper's 4210-node operating point), --out <path> (default
/// bench_results.json — per-run telemetry: per-stage timings, message
/// costs, detection stats), --trace <path> (off by default: record every
/// span into the obs timeline and write a Chrome Trace Event JSON —
/// open in chrome://tracing or Perfetto), --threads <n> (default 0 =
/// hardware concurrency; with --trace, per-node spans land on one track
/// per worker).

#include <cstdio>

#include "bench_report.hpp"
#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

using namespace ballfit;

int main(int argc, char** argv) {
  const int step = bench::int_flag(argc, argv, "--step", 20);
  const auto seed =
      static_cast<std::uint64_t>(bench::int_flag(argc, argv, "--seed", 1));
  const double scale = bench::double_flag(argc, argv, "--scale", 0.8);
  const auto threads =
      static_cast<unsigned>(bench::int_flag(argc, argv, "--threads", 0));
  const std::string trace_path = bench::string_flag(argc, argv, "--trace", "");
  bench::BenchReport report(
      "fig1_boundary_detection",
      bench::string_flag(argc, argv, "--out", "bench_results.json"));
  if (!trace_path.empty()) obs::TraceTimeline::global().set_enabled(true);

  std::printf("== Fig. 1(g,h,i): boundary detection vs measurement error ==\n");
  const model::Scenario scenario = model::fig1_network(scale);
  const net::Network network =
      bench::build_scenario_network(scenario, seed, 18.8);

  Table counts({"error", "true", "found", "correct", "mistaken", "missing"});
  Table mistaken({"error", "1 hop", "2 hop", "3 hop", ">3 hop"});
  Table missing({"error", "1 hop", "2 hop", "3 hop", ">3 hop"});

  for (int epct = 0; epct <= 100; epct += step) {
    Stopwatch timer;
    bench::RunRecord& run = report.begin_run();
    core::PipelineConfig cfg;
    cfg.measurement_error = epct / 100.0;
    cfg.noise_seed = seed;
    cfg.threads = threads;
    const core::PipelineResult result = core::detect_boundaries(network, cfg);
    const core::DetectionStats s =
        core::evaluate_detection(network, result.boundary);
    run.param("scenario", scenario.name)
        .param("seed", static_cast<double>(seed))
        .param("scale", scale)
        .param("error", epct / 100.0)
        .detection(s)
        .cost("iff", result.iff_cost)
        .cost("grouping", result.grouping_cost);
    counts.add_row({std::to_string(epct) + "%",
                    std::to_string(s.true_boundary), std::to_string(s.found),
                    std::to_string(s.correct), std::to_string(s.mistaken),
                    std::to_string(s.missing)});
    const auto mh = s.mistaken_hops();
    mistaken.add_row({std::to_string(epct) + "%", format_percent(mh[0]),
                      format_percent(mh[1]), format_percent(mh[2]),
                      format_percent(mh[3])});
    const auto gh = s.missing_hops();
    missing.add_row({std::to_string(epct) + "%", format_percent(gh[0]),
                     format_percent(gh[1]), format_percent(gh[2]),
                     format_percent(gh[3])});
    std::fprintf(stderr, "  error %d%% done in %.1fs\n", epct,
                 timer.elapsed_seconds());
  }

  std::printf("\n-- Fig. 1(g): boundary node counts --\n");
  counts.print();
  std::printf("\n-- Fig. 1(h): mistaken-node hop distribution --\n");
  mistaken.print();
  std::printf("\n-- Fig. 1(i): missing-node hop distribution --\n");
  missing.print();
  report.print_last_run_summary();
  report.write();
  if (!trace_path.empty()) {
    obs::write_chrome_trace(trace_path);
    std::printf("wrote Chrome trace: %s\n", trace_path.c_str());
  }
  return 0;
}
