/// \file fig_scaling.cpp
/// Scaling recipe: one detection session on a Fig. 1 scenario sized to a
/// node budget (docs/SCALING.md is generated from this bench's output).
///
/// Builds the rounded-box-with-hole scenario scaled analytically to
/// `--nodes` at the paper's operating density, times the parallel
/// unit-disk build, then runs one `core::DetectionSession` end-to-end on
/// true coordinates at `--threads` workers, builds the Sec. III surfaces of
/// the detected boundary (`mesh::build_surfaces`, its Step I election on
/// the same workers), and reports wall clock, the detection result with
/// its UBF / IFF / grouping split, the surface time with its Steps I–V
/// split and its size (`surfaces`, `landmarks`, `mesh_edges`,
/// `mesh_triangles`, equal at every thread count), the ball test's work
/// counters (`ubf_nodes_certified`, `ubf_trisphere_solves`,
/// `ubf_balls_tested`, `ubf_cover_checks`), and peak RSS.
///
///   fig_scaling --nodes 100000 --threads 4
///   fig_scaling --nodes 1000000 --threads 8
///
/// Flags: --nodes N (default 100000)   --threads T (default 8, 0 = hardware)
///        --seed S (default 1)         --target-degree D (default 18.5)
///        --build-budget-ms B (default 0 = no budget; exit 1 when the
///                             adjacency build exceeds it — the CI smoke
///                             gate for the parallel builder)
///        --out PATH (default scaling_results.json)
///
/// Exit status: 1 when the build budget is exceeded; 0 otherwise.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.hpp"
#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "mesh/surface_builder.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using ballfit::bench::double_flag;
using ballfit::bench::int_flag;
using ballfit::bench::string_flag;

/// Peak resident set size of this process so far, in MiB (Linux ru_maxrss
/// is in KiB). The build dominates the footprint, so sampling after each
/// stage shows which one set the high-water mark.
double peak_rss_mib() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ballfit;
  const int nodes = int_flag(argc, argv, "--nodes", 100000);
  const int threads = int_flag(argc, argv, "--threads", 8);
  const int seed = int_flag(argc, argv, "--seed", 1);
  const double target_degree =
      double_flag(argc, argv, "--target-degree", 18.5);
  const double build_budget_ms =
      double_flag(argc, argv, "--build-budget-ms", 0.0);
  const std::string out_path =
      string_flag(argc, argv, "--out", "scaling_results.json");

  bench::BenchReport report("fig_scaling", out_path);

  // Size the scenario analytically — a probe build at this scale would cost
  // as much as the measured one.
  bench::ScaledScenario sized = bench::scale_scenario_to_nodes(
      [](double s) { return model::fig1_network(s); },
      static_cast<std::size_t>(nodes), static_cast<std::uint64_t>(seed),
      target_degree);
  sized.options.threads = threads < 0 ? 0u : static_cast<unsigned>(threads);

  Rng rng(static_cast<std::uint64_t>(seed));
  net::BuildDiagnostics diag;
  Stopwatch build_watch;
  const net::Network network =
      net::build_network(*sized.scenario.shape, sized.options, rng, &diag);
  const double build_ms = build_watch.elapsed_ms();
  std::printf("[%s] %zu nodes (%zu surface / %zu interior requested), avg "
              "degree %.1f, built in %.0f ms (%d threads), rss %.0f MiB\n",
              sized.scenario.name.c_str(), network.num_nodes(),
              sized.options.surface_count, sized.options.interior_count,
              diag.average_degree, build_ms, threads, peak_rss_mib());
  if (build_budget_ms > 0.0 && build_ms > build_budget_ms) {
    std::fprintf(stderr,
                 "BUILD BUDGET EXCEEDED: %.0f ms > %.0f ms budget for %zu "
                 "nodes\n",
                 build_ms, build_budget_ms, network.num_nodes());
    return 1;
  }

  core::PipelineConfig cfg;
  cfg.use_true_coordinates = true;  // the scalable reference configuration
  cfg.threads = threads < 0 ? 0u : static_cast<unsigned>(threads);

  auto& run = report.begin_run();

  Stopwatch detect_watch;
  core::DetectionSession session(network);
  const core::PipelineResult result = session.run(cfg);
  const double detect_ms = detect_watch.elapsed_ms();

  mesh::MeshConfig mesh_cfg;
  mesh_cfg.threads = cfg.threads;
  Stopwatch surface_watch;
  const mesh::SurfaceResult surfaces =
      mesh::build_surfaces(network, result.boundary, result.groups, mesh_cfg);
  const double surface_ms = surface_watch.elapsed_ms();
  std::size_t landmarks = 0, mesh_edges = 0, mesh_triangles = 0;
  for (const mesh::BoundarySurface& s : surfaces.surfaces) {
    landmarks += s.landmarks.size();
    mesh_edges += s.mesh.num_edges();
    mesh_triangles += s.mesh.triangles().size();
  }

  const double rss_mib = peak_rss_mib();
  std::printf("session: detect %.0f ms, boundary %zu in %zu groups; "
              "surfaces %.0f ms (%zu meshes), rss %.0f MiB\n",
              detect_ms, result.num_boundary(), result.groups.groups.size(),
              surface_ms, surfaces.surfaces.size(), rss_mib);

  // The session opens one span per detection stage under "pipeline", and
  // the builder one per step (summed over the groups).
  const auto spans = obs::TraceAggregator::global().snapshot();
  const auto span_ms = [&](const std::string& prefix, const std::string& name) {
    const auto it = spans.find(prefix + name);
    const double ms = it == spans.end() ? 0.0 : it->second.total_ms();
    run.param(name + "_ms", ms);
    return ms;
  };
  std::vector<double> stage_ms;
  for (const char* stage : {"ubf", "iff", "grouping"})
    stage_ms.push_back(span_ms("pipeline/", stage));
  std::vector<double> step_ms;
  for (const char* step : {"step1_landmarks", "step2_cdg", "step3_cdm",
                           "step4_completion", "step5_flip"})
    step_ms.push_back(span_ms("", step));

  // The ball test's deterministic work counters: how many nodes the
  // interior certificate settled and what the others cost.
  const auto counters = obs::Registry::global().snapshot().counters;
  for (const auto& [counter, param] :
       {std::pair{"ubf.nodes_certified", "ubf_nodes_certified"},
        std::pair{"ubf.trisphere_solves", "ubf_trisphere_solves"},
        std::pair{"ubf.balls_tested", "ubf_balls_tested"},
        std::pair{"ubf.cover_checks", "ubf_cover_checks"}}) {
    const auto it = counters.find(counter);
    const double value =
        it == counters.end() ? 0.0 : static_cast<double>(it->second);
    run.param(param, value);
    std::printf("%s %.0f\n", counter, value);
  }

  const core::DetectionStats stats =
      core::evaluate_detection(network, result.boundary);
  run.param("nodes", static_cast<double>(network.num_nodes()))
      .param("avg_degree", diag.average_degree)
      .param("threads", static_cast<double>(threads))
      .param("build_ms", build_ms)
      .param("detect_ms", detect_ms)
      .param("surface_ms", surface_ms)
      .param("surfaces", static_cast<double>(surfaces.surfaces.size()))
      .param("landmarks", static_cast<double>(landmarks))
      .param("mesh_edges", static_cast<double>(mesh_edges))
      .param("mesh_triangles", static_cast<double>(mesh_triangles))
      .param("peak_rss_mib", rss_mib)
      .detection(stats)
      .cost("iff", result.iff_cost)
      .cost("grouping", result.grouping_cost);

  // The docs/SCALING.md results-table row, ready to paste. The detect
  // column carries the UBF / IFF / grouping split and the surfaces column
  // the Steps I–V split, in ms.
  std::printf("| %zu | %d | %.1f s | %.2f s (%.0f / %.0f / %.0f ms) | %.2f s "
              "(%.0f / %.0f / %.0f / %.0f / %.0f ms) | %.0f MiB |\n",
              network.num_nodes(), threads, build_ms / 1000.0,
              detect_ms / 1000.0, stage_ms[0], stage_ms[1], stage_ms[2],
              surface_ms / 1000.0, step_ms[0], step_ms[1], step_ms[2],
              step_ms[3], step_ms[4], rss_mib);
  report.print_last_run_summary();
  return 0;
}
