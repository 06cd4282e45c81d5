/// \file calibrate_grid.cpp
/// Grid calibration of the UBF noise knobs (noise-margin factor, empty-ball
/// vote threshold, two-hop refinement) across the measurement-error axis.
/// Local frames are computed once per error level and shared across grid
/// cells. The chosen defaults go into UbfConfig / PipelineConfig.

#include <cstdio>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/iff.hpp"
#include "core/stats.hpp"
#include "core/ubf.hpp"
#include "localization/local_frame.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"

using namespace ballfit;

int main() {
  Rng rng(1);
  const model::Scenario sc = model::sphere_world();
  net::BuildOptions build;
  build.surface_count = 1600;
  build.interior_count = 2000;
  net::BuildDiagnostics diag;
  const net::Network net = net::build_network(*sc.shape, build, rng, &diag);
  std::printf("network: %zu nodes, avg degree %.1f\n", net.num_nodes(),
              diag.average_degree);
  const std::size_t n = net.num_nodes();

  Table table({"refine", "factor", "votes", "error", "found", "correct",
               "mistaken", "missing"});

  for (double e : {0.0, 0.2}) {
    const net::NoisyDistanceModel model(net, e, 1);
    const localization::Localizer loc(net, model);

    // Cache MDS-MAP frames per node (the expensive part of every cell).
    std::vector<localization::LocalFrame> fmds(n);
    parallel_for(
        n,
        [&](std::size_t v) {
          fmds[v] = loc.mdsmap_frame(static_cast<net::NodeId>(v));
        },
        default_threads());

    for (int refine : {1}) {
      const auto& fr = fmds;
      (void)refine;
      for (double factor : {1.0, 2.0, 3.0}) {
        for (std::size_t votes : {1u, 2u, 4u}) {
          core::UbfConfig ucfg;
          ucfg.noise_margin_factor = factor;
          ucfg.min_empty_balls = votes;
          const core::UnitBallFitting ubf(net, ucfg);

          std::vector<char> cand(n, 0);
          parallel_for(
              n,
              [&](std::size_t v) {
                const auto& frame = fr[v];
                cand[v] = !frame.ok
                              ? 1
                              : (ubf.test_node(frame.coords, 0,
                                               frame.one_hop_count, nullptr,
                                               frame.stress_rms)
                                     ? 1
                                     : 0);
              },
              default_threads());
          std::vector<bool> candidates(n);
          for (std::size_t v = 0; v < n; ++v) candidates[v] = cand[v] != 0;

          core::IffConfig icfg;
          icfg.use_message_passing = false;
          const auto boundary = core::iff_filter(net, candidates, icfg);
          const auto stats = core::evaluate_detection(net, boundary);
          table.add_row({std::to_string(refine), format_double(factor, 2),
                         std::to_string(votes),
                         format_percent(e, 0),
                         format_percent(stats.found_rate()),
                         format_percent(stats.correct_rate()),
                         format_percent(stats.mistaken_rate()),
                         format_percent(stats.missing_rate())});
        }
      }
    }
  }
  table.print();
  return 0;
}
