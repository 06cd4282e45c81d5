/// \file hole_inspection.cpp
/// The paper's Fig. 8 scenario: a 3D space network (e.g., chemical
/// dispersion sampling) where uncontrolled drift opened two internal voids.
/// The example identifies all boundaries, separates the inner holes from
/// the outer boundary via grouping, and estimates each hole's position and
/// size from its boundary nodes — the kind of product a monitoring
/// application would consume. It then crashes a patch of sensors and uses
/// the session's incremental re-detection to refresh the boundary without
/// recomputing the whole network.
///
/// Usage: hole_inspection [error_fraction] [seed]

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/session.hpp"
#include "mesh/obj_export.hpp"
#include "mesh/surface_builder.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"
#include "obs/metrics.hpp"

int main(int argc, char** argv) {
  using namespace ballfit;
  const double error = argc > 1 ? std::atof(argv[1]) : 0.1;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 3;

  const model::Scenario scenario = model::space_two_holes(1.0);
  std::printf("== hole inspection (%s ranging error) ==\n",
              format_percent(error, 0).c_str());

  Rng rng(seed);
  net::BuildOptions build =
      net::options_for_target_degree(*scenario.shape, 18.5, 0.5, rng);
  build.interior_margin = 0.35;  // TetGen-like interior vertex clearance
  net::BuildDiagnostics diag;
  const net::Network network =
      net::build_network(*scenario.shape, build, rng, &diag);
  std::printf("network: %zu nodes, average degree %.1f\n",
              network.num_nodes(), diag.average_degree);

  // Collect the obs-gated quality telemetry (per-node confidence, per-group
  // quality) so the report and the OBJ header can grade each boundary.
  obs::set_enabled(true);

  core::PipelineConfig config;
  config.measurement_error = error;
  config.noise_seed = seed;
  core::DetectionSession session(network);
  const core::PipelineResult result = session.run(config);

  // The largest group is the outer boundary; every other substantial group
  // is an internal hole. Report each hole's centroid and mean radius
  // estimated from its boundary nodes.
  std::vector<std::size_t> order(result.groups.groups.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return result.groups.groups[a].size() > result.groups.groups[b].size();
  });

  std::printf("found %zu boundary group(s); expected 1 outer + %d hole(s)\n",
              result.groups.count(), scenario.num_inner_holes);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const auto& group = result.groups.groups[order[rank]];
    if (group.size() < 25) continue;  // debris
    geom::Vec3 centroid{};
    for (net::NodeId v : group) centroid += network.position(v);
    centroid /= static_cast<double>(group.size());
    double mean_r = 0.0;
    for (net::NodeId v : group)
      mean_r += network.position(v).distance_to(centroid);
    mean_r /= static_cast<double>(group.size());
    const core::BoundaryQuality& quality = result.group_quality[order[rank]];
    std::printf("  %s: %zu nodes, centroid (%.1f, %.1f, %.1f), mean radius "
                "%.2f, quality %.2f (conf %.2f, flood %.2f)\n",
                rank == 0 ? "outer boundary" : "internal hole", group.size(),
                centroid.x, centroid.y, centroid.z, mean_r, quality.score,
                quality.mean_confidence, quality.flood_margin);
  }

  const mesh::SurfaceResult surfaces =
      mesh::build_surfaces(network, result.boundary, result.groups);
  mesh::write_obj(surfaces, "hole_inspection.obj", result.group_quality);
  std::printf("wrote hole_inspection.obj (%zu surfaces)\n",
              surfaces.surfaces.size());

  // A patch of sensors fails mid-mission. Incremental re-detection only
  // rebuilds the local frames whose two-hop neighborhoods changed; the rest
  // of the network's localization work is reused.
  // One localized patch of failures (a drifting contaminant knocking out a
  // cluster), not scattered singletons: the dirty region stays proportional
  // to the damage.
  Rng crash_rng(seed ^ 0x9e3779b97f4a7c15ull);
  const auto patch_center = static_cast<net::NodeId>(
      crash_rng.uniform_index(network.num_nodes()));
  core::NetworkDelta delta;
  delta.crashed.push_back(patch_center);
  for (const net::NodeId v : network.neighbors(patch_center)) {
    delta.crashed.push_back(v);
  }
  session.apply(delta);
  const core::PipelineResult after = session.run(config);
  std::printf("after crashing %zu sensors: %zu boundary nodes "
              "(rebuilt %zu/%zu frames, retested %zu nodes)\n",
              delta.crashed.size(), after.num_boundary(),
              session.stats().last_frames_rebuilt, network.num_nodes(),
              session.stats().last_nodes_retested);
  return 0;
}
