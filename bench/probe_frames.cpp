/// \file probe_frames.cpp
/// Diagnostic: distribution of local-frame RMS error (after optimal rigid
/// alignment to ground truth) for one-hop and two-hop MDS-MAP(P) frames,
/// across measurement error levels. Explains the localization floor seen
/// in the Fig. 11 reproduction.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "linalg/procrustes.hpp"
#include "localization/local_frame.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"

using namespace ballfit;

namespace {
// RMS error over the patch core — members within `core_radius` of the
// owner — after aligning on exactly those members. This is the part of the
// frame the unit-ball test actually consumes.
double frame_error_vs_truth(const net::Network& net,
                            const localization::LocalFrame& frame,
                            double core_radius = 1e9) {
  std::vector<geom::Vec3> truth, est;
  const geom::Vec3& center = net.position(frame.members[0]);
  for (std::size_t k = 0; k < frame.members.size(); ++k) {
    if (net.position(frame.members[k]).distance_to(center) > core_radius)
      continue;
    truth.push_back(net.position(frame.members[k]));
    est.push_back(frame.coords[k]);
  }
  return linalg::procrustes_align(est, truth).rms_error;
}
}  // namespace

int main() {
  Rng rng(7);
  const model::Scenario sc = model::sphere_world();
  net::BuildOptions build;
  build.surface_count = 1200;
  build.interior_count = 2200;
  const net::Network net = net::build_network(*sc.shape, build, rng);

  Table table({"error", "hop1_mean", "hop1_p95", "hop1_max", "mdsmap_mean",
               "mdsmap_p95", "mdsmap_max"});
  for (double e : {0.0, 0.1, 0.3, 0.5}) {
    const net::NoisyDistanceModel model(net, e, 13);
    const localization::Localizer loc(net, model);

    // Both frame sets through `build_all_frames`, the session's Localize
    // stage executor, so the probe measures the kernel the pipeline runs
    // and reports the MDS-MAP build's effort accounting.
    std::vector<localization::LocalFrame> one_hop, mdsmap;
    localization::build_all_frames(loc, localization::FrameScope::kOneHop,
                                   one_hop);
    localization::FrameBuildStats effort;
    localization::build_all_frames(loc, localization::FrameScope::kTwoHop,
                                   mdsmap, /*threads=*/0, /*alive=*/nullptr,
                                   /*rebuild=*/nullptr, &effort);

    std::vector<double> e1, e2;
    for (net::NodeId v = 0; v < net.num_nodes(); v += 7) {
      if (!one_hop[v].ok) continue;
      e1.push_back(frame_error_vs_truth(net, one_hop[v], 1.5));
      e2.push_back(frame_error_vs_truth(net, mdsmap[v], 1.5));
    }
    std::printf(
        "error %.0f%%: frames=%llu sweeps %llu/%llu restarts_skipped=%llu "
        "plateau=%llu\n",
        e * 100.0, static_cast<unsigned long long>(effort.frames_built),
        static_cast<unsigned long long>(effort.sweeps_executed),
        static_cast<unsigned long long>(effort.sweep_budget),
        static_cast<unsigned long long>(effort.restarts_skipped),
        static_cast<unsigned long long>(effort.plateau_exits));
    std::sort(e1.begin(), e1.end());
    std::sort(e2.begin(), e2.end());
    auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (double x : v) s += x;
      return s / static_cast<double>(v.size());
    };
    auto p95 = [](const std::vector<double>& v) {
      return v[static_cast<std::size_t>(0.95 * static_cast<double>(v.size()))];
    };
    table.add_row({format_percent(e, 0), format_double(mean(e1), 4),
                   format_double(p95(e1), 4), format_double(e1.back(), 4),
                   format_double(mean(e2), 4), format_double(p95(e2), 4),
                   format_double(e2.back(), 4)});
  }
  table.print();
  return 0;
}
