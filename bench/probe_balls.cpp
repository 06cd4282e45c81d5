/// \file probe_balls.cpp
/// Diagnostic: distribution of the number of empty candidate balls per
/// node, split by ground truth (boundary vs interior), across measurement
/// error levels. Motivates the `min_empty_balls` vote threshold.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/ubf.hpp"
#include "localization/local_frame.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"

using namespace ballfit;

namespace {
struct Quartiles {
  double q25, q50, q75, frac_ge[5];  // frac with count >= 1,2,4,8,16
};

Quartiles summarize(std::vector<std::size_t> counts) {
  std::sort(counts.begin(), counts.end());
  auto q = [&](double p) {
    return static_cast<double>(
        counts[static_cast<std::size_t>(p * (counts.size() - 1))]);
  };
  Quartiles out{q(0.25), q(0.5), q(0.75), {}};
  const std::size_t thresholds[5] = {1, 2, 4, 8, 16};
  for (int t = 0; t < 5; ++t) {
    std::size_t n = 0;
    for (std::size_t c : counts) n += (c >= thresholds[t]);
    out.frac_ge[t] = static_cast<double>(n) / counts.size();
  }
  return out;
}
}  // namespace

int main() {
  Rng rng(1);
  const model::Scenario sc = model::sphere_world();
  net::BuildOptions build;
  build.surface_count = 1600;
  build.interior_count = 2000;
  const net::Network net = net::build_network(*sc.shape, build, rng);

  Table table({"error", "class", "q50", "q75", ">=1", ">=2", ">=4", ">=8",
               ">=16"});
  for (double e : {0.0, 0.2, 0.4, 0.6, 1.0}) {
    const net::NoisyDistanceModel model(net, e, 13);
    const localization::Localizer loc(net, model);
    std::vector<localization::LocalFrame> frames;
    localization::build_all_frames(loc, localization::FrameScope::kTwoHop,
                                   frames);

    core::UbfConfig cfg;
    cfg.measurement_error_hint = e;
    cfg.min_empty_balls = 100000;  // count all, never early-exit
    const core::UnitBallFitting ubf(net, cfg);

    std::vector<std::size_t> truth_counts, interior_counts;
    for (net::NodeId v = 0; v < net.num_nodes(); v += 3) {
      const localization::LocalFrame& frame = frames[v];
      if (!frame.ok) continue;
      core::UbfNodeDiagnostics diag;
      (void)ubf.test_node(frame.coords, 0, frame.one_hop_count, &diag);
      (net.is_ground_truth_boundary(v) ? truth_counts : interior_counts)
          .push_back(diag.empty_balls);
    }
    for (bool truth : {true, false}) {
      const Quartiles s = summarize(truth ? truth_counts : interior_counts);
      table.add_row({format_percent(e, 0), truth ? "boundary" : "interior",
                     format_double(s.q50, 0), format_double(s.q75, 0),
                     format_percent(s.frac_ge[0], 0),
                     format_percent(s.frac_ge[1], 0),
                     format_percent(s.frac_ge[2], 0),
                     format_percent(s.frac_ge[3], 0),
                     format_percent(s.frac_ge[4], 0)});
    }
  }
  table.print();
  return 0;
}
