/// \file ablation_radius.cpp
/// Hole-size selectivity (Sec. II-A3, last paragraph): "the size of holes
/// to be detected is adjustable by varying r". On a box with one small and
/// one large spherical hole, sweeping the unit-ball radius r should keep
/// the outer boundary and the large hole detected while the small hole's
/// boundary drops out once r exceeds its radius.
///
/// Flags: --seed <n>.

#include <cmath>
#include <cstdio>

#include "common/table.hpp"
#include "model/csg.hpp"
#include "model/shapes.hpp"
#include "sweep.hpp"

using namespace ballfit;
using geom::Vec3;

int main(int argc, char** argv) {
  const bench::SweepArgs args = bench::parse_sweep_args(argc, argv);

  std::printf("== Ablation: ball radius vs hole size ==\n");
  const double kSmallHole = 1.3;
  const double kLargeHole = 2.2;
  auto box = std::make_shared<model::BoxShape>(Vec3{0, 0, 0}, Vec3{10, 10, 8});
  auto small_hole =
      std::make_shared<model::SphereShape>(Vec3{3.0, 3.0, 4.0}, kSmallHole);
  auto large_hole =
      std::make_shared<model::SphereShape>(Vec3{7.0, 7.0, 4.0}, kLargeHole);
  const model::Scenario scenario{
      "two-hole-sizes",
      std::make_shared<model::DifferenceShape>(
          box, std::vector<model::ShapePtr>{small_hole, large_hole}),
      2};
  const net::Network network = bench::build_scenario_network(scenario, args.seed);

  // Classify true boundary nodes by which surface they sit on.
  auto on_sphere = [&](net::NodeId v, const Vec3& c, double r) {
    return std::fabs(network.position(v).distance_to(c) - r) < 1e-5;
  };

  std::vector<bench::SweepPoint> points;
  for (double r : {1.0 + 1e-6, 1.2, 1.5, 1.8, 2.1}) {
    core::PipelineConfig cfg;
    cfg.use_true_coordinates = true;
    cfg.ubf.epsilon = r / network.radio_range() - 1.0;
    // Bigger test balls mean bigger minimal fragments; keep IFF at its
    // default θ — selectivity comes from the radius alone here.
    points.push_back({format_double(r, 2), cfg});
  }

  Table table({"r", "outer%", "small-hole%", "large-hole%"});
  bench::run_sweep(
      network, points,
      [&](const bench::SweepPoint& point, const core::PipelineResult& result,
          double /*seconds*/) {
        std::size_t outer_t = 0, outer_f = 0, small_t = 0, small_f = 0,
                    large_t = 0, large_f = 0;
        for (net::NodeId v = 0; v < network.num_nodes(); ++v) {
          if (!network.is_ground_truth_boundary(v)) continue;
          if (on_sphere(v, {3.0, 3.0, 4.0}, kSmallHole)) {
            ++small_t;
            small_f += result.boundary[v];
          } else if (on_sphere(v, {7.0, 7.0, 4.0}, kLargeHole)) {
            ++large_t;
            large_f += result.boundary[v];
          } else {
            ++outer_t;
            outer_f += result.boundary[v];
          }
        }
        auto pct = [](std::size_t f, std::size_t t) {
          return t == 0 ? std::string("-")
                        : format_percent(double(f) / double(t), 0);
        };
        table.add_row({point.label, pct(outer_f, outer_t),
                       pct(small_f, small_t), pct(large_f, large_t)});
      });
  table.print();
  std::printf("\n(Expected: the small hole (radius %.1f) stops reporting "
              "once r > %.1f; the large hole (radius %.1f) and the outer "
              "boundary persist.)\n",
              kSmallHole, kSmallHole, kLargeHole);
  return 0;
}
