#include "baselines/centralized_ball.hpp"

#include <vector>

#include "common/parallel.hpp"
#include "geom/grid.hpp"
#include "geom/trisphere.hpp"

namespace ballfit::baselines {

using geom::Vec3;
using net::NodeId;

std::vector<bool> centralized_ball_detect(const net::Network& network,
                                          const core::UbfConfig& config) {
  const std::size_t n = network.num_nodes();
  const double r = (1.0 + config.epsilon) * network.radio_range();
  const double inside_limit = r - core::kInsideTolerance;
  const double inside_limit_sq = inside_limit * inside_limit;

  const geom::SpatialGrid grid(network.positions(), r);

  std::vector<char> flags(n, 0);
  parallel_for(
      n,
      [&](std::size_t idx) {
        const auto i = static_cast<NodeId>(idx);
        const Vec3& self = network.position(i);

        // Lemma 1 with global knowledge: witnesses j, k range over *all*
        // nodes within 2r of i, not only one-hop neighbors.
        std::vector<std::uint32_t> near;
        grid.for_each_in_ball(self, 2.0 * r, [&](std::uint32_t u) {
          near.push_back(u);
          return true;
        });
        bool found = false;
        for (std::size_t a = 0; a < near.size() && !found; ++a) {
          if (near[a] == i) continue;
          for (std::size_t b = a + 1; b < near.size() && !found; ++b) {
            if (near[b] == i) continue;
            const geom::TrisphereResult balls = geom::solve_trisphere(
                self, network.position(near[a]), network.position(near[b]),
                r);
            for (int c = 0; c < balls.count && !found; ++c) {
              const Vec3& center = balls.centers[c];
              // Early-exit visitor: the first strictly-inside node proves
              // the ball non-empty, so the walk stops there.
              found = grid.for_each_in_ball(center, r, [&](std::uint32_t u) {
                if (u == i || u == near[a] || u == near[b]) return true;
                return network.position(u).distance_sq_to(center) >=
                       inside_limit_sq;
              });
            }
          }
        }
        flags[idx] = found ? 1 : 0;
      },
      default_threads());

  std::vector<bool> out(n, false);
  for (std::size_t i = 0; i < n; ++i) out[i] = flags[i] != 0;
  return out;
}

}  // namespace ballfit::baselines
