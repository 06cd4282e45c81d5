#pragma once

/// \file grid.hpp
/// Uniform spatial grid over a fixed point set: the repo's one index for
/// radius queries.
///
/// `net::Network` computes unit-ball adjacency through it in O(n·ρ) instead
/// of O(n²), both at construction and in `apply_moves`, and the centralized
/// baseline runs its ball-emptiness queries on it. The grid is anchored at
/// the points' AABB minimum and stores indices into the caller's array,
/// counting-sorted into a dense cell array (cell-major, ascending within a
/// cell). That array doubles as a spatial visit order (`order()`), which
/// `net::Network` keeps for its per-node loops. Queries only read, so any
/// number of threads may share one grid. The caller's array must outlive
/// the grid and stay unchanged.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec3.hpp"

namespace ballfit::geom {

class SpatialGrid {
 public:
  /// The cell array holds at most kBaseCells + kCellsPerPoint · n cells.
  static constexpr std::size_t kBaseCells = 64;
  static constexpr std::size_t kCellsPerPoint = 8;

  /// Builds a grid over `points` with cubic cells of edge `cell_size`, in
  /// the same length units as the points (radio-range units everywhere in
  /// this repo). `cell_size` is typically the query radius so a radius
  /// query touches at most 27 cells; it must be finite and > 0. A bounding
  /// box that would need more cells than the budget above gets a wider
  /// edge instead (doubled until it fits), so memory stays O(n) for any
  /// finite input; queries stay exact, only coarser.
  SpatialGrid(const std::vector<Vec3>& points, double cell_size);

  /// Radius-bounded visitor with early exit: visits points p with
  /// |p − q| <= radius (inclusive, matching unit-ball adjacency) until
  /// `fn(idx)` returns false. Returns false iff a visit stopped the walk
  /// (i.e. the ball is known non-empty to the caller), true when every
  /// point in the ball was visited. `q` may lie outside the points' box.
  template <typename Fn>
  bool for_each_in_ball(const Vec3& q, double radius, Fn&& fn) const {
    const double r2 = radius * radius;
    // Cells of q's own cell ± ⌈radius/edge⌉ along each axis cover the
    // ball; clamping q into the box keeps that true for outside queries.
    const double span = std::ceil(radius / cell_);
    const std::size_t reach =
        span > 0.0 ? static_cast<std::size_t>(std::min(
                         span, static_cast<double>(starts_.size())))
                   : 0;
    const std::size_t cx = axis_cell(q.x, origin_.x, nx_);
    const std::size_t cy = axis_cell(q.y, origin_.y, ny_);
    const std::size_t cz = axis_cell(q.z, origin_.z, nz_);
    const std::size_t x0 = cx < reach ? 0 : cx - reach;
    const std::size_t y0 = cy < reach ? 0 : cy - reach;
    const std::size_t z0 = cz < reach ? 0 : cz - reach;
    const std::size_t x1 = std::min(cx + reach, nx_ - 1);
    const std::size_t y1 = std::min(cy + reach, ny_ - 1);
    const std::size_t z1 = std::min(cz + reach, nz_ - 1);
    for (std::size_t z = z0; z <= z1; ++z)
      for (std::size_t y = y0; y <= y1; ++y)
        for (std::size_t x = x0; x <= x1; ++x) {
          const std::size_t c = (z * ny_ + y) * nx_ + x;
          for (std::uint32_t k = starts_[c]; k < starts_[c + 1]; ++k) {
            const std::uint32_t idx = nodes_[k];
            if ((*points_)[idx].distance_sq_to(q) <= r2 && !fn(idx)) {
              return false;
            }
          }
        }
    return true;
  }

  /// The cell edge in use: the requested one, or wider when the budget
  /// forced it.
  double cell_size() const { return cell_; }

  /// Every point index exactly once, cell by cell (cells in x-fastest
  /// order), ascending within a cell: a permutation of [0, n) that is a
  /// pure function of the points and `cell_size`, so two grids over equal
  /// points with equal cell sizes give equal orders. Consecutive entries
  /// are spatial neighbors, which is what a per-point loop over it is for.
  std::span<const std::uint32_t> order() const { return nodes_; }

 private:
  /// Cell of `coord` along one axis: truncated, then clamped into
  /// [0, cells). A NaN offset (an infinite edge over an infinite distance)
  /// lands in cell 0.
  std::size_t axis_cell(double coord, double lo, std::size_t cells) const {
    const double t = (coord - lo) / cell_;
    if (!(t >= 1.0)) return 0;
    if (t >= static_cast<double>(cells)) return cells - 1;
    return static_cast<std::size_t>(t);
  }

  std::size_t cell_index(const Vec3& p) const {
    return (axis_cell(p.z, origin_.z, nz_) * ny_ +
            axis_cell(p.y, origin_.y, ny_)) *
               nx_ +
           axis_cell(p.x, origin_.x, nx_);
  }

  const std::vector<Vec3>* points_;
  Vec3 origin_{};
  double cell_;
  std::size_t nx_ = 1, ny_ = 1, nz_ = 1;
  std::vector<std::uint32_t> starts_;  // num_cells + 1
  std::vector<std::uint32_t> nodes_;   // point indices, cell-major
};

}  // namespace ballfit::geom
