#include "geom/grid.hpp"

#include <limits>
#include <numeric>

#include "common/assert.hpp"
#include "geom/aabb.hpp"

namespace ballfit::geom {

SpatialGrid::SpatialGrid(const std::vector<Vec3>& points, double cell_size)
    : points_(&points), cell_(cell_size) {
  BALLFIT_REQUIRE(std::isfinite(cell_size) && cell_size > 0.0,
                  "SpatialGrid cell_size must be finite and positive");
  const std::size_t n = points.size();
  BALLFIT_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
                  "SpatialGrid indexes at most 2^32 - 1 points");
  starts_.assign(2, 0);  // one empty cell
  if (n == 0) return;

  Aabb box;
  for (const Vec3& p : points) box.expand(p);
  origin_ = box.min;
  const Vec3 ext = box.extent();
  // Doubling ends at the latest at an infinite edge (reached when the box
  // is wider than the largest double): one cell, where the distance test
  // alone decides.
  const auto cells_along = [&](double e) {
    return std::isinf(cell_) ? 1.0 : std::floor(e / cell_) + 1.0;
  };
  const double budget = static_cast<double>(kBaseCells + kCellsPerPoint * n);
  while (cells_along(ext.x) * cells_along(ext.y) * cells_along(ext.z) >
         budget) {
    cell_ *= 2.0;
  }
  nx_ = static_cast<std::size_t>(cells_along(ext.x));
  ny_ = static_cast<std::size_t>(cells_along(ext.y));
  nz_ = static_cast<std::size_t>(cells_along(ext.z));

  // Counting sort: count per cell, prefix-sum to each cell's end, then
  // place points in descending order so each cell ends up ascending and
  // starts_[c] ends at the cell's first slot.
  const std::size_t num_cells = nx_ * ny_ * nz_;
  starts_.assign(num_cells + 1, 0);
  for (const Vec3& p : points) ++starts_[cell_index(p)];
  std::partial_sum(starts_.begin(), starts_.end(), starts_.begin());
  nodes_.resize(n);
  for (std::size_t i = n; i-- > 0;) {
    nodes_[--starts_[cell_index(points[i])]] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace ballfit::geom
