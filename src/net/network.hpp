#pragma once

/// \file network.hpp
/// The 3D wireless network: node positions, unit-disk adjacency, and
/// ground-truth boundary labels.
///
/// Units and defaults contract (shared by every `net/` and `geom/` header):
/// all lengths — positions, `radio_range`, grid cell sizes — are in the same
/// world unit. Per Definition 1 the maximum radio transmission range is
/// normalized to 1; builders may use another range, in which case all
/// geometry scales with it. Node ids are dense `uint32_t` indices in
/// `[0, num_nodes())`; adjacency rows are sorted ascending and exclude the
/// node itself.
///
/// `Network` is immutable to algorithms — they observe it, they never
/// mutate it. The single sanctioned mutation is `apply_moves`, used by the
/// churn engine to relocate nodes between detection runs; it rebuilds
/// adjacency only around the moved nodes and leaves every other CSR row
/// byte-identical to a from-scratch construction.
///
/// Besides adjacency, a network holds one spatial visit order
/// (`spatial_order`): the cell-major node array of the `geom::SpatialGrid`
/// its adjacency is built from. Per-node loops whose work reads each
/// node's neighborhood walk it instead of id order, so that consecutive
/// nodes share most of their neighbors' cache lines; ids themselves stay
/// in sampling order (they key the noise model, seeds and elections).

#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec3.hpp"

namespace ballfit::geom {
class SpatialGrid;
}

namespace ballfit::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// A position update for one node, applied by `Network::apply_moves`.
struct NodeMove {
  NodeId node = kInvalidNode;
  geom::Vec3 new_position{};  ///< world units (same unit as radio_range)
};

class Network {
 public:
  /// Builds adjacency from positions: i ~ j iff |p_i − p_j| <= radio_range
  /// (world units, finite and > 0). Every position must be finite.
  /// `ground_truth_boundary[i]` marks nodes sampled on the model surface. `build_threads` (count, default 1; 0 = hardware
  /// concurrency) parallelizes the unit-disk sweep; the CSR produced is
  /// byte-identical for every thread count.
  Network(std::vector<geom::Vec3> positions,
          std::vector<bool> ground_truth_boundary, double radio_range,
          unsigned build_threads = 1);

  std::size_t num_nodes() const { return positions_.size(); }
  double radio_range() const { return radio_range_; }

  const geom::Vec3& position(NodeId i) const { return positions_[i]; }
  const std::vector<geom::Vec3>& positions() const { return positions_; }

  /// One-hop neighbors of `i` (excluding `i` itself), sorted ascending.
  std::span<const NodeId> neighbors(NodeId i) const {
    return {adjacency_.data() + offsets_[i],
            offsets_[i + 1] - offsets_[i]};
  }

  std::size_t degree(NodeId i) const {
    return offsets_[i + 1] - offsets_[i];
  }

  /// Every node id exactly once, in the cell-major order of a
  /// `geom::SpatialGrid` over `positions()` with cell edge `radio_range()`
  /// (ascending within a cell). A pure function of the positions and the
  /// range: it equals the order of a fresh Network over the same positions
  /// after construction, `apply_moves` and `restricted_to` alike. Visiting
  /// nodes in this order changes only which worker computes what, never a
  /// per-node result.
  std::span<const NodeId> spatial_order() const { return order_; }

  bool are_neighbors(NodeId i, NodeId j) const;

  /// True Euclidean distance between two nodes (any pair, oracle view).
  double true_distance(NodeId i, NodeId j) const {
    return positions_[i].distance_to(positions_[j]);
  }

  bool is_ground_truth_boundary(NodeId i) const { return truth_boundary_[i]; }
  const std::vector<bool>& ground_truth_boundary() const {
    return truth_boundary_;
  }
  std::size_t num_ground_truth_boundary() const { return num_truth_; }

  double average_degree() const;
  std::size_t min_degree() const;
  std::size_t max_degree() const;

  /// Relocates the given nodes and rebuilds adjacency locally: only rows of
  /// nodes whose neighborhood can change (the moved nodes, their old
  /// neighbors, and their new neighbors) are recomputed; the result is
  /// identical to constructing a fresh Network from the updated positions.
  /// Rejects out-of-range and duplicate node ids and non-finite positions
  /// before changing anything. Ground-truth labels are
  /// untouched — they describe the original sampling, not current geometry.
  void apply_moves(std::span<const NodeMove> moves);

  /// The network on the nodes with `keep[i] != 0`, renumbered in id order
  /// (kept node i becomes the number of kept nodes below i), with their
  /// positions, labels and range. Unit-disk adjacency is pairwise, so the
  /// result is byte-identical to a fresh Network over the kept positions;
  /// it is computed by restricting this CSR, which a monotone renumbering
  /// keeps sorted, and only the visit order is rebuilt from a grid.
  /// `keep` must be sized num_nodes().
  Network restricted_to(const std::vector<char>& keep) const;

 private:
  Network() = default;  // filled in by restricted_to

  /// Rebuilds the CSR over `grid` (built on `positions_` with cell edge
  /// `radio_range_`): the rows with `(*refill)[i] != 0`, or every row when
  /// `refill` is null, are filled from the grid; the others keep their
  /// current contents. Then keeps the grid's order as `order_`.
  /// Construction and `apply_moves` both go through it.
  void fill_rows(const geom::SpatialGrid& grid, const std::vector<char>* refill,
                 unsigned threads);

  std::vector<geom::Vec3> positions_;
  std::vector<bool> truth_boundary_;
  std::size_t num_truth_ = 0;
  double radio_range_ = 0.0;
  // CSR adjacency; 32-bit offsets cap it below 2^32 entries.
  std::vector<std::uint32_t> offsets_;
  std::vector<NodeId> adjacency_;
  std::vector<NodeId> order_;  // spatial_order()
};

}  // namespace ballfit::net
