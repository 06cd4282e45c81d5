#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "geom/grid.hpp"

namespace ballfit::net {
namespace {

bool is_finite(const geom::Vec3& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
}

}  // namespace

Network::Network(std::vector<geom::Vec3> positions,
                 std::vector<bool> ground_truth_boundary, double radio_range,
                 unsigned build_threads)
    : positions_(std::move(positions)),
      truth_boundary_(std::move(ground_truth_boundary)),
      radio_range_(radio_range) {
  BALLFIT_REQUIRE(std::isfinite(radio_range_) && radio_range_ > 0.0,
                  "radio range must be finite and positive");
  for (const geom::Vec3& p : positions_) {
    BALLFIT_REQUIRE(is_finite(p), "node positions must be finite");
  }
  BALLFIT_REQUIRE(truth_boundary_.size() == positions_.size(),
                  "ground truth label count must match node count");
  num_truth_ = static_cast<std::size_t>(
      std::count(truth_boundary_.begin(), truth_boundary_.end(), true));
  const geom::SpatialGrid grid(positions_, radio_range_);
  fill_rows(grid, nullptr, build_threads);
}

void Network::fill_rows(const geom::SpatialGrid& grid,
                        const std::vector<char>* refill, unsigned threads) {
  const std::size_t n = positions_.size();
  const double r = radio_range_;
  const auto refilled = [&](std::size_t i) {
    return refill == nullptr || (*refill)[i] != 0;
  };
  const auto for_each_neighbor = [&](std::size_t i, auto&& fn) {
    grid.for_each_in_ball(positions_[i], r, [&](std::uint32_t j) {
      if (j != i) fn(static_cast<NodeId>(j));
      return true;
    });
  };

  // Two passes, each parallel over rows (writes are row-private): count
  // each row's degree and prefix-sum into offsets, then fill and sort each
  // row. The result is byte-identical for any thread count.
  std::vector<std::uint32_t> offsets(n + 1, 0);
  parallel_for(
      n,
      [&](std::size_t i) {
        std::size_t d = 0;
        if (refilled(i)) {
          for_each_neighbor(i, [&](NodeId) { ++d; });
        } else {
          d = degree(static_cast<NodeId>(i));
        }
        offsets[i + 1] = d;
      },
      threads);
  const std::size_t entries =
      std::accumulate(offsets.begin(), offsets.end(), std::size_t{0});
  BALLFIT_REQUIRE(entries <= std::numeric_limits<std::uint32_t>::max(),
                  "adjacency must hold fewer than 2^32 entries");
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<NodeId> adjacency(entries);
  parallel_for(
      n,
      [&](std::size_t i) {
        NodeId* row = adjacency.data() + offsets[i];
        if (refilled(i)) {
          NodeId* out = row;
          for_each_neighbor(i, [&](NodeId j) { *out++ = j; });
          std::sort(row, out);
        } else {
          const auto nb = neighbors(static_cast<NodeId>(i));
          std::copy(nb.begin(), nb.end(), row);
        }
      },
      threads);
  offsets_ = std::move(offsets);
  adjacency_ = std::move(adjacency);
  order_.assign(grid.order().begin(), grid.order().end());
}

void Network::apply_moves(std::span<const NodeMove> moves) {
  if (moves.empty()) return;
  const std::size_t n = positions_.size();
  for (const NodeMove& m : moves) {
    BALLFIT_REQUIRE(m.node < n, "NodeMove id out of range");
    BALLFIT_REQUIRE(is_finite(m.new_position),
                    "NodeMove position must be finite");
  }
  {
    std::vector<NodeId> ids;
    ids.reserve(moves.size());
    for (const NodeMove& m : moves) ids.push_back(m.node);
    std::sort(ids.begin(), ids.end());
    BALLFIT_REQUIRE(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                    "duplicate node id in NodeMove batch");
  }

  // A row changes only when a moved node enters or leaves it: distances
  // between two unmoved nodes are untouched. Affected = moved ∪ their old
  // neighbors ∪ their new neighbors; every other row is kept verbatim.
  std::vector<char> affected(n, 0);
  for (const NodeMove& m : moves) {
    affected[m.node] = 1;
    for (NodeId j : neighbors(m.node)) affected[j] = 1;
  }
  for (const NodeMove& m : moves) positions_[m.node] = m.new_position;

  const geom::SpatialGrid grid(positions_, radio_range_);
  for (const NodeMove& m : moves) {
    grid.for_each_in_ball(positions_[m.node], radio_range_,
                          [&](std::uint32_t j) {
                            affected[j] = 1;
                            return true;
                          });
  }
  fill_rows(grid, &affected, 1);
}

Network Network::restricted_to(const std::vector<char>& keep) const {
  const std::size_t n = num_nodes();
  BALLFIT_REQUIRE(keep.size() == n, "keep mask must be sized num_nodes");
  // Two passes, as in fill_rows: renumber and count each kept row's kept
  // neighbors, then copy the rows. Counts are subsets of this CSR's, so
  // the offsets cannot overflow.
  std::vector<NodeId> renumber(n, kInvalidNode);
  const auto m = static_cast<std::size_t>(
      std::count_if(keep.begin(), keep.end(), [](char k) { return k != 0; }));
  Network out;
  out.radio_range_ = radio_range_;
  out.positions_.reserve(m);
  out.truth_boundary_.reserve(m);
  out.offsets_.reserve(m + 1);
  out.offsets_.push_back(0);
  for (NodeId i = 0; i < n; ++i) {
    if (keep[i] == 0) continue;
    renumber[i] = static_cast<NodeId>(out.positions_.size());
    out.positions_.push_back(positions_[i]);
    out.truth_boundary_.push_back(truth_boundary_[i]);
    const auto nb = neighbors(i);
    out.offsets_.push_back(out.offsets_.back() +
                           static_cast<std::uint32_t>(std::count_if(
                               nb.begin(), nb.end(),
                               [&](NodeId j) { return keep[j] != 0; })));
  }
  out.num_truth_ = static_cast<std::size_t>(std::count(
      out.truth_boundary_.begin(), out.truth_boundary_.end(), true));
  out.adjacency_.reserve(out.offsets_.back());
  for (NodeId i = 0; i < n; ++i) {
    if (keep[i] == 0) continue;
    for (NodeId j : neighbors(i)) {
      if (keep[j] != 0) out.adjacency_.push_back(renumber[j]);
    }
  }
  const geom::SpatialGrid grid(out.positions_, radio_range_);
  out.order_.assign(grid.order().begin(), grid.order().end());
  return out;
}

bool Network::are_neighbors(NodeId i, NodeId j) const {
  const auto nb = neighbors(i);
  return std::binary_search(nb.begin(), nb.end(), j);
}

double Network::average_degree() const {
  if (num_nodes() == 0) return 0.0;
  return static_cast<double>(adjacency_.size()) /
         static_cast<double>(num_nodes());
}

std::size_t Network::min_degree() const {
  std::size_t best = num_nodes() == 0 ? 0 : degree(0);
  for (NodeId i = 0; i < num_nodes(); ++i) best = std::min(best, degree(i));
  return best;
}

std::size_t Network::max_degree() const {
  std::size_t best = 0;
  for (NodeId i = 0; i < num_nodes(); ++i) best = std::max(best, degree(i));
  return best;
}

}  // namespace ballfit::net
