#pragma once

/// \file graph.hpp
/// Hop-distance and component utilities over the network graph, with
/// optional restriction to a node subset (IFF and the mesh stage both work
/// on the boundary-node subgraph).

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "net/network.hpp"

namespace ballfit::net {

inline constexpr std::uint32_t kUnreachable = static_cast<std::uint32_t>(-1);

/// A node filter: nullptr means "all nodes"; otherwise nodes with
/// (*mask)[v] == false are invisible (cannot be traversed or reached).
using NodeMask = std::vector<bool>;

/// Reusable breadth-first search bounded in hops, for callers that run many
/// small searches over one network (landmark election, the mesh steps, the
/// TTL flood oracle). Distances and parents live in epoch-stamped arrays
/// over [0, N) in the `common/epoch_map.hpp` idiom: they are zero-filled
/// once per network size, and each `run` costs only what it visits.
///
/// `run` visits in FIFO order (neighbors in adjacency order), does not
/// expand nodes at `max_hops`, and never enters a node for which
/// `visible(v)` is false. With a `target` it stops as soon as the target
/// has been reached, after the node that discovered it has been fully
/// expanded. Parents follow the deterministic tie-break of `shortest_path`:
/// among the expanded nodes one hop closer, the smallest id wins.
class BoundedBfs {
 public:
  /// Searches from `source`, replacing the previous run's result. An
  /// invisible source yields an empty result.
  template <typename Visible>
  void run(const Network& net, NodeId source, std::uint32_t max_hops,
           Visible&& visible, NodeId target = kInvalidNode);

  /// Nodes reached by the last run, in visiting order (source first).
  const std::vector<NodeId>& visited() const { return order_; }
  /// Hop distance from the source, or kUnreachable when not reached.
  std::uint32_t dist(NodeId v) const {
    return reached(v) ? dist_[v] : kUnreachable;
  }
  /// BFS parent, or kInvalidNode for the source and unreached nodes.
  NodeId parent(NodeId v) const {
    return reached(v) ? parent_[v] : kInvalidNode;
  }
  /// Source-to-`t` path along parents, inclusive; empty when unreached.
  std::vector<NodeId> path_to(NodeId t) const;

 private:
  void begin(std::size_t n);
  bool reached(NodeId v) const { return stamp_[v] == epoch_; }

  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> dist_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> order_;
  std::uint32_t epoch_ = 0;
};

template <typename Visible>
void BoundedBfs::run(const Network& net, NodeId source, std::uint32_t max_hops,
                     Visible&& visible, NodeId target) {
  begin(net.num_nodes());
  BALLFIT_REQUIRE(source < net.num_nodes(), "source out of range");
  if (!visible(source)) return;
  stamp_[source] = epoch_;
  dist_[source] = 0;
  parent_[source] = kInvalidNode;
  order_.push_back(source);
  for (std::size_t head = 0; head < order_.size(); ++head) {
    if (target != kInvalidNode && reached(target)) break;
    const NodeId u = order_[head];
    const std::uint32_t du = dist_[u];
    if (du >= max_hops) continue;
    for (NodeId v : net.neighbors(u)) {
      if (!visible(v)) continue;
      if (stamp_[v] != epoch_) {
        stamp_[v] = epoch_;
        dist_[v] = du + 1;
        parent_[v] = u;
        order_.push_back(v);
      } else if (dist_[v] == du + 1 && parent_[v] != kInvalidNode &&
                 u < parent_[v]) {
        parent_[v] = u;  // deterministic smallest-parent tie-break
      }
    }
  }
}

/// BFS hop distances from `source` (restricted to `mask` if given).
/// `max_hops` is an inclusive cap in hops (default `kUnreachable` =
/// unbounded); nodes beyond it report `kUnreachable`.
std::vector<std::uint32_t> hop_distances(const Network& net, NodeId source,
                                         const NodeMask* mask = nullptr,
                                         std::uint32_t max_hops = kUnreachable);

/// Multi-source BFS: distance to the closest source, and which source won
/// (ties broken by smaller source id, matching the paper's landmark
/// association tiebreaker). `owner[v] == kInvalidNode` when unreachable.
struct MultiSourceBfs {
  std::vector<std::uint32_t> distance;
  std::vector<NodeId> owner;
};
MultiSourceBfs multi_source_bfs(const Network& net,
                                const std::vector<NodeId>& sources,
                                const NodeMask* mask = nullptr);

/// Connected components of the (masked) graph. Returns component id per
/// node (kUnreachable for masked-out nodes) and the component sizes.
struct Components {
  std::vector<std::uint32_t> component;
  std::vector<std::size_t> sizes;
  std::size_t count() const { return sizes.size(); }
};
Components connected_components(const Network& net,
                                const NodeMask* mask = nullptr);

/// True when the whole network is a single connected component.
bool is_connected(const Network& net);

/// Shortest path (in hops) from `from` to `to` over the masked graph,
/// inclusive of both endpoints; empty when unreachable. Tie-breaking is
/// deterministic: the BFS parent with the smallest id wins.
std::vector<NodeId> shortest_path(const Network& net, NodeId from, NodeId to,
                                  const NodeMask* mask = nullptr);

/// Marks (sets to 1) every node within `k` hops (inclusive; k = 0 marks
/// just the seeds) of any seed, accumulating into `out` (must be sized
/// num_nodes; existing marks are preserved).
/// Traversal runs over the full adjacency, deliberately ignoring any
/// aliveness mask: a dead relay still bounds how far a topology change can
/// influence a two-hop neighborhood, so the unmasked reach is the sound
/// (conservative) dirty set for incremental re-detection.
void mark_k_hop(const Network& net, const std::vector<NodeId>& seeds,
                std::uint32_t k, std::vector<char>& out);

}  // namespace ballfit::net
