#include "net/graph.hpp"

#include <algorithm>
#include <deque>

#include "common/assert.hpp"

namespace ballfit::net {

namespace {
bool visible(const NodeMask* mask, NodeId v) {
  return mask == nullptr || (*mask)[v];
}
}  // namespace

void BoundedBfs::begin(std::size_t n) {
  if (stamp_.size() != n) {
    stamp_.assign(n, 0);
    dist_.resize(n);
    parent_.resize(n);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {  // counter wrapped: old stamps would read as current
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  order_.clear();
}

std::vector<NodeId> BoundedBfs::path_to(NodeId t) const {
  std::vector<NodeId> path;
  if (t >= stamp_.size() || !reached(t)) return path;
  for (NodeId v = t; v != kInvalidNode; v = parent_[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::uint32_t> hop_distances(const Network& net, NodeId source,
                                         const NodeMask* mask,
                                         std::uint32_t max_hops) {
  BoundedBfs bfs;
  bfs.run(net, source, max_hops, [mask](NodeId v) { return visible(mask, v); });
  std::vector<std::uint32_t> dist(net.num_nodes(), kUnreachable);
  for (NodeId v : bfs.visited()) dist[v] = bfs.dist(v);
  return dist;
}

MultiSourceBfs multi_source_bfs(const Network& net,
                                const std::vector<NodeId>& sources,
                                const NodeMask* mask) {
  MultiSourceBfs out;
  out.distance.assign(net.num_nodes(), kUnreachable);
  out.owner.assign(net.num_nodes(), kInvalidNode);

  // Pass 1: plain multi-source BFS for distances, recording the frontier
  // order (nodes appear in non-decreasing distance).
  std::vector<NodeId> order;
  std::deque<NodeId> queue;
  for (NodeId s : sources) {
    BALLFIT_REQUIRE(s < net.num_nodes(), "source out of range");
    if (!visible(mask, s) || out.distance[s] == 0) continue;
    out.distance[s] = 0;
    out.owner[s] = s;
    queue.push_back(s);
    order.push_back(s);
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : net.neighbors(u)) {
      if (!visible(mask, v) || out.distance[v] != kUnreachable) continue;
      out.distance[v] = out.distance[u] + 1;
      queue.push_back(v);
      order.push_back(v);
    }
  }

  // Pass 2: exact owner propagation. A node at distance d takes the
  // minimum owner id over all neighbors at distance d−1, which equals the
  // smallest-id landmark among those at minimal hop distance — the paper's
  // association rule. Processing in BFS order guarantees predecessors are
  // final.
  for (NodeId v : order) {
    if (out.distance[v] == 0) {
      out.owner[v] = v;
      continue;
    }
    NodeId best = kInvalidNode;
    for (NodeId u : net.neighbors(v)) {
      if (!visible(mask, u)) continue;
      if (out.distance[u] + 1 == out.distance[v] &&
          out.owner[u] != kInvalidNode) {
        best = std::min(best, out.owner[u]);
      }
    }
    out.owner[v] = best;
  }
  return out;
}

Components connected_components(const Network& net, const NodeMask* mask) {
  Components out;
  out.component.assign(net.num_nodes(), kUnreachable);
  std::vector<NodeId> stack;
  for (NodeId start = 0; start < net.num_nodes(); ++start) {
    if (!visible(mask, start) || out.component[start] != kUnreachable)
      continue;
    const auto comp_id = static_cast<std::uint32_t>(out.sizes.size());
    std::size_t size = 0;
    stack.push_back(start);
    out.component[start] = comp_id;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      ++size;
      for (NodeId v : net.neighbors(u)) {
        if (!visible(mask, v) || out.component[v] != kUnreachable) continue;
        out.component[v] = comp_id;
        stack.push_back(v);
      }
    }
    out.sizes.push_back(size);
  }
  return out;
}

bool is_connected(const Network& net) {
  if (net.num_nodes() == 0) return true;
  return connected_components(net).count() == 1;
}

std::vector<NodeId> shortest_path(const Network& net, NodeId from, NodeId to,
                                  const NodeMask* mask) {
  BALLFIT_REQUIRE(from < net.num_nodes() && to < net.num_nodes(),
                  "endpoint out of range");
  if (!visible(mask, from) || !visible(mask, to)) return {};
  BoundedBfs bfs;
  bfs.run(net, from, kUnreachable,
          [mask](NodeId v) { return visible(mask, v); }, to);
  return bfs.path_to(to);
}

void mark_k_hop(const Network& net, const std::vector<NodeId>& seeds,
                std::uint32_t k, std::vector<char>& out) {
  const std::size_t n = net.num_nodes();
  BALLFIT_REQUIRE(out.size() == n, "output mask must be sized num_nodes");
  std::vector<std::uint32_t> dist(n, kUnreachable);
  std::deque<NodeId> queue;
  for (NodeId s : seeds) {
    BALLFIT_REQUIRE(s < n, "seed out of range");
    if (dist[s] == 0) continue;  // duplicate seed
    dist[s] = 0;
    out[s] = 1;
    queue.push_back(s);
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (dist[u] >= k) continue;
    for (NodeId v : net.neighbors(u)) {
      if (dist[v] != kUnreachable) continue;
      dist[v] = dist[u] + 1;
      out[v] = 1;
      queue.push_back(v);
    }
  }
}

}  // namespace ballfit::net
