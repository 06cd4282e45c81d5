#include "mesh/surface_builder.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/assert.hpp"
#include "net/graph.hpp"
#include "obs/trace.hpp"
#include "sim/protocols.hpp"

namespace ballfit::mesh {

using net::NodeId;

namespace {

/// Over-saturated edges (more than two faces) with an endpoint in the
/// sorted vertex set `verts`, each counted once. An edge's face count only
/// changes when an edge at one of its endpoints is added or removed, so a
/// flip that touches only `verts` changes the mesh-wide count by exactly
/// the change of this local count.
std::size_t over_edges_around(const TriMesh& mesh,
                              const std::vector<std::uint32_t>& verts) {
  std::size_t over = 0;
  for (std::uint32_t x : verts) {
    for (std::uint32_t y : mesh.neighbors(x)) {
      if (y < x && std::binary_search(verts.begin(), verts.end(), y))
        continue;  // counted from y
      if (mesh.edge_triangle_apexes(x, y).size() > 2) ++over;
    }
  }
  return over;
}

/// Step III witness conditions on a landmark-to-landmark path: all nodes
/// belong to the two cells, cell-a prefix then cell-b suffix, no
/// interleaving.
bool cdm_witness_ok(const std::vector<NodeId>& path,
                    const std::vector<NodeId>& owner, NodeId a, NodeId b) {
  bool in_b_part = false;
  for (NodeId v : path) {
    const NodeId o = owner[v];
    if (o != a && o != b) return false;
    if (o == b) {
      in_b_part = true;
    } else if (in_b_part) {
      return false;  // back to cell a after entering cell b: interleaved
    }
  }
  return true;
}

BoundarySurface build_one_surface(const net::Network& network,
                                  const std::vector<NodeId>& group,
                                  const net::NodeMask& group_mask,
                                  const MeshConfig& config,
                                  net::BoundedBfs& bfs) {
  BoundarySurface surface;
  surface.group_leader = group.front();
  const auto in_group = [&group_mask](NodeId v) { return bool(group_mask[v]); };

  // ---- Step I: landmark election + Voronoi association.
  {
    BALLFIT_SPAN("step1_landmarks");
    surface.landmarks = sim::khop_landmark_election(
        network, group_mask, config.landmark_spacing, nullptr, {},
        config.threads);
    surface.voronoi_owner =
        net::multi_source_bfs(network, surface.landmarks, &group_mask).owner;
  }
  const std::vector<NodeId>& owner = surface.voronoi_owner;

  std::vector<geom::Vec3> positions;
  positions.reserve(surface.landmarks.size());
  for (NodeId v : surface.landmarks) positions.push_back(network.position(v));
  TriMesh mesh(surface.landmarks, std::move(positions));

  // ---- Step II: CDG — landmarks with adjacent Voronoi cells.
  std::set<std::pair<NodeId, NodeId>> cdg;
  {
    BALLFIT_SPAN("step2_cdg");
    for (NodeId v : group) {
      const NodeId ov = owner[v];
      BALLFIT_ASSERT_MSG(ov != net::kInvalidNode,
                         "group node with no landmark owner");
      for (NodeId u : network.neighbors(v)) {
        if (!group_mask[u]) continue;
        const NodeId ou = owner[u];
        if (ou != ov)
          cdg.insert({std::min(ov, ou), std::max(ov, ou)});
      }
    }
  }
  surface.cdg_edges = cdg.size();

  // ---- Step III: CDM — keep edges with a clean two-cell witness path.
  // The witness packet routes over the boundary nodes of the two cells
  // involved (the witness conditions require the path to stay inside
  // them, so the protocol's forwarding set is exactly the two cells); the
  // no-interleaving condition is then checked on the path found.
  // `claimed[v]` marks boundary nodes recorded as lying on the shortest
  // path between two *connected* landmarks.
  std::vector<bool> claimed(network.num_nodes(), false);
  std::set<std::pair<NodeId, NodeId>> connected;
  {
    BALLFIT_SPAN("step3_cdm");
    for (const auto& [a, b] : cdg) {
      bfs.run(network, a, net::kUnreachable,
              [&owner, a = a, b = b](NodeId v) {
                return owner[v] == a || owner[v] == b;
              },
              b);
      const std::vector<NodeId> path = bfs.path_to(b);
      if (path.empty()) continue;
      if (!cdm_witness_ok(path, owner, a, b)) continue;
      connected.insert({a, b});
      for (NodeId v : path) claimed[v] = true;
    }
  }
  surface.cdm_edges = connected.size();

  // ---- Step IV: triangulation completion. Remaining CDG pairs route a
  // connection packet along the shortest boundary path; the packet is
  // dropped at any intermediate node already claimed by a connected pair.
  {
    BALLFIT_SPAN("step4_completion");
    for (const auto& [a, b] : cdg) {
      if (connected.count({a, b}) != 0) continue;
      bfs.run(network, a, net::kUnreachable, in_group, b);
      const std::vector<NodeId> path = bfs.path_to(b);
      if (path.empty()) continue;
      bool blocked = false;
      for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        if (claimed[path[i]]) {
          blocked = true;
          break;
        }
      }
      if (blocked) continue;
      connected.insert({a, b});
      ++surface.added_edges;
      for (NodeId v : path) claimed[v] = true;
    }
  }

  for (const auto& [a, b] : connected) {
    mesh.add_edge(mesh.index_of(a), mesh.index_of(b));
  }

  // ---- Step V: edge flip. An edge with three or more triangular faces is
  // removed and its apexes re-joined by the shortest chain (for exactly
  // three apexes C, D, E this adds the two shortest of CD, CE, DE — the
  // paper's rule). Lengths are hop distances over the boundary subgraph,
  // ties broken by Euclidean length then ids, keeping the step
  // connectivity-driven and deterministic.
  // Hill-climbing flip schedule: a flip is kept only when it strictly
  // reduces the number of over-saturated edges, otherwise it is reverted
  // and the edge is shelved until some accepted flip changes its
  // surroundings. This keeps the paper's transformation rule while
  // guaranteeing termination (the over-edge count is monotone between
  // shelvings) and never shredding an otherwise-good mesh.
  // The group subgraph never changes here, so apex-pair hop lengths are
  // memoised for the whole step; each is one BFS that stops at the target.
  BALLFIT_SPAN("step5_flip");
  std::map<std::pair<NodeId, NodeId>, std::uint32_t> hop_memo;
  const auto hop_length = [&](NodeId a, NodeId b) {
    const auto [it, fresh] =
        hop_memo.try_emplace({std::min(a, b), std::max(a, b)}, 0);
    if (fresh) {
      bfs.run(network, a, net::kUnreachable, in_group, b);
      it->second = bfs.dist(b);
    }
    return it->second;
  };
  std::set<Edge> shelved;
  std::size_t current_over = 0;
  for (const Edge& oe : mesh.edges()) {
    if (mesh.edge_triangle_apexes(oe.first, oe.second).size() > 2)
      ++current_over;
  }
  bool changed = true;
  std::size_t guard = 16 * (mesh.num_edges() + 1);
  while (changed && current_over > 0 && guard-- > 0) {
    changed = false;
    for (const Edge& e : mesh.edges()) {
      if (shelved.count(e) != 0) continue;
      const auto apexes = mesh.edge_triangle_apexes(e.first, e.second);
      if (apexes.size() <= 2) continue;

      // Every edge the flip adds or removes joins two of these vertices.
      std::vector<std::uint32_t> touched(apexes);
      touched.push_back(e.first);
      touched.push_back(e.second);
      std::sort(touched.begin(), touched.end());
      const std::size_t local_over = over_edges_around(mesh, touched);

      mesh.remove_edge(e.first, e.second);

      // Candidate apex-to-apex links, cheapest first (Kruskal over the
      // apex set): connects all apexes with |apexes|−1 new edges.
      struct Cand {
        std::uint32_t u, v;
        std::uint32_t hops;
        double dist;
      };
      std::vector<Cand> cands;
      for (std::size_t i = 0; i < apexes.size(); ++i)
        for (std::size_t j = i + 1; j < apexes.size(); ++j) {
          const NodeId nu = mesh.vertex_node(apexes[i]);
          const NodeId nv = mesh.vertex_node(apexes[j]);
          cands.push_back(
              {apexes[i], apexes[j], hop_length(nu, nv),
               mesh.position(apexes[i]).distance_to(mesh.position(apexes[j]))});
        }
      std::sort(cands.begin(), cands.end(), [](const Cand& x, const Cand& y) {
        if (x.hops != y.hops) return x.hops < y.hops;
        if (x.dist != y.dist) return x.dist < y.dist;
        return std::tie(x.u, x.v) < std::tie(y.u, y.v);
      });

      // Union-find over the apexes, seeded with the apex-to-apex edges the
      // mesh already has (no need to re-link what is linked).
      std::map<std::uint32_t, std::uint32_t> parent;
      for (std::uint32_t apex : apexes) parent[apex] = apex;
      auto find = [&](std::uint32_t x) {
        while (parent[x] != x) x = parent[x] = parent[parent[x]];
        return x;
      };
      std::size_t components = apexes.size();
      for (std::size_t i = 0; i < apexes.size(); ++i)
        for (std::size_t j = i + 1; j < apexes.size(); ++j)
          if (mesh.has_edge(apexes[i], apexes[j])) {
            const std::uint32_t ri = find(apexes[i]);
            const std::uint32_t rj = find(apexes[j]);
            if (ri != rj) {
              parent[ri] = rj;
              --components;
            }
          }
      std::vector<Edge> added;
      for (const Cand& c : cands) {
        if (components <= 1) break;
        const std::uint32_t ru = find(c.u);
        const std::uint32_t rv = find(c.v);
        if (ru == rv) continue;
        parent[ru] = rv;
        --components;
        if (!mesh.has_edge(c.u, c.v)) {
          mesh.add_edge(c.u, c.v);
          added.push_back(make_edge(c.u, c.v));
        }
      }

      const std::size_t next_over =
          current_over - local_over + over_edges_around(mesh, touched);
      if (next_over < current_over) {
        current_over = next_over;
        ++surface.flips;
        shelved.clear();  // surroundings changed; shelved edges may be
                          // fixable now
      } else {
        // Revert: restore the removed edge, drop the additions.
        for (const Edge& ae : added) mesh.remove_edge(ae.first, ae.second);
        mesh.add_edge(e.first, e.second);
        shelved.insert(e);
        continue;
      }
      changed = true;
      break;  // edge set changed; re-scan from a fresh edge list
    }
  }

  // Force pass: any edge still bounded by more than two triangles is
  // removed outright. Removing an edge only ever destroys faces, so this
  // terminates and guarantees the paper's step-V invariant ("no edge has
  // more than two faces") even where the apex-chain transformation alone
  // could not reach it.
  for (bool removed = true; removed;) {
    removed = false;
    for (const Edge& e : mesh.edges()) {
      if (mesh.edge_triangle_apexes(e.first, e.second).size() > 2) {
        mesh.remove_edge(e.first, e.second);
        ++surface.flips;
        removed = true;
        break;
      }
    }
  }

  surface.mesh = std::move(mesh);
  return surface;
}

}  // namespace

SurfaceResult build_surfaces(const net::Network& network,
                             const std::vector<bool>& boundary,
                             const core::BoundaryGroups& groups,
                             const MeshConfig& config) {
  BALLFIT_REQUIRE(boundary.size() == network.num_nodes(),
                  "boundary mask size mismatch");
  BALLFIT_REQUIRE(config.landmark_spacing >= 1, "landmark spacing >= 1");
  for (const auto& group : groups.groups) {
    for (NodeId v : group) {
      BALLFIT_REQUIRE(v < network.num_nodes(), "group member out of range");
    }
  }

  SurfaceResult result;
  net::BoundedBfs bfs;
  for (const auto& group : groups.groups) {
    if (group.empty() || group.size() < config.min_group_size) continue;
    net::NodeMask mask(network.num_nodes(), false);
    for (NodeId v : group) {
      BALLFIT_REQUIRE(boundary[v], "group member not a boundary node");
      mask[v] = true;
    }
    result.surfaces.push_back(
        build_one_surface(network, group, mask, config, bfs));
  }
  return result;
}

}  // namespace ballfit::mesh
