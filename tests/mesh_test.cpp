// Tests for the mesh module: TriMesh bookkeeping and manifold reports on
// hand-built meshes (tetrahedron, octahedron, non-manifold cases), the
// landmark election's spacing and coverage, full surface construction on a
// sphere network (closed genus-0 manifold expected), and the builder
// against a literal copy of its previous full-network implementation, at 1
// and 4 election threads.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "mesh/metrics.hpp"
#include "mesh/obj_export.hpp"
#include "mesh/surface_builder.hpp"
#include "mesh/trimesh.hpp"
#include "model/shapes.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"
#include "net/graph.hpp"
#include "sim/protocols.hpp"

namespace ballfit::mesh {
namespace {

using geom::Vec3;
using net::NodeId;

TriMesh tetrahedron() {
  TriMesh m({0, 1, 2, 3},
            {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  for (std::uint32_t a = 0; a < 4; ++a)
    for (std::uint32_t b = a + 1; b < 4; ++b) m.add_edge(a, b);
  return m;
}

TriMesh octahedron() {
  // Vertices: ±x, ±y, ±z unit points. 12 edges, 8 faces.
  TriMesh m({0, 1, 2, 3, 4, 5},
            {{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1},
             {0, 0, -1}});
  const std::uint32_t px = 0, nx = 1, py = 2, ny = 3, pz = 4, nz = 5;
  for (std::uint32_t eq1 : {px, nx})
    for (std::uint32_t eq2 : {py, ny}) m.add_edge(eq1, eq2);
  for (std::uint32_t pole : {pz, nz})
    for (std::uint32_t eq : {px, nx, py, ny}) m.add_edge(pole, eq);
  return m;
}

TEST(TriMesh, EdgeBookkeeping) {
  TriMesh m({10, 20, 30}, {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}});
  EXPECT_EQ(m.num_vertices(), 3u);
  EXPECT_EQ(m.index_of(20), 1u);
  EXPECT_EQ(m.index_of(99), TriMesh::kInvalidIndex);
  m.add_edge(0, 1);
  m.add_edge(0, 1);  // idempotent
  EXPECT_EQ(m.num_edges(), 1u);
  EXPECT_TRUE(m.has_edge(1, 0));
  m.remove_edge(0, 1);
  EXPECT_EQ(m.num_edges(), 0u);
  EXPECT_THROW(m.add_edge(0, 0), InvalidArgument);
}

TEST(TriMesh, TriangleEnumeration) {
  TriMesh m = tetrahedron();
  const auto tris = m.triangles();
  EXPECT_EQ(tris.size(), 4u);
  const auto apexes = m.edge_triangle_apexes(0, 1);
  EXPECT_EQ(apexes.size(), 2u);
}

TEST(TriMesh, TetrahedronIsClosedGenusZero) {
  const auto rep = tetrahedron().manifold_report();
  EXPECT_TRUE(rep.closed_manifold);
  EXPECT_EQ(rep.euler_characteristic, 2);
  EXPECT_EQ(rep.genus, 0);
  EXPECT_EQ(rep.num_triangles, 4u);
}

TEST(TriMesh, OctahedronIsClosedGenusZero) {
  const auto rep = octahedron().manifold_report();
  EXPECT_TRUE(rep.closed_manifold);
  EXPECT_EQ(rep.num_edges, 12u);
  EXPECT_EQ(rep.num_triangles, 8u);
  EXPECT_EQ(rep.euler_characteristic, 2);
}

TEST(TriMesh, OpenFanIsNotClosedManifold) {
  // Single triangle: every edge has one face.
  TriMesh m({0, 1, 2}, {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}});
  m.add_edge(0, 1);
  m.add_edge(1, 2);
  m.add_edge(0, 2);
  const auto rep = m.manifold_report();
  EXPECT_FALSE(rep.closed_manifold);
  EXPECT_EQ(rep.edges_under, 3u);
  EXPECT_EQ(rep.num_triangles, 1u);
}

TEST(TriMesh, ThreeFaceEdgeDetected) {
  // Paper Fig. 5(a): edge AB shared by three triangles ACB, ADB, AEB.
  TriMesh m({0, 1, 2, 3, 4},
            {{0, 0, 0}, {1, 0, 0}, {0.5, 1, 0}, {0.5, -1, 0}, {0.5, 0, 1}});
  m.add_edge(0, 1);
  for (std::uint32_t apex : {2u, 3u, 4u}) {
    m.add_edge(0, apex);
    m.add_edge(1, apex);
  }
  EXPECT_EQ(m.edge_triangle_apexes(0, 1).size(), 3u);
  const auto rep = m.manifold_report();
  EXPECT_EQ(rep.edges_over, 1u);
  EXPECT_FALSE(rep.closed_manifold);
}

TEST(LandmarkElection, SpacingAndCoverageOnSphere) {
  Rng rng(3);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = 300;
  opt.interior_count = 400;
  const net::Network net = net::build_network(shape, opt, rng);
  net::NodeMask active(net.num_nodes(), true);
  const std::uint32_t k = 3;
  const auto landmarks = sim::khop_landmark_election(net, active, k);
  ASSERT_FALSE(landmarks.empty());
  for (NodeId lm : landmarks) {
    const auto dist = net::hop_distances(net, lm, &active, k);
    for (NodeId other : landmarks) {
      if (other != lm) {
        EXPECT_TRUE(dist[other] == net::kUnreachable || dist[other] > k);
      }
    }
  }
  const auto assoc = net::multi_source_bfs(net, landmarks, &active);
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    EXPECT_LE(assoc.distance[v], k);
}

// ---------------------------------------------------------------------------
// Reference builder: a literal copy of the surface builder as it was before
// its steps went group-local (a full-network election, an
// N-sized two-cell mask and `shortest_path` per CDG edge, an unbounded
// `hop_distances` per apex pair, a full over-edge recount per tentative
// flip). The optimized builder must reproduce it exactly.

namespace reference {

std::uint32_t hop_length(const net::Network& network, const net::NodeMask& mask,
                         NodeId a, NodeId b) {
  const auto dist = net::hop_distances(network, a, &mask);
  return dist[b];
}

bool cdm_witness_ok(const std::vector<NodeId>& path,
                    const std::vector<NodeId>& owner, NodeId a, NodeId b) {
  bool in_b_part = false;
  for (NodeId v : path) {
    const NodeId o = owner[v];
    if (o != a && o != b) return false;
    if (o == b) {
      in_b_part = true;
    } else if (in_b_part) {
      return false;
    }
  }
  return true;
}

BoundarySurface build_one_surface(const net::Network& network,
                                  const net::NodeMask& group_mask,
                                  NodeId leader, const MeshConfig& config) {
  BoundarySurface surface;
  surface.group_leader = leader;

  // Step I: the library election, which tests/sim_test.cpp pins to a
  // literal round engine.
  surface.landmarks = sim::khop_landmark_election(network, group_mask,
                                                  config.landmark_spacing);
  const net::MultiSourceBfs assoc =
      net::multi_source_bfs(network, surface.landmarks, &group_mask);
  surface.voronoi_owner = assoc.owner;

  std::vector<geom::Vec3> positions;
  positions.reserve(surface.landmarks.size());
  for (NodeId v : surface.landmarks) positions.push_back(network.position(v));
  TriMesh mesh(surface.landmarks, std::move(positions));

  std::set<std::pair<NodeId, NodeId>> cdg;
  for (NodeId v = 0; v < network.num_nodes(); ++v) {
    if (!group_mask[v]) continue;
    const NodeId ov = assoc.owner[v];
    for (NodeId u : network.neighbors(v)) {
      if (!group_mask[u]) continue;
      const NodeId ou = assoc.owner[u];
      if (ou != ov)
        cdg.insert({std::min(ov, ou), std::max(ov, ou)});
    }
  }
  surface.cdg_edges = cdg.size();

  std::vector<bool> claimed(network.num_nodes(), false);
  std::set<std::pair<NodeId, NodeId>> connected;
  for (const auto& [a, b] : cdg) {
    net::NodeMask cells(network.num_nodes(), false);
    for (NodeId v = 0; v < network.num_nodes(); ++v) {
      cells[v] =
          group_mask[v] && (assoc.owner[v] == a || assoc.owner[v] == b);
    }
    const std::vector<NodeId> path = net::shortest_path(network, a, b, &cells);
    if (path.empty()) continue;
    if (!cdm_witness_ok(path, assoc.owner, a, b)) continue;
    connected.insert({a, b});
    for (NodeId v : path) claimed[v] = true;
  }
  surface.cdm_edges = connected.size();

  for (const auto& [a, b] : cdg) {
    if (connected.count({a, b}) != 0) continue;
    const std::vector<NodeId> path =
        net::shortest_path(network, a, b, &group_mask);
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

  for (const auto& [a, b] : connected) {
    mesh.add_edge(mesh.index_of(a), mesh.index_of(b));
  }

  auto count_over_edges = [&mesh]() {
    std::size_t over = 0;
    for (const Edge& oe : mesh.edges()) {
      if (mesh.edge_triangle_apexes(oe.first, oe.second).size() > 2) ++over;
    }
    return over;
  };
  std::set<Edge> shelved;
  std::size_t current_over = count_over_edges();
  bool changed = true;
  std::size_t guard = 16 * (mesh.num_edges() + 1);
  while (changed && current_over > 0 && guard-- > 0) {
    changed = false;
    for (const Edge& e : mesh.edges()) {
      if (shelved.count(e) != 0) continue;
      const auto apexes = mesh.edge_triangle_apexes(e.first, e.second);
      if (apexes.size() <= 2) continue;

      mesh.remove_edge(e.first, e.second);

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
              {apexes[i], apexes[j], hop_length(network, group_mask, nu, nv),
               mesh.position(apexes[i]).distance_to(mesh.position(apexes[j]))});
        }
      std::sort(cands.begin(), cands.end(), [](const Cand& x, const Cand& y) {
        if (x.hops != y.hops) return x.hops < y.hops;
        if (x.dist != y.dist) return x.dist < y.dist;
        return std::tie(x.u, x.v) < std::tie(y.u, y.v);
      });

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

      const std::size_t next_over = count_over_edges();
      if (next_over < current_over) {
        current_over = next_over;
        ++surface.flips;
        shelved.clear();
      } else {
        for (const Edge& ae : added) mesh.remove_edge(ae.first, ae.second);
        mesh.add_edge(e.first, e.second);
        shelved.insert(e);
        continue;
      }
      changed = true;
      break;
    }
  }

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

SurfaceResult build_surfaces(const net::Network& network,
                             const std::vector<bool>& boundary,
                             const core::BoundaryGroups& groups,
                             const MeshConfig& config) {
  SurfaceResult result;
  for (const auto& group : groups.groups) {
    if (group.size() < config.min_group_size) continue;
    net::NodeMask mask(network.num_nodes(), false);
    for (NodeId v : group) {
      EXPECT_TRUE(boundary[v]);
      mask[v] = true;
    }
    result.surfaces.push_back(
        build_one_surface(network, mask, group.front(), config));
  }
  return result;
}

}  // namespace reference

/// Field-by-field equality of two builds; accumulates the reference's flip
/// and Step IV counts so callers can check what the scenes exercised.
void expect_same_surfaces(const SurfaceResult& got, const SurfaceResult& want,
                          const std::string& where, std::size_t& flips,
                          std::size_t& added) {
  ASSERT_EQ(got.surfaces.size(), want.surfaces.size()) << where;
  for (std::size_t i = 0; i < want.surfaces.size(); ++i) {
    const BoundarySurface& g = got.surfaces[i];
    const BoundarySurface& w = want.surfaces[i];
    const std::string at = where + " surface " + std::to_string(i);
    EXPECT_EQ(g.group_leader, w.group_leader) << at;
    EXPECT_EQ(g.landmarks, w.landmarks) << at;
    EXPECT_EQ(g.voronoi_owner, w.voronoi_owner) << at;
    EXPECT_EQ(g.cdg_edges, w.cdg_edges) << at;
    EXPECT_EQ(g.cdm_edges, w.cdm_edges) << at;
    EXPECT_EQ(g.added_edges, w.added_edges) << at;
    EXPECT_EQ(g.flips, w.flips) << at;
    EXPECT_EQ(g.mesh.vertex_nodes(), w.mesh.vertex_nodes()) << at;
    EXPECT_EQ(g.mesh.edges(), w.mesh.edges()) << at;
    EXPECT_EQ(g.mesh.triangles(), w.mesh.triangles()) << at;
    flips += w.flips;
    added += w.added_edges;
  }
}

TEST(SurfaceBuilderEquivalence, MatchesReferenceOnPaperScenes) {
  std::vector<model::Scenario> scenes{model::fig1_network(0.6)};
  for (model::Scenario& sc : model::evaluation_scenarios(0.6))
    scenes.push_back(std::move(sc));
  std::size_t flips = 0;
  std::size_t added = 0;
  for (const model::Scenario& sc : scenes) {
    Rng rng(8);
    net::BuildOptions opt =
        net::options_for_target_degree(*sc.shape, 18.5, 0.5, rng);
    opt.interior_margin = 0.35 * opt.radio_range;
    const net::Network network = net::build_network(*sc.shape, opt, rng);
    core::PipelineConfig cfg;
    cfg.use_true_coordinates = true;
    const core::PipelineResult r = core::detect_boundaries(network, cfg);
    for (std::uint32_t k : {3u, 4u}) {
      MeshConfig mc;
      mc.landmark_spacing = k;
      const SurfaceResult want =
          reference::build_surfaces(network, r.boundary, r.groups, mc);
      // The Step I election runs its floods on `threads` workers; every
      // surface must come out the same at any count.
      for (unsigned threads : {1u, 4u}) {
        mc.threads = threads;
        expect_same_surfaces(build_surfaces(network, r.boundary, r.groups, mc),
                             want,
                             sc.name + " k=" + std::to_string(k) +
                                 " threads=" + std::to_string(threads),
                             flips, added);
      }
    }
  }
  // The scenes must exercise the Step V flip loop. (Step IV adds no edge on
  // them: every CDG pair passes the Step III witness. Its search is the
  // one `shortest_path` wraps, which the net tests hold to the old BFS.)
  EXPECT_GT(flips, 0u);
}

TEST(SurfaceBuilderEquivalence, MatchesReferenceOnNoisyFig1) {
  // Ranging noise fragments the boundary: many small groups, and meshes
  // that need the flip loop and the force pass.
  Rng rng(2);
  const model::Scenario sc = model::fig1_network(0.6);
  net::BuildOptions opt =
      net::options_for_target_degree(*sc.shape, 18.8, 0.5, rng);
  opt.interior_margin = 0.35 * opt.radio_range;
  const net::Network network = net::build_network(*sc.shape, opt, rng);
  core::PipelineConfig cfg;
  cfg.measurement_error = 0.2;
  cfg.noise_seed = 2;
  const core::PipelineResult r = core::detect_boundaries(network, cfg);
  std::size_t flips = 0;
  std::size_t added = 0;
  const SurfaceResult want =
      reference::build_surfaces(network, r.boundary, r.groups, MeshConfig{});
  for (unsigned threads : {1u, 4u}) {
    MeshConfig mc;
    mc.threads = threads;
    expect_same_surfaces(build_surfaces(network, r.boundary, r.groups, mc),
                         want, "noisy fig1 threads=" + std::to_string(threads),
                         flips, added);
  }
  EXPECT_GT(flips, 0u);
}

// Full surface construction on a sphere boundary. The expected outcome is
// a closed (or very nearly closed) triangular mesh around the sphere.
class SphereSurface : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(10);
    const model::SphereShape shape({0, 0, 0}, 4.0);
    net::BuildOptions opt;
    opt.surface_count = 900;
    opt.interior_count = 1400;
    net_ = std::make_unique<net::Network>(
        net::build_network(shape, opt, rng));

    core::PipelineConfig cfg;
    cfg.use_true_coordinates = true;
    result_ = std::make_unique<core::PipelineResult>(
        core::detect_boundaries(*net_, cfg));
  }

  std::unique_ptr<net::Network> net_;
  std::unique_ptr<core::PipelineResult> result_;
};

TEST_F(SphereSurface, BuildsOneSubstantialSurface) {
  const SurfaceResult surfaces =
      build_surfaces(*net_, result_->boundary, result_->groups);
  ASSERT_GE(surfaces.surfaces.size(), 1u);
  const BoundarySurface& s = surfaces.surfaces[0];
  EXPECT_GT(s.landmarks.size(), 10u);
  EXPECT_GT(s.mesh.num_edges(), s.landmarks.size());  // E > V on a closed surf
  EXPECT_GT(s.cdg_edges, 0u);
  EXPECT_GT(s.cdm_edges, 0u);
}

TEST_F(SphereSurface, MeshIsMostlyTwoManifold) {
  const SurfaceResult surfaces =
      build_surfaces(*net_, result_->boundary, result_->groups);
  const BoundarySurface& s = surfaces.surfaces[0];
  const auto rep = s.mesh.manifold_report();
  ASSERT_GT(rep.num_edges, 0u);
  // Step V guarantees no edge keeps more than two faces.
  EXPECT_EQ(rep.edges_over, 0u);
  // The clear majority of edges bound exactly two triangles. (A fully
  // closed mesh would be 100%; landmark meshes on noisy boundary sets
  // retain some under-saturated seam edges.)
  EXPECT_GT(static_cast<double>(rep.edges_two_faces) /
                static_cast<double>(rep.num_edges),
            0.6);
}

TEST_F(SphereSurface, VerticesLieOnTrueSurface) {
  const SurfaceResult surfaces =
      build_surfaces(*net_, result_->boundary, result_->groups);
  const model::SphereShape shape({0, 0, 0}, 4.0);
  const auto quality = evaluate_surface(surfaces.surfaces[0], shape);
  EXPECT_LT(quality.vertex_deviation_mean, 0.15);
  EXPECT_LT(quality.centroid_deviation_mean, 0.8);
}

TEST_F(SphereSurface, VoronoiOwnersCoverGroup) {
  const SurfaceResult surfaces =
      build_surfaces(*net_, result_->boundary, result_->groups);
  const BoundarySurface& s = surfaces.surfaces[0];
  // Each group node has an owner; owners are landmarks.
  std::set<NodeId> lm_set(s.landmarks.begin(), s.landmarks.end());
  for (NodeId v : result_->groups.groups[0]) {
    ASSERT_NE(s.voronoi_owner[v], net::kInvalidNode);
    EXPECT_TRUE(lm_set.count(s.voronoi_owner[v]) == 1);
  }
}

TEST_F(SphereSurface, LandmarkSpacingKnobChangesResolution) {
  MeshConfig fine;
  fine.landmark_spacing = 3;
  MeshConfig coarse;
  coarse.landmark_spacing = 5;
  const auto f = build_surfaces(*net_, result_->boundary, result_->groups, fine);
  const auto c =
      build_surfaces(*net_, result_->boundary, result_->groups, coarse);
  ASSERT_FALSE(f.surfaces.empty());
  ASSERT_FALSE(c.surfaces.empty());
  EXPECT_GT(f.surfaces[0].landmarks.size(), c.surfaces[0].landmarks.size());
}

TEST_F(SphereSurface, ObjExportWellFormed) {
  const SurfaceResult surfaces =
      build_surfaces(*net_, result_->boundary, result_->groups);
  const std::string obj = to_obj(surfaces);
  // Counts of v/f lines match the mesh.
  std::size_t v_lines = 0, f_lines = 0;
  std::istringstream in(obj);
  std::string line;
  std::size_t want_v = 0, want_f = 0;
  for (const auto& s : surfaces.surfaces) {
    want_v += s.mesh.num_vertices();
    want_f += s.mesh.triangles().size();
  }
  while (std::getline(in, line)) {
    if (line.rfind("v ", 0) == 0) ++v_lines;
    if (line.rfind("f ", 0) == 0) ++f_lines;
  }
  EXPECT_EQ(v_lines, want_v);
  EXPECT_EQ(f_lines, want_f);
}

TEST_F(SphereSurface, ObjExportQualityHeader) {
  const SurfaceResult surfaces =
      build_surfaces(*net_, result_->boundary, result_->groups);
  ASSERT_FALSE(surfaces.surfaces.empty());
  const std::vector<core::BoundaryQuality> quality =
      core::score_boundaries(result_->groups, /*theta=*/20);
  const std::string obj = to_obj(surfaces, quality);

  // One "# quality" comment line per surface, before any geometry, carrying
  // the mesh closedness and the matched core score.
  std::istringstream in(obj);
  std::string line;
  std::size_t quality_lines = 0;
  bool geometry_seen = false;
  while (std::getline(in, line)) {
    if (line.rfind("v ", 0) == 0 || line.rfind("o ", 0) == 0)
      geometry_seen = true;
    if (line.rfind("# quality boundary_", 0) == 0) {
      EXPECT_FALSE(geometry_seen) << "quality must stay in the header";
      EXPECT_NE(line.find("closed="), std::string::npos) << line;
      EXPECT_NE(line.find("score="), std::string::npos) << line;
      EXPECT_NE(line.find("size="), std::string::npos) << line;
      ++quality_lines;
    }
  }
  EXPECT_EQ(quality_lines, surfaces.surfaces.size());

  // An empty quality vector still annotates closedness, nothing else.
  const std::string bare = to_obj(surfaces, {});
  EXPECT_NE(bare.find("# quality boundary_0"), std::string::npos);
  EXPECT_NE(bare.find("closed="), std::string::npos);
  EXPECT_EQ(bare.find("score="), std::string::npos);
}

}  // namespace
}  // namespace ballfit::mesh
