// Tests for the surface-construction details added during hardening:
// the paper's Fig. 5 edge-flip transformation, the hill-climbing flip
// schedule's invariant (no edge keeps more than two faces), CDM/step-IV
// bookkeeping, and surface metrics.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "mesh/metrics.hpp"
#include "mesh/surface_builder.hpp"
#include "mesh/trimesh.hpp"
#include "model/shapes.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"

namespace ballfit::mesh {
namespace {

using geom::Vec3;
using net::NodeId;

TEST(EdgeFlip, Fig5TransformationShape) {
  // Paper Fig. 5(a): edge AB with three faces via apexes C, D, E. After
  // the flip AB is gone, the apexes are chained by the two shortest links,
  // and no edge carries three faces. We verify the invariant on TriMesh
  // directly (the builder applies it to landmark graphs).
  TriMesh m({0, 1, 2, 3, 4},
            {{0, 0, 0},      // A
             {1, 0, 0},      // B
             {0.5, 1, 0},    // C
             {0.5, -1, 0},   // D
             {0.5, 0, 1}});  // E
  m.add_edge(0, 1);
  for (std::uint32_t apex : {2u, 3u, 4u}) {
    m.add_edge(0, apex);
    m.add_edge(1, apex);
  }
  ASSERT_EQ(m.edge_triangle_apexes(0, 1).size(), 3u);
  // Simulate the paper's flip by hand: remove AB, add the two shortest
  // apex links (C-E and D-E; C-D is the long one: |CD| = 2).
  m.remove_edge(0, 1);
  m.add_edge(2, 4);
  m.add_edge(3, 4);
  const auto rep = m.manifold_report();
  EXPECT_EQ(rep.edges_over, 0u);
  // The four triangles ACE, BCE, ADE, BDE now cover the region.
  EXPECT_EQ(rep.num_triangles, 4u);
}

TEST(SurfaceBuilder, NoOverSaturatedEdgesEver) {
  // The step-V guarantee must hold for every scenario surface, noisy or
  // not — the force pass backs up the hill-climbing flips.
  Rng rng(3);
  const model::Scenario sc = model::sphere_world(0.7);
  net::BuildOptions opt;
  opt.surface_count = 500;
  opt.interior_count = 600;
  opt.interior_margin = 0.35;
  const net::Network net = net::build_network(*sc.shape, opt, rng);

  for (double error : {0.0, 0.3}) {
    core::PipelineConfig cfg;
    cfg.measurement_error = error;
    const core::PipelineResult r = core::detect_boundaries(net, cfg);
    const SurfaceResult surfaces = build_surfaces(net, r.boundary, r.groups);
    for (const auto& s : surfaces.surfaces) {
      for (const Edge& e : s.mesh.edges()) {
        EXPECT_LE(s.mesh.edge_triangle_apexes(e.first, e.second).size(), 2u)
            << "error " << error;
      }
    }
  }
}

TEST(SurfaceBuilder, DiagnosticsAreConsistent) {
  Rng rng(4);
  const model::Scenario sc = model::sphere_world(0.7);
  net::BuildOptions opt;
  opt.surface_count = 500;
  opt.interior_count = 600;
  opt.interior_margin = 0.35;
  const net::Network net = net::build_network(*sc.shape, opt, rng);
  core::PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  const core::PipelineResult r = core::detect_boundaries(net, cfg);
  const SurfaceResult surfaces = build_surfaces(net, r.boundary, r.groups);
  ASSERT_FALSE(surfaces.surfaces.empty());
  for (const auto& s : surfaces.surfaces) {
    // CDM is a subgraph of CDG; step IV adds from the CDG remainder.
    EXPECT_LE(s.cdm_edges, s.cdg_edges);
    EXPECT_LE(s.added_edges, s.cdg_edges - s.cdm_edges);
    // Landmark list matches the mesh vertex set.
    EXPECT_EQ(s.landmarks.size(), s.mesh.num_vertices());
    for (NodeId lm : s.landmarks)
      EXPECT_NE(s.mesh.index_of(lm), TriMesh::kInvalidIndex);
  }
}

TEST(SurfaceBuilder, MinGroupSizeSkipsDebris) {
  // A tiny boundary fragment below min_group_size produces no surface.
  Rng rng(5);
  std::vector<Vec3> pos;
  for (int i = 0; i < 3; ++i)
    pos.push_back(geom::Vec3{i * 0.4, 0.0, 0.0});
  const net::Network net(pos, std::vector<bool>(3, true), 1.0);
  std::vector<bool> boundary(3, true);
  const core::BoundaryGroups groups =
      core::group_boundaries(net, boundary, false);
  MeshConfig cfg;
  cfg.min_group_size = 4;
  const SurfaceResult surfaces = build_surfaces(net, boundary, groups, cfg);
  EXPECT_TRUE(surfaces.surfaces.empty());
}

TEST(Metrics, PerfectSphereMeshScoresWell) {
  // An octahedron inscribed in the unit sphere: vertices on the surface,
  // centroids slightly inside.
  TriMesh m({0, 1, 2, 3, 4, 5},
            {{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1},
             {0, 0, -1}});
  const std::uint32_t px = 0, nx = 1, py = 2, ny = 3, pz = 4, nz = 5;
  for (std::uint32_t e1 : {px, nx})
    for (std::uint32_t e2 : {py, ny}) m.add_edge(e1, e2);
  for (std::uint32_t pole : {pz, nz})
    for (std::uint32_t eq : {px, nx, py, ny}) m.add_edge(pole, eq);

  BoundarySurface surface;
  surface.mesh = std::move(m);
  const model::SphereShape sphere({0, 0, 0}, 1.0);
  const SurfaceQuality q = evaluate_surface(surface, sphere);
  EXPECT_EQ(q.num_landmarks, 6u);
  EXPECT_EQ(q.num_triangles, 8u);
  EXPECT_NEAR(q.vertex_deviation_mean, 0.0, 1e-12);
  EXPECT_GT(q.centroid_deviation_mean, 0.3);  // flat faces cut inside
  EXPECT_DOUBLE_EQ(q.two_face_edge_share, 1.0);
  EXPECT_TRUE(q.manifold.closed_manifold);
}

TEST(LandmarkSpacing, InvalidConfigRejected) {
  Rng rng(6);
  const model::SphereShape shape({0, 0, 0}, 2.0);
  net::BuildOptions opt;
  opt.surface_count = 100;
  opt.interior_count = 150;
  const net::Network net = net::build_network(shape, opt, rng);
  std::vector<bool> boundary(net.num_nodes(), true);
  const core::BoundaryGroups groups =
      core::group_boundaries(net, boundary, false);
  MeshConfig cfg;
  cfg.landmark_spacing = 0;
  EXPECT_THROW(build_surfaces(net, boundary, groups, cfg), InvalidArgument);
}

TEST(SurfaceBuilder, OutOfRangeGroupMemberRejected) {
  Rng rng(6);
  const model::SphereShape shape({0, 0, 0}, 2.0);
  net::BuildOptions opt;
  opt.surface_count = 100;
  opt.interior_count = 150;
  const net::Network net = net::build_network(shape, opt, rng);
  std::vector<bool> boundary(net.num_nodes(), true);
  core::BoundaryGroups groups = core::group_boundaries(net, boundary, false);
  ASSERT_FALSE(groups.groups.empty());
  // A stale or foreign id, even in a group too small to be meshed, is
  // rejected before any group is processed.
  groups.groups.push_back({static_cast<NodeId>(net.num_nodes())});
  EXPECT_THROW(build_surfaces(net, boundary, groups), InvalidArgument);
  groups.groups.back() = {static_cast<NodeId>(net.num_nodes() + 1000), 0, 1,
                          2, 3};
  EXPECT_THROW(build_surfaces(net, boundary, groups), InvalidArgument);
  // An empty group is no error; it just carries no surface.
  groups.groups.back().clear();
  MeshConfig keep_all;
  keep_all.min_group_size = 0;
  EXPECT_EQ(build_surfaces(net, boundary, groups, keep_all).surfaces.size(),
            groups.groups.size() - 1);
}

}  // namespace
}  // namespace ballfit::mesh
