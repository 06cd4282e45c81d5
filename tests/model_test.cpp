// Tests for src/model: SDF correctness of every primitive, CSG laws,
// Newton surface projection, the volume/surface samplers, and the scenario
// zoo. Includes parameterized sweeps over all zoo scenarios.

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cmath>
#include <memory>
#include <numbers>
#include <ostream>

#include "common/rng.hpp"
#include "model/csg.hpp"
#include "model/sampler.hpp"
#include "model/shapes.hpp"
#include "model/zoo.hpp"

namespace ballfit::model {

// gtest prints a parameter into its test's listed name. Print a scenario by
// its hole count (the test name already carries the scenario); the default
// byte dump would carry heap addresses, so the name would change between
// builds.
void PrintTo(const Scenario& sc, std::ostream* os) {
  *os << "inner_holes=" << sc.num_inner_holes;
}

namespace {

using geom::Vec3;

TEST(SphereShape, SignedDistanceExact) {
  const SphereShape s({1, 2, 3}, 2.0);
  EXPECT_DOUBLE_EQ(s.signed_distance({1, 2, 3}), -2.0);
  EXPECT_DOUBLE_EQ(s.signed_distance({3, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(s.signed_distance({5, 2, 3}), 2.0);
  EXPECT_TRUE(s.contains({1, 2, 4.9}));
  EXPECT_FALSE(s.contains({1, 2, 5.1}));
}

TEST(BoxShape, SignedDistanceFaces) {
  const BoxShape b({0, 0, 0}, {2, 2, 2});
  EXPECT_DOUBLE_EQ(b.signed_distance({1, 1, 1}), -1.0);   // center
  EXPECT_DOUBLE_EQ(b.signed_distance({1, 1, 2}), 0.0);    // face
  EXPECT_DOUBLE_EQ(b.signed_distance({1, 1, 3}), 1.0);    // above face
  // Outside a corner: Euclidean distance to the corner.
  EXPECT_NEAR(b.signed_distance({3, 3, 3}), std::sqrt(3.0), 1e-12);
}

TEST(CylinderShape, SignedDistanceAxisAndCaps) {
  const CylinderShape c({0, 0, 0}, 1.0, 4.0);
  EXPECT_DOUBLE_EQ(c.signed_distance({0, 0, 2}), -1.0);   // on axis, middle
  EXPECT_DOUBLE_EQ(c.signed_distance({1, 0, 2}), 0.0);    // lateral surface
  EXPECT_DOUBLE_EQ(c.signed_distance({0, 0, 5}), 1.0);    // above top cap
  EXPECT_DOUBLE_EQ(c.signed_distance({2, 0, 2}), 1.0);    // radially out
}

TEST(TorusShape, SignedDistanceRing) {
  const TorusShape t({0, 0, 0}, 3.0, 1.0);
  EXPECT_DOUBLE_EQ(t.signed_distance({3, 0, 0}), -1.0);  // tube center
  EXPECT_DOUBLE_EQ(t.signed_distance({4, 0, 0}), 0.0);   // outer equator
  EXPECT_DOUBLE_EQ(t.signed_distance({2, 0, 0}), 0.0);   // inner equator
  EXPECT_DOUBLE_EQ(t.signed_distance({0, 0, 0}), 2.0);   // hole center
}

TEST(BentPipeShape, SpineMidpointInside) {
  const BentPipeShape p({0, 0, 0}, 5.0, 1.0, 180.0);
  // Arc is centered on +x: the point (5, 0, 0) is on the spine.
  EXPECT_DOUBLE_EQ(p.signed_distance({5, 0, 0}), -1.0);
  EXPECT_DOUBLE_EQ(p.signed_distance({6, 0, 0}), 0.0);
  // Center of the arc circle is far from the tube.
  EXPECT_GT(p.signed_distance({0, 0, 0}), 3.0);
}

TEST(BentPipeShape, ArcEndsAreCapped) {
  // 90° arc spans ±45°; a point on the arc circle at 90° is outside.
  const BentPipeShape p({0, 0, 0}, 5.0, 1.0, 90.0);
  EXPECT_LT(p.signed_distance({5, 0, 0}), 0.0);
  EXPECT_GT(p.signed_distance({0, 5, 0}), 1.0);
}

TEST(TerrainShape, ColumnInsideOutside) {
  const TerrainShape t(10, 10, 0.0, 5.0, {}, 0.0);
  EXPECT_LT(t.signed_distance({5, 5, 2.5}), 0.0);   // mid water column
  EXPECT_GT(t.signed_distance({5, 5, 6.0}), 0.0);   // above surface
  EXPECT_GT(t.signed_distance({5, 5, -1.0}), 0.0);  // below seabed
  EXPECT_GT(t.signed_distance({-1, 5, 2.5}), 0.0);  // outside x range
}

TEST(TerrainShape, BumpsRaiseSeabed) {
  const TerrainShape flat(10, 10, 0.0, 5.0, {}, 0.0);
  const TerrainShape bumpy(10, 10, 0.0, 5.0,
                           {{{5.0, 5.0, 0.0}, 3.0, 1.5}}, 0.0);
  EXPECT_NEAR(bumpy.bottom_height(5, 5), 3.0, 1e-9);
  // A point above the flat seabed but inside the bump is outside the water.
  EXPECT_LT(flat.signed_distance({5, 5, 1.0}), 0.0);
  EXPECT_GT(bumpy.signed_distance({5, 5, 1.0}), 0.0);
}

TEST(TerrainShape, RejectsBumpAboveSurface) {
  EXPECT_THROW(TerrainShape(10, 10, 0.0, 2.0, {{{5.0, 5.0, 0.0}, 5.0, 2.0}}),
               InvalidArgument);
}

TEST(Csg, UnionIsMin) {
  auto a = std::make_shared<SphereShape>(Vec3{0, 0, 0}, 1.0);
  auto b = std::make_shared<SphereShape>(Vec3{3, 0, 0}, 1.0);
  const UnionShape u({a, b});
  EXPECT_LT(u.signed_distance({0, 0, 0}), 0.0);
  EXPECT_LT(u.signed_distance({3, 0, 0}), 0.0);
  EXPECT_GT(u.signed_distance({1.5, 0, 0}), 0.0);
  const auto bounds = u.bounds();
  EXPECT_TRUE(bounds.contains({-0.9, 0, 0}));
  EXPECT_TRUE(bounds.contains({3.9, 0, 0}));
}

TEST(Csg, IntersectionIsMax) {
  auto a = std::make_shared<SphereShape>(Vec3{0, 0, 0}, 1.0);
  auto b = std::make_shared<SphereShape>(Vec3{1, 0, 0}, 1.0);
  const IntersectionShape isect({a, b});
  EXPECT_LT(isect.signed_distance({0.5, 0, 0}), 0.0);
  EXPECT_GT(isect.signed_distance({-0.5, 0, 0}), 0.0);
  EXPECT_GT(isect.signed_distance({1.5, 0, 0}), 0.0);
}

TEST(Csg, DifferenceCarvesHole) {
  auto base = std::make_shared<BoxShape>(Vec3{0, 0, 0}, Vec3{4, 4, 4});
  auto hole = std::make_shared<SphereShape>(Vec3{2, 2, 2}, 1.0);
  const DifferenceShape diff(base, {hole});
  EXPECT_GT(diff.signed_distance({2, 2, 2}), 0.0);   // inside the hole
  EXPECT_LT(diff.signed_distance({0.5, 0.5, 0.5}), 0.0);
  EXPECT_GT(diff.signed_distance({5, 5, 5}), 0.0);
  // The hole surface is a zero level set of the difference.
  EXPECT_NEAR(diff.signed_distance({2, 2, 3}), 0.0, 1e-12);
}

TEST(Csg, TranslatedShapeShifts) {
  auto s = std::make_shared<SphereShape>(Vec3{0, 0, 0}, 1.0);
  const TranslatedShape t(s, {10, 0, 0});
  EXPECT_LT(t.signed_distance({10, 0, 0}), 0.0);
  EXPECT_GT(t.signed_distance({0, 0, 0}), 0.0);
  EXPECT_TRUE(t.bounds().contains({10.9, 0, 0}));
}

TEST(Shape, GradientPointsOutward) {
  const SphereShape s({0, 0, 0}, 2.0);
  const Vec3 g = s.gradient({1.5, 0, 0});
  EXPECT_GT(g.x, 0.9);
  EXPECT_NEAR(g.y, 0.0, 1e-6);
}

TEST(Shape, ProjectToSurfaceConverges) {
  const SphereShape s({0, 0, 0}, 2.0);
  double residual = 1.0;
  const Vec3 q = s.project_to_surface({0.3, 0.4, 0.5}, 40, 1e-10, &residual);
  EXPECT_LT(residual, 1e-10);
  EXPECT_NEAR(q.norm(), 2.0, 1e-9);
}

TEST(Sampler, VolumeSamplesInside) {
  Rng rng(60);
  const SphereShape s({0, 0, 0}, 2.0);
  const auto pts = sample_volume(s, 500, rng);
  ASSERT_EQ(pts.size(), 500u);
  for (const Vec3& p : pts) EXPECT_LE(p.norm(), 2.0);
}

TEST(Sampler, VolumeMarginRespected) {
  Rng rng(61);
  const SphereShape s({0, 0, 0}, 2.0);
  const auto pts = sample_volume(s, 300, rng, 0.5);
  for (const Vec3& p : pts) EXPECT_LE(p.norm(), 1.5 + 1e-9);
}

TEST(Sampler, SurfaceSamplesOnSurface) {
  Rng rng(62);
  const SphereShape s({1, 1, 1}, 2.0);
  const auto pts = sample_surface(s, 400, rng);
  ASSERT_EQ(pts.size(), 400u);
  for (const Vec3& p : pts) EXPECT_NEAR(p.distance_to({1, 1, 1}), 2.0, 1e-6);
}

TEST(Sampler, SurfaceSamplingCoversSphereUniformly) {
  // Octant counts of surface samples should be roughly equal.
  Rng rng(63);
  const SphereShape s({0, 0, 0}, 2.0);
  const auto pts = sample_surface(s, 4000, rng);
  std::array<int, 8> oct{};
  for (const Vec3& p : pts) {
    const int idx = (p.x > 0) + 2 * (p.y > 0) + 4 * (p.z > 0);
    ++oct[idx];
  }
  for (int c : oct) EXPECT_NEAR(c, 500, 150);
}

TEST(Sampler, DifferenceSurfaceIncludesHoleBoundary) {
  Rng rng(64);
  auto base = std::make_shared<BoxShape>(Vec3{0, 0, 0}, Vec3{6, 6, 6});
  auto hole = std::make_shared<SphereShape>(Vec3{3, 3, 3}, 1.5);
  const DifferenceShape diff(base, {hole});
  const auto pts = sample_surface(diff, 2000, rng);
  int on_hole = 0;
  for (const Vec3& p : pts) {
    if (std::fabs(p.distance_to({3, 3, 3}) - 1.5) < 1e-5) ++on_hole;
  }
  // Hole area = 4π·1.5² ≈ 28.3, box area = 216; expect a meaningful share.
  EXPECT_GT(on_hole, 100);
}

TEST(Sampler, VolumeEstimateSphere) {
  Rng rng(65);
  const SphereShape s({0, 0, 0}, 2.0);
  const double v = estimate_volume(s, rng, 200000);
  EXPECT_NEAR(v, 4.0 / 3.0 * std::numbers::pi * 8.0, 0.7);
}

TEST(Sampler, AreaEstimateSphere) {
  Rng rng(66);
  const SphereShape s({0, 0, 0}, 2.0);
  const double a = estimate_area(s, rng, 0.02, 400000);
  EXPECT_NEAR(a, 4.0 * std::numbers::pi * 4.0, 3.0);
}

class ZooScenarios : public ::testing::TestWithParam<Scenario> {};

TEST_P(ZooScenarios, ShapeIsSaneAndSampleable) {
  const Scenario sc = GetParam();
  ASSERT_NE(sc.shape, nullptr);
  const auto bounds = sc.shape->bounds();
  EXPECT_FALSE(bounds.empty());

  Rng rng(77);
  const auto vol = sample_volume(*sc.shape, 200, rng);
  for (const Vec3& p : vol) {
    EXPECT_LE(sc.shape->signed_distance(p), 0.0);
    EXPECT_TRUE(bounds.contains(p));
  }
  const auto surf = sample_surface(*sc.shape, 200, rng);
  for (const Vec3& p : surf) {
    EXPECT_NEAR(sc.shape->signed_distance(p), 0.0, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, ZooScenarios,
    ::testing::Values(fig1_network(), underwater(), space_one_hole(),
                      space_two_holes(), bent_pipe(), sphere_world()),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      std::string name = info.param.name;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(Zoo, EvaluationScenariosCount) {
  EXPECT_EQ(evaluation_scenarios().size(), 5u);
}

TEST(Zoo, HoleCountsMatchConstruction) {
  EXPECT_EQ(fig1_network().num_inner_holes, 1);
  EXPECT_EQ(space_one_hole().num_inner_holes, 1);
  EXPECT_EQ(space_two_holes().num_inner_holes, 2);
  EXPECT_EQ(underwater().num_inner_holes, 0);
  EXPECT_EQ(bent_pipe().num_inner_holes, 0);
  EXPECT_EQ(sphere_world().num_inner_holes, 0);
}

}  // namespace
}  // namespace ballfit::model
