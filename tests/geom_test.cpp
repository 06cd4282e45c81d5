// Tests for src/geom: Vec3 algebra, AABB, the trisphere solver (Eq. 1),
// spatial grid queries, and sampling distributions. Includes property-style
// randomized sweeps over the trisphere invariants.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "geom/aabb.hpp"
#include "geom/candidate_cache.hpp"
#include "geom/grid.hpp"
#include "geom/sampling.hpp"
#include "geom/trisphere.hpp"
#include "geom/vec3.hpp"

namespace ballfit::geom {
namespace {

TEST(Vec3, BasicAlgebra) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(a * 2.0, (Vec3{2, 4, 6}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, (Vec3{-1, -2, -3}));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
}

TEST(Vec3, CrossProductOrthogonality) {
  const Vec3 a{1, 2, 3}, b{-2, 0.5, 4};
  const Vec3 c = a.cross(b);
  EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
  EXPECT_EQ(Vec3(1, 0, 0).cross(Vec3(0, 1, 0)), (Vec3{0, 0, 1}));
}

TEST(Vec3, NormAndNormalize) {
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm(), 5.0);
  const Vec3 u = Vec3(3, 4, 0).normalized();
  EXPECT_NEAR(u.norm(), 1.0, 1e-15);
  EXPECT_EQ(Vec3{}.normalized(), (Vec3{}));  // zero-vector guard
}

TEST(Vec3, DistanceAndLerp) {
  EXPECT_DOUBLE_EQ(Vec3(0, 0, 0).distance_to({0, 0, 7}), 7.0);
  EXPECT_EQ(lerp({0, 0, 0}, {2, 4, 6}, 0.5), (Vec3{1, 2, 3}));
  EXPECT_EQ(lerp({1, 1, 1}, {2, 2, 2}, 0.0), (Vec3{1, 1, 1}));
}

TEST(Aabb, ExpandAndContains) {
  Aabb box;
  EXPECT_TRUE(box.empty());
  box.expand({1, 2, 3});
  box.expand({-1, 0, 5});
  EXPECT_FALSE(box.empty());
  EXPECT_TRUE(box.contains({0, 1, 4}));
  EXPECT_FALSE(box.contains({2, 1, 4}));
  EXPECT_EQ(box.center(), (Vec3{0, 1, 4}));
}

TEST(Aabb, VolumeAndInflate) {
  const Aabb box{{0, 0, 0}, {2, 3, 4}};
  EXPECT_DOUBLE_EQ(box.volume(), 24.0);
  const Aabb big = box.inflated(1.0);
  EXPECT_DOUBLE_EQ(big.volume(), 4.0 * 5.0 * 6.0);
}

// --- Trisphere (Eq. 1) ----------------------------------------------------

void expect_on_sphere(const Vec3& center, const Vec3& p, double r) {
  EXPECT_NEAR(center.distance_to(p), r, 1e-9);
}

TEST(Trisphere, EquilateralTriangleTwoCenters) {
  // Equilateral triangle with circumradius well below r.
  const Vec3 a{0, 0, 0}, b{1, 0, 0}, d{0.5, std::sqrt(3.0) / 2.0, 0};
  const auto res = solve_trisphere(a, b, d, 1.0);
  ASSERT_EQ(res.count, 2);
  EXPECT_EQ(res.status, TrisphereResult::Status::kTwoCenters);
  for (int c = 0; c < 2; ++c) {
    expect_on_sphere(res.centers[c], a, 1.0);
    expect_on_sphere(res.centers[c], b, 1.0);
    expect_on_sphere(res.centers[c], d, 1.0);
  }
  // The two centers are mirror images across the triangle plane (z = 0).
  EXPECT_NEAR(res.centers[0].z, -res.centers[1].z, 1e-9);
  EXPECT_GT(std::fabs(res.centers[0].z), 0.1);
}

TEST(Trisphere, TooSpreadNoSolution) {
  // Circumradius > r: three far-apart collinear-ish points.
  const Vec3 a{0, 0, 0}, b{2.2, 0, 0}, d{1.1, 1.9, 0};
  const auto res = solve_trisphere(a, b, d, 1.0);
  EXPECT_EQ(res.count, 0);
  EXPECT_EQ(res.status, TrisphereResult::Status::kTooSpread);
}

TEST(Trisphere, CollinearRejected) {
  const Vec3 a{0, 0, 0}, b{0.5, 0, 0}, d{0.9, 0, 0};
  const auto res = solve_trisphere(a, b, d, 1.0);
  EXPECT_EQ(res.count, 0);
  EXPECT_EQ(res.status, TrisphereResult::Status::kCollinear);
}

TEST(Trisphere, TangentCaseSingleCenter) {
  // Equilateral triangle whose circumradius equals r exactly: points on a
  // great circle of the ball.
  const double r = 1.0;
  const double side = r * std::sqrt(3.0);  // circumradius == r
  const Vec3 a{0, 0, 0}, b{side, 0, 0},
      d{side / 2.0, side * std::sqrt(3.0) / 2.0, 0};
  const auto res = solve_trisphere(a, b, d, r, 1e-9);
  ASSERT_EQ(res.count, 1);
  EXPECT_EQ(res.status, TrisphereResult::Status::kOneCenter);
  expect_on_sphere(res.centers[0], a, r);
}

TEST(Trisphere, CircumcircleOfRightTriangle) {
  // Circumcenter of a right triangle is the hypotenuse midpoint.
  Vec3 cc, n;
  double R = 0.0;
  ASSERT_TRUE(triangle_circumcircle({0, 0, 0}, {2, 0, 0}, {0, 2, 0}, cc, R, n));
  EXPECT_NEAR(cc.x, 1.0, 1e-12);
  EXPECT_NEAR(cc.y, 1.0, 1e-12);
  EXPECT_NEAR(R, std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::fabs(n.z), 1.0, 1e-12);
}

TEST(Trisphere, InvariantToRigidMotion) {
  // Property: solution count is invariant under translation + rotation.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec3 a = sample_in_ball(rng, {0, 0, 0}, 0.8);
    const Vec3 b = sample_in_ball(rng, {0, 0, 0}, 0.8);
    const Vec3 d = sample_in_ball(rng, {0, 0, 0}, 0.8);
    const auto base = solve_trisphere(a, b, d, 1.0);

    // Random rotation from two unit vectors (Gram-Schmidt frame).
    const Vec3 u = sample_on_unit_sphere(rng);
    Vec3 w = sample_on_unit_sphere(rng);
    w = (w - u * w.dot(u)).normalized();
    if (w.norm() < 0.5) continue;  // degenerate draw
    const Vec3 v = u.cross(w);
    const Vec3 t{3.0, -1.0, 2.0};
    auto rot = [&](const Vec3& p) {
      return Vec3{p.dot(u), p.dot(w), p.dot(v)} + t;
    };
    const auto moved = solve_trisphere(rot(a), rot(b), rot(d), 1.0);
    EXPECT_EQ(base.count, moved.count);
  }
}

TEST(Trisphere, RandomizedCentersLieOnAllThreeSpheres) {
  // Property: every returned center is at distance exactly r from each of
  // the three defining points.
  Rng rng(7);
  int with_solutions = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const Vec3 a = sample_in_ball(rng, {0, 0, 0}, 1.0);
    const Vec3 b = sample_in_ball(rng, {0, 0, 0}, 1.0);
    const Vec3 d = sample_in_ball(rng, {0, 0, 0}, 1.0);
    const auto res = solve_trisphere(a, b, d, 1.0);
    for (int c = 0; c < res.count; ++c) {
      expect_on_sphere(res.centers[c], a, 1.0);
      expect_on_sphere(res.centers[c], b, 1.0);
      expect_on_sphere(res.centers[c], d, 1.0);
    }
    if (res.count > 0) ++with_solutions;
  }
  EXPECT_GT(with_solutions, 100);  // the generic case is solvable
}

// --- SpatialGrid ------------------------------------------------------------

TEST(SpatialGrid, RadiusQueryMatchesBruteForce) {
  Rng rng(21);
  std::vector<Vec3> pts;
  for (int i = 0; i < 500; ++i)
    pts.push_back(sample_in_box(rng, {{0, 0, 0}, {10, 10, 10}}));
  const SpatialGrid grid(pts, 1.0);

  for (int q = 0; q < 50; ++q) {
    const Vec3 query = sample_in_box(rng, {{0, 0, 0}, {10, 10, 10}});
    const double radius = rng.uniform(0.1, 3.0);
    std::vector<std::uint32_t> got;
    grid.for_each_in_ball(query, radius, [&](std::uint32_t i) {
      got.push_back(i);
      return true;
    });
    std::sort(got.begin(), got.end());
    std::vector<std::uint32_t> want;
    for (std::uint32_t i = 0; i < pts.size(); ++i)
      if (pts[i].distance_to(query) <= radius) want.push_back(i);
    EXPECT_EQ(got, want);
  }
}

TEST(SpatialGrid, ForEachInBallVisitsExactlyTheBall) {
  Rng rng(23);
  std::vector<Vec3> pts;
  for (int i = 0; i < 400; ++i)
    pts.push_back(sample_in_box(rng, {{0, 0, 0}, {8, 8, 8}}));
  const SpatialGrid grid(pts, 1.0);
  for (int q = 0; q < 40; ++q) {
    const Vec3 query = sample_in_box(rng, {{0, 0, 0}, {8, 8, 8}});
    const double radius = rng.uniform(0.2, 2.5);
    std::vector<std::uint32_t> got;
    const bool completed = grid.for_each_in_ball(query, radius,
                                                 [&](std::uint32_t i) {
                                                   got.push_back(i);
                                                   return true;
                                                 });
    EXPECT_TRUE(completed);
    std::sort(got.begin(), got.end());
    std::vector<std::uint32_t> want;
    for (std::uint32_t i = 0; i < pts.size(); ++i)
      if (pts[i].distance_to(query) <= radius) want.push_back(i);
    EXPECT_EQ(got, want);
  }
}

TEST(SpatialGrid, ForEachInBallStopsWhenVisitorReturnsFalse) {
  Rng rng(24);
  std::vector<Vec3> pts;
  for (int i = 0; i < 200; ++i)
    pts.push_back(sample_in_ball(rng, {0, 0, 0}, 1.0));
  const SpatialGrid grid(pts, 0.5);
  int visits = 0;
  const bool completed = grid.for_each_in_ball({0, 0, 0}, 2.0,
                                               [&](std::uint32_t) {
                                                 ++visits;
                                                 return false;  // stop now
                                               });
  EXPECT_FALSE(completed);
  EXPECT_EQ(visits, 1);
}

TEST(SpatialGrid, WidenedCellsStayExact) {
  // Point sets whose box at the requested edge would need more cells than
  // the budget allows: far-apart clusters, a 2·10⁶-unit span off the
  // origin, and a box wider than the largest double. The grid widens its
  // edge (up to infinite) and every query, inside or outside the box, still
  // visits exactly the ball.
  Rng rng(26);
  std::vector<Vec3> clusters;
  for (int i = 0; i < 60; ++i) {
    const Vec3 base = i % 2 == 0 ? Vec3{0, 0, 0} : Vec3{2e6, -2e6, 2e6};
    clusters.push_back(base + sample_in_box(rng, {{0, 0, 0}, {2, 2, 2}}));
  }
  const std::vector<Vec3> extreme = {
      {-1.7e308, 0, 0}, {1.7e308, 0, 0}, {1.7e308, 0.5, 0}, {0, 0, 0}};
  for (const std::vector<Vec3>& pts : {clusters, extreme}) {
    const SpatialGrid grid(pts, 1.0);
    EXPECT_GT(grid.cell_size(), 1.0);
    std::vector<Vec3> queries = pts;
    queries.push_back({3e6, 3e6, 3e6});
    queries.push_back({-1.0, 0.5, 0.5});
    for (const Vec3& query : queries) {
      for (const double radius : {0.0, 0.5, 1.0, 2.5}) {
        std::vector<std::uint32_t> got;
        grid.for_each_in_ball(query, radius, [&](std::uint32_t i) {
          got.push_back(i);
          return true;
        });
        std::sort(got.begin(), got.end());
        std::vector<std::uint32_t> want;
        for (std::uint32_t i = 0; i < pts.size(); ++i)
          if (pts[i].distance_sq_to(query) <= radius * radius)
            want.push_back(i);
        EXPECT_EQ(got, want);
      }
    }
  }
}

TEST(SpatialGrid, EmptyGridVisitsNothing) {
  const std::vector<Vec3> pts;
  const SpatialGrid grid(pts, 1.0);
  EXPECT_TRUE(grid.for_each_in_ball({0, 0, 0}, 5.0, [](std::uint32_t) {
    ADD_FAILURE() << "visited a point of an empty grid";
    return true;
  }));
}

// --- CandidateCache ---------------------------------------------------------

TEST(CandidateCache, SortedAscendingAndIndexMapsAreConsistent) {
  Rng rng(25);
  std::vector<Vec3> pts;
  for (int i = 0; i < 120; ++i)
    pts.push_back(sample_in_ball(rng, {0, 0, 0}, 2.0));
  const std::size_t focus = 17;

  CandidateCache cache;
  cache.rebuild(pts, focus);
  ASSERT_EQ(cache.size(), pts.size() - 1);
  EXPECT_EQ(cache.slot_of(focus), CandidateCache::kNoSlot);

  for (std::size_t s = 0; s < cache.size(); ++s) {
    if (s > 0) {
      EXPECT_LE(cache.dist_sq()[s - 1], cache.dist_sq()[s]);
    }
    const std::uint32_t orig = cache.original_index(s);
    EXPECT_NE(orig, focus);
    EXPECT_EQ(cache.slot_of(orig), s);
    // SoA coordinates and the cached distance match the source points.
    EXPECT_DOUBLE_EQ(cache.xs()[s], pts[orig].x);
    EXPECT_DOUBLE_EQ(cache.ys()[s], pts[orig].y);
    EXPECT_DOUBLE_EQ(cache.zs()[s], pts[orig].z);
    EXPECT_DOUBLE_EQ(cache.dist_sq()[s],
                     pts[orig].distance_sq_to(pts[focus]));
    // dist_sq_to agrees bit-for-bit with Vec3::distance_sq_to — required
    // for the kernel's exact-compare emptiness contract.
    const Vec3 q{0.3, -0.7, 1.1};
    EXPECT_EQ(cache.dist_sq_to(s, q), pts[orig].distance_sq_to(q));
  }
}

TEST(CandidateCache, RebuildReusesCleanly) {
  Rng rng(26);
  std::vector<Vec3> big, small;
  for (int i = 0; i < 80; ++i) big.push_back(sample_in_ball(rng, {0, 0, 0}, 1.0));
  for (int i = 0; i < 10; ++i)
    small.push_back(sample_in_ball(rng, {5, 5, 5}, 1.0));

  CandidateCache cache;
  cache.rebuild(big, 0);
  EXPECT_EQ(cache.size(), big.size() - 1);
  cache.rebuild(small, 3);  // shrink: stale state must not leak
  ASSERT_EQ(cache.size(), small.size() - 1);
  for (std::size_t s = 0; s < cache.size(); ++s) {
    const std::uint32_t orig = cache.original_index(s);
    ASSERT_LT(orig, small.size());
    EXPECT_DOUBLE_EQ(cache.xs()[s], small[orig].x);
  }
}

// --- Sampling ----------------------------------------------------------------

TEST(Sampling, OnUnitSphereHasUnitNorm) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NEAR(sample_on_unit_sphere(rng).norm(), 1.0, 1e-12);
  }
}

TEST(Sampling, OnUnitSphereIsotropic) {
  Rng rng(32);
  Vec3 mean{};
  const int n = 50000;
  for (int i = 0; i < n; ++i) mean += sample_on_unit_sphere(rng);
  mean /= n;
  EXPECT_LT(mean.norm(), 0.02);
}

TEST(Sampling, InBallStaysInside) {
  Rng rng(33);
  const Vec3 c{1, 2, 3};
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LE(sample_in_ball(rng, c, 2.5).distance_to(c), 2.5);
  }
}

TEST(Sampling, InBoxRespectsBounds) {
  Rng rng(34);
  const Aabb box{{-1, 0, 2}, {1, 3, 4}};
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(box.contains(sample_in_box(rng, box)));
  }
}

TEST(Sampling, OnTriangleBarycentricInside) {
  Rng rng(35);
  const Vec3 a{0, 0, 0}, b{2, 0, 0}, c{0, 2, 0};
  for (int i = 0; i < 2000; ++i) {
    const Vec3 p = sample_on_triangle(rng, a, b, c);
    EXPECT_NEAR(p.z, 0.0, 1e-12);
    EXPECT_GE(p.x, -1e-12);
    EXPECT_GE(p.y, -1e-12);
    EXPECT_LE(p.x + p.y, 2.0 + 1e-12);
  }
}

}  // namespace
}  // namespace ballfit::geom
