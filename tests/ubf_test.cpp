// Tests for the Unit Ball Fitting kernel and detectors: hand-constructed
// geometric cases with known answers, invariance properties (Lemma 1's
// gauge freedom), and behavior of the r knob (hole-size selectivity).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "common/rng.hpp"
#include "core/ubf.hpp"
#include "geom/sampling.hpp"
#include "geom/trisphere.hpp"
#include "model/csg.hpp"
#include "model/shapes.hpp"
#include "net/builder.hpp"

namespace ballfit::core {
namespace {

using geom::Vec3;
using net::NodeId;

// A dense cube of nodes: grid spacing 0.5, radio range 1. A small
// deterministic jitter breaks the lattice's cospherical degeneracies
// (a perfect grid puts many nodes exactly on candidate ball surfaces).
net::Network grid_cube(int per_side, double spacing = 0.5) {
  Rng rng(1234);
  std::vector<Vec3> pos;
  for (int x = 0; x < per_side; ++x)
    for (int y = 0; y < per_side; ++y)
      for (int z = 0; z < per_side; ++z)
        pos.push_back({x * spacing + rng.uniform(-0.02, 0.02),
                       y * spacing + rng.uniform(-0.02, 0.02),
                       z * spacing + rng.uniform(-0.02, 0.02)});
  // The label count is taken before `pos` is moved from: the order in
  // which call arguments are evaluated is unspecified.
  const std::size_t n = pos.size();
  return net::Network(std::move(pos), std::vector<bool>(n, false), 1.0);
}

TEST(UbfKernel, CornerNodeOfCubeIsBoundary) {
  const net::Network net = grid_cube(5);
  const UnitBallFitting ubf(net);
  // Node 0 is the (0,0,0) corner — an empty ball fits outside trivially.
  std::vector<Vec3> coords{net.position(0)};
  for (NodeId v : net.neighbors(0)) coords.push_back(net.position(v));
  EXPECT_TRUE(ubf.test_node(coords, 0));
}

TEST(UbfKernel, CenterNodeOfDenseCubeIsInterior) {
  const net::Network net = grid_cube(7);
  const UnitBallFitting ubf(net);
  // The center node of a 7× grid with spacing 0.5 is 1.5 away from every
  // face — no empty unit ball can touch it.
  const NodeId center = 3 * 49 + 3 * 7 + 3;
  std::vector<Vec3> coords{net.position(center)};
  for (NodeId v : net.neighbors(center)) coords.push_back(net.position(v));
  EXPECT_FALSE(ubf.test_node(coords, 0));
}

TEST(UbfKernel, InvariantUnderRigidMotion) {
  // The UBF answer must not depend on the coordinate frame — that is what
  // makes MDS local frames (arbitrary gauge) usable.
  const net::Network net = grid_cube(5);
  const UnitBallFitting ubf(net);
  Rng rng(5);
  for (NodeId probe : {0u, 31u, 62u}) {
    std::vector<Vec3> coords{net.position(probe)};
    for (NodeId v : net.neighbors(probe)) coords.push_back(net.position(v));
    const bool base = ubf.test_node(coords, 0);

    const Vec3 u = geom::sample_on_unit_sphere(rng);
    Vec3 w = geom::sample_on_unit_sphere(rng);
    w = (w - u * w.dot(u)).normalized();
    const Vec3 vv = u.cross(w);
    std::vector<Vec3> moved;
    for (const Vec3& p : coords)
      moved.push_back(Vec3{p.dot(u), p.dot(w), p.dot(vv)} + Vec3{7, -3, 2});
    EXPECT_EQ(ubf.test_node(moved, 0), base);
  }
}

TEST(UbfKernel, ReflectionInvariant) {
  const net::Network net = grid_cube(5);
  const UnitBallFitting ubf(net);
  for (NodeId probe : {0u, 62u}) {
    std::vector<Vec3> coords{net.position(probe)};
    for (NodeId v : net.neighbors(probe)) coords.push_back(net.position(v));
    const bool base = ubf.test_node(coords, 0);
    std::vector<Vec3> mirrored;
    for (const Vec3& p : coords) mirrored.push_back({p.x, p.y, -p.z});
    EXPECT_EQ(ubf.test_node(mirrored, 0), base);
  }
}

TEST(UbfKernel, DiagnosticsCountWork) {
  const net::Network net = grid_cube(5);
  const UnitBallFitting ubf(net);
  std::vector<Vec3> coords{net.position(0)};
  for (NodeId v : net.neighbors(0)) coords.push_back(net.position(v));
  UbfNodeDiagnostics diag;
  (void)ubf.test_node(coords, 0, &diag);
  EXPECT_GT(diag.balls_tested, 0u);
  EXPECT_TRUE(diag.found_empty_ball);
}

TEST(UbfKernel, DiagnosticsCountCertificate) {
  const net::Network net = grid_cube(7);
  const UnitBallFitting ubf(net);
  // Deep inside the grid the interior certificate settles the node: no
  // pair is solved and no ball tested, only cover checks.
  const NodeId center = 3 * 49 + 3 * 7 + 3;
  std::vector<Vec3> coords{net.position(center)};
  for (NodeId v : net.neighbors(center)) coords.push_back(net.position(v));
  UbfNodeDiagnostics interior;
  EXPECT_FALSE(ubf.test_node(coords, 0, &interior));
  EXPECT_TRUE(interior.certified);
  EXPECT_GT(interior.cover_checks, 0u);
  EXPECT_EQ(interior.trisphere_solves, 0u);
  EXPECT_EQ(interior.balls_tested, 0u);
  // At a corner the certificate fails and the sweep runs.
  std::vector<Vec3> corner{net.position(0)};
  for (NodeId v : net.neighbors(0)) corner.push_back(net.position(v));
  UbfNodeDiagnostics boundary;
  EXPECT_TRUE(ubf.test_node(corner, 0, &boundary));
  EXPECT_FALSE(boundary.certified);
  EXPECT_GT(boundary.cover_checks, 0u);
  EXPECT_GT(boundary.trisphere_solves, 0u);
  EXPECT_GT(boundary.balls_tested, 0u);
}

// The interior certificate is sound only while every center the Eq. 1
// solver emits for (a, b, d) lies within δ/2 of the radius-r spheres
// around all three points (δ = certificate_margin; see ubf.cpp). Checked
// on random triples, near-collinear triples and near-duplicate witnesses
// down to the solver's collinearity gate, near the origin and near 1e4.
TEST(UbfKernel, TrisphereCentersStayWithinHalfTheCertificateMargin) {
  Rng rng(77);
  const double r = 1.0 + 1e-6;
  std::size_t emitted = 0;
  for (int trial = 0; trial < 60000; ++trial) {
    const Vec3 offset = trial % 2 == 0 ? Vec3{} : Vec3{1e4, -1e4, 1e4};
    const Vec3 a = offset;
    const Vec3 b = a + geom::sample_in_ball(rng, {0, 0, 0}, 2.0 * r);
    const double gap = std::pow(10.0, rng.uniform(-12.0, -1.0));
    Vec3 d;
    switch (trial / 2 % 3) {
      case 0:  // generic
        d = a + geom::sample_in_ball(rng, {0, 0, 0}, 2.0 * r);
        break;
      case 1:  // near-collinear: on the line through a and b, nudged
        d = a + (b - a) * rng.uniform(-1.0, 2.0) +
            geom::sample_on_unit_sphere(rng) * gap;
        break;
      default:  // near-duplicate witnesses b and d
        d = b + geom::sample_on_unit_sphere(rng) * gap;
        break;
    }
    const geom::TrisphereResult balls = geom::solve_trisphere(a, b, d, r);
    const double half_margin = certificate_margin(r, a) / 2.0;
    for (int c = 0; c < balls.count; ++c) {
      ++emitted;
      for (const Vec3& p : {a, b, d}) {
        EXPECT_LE(std::abs(balls.centers[c].distance_to(p) - r), half_margin)
            << "trial " << trial << " gap " << gap;
      }
    }
  }
  EXPECT_GT(emitted, 30000u);
}

TEST(UbfDetect, SphereSurfaceNodesDetected) {
  Rng rng(11);
  const model::SphereShape shape({0, 0, 0}, 3.5);
  net::BuildOptions opt;
  opt.surface_count = 500;
  opt.interior_count = 900;
  const net::Network net = net::build_network(shape, opt, rng);

  const UnitBallFitting ubf(net);
  const auto detected = ubf.detect_with_true_coordinates();

  std::size_t correct = 0, truth = 0, mistaken_interior_deep = 0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const bool is_truth = net.is_ground_truth_boundary(v);
    truth += is_truth;
    if (is_truth && detected[v]) ++correct;
    // Deep interior nodes (far from the surface) must never be flagged.
    if (!is_truth && detected[v] &&
        shape.signed_distance(net.position(v)) < -1.5) {
      ++mistaken_interior_deep;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / truth, 0.9);
  EXPECT_EQ(mistaken_interior_deep, 0u);
}

TEST(UbfDetect, HoleBoundaryDetected) {
  Rng rng(12);
  auto base = std::make_shared<model::BoxShape>(Vec3{0, 0, 0}, Vec3{7, 7, 7});
  auto hole = std::make_shared<model::SphereShape>(Vec3{3.5, 3.5, 3.5}, 1.8);
  const model::DifferenceShape shape(base, {hole});
  net::BuildOptions opt;
  opt.surface_count = 1300;
  opt.interior_count = 1400;
  const net::Network net = net::build_network(shape, opt, rng);

  const UnitBallFitting ubf(net);
  const auto detected = ubf.detect_with_true_coordinates();

  // Nodes on the hole sphere surface must be detected.
  std::size_t hole_truth = 0, hole_found = 0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.is_ground_truth_boundary(v)) continue;
    if (std::fabs(net.position(v).distance_to({3.5, 3.5, 3.5}) - 1.8) < 1e-5) {
      ++hole_truth;
      hole_found += detected[v];
    }
  }
  ASSERT_GT(hole_truth, 50u);
  EXPECT_GT(static_cast<double>(hole_found) / hole_truth, 0.9);
}

TEST(UbfDetect, LargerRadiusIgnoresSmallHoles) {
  // Hole-size selectivity (Sec. II-A3): a ball radius much larger than a
  // hole's inscribed radius cannot fit into it, so its boundary nodes stop
  // reporting. The outer boundary is unaffected.
  Rng rng(13);
  auto base = std::make_shared<model::BoxShape>(Vec3{0, 0, 0}, Vec3{8, 8, 8});
  auto hole = std::make_shared<model::SphereShape>(Vec3{4, 4, 4}, 1.3);
  const model::DifferenceShape shape(base, {hole});
  net::BuildOptions opt;
  opt.surface_count = 1500;
  opt.interior_count = 1500;
  const net::Network net = net::build_network(shape, opt, rng);

  UbfConfig small_cfg;  // r ≈ 1 — sees the hole
  UbfConfig big_cfg;
  big_cfg.epsilon = 1.0;  // r = 2 > hole radius 1.3 — cannot fit

  const auto small_flags =
      UnitBallFitting(net, small_cfg).detect_with_true_coordinates();
  const auto big_flags =
      UnitBallFitting(net, big_cfg).detect_with_true_coordinates();

  std::size_t hole_small = 0, hole_big = 0, outer_big = 0, outer_truth = 0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.is_ground_truth_boundary(v)) continue;
    const bool on_hole =
        std::fabs(net.position(v).distance_to({4, 4, 4}) - 1.3) < 1e-5;
    if (on_hole) {
      hole_small += small_flags[v];
      hole_big += big_flags[v];
    } else {
      ++outer_truth;
      outer_big += big_flags[v];
    }
  }
  EXPECT_GT(hole_small, 20u);
  EXPECT_LT(hole_big, hole_small / 4);
  EXPECT_GT(static_cast<double>(outer_big) / outer_truth, 0.85);
}

TEST(UbfDetect, LocalizedMatchesOracleAtZeroError) {
  Rng rng(14);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = 350;
  opt.interior_count = 600;
  const net::Network net = net::build_network(shape, opt, rng);

  const UnitBallFitting ubf(net);
  const auto oracle = ubf.detect_with_true_coordinates();

  const net::NoisyDistanceModel model(net, 0.0, 7);
  const localization::Localizer loc(net, model);
  std::vector<localization::LocalFrame> frames;
  localization::build_all_frames(loc, localization::FrameScope::kTwoHop,
                                 frames);
  const auto localized = ubf.detect_on_frames(frames);

  // MDS at zero error reproduces the geometry up to rigid motion, and the
  // test is gauge-invariant, so the answers agree except for numerically
  // marginal balls. Allow a tiny disagreement budget.
  std::size_t disagree = 0;
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    disagree += (oracle[v] != localized[v]);
  EXPECT_LT(static_cast<double>(disagree) / net.num_nodes(), 0.02);
}

TEST(UbfConfigChecks, BadRadiusRejected) {
  const net::Network net = grid_cube(3);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto rejects = [&](auto mutate) {
    UbfConfig cfg;
    mutate(cfg);
    try {
      const UnitBallFitting ubf(net, cfg);
    } catch (const InvalidArgument&) {
      return true;
    }
    return false;
  };
  // Below the radio range.
  EXPECT_TRUE(rejects([](UbfConfig& c) { c.epsilon = -0.1; }));
  // Non-finite radii would reach the certificate and the emptiness scan.
  for (const double bad : {inf, -inf, nan}) {
    EXPECT_TRUE(rejects([&](UbfConfig& c) { c.epsilon = bad; }));
  }
  for (const double bad : {-0.1, inf, nan}) {
    EXPECT_TRUE(
        rejects([&](UbfConfig& c) { c.measurement_error_hint = bad; }));
    EXPECT_TRUE(rejects([&](UbfConfig& c) { c.noise_margin_factor = bad; }));
  }
  // The edges of the valid ranges are accepted.
  EXPECT_FALSE(rejects([](UbfConfig& c) { c.epsilon = 0.0; }));
  EXPECT_FALSE(rejects([](UbfConfig& c) { c.measurement_error_hint = 0.0; }));
  EXPECT_FALSE(rejects([](UbfConfig& c) { c.noise_margin_factor = 0.0; }));
}

// A vote threshold of 0 is met by every node, but the test stops at the
// first empty ball and the confidence count at the cap, so a node's flag
// would depend on whether confidence was asked for (on obs::enabled() in
// the pipeline). The constructor rejects it; 1 is the literal algorithm.
TEST(UbfConfigChecks, ZeroVoteThresholdRejected) {
  const net::Network net = grid_cube(3);
  UbfConfig cfg;
  cfg.min_empty_balls = 0;
  EXPECT_THROW(UnitBallFitting(net, cfg), InvalidArgument);
  cfg.min_empty_balls = 1;
  EXPECT_NO_THROW(UnitBallFitting(net, cfg));
}

// --- Boundary confidence (vote_confidence and the scored detectors) --------

TEST(UbfConfidence, VoteConfidenceFormula) {
  EXPECT_DOUBLE_EQ(vote_confidence(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(vote_confidence(3, 3), 0.5);  // exactly at threshold
  EXPECT_DOUBLE_EQ(vote_confidence(6, 3), 6.0 / 9.0);
  // Degenerate threshold 0: boundary iff any vote at all.
  EXPECT_DOUBLE_EQ(vote_confidence(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(vote_confidence(5, 0), 1.0);
  // Monotone in votes, never reaching 1.
  for (std::size_t v = 1; v < 12; ++v) {
    EXPECT_GT(vote_confidence(v, 4), vote_confidence(v - 1, 4));
    EXPECT_LT(vote_confidence(v, 4), 1.0);
  }
}

TEST(UbfConfidence, ScoreThresholdsExactlyAtFlag) {
  const net::Network net = grid_cube(6);
  for (const std::size_t T : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    UbfConfig cfg;
    cfg.min_empty_balls = T;
    const UnitBallFitting ubf(net, cfg);
    // Flags must be bit-identical with and without the margin request.
    const std::vector<bool> plain = ubf.detect_with_true_coordinates();
    std::vector<float> conf;
    const std::vector<bool> scored =
        ubf.detect_with_true_coordinates(nullptr, nullptr, &conf);
    ASSERT_EQ(conf.size(), net.num_nodes());
    EXPECT_EQ(plain, scored) << "T=" << T;
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      EXPECT_EQ(scored[v], conf[v] >= 0.5f) << "node " << v << " T=" << T;
      EXPECT_GE(conf[v], 0.0f);
      EXPECT_LT(conf[v], 1.0f);
    }
  }
}

TEST(UbfConfidence, MonotoneInMinEmptyBalls) {
  const net::Network net = grid_cube(6);
  std::vector<float> prev;
  for (const std::size_t T : {1, 2, 3, 5, 8, 12}) {
    UbfConfig cfg;
    cfg.min_empty_balls = T;
    const UnitBallFitting ubf(net, cfg);
    std::vector<float> conf;
    (void)ubf.detect_with_true_coordinates(nullptr, nullptr, &conf);
    ASSERT_EQ(conf.size(), net.num_nodes());
    if (!prev.empty()) {
      for (NodeId v = 0; v < net.num_nodes(); ++v) {
        EXPECT_LE(conf[v], prev[v]) << "node " << v << " at T=" << T;
      }
    }
    prev = std::move(conf);
  }
}

}  // namespace
}  // namespace ballfit::core
