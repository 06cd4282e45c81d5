// Tests for the noise-hardening machinery around Unit Ball Fitting:
// empty-ball collection, witness cross-verification, the frame-reliability
// gate, noise-adaptive margins, and the vote threshold.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/ubf.hpp"
#include "geom/sampling.hpp"
#include "localization/local_frame.hpp"
#include "model/csg.hpp"
#include "model/shapes.hpp"
#include "net/builder.hpp"

namespace ballfit::core {
namespace {

using geom::Vec3;
using net::NodeId;

net::Network sphere_network(std::uint64_t seed, std::size_t surface = 400,
                            std::size_t interior = 500) {
  Rng rng(seed);
  const model::SphereShape shape({0, 0, 0}, 3.2);
  net::BuildOptions opt;
  opt.surface_count = surface;
  opt.interior_count = interior;
  opt.interior_margin = 0.35;
  return net::build_network(shape, opt, rng);
}

TEST(CollectEmptyBalls, BoundaryNodeYieldsWitnessPairs) {
  const net::Network net = sphere_network(1);
  const UnitBallFitting ubf(net);
  // Find a ground-truth boundary node and collect its empty balls with
  // true coordinates.
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.is_ground_truth_boundary(v)) continue;
    std::vector<Vec3> coords{net.position(v)};
    for (NodeId u : net.neighbors(v)) coords.push_back(net.position(u));
    if (coords.size() < 6) continue;
    const auto balls = ubf.collect_empty_balls(coords, 0, coords.size(), 8,
                                               /*coord_uncertainty=*/0.0);
    EXPECT_FALSE(balls.empty());
    EXPECT_LE(balls.size(), 8u);
    for (const auto& [j, k] : balls) {
      EXPECT_NE(j, 0u);
      EXPECT_NE(k, 0u);
      EXPECT_LT(j, k);
      EXPECT_LT(k, coords.size());
    }
    return;  // one node suffices
  }
  FAIL() << "no suitable boundary node found";
}

TEST(CollectEmptyBalls, RespectsMaxBalls) {
  const net::Network net = sphere_network(2);
  const UnitBallFitting ubf(net);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.is_ground_truth_boundary(v)) continue;
    std::vector<Vec3> coords{net.position(v)};
    for (NodeId u : net.neighbors(v)) coords.push_back(net.position(u));
    if (coords.size() < 8) continue;
    const auto few = ubf.collect_empty_balls(coords, 0, coords.size(), 2, 0.0);
    EXPECT_LE(few.size(), 2u);
    return;
  }
  FAIL() << "no suitable boundary node found";
}

TEST(FrameReliability, GateScalesWithErrorHint) {
  const net::Network net = sphere_network(3);
  UbfConfig clean;
  clean.measurement_error_hint = 0.0;
  const UnitBallFitting ubf_clean(net, clean);
  // With no noise expected, only near-zero residuals pass.
  EXPECT_TRUE(ubf_clean.frame_reliable(0.0));
  EXPECT_TRUE(ubf_clean.frame_reliable(0.01));
  EXPECT_FALSE(ubf_clean.frame_reliable(0.2));

  UbfConfig noisy;
  noisy.measurement_error_hint = 0.5;
  const UnitBallFitting ubf_noisy(net, noisy);
  // At 50% expected error the same residual is unremarkable.
  EXPECT_TRUE(ubf_noisy.frame_reliable(0.2));
}

TEST(WitnessConfirms, MissingMembersGiveBenefitOfDoubt) {
  const net::Network net = sphere_network(5);
  const UnitBallFitting ubf(net);
  localization::LocalFrame frame;
  frame.ok = true;
  frame.members = {0, 1, 2, 3};
  frame.coords = {{0, 0, 0}, {0.5, 0, 0}, {0, 0.5, 0}, {0, 0, 0.5}};
  frame.one_hop_count = 4;
  // Node 99 is not in the frame: the witness cannot evaluate — no veto.
  EXPECT_TRUE(ubf.witness_confirms(frame, 0, 99, 1));
  // A bad frame cannot veto either.
  localization::LocalFrame bad;
  bad.ok = false;
  EXPECT_TRUE(ubf.witness_confirms(bad, 0, 1, 2));
}

TEST(WitnessConfirms, VetoesBallFullInWitnessFrame) {
  const net::Network net = sphere_network(6);
  const UnitBallFitting ubf(net);
  // Build a witness frame where every ball through the triple (0,1,2)
  // contains other members: surround the triple densely.
  localization::LocalFrame frame;
  frame.ok = true;
  Rng rng(7);
  frame.members = {0, 1, 2};
  frame.coords = {{0, 0, 0}, {0.4, 0, 0}, {0, 0.4, 0}};
  NodeId next = 3;
  // A dense cloud within radius 1.5 blocks every candidate ball.
  for (int i = 0; i < 300; ++i) {
    frame.members.push_back(next++);
    frame.coords.push_back(geom::sample_in_ball(rng, {0.15, 0.15, 0}, 1.6));
  }
  frame.one_hop_count = frame.members.size();
  frame.stress_rms = 0.0;
  EXPECT_FALSE(ubf.witness_confirms(frame, 0, 1, 2));
}

TEST(WitnessConfirms, ConfirmsOutwardEmptyBall) {
  const net::Network net = sphere_network(8);
  const UnitBallFitting ubf(net);
  // Witness frame of a node on a flat boundary: everything at z <= 0.
  localization::LocalFrame frame;
  frame.ok = true;
  Rng rng(9);
  frame.members = {0, 1, 2};
  frame.coords = {{0, 0, 0}, {0.5, 0, 0}, {0, 0.5, 0}};
  NodeId next = 3;
  for (int i = 0; i < 200; ++i) {
    Vec3 p = geom::sample_in_ball(rng, {0.2, 0.2, -1.2}, 1.8);
    // Keep the cloud strictly below the triple: the upper candidate ball
    // (center ≈ 0.92 above the plane) dips to z ≈ −0.08, so points at
    // z ≤ −0.25 leave it empty.
    p.z = std::min(p.z, -0.25);
    frame.members.push_back(next++);
    frame.coords.push_back(p);
  }
  frame.one_hop_count = frame.members.size();
  frame.stress_rms = 0.0;
  // The ball above the z=0 plane through the triple is empty.
  EXPECT_TRUE(ubf.witness_confirms(frame, 0, 1, 2));
}

TEST(NoiseMargin, WidensWithUncertainty) {
  // Both candidate balls through the single witness pair carry a (two-hop)
  // blocker ~0.8 from their centers: strictly inside at zero uncertainty,
  // tolerated once the claimed coordinate uncertainty widens the slack.
  const net::Network net = sphere_network(11);
  const UnitBallFitting ubf(net);

  // Self at origin, witnesses at (0.6,0,0.3) and (0,0.6,0.3): the two
  // radius-1 ball centers are ≈ (0.618,0.618,−0.486) and
  // (−0.118,−0.118,0.986). Blockers sit ≈0.8 from one center each.
  std::vector<Vec3> coords = {{0, 0, 0},
                              {0.6, 0, 0.3},
                              {0, 0.6, 0.3},
                              {0, 0, 0.204},      // ~0.80 from upper center
                              {0.25, 0.25, 0.15}};  // ~0.82 from lower center
  const std::size_t witness_count = 3;  // blockers are two-hop members
  const bool strict = ubf.test_node(coords, 0, witness_count, nullptr,
                                    /*coord_uncertainty=*/0.0);
  EXPECT_FALSE(strict);
  const bool loose = ubf.test_node(coords, 0, witness_count, nullptr,
                                   /*coord_uncertainty=*/0.2);
  EXPECT_TRUE(loose);
}

TEST(VoteThreshold, HigherVotesNeverFindMore) {
  const net::Network net = sphere_network(12);
  UbfConfig one;
  one.min_empty_balls = 1;
  UbfConfig four;
  four.min_empty_balls = 4;
  const auto f1 =
      UnitBallFitting(net, one).detect_with_true_coordinates();
  const auto f4 =
      UnitBallFitting(net, four).detect_with_true_coordinates();
  std::size_t n1 = 0, n4 = 0;
  for (std::size_t i = 0; i < f1.size(); ++i) {
    n1 += f1[i];
    n4 += f4[i];
    if (f4[i]) {
      EXPECT_TRUE(f1[i]);  // votes only ever remove nodes
    }
  }
  EXPECT_LE(n4, n1);
}

TEST(PipelineIntegration, CrossVerifyKeepsGroupsSeparate) {
  // A box with an interior hole whose shell would otherwise be at risk of
  // bridging: with cross-verification the groups remain distinct at 0%.
  Rng rng(13);
  auto box =
      std::make_shared<model::BoxShape>(Vec3{0, 0, 0}, Vec3{8, 8, 7});
  auto hole = std::make_shared<model::SphereShape>(Vec3{4, 4, 3.5}, 1.5);
  const model::DifferenceShape shape(box, {hole});
  net::BuildOptions opt;
  opt.surface_count = 1700;
  opt.interior_count = 1500;
  opt.interior_margin = 0.35;
  const net::Network net = net::build_network(shape, opt, rng);

  PipelineConfig cfg;
  cfg.measurement_error = 0.0;
  const PipelineResult r = detect_boundaries(net, cfg);
  std::size_t substantial = 0;
  for (const auto& g : r.groups.groups)
    if (g.size() >= 25) ++substantial;
  EXPECT_EQ(substantial, 2u);
}

}  // namespace
}  // namespace ballfit::core
