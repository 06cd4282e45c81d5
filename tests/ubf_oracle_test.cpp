// Oracle tests for the optimized UBF kernel (src/core/ubf.cpp).
//
// The kernel's contract is *classification-exact*: pair pruning,
// nearest-first scans with a distance cutoff, blocker memoization, and the
// per-thread scratch arena may only skip work whose outcome is provably
// determined. These tests pin that contract two ways:
//
//   1. Bit-identity against a literal Algorithm 1 reference — a naive
//      double loop over witness pairs with a full-membership emptiness
//      scan, built from the same public primitives (`solve_trisphere`,
//      `ball_radius`, `inside_limits`) so both sides compare the exact
//      same floating-point values. Run on three seeded networks (sphere,
//      cube-with-hole, torus) under both emptiness scopes.
//   2. Thread-count determinism — the scratch arena is per-thread state,
//      so `detect` must return the same vector for 1, 2, and 8 workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "core/ubf.hpp"
#include "geom/trisphere.hpp"
#include "localization/local_frame.hpp"
#include "model/shapes.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"
#include "net/measurement.hpp"

namespace ballfit {
namespace {

// Literal Algorithm 1 over true coordinates, mirroring the membership rules
// of `detect_with_true_coordinates`: self + one-hop neighbors as witnesses,
// plus (under kTwoHop) the deduplicated two-hop closure as emptiness-only
// members. Deliberately free of every kernel optimization. Votes are
// counted up to the confidence cap max(verify_pool, min_empty_balls), in
// enumeration order, so the run also yields the per-node confidence and
// the degenerate-fallback count.
struct NaiveResult {
  std::vector<bool> flags;
  std::vector<float> confidence;
  std::size_t fallbacks = 0;
};

NaiveResult naive_run(const net::Network& network,
                      const core::UnitBallFitting& ubf) {
  const core::UbfConfig& cfg = ubf.config();
  const double r = ubf.ball_radius();
  const core::UnitBallFitting::InsideLimits limits = ubf.inside_limits(0.0);
  const bool two_hop = cfg.scope == core::UbfConfig::EmptinessScope::kTwoHop;
  const std::size_t cap = std::max(cfg.verify_pool, cfg.min_empty_balls);

  const std::size_t n = network.num_nodes();
  NaiveResult out;
  out.flags.assign(n, false);
  out.confidence.assign(n, 0.0f);
  for (net::NodeId i = 0; i < n; ++i) {
    std::vector<geom::Vec3> coords;
    coords.push_back(network.position(i));
    std::unordered_set<net::NodeId> seen{i};
    for (const net::NodeId v : network.neighbors(i)) {
      coords.push_back(network.position(v));
      seen.insert(v);
    }
    const std::size_t witness_count = coords.size();
    if (witness_count < 4) {
      out.flags[i] = cfg.degenerate_is_boundary;
      out.confidence[i] = cfg.degenerate_is_boundary ? 0.5f : 0.0f;
      ++out.fallbacks;
      continue;
    }
    if (two_hop) {
      for (const net::NodeId j : network.neighbors(i)) {
        for (const net::NodeId u : network.neighbors(j)) {
          if (seen.insert(u).second) coords.push_back(network.position(u));
        }
      }
    }

    std::size_t empty = 0;
    for (std::size_t j = 1; j < witness_count && empty < cap; ++j) {
      for (std::size_t k = j + 1; k < witness_count && empty < cap; ++k) {
        const geom::TrisphereResult balls =
            geom::solve_trisphere(coords[0], coords[j], coords[k], r);
        for (int c = 0; c < balls.count && empty < cap; ++c) {
          bool is_empty = true;
          for (std::size_t u = 0; u < coords.size(); ++u) {
            if (u == 0 || u == j || u == k) continue;
            const double limit_sq =
                u < witness_count ? limits.one_hop_sq : limits.two_hop_sq;
            if (coords[u].distance_sq_to(balls.centers[c]) < limit_sq) {
              is_empty = false;
              break;
            }
          }
          if (is_empty) ++empty;
        }
      }
    }
    out.flags[i] = empty >= cfg.min_empty_balls;
    out.confidence[i] = static_cast<float>(
        core::vote_confidence(empty, cfg.min_empty_balls));
  }
  return out;
}

std::vector<bool> naive_detect(const net::Network& network,
                               const core::UnitBallFitting& ubf) {
  return naive_run(network, ubf).flags;
}

net::Network build_test_network(const model::Shape& shape,
                                std::uint64_t seed) {
  Rng rng(seed);
  net::BuildOptions options =
      net::options_for_target_degree(shape, 15.0, 0.5, rng);
  options.interior_margin = 0.35 * options.radio_range;
  return net::build_network(shape, options, rng);
}

void expect_bit_identical(const net::Network& network) {
  for (const auto scope : {core::UbfConfig::EmptinessScope::kTwoHop,
                           core::UbfConfig::EmptinessScope::kOneHop}) {
    core::UbfConfig cfg;
    cfg.scope = scope;
    const core::UnitBallFitting ubf(network, cfg);
    const std::vector<bool> optimized = ubf.detect_with_true_coordinates();
    const std::vector<bool> reference = naive_detect(network, ubf);
    ASSERT_EQ(optimized.size(), reference.size());
    for (std::size_t i = 0; i < optimized.size(); ++i) {
      ASSERT_EQ(optimized[i], reference[i])
          << "node " << i << " diverges under scope "
          << (scope == core::UbfConfig::EmptinessScope::kTwoHop ? "two-hop"
                                                                : "one-hop");
    }
  }
}

TEST(UbfOracle, BitIdenticalOnSphere) {
  const model::SphereShape shape({0, 0, 0}, 2.6);
  expect_bit_identical(build_test_network(shape, 11));
}

TEST(UbfOracle, BitIdenticalOnCubeWithHole) {
  const model::Scenario scenario = model::fig1_network(0.45);
  expect_bit_identical(build_test_network(*scenario.shape, 12));
}

TEST(UbfOracle, BitIdenticalOnTorus) {
  const model::TorusShape shape({0, 0, 0}, 2.4, 1.1);
  expect_bit_identical(build_test_network(shape, 13));
}

// A higher vote threshold exercises the kContinue path of the sweep (the
// sweep must keep enumerating a pair's remaining candidate ball after an
// empty one was found).
TEST(UbfOracle, BitIdenticalWithVoteThreshold) {
  const model::SphereShape shape({0, 0, 0}, 2.2);
  const net::Network network = build_test_network(shape, 14);
  core::UbfConfig cfg;
  cfg.min_empty_balls = 3;
  const core::UnitBallFitting ubf(network, cfg);
  const std::vector<bool> optimized = ubf.detect_with_true_coordinates();
  const std::vector<bool> reference = naive_detect(network, ubf);
  EXPECT_EQ(optimized, reference);
}

// The scratch arena is thread-local state; distribution of nodes over
// workers must not leak into the result, on either coordinate path.
TEST(UbfOracle, DetectIsDeterministicAcrossThreadCounts) {
  const model::SphereShape shape({0, 0, 0}, 2.2);
  const net::Network network = build_test_network(shape, 15);
  const net::NoisyDistanceModel model(network, 0.05, 7);
  const localization::Localizer localizer(network, model);
  const core::UnitBallFitting ubf(network);

  const std::vector<bool> t1 = ubf.detect(localizer, 1);
  const std::vector<bool> t2 = ubf.detect(localizer, 2);
  const std::vector<bool> t8 = ubf.detect(localizer, 8);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);

  // The true-coordinates driver equals literal Algorithm 1 — flags,
  // fallbacks and confidence — at every thread count, on both scopes.
  for (const auto scope : {core::UbfConfig::EmptinessScope::kTwoHop,
                           core::UbfConfig::EmptinessScope::kOneHop}) {
    core::UbfConfig cfg;
    cfg.scope = scope;
    const core::UnitBallFitting oracle(network, cfg);
    const NaiveResult reference = naive_run(network, oracle);
    for (const unsigned threads : {1u, 2u, 8u}) {
      std::size_t fallbacks = 0;
      std::vector<float> confidence;
      const std::vector<bool> flags = oracle.detect_with_true_coordinates(
          &fallbacks, /*alive=*/nullptr, &confidence, threads);
      EXPECT_EQ(flags, reference.flags) << "threads=" << threads;
      EXPECT_EQ(fallbacks, reference.fallbacks) << "threads=" << threads;
      EXPECT_EQ(confidence, reference.confidence) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace ballfit
