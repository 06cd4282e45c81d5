// Oracle tests for the optimized UBF kernel (src/core/ubf.cpp).
//
// The kernel's contract is *classification-exact*: the interior
// certificate, pair pruning, nearest-first scans with a distance cutoff,
// blocker memoization, and the per-thread scratch arena may only skip work
// whose outcome is provably determined. These tests pin that contract:
//
//   1. Bit-identity against a literal Algorithm 1 reference — a naive
//      double loop over witness pairs with a full-membership emptiness
//      scan, built from the same public primitives (`solve_trisphere`,
//      `ball_radius`, `inside_limits`) so both sides compare the exact
//      same floating-point values. Flags, confidence and fallbacks are
//      compared on seeded networks (sphere, a translated sphere,
//      cube-with-hole, torus, three random boxes) under both emptiness
//      scopes.
//   2. The interior certificate against a literal full-view certificate
//      (every member tried on every icosahedral cell, no shortcut) and
//      against naive enumeration of every pair: on seeded random member
//      clouds (dense, sparse, half-space, coplanar, duplicated, translated,
//      with noise margins) and on every node of noisy local frames, the
//      kernels and both drivers certify exactly the nodes the literal
//      certificate does, a certified node has no empty ball, and the
//      kernel's counts equal the naive ones. A cloud whose one-hop members
//      alone certify also certifies in full.
//   3. Thread-count and id-order independence — the scratch arena is
//      per-thread state and the driver visits nodes in spatial order, so
//      results must not change with the worker count (1, 2, 4, 8) or with
//      a random relabelling of the ids.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/ubf.hpp"
#include "geom/sampling.hpp"
#include "geom/trisphere.hpp"
#include "localization/local_frame.hpp"
#include "model/shapes.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"
#include "net/measurement.hpp"
#include "obs/metrics.hpp"

namespace ballfit {
namespace {

// Literal Algorithm 1 on one explicit member set: `coords[0]` is the node,
// entries below `witness_count` its one-hop witnesses, the rest
// emptiness-only members. The ball at `center` spawned by witnesses j, k is
// empty when no other member is strictly inside.
bool naive_ball_empty(const std::vector<geom::Vec3>& coords,
                      std::size_t witness_count, const geom::Vec3& center,
                      std::size_t j, std::size_t k,
                      core::UnitBallFitting::InsideLimits limits) {
  for (std::size_t u = 1; u < coords.size(); ++u) {
    if (u == j || u == k) continue;
    const double limit_sq =
        u < witness_count ? limits.one_hop_sq : limits.two_hop_sq;
    if (coords[u].distance_sq_to(center) < limit_sq) return false;
  }
  return true;
}

// Every unordered witness pair spawns up to two candidate balls. Empty
// balls are counted, in enumeration order, until `cap`.
std::size_t naive_empty_balls(const std::vector<geom::Vec3>& coords,
                              std::size_t witness_count, double r,
                              core::UnitBallFitting::InsideLimits limits,
                              std::size_t cap) {
  std::size_t empty = 0;
  for (std::size_t j = 1; j < witness_count && empty < cap; ++j) {
    for (std::size_t k = j + 1; k < witness_count && empty < cap; ++k) {
      const geom::TrisphereResult balls =
          geom::solve_trisphere(coords[0], coords[j], coords[k], r);
      for (int c = 0; c < balls.count && empty < cap; ++c) {
        if (naive_ball_empty(coords, witness_count, balls.centers[c], j, k,
                             limits)) {
          ++empty;
        }
      }
    }
  }
  return empty;
}

// The witness pairs with at least one empty ball, in enumeration order, up
// to `cap` pairs: what `collect_empty_balls` must return.
std::vector<std::pair<std::size_t, std::size_t>> naive_empty_pairs(
    const std::vector<geom::Vec3>& coords, std::size_t witness_count,
    double r, core::UnitBallFitting::InsideLimits limits, std::size_t cap) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t j = 1; j < witness_count && out.size() < cap; ++j) {
    for (std::size_t k = j + 1; k < witness_count && out.size() < cap; ++k) {
      const geom::TrisphereResult balls =
          geom::solve_trisphere(coords[0], coords[j], coords[k], r);
      for (int c = 0; c < balls.count; ++c) {
        if (naive_ball_empty(coords, witness_count, balls.centers[c], j, k,
                             limits)) {
          out.push_back({j, k});
          break;
        }
      }
    }
  }
  return out;
}

// Literal interior certificate on a full view (`coords[0]` the node,
// witnesses below `witness_count`): the kernel's icosahedral cells (the 20
// faces split 1:4 at their normalized edge midpoints, levels 1 to 3, chords
// padded by 1e-9), and every member tried on every cell at its own limit
// minus `certificate_margin`. No band filter, octants, memo or resume. A
// cell no member covers is split; an uncovered level-3 cell fails. The
// arithmetic of the per-cell test is the kernel's, so both sides compare
// the same floating-point values.
bool literal_certified(const std::vector<geom::Vec3>& coords,
                       std::size_t witness_count, double r,
                       core::UnitBallFitting::InsideLimits limits) {
  const geom::Vec3& self = coords[0];
  const double delta = core::certificate_margin(r, self);
  const double reach_one = std::sqrt(limits.one_hop_sq) - delta;
  const double reach_two = std::sqrt(limits.two_hop_sq) - delta;
  const auto covered = [&](const geom::Vec3& a, const geom::Vec3& b,
                           const geom::Vec3& c) {
    const geom::Vec3 e = (a + b + c).normalized();
    const double chord =
        std::max({a.distance_to(e), b.distance_to(e), c.distance_to(e)}) +
        1e-9;
    const geom::Vec3 point = e * r;
    const double spread = r * chord;
    for (std::size_t u = 1; u < coords.size(); ++u) {
      const double t = (u < witness_count ? reach_one : reach_two) - spread;
      if (t > 0.0 && point.distance_sq_to(coords[u] - self) < t * t) {
        return true;
      }
    }
    return false;
  };
  const auto cell = [&](const auto& me, int level, const geom::Vec3& a,
                        const geom::Vec3& b, const geom::Vec3& c) -> bool {
    if (level >= 1 && covered(a, b, c)) return true;
    if (level == 3) return false;
    const geom::Vec3 ab = (a + b).normalized();
    const geom::Vec3 bc = (b + c).normalized();
    const geom::Vec3 ca = (c + a).normalized();
    return me(me, level + 1, a, ab, ca) && me(me, level + 1, ab, b, bc) &&
           me(me, level + 1, ca, bc, c) && me(me, level + 1, ab, bc, ca);
  };
  const double phi = (1.0 + std::sqrt(5.0)) / 2.0;
  std::vector<geom::Vec3> v;
  for (const double a : {-1.0, 1.0}) {
    for (const double b : {-phi, phi}) {
      v.push_back(geom::Vec3{0.0, a, b}.normalized());
      v.push_back(geom::Vec3{a, b, 0.0}.normalized());
      v.push_back(geom::Vec3{b, 0.0, a}.normalized());
    }
  }
  const auto adjacent = [&](std::size_t i, std::size_t j) {
    return v[i].distance_sq_to(v[j]) < 2.0;
  };
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = i + 1; j < v.size(); ++j) {
      for (std::size_t k = j + 1; k < v.size(); ++k) {
        if (adjacent(i, j) && adjacent(j, k) && adjacent(i, k) &&
            !cell(cell, 0, v[i], v[j], v[k])) {
          return false;
        }
      }
    }
  }
  return true;
}

// Literal Algorithm 1 over true coordinates, mirroring the membership rules
// of `detect_with_true_coordinates`: self + one-hop neighbors as witnesses,
// plus (under kTwoHop) the deduplicated two-hop closure as emptiness-only
// members. Deliberately free of every kernel optimization. Votes are
// counted up to the confidence cap max(kVerifyPool, min_empty_balls), in
// enumeration order, so the run also yields the per-node confidence and
// the degenerate-fallback count.
//
// Alongside, each node's full view goes through `literal_certified`: a
// node it settles must have no empty ball at all, the kernel's
// `count_empty_balls` must certify exactly the same nodes, and `certified`
// marks them.
struct NaiveResult {
  std::vector<bool> flags;
  std::vector<float> confidence;
  std::size_t fallbacks = 0;
  std::vector<bool> certified;
};

NaiveResult naive_run(const net::Network& network,
                      const core::UnitBallFitting& ubf) {
  const core::UbfConfig& cfg = ubf.config();
  const bool two_hop = cfg.scope == core::UbfConfig::EmptinessScope::kTwoHop;
  const std::size_t cap = std::max(core::kVerifyPool, cfg.min_empty_balls);

  const std::size_t n = network.num_nodes();
  NaiveResult out;
  out.flags.assign(n, false);
  out.confidence.assign(n, 0.0f);
  out.certified.assign(n, false);
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
    const std::size_t empty =
        naive_empty_balls(coords, witness_count, ubf.ball_radius(),
                          ubf.inside_limits(0.0), cap);
    out.certified[i] = literal_certified(coords, witness_count,
                                         ubf.ball_radius(),
                                         ubf.inside_limits(0.0));
    core::UbfNodeDiagnostics diag;
    (void)ubf.count_empty_balls(coords, 0, witness_count, cap, 0.0, &diag);
    EXPECT_EQ(diag.certified, out.certified[i]) << "node " << i;
    if (out.certified[i]) {
      EXPECT_EQ(naive_empty_balls(coords, witness_count, ubf.ball_radius(),
                                  ubf.inside_limits(0.0),
                                  std::numeric_limits<std::size_t>::max()),
                0u)
          << "certified node " << i << " has an empty ball";
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

/// The same network with its node ids permuted at random: the driver
/// visits nodes in spatial order, so ids that carry no spatial meaning at
/// all must not change a node's result either.
net::Network shuffled(const net::Network& network, std::uint64_t seed) {
  std::vector<net::NodeId> perm(network.num_nodes());
  for (net::NodeId i = 0; i < perm.size(); ++i) perm[i] = i;
  Rng rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1],
              perm[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::vector<geom::Vec3> positions;
  std::vector<bool> truth;
  for (const net::NodeId v : perm) {
    positions.push_back(network.position(v));
    truth.push_back(network.is_ground_truth_boundary(v));
  }
  return net::Network(std::move(positions), std::move(truth),
                      network.radio_range());
}

/// Which nodes a driver certifies, node by node: one masked run per node
/// (`update_flags` with a one-node run mask, one thread) on the frame path
/// when `frames` is given, else on true coordinates, reading the
/// `ubf.nodes_certified` counter around each.
std::vector<bool> driver_certified(
    const core::UnitBallFitting& ubf, std::size_t n,
    const std::vector<localization::LocalFrame>* frames) {
  obs::set_enabled(true);
  obs::Counter& counter =
      obs::Registry::global().counter("ubf.nodes_certified");
  std::vector<bool> out(n, false);
  std::vector<char> flags(n, 0);
  std::vector<char> mask(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t before = counter.value();
    mask[i] = 1;
    ubf.update_flags(frames, flags, /*alive=*/nullptr, &mask, 1);
    mask[i] = 0;
    out[i] = counter.value() != before;
  }
  obs::set_enabled(false);
  obs::Registry::global().reset();
  return out;
}

/// The ubf.* work counters of one true-coordinates run.
std::map<std::string, std::uint64_t> ubf_counters(
    const core::UnitBallFitting& ubf, unsigned threads) {
  obs::Registry::global().reset();
  std::vector<float> confidence;
  (void)ubf.detect_with_true_coordinates(nullptr, nullptr, &confidence,
                                         threads);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] :
       obs::Registry::global().snapshot().counters) {
    if (name.rfind("ubf.", 0) == 0) out[name] = value;
  }
  return out;
}

// Flags, confidence and fallbacks of the true-coordinates driver equal
// literal Algorithm 1 under both scopes, at 1 and 4 threads, on the
// network and on an id-shuffled copy, and under the default two-hop scope
// the interior certificate settles some nodes (so the comparison covers
// it). On the network itself the ubf.* work counters are equal at 1 and 4
// threads, and the driver certifies exactly the nodes whose full view the
// literal certificate certifies, node for node: the one-hop-first
// certificate settles no node the full certificate would not, and misses
// none.
void expect_bit_identical(const net::Network& network) {
  const net::Network permuted = shuffled(network, 77);
  for (const auto scope : {core::UbfConfig::EmptinessScope::kTwoHop,
                           core::UbfConfig::EmptinessScope::kOneHop}) {
    const bool two_hop = scope == core::UbfConfig::EmptinessScope::kTwoHop;
    core::UbfConfig cfg;
    cfg.scope = scope;
    for (const net::Network* net : {&network, &permuted}) {
      const core::UnitBallFitting ubf(*net, cfg);
      const NaiveResult reference = naive_run(*net, ubf);
      for (const unsigned threads : {1u, 4u}) {
        const std::string what =
            std::string(two_hop ? "two-hop" : "one-hop") +
            (net == &permuted ? ", shuffled ids, " : ", ") +
            std::to_string(threads) + " threads";
        std::size_t fallbacks = 0;
        std::vector<float> confidence;
        const std::vector<bool> optimized = ubf.detect_with_true_coordinates(
            &fallbacks, nullptr, &confidence, threads);
        ASSERT_EQ(optimized.size(), reference.flags.size());
        ASSERT_EQ(confidence.size(), reference.confidence.size());
        for (std::size_t i = 0; i < optimized.size(); ++i) {
          ASSERT_EQ(optimized[i], reference.flags[i])
              << "node " << i << " diverges, " << what;
          ASSERT_EQ(confidence[i], reference.confidence[i])
              << "node " << i << " confidence diverges, " << what;
        }
        EXPECT_EQ(fallbacks, reference.fallbacks) << what;
      }
      const auto certified = static_cast<std::uint64_t>(std::count(
          reference.certified.begin(), reference.certified.end(), true));
      if (two_hop) {
        EXPECT_GT(certified, 0u);
      }
      if (net != &network) continue;
      EXPECT_EQ(driver_certified(ubf, net->num_nodes(), nullptr),
                reference.certified);
      obs::set_enabled(true);
      const auto serial = ubf_counters(ubf, 1);
      const auto parallel = ubf_counters(ubf, 4);
      obs::set_enabled(false);
      obs::Registry::global().reset();
      EXPECT_EQ(serial, parallel);
      const auto it = serial.find("ubf.nodes_certified");
      EXPECT_EQ(it == serial.end() ? 0u : it->second, certified);
    }
  }
}

TEST(UbfOracle, BitIdenticalOnSphere) {
  const model::SphereShape shape({0, 0, 0}, 2.6);
  expect_bit_identical(build_test_network(shape, 11));
}

// The same sphere far from the origin: every coordinate near 1e4, where
// the certificate's margin must also absorb absolute rounding.
TEST(UbfOracle, BitIdenticalOnTranslatedSphere) {
  const model::SphereShape shape({0, 0, 0}, 2.6);
  const net::Network base = build_test_network(shape, 11);
  std::vector<geom::Vec3> moved;
  std::vector<bool> truth;
  for (net::NodeId i = 0; i < base.num_nodes(); ++i) {
    moved.push_back(base.position(i) + geom::Vec3{1e4, -1e4, 1e4});
    truth.push_back(base.is_ground_truth_boundary(i));
  }
  expect_bit_identical(
      net::Network(std::move(moved), std::move(truth), base.radio_range()));
}

// Uniformly random nodes in a box (average degree about 15): no surface
// sampling, so boundary and interior nodes have no designed structure.
TEST(UbfOracle, BitIdenticalOnRandomBoxes) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<geom::Vec3> positions;
    for (int i = 0; i < 450; ++i) {
      const double x = rng.uniform(0.0, 5.0);
      const double y = rng.uniform(0.0, 5.0);
      positions.push_back({x, y, rng.uniform(0.0, 5.0)});
    }
    const std::size_t n = positions.size();
    expect_bit_identical(
        net::Network(std::move(positions), std::vector<bool>(n, false), 1.0));
  }
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

// What a certificate claims, checked directly: every point of S(self, r)
// (sampled) lies strictly inside some member's blocking ball by at least
// δ/2. Returns the first uncovered sample's index, or `samples` when all
// are covered.
int first_uncovered_sample(const std::vector<geom::Vec3>& coords,
                           std::size_t witness_count, double r,
                           core::UnitBallFitting::InsideLimits limits,
                           Rng& rng, int samples) {
  const double slack = core::certificate_margin(r, coords[0]) / 2.0;
  const double reach_one = std::sqrt(limits.one_hop_sq) - slack;
  const double reach_two = std::sqrt(limits.two_hop_sq) - slack;
  for (int s = 0; s < samples; ++s) {
    const geom::Vec3 p = coords[0] + geom::sample_on_unit_sphere(rng) * r;
    bool covered = false;
    for (std::size_t u = 1; u < coords.size() && !covered; ++u) {
      const double reach = u < witness_count ? reach_one : reach_two;
      covered = reach > 0.0 && coords[u].distance_to(p) < reach;
    }
    if (!covered) return s;
  }
  return samples;
}

// One node's member set for the certificate property test: coords[0] is the
// node, then `witness_count − 1` one-hop members within distance 1 (the
// radio range), then two-hop members between 1 and 2.
struct Cloud {
  std::vector<geom::Vec3> coords;
  std::size_t witness_count = 0;
};

enum class CloudKind {
  kDense,       // interior-like: the certificate should often fire
  kSparse,      // few members
  kHalfSpace,   // members only below the node: a surface node
  kCoplanar,    // everything in one plane, the solver's collinear cases
  kDuplicates,  // exact copies and copies 1e-11..1e-9 apart
  kTranslated,  // a dense cloud moved to coordinates near 1e4
};

Cloud random_cloud(Rng& rng, CloudKind kind) {
  const bool sparse = kind == CloudKind::kSparse;
  const auto one_hop = static_cast<int>(
      sparse ? rng.uniform_int(3, 8) : rng.uniform_int(12, 30));
  const auto two_hop = static_cast<int>(
      sparse ? rng.uniform_int(0, 15) : rng.uniform_int(4, 7) * one_hop);
  Cloud cloud;
  cloud.coords.push_back({0, 0, 0});
  const auto place = [&](double lo, double hi) {
    geom::Vec3 p;
    do {
      p = geom::sample_in_ball(rng, {0, 0, 0}, hi);
    } while (p.norm() < lo);
    if (kind == CloudKind::kHalfSpace && p.z > 0.0) p.z = -p.z;
    if (kind == CloudKind::kCoplanar) p.z = 0.0;
    return p;
  };
  for (int m = 0; m < one_hop; ++m) cloud.coords.push_back(place(0.0, 1.0));
  cloud.witness_count = cloud.coords.size();
  for (int m = 0; m < two_hop; ++m) cloud.coords.push_back(place(1.0, 2.0));
  if (kind == CloudKind::kDuplicates) {
    // Duplicates among the witnesses: exact copies and near copies whose
    // triples sit at the solver's collinearity gate.
    std::vector<geom::Vec3> extra;
    for (std::size_t m = 1; m < cloud.witness_count; m += 3) {
      extra.push_back(cloud.coords[m]);
      const double gap = std::pow(10.0, rng.uniform(-11.0, -9.0));
      extra.push_back(cloud.coords[m] +
                      geom::sample_on_unit_sphere(rng) * gap);
    }
    cloud.coords.insert(
        cloud.coords.begin() + static_cast<std::ptrdiff_t>(cloud.witness_count),
        extra.begin(), extra.end());
    cloud.witness_count += extra.size();
  }
  if (kind == CloudKind::kTranslated) {
    for (geom::Vec3& p : cloud.coords) p += geom::Vec3{1e4, -1e4, 1e4};
  }
  return cloud;
}

// The certificate's soundness, on seeded random member clouds: the public
// kernels certify exactly the clouds the literal certificate does, and
// whenever they settle one, naive enumeration of every one-hop pair finds
// no empty ball, under zero and noisy inside-limits, and sampled points of
// the sphere are covered as claimed. The kernel's count and collected
// pairs also equal the naive ones on every cloud.
TEST(UbfOracle, CertifiedCloudsHaveNoEmptyBall) {
  const net::Network unit_range({{0, 0, 0}}, {false}, 1.0);
  core::UbfConfig cfg;
  cfg.measurement_error_hint = 0.1;
  const core::UnitBallFitting ubf(unit_range, cfg);
  const double r = ubf.ball_radius();
  constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  Rng rng(2024);
  std::size_t certified[6] = {};
  std::size_t subset_certified = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const auto kind = static_cast<CloudKind>(trial % 6);
    const Cloud cloud = random_cloud(rng, kind);
    // Zero uncertainty (true coordinates), frame-like residuals, and a
    // negative value (the `measurement_error_hint` fallback).
    const double uncertainty =
        std::array<double, 4>{0.0, 0.01, 0.05, -1.0}[trial / 6 % 4];
    const core::UnitBallFitting::InsideLimits limits =
        ubf.inside_limits(uncertainty);
    const std::size_t naive =
        naive_empty_balls(cloud.coords, cloud.witness_count, r, limits, kAll);

    core::UbfNodeDiagnostics diag;
    const std::size_t counted = ubf.count_empty_balls(
        cloud.coords, 0, cloud.witness_count, kAll, uncertainty, &diag);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " kind "
                                      << static_cast<int>(kind));
    EXPECT_EQ(counted, naive);
    EXPECT_EQ(diag.certified,
              literal_certified(cloud.coords, cloud.witness_count, r, limits));
    if (diag.certified) {
      ++certified[static_cast<int>(kind)];
      EXPECT_EQ(naive, 0u);
      EXPECT_EQ(diag.balls_tested, 0u);
      EXPECT_EQ(diag.trisphere_solves, 0u);
      EXPECT_EQ(first_uncovered_sample(cloud.coords, cloud.witness_count, r,
                                       limits, rng, 1000),
                1000);
    }
    core::UbfNodeDiagnostics collect_diag;
    EXPECT_EQ(ubf.collect_empty_balls(cloud.coords, 0, cloud.witness_count,
                                      6, uncertainty, &collect_diag),
              naive_empty_pairs(cloud.coords, cloud.witness_count, r, limits,
                                6));
    EXPECT_EQ(collect_diag.certified, diag.certified);
    core::UbfNodeDiagnostics test_diag;
    (void)ubf.test_node(cloud.coords, 0, cloud.witness_count, &test_diag,
                        uncertainty);
    EXPECT_EQ(test_diag.certified, diag.certified);
    // A cover by a subset of the members is a cover by all of them: when
    // the one-hop members alone certify, the full cloud certifies too
    // (the true-coordinates driver settles such nodes before gathering
    // their two-hop members).
    const std::vector<geom::Vec3> one_hop(
        cloud.coords.begin(),
        cloud.coords.begin() +
            static_cast<std::ptrdiff_t>(cloud.witness_count));
    core::UbfNodeDiagnostics one_hop_diag;
    (void)ubf.count_empty_balls(one_hop, 0, one_hop.size(), 1, uncertainty,
                                &one_hop_diag);
    if (one_hop_diag.certified) {
      ++subset_certified;
      EXPECT_TRUE(diag.certified);
    }
  }
  EXPECT_GT(subset_certified, 20u);
  // The certificate must actually fire on interior-like clouds, wherever
  // they sit, and never on surface-like or planar ones.
  EXPECT_GT(certified[static_cast<int>(CloudKind::kDense)], 20u);
  EXPECT_GT(certified[static_cast<int>(CloudKind::kDuplicates)], 20u);
  EXPECT_GT(certified[static_cast<int>(CloudKind::kTranslated)], 20u);
  EXPECT_EQ(certified[static_cast<int>(CloudKind::kHalfSpace)], 0u);
  EXPECT_EQ(certified[static_cast<int>(CloudKind::kCoplanar)], 0u);
}

// The frame path, node by node: on noisy frames from `build_all_frames`
// (three networks, e = 0, 0.2 and 0.4, both scopes), each node's kernel
// count and collected pairs equal naive enumeration in its own frame at
// its own residual, the kernels and the driver certify exactly the nodes
// the literal certificate does, and a certified node has no empty ball
// and a covered sphere. The driver's certified count is also equal at 1
// and 4 threads.
TEST(UbfOracle, FramePathMatchesNaivePerNode) {
  const model::SphereShape shape({0, 0, 0}, 2.2);
  constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  Rng rng(31);
  std::size_t certified_two_hop = 0;
  for (const std::uint64_t seed : {16u, 17u, 18u}) {
    const net::Network network = build_test_network(shape, seed);
    const std::size_t n = network.num_nodes();
    for (const double error : {0.0, 0.2, 0.4}) {
      const net::NoisyDistanceModel model(network, error, 9);
      const localization::Localizer localizer(network, model);
      for (const auto scope : {core::UbfConfig::EmptinessScope::kTwoHop,
                               core::UbfConfig::EmptinessScope::kOneHop}) {
        const bool two_hop =
            scope == core::UbfConfig::EmptinessScope::kTwoHop;
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " e " << error
                     << (two_hop ? " two-hop" : " one-hop"));
        std::vector<localization::LocalFrame> frames;
        localization::build_all_frames(
            localizer,
            two_hop ? localization::FrameScope::kTwoHop
                    : localization::FrameScope::kOneHop,
            frames, 4);
        core::UbfConfig cfg;
        cfg.measurement_error_hint = error;
        cfg.scope = scope;
        const core::UnitBallFitting ubf(network, cfg);
        const double r = ubf.ball_radius();
        // What the driver certifies: the literal certificate on the nodes
        // it tests (usable frame, reliable residual).
        std::vector<bool> reference(n, false);
        for (net::NodeId i = 0; i < n; ++i) {
          const localization::LocalFrame& frame = frames[i];
          if (!frame.ok) continue;
          const core::UnitBallFitting::InsideLimits limits =
              ubf.inside_limits(frame.stress_rms);
          const bool literal = literal_certified(
              frame.coords, frame.one_hop_count, r, limits);
          reference[i] = literal && ubf.frame_reliable(frame.stress_rms);
          const std::size_t naive = naive_empty_balls(
              frame.coords, frame.one_hop_count, r, limits, kAll);
          core::UbfNodeDiagnostics diag;
          EXPECT_EQ(ubf.count_empty_balls(frame.coords, 0,
                                          frame.one_hop_count, kAll,
                                          frame.stress_rms, &diag),
                    naive)
              << "node " << i;
          EXPECT_EQ(diag.certified, literal) << "node " << i;
          if (diag.certified) {
            EXPECT_EQ(naive, 0u) << "certified node " << i;
            EXPECT_EQ(first_uncovered_sample(frame.coords, frame.one_hop_count,
                                             r, limits, rng, 200),
                      200)
                << "certified node " << i;
          }
          core::UbfNodeDiagnostics collect_diag;
          EXPECT_EQ(ubf.collect_empty_balls(frame.coords, 0,
                                            frame.one_hop_count,
                                            core::kVerifyPool,
                                            frame.stress_rms, &collect_diag),
                    naive_empty_pairs(frame.coords, frame.one_hop_count, r,
                                      limits, core::kVerifyPool))
              << "node " << i;
          EXPECT_EQ(collect_diag.certified, literal) << "node " << i;
        }
        const auto certified = static_cast<std::uint64_t>(
            std::count(reference.begin(), reference.end(), true));
        if (two_hop) certified_two_hop += certified;
        EXPECT_EQ(driver_certified(ubf, n, &frames), reference);
        for (const unsigned threads : {1u, 4u}) {
          obs::set_enabled(true);
          obs::Registry::global().reset();
          (void)ubf.detect_on_frames(frames, threads);
          EXPECT_EQ(
              obs::Registry::global().counter("ubf.nodes_certified").value(),
              certified)
              << threads << " threads";
          obs::set_enabled(false);
          obs::Registry::global().reset();
        }
      }
    }
  }
  EXPECT_GT(certified_two_hop, 0u);
}

// The scratch arena is thread-local state; distribution of nodes over
// workers must not leak into the result, on either coordinate path.
TEST(UbfOracle, DetectIsDeterministicAcrossThreadCounts) {
  const model::SphereShape shape({0, 0, 0}, 2.2);
  const net::Network network = build_test_network(shape, 15);
  const net::NoisyDistanceModel model(network, 0.05, 7);
  const localization::Localizer localizer(network, model);
  const core::UnitBallFitting ubf(network);

  const auto detect = [&](unsigned threads) {
    std::vector<localization::LocalFrame> frames;
    localization::build_all_frames(
        localizer, localization::FrameScope::kTwoHop, frames, threads);
    return ubf.detect_on_frames(frames, threads);
  };
  const std::vector<bool> t1 = detect(1);
  const std::vector<bool> t2 = detect(2);
  const std::vector<bool> t8 = detect(8);
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
