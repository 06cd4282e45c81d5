// Tests for the two-hop localization machinery: MDS-MAP(P) patches, the
// subspace eigensolver, and SMACOF.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "geom/sampling.hpp"
#include "linalg/eigen.hpp"
#include "linalg/mds.hpp"
#include "linalg/procrustes.hpp"
#include "localization/local_frame.hpp"
#include "model/shapes.hpp"
#include "net/builder.hpp"
#include "net/graph.hpp"

namespace ballfit::localization {
namespace {

using geom::Vec3;
using net::NodeId;

net::Network random_network(std::uint64_t seed) {
  Rng rng(seed);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = 300;
  opt.interior_count = 500;
  return net::build_network(shape, opt, rng);
}

TEST(MdsMapFrame, CoversExactlyTheTwoHopNeighborhood) {
  const net::Network net = random_network(1);
  const net::NoisyDistanceModel model(net, 0.0, 1);
  const Localizer loc(net, model);

  const NodeId v = 5;
  const LocalFrame frame = loc.mdsmap_frame(v);
  ASSERT_TRUE(frame.ok);
  EXPECT_EQ(frame.members[0], v);
  EXPECT_EQ(frame.one_hop_count, net.degree(v) + 1);

  // Members beyond one_hop_count are exactly the nodes at hop distance 2.
  const auto dist = net::hop_distances(net, v, nullptr, 2);
  std::set<NodeId> expect_two_hop;
  for (NodeId u = 0; u < net.num_nodes(); ++u)
    if (dist[u] == 2) expect_two_hop.insert(u);
  std::set<NodeId> got(frame.members.begin() + frame.one_hop_count,
                       frame.members.end());
  EXPECT_EQ(got, expect_two_hop);
}

TEST(MdsMapFrame, TwoHopTailIsSorted) {
  const net::Network net = random_network(2);
  const net::NoisyDistanceModel model(net, 0.1, 2);
  const Localizer loc(net, model);
  const LocalFrame frame = loc.mdsmap_frame(0);
  ASSERT_TRUE(frame.ok);
  EXPECT_TRUE(std::is_sorted(frame.members.begin() + frame.one_hop_count,
                             frame.members.end()));
}

TEST(MdsMapFrame, ZeroErrorStressNearZero) {
  const net::Network net = random_network(3);
  const net::NoisyDistanceModel model(net, 0.0, 1);
  const Localizer loc(net, model);
  double worst = 0.0;
  for (NodeId v = 0; v < net.num_nodes(); v += 97) {
    const LocalFrame frame = loc.mdsmap_frame(v);
    if (frame.ok) worst = std::max(worst, frame.stress_rms);
  }
  EXPECT_LT(worst, 0.05);
}

TEST(MdsMapFrame, StressGrowsWithNoise) {
  const net::Network net = random_network(4);
  const net::NoisyDistanceModel clean(net, 0.0, 1);
  const net::NoisyDistanceModel noisy(net, 0.4, 1);
  const Localizer lc(net, clean), ln(net, noisy);
  double sc = 0.0, sn = 0.0;
  int count = 0;
  for (NodeId v = 0; v < net.num_nodes(); v += 131) {
    const auto fc = lc.mdsmap_frame(v);
    const auto fn = ln.mdsmap_frame(v);
    if (!fc.ok || !fn.ok) continue;
    sc += fc.stress_rms;
    sn += fn.stress_rms;
    ++count;
  }
  ASSERT_GT(count, 2);
  EXPECT_LT(sc, sn);
  // The residual sits at the order of the noise floor e/√3 ≈ 0.23 (below
  // it when SMACOF partially fits the noise, never far above it).
  EXPECT_GT(sn / count, 0.05);
  EXPECT_LT(sn / count, 0.40);
}

TEST(MdsMapFrame, BetterThanOneHopAtModerateNoise) {
  const net::Network net = random_network(5);
  const net::NoisyDistanceModel model(net, 0.2, 9);
  const Localizer loc(net, model);
  double e1 = 0.0, e2 = 0.0;
  int count = 0;
  for (NodeId v = 0; v < net.num_nodes(); v += 61) {
    const auto f1 = loc.local_frame(v);
    const auto f2 = loc.mdsmap_frame(v);
    if (!f1.ok || !f2.ok) continue;
    e1 += loc.frame_rms_error(f1);
    e2 += loc.frame_rms_error(f2);
    ++count;
  }
  ASSERT_GT(count, 5);
  // Whole-frame RMS of the (larger) two-hop patch should at least be in
  // the same ballpark; per-constraint it is much better constrained. The
  // robust check: the patch error must not blow up relative to one-hop.
  EXPECT_LT(e2 / count, 2.5 * (e1 / count) + 0.05);
}

TEST(EigenTopK, MatchesFullDecompositionOnLargeMatrix) {
  Rng rng(8);
  const std::size_t n = 40;  // above the dense-path cutoff
  linalg::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r; c < n; ++c) m(r, c) = m(c, r) = rng.uniform(-1, 1);
  const auto full = linalg::eigen_symmetric(m);
  const auto topk = linalg::eigen_top_k(m, 3, 2000, 1e-12);
  for (int k = 0; k < 3; ++k) {
    EXPECT_NEAR(topk.values[static_cast<std::size_t>(k)],
                full.values[static_cast<std::size_t>(k)], 1e-6);
  }
}

TEST(EigenTopK, SortsPairsWhenDominantConvergesLast) {
  // Adversarial construction: make the iteration's own deterministic init
  // block the eigenbasis, with the *largest* eigenvalue on the direction
  // only the LAST init column reaches. Column c of the init is invariant
  // under one power step + Gram-Schmidt (each A·x_c re-lands in the span
  // already assigned to column c), so without an explicit output sort the
  // pairs converge — and would be returned — in the order [5, 2, 10].
  const std::size_t n = 32;  // above the dense-path cutoff
  const int k = 3;
  // Replicate eigen_top_k's init: column-major splitmix64 stream.
  std::vector<std::vector<double>> q(k, std::vector<double>(n));
  std::uint64_t seed = 0x243f6a8885a308d3ULL;
  for (int c = 0; c < k; ++c)
    for (std::size_t r = 0; r < n; ++r)
      q[static_cast<std::size_t>(c)][r] =
          double(splitmix64(seed) >> 11) * 0x1.0p-53 - 0.5;
  // Gram-Schmidt → orthonormal basis {q0, q1, q2}.
  for (int c = 0; c < k; ++c) {
    auto& col = q[static_cast<std::size_t>(c)];
    for (int p = 0; p < c; ++p) {
      double proj = 0.0;
      for (std::size_t r = 0; r < n; ++r)
        proj += col[r] * q[static_cast<std::size_t>(p)][r];
      for (std::size_t r = 0; r < n; ++r)
        col[r] -= proj * q[static_cast<std::size_t>(p)][r];
    }
    double norm = 0.0;
    for (std::size_t r = 0; r < n; ++r) norm += col[r] * col[r];
    norm = std::sqrt(norm);
    for (std::size_t r = 0; r < n; ++r) col[r] /= norm;
  }
  // A = 5·q0q0ᵀ + 2·q1q1ᵀ + 10·q2q2ᵀ — dominant pair on q2.
  const double lambda[3] = {5.0, 2.0, 10.0};
  linalg::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      for (int e = 0; e < k; ++e)
        m(r, c) += lambda[e] * q[static_cast<std::size_t>(e)][r] *
                   q[static_cast<std::size_t>(e)][c];

  const auto topk = linalg::eigen_top_k(m, k);
  ASSERT_EQ(topk.values.size(), 3u);
  EXPECT_NEAR(topk.values[0], 10.0, 1e-6);
  EXPECT_NEAR(topk.values[1], 5.0, 1e-6);
  EXPECT_NEAR(topk.values[2], 2.0, 1e-6);
  // The dominant eigenvector must ride in column 0 after the sort.
  double align = 0.0;
  for (std::size_t r = 0; r < n; ++r)
    align += topk.vectors(r, 0) * q[2][r];
  EXPECT_NEAR(std::fabs(align), 1.0, 1e-6);
}

TEST(EigenTopK, SmallMatrixDensePath) {
  linalg::Matrix m(3, 3);
  m(0, 0) = 4;
  m(1, 1) = 2;
  m(2, 2) = 1;
  const auto topk = linalg::eigen_top_k(m, 2);
  ASSERT_EQ(topk.values.size(), 2u);
  EXPECT_NEAR(topk.values[0], 4.0, 1e-10);
  EXPECT_NEAR(topk.values[1], 2.0, 1e-10);
  EXPECT_EQ(topk.vectors.cols(), 2u);
}

TEST(Smacof, ZeroStressAtTrueConfiguration) {
  Rng rng(9);
  std::vector<Vec3> truth;
  for (int i = 0; i < 12; ++i)
    truth.push_back(geom::sample_in_ball(rng, {0, 0, 0}, 1.5));
  const std::size_t n = truth.size();
  linalg::Matrix d(n, n), w(n, n, 1.0);
  for (std::size_t a = 0; a < n; ++a) {
    w(a, a) = 0.0;
    for (std::size_t b = 0; b < n; ++b) d(a, b) = truth[a].distance_to(truth[b]);
  }
  double stress = 1.0;
  const auto refined = linalg::smacof_refine(d, w, truth, {}, &stress);
  EXPECT_LT(stress, 1e-12);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LT(refined[i].distance_to(truth[i]), 1e-6);
}

TEST(Smacof, ReducesStressFromPerturbedInit) {
  Rng rng(10);
  std::vector<Vec3> truth, init;
  for (int i = 0; i < 15; ++i) {
    truth.push_back(geom::sample_in_ball(rng, {0, 0, 0}, 1.5));
    init.push_back(truth.back() +
                   geom::sample_in_ball(rng, {0, 0, 0}, 0.3));
  }
  const std::size_t n = truth.size();
  linalg::Matrix d(n, n), w(n, n, 1.0);
  for (std::size_t a = 0; a < n; ++a) {
    w(a, a) = 0.0;
    for (std::size_t b = 0; b < n; ++b) d(a, b) = truth[a].distance_to(truth[b]);
  }
  // Initial stress.
  double s0 = 0.0;
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b) {
      const double diff = init[a].distance_to(init[b]) - d(a, b);
      s0 += diff * diff;
    }
  double s1 = 0.0;
  (void)linalg::smacof_refine(d, w, init, {}, &s1);
  EXPECT_LT(s1, s0 * 0.01);
}

TEST(Smacof, HonorsZeroWeights) {
  // A pair with weight zero may end up at any distance; only weighted
  // pairs are pulled to target.
  std::vector<Vec3> init = {{0, 0, 0}, {2, 0, 0}, {0, 3, 0}};
  linalg::Matrix d(3, 3), w(3, 3, 0.0);
  d(0, 1) = d(1, 0) = 1.0;
  w(0, 1) = w(1, 0) = 1.0;
  // Pair (0,2) and (1,2) unconstrained.
  linalg::SmacofConfig cfg;
  cfg.max_sweeps = 200;
  const auto out = linalg::smacof_refine(d, w, init, cfg);
  EXPECT_NEAR(out[0].distance_to(out[1]), 1.0, 1e-9);
  // Node 2 has no constraints at all: it must not move.
  EXPECT_EQ(out[2], (Vec3{0, 3, 0}));
}

}  // namespace
}  // namespace ballfit::localization
