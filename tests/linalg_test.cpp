// Tests for src/linalg: Matrix ops, Jacobi eigensolver, classical MDS,
// Procrustes alignment. MDS tests verify recovery of synthetic geometry up
// to rigid motion (the gauge freedom Procrustes factors out).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "geom/sampling.hpp"
#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "linalg/mds.hpp"
#include "linalg/procrustes.hpp"

namespace ballfit::linalg {
namespace {

using geom::Vec3;

TEST(Matrix, IdentityAndIndexing) {
  Matrix m = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
}

TEST(Matrix, ProductAgainstHandComputed) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Matrix b(3, 2);
  b(0, 0) = 7; b(0, 1) = 8;
  b(1, 0) = 9; b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(3);
  Matrix m(4, 6);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 6; ++c) m(r, c) = rng.uniform(-1, 1);
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 6u);
  EXPECT_EQ(t.cols(), 4u);
  const Matrix tt = t.transposed();
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 6; ++c) EXPECT_DOUBLE_EQ(tt(r, c), m(r, c));
}

TEST(Matrix, DimensionMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a * b, InvalidArgument);
  Matrix c(2, 2);
  EXPECT_THROW(a + c, InvalidArgument);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m(2, 2);
  m(0, 0) = 3;
  m(1, 1) = 4;
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(Eigen, DiagonalMatrixIsItsOwnDecomposition) {
  Matrix m(3, 3);
  m(0, 0) = 5; m(1, 1) = 2; m(2, 2) = -1;
  const auto eig = eigen_symmetric(m);
  ASSERT_TRUE(eig.converged);
  EXPECT_NEAR(eig.values[0], 5.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.values[2], -1.0, 1e-12);
}

TEST(Eigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix m(2, 2);
  m(0, 0) = 2; m(0, 1) = 1; m(1, 0) = 1; m(1, 1) = 2;
  const auto eig = eigen_symmetric(m);
  ASSERT_TRUE(eig.converged);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
}

TEST(Eigen, ReconstructsRandomSymmetricMatrix) {
  Rng rng(17);
  const std::size_t n = 12;
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r; c < n; ++c) {
      m(r, c) = m(c, r) = rng.uniform(-2.0, 2.0);
    }
  const auto eig = eigen_symmetric(m);
  ASSERT_TRUE(eig.converged);
  // Reconstruct A = V Λ Vᵀ and compare entrywise.
  Matrix lambda(n, n);
  for (std::size_t i = 0; i < n; ++i) lambda(i, i) = eig.values[i];
  const Matrix rec = eig.vectors * lambda * eig.vectors.transposed();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_NEAR(rec(r, c), m(r, c), 1e-9);
}

TEST(Eigen, VectorsAreOrthonormal) {
  Rng rng(18);
  const std::size_t n = 10;
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r; c < n; ++c) m(r, c) = m(c, r) = rng.uniform(0, 1);
  const auto eig = eigen_symmetric(m);
  const Matrix vtv = eig.vectors.transposed() * eig.vectors;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_NEAR(vtv(r, c), r == c ? 1.0 : 0.0, 1e-10);
}

TEST(Eigen, RejectsAsymmetricInput) {
  Matrix m(2, 2);
  m(0, 1) = 1.0;
  m(1, 0) = -1.0;
  EXPECT_THROW(eigen_symmetric(m), InvalidArgument);
}

/// `eigen_top_k` above its dense cutoff, written out literally: one
/// column of (A + σI)·x at a time (row r sums σ·x[r], then A(r,j)·x[j]
/// for ascending j), a fresh matvec for every power step and every
/// Rayleigh product, modified Gram–Schmidt, and a stable sort by
/// descending eigenvalue. Any blocking or unrolling of the library's
/// matvec must reproduce these bits.
EigenDecomposition reference_top_k(const Matrix& a, int k, int max_iters,
                                   double tol, bool data_seed) {
  const std::size_t n = a.rows();
  const auto kk = static_cast<std::size_t>(k);
  const double shift = a.frobenius_norm() + 1e-30;
  std::vector<std::vector<double>> x(kk, std::vector<double>(n));
  if (data_seed) {
    std::vector<std::pair<double, std::size_t>> norms(n);
    for (std::size_t c = 0; c < n; ++c) {
      double s = 0.0;
      for (std::size_t r = 0; r < n; ++r) s += a(r, c) * a(r, c);
      norms[c] = {-s, c};
    }
    std::stable_sort(norms.begin(), norms.end());
    for (std::size_t c = 0; c < kk; ++c)
      for (std::size_t r = 0; r < n; ++r) x[c][r] = a(r, norms[c].second);
  } else {
    std::uint64_t seed = 0x243f6a8885a308d3ULL;
    for (std::size_t c = 0; c < kk; ++c)
      for (std::size_t r = 0; r < n; ++r)
        x[c][r] = double(splitmix64(seed) >> 11) * 0x1.0p-53 - 0.5;
  }
  const auto matvec = [&](const std::vector<double>& v) {
    std::vector<double> y(n);
    for (std::size_t r = 0; r < n; ++r) {
      double s = shift * v[r];
      for (std::size_t j = 0; j < n; ++j) s += a(r, j) * v[j];
      y[r] = s;
    }
    return y;
  };
  const auto dot = [&](const std::vector<double>& p,
                       const std::vector<double>& q) {
    double s = 0.0;
    for (std::size_t r = 0; r < n; ++r) s += p[r] * q[r];
    return s;
  };

  EigenDecomposition out;
  std::vector<double> values(kk, 0.0);
  for (int iter = 0; iter < max_iters; ++iter) {
    std::vector<std::vector<double>> y(kk);
    for (std::size_t c = 0; c < kk; ++c) y[c] = matvec(x[c]);
    for (std::size_t c = 0; c < kk; ++c) {
      x[c] = y[c];
      for (std::size_t p = 0; p < c; ++p) {
        const double proj = dot(x[c], x[p]);
        for (std::size_t r = 0; r < n; ++r) x[c][r] -= proj * x[p][r];
      }
      const double norm = std::sqrt(std::max(1e-300, dot(x[c], x[c])));
      for (std::size_t r = 0; r < n; ++r) x[c][r] /= norm;
    }
    bool stable = true;
    for (std::size_t c = 0; c < kk; ++c) {
      const double lambda = dot(x[c], matvec(x[c])) - shift;
      if (std::fabs(lambda - values[c]) > tol * (std::fabs(lambda) + 1.0))
        stable = false;
      values[c] = lambda;
    }
    out.sweeps = iter + 1;
    if (stable && iter > 2) {
      out.converged = true;
      break;
    }
  }
  std::vector<std::size_t> order(kk);
  for (std::size_t c = 0; c < kk; ++c) order[c] = c;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t p,
                                                   std::size_t q) {
    return values[p] > values[q];
  });
  out.values.resize(kk);
  out.vectors = Matrix(n, kk);
  for (std::size_t c = 0; c < kk; ++c) {
    out.values[c] = values[order[c]];
    for (std::size_t r = 0; r < n; ++r) out.vectors(r, c) = x[order[c]][r];
  }
  return out;
}

TEST(Eigen, TopKMatchesLiteralReferenceBitForBit) {
  // Every n mod 4 just above the n <= 24 dense cutoff, the k = 3 kernel
  // the MDS init runs and the generic k = 2 path, both seeds, and both
  // budgets the frame build uses (the reference 60 / 1e-6 and the looser
  // default-tier tolerance). The inputs are centered Gram matrices of
  // noisy distance matrices, like the frame build's.
  Rng rng(41);
  for (std::size_t n = 25; n <= 32; ++n) {
    std::vector<Vec3> pts(n);
    for (Vec3& p : pts)
      p = {rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 2)};
    Matrix d(n, n, 0.0);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = r + 1; c < n; ++c)
        d(r, c) = d(c, r) =
            pts[r].distance_to(pts[c]) + rng.uniform(-0.2, 0.2);
    const Matrix gram = double_center(d);
    for (const int k : {3, 2})
      for (const bool data_seed : {false, true})
        for (const double tol : {1e-6, 1e-4}) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " k=" << k << " data_seed="
                       << data_seed << " tol=" << tol);
          const EigenDecomposition got =
              eigen_top_k(gram, k, 60, tol, data_seed);
          const EigenDecomposition want =
              reference_top_k(gram, k, 60, tol, data_seed);
          EXPECT_EQ(got.sweeps, want.sweeps);
          EXPECT_EQ(got.converged, want.converged);
          ASSERT_EQ(got.values.size(), want.values.size());
          for (std::size_t c = 0; c < want.values.size(); ++c) {
            EXPECT_EQ(got.values[c], want.values[c]) << "value " << c;
            for (std::size_t r = 0; r < n; ++r)
              EXPECT_EQ(got.vectors(r, c), want.vectors(r, c))
                  << "vector " << c << " row " << r;
          }
        }
  }
}

TEST(Mds, RecoversPlanarSquare) {
  // Unit square: distances known, recover in 2D, check pairwise distances.
  const std::vector<Vec3> truth = {
      {0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}};
  Matrix d(4, 4);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) d(i, j) = truth[i].distance_to(truth[j]);
  const MdsResult res = classical_mds(d, 2);
  ASSERT_TRUE(res.converged);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_NEAR(res.coords[i].distance_to(res.coords[j]), d(i, j), 1e-9);
}

TEST(Mds, Recovers3DPointCloudUpToRigidMotion) {
  Rng rng(40);
  std::vector<Vec3> truth;
  for (int i = 0; i < 20; ++i)
    truth.push_back(geom::sample_in_ball(rng, {0, 0, 0}, 2.0));
  Matrix d(truth.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i)
    for (std::size_t j = 0; j < truth.size(); ++j)
      d(i, j) = truth[i].distance_to(truth[j]);
  const MdsResult res = classical_mds(d, 3);
  ASSERT_TRUE(res.converged);
  const auto aligned = procrustes_align(res.coords, truth);
  EXPECT_LT(aligned.rms_error, 1e-8);
}

TEST(Mds, NoisyDistancesDegradeGracefully) {
  Rng rng(41);
  std::vector<Vec3> truth;
  for (int i = 0; i < 15; ++i)
    truth.push_back(geom::sample_in_ball(rng, {0, 0, 0}, 1.0));
  Matrix d(truth.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i)
    for (std::size_t j = i + 1; j < truth.size(); ++j) {
      const double noise = rng.uniform(-0.05, 0.05);
      d(i, j) = d(j, i) = std::max(0.0, truth[i].distance_to(truth[j]) + noise);
    }
  const MdsResult res = classical_mds(d, 3);
  const auto aligned = procrustes_align(res.coords, truth);
  EXPECT_LT(aligned.rms_error, 0.15);  // small noise → small error
}

TEST(Mds, DoubleCenterRowsSumToZero) {
  Rng rng(42);
  const std::size_t n = 8;
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      d(i, j) = d(j, i) = rng.uniform(0.1, 2.0);
  const Matrix b = double_center(d);
  for (std::size_t r = 0; r < n; ++r) {
    double row = 0.0;
    for (std::size_t c = 0; c < n; ++c) row += b(r, c);
    EXPECT_NEAR(row, 0.0, 1e-10);
  }
}

TEST(Mds, HandlesTrivialSizes) {
  EXPECT_TRUE(classical_mds(Matrix(0, 0), 3).coords.empty());
  const auto one = classical_mds(Matrix(1, 1), 3);
  ASSERT_EQ(one.coords.size(), 1u);
  EXPECT_EQ(one.coords[0], (Vec3{}));
}

TEST(Procrustes, ExactRecoveryOfRotatedTranslatedCloud) {
  Rng rng(50);
  std::vector<Vec3> source;
  for (int i = 0; i < 12; ++i)
    source.push_back(geom::sample_in_ball(rng, {0, 0, 0}, 3.0));

  // Apply a known rotation (about z by 40°) + translation.
  const double th = 40.0 * std::numbers::pi / 180.0;
  std::vector<Vec3> target;
  for (const Vec3& p : source) {
    target.push_back({p.x * std::cos(th) - p.y * std::sin(th) + 5.0,
                      p.x * std::sin(th) + p.y * std::cos(th) - 2.0,
                      p.z + 1.0});
  }
  const auto res = procrustes_align(source, target);
  EXPECT_LT(res.rms_error, 1e-10);
  EXPECT_FALSE(res.reflected);
}

TEST(Procrustes, DetectsReflection) {
  Rng rng(51);
  std::vector<Vec3> source;
  for (int i = 0; i < 12; ++i)
    source.push_back(geom::sample_in_ball(rng, {0, 0, 0}, 3.0));
  std::vector<Vec3> target;
  for (const Vec3& p : source) target.push_back({p.x, p.y, -p.z});
  const auto res = procrustes_align(source, target);
  EXPECT_LT(res.rms_error, 1e-10);
  EXPECT_TRUE(res.reflected);
}

TEST(Procrustes, CoplanarPointsAlign) {
  // Rank-deficient covariance (all z = 0) exercises the basis-completion
  // path.
  std::vector<Vec3> source = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}};
  std::vector<Vec3> target = {{2, 2, 0}, {2, 3, 0}, {1, 2, 0}, {1, 3, 0}};
  const auto res = procrustes_align(source, target);
  EXPECT_LT(res.rms_error, 1e-10);
}

TEST(Procrustes, MismatchedSizesThrow) {
  EXPECT_THROW(
      procrustes_align({{0, 0, 0}}, {{0, 0, 0}, {1, 1, 1}}),
      InvalidArgument);
}

}  // namespace
}  // namespace ballfit::linalg
