#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.hpp"

namespace ballfit::linalg {

EigenDecomposition eigen_symmetric(const Matrix& m, double tol, int max_sweeps,
                                   double symmetry_tol) {
  BALLFIT_REQUIRE(m.rows() == m.cols(),
                  "eigen_symmetric needs a square matrix");
  const std::size_t n = m.rows();

  // Symmetrize; reject if the asymmetry is beyond tolerance.
  Matrix a(n, n);
  double max_entry = 0.0;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      double asym = std::fabs(m(r, c) - m(c, r));
      max_entry = std::max(max_entry, std::fabs(m(r, c)));
      a(r, c) = 0.5 * (m(r, c) + m(c, r));
      BALLFIT_REQUIRE(asym <= symmetry_tol * std::max(1.0, max_entry),
                      "eigen_symmetric: input is not symmetric");
    }

  Matrix v = Matrix::identity(n);
  EigenDecomposition out;

  const double scale = std::max(1.0, a.frobenius_norm());
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    out.sweeps = sweep + 1;
    if (a.max_off_diagonal() <= tol * scale) {
      out.converged = true;
      break;
    }
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::fabs(apq) <= 1e-300) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        // Stable computation of tan of the rotation angle.
        const double t = (theta >= 0.0)
                             ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                             : 1.0 / (theta - std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;

        // Apply the rotation G(p,q,θ)ᵀ A G(p,q,θ) in place.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  if (!out.converged && a.max_off_diagonal() <= tol * scale)
    out.converged = true;

  // Sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return a(i, i) > a(j, j); });

  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = a(order[k], order[k]);
    for (std::size_t r = 0; r < n; ++r) out.vectors(r, k) = v(r, order[k]);
  }
  return out;
}

EigenDecomposition eigen_top_k(const Matrix& m, int k, int max_iters,
                               double tol, bool data_seed) {
  BALLFIT_REQUIRE(m.rows() == m.cols(), "eigen_top_k needs a square matrix");
  const std::size_t n = m.rows();
  BALLFIT_REQUIRE(k >= 1 && static_cast<std::size_t>(k) <= n,
                  "k out of range");

  // For tiny matrices the dense path is both faster and more accurate.
  if (n <= 24) {
    EigenDecomposition full = eigen_symmetric(m);
    EigenDecomposition out;
    out.converged = full.converged;
    out.sweeps = full.sweeps;
    out.values.assign(full.values.begin(), full.values.begin() + k);
    out.vectors = Matrix(n, static_cast<std::size_t>(k));
    for (std::size_t r = 0; r < n; ++r)
      for (int c = 0; c < k; ++c)
        out.vectors(r, static_cast<std::size_t>(c)) =
            full.vectors(r, static_cast<std::size_t>(c));
    return out;
  }

  const double shift = m.frobenius_norm() + 1e-30;

  // Subspace block X (n×k), deterministically seeded.
  std::vector<std::vector<double>> x(static_cast<std::size_t>(k),
                                     std::vector<double>(n));
  if (data_seed) {
    // The k largest-norm matrix columns (ties by lower index). They span
    // mostly the dominant invariant subspace already, so the iteration
    // starts close to its fixpoint; the MGS step inside the loop
    // orthonormalizes them (near-parallel picks collapse to a clamped
    // tiny norm and re-expand along the residual, as any degenerate
    // column would).
    std::vector<std::pair<double, std::size_t>> norms(n);
    for (std::size_t c = 0; c < n; ++c) {
      double s = 0.0;
      for (std::size_t r = 0; r < n; ++r) s += m(r, c) * m(r, c);
      norms[c] = {-s, c};
    }
    std::stable_sort(norms.begin(), norms.end());
    for (int c = 0; c < k; ++c) {
      const std::size_t src = norms[static_cast<std::size_t>(c)].second;
      for (std::size_t r = 0; r < n; ++r)
        x[static_cast<std::size_t>(c)][r] = m(r, src);
    }
  } else {
    std::uint64_t seed = 0x243f6a8885a308d3ULL;
    for (int c = 0; c < k; ++c)
      for (std::size_t r = 0; r < n; ++r)
        x[static_cast<std::size_t>(c)][r] =
            double(splitmix64(seed) >> 11) * 0x1.0p-53 - 0.5;
  }

  // Fused block matvec: y[c] = (A + shift·I)·x[c] for every column in one
  // pass over the matrix. Each output element keeps the exact scalar
  // accumulation order of the one-column matvec (s = shift·v[r], then
  // s += m(r,j)·v[j] for ascending j), so the fusion is bit-identical to
  // looping columns outermost — it only cuts the matrix-stream traffic
  // k-fold per pass.
  auto matvec_block = [&](const std::vector<std::vector<double>>& v,
                          std::vector<std::vector<double>>& y,
                          std::vector<double>& acc) {
    if (k == 3) {
      // Register-resident accumulators for the k the MDS init always uses;
      // the generic path's indirection through vector-of-vectors defeats
      // unrolling. Three rows per pass: 9 independent accumulators share
      // each v[j] load, and with the three matrix and three vector
      // operands they fill 15 of the 16 SSE registers. Four rows (12
      // accumulators + 7 operands) spill three accumulators to the stack
      // and run no faster (EXPERIMENTS.md). Accumulation order per output
      // is unchanged; the last n mod 3 rows run one at a time.
      const double* v0 = v[0].data();
      const double* v1 = v[1].data();
      const double* v2 = v[2].data();
      const double* mat = m.data().data();
      std::size_t r = 0;
      for (; r + 3 <= n; r += 3) {
        const double* row0 = mat + r * n;
        const double* row1 = row0 + n;
        const double* row2 = row1 + n;
        double s00 = shift * v0[r], s01 = shift * v1[r], s02 = shift * v2[r];
        double s10 = shift * v0[r + 1], s11 = shift * v1[r + 1],
               s12 = shift * v2[r + 1];
        double s20 = shift * v0[r + 2], s21 = shift * v1[r + 2],
               s22 = shift * v2[r + 2];
        for (std::size_t j = 0; j < n; ++j) {
          const double x0 = v0[j], x1 = v1[j], x2 = v2[j];
          const double a0 = row0[j], a1 = row1[j], a2 = row2[j];
          s00 += a0 * x0;
          s01 += a0 * x1;
          s02 += a0 * x2;
          s10 += a1 * x0;
          s11 += a1 * x1;
          s12 += a1 * x2;
          s20 += a2 * x0;
          s21 += a2 * x1;
          s22 += a2 * x2;
        }
        y[0][r] = s00;
        y[1][r] = s01;
        y[2][r] = s02;
        y[0][r + 1] = s10;
        y[1][r + 1] = s11;
        y[2][r + 1] = s12;
        y[0][r + 2] = s20;
        y[1][r + 2] = s21;
        y[2][r + 2] = s22;
      }
      for (; r < n; ++r) {
        double s0 = shift * v0[r];
        double s1 = shift * v1[r];
        double s2 = shift * v2[r];
        const double* row = mat + r * n;
        for (std::size_t j = 0; j < n; ++j) {
          const double a = row[j];
          s0 += a * v0[j];
          s1 += a * v1[j];
          s2 += a * v2[j];
        }
        y[0][r] = s0;
        y[1][r] = s1;
        y[2][r] = s2;
      }
      return;
    }
    for (std::size_t r = 0; r < n; ++r) {
      for (int c = 0; c < k; ++c)
        acc[static_cast<std::size_t>(c)] =
            shift * v[static_cast<std::size_t>(c)][r];
      for (std::size_t j = 0; j < n; ++j) {
        const double a = m(r, j);
        for (int c = 0; c < k; ++c)
          acc[static_cast<std::size_t>(c)] +=
              a * v[static_cast<std::size_t>(c)][j];
      }
      for (int c = 0; c < k; ++c)
        y[static_cast<std::size_t>(c)][r] = acc[static_cast<std::size_t>(c)];
    }
  };
  auto dot = [&](const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0.0;
    for (std::size_t r = 0; r < n; ++r) s += a[r] * b[r];
    return s;
  };

  EigenDecomposition out;
  std::vector<std::vector<double>> y(static_cast<std::size_t>(k),
                                     std::vector<double>(n));
  std::vector<double> acc(static_cast<std::size_t>(k));
  std::vector<double> prev_values(static_cast<std::size_t>(k), 0.0);
  // The Rayleigh product A·x of iteration i doubles as the power-step
  // input of iteration i+1 (x is unchanged between the two reads), so
  // after the first iteration each round costs a single fused pass.
  bool have_y = false;
  for (int iter = 0; iter < max_iters; ++iter) {
    // One block power step + modified Gram-Schmidt.
    if (!have_y) matvec_block(x, y, acc);
    for (int c = 0; c < k; ++c) {
      auto& col = x[static_cast<std::size_t>(c)];
      col = y[static_cast<std::size_t>(c)];
      for (int p = 0; p < c; ++p) {
        const double proj = dot(col, x[static_cast<std::size_t>(p)]);
        for (std::size_t r = 0; r < n; ++r)
          col[r] -= proj * x[static_cast<std::size_t>(p)][r];
      }
      const double norm = std::sqrt(std::max(1e-300, dot(col, col)));
      for (std::size_t r = 0; r < n; ++r) col[r] /= norm;
    }
    // Rayleigh quotients; stop when they stabilize.
    matvec_block(x, y, acc);
    have_y = true;
    bool stable = true;
    for (int c = 0; c < k; ++c) {
      const double lambda = dot(x[static_cast<std::size_t>(c)],
                                y[static_cast<std::size_t>(c)]) -
                            shift;
      if (std::fabs(lambda - prev_values[static_cast<std::size_t>(c)]) >
          tol * (std::fabs(lambda) + 1.0))
        stable = false;
      prev_values[static_cast<std::size_t>(c)] = lambda;
    }
    out.sweeps = iter + 1;
    if (stable && iter > 2) {
      out.converged = true;
      break;
    }
  }

  // Subspace iteration usually converges with the columns already ordered
  // by descending eigenvalue, but nothing guarantees it: when the random
  // init block has a weak component along the dominant eigenvector, that
  // pair can land in a later column. Sort explicitly before returning.
  std::vector<std::size_t> order(static_cast<std::size_t>(k));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return prev_values[a] > prev_values[b];
  });

  out.values.resize(static_cast<std::size_t>(k));
  out.vectors = Matrix(n, static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) {
    const std::size_t src = order[static_cast<std::size_t>(c)];
    out.values[static_cast<std::size_t>(c)] = prev_values[src];
    for (std::size_t r = 0; r < n; ++r)
      out.vectors(r, static_cast<std::size_t>(c)) = x[src][r];
  }
  return out;
}

}  // namespace ballfit::linalg
