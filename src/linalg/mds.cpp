#include "linalg/mds.hpp"

#include <cmath>

#include "linalg/eigen.hpp"

namespace ballfit::linalg {

void double_center_into(const Matrix& d, Matrix& out) {
  BALLFIT_REQUIRE(d.rows() == d.cols(), "distance matrix must be square");
  const std::size_t n = d.rows();

  std::vector<double> row_mean(n, 0.0);
  double grand_mean = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) row_mean[r] += d(r, c) * d(r, c);
    row_mean[r] /= static_cast<double>(n);
    grand_mean += row_mean[r];
  }
  grand_mean /= static_cast<double>(n);

  out.resize(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      out(r, c) =
          -0.5 * (d(r, c) * d(r, c) - row_mean[r] - row_mean[c] + grand_mean);
}

Matrix double_center(const Matrix& d) {
  Matrix b;
  double_center_into(d, b);
  return b;
}

MdsResult classical_mds(const Matrix& distances, int dim) {
  BALLFIT_REQUIRE(dim >= 1 && dim <= 3, "classical_mds supports dim 1..3");
  const std::size_t n = distances.rows();
  MdsResult out;
  out.coords.resize(n);
  if (n == 0) {
    out.converged = true;
    return out;
  }
  if (n == 1) {
    out.converged = true;
    out.gram_eigenvalues = {0.0};
    return out;
  }

  const Matrix b = double_center(distances);
  EigenDecomposition eig = eigen_symmetric(b);
  out.gram_eigenvalues = eig.values;
  out.converged = eig.converged;

  // X = V_k Λ_k^{1/2}, clamping negative eigenvalues (noise) to zero.
  const int k = std::min<int>(dim, static_cast<int>(n));
  for (std::size_t i = 0; i < n; ++i) {
    double coord[3] = {0.0, 0.0, 0.0};
    for (int c = 0; c < k; ++c) {
      const double lambda = std::max(0.0, eig.values[c]);
      coord[c] = eig.vectors(i, c) * std::sqrt(lambda);
    }
    out.coords[i] = {coord[0], coord[1], coord[2]};
  }
  return out;
}

namespace {
double weighted_stress(const Matrix& d, const Matrix& w,
                       const std::vector<geom::Vec3>& x) {
  double s = 0.0;
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double wij = w(i, j);
      if (wij <= 0.0) continue;
      const double diff = x[i].distance_to(x[j]) - d(i, j);
      s += wij * diff * diff;
    }
  return s;
}

/// Exit test shared by both refine loops (dense and sparse), which run
/// while `sweeps < max_sweeps`. Keeping the decision logic in one place is
/// what keeps the two bit-identical.
///
/// Records one executed sweep's resulting stress; true → stop refining.
/// The convergence test is the historical one (improvement below
/// `rel_tol`); the plateau cap fires on `plateau_sweeps` consecutive
/// sweeps below the looser `plateau_rel_tol`.
bool sweep_note(const SmacofConfig& config, SmacofRunInfo& info,
                int& plateau_run, double next) {
  ++info.sweeps;
  const double prev = info.final_stress;
  const bool converged =
      next <= prev && (prev - next) <= config.rel_tol * (prev + 1e-30);
  if (config.plateau_sweeps > 0) {
    const bool guarded = config.plateau_guard_stress > 0.0 &&
                         next > config.plateau_guard_stress;
    const bool small =
        !guarded && next <= prev &&
        (prev - next) <= config.plateau_rel_tol * (prev + 1e-30);
    plateau_run = small ? plateau_run + 1 : 0;
  }
  info.final_stress = next;
  if (converged) return true;
  if (config.plateau_sweeps > 0 && plateau_run >= config.plateau_sweeps) {
    info.plateau_exit = true;
    return true;
  }
  return false;
}

/// One Guttman coordinate-descent sweep over a CSR frame. `x` holds the
/// frame's points (adjacency entries index into it); `row_begin` holds
/// m+1 offsets into `adj`/`dist`/`weight`.
void csr_guttman_sweep(geom::Vec3* x, std::size_t m,
                       const std::uint32_t* row_begin,
                       const std::uint32_t* adj, const double* dist,
                       const double* weight) {
  for (std::size_t i = 0; i < m; ++i) {
    geom::Vec3 acc{};
    double wsum = 0.0;
    const std::uint32_t end = row_begin[i + 1];
    for (std::uint32_t e = row_begin[i]; e < end; ++e) {
      const std::size_t j = adj[e];
      const geom::Vec3 delta = x[i] - x[j];
      const double len = delta.norm();
      const geom::Vec3 dir =
          len > 1e-12 ? delta / len : geom::Vec3{1.0, 0.0, 0.0};
      acc += (x[j] + dir * dist[e]) * weight[e];
      wsum += weight[e];
    }
    if (wsum > 0.0) x[i] = acc / wsum;
  }
}

/// `SmacofConfig::fast_sweep` variant of the transform above: same
/// coordinate-descent structure and visit order, but the direction
/// normalization is folded into the target scale (dist/len, one divide
/// per edge instead of three) and the node update multiplies by the
/// reciprocal weight sum. Agrees with the legacy kernel to last-ulp
/// rounding only, so the two are not bit-comparable — callers pick one
/// per run via the config.
void csr_guttman_sweep_fast(geom::Vec3* x, std::size_t m,
                            const std::uint32_t* row_begin,
                            const std::uint32_t* adj, const double* dist,
                            const double* weight) {
  for (std::size_t i = 0; i < m; ++i) {
    geom::Vec3 acc{};
    double wsum = 0.0;
    const std::uint32_t end = row_begin[i + 1];
    for (std::uint32_t e = row_begin[i]; e < end; ++e) {
      const std::size_t j = adj[e];
      const geom::Vec3 delta = x[i] - x[j];
      const double len2 = delta.norm_sq();
      const geom::Vec3 step =
          len2 > 1e-24 ? delta * (dist[e] / std::sqrt(len2))
                       : geom::Vec3{dist[e], 0.0, 0.0};
      acc += (x[j] + step) * weight[e];
      wsum += weight[e];
    }
    if (wsum > 0.0) x[i] = acc * (1.0 / wsum);
  }
}

}  // namespace

std::vector<geom::Vec3> smacof_refine(const Matrix& distances,
                                      const Matrix& weights,
                                      std::vector<geom::Vec3> init,
                                      const SmacofConfig& config,
                                      double* final_stress,
                                      std::vector<double>* stress_trace,
                                      SmacofRunInfo* run_info) {
  const std::size_t n = init.size();
  BALLFIT_REQUIRE(distances.rows() == n && distances.cols() == n,
                  "distance matrix must match point count");
  BALLFIT_REQUIRE(weights.rows() == n && weights.cols() == n,
                  "weight matrix must match point count");

  SmacofRunInfo info;
  info.final_stress = weighted_stress(distances, weights, init);
  int plateau_run = 0;
  if (stress_trace != nullptr) {
    stress_trace->clear();
    stress_trace->push_back(info.final_stress);
  }
  while (info.sweeps < config.max_sweeps) {
    // `stress_stride` sweeps per evaluation, the last group truncated to
    // the budget (sweep_note counts the evaluated sweep).
    const int group = std::min(std::max(1, config.stress_stride),
                               config.max_sweeps - info.sweeps);
    for (int g = 0; g < group; ++g) {
      // Coordinate-descent Guttman transform: each point moves to the
      // minimizer of its local stress majorizer given the others —
      // a weighted mean of per-edge target positions. Monotone in stress.
      // The two kernel variants mirror csr_guttman_sweep{,_fast} operation
      // for operation, so dense and CSR callers stay bit-identical at
      // either `fast_sweep` setting.
      for (std::size_t i = 0; i < n; ++i) {
        geom::Vec3 acc{};
        double wsum = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          if (j == i) continue;
          const double wij = weights(i, j);
          if (wij <= 0.0) continue;
          const geom::Vec3 delta = init[i] - init[j];
          if (config.fast_sweep) {
            const double len2 = delta.norm_sq();
            const geom::Vec3 step =
                len2 > 1e-24 ? delta * (distances(i, j) / std::sqrt(len2))
                             : geom::Vec3{distances(i, j), 0.0, 0.0};
            acc += (init[j] + step) * wij;
          } else {
            const double len = delta.norm();
            // Target position for x_i on the edge (i,j):
            // x_j + d_ij·direction.
            const geom::Vec3 dir =
                len > 1e-12 ? delta / len : geom::Vec3{1.0, 0.0, 0.0};
            acc += (init[j] + dir * distances(i, j)) * wij;
          }
          wsum += wij;
        }
        if (wsum > 0.0)
          init[i] = config.fast_sweep ? acc * (1.0 / wsum) : acc / wsum;
      }
    }
    const double next = weighted_stress(distances, weights, init);
    info.sweeps += group - 1;
    if (stress_trace != nullptr) stress_trace->push_back(next);
    if (sweep_note(config, info, plateau_run, next)) break;
  }
  if (final_stress != nullptr) *final_stress = info.final_stress;
  if (run_info != nullptr) *run_info = info;
  return init;
}

void SmacofProblem::assign(const Matrix& distances, const Matrix& weights) {
  const std::size_t n = distances.rows();
  BALLFIT_REQUIRE(distances.cols() == n, "distance matrix must be square");
  BALLFIT_REQUIRE(weights.rows() == n && weights.cols() == n,
                  "weight matrix must match distance matrix");
  n_ = n;
  num_edges_ = 0;
  row_begin_.resize(n + 1);
  upper_begin_.resize(n);
  adj_.clear();
  dist_.clear();
  weight_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    row_begin_[i] = static_cast<std::uint32_t>(adj_.size());
    bool saw_upper = false;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double wij = weights(i, j);
      if (wij <= 0.0) continue;
      if (j > i) {
        ++num_edges_;
        if (!saw_upper) {
          upper_begin_[i] = static_cast<std::uint32_t>(adj_.size());
          saw_upper = true;
        }
      }
      adj_.push_back(static_cast<std::uint32_t>(j));
      dist_.push_back(distances(i, j));
      weight_.push_back(wij);
    }
    if (!saw_upper) upper_begin_[i] = static_cast<std::uint32_t>(adj_.size());
  }
  row_begin_[n] = static_cast<std::uint32_t>(adj_.size());
}

double SmacofProblem::stress(const std::vector<geom::Vec3>& x) const {
  BALLFIT_REQUIRE(x.size() == n_, "point count must match the problem");
  double s = 0.0;
  // Upper-triangle entries only, in the dense loop's (i asc, j asc > i)
  // order — the accumulation order (and thus the rounding) matches the
  // dense evaluation bit for bit.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint32_t end = row_begin_[i + 1];
    for (std::uint32_t e = upper_begin_[i]; e < end; ++e) {
      const double diff = x[i].distance_to(x[adj_[e]]) - dist_[e];
      s += weight_[e] * diff * diff;
    }
  }
  return s;
}

std::vector<geom::Vec3> SmacofProblem::refine(
    std::vector<geom::Vec3> init, const SmacofConfig& config,
    double* final_stress, std::vector<double>* stress_trace,
    SmacofRunInfo* run_info) const {
  BALLFIT_REQUIRE(init.size() == n_, "point count must match the problem");

  SmacofRunInfo info;
  info.final_stress = stress(init);
  int plateau_run = 0;
  if (stress_trace != nullptr) {
    stress_trace->clear();
    stress_trace->push_back(info.final_stress);
  }
  while (info.sweeps < config.max_sweeps) {
    // The same coordinate-descent Guttman transform as `smacof_refine`,
    // visiting only the measured partners of each point (CSR row, ascending
    // — the dense loop's order over its positive-weight entries).
    const int group = std::min(std::max(1, config.stress_stride),
                               config.max_sweeps - info.sweeps);
    for (int g = 0; g < group; ++g)
      (config.fast_sweep ? csr_guttman_sweep_fast : csr_guttman_sweep)(
          init.data(), n_, row_begin_.data(), adj_.data(), dist_.data(),
          weight_.data());
    const double next = stress(init);
    info.sweeps += group - 1;
    if (stress_trace != nullptr) stress_trace->push_back(next);
    if (sweep_note(config, info, plateau_run, next)) break;
  }
  if (final_stress != nullptr) *final_stress = info.final_stress;
  if (run_info != nullptr) *run_info = info;
  return init;
}

}  // namespace ballfit::linalg
