#pragma once

/// \file mds.hpp
/// Classical multidimensional scaling (Torgerson MDS).
///
/// This is the numeric core of local coordinate establishment (paper Sec.
/// II-A3 step I, following Shang & Ruml's MDS-based localization): given a
/// matrix of pairwise distance *measurements* between a node and its one-hop
/// neighbors, recover coordinates in R³ up to a rigid motion + reflection.

#include <cstdint>
#include <vector>

#include "geom/vec3.hpp"
#include "linalg/matrix.hpp"

namespace ballfit::linalg {

struct MdsResult {
  /// Recovered coordinates, one per input point, in an arbitrary frame.
  std::vector<geom::Vec3> coords;
  /// Eigenvalues of the centered Gram matrix (descending). The ratio of the
  /// 4th to the 3rd is a cheap embeddability diagnostic.
  std::vector<double> gram_eigenvalues;
  bool converged = false;
};

/// Double-centers the squared-distance matrix: B = −½ · J D² J with
/// J = I − 1/n · 11ᵀ. `d` holds distances (not squared).
Matrix double_center(const Matrix& d);

/// Allocation-free form of `double_center` for per-thread scratch arenas:
/// writes the centered Gram matrix into `out` (resized as needed, reusing
/// its buffer) and never materializes the squared-distance matrix — the
/// squares are folded into the row-mean and output passes. Bit-identical
/// to `double_center`.
void double_center_into(const Matrix& d, Matrix& out);

/// Classical MDS of a symmetric distance matrix into `dim` dimensions
/// (only dim == 3 coordinates are populated into Vec3; dim may be 2 for
/// planar tests, in which case z = 0).
///
/// Negative Gram eigenvalues (inevitable with noisy, non-Euclidean input)
/// are clamped to zero, which is the standard classical-MDS projection.
MdsResult classical_mds(const Matrix& distances, int dim = 3);

struct SmacofConfig {
  int max_sweeps = 60;
  /// Stop when the relative stress improvement per sweep drops below this.
  double rel_tol = 1e-10;
  /// Plateau cap: exit after this many *consecutive* sweeps whose relative
  /// stress improvement stays below `plateau_rel_tol` (a much looser bar
  /// than `rel_tol`, which detects full convergence). 0 disables: the
  /// run-to-budget contract, where the run exits only on the budget or on
  /// full `rel_tol` convergence.
  int plateau_sweeps = 0;
  /// Relative improvement (Δstress / stress) below which a sweep counts
  /// toward the plateau run. Dimensionless; meaningful only with
  /// `plateau_sweeps` > 0.
  double plateau_rel_tol = 0.0;
  /// Plateau guard (absolute stress: squared length × weight summed over
  /// measured pairs): sweeps count toward the plateau run only while the
  /// stress is at or below this value. A refinement stalled far above the
  /// floor is a fold-over still unfolding, not a converged fit — it must
  /// keep sweeping toward the budget. 0 disables the guard (every slow
  /// sweep counts).
  double plateau_guard_stress = 0.0;
  /// Use the division-light Guttman kernel: one divide per edge
  /// (dist/len, folding the direction normalization into the target
  /// scale) and a reciprocal-multiply node update, instead of the
  /// legacy per-component divisions. Last-ulp rounding differs from the
  /// legacy kernel, so runs with different `fast_sweep` values are NOT
  /// bit-comparable; with the *same* value the sweep stays a pure
  /// function of (init, CSR, config) — sparse and dense callers agree bit
  /// for bit. Off by default (the legacy kernel); the dense and CSR sweeps
  /// both honor it.
  bool fast_sweep = false;
  /// Evaluate the stress every this-many Guttman sweeps (count, ≥ 1)
  /// instead of after each one. The stress pass costs a sqrt per measured
  /// pair — a third of the sweep loop — and exists only to drive the exit
  /// checks, so coarser evaluation trades exit granularity (exits land on
  /// a stride boundary; `rel_tol`/`plateau_rel_tol` see the improvement
  /// accumulated across the stride; `plateau_sweeps` counts evaluations)
  /// for throughput. The sweep budget is still exact: the final group is
  /// truncated so exactly `max_sweeps` sweeps run. Values > 1 are not
  /// bit-comparable to stride-1 runs; with the same value the run remains
  /// a pure function of (init, problem, config).
  int stress_stride = 1;
};

/// How one refinement run exited and how many sweeps it spent. All exits
/// happen between sweeps, so the reported final stress is always the true
/// stress of the returned coordinates.
struct SmacofRunInfo {
  int sweeps = 0;             ///< Guttman sweeps actually executed.
  bool plateau_exit = false;  ///< Stopped by the plateau cap.
  double final_stress = 0.0;  ///< Weighted stress at exit.
};

/// Weighted stress majorization (SMACOF, coordinate-descent form) starting
/// from `init`. Refines an embedding against *selected* target distances:
/// `weights(i,j) > 0` marks pairs whose distance `distances(i,j)` should be
/// honored; zero-weight pairs are free.
///
/// This is the second half of Shang–Ruml-style "improved MDS": classical
/// MDS over the shortest-path-completed matrix gives the shape, and stress
/// majorization over the actually-measured pairs removes the bias the
/// completion introduced (completed entries systematically overestimate,
/// which otherwise inflates the local frame). With error-free measurements
/// the stress minimum is 0 at the true configuration, so local frames
/// become numerically exact.
///
/// Returns the refined coordinates; `final_stress`, when non-null, receives
/// the weighted stress value at exit. `stress_trace`, when non-null, is
/// cleared and filled with the stress before the first sweep followed by
/// the stress after each executed sweep (the majorization is monotone, so
/// the trace is non-increasing up to rounding).
///
/// This dense form scans the full m×m weight matrix every sweep; it is the
/// readable reference implementation. The localization hot path uses
/// `SmacofProblem`, which precomputes the measured-edge adjacency once and
/// sweeps in O(m·deg) — with bit-identical results (the equivalence is
/// asserted by tests/localization_equivalence_test.cpp).
/// `run_info`, when non-null, receives the exit reason and sweep count.
std::vector<geom::Vec3> smacof_refine(const Matrix& distances,
                                      const Matrix& weights,
                                      std::vector<geom::Vec3> init,
                                      const SmacofConfig& config = {},
                                      double* final_stress = nullptr,
                                      std::vector<double>* stress_trace =
                                          nullptr,
                                      SmacofRunInfo* run_info = nullptr);

/// Sparse SMACOF: the positive-weight (= measured) entries of a
/// (distances, weights) pair, extracted once into a CSR structure so every
/// refinement sweep costs O(Σ deg) instead of the dense O(m²) matrix scan.
///
/// Each CSR row lists a point's measured partners in ascending index
/// order — the same order the dense loops visit them — and the per-edge
/// arithmetic is identical, so `refine` and `stress` return bit-identical
/// values to `smacof_refine` / its internal stress on the same inputs.
///
/// The structure is immutable after `assign` and holds copies of the
/// needed matrix entries, so the source matrices may be reused (scratch
/// arenas) or freed while the problem is alive. `assign` reuses the
/// internal buffers, making a thread-local instance allocation-free in
/// steady state.
class SmacofProblem {
 public:
  SmacofProblem() = default;
  SmacofProblem(const Matrix& distances, const Matrix& weights) {
    assign(distances, weights);
  }

  /// Rebuilds the sparse structure from the positive-weight entries of
  /// (distances, weights), reusing internal buffers.
  void assign(const Matrix& distances, const Matrix& weights);

  std::size_t num_points() const { return n_; }
  /// Number of measured unordered pairs (positive-weight upper-triangle
  /// entries).
  std::size_t num_edges() const { return num_edges_; }

  /// Weighted stress of `x` over the measured pairs; bit-identical to the
  /// dense evaluation in `smacof_refine`.
  double stress(const std::vector<geom::Vec3>& x) const;

  /// Coordinate-descent stress majorization from `init`; semantics of
  /// `config`, `final_stress`, `stress_trace`, and `run_info` exactly as
  /// in `smacof_refine`.
  std::vector<geom::Vec3> refine(std::vector<geom::Vec3> init,
                                 const SmacofConfig& config = {},
                                 double* final_stress = nullptr,
                                 std::vector<double>* stress_trace = nullptr,
                                 SmacofRunInfo* run_info = nullptr) const;

 private:
  std::size_t n_ = 0;
  std::size_t num_edges_ = 0;
  /// CSR over points: row i spans [row_begin_[i], row_begin_[i+1]).
  std::vector<std::uint32_t> row_begin_;
  /// First entry of row i with partner index > i (== row end when none);
  /// the stress sum visits only these to count each pair once, in the
  /// dense loop's (i asc, j asc > i) order.
  std::vector<std::uint32_t> upper_begin_;
  std::vector<std::uint32_t> adj_;
  std::vector<double> dist_;
  std::vector<double> weight_;
};

}  // namespace ballfit::linalg
