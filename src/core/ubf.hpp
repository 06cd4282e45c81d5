#pragma once

/// \file ubf.hpp
/// Unit Ball Fitting (paper Sec. II-A, Algorithm 1).
///
/// Node i is a *potential boundary node* iff an empty unit ball (radius
/// r = 1+ε in radio-range units, no node strictly inside) can be placed
/// touching i. By Lemma 1 it suffices to test the balls determined by i and
/// two of its neighbors (Eq. 1 / `solve_trisphere`), checking emptiness
/// against the one-hop neighborhood — Θ(ρ²) balls × Θ(ρ) nodes each.
///
/// The kernel implementation is optimized (an interior certificate that
/// skips the pair sweep when no empty ball can exist, sorted candidate
/// cache, pair pruning, blocker memoization, per-thread scratch arena —
/// see ubf.cpp) but **classification-exact**: every optimization only
/// skips work whose outcome is provably determined, so `test_node`,
/// `collect_empty_balls`, `count_empty_balls` and both detectors return
/// bit-identical results to the naive Algorithm 1 double loop
/// (tests/ubf_oracle_test.cpp asserts this), and results are independent
/// of the worker thread count. Both coordinate paths (local frames, true
/// positions) run through one parallel per-node driver; only where a
/// node's view comes from differs.

#include <vector>

#include "geom/vec3.hpp"
#include "localization/local_frame.hpp"
#include "net/network.hpp"

namespace ballfit::core {

/// A node needs itself plus three one-hop members to place a test ball;
/// smaller neighborhoods vote `UbfConfig::degenerate_is_boundary`.
inline constexpr std::size_t kMinBallTestMembers = 4;

/// A node strictly inside a candidate ball means distance
/// < r − kInsideTolerance (absolute units); the slack keeps the three
/// on-surface nodes from being miscounted.
inline constexpr double kInsideTolerance = 1e-9;
/// Extra slack (× radio range) applied to *two-hop* members only: a
/// two-hop position blocks a candidate ball only when it is inside by
/// more than this margin. Two-hop coordinates sit at the patch rim, where
/// they are least constrained; without the margin, borderline two-hop
/// members leak into truly-empty outward balls and suppress real boundary
/// nodes. Interior candidate balls are unaffected — their blockers sit
/// well inside.
inline constexpr double kTwoHopInsideMargin = 0.1;
/// Upper bound (× radio range) on the noise-derived emptiness slack
/// (`UbfConfig::noise_margin_factor` × coordinate uncertainty).
inline constexpr double kNoiseMarginCap = 0.3;
/// Frame-reliability gate: a node whose embedding kept a residual stress
/// far above the ranging-noise floor knows its local frame is folded; a
/// boundary claim from such a frame is most likely a false positive (and
/// a single deep false positive can bridge two boundary groups). Nodes
/// with stress_rms > kStressGateFactor·(e/√3 + kStressGateFloor)·R
/// abstain, e being `UbfConfig::measurement_error_hint`. The floor is
/// positive, so a node at zero uncertainty (true coordinates) always
/// passes.
inline constexpr double kStressGateFactor = 2.0;
inline constexpr double kStressGateFloor = 0.01;
/// Empty balls a node collects as cross-verification candidates on the
/// frame path (at least `min_empty_balls`); also the vote cap of the
/// confidence score (see `vote_confidence`).
inline constexpr std::size_t kVerifyPool = 6;

struct UbfConfig {
  /// ε of Definition 4: the test radius is r = (1+ε) · radio_range.
  /// Larger values restrict detection to larger holes (Sec. II-A3, last
  /// paragraph); ε→0 detects holes of any size.
  double epsilon = 1e-6;
  /// The emptiness test widens its slack by `noise_margin_factor ×
  /// coordinate-uncertainty` (capped at `kNoiseMarginCap`) so that
  /// coordinate jitter of the expected magnitude cannot spuriously block a
  /// truly empty ball. The uncertainty is self-calibrated per node from
  /// the embedding's residual stress (LocalFrame::stress_rms);
  /// `measurement_error_hint` (fraction of the radio range) is the
  /// fallback when a caller tests raw coordinates, and sets the
  /// frame-reliability gate (`kStressGateFactor`).
  double measurement_error_hint = 0.0;
  double noise_margin_factor = 3.0;
  /// Minimum number of empty candidate balls required to declare boundary.
  /// A real boundary node sees many empty balls (every outward-leaning
  /// witness pair yields one); a coordinate-noise fluke sees one or two.
  /// 1 reproduces the literal algorithm; higher values trade missing for
  /// mistaken under noise. On the frame path one verified ball suffices —
  /// the cross-verifying witnesses already suppress flukes. At least 1.
  std::size_t min_empty_balls = 1;
  /// Nodes whose neighborhood is too small to embed (< 4 members) cannot
  /// run the test; with this flag (default) they declare themselves
  /// boundary — a degenerate neighborhood is itself boundary evidence.
  bool degenerate_is_boundary = true;

  /// Which nodes the emptiness check sees. A candidate ball touching node
  /// i reaches up to 2r from i, so soundness needs the positions of nodes
  /// within two hops (this is exactly the "within 2r" of Lemma 1):
  ///   - kTwoHop (default): emptiness is tested against the two-hop
  ///     MDS-MAP(P) frame. One extra message round (each neighbor shares
  ///     its one-hop measurements); reproduces the paper's reported
  ///     accuracy.
  ///   - kOneHop: the literal Algorithm 1 listing — emptiness against the
  ///     one-hop view only. At realistic densities (avg degree ≈ 18) this
  ///     floods the result with interior false positives, because some
  ///     candidate ball's one-hop-visible lens (expected occupancy ≈ 6
  ///     nodes) is empty by chance among the Θ(ρ²) balls tested. Kept as
  ///     an ablation (`bench_ablation_scope`).
  enum class EmptinessScope { kOneHop, kTwoHop };
  EmptinessScope scope = EmptinessScope::kTwoHop;

  bool operator==(const UbfConfig&) const = default;
};

/// Graded boundary-ness for observability (ROADMAP: "confidence-scored
/// boundaries"). The binary flag thresholds the empty-ball vote count at
/// `min_empty_balls` (= T); the confidence keeps the margin:
///
///   conf = votes / (votes + T),  votes counted up to max(kVerifyPool, T)
///
/// so conf >= 0.5 exactly when the flag is set, conf = 0 means no empty
/// ball at all, and saturation approaches (but never reaches) 1. Nodes
/// that never run the test score by provenance: crashed or stress-gated
/// nodes 0, degenerate-neighborhood fallbacks exactly 0.5 when they vote
/// boundary (a claim with no ball evidence) and 0 otherwise. On the
/// true-coordinates path, which counts votes without cross-verification,
/// the score is monotone non-increasing in T for a fixed network
/// (tests/ubf_test.cpp::MonotoneInMinEmptyBalls); on the cross-verified
/// frame path the collected candidate pool grows with T, so a rejected
/// candidate can be displaced by a verifying one and the margin may wobble
/// within the same side of the threshold.
///
/// Computing the margin means counting votes *past* the decision
/// threshold, work the classification itself never needs — so confidence
/// is only produced when a caller passes an output vector, and the
/// pipeline only asks when `obs::enabled()`. Flags are bit-identical
/// either way: the extra counting starts after the threshold decision is
/// already determined.
double vote_confidence(std::size_t votes, std::size_t threshold);

/// The margin δ of the interior certificate (ubf.cpp) for a node at `self`
/// and ball radius `radius`: 1e-2·radius + 1e-12·(largest |coordinate| of
/// self). The certificate is sound while every center `solve_trisphere`
/// emits for a triple (self, j, k) lies within δ/2 of the radius-`radius`
/// spheres around all three points; tests/ubf_test.cpp checks that bound.
double certificate_margin(double radius, const geom::Vec3& self);

/// Throws `InvalidArgument` unless `epsilon`, `measurement_error_hint`
/// and `noise_margin_factor` are finite and non-negative and
/// `min_empty_balls` is at least 1. The `UnitBallFitting` constructor runs
/// it; `DetectionSession::run` runs it before it changes any state.
void validate(const UbfConfig& config);

/// The degenerate-view rule: node i votes
/// `UbfConfig::degenerate_is_boundary` instead of running the ball test
/// when its view is too small to test. On the frame path (`frames` given,
/// one per node) that is a frame that is not `ok`; on true coordinates it
/// is fewer than `kMinBallTestMembers` alive members, i itself included.
/// `alive` null means every node is alive.
bool degenerate_view(const net::Network& network, net::NodeId i,
                     const std::vector<localization::LocalFrame>* frames,
                     const std::vector<char>* alive);

/// Per-node work counters (Theorem 1's Θ(ρ³) in the wild).
struct UbfNodeDiagnostics {
  /// Candidate balls whose emptiness was evaluated (count, default 0).
  /// Pair pruning never changes this: pruned pairs are exactly those whose
  /// trisphere solve would have produced zero balls.
  std::size_t balls_tested = 0;
  /// Member distance checks performed across all emptiness scans (count).
  /// This is where the optimized kernel wins: nearest-first ordering,
  /// the sorted-distance cutoff, and blocker memoization shrink it far
  /// below the naive balls × members product.
  std::size_t nodes_checked = 0;
  /// Empty candidate balls found before the sweep stopped (count).
  std::size_t empty_balls = 0;
  /// True when the vote threshold (`UbfConfig::min_empty_balls`) was met.
  bool found_empty_ball = false;
  /// True when the interior certificate proved that no candidate ball can
  /// be empty, so the pair sweep never ran (balls_tested, nodes_checked and
  /// trisphere_solves are then 0). See ubf.cpp.
  bool certified = false;
  /// Eq. 1 solves the pair sweep performed (count); pairs dropped by the
  /// 2r prune never reach the solver.
  std::size_t trisphere_solves = 0;
  /// Member-against-cell distance checks the interior certificate
  /// performed, whether or not it succeeded (count): the attempt on the
  /// one-hop members plus, when it fails on a view with two-hop members,
  /// its resumption with them (see ubf.cpp).
  std::size_t cover_checks = 0;
};

class UnitBallFitting {
 public:
  /// Throws `InvalidArgument` when `validate(config)` does.
  explicit UnitBallFitting(const net::Network& network, UbfConfig config = {});

  /// The effective test radius r.
  double ball_radius() const { return radius_; }

  /// True when a frame with residual `stress_rms` passes the reliability
  /// gate for the configured error hint (see `kStressGateFactor`).
  bool frame_reliable(double stress_rms) const;

  /// Localized detection on prebuilt frames, one per node, as produced by
  /// `localization::build_all_frames` (two-hop MDS-MAP patches under the
  /// default scope, one-hop frames under kOneHop). Each node runs the test
  /// in its own local frame and has its witnesses confirm each empty ball
  /// (cross-verification, one extra query round): the two witnesses j, k
  /// that define a ball re-run the emptiness check for it in their own
  /// frames and veto it if they see a member inside. A fold-over
  /// localization artifact in i's frame must be mirrored in both
  /// witnesses' independent frames to survive, which removes nearly all
  /// deep interior false positives — the ones that bridge boundary
  /// groups. Up to `kVerifyPool` candidate balls are collected per node.
  /// `threads` parallelizes the per-node work (0 = hardware concurrency).
  /// `frame_fallbacks`, when non-null, receives the number of nodes that
  /// voted `degenerate_is_boundary` instead of running the test (see
  /// `degenerate_view`). `confidence`, when non-null, is resized to
  /// num_nodes and filled with the per-node score described at
  /// `vote_confidence` (requests the extra vote counting; flags are
  /// unaffected). `DetectionSession` reuses frames across runs via
  /// `update_flags`.
  std::vector<bool> detect_on_frames(
      const std::vector<localization::LocalFrame>& frames,
      unsigned threads = 0, std::size_t* frame_fallbacks = nullptr,
      std::vector<float>* confidence = nullptr) const;

  /// Oracle detection using true coordinates (the 0%-error reference; UBF
  /// is invariant to the rigid-motion gauge, so this equals
  /// `detect_on_frames` on frames from a noiseless measurement model). Each node tests the alive positions of
  /// its one-hop (and, under kTwoHop, two-hop) neighborhood at coordinate
  /// uncertainty 0, without cross-verification. `frame_fallbacks` counts
  /// nodes with too few neighbors to test, as in `detect_on_frames`. `alive`, when
  /// non-null, masks crashed nodes out of every neighborhood (dead nodes
  /// test nothing and are never counted as fallbacks). `confidence` and
  /// `threads` work as in `detect_on_frames`.
  std::vector<bool> detect_with_true_coordinates(
      std::size_t* frame_fallbacks = nullptr,
      const std::vector<char>* alive = nullptr,
      std::vector<float>* confidence = nullptr, unsigned threads = 0) const;

  /// Masked / partial ball-test round for incremental re-detection, on
  /// either coordinate path: `frames` (one per node) selects the frame
  /// path of `detect_on_frames`, null the true-coordinates path of
  /// `detect_with_true_coordinates`. Recomputes `flags[i]` (1 = candidate)
  /// for every node with `(*run_mask)[i] != 0` (all nodes when null),
  /// leaving the rest untouched; dead nodes (`alive` given and
  /// `(*alive)[i] == 0`) always get 0. Each node's flag is a pure function
  /// of its inputs — its frame and its one-hop witnesses' frames, or the
  /// alive positions within two hops — so running this over a dirty set
  /// that covers every node whose inputs changed reproduces the full run
  /// bit-identically. Thread-count independent like the detectors.
  /// `confidence`, when non-null, must be pre-sized to num_nodes; entries
  /// are rewritten under the same mask discipline as `flags`.
  void update_flags(
      const std::vector<localization::LocalFrame>* frames,
      std::vector<char>& flags, const std::vector<char>* alive = nullptr,
      const std::vector<char>* run_mask = nullptr, unsigned threads = 0,
      std::vector<float>* confidence = nullptr) const;

  /// The per-node kernel: runs the unit-ball test on an explicit point set.
  /// `coords[self_index]` is the node under test; entries with index
  /// < witness_count are one-hop members (candidate-ball witnesses);
  /// entries beyond are emptiness-only members (two-hop view). All share
  /// one (arbitrary) frame. `coord_uncertainty` is the caller's estimate
  /// of per-coordinate error (absolute units); negative derives it from
  /// `measurement_error_hint`.
  bool test_node(const std::vector<geom::Vec3>& coords, std::size_t self_index,
                 std::size_t witness_count,
                 UbfNodeDiagnostics* diag = nullptr,
                 double coord_uncertainty = -1.0) const;

  /// Overload where every member is a witness (pure one-hop view).
  bool test_node(const std::vector<geom::Vec3>& coords, std::size_t self_index,
                 UbfNodeDiagnostics* diag = nullptr) const {
    return test_node(coords, self_index, coords.size(), diag);
  }

  /// Like test_node, but collects up to `max_balls` empty balls as
  /// (witness_j, witness_k) index pairs instead of stopping at the vote
  /// threshold. Used by the cross-verification round. `diag`, when
  /// non-null, receives the per-node work counts (balls tested, nodes
  /// checked, empty balls found) for observability.
  std::vector<std::pair<std::size_t, std::size_t>> collect_empty_balls(
      const std::vector<geom::Vec3>& coords, std::size_t self_index,
      std::size_t witness_count, std::size_t max_balls,
      double coord_uncertainty, UbfNodeDiagnostics* diag = nullptr) const;

  /// Number of empty candidate balls, counted in exactly `test_node`'s
  /// enumeration order but *without* stopping at the vote threshold —
  /// the sweep runs until `cap` empty balls are found or the pairs are
  /// exhausted. With cap >= min_empty_balls, `count >= min_empty_balls`
  /// reproduces `test_node`'s verdict bit for bit; the surplus over the
  /// threshold is the confidence margin.
  std::size_t count_empty_balls(const std::vector<geom::Vec3>& coords,
                                std::size_t self_index,
                                std::size_t witness_count, std::size_t cap,
                                double coord_uncertainty = -1.0,
                                UbfNodeDiagnostics* diag = nullptr) const;

  /// Witness-side check: in `frame` (the witness's own frame), is at least
  /// one of the balls through nodes (a, b, c) empty? Returns true when the
  /// witness cannot evaluate the triple (missing members / bad frame) —
  /// benefit of the doubt.
  bool witness_confirms(const localization::LocalFrame& frame, net::NodeId a,
                        net::NodeId b, net::NodeId c) const;

  const UbfConfig& config() const { return config_; }

  /// Squared "strictly inside" thresholds (absolute units²): a member at
  /// squared distance d² from a candidate center blocks the ball iff
  /// d² < one_hop_sq (one-hop members) or d² < two_hop_sq (imported
  /// two-hop members; always <= one_hop_sq). Public so reference
  /// implementations (oracle tests, baselines) can reproduce the exact
  /// emptiness predicate.
  struct InsideLimits {
    double one_hop_sq;
    double two_hop_sq;
  };
  /// The thresholds at a given per-coordinate uncertainty (absolute units;
  /// negative derives it from `measurement_error_hint` — see the margin
  /// discussion above).
  InsideLimits inside_limits(double coord_uncertainty) const;

 private:
  const net::Network* network_;
  UbfConfig config_;
  double radius_;
};

}  // namespace ballfit::core
