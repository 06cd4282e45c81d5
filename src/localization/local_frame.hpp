#pragma once

/// \file local_frame.hpp
/// Local coordinate establishment (paper Sec. II-A3 step I).
///
/// Each node i collects noisy distance measurements between all pairs of
/// nodes in its neighborhood that are within measuring range of each
/// other, completes the missing pairs by shortest paths inside the
/// neighborhood, and embeds the result into R³ with classical MDS refined
/// by stress majorization over the measured pairs — the MDS-MAP(P)
/// localization the paper adopts (Shang & Ruml [31]). The output frame is
/// arbitrary up to rigid motion + reflection, which is exactly the
/// invariance class of the Unit Ball Fitting test.

#include <cstdint>
#include <vector>

#include "geom/vec3.hpp"
#include "linalg/matrix.hpp"
#include "net/measurement.hpp"
#include "net/network.hpp"

namespace ballfit::localization {

struct LocalFrame {
  /// Nodes in the frame; members[0] is always the owning node itself.
  /// members[1 .. one_hop_count-1] are the one-hop neighbors; members from
  /// one_hop_count on (present only in two-hop MDS-MAP frames) are two-hop
  /// nodes, usable as emptiness witnesses but not as ball witnesses.
  std::vector<net::NodeId> members;
  /// Embedded coordinates, indexed like `members`.
  std::vector<geom::Vec3> coords;
  /// Count of members that are the node itself or one-hop neighbors.
  std::size_t one_hop_count = 0;
  /// False when the neighborhood was too small/degenerate to embed.
  bool ok = false;
  /// RMS residual per measured pair after refinement,
  /// √(stress / #measured pairs) — a self-calibrated estimate of the local
  /// coordinate uncertainty (≈ the ranging noise std when refinement
  /// succeeds). UBF widens its emptiness slack proportionally.
  double stress_rms = 0.0;
};

/// Numerical-equivalence contract of the frame build (see
/// docs/ARCHITECTURE.md, `src/localization`). At both tiers every frame is a
/// pure function of (network, measurement model, scope, alive): a full
/// build, a partial rebuild, a direct per-node call, and
/// any thread count produce bit-identical frames.
enum class EquivalenceTier {
  /// Every fast path that changes rounding is off (legacy Guttman kernel,
  /// stress evaluated every sweep, no plateau exit, full-precision eigen
  /// init); the drift anchor `bench_compare` times the default against.
  kBitwise,
  /// The plateau exit (`kPlateauSweeps`, `kPlateauRelTol`,
  /// `kPlateauGuard`), the division-light sweep kernel, strided stress
  /// evaluation (`kStressStride`), and the looser eigen-init budget
  /// (`kMdsEigenIters`, `kMdsEigenTol`). Coordinates differ from kBitwise
  /// in rounding and exit points; the drift against kBitwise is watched by
  /// the bench_compare boundary tripwire. This is the default tier.
  kBoundaryIdentical,
};

/// One-hop frames with more members than this seed their refinement from
/// the 3-eigenpair `eigen_top_k` subspace iteration instead of a full
/// Jacobi decomposition (O(k·m²·iters) vs O(m³·sweeps)); below it dense
/// Jacobi is both faster and exact. The two inits land in the same
/// refinement basin, not on bit-identical coordinates.
inline constexpr std::size_t kTopkMdsThreshold = 24;

/// SMACOF attempts per frame: the first from the classical-MDS init, then
/// perturbed restarts while the stress exceeds the noise-consistent level.
/// Stress majorization inherits fold-over local minima from the biased
/// classical-MDS init (path-completed entries overestimate); a restart
/// keeps the best-stress embedding. At e > 0 the stress is almost always
/// acceptable after the first attempt and the restart is skipped
/// (`FrameBuildStats::restarts_skipped`); at e = 0 the acceptance level is
/// near zero and most frames run the second attempt.
inline constexpr int kSmacofAttempts = 2;
/// Seed of the deterministic restart perturbations; each node's stream is
/// keyed on its id.
inline constexpr std::uint64_t kRestartSeed = 0x5eedULL;

// Completion, refinement and eigen-init settings of the frame build. The
// default-tier-only ones are named at `EquivalenceTier::kBoundaryIdentical`;
// kBitwise runs the reference behavior in their place.

/// Fallback entry (× radio range; the two-hop builder doubles it) when
/// shortest-path completion leaves a member pair unreached; only reachable
/// in adversarial topologies.
inline constexpr double kMissingPairFallback = 2.0;
/// SMACOF sweeps per attempt of one-hop frames (`local_frame`).
inline constexpr int kSmacofSweeps = 60;
/// SMACOF sweeps per attempt of the (larger) two-hop MDS-MAP patches
/// (`mdsmap_frame`): coordinate-descent stress majorization needs more
/// rounds to propagate across a patch of ~150 nodes than across a one-hop
/// clique.
inline constexpr int kMdsmapSweeps = 250;
/// Default tier: Guttman sweeps per stress evaluation. The stress pass is
/// about a third of the sweep loop and only drives exit checks, so 2
/// halves that overhead at twice-coarser exit granularity; kBitwise
/// evaluates every sweep.
inline constexpr int kStressStride = 2;
/// Default tier plateau exit: refinement stops after `kPlateauSweeps`
/// consecutive stress evaluations (4 × `kStressStride` ≈ the 8-sweep tail
/// a stride-1 run would watch) whose relative improvement is below
/// `kPlateauRelTol`.
inline constexpr int kPlateauSweeps = 4;
inline constexpr double kPlateauRelTol = 6e-4;
/// Plateau guard, as a multiple of the e-noise floor pairs × (e·R)²/3:
/// evaluations count toward the plateau only once the stress is within
/// this multiple of that floor. A refinement stalled far above it is a
/// fold-over still unfolding and keeps its full budget — in particular at
/// zero measurement error, where the floor is (near) zero and slow-but-real
/// convergence must never be truncated.
inline constexpr double kPlateauGuard = 4.0;
/// Default tier subspace-iteration budget (iteration cap / relative
/// Rayleigh-quotient tolerance) for the classical-MDS init of two-hop
/// patches. The init only seeds the measured-pair SMACOF refinement, so
/// the reference tolerance (1e-6, kept by kBitwise together with the
/// same 60-iteration cap) polishes eigenvectors far beyond what the
/// refinement basin needs. Hard iteration caps below ~30 do visibly
/// degrade the init (fold-overs the refinement cannot undo).
inline constexpr int kMdsEigenIters = 60;
inline constexpr double kMdsEigenTol = 1e-4;

struct LocalizerConfig {
  /// Equivalence tier of the whole frame build.
  EquivalenceTier tier = EquivalenceTier::kBoundaryIdentical;

  bool operator==(const LocalizerConfig&) const = default;
};

/// Work accounting of one frame build (a `build_all_frames` call or a
/// single direct frame build). The counters are exported as `loc.*` obs
/// counters; everything goes out through
/// `core::PipelineResult::localize_stats`.
struct FrameBuildStats {
  /// Frames processed, including degenerate (< 4 one-hop members) and
  /// masked-dead placeholders.
  std::uint64_t frames_built = 0;
  /// SMACOF sweeps actually executed vs. the budget the fixed
  /// configuration would have allowed for the same runs.
  std::uint64_t sweeps_executed = 0;
  std::uint64_t sweep_budget = 0;
  /// Restart attempts skipped because the stress was already acceptable.
  std::uint64_t restarts_skipped = 0;
  /// Refinement runs that exited on the stress plateau cap.
  std::uint64_t plateau_exits = 0;
  /// (row, column) relaxation visits of the two-hop shortest-path
  /// completion, summed over its rounds (the one-hop build is not counted).
  /// Deterministic: independent of thread count and of full vs. partial
  /// builds.
  std::uint64_t completion_scans = 0;
  /// Wall time (ns, summed over frames and worker threads) of the two-hop
  /// build's phases: member gather + measured-pair fill, shortest-path
  /// completion, double-centering, the top-3 eigen init, and the SMACOF
  /// refinement. Wall clock, so unlike the counters above they vary run
  /// to run; they are reported by `bench_compare`, never as `loc.*` obs
  /// counters (whose gate is exact or near-exact).
  std::uint64_t gather_ns = 0;
  std::uint64_t completion_ns = 0;
  std::uint64_t center_ns = 0;
  std::uint64_t eigen_ns = 0;
  std::uint64_t refine_ns = 0;

  void merge(const FrameBuildStats& o) {
    frames_built += o.frames_built;
    sweeps_executed += o.sweeps_executed;
    sweep_budget += o.sweep_budget;
    restarts_skipped += o.restarts_skipped;
    plateau_exits += o.plateau_exits;
    completion_scans += o.completion_scans;
    gather_ns += o.gather_ns;
    completion_ns += o.completion_ns;
    center_ns += o.center_ns;
    eigen_ns += o.eigen_ns;
    refine_ns += o.refine_ns;
  }
};

class Localizer {
 public:
  /// Draws every radio edge's measured distance once
  /// (`net::EdgeMeasurementCache`); all frame builds on all threads read
  /// that cache.
  Localizer(const net::Network& network, const net::NoisyDistanceModel& model,
            LocalizerConfig config = {});

  /// Builds node i's local frame from one-hop measurements only. `alive`,
  /// when non-null, masks out crashed nodes: dead neighbors contribute no
  /// membership and no measurements (they are silent), shrinking the frame
  /// exactly as a real crash would. A null mask is bit-identical to an
  /// all-alive one. The measurement model draws per node-id pair, so a
  /// masked frame's surviving measurements match the unmasked ones bitwise.
  /// `stats`, here and on `mdsmap_frame`, when non-null accumulates the
  /// build's SMACOF work accounting (sweeps, exits, skipped restarts).
  LocalFrame local_frame(net::NodeId i,
                         const std::vector<char>* alive = nullptr,
                         FrameBuildStats* stats = nullptr) const;

  /// Builds node i's frame over its full two-hop neighborhood, MDS-MAP(P)
  /// style (Shang & Ruml [31], the method the paper adopts): classical MDS
  /// on the shortest-path-completed two-hop distance matrix, then stress
  /// majorization over the measured pairs. Every patch member carries
  /// close to its full degree of constraints here (vs ~⅓ in a one-hop
  /// frame), which suppresses the fold-over ambiguities that dominate
  /// one-hop embeddings. This is the frame Unit Ball Fitting consumes.
  /// `alive` masks crashed nodes out of the patch (see `local_frame`);
  /// dead nodes neither join the member set nor relay two-hop membership.
  LocalFrame mdsmap_frame(net::NodeId i,
                          const std::vector<char>* alive = nullptr,
                          FrameBuildStats* stats = nullptr) const;

  /// RMS coordinate error of a frame against ground truth, after optimal
  /// rigid alignment (evaluation helper; not available to nodes).
  double frame_rms_error(const LocalFrame& frame) const;

  const net::Network& network() const { return *network_; }
  const net::NoisyDistanceModel& model() const { return *model_; }
  const LocalizerConfig& config() const { return config_; }

 private:
  /// The init stage of `mdsmap_frame` — member gather, measured-pair
  /// fill, shortest-path completion, classical-MDS spectral start.
  /// Returns false when the neighborhood is degenerate (`frame` is then
  /// finalized not-ok). On success `frame` holds members/one_hop_count,
  /// `init` the start coordinates, and the calling thread's scratch
  /// matrices the measured-pair system the refinement must honor.
  bool mdsmap_init(net::NodeId i, const std::vector<char>* alive,
                   LocalFrame& frame, std::vector<geom::Vec3>& init,
                   FrameBuildStats* stats) const;

  /// SMACOF with the restart logic shared by both frame builders: refines
  /// `init` for up to `sweeps` sweeps against the measured pairs (w > 0),
  /// restarting from perturbed initializations while the stress exceeds
  /// the noise-consistent level.
  std::vector<geom::Vec3> refine_embedding(const linalg::Matrix& d,
                                           const linalg::Matrix& w,
                                           std::vector<geom::Vec3> init,
                                           net::NodeId node, int sweeps,
                                           double* stress_rms,
                                           FrameBuildStats* stats) const;

  const net::Network* network_;
  const net::NoisyDistanceModel* model_;
  LocalizerConfig config_;
  /// Per-edge measured distances, drawn once at construction. Shared
  /// read-only by all frame builds on all threads.
  net::EdgeMeasurementCache edge_cache_;
};

/// Which neighborhood a frame covers (mirrors the UBF emptiness scope:
/// one-hop frames for the literal Algorithm 1 listing, two-hop MDS-MAP
/// patches for the paper-accurate default).
enum class FrameScope { kOneHop, kTwoHop };

/// Builds (or partially rebuilds) every node's frame into `frames` — the
/// Localize stage artifact of `core::DetectionSession`, also the input of
/// `UnitBallFitting::detect_on_frames`. One `parallel_for` over the per-node
/// builders (`local_frame` for kOneHop, `mdsmap_frame` for kTwoHop).
///
///   - `alive` (optional): crashed-node mask forwarded to the per-node
///     builders; dead nodes get a default (not-ok) frame.
///   - `rebuild` (optional): when non-null, `frames` must already hold a
///     full build and only nodes with `(*rebuild)[i] != 0` are recomputed —
///     the incremental re-detection path. A frame is a pure function of
///     (network, measurement model, scope, alive), so a partial rebuild
///     over a sound dirty set is bit-identical to a full build.
///   - `stats` (optional): receives the build's `FrameBuildStats`. The
///     same totals are always added to the `loc.*` obs counters when obs
///     is enabled.
///
/// Emits one "frame" trace span per rebuilt node under the caller's span
/// (the workers adopt the calling thread's span path). `threads` = 0 uses
/// hardware concurrency; results are independent of the thread count.
void build_all_frames(const Localizer& localizer, FrameScope scope,
                      std::vector<LocalFrame>& frames, unsigned threads = 0,
                      const std::vector<char>* alive = nullptr,
                      const std::vector<char>* rebuild = nullptr,
                      FrameBuildStats* stats = nullptr);

}  // namespace ballfit::localization
