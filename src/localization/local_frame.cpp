#include "localization/local_frame.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/epoch_map.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "linalg/eigen.hpp"
#include "linalg/mds.hpp"
#include "linalg/procrustes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ballfit::localization {

using net::NodeId;

namespace {

constexpr double kMissing = std::numeric_limits<double>::infinity();

/// A frame waiting for its block's batched refinement: the assembled
/// member set plus its slot in the SmacofBatch and the stress gate the
/// result is judged against afterwards (warm acceptance at kFast,
/// restart-loop acceptance in the blocked cold build).
struct PendingWarm {
  NodeId node = 0;
  LocalFrame frame;
  std::size_t slot = 0;
  std::size_t pairs = 0;
  double gate = 0.0;
  int budget = 0;
};

/// Per-thread scratch arena for the frame builders. Every matrix/vector a
/// frame build needs lives here and is re-shaped (not re-allocated) per
/// node, so steady-state frame construction is heap-free. Contents are
/// dead between frame builds — nothing may escape by reference, and no
/// result may depend on which thread (and hence which arena) built a
/// frame. `slot` maps a node id to its member index for the frame
/// currently under construction (epoch-cleared per frame).
struct LocScratch {
  linalg::Matrix d;     // member-pair distances (measured + completed)
  linalg::Matrix w;     // 1.0 where measured, 0 elsewhere
  linalg::Matrix gram;  // centered Gram matrix for the top-k MDS path
  linalg::SmacofProblem smacof;
  EpochSlotMap slot;
  std::vector<NodeId> tail;  // two-hop tail accumulator
  // Measured-edge CSR for shortest-path completion: rows hold the
  // *pre-completion* measured distances (completion lowers d in place, but
  // must relax over the original edge lengths).
  std::vector<std::uint32_t> comp_begin;
  std::vector<std::uint32_t> comp_adj;
  std::vector<double> comp_dist;
  std::vector<char> comp_dirty;  // rows whose d changed since their last scan
  // Warm-start path: per-block SMACOF batch, warm init under construction,
  // member coverage flags, Procrustes anchor pairs, and the block's
  // pending frames.
  linalg::SmacofBatch batch;
  std::vector<geom::Vec3> init;
  std::vector<char> covered;
  std::vector<geom::Vec3> anchor_src;
  std::vector<geom::Vec3> anchor_tgt;
  std::vector<PendingWarm> pending;
};

LocScratch& scratch() {
  thread_local LocScratch s;
  return s;
}

/// Fills d (m×m, `kMissing` off-diagonal default) and w (m×m zeros) with
/// the measured distance of every member pair that is a radio edge, and
/// returns the number of measured unordered pairs.
/// Requires `slot` to map members[a] → a for exactly the current members.
///
/// The cache path walks each member's network adjacency row (O(Σ deg))
/// instead of testing all O(m²) pairs; both endpoints write the same
/// cached value, so the result is symmetric and bit-identical to the
/// model-query path.
struct MeasuredPairs {
  std::size_t pairs = 0;  ///< measured unordered pairs
};

MeasuredPairs fill_measured_pairs(const net::Network& net,
                                  const net::NoisyDistanceModel& model,
                                  const net::EdgeMeasurementCache* cache,
                                  const std::vector<NodeId>& members,
                                  const EpochSlotMap& slot, linalg::Matrix& d,
                                  linalg::Matrix& w) {
  const std::size_t m = members.size();
  MeasuredPairs mp;
  d.resize(m, m, kMissing);
  w.resize(m, m, 0.0);
  for (std::size_t a = 0; a < m; ++a) d(a, a) = 0.0;
  if (cache != nullptr) {
    for (std::size_t a = 0; a < m; ++a) {
      const auto nbrs = net.neighbors(members[a]);
      const double* meas = cache->row(members[a]);
      for (std::size_t t = 0; t < nbrs.size(); ++t) {
        const std::uint32_t b = slot.find(nbrs[t]);
        if (b == EpochSlotMap::kNotFound) continue;
        d(a, b) = meas[t];
        w(a, b) = 1.0;
        mp.pairs += b > a;  // each radio edge is visited from both ends
      }
    }
  } else {
    for (std::size_t a = 0; a < m; ++a)
      for (std::size_t b = a + 1; b < m; ++b) {
        if (!net.are_neighbors(members[a], members[b])) continue;
        const double meas = model.measured_distance(members[a], members[b]);
        d(a, b) = d(b, a) = meas;
        w(a, b) = w(b, a) = 1.0;
        ++mp.pairs;
      }
  }
  return mp;
}

/// Adaptive stress floor of a measured-pair set: at the true configuration
/// the expected residual per pair is Var[d̂−d] = (e·R)²/3 for the
/// Uniform(−e·R, e·R) ranging noise, so `floor_factor` = 1 stops at the
/// noise-consistent level. SMACOF overfits part of the noise (it spends
/// ~3m coordinate DOF on ~deg·m/2 residuals), so matching the legacy
/// full-budget refinement requires a factor below 1 — see
/// `LocalizerConfig::adaptive_floor`. The 1e-9·pairs term keeps the floor
/// positive (and the stress exit reachable) at e = 0, where refinement
/// runs to numerical exactness.
double noise_floor_stress(double error_abs, double floor_factor,
                          const MeasuredPairs& mp) {
  const double per_pair = (error_abs * error_abs / 3.0) * floor_factor + 1e-9;
  return static_cast<double>(mp.pairs) * per_pair;
}

namespace {

/// Configures the optimized-tier sweep behavior of one frame's SMACOF run
/// from the localizer knobs: the division-light Guttman kernel at every
/// non-bitwise tier, plus the adaptive exits when those are enabled. The
/// plateau guard is expressed in noise-floor units (not `stop_stress`
/// units) so plateau exits stay armed when the stress floor is disabled —
/// `adaptive_floor` ≤ 0 leaves `stop_stress` at 0 and the run exits only
/// on plateau or budget. Shared by the per-node, blocked, and warm
/// builders so all three hand `SmacofBatch` / `SmacofProblem` the same
/// contract (the per-frame purity the default tier guarantees).
void set_adaptive_exits(const LocalizerConfig& cfg, double error_abs,
                        const MeasuredPairs& mp, linalg::SmacofConfig& sc) {
  if (cfg.tier == EquivalenceTier::kBitwise) return;
  sc.fast_sweep = true;
  sc.stress_stride = cfg.stress_stride;
  if (!cfg.adaptive_active()) return;
  if (cfg.adaptive_floor > 0.0)
    sc.stop_stress = noise_floor_stress(error_abs, cfg.adaptive_floor, mp);
  sc.plateau_sweeps = cfg.plateau_sweeps;
  sc.plateau_rel_tol = cfg.plateau_rel_tol;
  sc.plateau_guard_stress =
      cfg.plateau_guard * noise_floor_stress(error_abs, 1.0, mp);
}

}  // namespace

/// Gathers node i's two-hop member set — {i} ∪ N(i) followed by the
/// sorted N²(i) tail — into `frame` and leaves `s.slot` mapping
/// members[a] → a. When the one-hop count lands under 4 the gather stops
/// early (degenerate frame; the caller decides). Shared by the cold
/// MDS-MAP builder and the warm-start scheduler so both assemble the
/// exact same member sets.
void gather_two_hop_members(const net::Network& net,
                            const std::vector<char>* alive, NodeId i,
                            LocalFrame& frame, LocScratch& s) {
  frame.members.push_back(i);
  const auto nb = net.neighbors(i);
  for (NodeId v : nb) {
    if (alive != nullptr && (*alive)[v] == 0) continue;  // crashed: silent
    frame.members.push_back(v);
  }
  frame.one_hop_count = frame.members.size();
  if (frame.one_hop_count < 4) return;

  // Two-hop tail, sorted for determinism. The epoch-stamped slot map
  // doubles as the dedup set and, once the tail is appended, as the
  // node-id → member-slot index the measured-pair fill needs.
  s.slot.reset_universe(net.num_nodes());
  s.slot.clear();
  for (std::size_t a = 0; a < frame.members.size(); ++a)
    s.slot.insert(frame.members[a], static_cast<std::uint32_t>(a));
  s.tail.clear();
  for (NodeId j : nb) {
    // A dead neighbor neither relays its one-hop frame nor appears in it.
    if (alive != nullptr && (*alive)[j] == 0) continue;
    for (NodeId u : net.neighbors(j)) {
      if (alive != nullptr && (*alive)[u] == 0) continue;
      if (s.slot.insert(u, 0)) s.tail.push_back(u);
    }
  }
  std::sort(s.tail.begin(), s.tail.end());
  frame.members.insert(frame.members.end(), s.tail.begin(), s.tail.end());
  // Re-stamp every member with its final slot (the tail got placeholder
  // values before sorting). `insert` skips present keys, so overwrite
  // through a fresh epoch.
  s.slot.clear();
  for (std::size_t a = 0; a < frame.members.size(); ++a)
    s.slot.insert(frame.members[a], static_cast<std::uint32_t>(a));
}

}  // namespace

Localizer::Localizer(const net::Network& network,
                     const net::NoisyDistanceModel& model,
                     LocalizerConfig config)
    : network_(&network), model_(&model), config_(config) {
  BALLFIT_REQUIRE(&model.network() == &network,
                  "measurement model must wrap the same network");
  if (config_.use_edge_cache) edge_cache_.emplace(model);
}

LocalFrame Localizer::local_frame(NodeId i, const std::vector<char>* alive,
                                  FrameBuildStats* effort,
                                  EffortClass node_effort) const {
  BALLFIT_REQUIRE(i < network_->num_nodes(), "node id out of range");

  LocalFrame frame;
  frame.members.push_back(i);
  for (NodeId v : network_->neighbors(i)) {
    if (alive != nullptr && (*alive)[v] == 0) continue;  // crashed: silent
    frame.members.push_back(v);
  }
  const std::size_t m = frame.members.size();
  frame.one_hop_count = m;

  if (m < 4) {
    // Fewer than 4 points cannot span a 3D frame; the caller decides how to
    // treat such degenerate nodes (UBF flags them as boundary).
    frame.ok = false;
    frame.coords.assign(m, {});
    return frame;
  }

  // Measured distances where available; "infinite" where not. The weight
  // matrix marks which entries are real measurements — only those are
  // honored by the SMACOF refinement below. members[0]=i is adjacent to
  // every other member, so "pair is a radio edge" covers all pairs a
  // one-hop frame can measure.
  LocScratch& s = scratch();
  s.slot.reset_universe(network_->num_nodes());
  s.slot.clear();
  for (std::size_t a = 0; a < m; ++a)
    s.slot.insert(frame.members[a], static_cast<std::uint32_t>(a));
  fill_measured_pairs(*network_, *model_,
                      edge_cache_ ? &*edge_cache_ : nullptr, frame.members,
                      s.slot, s.d, s.w);
  linalg::Matrix& d = s.d;
  linalg::Matrix& w = s.w;

  // Shortest-path completion of unmeasured pairs within the neighborhood
  // (all pairs are joined through i at worst, so no entry stays infinite).
  if (config_.complete_missing_pairs) {
    for (std::size_t k = 0; k < m; ++k)
      for (std::size_t a = 0; a < m; ++a) {
        const double dak = d(a, k);
        if (dak == kMissing) continue;
        for (std::size_t b = 0; b < m; ++b) {
          const double cand = dak + d(k, b);
          if (cand < d(a, b)) d(a, b) = d(b, a) = cand;
        }
      }
  }
  const double fallback =
      config_.missing_pair_fallback * network_->radio_range();
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = 0; b < m; ++b)
      if (d(a, b) == kMissing) d(a, b) = fallback;

  if (config_.topk_mds && m > config_.topk_mds_threshold) {
    // Only the top-3 eigenpairs feed the embedding; for larger
    // neighborhoods subspace iteration beats the full Jacobi by ~m/3².
    linalg::double_center_into(d, s.gram);
    const linalg::EigenDecomposition eig =
        linalg::eigen_top_k(s.gram, 3, /*max_iters=*/60, /*tol=*/1e-6);
    std::vector<geom::Vec3> init(m);
    for (std::size_t r = 0; r < m; ++r) {
      double c[3] = {0.0, 0.0, 0.0};
      for (int k = 0; k < 3; ++k) {
        const double lambda =
            std::max(0.0, eig.values[static_cast<std::size_t>(k)]);
        c[k] = eig.vectors(r, static_cast<std::size_t>(k)) * std::sqrt(lambda);
      }
      init[r] = {c[0], c[1], c[2]};
    }
    frame.coords =
        refine_embedding(d, w, std::move(init), i, 0, &frame.stress_rms,
                         effort, nullptr, 0.0, node_effort);
    frame.ok = true;
    // embed_residual needs λ₄, which the top-k path does not compute; it
    // stays 0 (nothing downstream consumes it).
  } else {
    linalg::MdsResult mds = linalg::classical_mds(d, 3);
    frame.coords =
        refine_embedding(d, w, std::move(mds.coords), i, 0, &frame.stress_rms,
                         effort, nullptr, 0.0, node_effort);
    frame.ok = mds.converged;
    if (mds.gram_eigenvalues.size() >= 4 && mds.gram_eigenvalues[2] > 1e-12) {
      frame.embed_residual =
          std::fabs(mds.gram_eigenvalues[3]) / mds.gram_eigenvalues[2];
    }
  }
  return frame;
}

std::vector<geom::Vec3> Localizer::refine_embedding(
    const linalg::Matrix& d, const linalg::Matrix& w,
    std::vector<geom::Vec3> init, NodeId node, int sweeps_override,
    double* stress_rms, FrameBuildStats* effort,
    const std::vector<geom::Vec3>* attempt0, double attempt0_stress,
    EffortClass node_effort) const {
  if (config_.smacof_sweeps <= 0) return init;
  const std::size_t m = init.size();

  // Sparse path: extract the measured edges into CSR once, so each restart
  // and each sweep costs O(edges) instead of a dense m² matrix scan. The
  // problem lives in the thread-local arena; it is consumed before this
  // thread builds its next frame.
  linalg::SmacofProblem* problem = nullptr;
  if (config_.sparse_smacof) {
    problem = &scratch().smacof;
    problem->assign(d, w);
  }
  std::size_t measured_pairs = 0;
  if (problem != nullptr) {
    measured_pairs = problem->num_edges();
  } else {
    for (std::size_t a = 0; a < m; ++a)
      for (std::size_t b = a + 1; b < m; ++b) measured_pairs += w(a, b) > 0.0;
  }
  const double e = model_->error_fraction() * network_->radio_range();
  // E[(d̂−d)²] = e²/3 for Uniform(−e, e) noise; the embedding residual per
  // pair should not exceed that noise floor by much. The 1.5 factor is
  // the historical restart-acceptance level — part of the kBitwise
  // contract (and replicated by the blocked builder), do not retune.
  const double accept_stress =
      noise_floor_stress(e, 1.5, MeasuredPairs{measured_pairs});

  // Stress majorization over measured pairs removes the completion bias of
  // the classical-MDS init (path lengths overestimate). With exact
  // measurements the true configuration has zero stress, so a result above
  // the noise-consistent stress level is a fold-over local minimum and
  // worth retrying from a perturbed init.
  linalg::SmacofConfig sc;
  sc.max_sweeps =
      sweeps_override > 0 ? sweeps_override : config_.smacof_sweeps;
  set_adaptive_exits(config_, e, MeasuredPairs{measured_pairs}, sc);
  // Per-node effort overrides (see EffortClass). kFull disarms the
  // adaptive exits so the run spends the whole configured budget; kCheap
  // halves it. Both leave the kernel flags (fast_sweep, stress_stride)
  // alone — the per-sweep arithmetic stays tier-pure either way.
  if (node_effort == EffortClass::kFull) {
    sc.stop_stress = 0.0;
    sc.plateau_sweeps = 0;
  } else if (node_effort == EffortClass::kCheap) {
    sc.max_sweeps = std::max(1, sc.max_sweeps / 2);
  }

  double best_stress = std::numeric_limits<double>::infinity();
  std::vector<geom::Vec3> best;
  Rng restart_rng(config_.restart_seed ^
                  (static_cast<std::uint64_t>(node) * 0x9e3779b97f4a7c15ULL));
  // A cheap node takes one attempt: the restart machinery exists to escape
  // fold-over minima, which a confidently-classified node's frame has
  // already been judged free of.
  const int max_attempts = node_effort == EffortClass::kCheap
                               ? 1
                               : std::max(1, config_.smacof_restarts);
  int attempts = 0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt == 0 && attempt0 != nullptr) {
      // First attempt already executed by the caller (blocked batch);
      // adopt its result — the effort was accounted there. The restart
      // RNG stream is untouched, so later attempts draw exactly what the
      // monolithic loop would have drawn.
      ++attempts;
      best_stress = attempt0_stress;
      best = *attempt0;
      if (best_stress <= accept_stress) break;
      continue;
    }
    ++attempts;
    std::vector<geom::Vec3> start = init;
    if (attempt > 0) {
      const double jitter = 0.25 * network_->radio_range();
      for (geom::Vec3& p : start) {
        p += geom::Vec3{restart_rng.uniform(-jitter, jitter),
                        restart_rng.uniform(-jitter, jitter),
                        restart_rng.uniform(-jitter, jitter)};
      }
    }
    double stress = 0.0;
    linalg::SmacofRunInfo run;
    auto refined = problem != nullptr
                       ? problem->refine(std::move(start), sc, &stress,
                                         nullptr, &run)
                       : linalg::smacof_refine(d, w, std::move(start), sc,
                                               &stress, nullptr, &run);
    if (effort != nullptr) {
      effort->sweeps_executed += static_cast<std::uint64_t>(run.sweeps);
      effort->sweep_budget += static_cast<std::uint64_t>(sc.max_sweeps);
      effort->plateau_exits += run.plateau_exit;
      effort->stress_exits += run.stress_exit;
    }
    if (stress < best_stress) {
      best_stress = stress;
      best = std::move(refined);
    }
    if (best_stress <= accept_stress) break;
  }
  if (effort != nullptr && best_stress <= accept_stress)
    effort->restarts_skipped +=
        static_cast<std::uint64_t>(max_attempts - attempts);
  if (stress_rms != nullptr) {
    *stress_rms = measured_pairs == 0
                      ? 0.0
                      : std::sqrt(best_stress /
                                  static_cast<double>(measured_pairs));
  }
  return best;
}

bool Localizer::mdsmap_init(NodeId i, const std::vector<char>* alive,
                            LocalFrame& frame, std::vector<geom::Vec3>& init,
                            std::size_t& measured_pairs,
                            EffortClass node_effort) const {
  BALLFIT_REQUIRE(i < network_->num_nodes(), "node id out of range");

  LocScratch& s = scratch();
  gather_two_hop_members(*network_, alive, i, frame, s);

  if (frame.one_hop_count < 4) {
    frame.ok = false;
    frame.coords.assign(frame.members.size(), {});
    return false;
  }
  const std::size_t m = frame.members.size();

  // Measured distances for adjacent member pairs.
  measured_pairs =
      fill_measured_pairs(*network_, *model_,
                          edge_cache_ ? &*edge_cache_ : nullptr,
                          frame.members, s.slot, s.d, s.w)
          .pairs;
  linalg::Matrix& d = s.d;
  linalg::Matrix& w = s.w;

  // Shortest-path completion. The patch has diameter <= 4 hops, so a few
  // rounds of sparse relaxation over the measured edges (a→k→b with (k,b)
  // measured) reach every pair — O(m·deg²) per round instead of
  // Floyd–Warshall's O(m³), which dominates the whole pipeline on patches
  // of ~150 nodes. The CSR rows hold pre-completion copies of d: the
  // relaxation must keep extending over the original measured edge
  // lengths even as d(a,b) entries drop below them.
  if (config_.complete_missing_pairs) {
    s.comp_begin.resize(m + 1);
    s.comp_adj.clear();
    s.comp_dist.clear();
    for (std::size_t a = 0; a < m; ++a) {
      s.comp_begin[a] = static_cast<std::uint32_t>(s.comp_adj.size());
      for (std::size_t b = 0; b < m; ++b)
        if (w(a, b) > 0.0) {
          s.comp_adj.push_back(static_cast<std::uint32_t>(b));
          s.comp_dist.push_back(d(a, b));
        }
    }
    s.comp_begin[m] = static_cast<std::uint32_t>(s.comp_adj.size());
    // Each round extends known distances by one measured edge; three
    // rounds cover the 4-hop patch diameter. The edge lengths are static
    // (pre-completion CSR copies), so a row's pass reads only its own d
    // row — rescanning a row whose d entries did not change since its
    // last scan began recomputes the exact same candidates and writes
    // nothing. Skipping such rows (and a round with no dirty rows left)
    // is therefore bit-identical at every tier; dense patches usually
    // finish in one round, and later rounds touch only the few rows the
    // previous one lowered.
    s.comp_dirty.assign(m, 1);
    for (int round = 0; round < 3; ++round) {
      bool changed = false;
      for (std::size_t a = 0; a < m; ++a) {
        if (!s.comp_dirty[a]) continue;
        s.comp_dirty[a] = 0;
        for (std::size_t k = 0; k < m; ++k) {
          const double dak = d(a, k);
          if (dak == kMissing) continue;
          const std::uint32_t end = s.comp_begin[k + 1];
          for (std::uint32_t e = s.comp_begin[k]; e < end; ++e) {
            const std::size_t b = s.comp_adj[e];
            const double cand = dak + s.comp_dist[e];
            if (cand < d(a, b)) {
              d(a, b) = d(b, a) = cand;
              s.comp_dirty[a] = s.comp_dirty[b] = 1;
              changed = true;
            }
          }
        }
      }
      if (!changed) break;
    }
  }
  const double fallback =
      config_.missing_pair_fallback * 2.0 * network_->radio_range();
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = 0; b < m; ++b)
      if (d(a, b) == kMissing) d(a, b) = fallback;

  // Classical MDS init from the top-3 eigenpairs of the centered Gram
  // matrix. kBitwise keeps the pre-warm-start subspace budget; the
  // optimized tiers stop at `mds_eigen_iters`/`mds_eigen_tol` — the
  // measured-pair refinement reshapes the init long before full eigen
  // convergence would pay for itself (at the historical budget the
  // subspace iteration is over a third of the whole frame build).
  linalg::double_center_into(d, s.gram);
  // A kFull node gets the kBitwise-grade init regardless of tier; a kCheap
  // node relaxes the tolerance 10× (the refinement basin tolerates a much
  // rougher start than even the default tolerance demands).
  const bool full_eigen = config_.tier == EquivalenceTier::kBitwise ||
                          node_effort == EffortClass::kFull;
  const double eigen_tol = node_effort == EffortClass::kCheap
                               ? config_.mds_eigen_tol * 10.0
                               : config_.mds_eigen_tol;
  const linalg::EigenDecomposition eig = linalg::eigen_top_k(
      s.gram, 3, full_eigen ? 60 : config_.mds_eigen_iters,
      full_eigen ? 1e-6 : eigen_tol,
      /*data_seed=*/!full_eigen);
  init.resize(m);
  for (std::size_t r = 0; r < m; ++r) {
    double c[3] = {0.0, 0.0, 0.0};
    for (int k = 0; k < 3; ++k) {
      const double lambda = std::max(0.0, eig.values[static_cast<std::size_t>(k)]);
      c[k] = eig.vectors(r, static_cast<std::size_t>(k)) * std::sqrt(lambda);
    }
    init[r] = {c[0], c[1], c[2]};
  }
  return true;
}

LocalFrame Localizer::mdsmap_frame(NodeId i, const std::vector<char>* alive,
                                   FrameBuildStats* effort,
                                   EffortClass node_effort) const {
  LocalFrame frame;
  std::vector<geom::Vec3> init;
  std::size_t measured_pairs = 0;
  if (!mdsmap_init(i, alive, frame, init, measured_pairs, node_effort))
    return frame;
  // Measured-pair stress majorization on the scratch system the init
  // stage left behind (still this thread's, untouched since).
  LocScratch& s = scratch();
  frame.coords =
      refine_embedding(s.d, s.w, std::move(init), i, config_.mdsmap_sweeps,
                       &frame.stress_rms, effort, nullptr, 0.0, node_effort);
  frame.ok = true;
  return frame;
}

LocalFrame Localizer::mdsmap_frame_resume(
    NodeId i, const std::vector<char>* alive,
    const std::vector<geom::Vec3>& attempt0, double attempt0_stress,
    FrameBuildStats* effort, EffortClass node_effort) const {
  LocalFrame frame;
  std::vector<geom::Vec3> init;
  std::size_t measured_pairs = 0;
  if (!mdsmap_init(i, alive, frame, init, measured_pairs, node_effort))
    return frame;
  LocScratch& s = scratch();
  frame.coords =
      refine_embedding(s.d, s.w, std::move(init), i, config_.mdsmap_sweeps,
                       &frame.stress_rms, effort, &attempt0, attempt0_stress,
                       node_effort);
  frame.ok = true;
  return frame;
}

void Localizer::refine_with_measurements(LocalFrame& frame,
                                         int sweeps) const {
  if (!frame.ok || sweeps <= 0) return;
  const std::size_t m = frame.members.size();
  LocScratch& s = scratch();
  s.slot.reset_universe(network_->num_nodes());
  s.slot.clear();
  for (std::size_t a = 0; a < m; ++a)
    s.slot.insert(frame.members[a], static_cast<std::uint32_t>(a));
  // Unmeasured entries stay at kMissing here instead of the 0.0 the dense
  // builder used; both are inert — every consumer below honors only the
  // w > 0 entries.
  fill_measured_pairs(*network_, *model_,
                      edge_cache_ ? &*edge_cache_ : nullptr, frame.members,
                      s.slot, s.d, s.w);
  linalg::SmacofConfig sc;
  sc.max_sweeps = sweeps;
  if (config_.sparse_smacof) {
    s.smacof.assign(s.d, s.w);
    frame.coords = s.smacof.refine(std::move(frame.coords), sc);
  } else {
    frame.coords =
        linalg::smacof_refine(s.d, s.w, std::move(frame.coords), sc);
  }
}

TwoHopFrames::TwoHopFrames(const Localizer& localizer, unsigned threads)
    : localizer_(&localizer) {
  const net::Network& net = localizer.network();
  frames_.resize(net.num_nodes());
  parallel_for(
      net.num_nodes(),
      [&](std::size_t i) {
        frames_[i] = localizer.local_frame(static_cast<NodeId>(i));
      },
      threads == 0 ? default_threads() : threads);
}

namespace {

/// One-round trimmed Procrustes: align, drop pairs whose residual exceeds
/// 2.5× the median (fold-over outliers in either frame), realign on the
/// inliers. Falls back to the plain alignment when trimming would leave
/// fewer than 4 anchors.
linalg::ProcrustesResult robust_align(const std::vector<geom::Vec3>& source,
                                      const std::vector<geom::Vec3>& target) {
  linalg::ProcrustesResult first = linalg::procrustes_align(source, target);
  const std::size_t n = source.size();
  std::vector<double> residuals(n);
  for (std::size_t k = 0; k < n; ++k)
    residuals[k] = first.aligned[k].distance_to(target[k]);
  std::vector<double> sorted = residuals;
  std::nth_element(sorted.begin(), sorted.begin() + n / 2, sorted.end());
  const double median = sorted[n / 2];
  const double cutoff = 2.5 * median + 1e-12;

  std::vector<geom::Vec3> s2, t2;
  for (std::size_t k = 0; k < n; ++k) {
    if (residuals[k] <= cutoff) {
      s2.push_back(source[k]);
      t2.push_back(target[k]);
    }
  }
  if (s2.size() < 4 || s2.size() == n) return first;
  return linalg::procrustes_align(s2, t2);
}

/// Robust consensus of several position estimates: medoid (minimal summed
/// distance to the others), then the mean of the estimates within
/// `cluster_radius` of it. Outvotes fold-over outliers.
geom::Vec3 consensus(const std::vector<geom::Vec3>& estimates,
                     double cluster_radius) {
  if (estimates.size() == 1) return estimates[0];
  std::size_t best = 0;
  double best_sum = std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < estimates.size(); ++a) {
    double sum = 0.0;
    for (std::size_t b = 0; b < estimates.size(); ++b)
      sum += estimates[a].distance_to(estimates[b]);
    if (sum < best_sum) {
      best_sum = sum;
      best = a;
    }
  }
  geom::Vec3 acc{};
  int count = 0;
  for (const geom::Vec3& e : estimates) {
    if (e.distance_to(estimates[best]) <= cluster_radius) {
      acc += e;
      ++count;
    }
  }
  return acc / static_cast<double>(count);
}

}  // namespace

LocalFrame TwoHopFrames::frame(NodeId i, int refine_sweeps) const {
  const net::Network& net = localizer_->network();
  BALLFIT_REQUIRE(i < net.num_nodes(), "node id out of range");
  LocalFrame out = frames_[i];
  if (!out.ok) return out;

  // Index of each base member in `out`.
  std::unordered_map<NodeId, std::size_t> base_index;
  base_index.reserve(out.members.size() * 2);
  for (std::size_t a = 0; a < out.members.size(); ++a)
    base_index.emplace(out.members[a], a);

  // Position estimates per node, in i's frame. One-hop members start with
  // i's own embedding as one vote; every neighbor frame that contains a
  // node contributes another vote after alignment. Consensus over the
  // votes corrects fold-over errors: a neighbor mis-embedded in one frame
  // is usually well-anchored in several others.
  std::unordered_map<NodeId, std::vector<geom::Vec3>> estimates;
  estimates.reserve(out.members.size() * 8);
  for (std::size_t a = 0; a < out.members.size(); ++a)
    estimates[out.members[a]].push_back(out.coords[a]);

  for (std::size_t a = 1; a < out.one_hop_count; ++a) {
    const NodeId j = out.members[a];
    const LocalFrame& fj = frames_[j];
    if (!fj.ok) continue;

    // Common members of the two frames (i and j are always among them).
    std::vector<geom::Vec3> source, target;
    for (std::size_t b = 0; b < fj.members.size(); ++b) {
      auto it = base_index.find(fj.members[b]);
      if (it != base_index.end()) {
        source.push_back(fj.coords[b]);
        target.push_back(out.coords[it->second]);
      }
    }
    // A stable 3D alignment needs at least 4 non-degenerate common points.
    if (source.size() < 4) continue;

    const linalg::ProcrustesResult align = robust_align(source, target);
    for (std::size_t b = 0; b < fj.members.size(); ++b)
      estimates[fj.members[b]].push_back(align.apply(fj.coords[b]));
  }

  const double cluster_radius = 0.3 * net.radio_range();
  for (std::size_t a = 0; a < out.members.size(); ++a)
    out.coords[a] = consensus(estimates[out.members[a]], cluster_radius);
  // Deterministic member order regardless of hash-map iteration.
  std::vector<NodeId> imported;
  for (const auto& [node, votes] : estimates) {
    if (base_index.count(node) == 0) imported.push_back(node);
  }
  std::sort(imported.begin(), imported.end());
  for (NodeId node : imported) {
    out.members.push_back(node);
    out.coords.push_back(consensus(estimates[node], cluster_radius));
  }
  localizer_->refine_with_measurements(out, refine_sweeps);
  return out;
}

double Localizer::frame_rms_error(const LocalFrame& frame) const {
  if (!frame.ok || frame.members.empty()) return 0.0;
  std::vector<geom::Vec3> truth;
  truth.reserve(frame.members.size());
  for (NodeId v : frame.members) truth.push_back(network_->position(v));
  return linalg::procrustes_align(frame.coords, truth).rms_error;
}

namespace {

/// Lock-free accumulator for `FrameBuildStats` across worker threads.
struct AtomicFrameStats {
  std::atomic<std::uint64_t> frames_built{0};
  std::atomic<std::uint64_t> warm_hits{0};
  std::atomic<std::uint64_t> warm_misses{0};
  std::atomic<std::uint64_t> cold_builds{0};
  std::atomic<std::uint64_t> sweeps_executed{0};
  std::atomic<std::uint64_t> sweep_budget{0};
  std::atomic<std::uint64_t> restarts_skipped{0};
  std::atomic<std::uint64_t> plateau_exits{0};
  std::atomic<std::uint64_t> stress_exits{0};

  void merge(const FrameBuildStats& s) {
    frames_built.fetch_add(s.frames_built, std::memory_order_relaxed);
    warm_hits.fetch_add(s.warm_hits, std::memory_order_relaxed);
    warm_misses.fetch_add(s.warm_misses, std::memory_order_relaxed);
    cold_builds.fetch_add(s.cold_builds, std::memory_order_relaxed);
    sweeps_executed.fetch_add(s.sweeps_executed, std::memory_order_relaxed);
    sweep_budget.fetch_add(s.sweep_budget, std::memory_order_relaxed);
    restarts_skipped.fetch_add(s.restarts_skipped,
                               std::memory_order_relaxed);
    plateau_exits.fetch_add(s.plateau_exits, std::memory_order_relaxed);
    stress_exits.fetch_add(s.stress_exits, std::memory_order_relaxed);
  }

  FrameBuildStats snapshot() const {
    FrameBuildStats s;
    s.frames_built = frames_built.load(std::memory_order_relaxed);
    s.warm_hits = warm_hits.load(std::memory_order_relaxed);
    s.warm_misses = warm_misses.load(std::memory_order_relaxed);
    s.cold_builds = cold_builds.load(std::memory_order_relaxed);
    s.sweeps_executed = sweeps_executed.load(std::memory_order_relaxed);
    s.sweep_budget = sweep_budget.load(std::memory_order_relaxed);
    s.restarts_skipped = restarts_skipped.load(std::memory_order_relaxed);
    s.plateau_exits = plateau_exits.load(std::memory_order_relaxed);
    s.stress_exits = stress_exits.load(std::memory_order_relaxed);
    return s;
  }
};

/// The blocked cold build — the kBoundaryIdentical fast path. Blocks of
/// `batch_frames` nodes in id order; each block runs every node's
/// `mdsmap_init` and batches the refinements into one SmacofBatch sweep
/// loop. Per frame this is bit-identical to `mdsmap_frame` at the same
/// config: the init stage is the same code, the batched sweeps are
/// bit-identical to `SmacofProblem::refine` (see linalg/mds.hpp), and a
/// frame whose first attempt misses the noise-consistent acceptance
/// level — the only case where the monolithic restart loop does more
/// than one attempt — falls back to the full per-node builder. No
/// cross-frame data flows, so the result is independent of thread count
/// and block size.
void build_frames_blocked(const Localizer& localizer,
                          std::vector<LocalFrame>& frames, unsigned threads,
                          const std::vector<char>* alive,
                          const std::string& parent, AtomicFrameStats& agg) {
  const net::Network& net = localizer.network();
  const LocalizerConfig& cfg = localizer.config();
  const std::size_t n = net.num_nodes();
  const std::size_t batch_size = std::max<std::size_t>(1, cfg.batch_frames);
  const std::size_t blocks = (n + batch_size - 1) / batch_size;
  const double e = localizer.model().error_fraction() * net.radio_range();

  parallel_for(
      blocks,
      [&](std::size_t blk) {
        const obs::SpanPathScope adopt(parent);
        FrameBuildStats local;
        LocScratch& s = scratch();
        s.batch.clear();
        s.pending.clear();
        const std::size_t lo = blk * batch_size;
        const std::size_t hi = std::min(n, lo + batch_size);
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const NodeId i = static_cast<NodeId>(idx);
          ++local.frames_built;
          if (alive != nullptr && (*alive)[i] == 0) {
            frames[i] = LocalFrame{};  // crashed: no frame, not-ok
            continue;
          }
          BALLFIT_SPAN("frame");
          PendingWarm p;
          std::size_t pairs = 0;
          if (!localizer.mdsmap_init(i, alive, p.frame, s.init, pairs)) {
            frames[i] = std::move(p.frame);  // degenerate, finalized
            continue;
          }
          p.node = i;
          p.pairs = pairs;
          // The restart loop's acceptance level: at or below it,
          // `refine_embedding` stops after the first attempt — so a
          // batched first attempt meeting it IS the whole per-node
          // result.
          p.gate = noise_floor_stress(e, 1.5, MeasuredPairs{pairs});
          linalg::SmacofConfig sc;
          sc.max_sweeps = cfg.mdsmap_sweeps;
          set_adaptive_exits(cfg, e, MeasuredPairs{pairs}, sc);
          p.budget = sc.max_sweeps;
          p.slot = s.batch.add(s.d, s.w, s.init, sc);
          s.pending.push_back(std::move(p));
        }
        if (!s.pending.empty()) {
          BALLFIT_SPAN("frame_batch");
          s.batch.refine_all();
        }
        for (PendingWarm& p : s.pending) {
          const linalg::SmacofRunInfo& run = s.batch.info(p.slot);
          local.sweeps_executed += static_cast<std::uint64_t>(run.sweeps);
          local.sweep_budget += static_cast<std::uint64_t>(p.budget);
          local.plateau_exits += run.plateau_exit;
          local.stress_exits += run.stress_exit;
          ++local.cold_builds;
          if (run.final_stress <= p.gate) {
            local.restarts_skipped += static_cast<std::uint64_t>(
                std::max(1, cfg.smacof_restarts) - 1);
            p.frame.coords = s.batch.take_coords(p.slot);
            p.frame.ok = true;
            p.frame.stress_rms =
                p.pairs == 0 ? 0.0
                             : std::sqrt(run.final_stress /
                                         static_cast<double>(p.pairs));
            frames[p.node] = std::move(p.frame);
          } else {
            // First attempt above the acceptance level: the restart loop
            // has real work to do (perturbed re-inits, best-of). Resume
            // the per-node builder with the batched run standing in for
            // the first attempt — bit-identical to the monolithic loop,
            // whose first attempt would have produced exactly this.
            frames[p.node] = localizer.mdsmap_frame_resume(
                p.node, alive, s.batch.take_coords(p.slot),
                run.final_stress, &local);
          }
        }
        agg.merge(local);
      },
      threads);
}

/// Deterministic warm-start schedule: BFS depth over the full adjacency
/// (alive-mask independent — dead sources are simply skipped later), each
/// component rooted at its smallest node id. `order` lists the nodes wave
/// by wave, ascending id within a wave. A node's warm sources are exactly
/// its depth-(k−1) neighbors, whose frames are finalized before wave k
/// starts — so the schedule, and with it every frame, is independent of
/// thread count and batch size.
struct WarmSchedule {
  std::vector<std::int32_t> wave;
  std::vector<NodeId> order;
  std::vector<std::uint32_t> wave_begin;  ///< per-wave offsets into order
};

WarmSchedule build_warm_schedule(const net::Network& net) {
  const std::size_t n = net.num_nodes();
  WarmSchedule s;
  s.wave.assign(n, -1);
  std::vector<NodeId> queue;
  queue.reserve(n);
  std::int32_t max_wave = 0;
  for (std::size_t root = 0; root < n; ++root) {
    if (s.wave[root] >= 0) continue;
    s.wave[root] = 0;
    const std::size_t begin = queue.size();
    queue.push_back(static_cast<NodeId>(root));
    for (std::size_t head = begin; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      for (NodeId u : net.neighbors(v)) {
        if (s.wave[u] >= 0) continue;
        s.wave[u] = s.wave[v] + 1;
        max_wave = std::max(max_wave, s.wave[u]);
        queue.push_back(u);
      }
    }
  }
  // Counting sort by wave keeps ids ascending within each wave.
  s.wave_begin.assign(static_cast<std::size_t>(max_wave) + 2, 0);
  for (std::size_t i = 0; i < n; ++i)
    ++s.wave_begin[static_cast<std::size_t>(s.wave[i]) + 1];
  for (std::size_t wv = 1; wv < s.wave_begin.size(); ++wv)
    s.wave_begin[wv] += s.wave_begin[wv - 1];
  s.order.resize(n);
  std::vector<std::uint32_t> cursor(s.wave_begin.begin(),
                                    s.wave_begin.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    s.order[cursor[static_cast<std::size_t>(s.wave[i])]++] =
        static_cast<NodeId>(i);
  return s;
}

/// Attempts a warm initialization of node i's frame from already-solved
/// lower-wave neighbor frames. Requires `s.slot` to map the frame's
/// members and `s.w` to hold their measured-pair weights. On success
/// `s.init` holds a start position for every member — in the first solved
/// neighbor's gauge, which is as good as any other since frames are
/// defined only up to rigid motion + reflection.
bool warm_init_from_neighbors(const Localizer& localizer,
                              const std::vector<LocalFrame>& frames,
                              const WarmSchedule& sched, NodeId i,
                              const LocalFrame& frame, LocScratch& s) {
  const LocalizerConfig& cfg = localizer.config();
  const std::size_t m = frame.members.size();
  s.init.assign(m, geom::Vec3{});
  s.covered.assign(m, 0);
  std::size_t covered = 0;
  bool have_base = false;
  for (NodeId j : localizer.network().neighbors(i)) {
    if (sched.wave[j] >= sched.wave[i]) continue;  // not solved yet
    const LocalFrame& fj = frames[j];
    if (!fj.ok) continue;  // dead or degenerate source
    if (!have_base) {
      // Adopt j's gauge outright. i itself is covered here: i sits in
      // N(j), so j's two-hop frame places it.
      for (std::size_t b = 0; b < fj.members.size(); ++b) {
        const std::uint32_t a = s.slot.find(fj.members[b]);
        if (a == EpochSlotMap::kNotFound || s.covered[a]) continue;
        s.init[a] = fj.coords[b];
        s.covered[a] = 1;
        ++covered;
      }
      have_base = true;
      continue;
    }
    if (covered == m) break;
    // Rigid-map j's frame into the base gauge through the members both
    // sides already place, then import the still-uncovered ones.
    s.anchor_src.clear();
    s.anchor_tgt.clear();
    for (std::size_t b = 0; b < fj.members.size(); ++b) {
      const std::uint32_t a = s.slot.find(fj.members[b]);
      if (a != EpochSlotMap::kNotFound && s.covered[a]) {
        s.anchor_src.push_back(fj.coords[b]);
        s.anchor_tgt.push_back(s.init[a]);
      }
    }
    if (s.anchor_src.size() < cfg.warm_min_anchors) continue;
    const linalg::ProcrustesResult align =
        linalg::procrustes_align(s.anchor_src, s.anchor_tgt);
    for (std::size_t b = 0; b < fj.members.size(); ++b) {
      const std::uint32_t a = s.slot.find(fj.members[b]);
      if (a == EpochSlotMap::kNotFound || s.covered[a]) continue;
      s.init[a] = align.apply(fj.coords[b]);
      s.covered[a] = 1;
      ++covered;
    }
  }
  if (!have_base) return false;
  if (static_cast<double>(covered) <
      cfg.warm_min_coverage * static_cast<double>(m))
    return false;
  // Stragglers start at the centroid of their covered measured partners;
  // the first sweep pulls them onto distance-consistent positions.
  for (std::size_t a = 0; a < m; ++a) {
    if (s.covered[a]) continue;
    geom::Vec3 acc{};
    int count = 0;
    for (std::size_t b = 0; b < m; ++b) {
      if (!s.covered[b] || s.w(a, b) <= 0.0) continue;
      acc += s.init[b];
      ++count;
    }
    s.init[a] = count > 0 ? acc / static_cast<double>(count) : s.init[0];
  }
  return true;
}

/// The warm-started frame build (kFast only): waves of the schedule run
/// in order with a barrier between them (`parallel_for` joins); within a
/// wave, blocks of `batch_frames` nodes are work units. Per node: gather
/// members, fill measured pairs, warm-init from lower-wave frames, and
/// queue the SMACOF run into the block's batch (or build cold when no
/// usable source covers the frame). Every warm frame is kept; the
/// noise-consistent gate only splits the warm_hits/warm_misses
/// accounting.
void build_frames_warm(const Localizer& localizer,
                       std::vector<LocalFrame>& frames, unsigned threads,
                       const std::vector<char>* alive,
                       const std::string& parent, AtomicFrameStats& agg) {
  const net::Network& net = localizer.network();
  const LocalizerConfig& cfg = localizer.config();
  const WarmSchedule sched = build_warm_schedule(net);
  const std::size_t batch_size =
      cfg.blocked_active() ? std::max<std::size_t>(1, cfg.batch_frames) : 1;
  const double e = localizer.model().error_fraction() * net.radio_range();

  for (std::size_t wv = 0; wv + 1 < sched.wave_begin.size(); ++wv) {
    const std::size_t begin = sched.wave_begin[wv];
    const std::size_t end = sched.wave_begin[wv + 1];
    if (begin == end) continue;
    const std::size_t blocks = (end - begin + batch_size - 1) / batch_size;
    parallel_for(
        blocks,
        [&](std::size_t blk) {
          const obs::SpanPathScope adopt(parent);
          FrameBuildStats local;
          LocScratch& s = scratch();
          s.batch.clear();
          s.pending.clear();
          const std::size_t lo = begin + blk * batch_size;
          const std::size_t hi = std::min(end, lo + batch_size);
          for (std::size_t idx = lo; idx < hi; ++idx) {
            const NodeId i = sched.order[idx];
            ++local.frames_built;
            if (alive != nullptr && (*alive)[i] == 0) {
              frames[i] = LocalFrame{};  // crashed: no frame, not-ok
              continue;
            }
            BALLFIT_SPAN("frame");
            LocalFrame frame;
            gather_two_hop_members(net, alive, i, frame, s);
            if (frame.one_hop_count < 4) {
              frame.ok = false;
              frame.coords.assign(frame.members.size(), {});
              frames[i] = std::move(frame);
              continue;
            }
            const MeasuredPairs mp = fill_measured_pairs(
                net, localizer.model(), localizer.edge_cache(),
                frame.members, s.slot, s.d, s.w);
            if (!warm_init_from_neighbors(localizer, frames, sched, i,
                                          frame, s)) {
              // Schedule root or insufficient coverage: cold build.
              FrameBuildStats effort;
              frames[i] = localizer.mdsmap_frame(i, alive, &effort);
              ++effort.cold_builds;
              local.merge(effort);
              continue;
            }
            PendingWarm p;
            p.node = i;
            p.pairs = mp.pairs;
            p.gate = noise_floor_stress(e, cfg.warm_accept_factor, mp);
            linalg::SmacofConfig sc;
            sc.max_sweeps = cfg.mdsmap_sweeps;
            set_adaptive_exits(cfg, e, mp, sc);
            p.budget = sc.max_sweeps;
            p.slot = s.batch.add(s.d, s.w, s.init, sc);
            p.frame = std::move(frame);
            s.pending.push_back(std::move(p));
          }
          if (!s.pending.empty()) {
            BALLFIT_SPAN("frame_batch");
            s.batch.refine_all();
          }
          for (PendingWarm& p : s.pending) {
            const linalg::SmacofRunInfo& run = s.batch.info(p.slot);
            local.sweeps_executed += static_cast<std::uint64_t>(run.sweeps);
            local.sweep_budget += static_cast<std::uint64_t>(p.budget);
            local.plateau_exits += run.plateau_exit;
            local.stress_exits += run.stress_exit;
            // kFast keeps every warm frame; the gate only classifies how
            // often warm starts land in acceptable basins.
            if (run.final_stress <= p.gate) {
              ++local.warm_hits;
            } else {
              ++local.warm_misses;
            }
            // The whole restart loop is skipped for a warm frame — one
            // batched run replaced up to `smacof_restarts` attempts.
            local.restarts_skipped += static_cast<std::uint64_t>(
                std::max(1, cfg.smacof_restarts) - 1);
            p.frame.coords = s.batch.take_coords(p.slot);
            p.frame.ok = true;
            p.frame.stress_rms =
                p.pairs == 0
                    ? 0.0
                    : std::sqrt(run.final_stress /
                                static_cast<double>(p.pairs));
            frames[p.node] = std::move(p.frame);
          }
          agg.merge(local);
        },
        threads);
  }
}

}  // namespace

void build_all_frames(const Localizer& localizer, FrameScope scope,
                      std::vector<LocalFrame>& frames, unsigned threads,
                      const std::vector<char>* alive,
                      const std::vector<char>* rebuild,
                      FrameBuildStats* stats,
                      const std::vector<EffortClass>* effort) {
  const net::Network& net = localizer.network();
  const std::size_t n = net.num_nodes();
  BALLFIT_REQUIRE(rebuild == nullptr || frames.size() == n,
                  "partial rebuild requires an existing full frame set");
  BALLFIT_REQUIRE(alive == nullptr || alive->size() == n,
                  "alive mask must be sized num_nodes");
  BALLFIT_REQUIRE(effort == nullptr || effort->size() == n,
                  "effort plan must be sized num_nodes");
  frames.resize(n);
  const bool two_hop = scope == FrameScope::kTwoHop;
  const std::string parent = obs::current_span_path();
  const unsigned nthreads = threads == 0 ? default_threads() : threads;
  AtomicFrameStats agg;
  const LocalizerConfig& cfg = localizer.config();
  // The scheduled/blocked executors apply only to full two-hop builds
  // without an effort plan: a partial rebuild recomputes dirty nodes
  // against a frozen frame set through the per-node builder —
  // bit-identical at the pure-per-frame tiers, and the only sound option
  // at kFast (warm frames are functions of the schedule) — and a plan's
  // per-node overrides cannot ride a batch whose frames share one config.
  // The blocked path defers to the per-node one when refinement is
  // disabled outright (nothing to batch).
  if (two_hop && rebuild == nullptr && effort == nullptr &&
      cfg.warm_start_active()) {
    build_frames_warm(localizer, frames, nthreads, alive, parent, agg);
  } else if (two_hop && rebuild == nullptr && effort == nullptr &&
             cfg.blocked_active() && cfg.smacof_sweeps > 0) {
    build_frames_blocked(localizer, frames, nthreads, alive, parent, agg);
  } else {
    parallel_for(
        n,
        [&](std::size_t i) {
          if (rebuild != nullptr && (*rebuild)[i] == 0) return;
          const obs::SpanPathScope adopt(parent);
          BALLFIT_SPAN("frame");
          FrameBuildStats local;
          ++local.frames_built;
          if (alive != nullptr && (*alive)[i] == 0) {
            frames[i] = LocalFrame{};  // crashed: no frame, not-ok
          } else {
            const auto id = static_cast<NodeId>(i);
            const EffortClass ne =
                effort != nullptr ? (*effort)[i] : EffortClass::kDefault;
            frames[i] =
                two_hop ? localizer.mdsmap_frame(id, alive, &local, ne)
                        : localizer.local_frame(id, alive, &local, ne);
            local.cold_builds += frames[i].ok;
          }
          agg.merge(local);
        },
        nthreads);
  }
  const FrameBuildStats totals = agg.snapshot();
  if (stats != nullptr) *stats = totals;
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("loc.frames_built").add(totals.frames_built);
    reg.counter("loc.warm_hits").add(totals.warm_hits);
    reg.counter("loc.warm_misses").add(totals.warm_misses);
    reg.counter("loc.cold_builds").add(totals.cold_builds);
    reg.counter("loc.sweeps_executed").add(totals.sweeps_executed);
    reg.counter("loc.sweep_budget").add(totals.sweep_budget);
    reg.counter("loc.restarts_skipped").add(totals.restarts_skipped);
    reg.counter("loc.plateau_exits").add(totals.plateau_exits);
    reg.counter("loc.stress_exits").add(totals.stress_exits);
  }
}

}  // namespace ballfit::localization
