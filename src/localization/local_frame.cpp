#include "localization/local_frame.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>

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

/// Per-thread scratch arena for the frame builders. The m×m matrices, the
/// completion CSR and flags, the SMACOF system and the member dedup live
/// here and are re-shaped (not re-allocated) per node, so once an arena
/// has seen its largest patch they cost no heap traffic. The frame build
/// as a whole is not heap-free: the frame's own members/coords, the
/// `eigen_top_k` blocks and result, `double_center_into`'s row means and
/// `refine_embedding`'s per-attempt start copy are still allocated per
/// call; each is O(m) against the O(m²)-and-up work around it. Contents
/// are dead between frame builds — nothing may escape by reference, and
/// no result may depend on which thread (and hence which arena) built a
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
  // m×m, row-major: 1 where d(a,k) was lowered since row a last relaxed
  // through column k (so that visit would produce new candidates).
  std::vector<unsigned char> comp_fresh;
};

LocScratch& scratch() {
  thread_local LocScratch s;
  return s;
}

/// Charges the wall time between laps to `FrameBuildStats` phase fields;
/// reads no clock when no stats are collected.
class PhaseClock {
 public:
  explicit PhaseClock(FrameBuildStats* stats) : stats_(stats) {
    if (stats_ != nullptr) last_ = Clock::now();
  }

  /// Adds the time since the previous lap (or construction) to `field`.
  void lap(std::uint64_t FrameBuildStats::*field) {
    if (stats_ == nullptr) return;
    const Clock::time_point now = Clock::now();
    stats_->*field += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
            .count());
    last_ = now;
  }

 private:
  using Clock = std::chrono::steady_clock;
  FrameBuildStats* stats_;
  Clock::time_point last_;
};

/// Fills d (m×m, `kMissing` off-diagonal default) and w (m×m zeros) with
/// the measured distance of every member pair that is a radio edge.
/// Requires `slot` to map members[a] → a for exactly the current members.
/// Walks each member's cached adjacency row (O(Σ deg)) instead of testing
/// all O(m²) pairs; both endpoints write the same cached value, so the
/// result is symmetric.
void fill_measured_pairs(const net::Network& net,
                         const net::EdgeMeasurementCache& cache,
                         const std::vector<NodeId>& members,
                         const EpochSlotMap& slot, linalg::Matrix& d,
                         linalg::Matrix& w) {
  const std::size_t m = members.size();
  d.resize(m, m, kMissing);
  w.resize(m, m, 0.0);
  for (std::size_t a = 0; a < m; ++a) d(a, a) = 0.0;
  for (std::size_t a = 0; a < m; ++a) {
    const auto nbrs = net.neighbors(members[a]);
    const double* meas = cache.row(members[a]);
    for (std::size_t t = 0; t < nbrs.size(); ++t) {
      const std::uint32_t b = slot.find(nbrs[t]);
      if (b == EpochSlotMap::kNotFound) continue;
      d(a, b) = meas[t];
      w(a, b) = 1.0;
    }
  }
}

/// Noise-consistent stress of a measured-pair set, scaled by
/// `floor_factor`: at the true configuration the expected residual per
/// pair is Var[d̂−d] = (e·R)²/3 for the Uniform(−e·R, e·R) ranging noise.
/// The 1e-9·pairs term keeps the level positive at e = 0, where
/// refinement runs to numerical exactness.
double noise_floor_stress(double error_abs, double floor_factor,
                          std::size_t pairs) {
  const double per_pair = (error_abs * error_abs / 3.0) * floor_factor + 1e-9;
  return static_cast<double>(pairs) * per_pair;
}

/// Classical-MDS coordinates X = V₃ Λ₃^{1/2} from the top-3 eigenpairs,
/// clamping negative (noise) eigenvalues to zero.
std::vector<geom::Vec3> top3_coords(const linalg::EigenDecomposition& eig,
                                    std::size_t m) {
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
  return init;
}

/// Gathers node i's two-hop member set — {i} ∪ N(i) followed by the
/// sorted N²(i) tail — into `frame` and leaves `s.slot` mapping
/// members[a] → a. When the one-hop count lands under 4 the gather stops
/// early (degenerate frame; the caller decides).
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
    : network_(&network), model_(&model), config_(config),
      edge_cache_(model) {
  BALLFIT_REQUIRE(&model.network() == &network,
                  "measurement model must wrap the same network");
}

LocalFrame Localizer::local_frame(NodeId i, const std::vector<char>* alive,
                                  FrameBuildStats* stats) const {
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
  fill_measured_pairs(*network_, edge_cache_, frame.members, s.slot, s.d,
                      s.w);
  linalg::Matrix& d = s.d;
  linalg::Matrix& w = s.w;

  // Shortest-path completion of unmeasured pairs within the neighborhood
  // (all pairs are joined through i at worst, so no entry stays infinite).
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t a = 0; a < m; ++a) {
      const double dak = d(a, k);
      if (dak == kMissing) continue;
      for (std::size_t b = 0; b < m; ++b) {
        const double cand = dak + d(k, b);
        if (cand < d(a, b)) d(a, b) = d(b, a) = cand;
      }
    }
  const double fallback = kMissingPairFallback * network_->radio_range();
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = 0; b < m; ++b)
      if (d(a, b) == kMissing) d(a, b) = fallback;

  if (m > kTopkMdsThreshold) {
    // Only the top-3 eigenpairs feed the embedding; for larger
    // neighborhoods subspace iteration beats the full Jacobi by ~m/3².
    linalg::double_center_into(d, s.gram);
    frame.coords = refine_embedding(
        d, w, top3_coords(linalg::eigen_top_k(s.gram, 3, 60, 1e-6), m), i,
        kSmacofSweeps, &frame.stress_rms, stats);
    frame.ok = true;
  } else {
    linalg::MdsResult mds = linalg::classical_mds(d, 3);
    frame.coords = refine_embedding(d, w, std::move(mds.coords), i,
                                    kSmacofSweeps, &frame.stress_rms, stats);
    frame.ok = mds.converged;
  }
  return frame;
}

std::vector<geom::Vec3> Localizer::refine_embedding(
    const linalg::Matrix& d, const linalg::Matrix& w,
    std::vector<geom::Vec3> init, NodeId node, int sweeps,
    double* stress_rms, FrameBuildStats* stats) const {
  // Extract the measured edges into CSR once, so each restart and each
  // sweep costs O(edges) instead of a dense m² matrix scan. The problem
  // lives in the thread-local arena; it is consumed before this thread
  // builds its next frame.
  linalg::SmacofProblem& problem = scratch().smacof;
  problem.assign(d, w);
  const std::size_t measured_pairs = problem.num_edges();
  const double e = model_->error_fraction() * network_->radio_range();
  // E[(d̂−d)²] = e²/3 for Uniform(−e, e) noise; the embedding residual per
  // pair should not exceed that noise floor by much. The 1.5 factor is
  // the historical restart-acceptance level — part of the kBitwise
  // contract, do not retune.
  const double accept_stress = noise_floor_stress(e, 1.5, measured_pairs);

  // Stress majorization over measured pairs removes the completion bias of
  // the classical-MDS init (path lengths overestimate). With exact
  // measurements the true configuration has zero stress, so a result above
  // the noise-consistent stress level is a fold-over local minimum and
  // worth retrying from a perturbed init.
  linalg::SmacofConfig sc;
  sc.max_sweeps = sweeps;
  // The default tier runs the division-light Guttman kernel, strided
  // stress evaluation and the plateau exit; kBitwise runs every sweep of
  // the budget through the legacy kernel unless `rel_tol` convergence
  // stops it first.
  if (config_.tier != EquivalenceTier::kBitwise) {
    sc.fast_sweep = true;
    sc.stress_stride = kStressStride;
    sc.plateau_sweeps = kPlateauSweeps;
    sc.plateau_rel_tol = kPlateauRelTol;
    sc.plateau_guard_stress =
        kPlateauGuard * noise_floor_stress(e, 1.0, measured_pairs);
  }

  double best_stress = std::numeric_limits<double>::infinity();
  std::vector<geom::Vec3> best;
  Rng restart_rng(kRestartSeed ^
                  (static_cast<std::uint64_t>(node) * 0x9e3779b97f4a7c15ULL));
  int attempts = 0;
  for (int attempt = 0; attempt < kSmacofAttempts; ++attempt) {
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
    auto refined = problem.refine(std::move(start), sc, &stress, nullptr, &run);
    if (stats != nullptr) {
      stats->sweeps_executed += static_cast<std::uint64_t>(run.sweeps);
      stats->sweep_budget += static_cast<std::uint64_t>(sc.max_sweeps);
      stats->plateau_exits += run.plateau_exit;
    }
    if (stress < best_stress) {
      best_stress = stress;
      best = std::move(refined);
    }
    if (best_stress <= accept_stress) break;
  }
  if (stats != nullptr && best_stress <= accept_stress)
    stats->restarts_skipped +=
        static_cast<std::uint64_t>(kSmacofAttempts - attempts);
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
                            FrameBuildStats* stats) const {
  BALLFIT_REQUIRE(i < network_->num_nodes(), "node id out of range");

  LocScratch& s = scratch();
  PhaseClock clock(stats);
  gather_two_hop_members(*network_, alive, i, frame, s);

  if (frame.one_hop_count < 4) {
    frame.ok = false;
    frame.coords.assign(frame.members.size(), {});
    return false;
  }
  const std::size_t m = frame.members.size();

  // Measured distances for adjacent member pairs.
  fill_measured_pairs(*network_, edge_cache_, frame.members, s.slot, s.d,
                      s.w);
  linalg::Matrix& d = s.d;
  linalg::Matrix& w = s.w;
  clock.lap(&FrameBuildStats::gather_ns);

  // Shortest-path completion. The patch has diameter <= 4 hops, so a few
  // rounds of sparse relaxation over the measured edges (a→k→b with (k,b)
  // measured) reach every pair — O(m·deg²) per round instead of
  // Floyd–Warshall's O(m³), which dominates the whole pipeline on patches
  // of ~150 nodes. The CSR rows hold pre-completion copies of d: the
  // relaxation must keep extending over the original measured edge
  // lengths even as d(a,b) entries drop below them.
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
  // A truncated relaxation: at most three in-place Gauss–Seidel rounds,
  // stopping early only on a round that lowers nothing. The cap binds —
  // on four fig1 networks (~1,190 nodes each, e = 0.2) 4744 of 4748
  // patches run all three rounds and the third still lowers ~183k
  // entries — so the loop may stop short of true shortest paths, and
  // the exact entries it leaves (hence its visit order and round cap)
  // are part of the kBitwise contract. The reference is the literal
  // symmetric loop in tests/localization_equivalence_test.cpp: visit
  // rows a ascending, columns k ascending, and on `cand < d(a,b)` write
  // d(a,b) = d(b,a) = cand.
  //
  // Semi-naive visits: from the second round on, row a relaxes through
  // column k only if d(a,k) was lowered since row a last did. A skipped
  // visit would recompute the same candidates d(a,k) + len(k,b) (the
  // edge lengths are the static CSR copies), each of which already
  // failed against — or was written into — a d(a,b) that can only have
  // decreased since. So the skip writes exactly what a full rescan
  // writes, in the same order, and the `changed` exit fires on the same
  // round.
  //
  // Row-local visits with a deferred mirror: while row a relaxes it
  // reads only row a and the CSR, so its one write outside row a — the
  // mirror d(b,a) and the flag fresh(b,a) — is not needed until row b
  // runs. Each row therefore writes only itself, and just before row a
  // runs it pulls its column: d(a,x) = min(d(a,x), d(x,a)), flagging
  // fresh(a,x) where the column entry was lower. Every write is a strict
  // decrease, d is symmetric on entry, and between two visits of row a
  // only row a lowers d(a,·), so after the pull row a holds exactly the
  // values and flags the symmetric loop would, and the visits, writes,
  // `changed` exit and `completion_scans` are the same. One min pass
  // over both triangles after the last round restores symmetry. With
  // nothing but row a written, the relax is a branch-free select
  // (`minsd`) plus a flag OR instead of a mispredicted branch guarding
  // a strided column store.
  double* const dd = &d(0, 0);
  s.comp_fresh.assign(m * m, 1);
  std::uint64_t scans = 0;
  for (int round = 0; round < 3; ++round) {
    bool changed = false;
    for (std::size_t a = 0; a < m; ++a) {
      double* const row = dd + a * m;
      unsigned char* const fresh = s.comp_fresh.data() + a * m;
      for (std::size_t x = 0; x < m; ++x) {
        const double col = dd[x * m + a];
        const bool lower = col < row[x];
        row[x] = lower ? col : row[x];
        fresh[x] |= static_cast<unsigned char>(lower);
      }
      for (std::size_t k = 0; k < m; ++k) {
        if (fresh[k] == 0) continue;
        fresh[k] = 0;
        ++scans;
        const double dak = row[k];
        if (dak == kMissing) continue;
        const std::uint32_t end = s.comp_begin[k + 1];
        for (std::uint32_t e = s.comp_begin[k]; e < end; ++e) {
          const std::uint32_t b = s.comp_adj[e];
          const double cand = dak + s.comp_dist[e];
          const double old = row[b];
          const bool better = cand < old;
          row[b] = better ? cand : old;
          fresh[b] |= static_cast<unsigned char>(better);
          changed |= better;
        }
      }
    }
    if (!changed) break;
  }
  if (stats != nullptr) stats->completion_scans += scans;
  const double fallback = kMissingPairFallback * 2.0 * network_->radio_range();
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = a + 1; b < m; ++b) {
      const double v = std::min(d(a, b), d(b, a));
      d(a, b) = d(b, a) = v == kMissing ? fallback : v;
    }
  clock.lap(&FrameBuildStats::completion_ns);

  // Classical MDS init from the top-3 eigenpairs of the centered Gram
  // matrix. kBitwise keeps the reference subspace budget; the default
  // tier stops at `kMdsEigenIters`/`kMdsEigenTol` — the measured-pair
  // refinement reshapes the init long before full eigen convergence would
  // pay for itself (at the reference budget the subspace iteration is
  // over a third of the whole frame build).
  linalg::double_center_into(d, s.gram);
  clock.lap(&FrameBuildStats::center_ns);
  const bool full_eigen = config_.tier == EquivalenceTier::kBitwise;
  init = top3_coords(
      linalg::eigen_top_k(s.gram, 3, full_eigen ? 60 : kMdsEigenIters,
                          full_eigen ? 1e-6 : kMdsEigenTol,
                          /*data_seed=*/!full_eigen),
      m);
  clock.lap(&FrameBuildStats::eigen_ns);
  return true;
}

LocalFrame Localizer::mdsmap_frame(NodeId i, const std::vector<char>* alive,
                                   FrameBuildStats* stats) const {
  LocalFrame frame;
  std::vector<geom::Vec3> init;
  if (!mdsmap_init(i, alive, frame, init, stats)) return frame;
  // Measured-pair stress majorization on the scratch system the init
  // stage left behind (still this thread's, untouched since).
  LocScratch& s = scratch();
  PhaseClock clock(stats);
  frame.coords =
      refine_embedding(s.d, s.w, std::move(init), i, kMdsmapSweeps,
                       &frame.stress_rms, stats);
  clock.lap(&FrameBuildStats::refine_ns);
  frame.ok = true;
  return frame;
}

double Localizer::frame_rms_error(const LocalFrame& frame) const {
  if (!frame.ok || frame.members.empty()) return 0.0;
  std::vector<geom::Vec3> truth;
  truth.reserve(frame.members.size());
  for (NodeId v : frame.members) truth.push_back(network_->position(v));
  return linalg::procrustes_align(frame.coords, truth).rms_error;
}

void build_all_frames(const Localizer& localizer, FrameScope scope,
                      std::vector<LocalFrame>& frames, unsigned threads,
                      const std::vector<char>* alive,
                      const std::vector<char>* rebuild,
                      FrameBuildStats* stats) {
  const std::size_t n = localizer.network().num_nodes();
  BALLFIT_REQUIRE(rebuild == nullptr || frames.size() == n,
                  "partial rebuild requires an existing full frame set");
  BALLFIT_REQUIRE(alive == nullptr || alive->size() == n,
                  "alive mask must be sized num_nodes");
  frames.resize(n);
  const bool two_hop = scope == FrameScope::kTwoHop;
  const std::string parent = obs::current_span_path();
  FrameBuildStats totals;
  std::mutex totals_mutex;
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
          frames[i] = two_hop ? localizer.mdsmap_frame(id, alive, &local)
                              : localizer.local_frame(id, alive, &local);
        }
        const std::lock_guard<std::mutex> lock(totals_mutex);
        totals.merge(local);
      },
      threads);
  if (stats != nullptr) *stats = totals;
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("loc.frames_built").add(totals.frames_built);
    reg.counter("loc.sweeps_executed").add(totals.sweeps_executed);
    reg.counter("loc.sweep_budget").add(totals.sweep_budget);
    reg.counter("loc.restarts_skipped").add(totals.restarts_skipped);
    reg.counter("loc.plateau_exits").add(totals.plateau_exits);
    reg.counter("loc.completion_scans").add(totals.completion_scans);
  }
}

}  // namespace ballfit::localization
