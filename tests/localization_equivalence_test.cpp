// Equivalence suite for the localization stage.
//
// The structural optimizations of the frame builders (sparse SMACOF,
// scratch arenas, the edge-measurement cache, the sparse shortest-path
// completion) promise *bit-identical* frames to the naive reference path
// kept in this file; the one-hop top-k eigen init promises
// classification-grade closeness only. These tests pin both contracts,
// plus the purity contract of `build_all_frames`: a full build, per-node
// calls, a partial rebuild, and any thread count agree bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/ubf.hpp"
#include "linalg/eigen.hpp"
#include "linalg/mds.hpp"
#include "localization/local_frame.hpp"
#include "model/shapes.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"

namespace ballfit::localization {
namespace {

using geom::Vec3;
using net::NodeId;

net::Network sphere_network(std::uint64_t seed) {
  Rng rng(seed);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = 250;
  opt.interior_count = 400;
  return net::build_network(shape, opt, rng);
}

/// The paper's cube-with-hole scenario (Fig. 1) at a test-friendly scale.
net::Network fig1_network(std::uint64_t seed) {
  Rng rng(seed);
  const model::Scenario scenario = model::fig1_network(0.4);
  net::BuildOptions opt =
      net::options_for_target_degree(*scenario.shape, 18.5, 0.5, rng);
  opt.interior_margin = 0.35 * opt.radio_range;
  return net::build_network(*scenario.shape, opt, rng);
}

// ---------------------------------------------------------------------------
// Reference frame builders: the naive path, written out literally. O(m²)
// pair queries against the measurement model, Floyd–Warshall (one-hop) or
// full-row relaxation rounds (two-hop) for the completion, dense
// `smacof_refine`, and `classical_mds` for every one-hop frame. Each
// `Localizer` optimization must reproduce these frames bit for bit
// (one-hop frames above `kTopkMdsThreshold` only within noise).

constexpr double kMissing = std::numeric_limits<double>::infinity();

/// Measured distance of every member pair that is a radio edge; `kMissing`
/// elsewhere (0 on the diagonal). `w` marks the measured pairs.
void reference_fill(const net::Network& net,
                    const net::NoisyDistanceModel& model,
                    const std::vector<NodeId>& members, linalg::Matrix& d,
                    linalg::Matrix& w) {
  const std::size_t m = members.size();
  d = linalg::Matrix(m, m, kMissing);
  w = linalg::Matrix(m, m, 0.0);
  for (std::size_t a = 0; a < m; ++a) {
    d(a, a) = 0.0;
    for (std::size_t b = a + 1; b < m; ++b) {
      if (!net.are_neighbors(members[a], members[b])) continue;
      d(a, b) = d(b, a) = model.measured_distance(members[a], members[b]);
      w(a, b) = w(b, a) = 1.0;
    }
  }
}

std::vector<Vec3> reference_top3(const linalg::EigenDecomposition& eig,
                                 std::size_t m) {
  std::vector<Vec3> x(m);
  for (std::size_t r = 0; r < m; ++r) {
    double c[3] = {0.0, 0.0, 0.0};
    for (std::size_t k = 0; k < 3; ++k)
      c[k] = eig.vectors(r, k) * std::sqrt(std::max(0.0, eig.values[k]));
    x[r] = {c[0], c[1], c[2]};
  }
  return x;
}

/// SMACOF with perturbed restarts against the measured pairs, through the
/// dense reference kernel.
std::vector<Vec3> reference_refine(const net::Network& net,
                                   const net::NoisyDistanceModel& model,
                                   const LocalizerConfig& cfg,
                                   const linalg::Matrix& d,
                                   const linalg::Matrix& w,
                                   std::vector<Vec3> init, NodeId node,
                                   int sweeps, double& stress_rms) {
  const std::size_t m = init.size();
  std::size_t pairs = 0;
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = a + 1; b < m; ++b) pairs += w(a, b) > 0.0;
  const double e = model.error_fraction() * net.radio_range();
  const auto floor = [&](double factor) {
    return static_cast<double>(pairs) * ((e * e / 3.0) * factor + 1e-9);
  };
  linalg::SmacofConfig sc;
  sc.max_sweeps = sweeps;
  if (cfg.tier != EquivalenceTier::kBitwise) {
    sc.fast_sweep = true;
    sc.stress_stride = kStressStride;
    sc.plateau_sweeps = kPlateauSweeps;
    sc.plateau_rel_tol = kPlateauRelTol;
    sc.plateau_guard_stress = kPlateauGuard * floor(1.0);
  }
  Rng restart_rng(kRestartSeed ^
                  (static_cast<std::uint64_t>(node) * 0x9e3779b97f4a7c15ULL));
  double best_stress = std::numeric_limits<double>::infinity();
  std::vector<Vec3> best;
  for (int attempt = 0; attempt < kSmacofAttempts; ++attempt) {
    std::vector<Vec3> start = init;
    if (attempt > 0) {
      const double jitter = 0.25 * net.radio_range();
      for (Vec3& p : start)
        p += Vec3{restart_rng.uniform(-jitter, jitter),
                  restart_rng.uniform(-jitter, jitter),
                  restart_rng.uniform(-jitter, jitter)};
    }
    double stress = 0.0;
    std::vector<Vec3> refined =
        linalg::smacof_refine(d, w, std::move(start), sc, &stress);
    if (stress < best_stress) {
      best_stress = stress;
      best = std::move(refined);
    }
    if (best_stress <= floor(1.5)) break;
  }
  stress_rms = pairs == 0 ? 0.0
                          : std::sqrt(best_stress / static_cast<double>(pairs));
  return best;
}

/// One-hop frame: Floyd–Warshall completion and a full classical MDS.
LocalFrame reference_local_frame(const net::Network& net,
                                 const net::NoisyDistanceModel& model,
                                 const LocalizerConfig& cfg, NodeId i) {
  LocalFrame frame;
  frame.members.push_back(i);
  for (NodeId v : net.neighbors(i)) frame.members.push_back(v);
  const std::size_t m = frame.members.size();
  frame.one_hop_count = m;
  if (m < 4) {
    frame.coords.assign(m, {});
    return frame;
  }
  linalg::Matrix d, w;
  reference_fill(net, model, frame.members, d, w);
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t a = 0; a < m; ++a)
      for (std::size_t b = 0; b < m; ++b)
        if (d(a, k) + d(k, b) < d(a, b)) d(a, b) = d(b, a) = d(a, k) + d(k, b);
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = 0; b < m; ++b)
      if (d(a, b) == kMissing)
        d(a, b) = kMissingPairFallback * net.radio_range();
  linalg::MdsResult mds = linalg::classical_mds(d, 3);
  frame.coords = reference_refine(net, model, cfg, d, w, std::move(mds.coords),
                                  i, kSmacofSweeps, frame.stress_rms);
  frame.ok = mds.converged;
  return frame;
}

/// Two-hop MDS-MAP(P) frame: {i} ∪ N(i) then the sorted two-hop tail,
/// three full rounds of a→k→b relaxation over the measured edge lengths,
/// and the top-3 eigenpairs of the centered Gram matrix at the tier's
/// subspace budget. `alive`, when given, drops crashed nodes from the
/// membership and from relaying it (i itself must be alive). `scans`,
/// when given, accumulates the (row, column) visits a semi-naive loop
/// makes — those where d(a,k) was written since row a last visited k —
/// which is what `FrameBuildStats::completion_scans` counts.
LocalFrame reference_mdsmap_frame(const net::Network& net,
                                  const net::NoisyDistanceModel& model,
                                  const LocalizerConfig& cfg, NodeId i,
                                  const std::vector<char>* alive = nullptr,
                                  std::uint64_t* scans = nullptr) {
  const auto up = [&](NodeId v) { return alive == nullptr || (*alive)[v]; };
  LocalFrame frame;
  frame.members.push_back(i);
  for (NodeId v : net.neighbors(i))
    if (up(v)) frame.members.push_back(v);
  frame.one_hop_count = frame.members.size();
  if (frame.one_hop_count < 4) {
    frame.coords.assign(frame.members.size(), {});
    return frame;
  }
  std::vector<NodeId> tail;
  for (NodeId j : net.neighbors(i)) {
    if (!up(j)) continue;
    for (NodeId u : net.neighbors(j))
      if (up(u) &&
          std::find(frame.members.begin(), frame.members.end(), u) ==
              frame.members.end() &&
          std::find(tail.begin(), tail.end(), u) == tail.end())
        tail.push_back(u);
  }
  std::sort(tail.begin(), tail.end());
  frame.members.insert(frame.members.end(), tail.begin(), tail.end());
  const std::size_t m = frame.members.size();

  linalg::Matrix d, w;
  reference_fill(net, model, frame.members, d, w);
  const linalg::Matrix measured = d;
  std::vector<char> written(m * m, 1);
  for (int round = 0; round < 3; ++round) {
    bool changed = false;
    for (std::size_t a = 0; a < m; ++a)
      for (std::size_t k = 0; k < m; ++k) {
        if (scans != nullptr) *scans += written[a * m + k];
        written[a * m + k] = 0;
        if (d(a, k) == kMissing) continue;
        for (std::size_t b = 0; b < m; ++b) {
          if (w(k, b) <= 0.0) continue;
          const double cand = d(a, k) + measured(k, b);
          if (cand < d(a, b)) {
            d(a, b) = d(b, a) = cand;
            written[a * m + b] = written[b * m + a] = 1;
            changed = true;
          }
        }
      }
    if (!changed) break;
  }
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = 0; b < m; ++b)
      if (d(a, b) == kMissing)
        d(a, b) = kMissingPairFallback * 2.0 * net.radio_range();

  const bool bitwise = cfg.tier == EquivalenceTier::kBitwise;
  const linalg::EigenDecomposition eig = linalg::eigen_top_k(
      linalg::double_center(d), 3, bitwise ? 60 : kMdsEigenIters,
      bitwise ? 1e-6 : kMdsEigenTol, /*data_seed=*/!bitwise);
  frame.coords =
      reference_refine(net, model, cfg, d, w, reference_top3(eig, m), i,
                       kMdsmapSweeps, frame.stress_rms);
  frame.ok = true;
  return frame;
}

void expect_frames_bitwise_equal(const LocalFrame& a, const LocalFrame& b) {
  ASSERT_EQ(a.members, b.members);
  ASSERT_EQ(a.coords.size(), b.coords.size());
  for (std::size_t k = 0; k < a.coords.size(); ++k) {
    EXPECT_EQ(a.coords[k].x, b.coords[k].x) << "member " << k;
    EXPECT_EQ(a.coords[k].y, b.coords[k].y) << "member " << k;
    EXPECT_EQ(a.coords[k].z, b.coords[k].z) << "member " << k;
  }
  EXPECT_EQ(a.one_hop_count, b.one_hop_count);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.stress_rms, b.stress_rms);
}

void check_bitwise_equivalence(const net::Network& net, double error) {
  const net::NoisyDistanceModel noisy(net, error, 1);
  // With exact ranging the restart acceptance level is ~0, which most
  // frames do not reach within the budget: this case drives the
  // perturbed-restart path.
  const net::NoisyDistanceModel exact(net, 0.0, 1);
  LocalizerConfig defaults, bitwise;
  bitwise.tier = EquivalenceTier::kBitwise;
  const struct {
    const net::NoisyDistanceModel* model;
    const LocalizerConfig* cfg;
  } cases[] = {{&noisy, &defaults}, {&noisy, &bitwise}, {&exact, &defaults}};
  for (const auto& c : cases) {
    const net::NoisyDistanceModel& model = *c.model;
    const LocalizerConfig& cfg = *c.cfg;
    const Localizer localizer(net, model, cfg);
    FrameBuildStats stats;
    std::size_t two_hop_compared = 0, one_hop_compared = 0;
    for (NodeId v = 0; v < net.num_nodes(); v += 13) {
      SCOPED_TRACE(static_cast<unsigned>(v));
      const LocalFrame frame = localizer.mdsmap_frame(v, nullptr, &stats);
      expect_frames_bitwise_equal(frame,
                                  reference_mdsmap_frame(net, model, cfg, v));
      two_hop_compared += frame.ok;
      // Above the threshold the one-hop init is the top-k subspace
      // iteration, compared within noise by TopkMdsStaysWithinNoiseOfDensePath.
      if (net.degree(v) + 1 > kTopkMdsThreshold) continue;
      expect_frames_bitwise_equal(localizer.local_frame(v),
                                  reference_local_frame(net, model, cfg, v));
      ++one_hop_compared;
    }
    EXPECT_GE(one_hop_compared, 10u);
    if (c.model == &exact) {
      // Restarts ran: more than one attempt's budget per compared frame.
      EXPECT_GT(stats.sweep_budget,
                two_hop_compared * static_cast<unsigned>(kMdsmapSweeps));
    }
  }
}

TEST(LocalizationEquivalence, StructuralOptsBitIdenticalOnSphere) {
  check_bitwise_equivalence(sphere_network(11), 0.15);
}

TEST(LocalizationEquivalence, StructuralOptsBitIdenticalOnCubeWithHole) {
  check_bitwise_equivalence(fig1_network(12), 0.2);
}

TEST(LocalizationEquivalence, EveryNodeOfRandomBoxMatchesReference) {
  // Every node of one seeded random box, not a sample: the completion's
  // row-local visits and the eigen init must reproduce the literal
  // reference on every patch shape the box produces (corners, faces,
  // interior; patches on both sides of the dense eigen cutoff), at zero,
  // low and high ranging error, with and without crashed nodes, through
  // `build_all_frames` at 1 and 4 threads. The completion's work counter
  // must equal the reference's visit count at both thread counts.
  Rng rng(31);
  const model::BoxShape shape({0, 0, 0}, {3.2, 3.2, 2.6});
  net::BuildOptions opt;
  opt.surface_count = 110;
  opt.interior_count = 130;
  opt.radio_range = 0.8;
  const net::Network net = net::build_network(shape, opt, rng);
  const std::size_t n = net.num_nodes();
  std::vector<char> survivors(n, 1);
  for (NodeId v = 0; v < n; ++v)
    if (rng.uniform() < 0.1) survivors[v] = 0;
  const std::vector<char>* const masks[] = {nullptr, &survivors};
  const LocalizerConfig cfg;
  for (const double error : {0.0, 0.1, 0.4}) {
    const net::NoisyDistanceModel model(net, error, 7);
    const Localizer localizer(net, model, cfg);
    for (const std::vector<char>* alive : masks) {
      SCOPED_TRACE(::testing::Message() << "error=" << error << " crashed="
                                        << (alive != nullptr));
      std::vector<LocalFrame> t1, t4;
      FrameBuildStats s1, s4;
      build_all_frames(localizer, FrameScope::kTwoHop, t1, /*threads=*/1,
                       alive, nullptr, &s1);
      build_all_frames(localizer, FrameScope::kTwoHop, t4, /*threads=*/4,
                       alive, nullptr, &s4);
      std::uint64_t reference_scans = 0;
      std::size_t above_cutoff = 0;
      for (NodeId v = 0; v < n; ++v) {
        SCOPED_TRACE(static_cast<unsigned>(v));
        expect_frames_bitwise_equal(t1[v], t4[v]);
        if (alive != nullptr && (*alive)[v] == 0) continue;
        expect_frames_bitwise_equal(
            t1[v], reference_mdsmap_frame(net, model, cfg, v, alive,
                                          &reference_scans));
        above_cutoff += t1[v].members.size() > 24;
      }
      EXPECT_GT(above_cutoff, n / 4);
      EXPECT_GT(reference_scans, 0u);
      EXPECT_EQ(s1.completion_scans, reference_scans);
      EXPECT_EQ(s4.completion_scans, reference_scans);
    }
  }
}

TEST(LocalizationEquivalence, DetectionInvariantAcrossThreadCounts) {
  // Per-thread scratch arenas must not let work distribution leak into
  // results: the full noisy pipeline classifies identically at 1/2/8
  // threads (default config, all optimizations on).
  const net::Network net = fig1_network(13);
  const net::NoisyDistanceModel model(net, 0.2, 1);
  const Localizer localizer(net, model);
  core::UbfConfig config;
  config.measurement_error_hint = 0.2;
  const core::UnitBallFitting ubf(net, config);
  const auto detect = [&](unsigned threads) {
    std::vector<LocalFrame> frames;
    build_all_frames(localizer, FrameScope::kTwoHop, frames, threads);
    return ubf.detect_on_frames(frames, threads);
  };
  const std::vector<bool> t1 = detect(1);
  const std::vector<bool> t2 = detect(2);
  const std::vector<bool> t8 = detect(8);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

TEST(LocalizationEquivalence, FullBuildMatchesPerNodePartialAndThreadCount) {
  // The purity contract of the default tier: a frame is a function of its
  // neighborhood and the alive mask alone. A full build at 4 threads, the
  // same build at 1 thread, one-off per-node calls, and a partial rebuild
  // over a random dirty set under a random crash mask all agree bit for
  // bit. The completion's work counter is pinned the same way: equal at
  // 1 and 4 threads, and a partial rebuild scans exactly what per-node
  // calls on its dirty set scan.
  const net::Network net = fig1_network(17);
  const net::NoisyDistanceModel model(net, 0.25, 3);
  const Localizer localizer(net, model);  // default config = default tier
  ASSERT_EQ(localizer.config().tier, EquivalenceTier::kBoundaryIdentical);
  const std::size_t n = net.num_nodes();

  for (const FrameScope scope : {FrameScope::kTwoHop, FrameScope::kOneHop}) {
    SCOPED_TRACE(scope == FrameScope::kTwoHop ? "two-hop" : "one-hop");
    std::vector<LocalFrame> t4, t1;
    FrameBuildStats s4, s1;
    build_all_frames(localizer, scope, t4, /*threads=*/4, nullptr, nullptr,
                     &s4);
    build_all_frames(localizer, scope, t1, /*threads=*/1, nullptr, nullptr,
                     &s1);
    ASSERT_EQ(t4.size(), n);
    EXPECT_EQ(s4.completion_scans, s1.completion_scans);
    if (scope == FrameScope::kTwoHop) {
      EXPECT_GT(s4.completion_scans, 0u);
    } else {
      EXPECT_EQ(s4.completion_scans, 0u);  // one-hop frames are not counted
    }
    for (NodeId v = 0; v < n; ++v) {
      SCOPED_TRACE(static_cast<unsigned>(v));
      expect_frames_bitwise_equal(t4[v], t1[v]);
      if (v % 5 == 0)
        expect_frames_bitwise_equal(t4[v],
                                    scope == FrameScope::kTwoHop
                                        ? localizer.mdsmap_frame(v)
                                        : localizer.local_frame(v));
    }

    // Crash ~8% of the nodes. Every frame within two hops of a crash may
    // change; the rebuild set is that dirty set plus random extra nodes.
    Rng rng(scope == FrameScope::kTwoHop ? 5 : 6);
    std::vector<char> alive(n, 1), rebuild(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (rng.uniform() >= 0.08) continue;
      alive[v] = 0;
      rebuild[v] = 1;
      for (NodeId u : net.neighbors(v)) {
        rebuild[u] = 1;
        for (NodeId x : net.neighbors(u)) rebuild[x] = 1;
      }
    }
    for (NodeId v = 0; v < n; ++v)
      if (rng.uniform() < 0.1) rebuild[v] = 1;
    std::vector<LocalFrame> masked;
    build_all_frames(localizer, scope, masked, /*threads=*/1, &alive);
    std::vector<LocalFrame> partial = t4;
    FrameBuildStats stats;
    build_all_frames(localizer, scope, partial, /*threads=*/4, &alive,
                     &rebuild, &stats);
    EXPECT_EQ(stats.frames_built,
              static_cast<std::uint64_t>(
                  std::count(rebuild.begin(), rebuild.end(), 1)));
    FrameBuildStats per_node;
    for (NodeId v = 0; v < n; ++v) {
      SCOPED_TRACE(static_cast<unsigned>(v));
      expect_frames_bitwise_equal(partial[v], masked[v]);
      if (scope == FrameScope::kTwoHop && rebuild[v] != 0 && alive[v] != 0)
        localizer.mdsmap_frame(v, &alive, &per_node);
    }
    EXPECT_EQ(stats.completion_scans, per_node.completion_scans);
  }
}

TEST(LocalizationEquivalence, PlateauCapStopsEarlyWithMonotoneStress) {
  // The default tier's plateau exit: refinement stops once
  // `kPlateauSweeps` consecutive evaluations improve by less than
  // `kPlateauRelTol`, well
  // inside the sweep budget, and the recorded stress trajectory stays
  // monotone non-increasing (the majorization guarantee the early exit
  // relies on). Also pins the stride accounting: `sweeps` counts Guttman
  // sweeps, the trace holds one entry per *evaluation* plus the init.
  const net::Network net = sphere_network(23);
  const net::NoisyDistanceModel model(net, 0.2, 9);
  Rng rng(11);
  const NodeId v = 17;
  std::vector<NodeId> members{v};
  for (NodeId u : net.neighbors(v)) members.push_back(u);
  const std::size_t m = members.size();
  ASSERT_GE(m, 6u);
  linalg::Matrix d(m, m, 0.0);
  linalg::Matrix w(m, m, 0.0);
  std::vector<Vec3> init(m);
  for (std::size_t a = 0; a < m; ++a) {
    init[a] = net.position(members[a]) +
              Vec3{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                   rng.uniform(-0.3, 0.3)};
    for (std::size_t b = a + 1; b < m; ++b) {
      if (!net.are_neighbors(members[a], members[b])) continue;
      d(a, b) = d(b, a) = model.measured_distance(members[a], members[b]);
      w(a, b) = w(b, a) = 1.0;
    }
  }
  const linalg::SmacofProblem problem(d, w);

  linalg::SmacofConfig capped;
  capped.max_sweeps = 500;
  capped.stress_stride = kStressStride;
  capped.plateau_sweeps = kPlateauSweeps;
  capped.plateau_rel_tol = kPlateauRelTol;
  std::vector<double> trace;
  linalg::SmacofRunInfo info;
  (void)problem.refine(init, capped, nullptr, &trace, &info);

  EXPECT_TRUE(info.plateau_exit);
  EXPECT_LT(info.sweeps, capped.max_sweeps);
  EXPECT_GE(info.sweeps, capped.plateau_sweeps * capped.stress_stride);
  // One trace entry per evaluation (every `stress_stride` sweeps), plus
  // the pre-sweep stress.
  ASSERT_GE(trace.size(), 2u);
  EXPECT_EQ(info.sweeps, static_cast<int>(trace.size() - 1) *
                             capped.stress_stride);
  for (std::size_t s = 1; s < trace.size(); ++s)
    EXPECT_LE(trace[s], trace[s - 1] + 1e-12) << "evaluation " << s;
  EXPECT_EQ(info.final_stress, trace.back());
}

TEST(LocalizationEquivalence, FastSweepAndStrideKeepDenseCsrIdentity) {
  // fast_sweep and stress_stride change the rounding relative to the
  // legacy stride-1 kernel, but at a *fixed* config the dense reference
  // and the CSR path must still agree bit for bit — the optimizations are
  // kernel variants, not structural divergence.
  const net::Network net = sphere_network(29);
  const net::NoisyDistanceModel model(net, 0.1, 6);
  Rng rng(13);
  for (NodeId v : {NodeId{5}, NodeId{77}}) {
    SCOPED_TRACE(static_cast<unsigned>(v));
    std::vector<NodeId> members{v};
    for (NodeId u : net.neighbors(v)) members.push_back(u);
    const std::size_t m = members.size();
    if (m < 5) continue;
    linalg::Matrix d(m, m, 0.0);
    linalg::Matrix w(m, m, 0.0);
    std::vector<Vec3> init(m);
    for (std::size_t a = 0; a < m; ++a) {
      init[a] = net.position(members[a]) +
                Vec3{rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                     rng.uniform(-0.2, 0.2)};
      for (std::size_t b = a + 1; b < m; ++b) {
        if (!net.are_neighbors(members[a], members[b])) continue;
        d(a, b) = d(b, a) = model.measured_distance(members[a], members[b]);
        w(a, b) = w(b, a) = 1.0;
      }
    }
    linalg::SmacofConfig sc;
    sc.max_sweeps = 37;  // deliberately not a stride multiple
    sc.fast_sweep = true;
    sc.stress_stride = 3;
    double dense_stress = 0.0, sparse_stress = 0.0;
    std::vector<double> dense_trace, sparse_trace;
    linalg::SmacofRunInfo dense_info, sparse_info;
    const std::vector<Vec3> dense = linalg::smacof_refine(
        d, w, init, sc, &dense_stress, &dense_trace, &dense_info);
    const linalg::SmacofProblem problem(d, w);
    const std::vector<Vec3> sparse = problem.refine(
        init, sc, &sparse_stress, &sparse_trace, &sparse_info);
    EXPECT_EQ(dense_info.sweeps, sc.max_sweeps);  // budget exact
    EXPECT_EQ(dense_info.sweeps, sparse_info.sweeps);
    EXPECT_EQ(dense_stress, sparse_stress);
    ASSERT_EQ(dense_trace.size(), sparse_trace.size());
    for (std::size_t s = 0; s < dense_trace.size(); ++s)
      EXPECT_EQ(dense_trace[s], sparse_trace[s]) << "evaluation " << s;
    ASSERT_EQ(dense.size(), sparse.size());
    for (std::size_t a = 0; a < m; ++a) {
      EXPECT_EQ(dense[a].x, sparse[a].x);
      EXPECT_EQ(dense[a].y, sparse[a].y);
      EXPECT_EQ(dense[a].z, sparse[a].z);
    }
  }
}

TEST(LocalizationEquivalence, SparseSmacofMatchesDenseStressPerSweep) {
  // The CSR sweep must reproduce the dense sweep's stress trajectory bit
  // for bit — same arithmetic in the same order — and the shared
  // trajectory must be monotone non-increasing (majorization guarantee).
  const net::Network net = sphere_network(14);
  const net::NoisyDistanceModel model(net, 0.1, 2);
  Rng rng(3);
  for (NodeId v : {NodeId{0}, NodeId{17}, NodeId{101}}) {
    SCOPED_TRACE(static_cast<unsigned>(v));
    std::vector<NodeId> members{v};
    for (NodeId u : net.neighbors(v)) members.push_back(u);
    const std::size_t m = members.size();
    if (m < 4) continue;
    linalg::Matrix d(m, m, 0.0);
    linalg::Matrix w(m, m, 0.0);
    std::vector<Vec3> init(m);
    for (std::size_t a = 0; a < m; ++a) {
      init[a] = net.position(members[a]) +
                Vec3{rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                     rng.uniform(-0.1, 0.1)};
      for (std::size_t b = a + 1; b < m; ++b) {
        if (!net.are_neighbors(members[a], members[b])) continue;
        d(a, b) = d(b, a) = model.measured_distance(members[a], members[b]);
        w(a, b) = w(b, a) = 1.0;
      }
    }
    linalg::SmacofConfig sc;
    sc.max_sweeps = 25;
    double dense_stress = 0.0, sparse_stress = 0.0;
    std::vector<double> dense_trace, sparse_trace;
    const std::vector<Vec3> dense = linalg::smacof_refine(
        d, w, init, sc, &dense_stress, &dense_trace);
    const linalg::SmacofProblem problem(d, w);
    const std::vector<Vec3> sparse =
        problem.refine(init, sc, &sparse_stress, &sparse_trace);

    ASSERT_FALSE(dense_trace.empty());
    ASSERT_EQ(dense_trace.size(), sparse_trace.size());
    for (std::size_t s = 0; s < dense_trace.size(); ++s)
      EXPECT_EQ(dense_trace[s], sparse_trace[s]) << "sweep " << s;
    for (std::size_t s = 1; s < sparse_trace.size(); ++s)
      EXPECT_LE(sparse_trace[s], sparse_trace[s - 1] + 1e-12)
          << "sweep " << s;
    EXPECT_EQ(dense_stress, sparse_stress);
    ASSERT_EQ(dense.size(), sparse.size());
    for (std::size_t a = 0; a < m; ++a) {
      EXPECT_EQ(dense[a].x, sparse[a].x);
      EXPECT_EQ(dense[a].y, sparse[a].y);
      EXPECT_EQ(dense[a].z, sparse[a].z);
    }
  }
}

TEST(LocalizationEquivalence, TopkMdsStaysWithinNoiseOfDensePath) {
  // Above `kTopkMdsThreshold` the one-hop builder seeds its refinement
  // from the top-k subspace iteration instead of the full classical MDS
  // the reference runs; after refinement both must land at embeddings of
  // equivalent quality. Dense sphere so that plenty of nodes exceed the
  // threshold.
  Rng rng(15);
  const model::SphereShape shape({0, 0, 0}, 2.5);
  net::BuildOptions opt;
  opt.surface_count = 350;
  opt.interior_count = 600;
  const net::Network net = net::build_network(shape, opt, rng);
  const net::NoisyDistanceModel model(net, 0.05, 4);
  const LocalizerConfig cfg;
  const Localizer localizer(net, model, cfg);

  int compared = 0;
  double err_topk = 0.0, err_dense = 0.0;
  for (NodeId v = 0; v < net.num_nodes() && compared < 25; v += 11) {
    if (net.degree(v) + 1 <= kTopkMdsThreshold) continue;
    const LocalFrame a = localizer.local_frame(v);
    const LocalFrame b = reference_local_frame(net, model, cfg, v);
    if (!a.ok || !b.ok) continue;
    err_topk += localizer.frame_rms_error(a);
    err_dense += localizer.frame_rms_error(b);
    // Residual stress is the self-calibrated quality signal UBF consumes;
    // both paths must sit at the same noise-consistent level.
    EXPECT_NEAR(a.stress_rms, b.stress_rms, 0.05);
    ++compared;
  }
  ASSERT_GE(compared, 10);
  EXPECT_NEAR(err_topk / compared, err_dense / compared, 0.05);
}

}  // namespace
}  // namespace ballfit::localization
