// Churn soak tests: sustained crash/revive/move delta streams through one
// DetectionSession must stay boundary-set-identical to a cold session
// rebuilt from the live topology at every step — under true and noisy
// coordinates, under 1/2/8 worker threads, and under active fault
// injection. Plus unit coverage for burst coalescing and the report math.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/session.hpp"
#include "model/shapes.hpp"
#include "net/builder.hpp"
#include "obs/metrics.hpp"
#include "sim/churn.hpp"

namespace ballfit::sim {
namespace {

using core::DetectionSession;
using core::NetworkDelta;
using core::PipelineConfig;
using core::PipelineResult;
using net::NodeId;

net::Network sphere_network(std::uint64_t seed, std::size_t surface = 100,
                            std::size_t interior = 160) {
  Rng rng(seed);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = surface;
  opt.interior_count = interior;
  return net::build_network(shape, opt, rng);
}

/// Rebuilds the live topology from scratch — fresh network from the current
/// positions, fresh session, one delta crashing every currently-dead node —
/// and runs `cfg` on it. The soak's ground truth for each step.
PipelineResult cold_run(const net::Network& live, const DetectionSession& warm,
                        const PipelineConfig& cfg) {
  std::vector<geom::Vec3> pos;
  std::vector<bool> truth;
  pos.reserve(live.num_nodes());
  for (NodeId v = 0; v < live.num_nodes(); ++v) {
    pos.push_back(live.position(v));
    truth.push_back(live.is_ground_truth_boundary(v));
  }
  net::Network cold_net(std::move(pos), std::move(truth), live.radio_range());
  DetectionSession cold(cold_net);
  NetworkDelta dead;
  for (NodeId v = 0; v < live.num_nodes(); ++v) {
    if (!warm.is_alive(v)) dead.crashed.push_back(v);
  }
  if (!dead.empty()) cold.apply(dead);
  return cold.run(cfg);
}

void expect_same_boundary(const PipelineResult& a, const PipelineResult& b,
                          std::size_t step) {
  ASSERT_EQ(a.ubf_candidates, b.ubf_candidates) << "step " << step;
  ASSERT_EQ(a.boundary, b.boundary) << "step " << step;
  ASSERT_EQ(a.groups.leader, b.groups.leader) << "step " << step;
  ASSERT_EQ(a.groups.groups, b.groups.groups) << "step " << step;
}

// --- coalesce_deltas -------------------------------------------------------

TEST(Coalesce, CrashThenReviveCancels) {
  std::vector<NetworkDelta> seq(2);
  seq[0].crashed = {3, 7};
  seq[1].revived = {3};
  const NetworkDelta net = coalesce_deltas(seq);
  EXPECT_EQ(net.crashed, (std::vector<NodeId>{7}));
  EXPECT_TRUE(net.revived.empty());
}

TEST(Coalesce, ReviveThenCrashCancels) {
  std::vector<NetworkDelta> seq(2);
  seq[0].revived = {5};
  seq[1].crashed = {5, 2};
  const NetworkDelta net = coalesce_deltas(seq);
  EXPECT_EQ(net.crashed, (std::vector<NodeId>{2}));
  EXPECT_TRUE(net.revived.empty());
}

TEST(Coalesce, LastMoveWinsAndOutputIsSorted) {
  std::vector<NetworkDelta> seq(2);
  seq[0].moved = {{9, {1, 0, 0}}, {4, {2, 0, 0}}};
  seq[1].moved = {{9, {3, 0, 0}}};
  seq[1].crashed = {8, 1};
  const NetworkDelta net = coalesce_deltas(seq);
  ASSERT_EQ(net.moved.size(), 2u);
  EXPECT_EQ(net.moved[0].node, 4u);
  EXPECT_EQ(net.moved[1].node, 9u);
  EXPECT_DOUBLE_EQ(net.moved[1].new_position.x, 3.0);
  EXPECT_EQ(net.crashed, (std::vector<NodeId>{1, 8}));
}

TEST(Coalesce, MalformedSequenceThrows) {
  std::vector<NetworkDelta> seq(2);
  seq[0].crashed = {3};
  seq[1].crashed = {3};  // crash of an already-crashed node
  EXPECT_THROW((void)coalesce_deltas(seq), InvalidArgument);
}

TEST(Coalesce, EmptySequenceIsEmptyDelta) {
  EXPECT_TRUE(coalesce_deltas({}).empty());
}

// --- report math -----------------------------------------------------------

TEST(ChurnReport, PercentilesNearestRank) {
  ChurnReport r;
  r.redetect_ms = {4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(r.percentile_ms(0.0), 1.0);
  EXPECT_DOUBLE_EQ(r.p50_ms(), 2.0);
  EXPECT_DOUBLE_EQ(r.p99_ms(), 4.0);
  EXPECT_DOUBLE_EQ(r.max_ms(), 4.0);
  EXPECT_DOUBLE_EQ(r.total_ms(), 10.0);
  EXPECT_DOUBLE_EQ(ChurnReport{}.percentile_ms(0.5), 0.0);
}

// --- soak: incremental vs cold at every step -------------------------------

// The headline soak: 220 steps of mixed crash/revive/move bursts (several
// bursts coalesced per step), cross-checked boundary-set-identical against
// a cold rebuild after every single step.
TEST(ChurnSoak, TrueCoordsIncrementalMatchesColdEveryStep) {
  net::Network net = sphere_network(41);
  DetectionSession session(net);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;

  ChurnConfig churn;
  churn.seed = 17;
  churn.bursts_per_step = 2;
  ChurnEngine engine(net, session, churn);

  for (std::size_t step = 0; step < 220; ++step) {
    const PipelineResult& inc = engine.step(cfg);
    expect_same_boundary(inc, cold_run(net, session, cfg), step);
  }
  const ChurnReport& rep = engine.report();
  EXPECT_EQ(rep.steps, 220u);
  EXPECT_GT(rep.crashes + rep.revives + rep.moves, 0u);
  EXPECT_EQ(rep.redetect_ms.size(), 220u);
  EXPECT_LE(rep.p50_ms(), rep.p99_ms());
  EXPECT_LE(rep.p99_ms(), rep.max_ms());
}

// Same invariant with noisy ranging and local MDS frames: moves force the
// dirty frames to rebuild over re-drawn edge measurements; everything
// untouched must stay bit-identical to the cold rebuild.
TEST(ChurnSoak, NoisyLocalizationMatchesCold) {
  net::Network net = sphere_network(42, 70, 110);
  DetectionSession session(net);
  PipelineConfig cfg;
  cfg.measurement_error = 0.1;
  cfg.noise_seed = 5;

  ChurnConfig churn;
  churn.seed = 23;
  ChurnEngine engine(net, session, churn);

  for (std::size_t step = 0; step < 40; ++step) {
    const PipelineResult& inc = engine.step(cfg);
    expect_same_boundary(inc, cold_run(net, session, cfg), step);
  }
  // The soak actually exercised the incremental paths.
  EXPECT_GT(session.stats().localize.partial_runs, 0u);
  EXPECT_EQ(session.stats().localize.full_runs, 1u);
}

// Identically-seeded engines over identically-built networks must produce
// identical event streams and identical boundaries regardless of the
// worker thread count.
TEST(ChurnSoak, ThreadCountDeterminism) {
  const unsigned thread_counts[] = {1, 2, 8};
  std::vector<net::Network> nets;
  std::vector<DetectionSession> sessions;
  std::vector<ChurnEngine> engines;
  nets.reserve(3);
  sessions.reserve(3);
  engines.reserve(3);
  ChurnConfig churn;
  churn.seed = 29;
  churn.bursts_per_step = 2;
  for (int i = 0; i < 3; ++i) {
    nets.push_back(sphere_network(43));
    sessions.emplace_back(nets.back());
    engines.emplace_back(nets.back(), sessions.back(), churn);
  }

  for (std::size_t step = 0; step < 30; ++step) {
    PipelineResult results[3];
    for (int i = 0; i < 3; ++i) {
      PipelineConfig cfg;
      cfg.use_true_coordinates = true;
      cfg.threads = thread_counts[i];
      results[i] = engines[i].step(cfg);
    }
    expect_same_boundary(results[0], results[1], step);
    expect_same_boundary(results[0], results[2], step);
    ASSERT_EQ(engines[0].last_delta().crashed, engines[1].last_delta().crashed)
        << "step " << step;
    ASSERT_EQ(engines[0].last_delta().moved.size(),
              engines[2].last_delta().moved.size())
        << "step " << step;
  }
}

// Churn composed with active fault injection: the fault clock advances
// every step (scheduled + per-round crashes fire), churn revives fight the
// fault model, and the incremental result still matches the cold rebuild.
TEST(ChurnSoak, UnderActiveFaultInjection) {
  net::Network net = sphere_network(44);
  DetectionSession session(net);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  FaultConfig faults;
  faults.drop_probability = 0.05;
  faults.crash_fraction = 0.05;
  faults.crash_probability = 0.002;
  faults.crash_at_round = {{10, 3}, {20, 7}};
  faults.seed = 31;
  cfg.faults = faults;
  cfg.flood_repeat = 2;

  ChurnConfig churn;
  churn.seed = 37;
  churn.fault_rounds_per_step = 1;
  ChurnEngine engine(net, session, churn);

  for (std::size_t step = 0; step < 30; ++step) {
    const PipelineResult& inc = engine.step(cfg);
    expect_same_boundary(inc, cold_run(net, session, cfg), step);
  }
  EXPECT_TRUE(session.has_fault_model());
  // The schedule fired: both scheduled victims are down by now.
  EXPECT_FALSE(session.is_alive(10));
  EXPECT_FALSE(session.is_alive(20));
}

// --- engine invariants -----------------------------------------------------

// Crashes generated by the engine never push the alive count below the
// configured floor (revives are disabled to make the bound tight).
TEST(ChurnEngine, RespectsAliveFloor) {
  net::Network net = sphere_network(45, 60, 90);
  DetectionSession session(net);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;

  ChurnConfig churn;
  churn.seed = 41;
  churn.max_crashes_per_burst = 10;
  churn.max_revives_per_burst = 0;
  churn.max_moves_per_burst = 0;
  churn.min_alive_fraction = 0.7;
  ChurnEngine engine(net, session, churn);

  const std::size_t floor = static_cast<std::size_t>(
      std::ceil(0.7 * static_cast<double>(net.num_nodes())));
  for (std::size_t step = 0; step < 25; ++step) {
    (void)engine.step(cfg);
    ASSERT_GE(session.num_alive(), floor) << "step " << step;
  }
  // With a generous cap the floor is actually reached, not just respected.
  EXPECT_EQ(session.num_alive(), floor);
}

TEST(ChurnEngine, CoalescingCancelsOppositeEvents) {
  net::Network net = sphere_network(46, 60, 90);
  DetectionSession session(net);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;

  ChurnConfig churn;
  churn.seed = 43;
  churn.bursts_per_step = 4;  // plenty of chances for cancel pairs
  churn.max_crashes_per_burst = 5;
  churn.max_revives_per_burst = 5;
  ChurnEngine engine(net, session, churn);
  for (std::size_t step = 0; step < 40; ++step) (void)engine.step(cfg);
  EXPECT_GT(engine.report().coalesced_away, 0u);
}

TEST(ChurnEngine, RejectsSessionBoundToOtherNetwork) {
  net::Network a = sphere_network(47, 60, 90);
  net::Network b = sphere_network(47, 60, 90);
  DetectionSession session(a);
  EXPECT_THROW(ChurnEngine(b, session, {}), InvalidArgument);
}

// --- observability ---------------------------------------------------------

TEST(ChurnObs, LatencyAndChurnCountersPublished) {
  obs::set_enabled(true);
  obs::Registry::global().reset();

  net::Network net = sphere_network(48, 60, 90);
  DetectionSession session(net);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  ChurnConfig churn;
  churn.seed = 47;
  ChurnEngine engine(net, session, churn);
  for (std::size_t step = 0; step < 10; ++step) (void)engine.step(cfg);

  const auto snap = obs::Registry::global().snapshot();
  ASSERT_TRUE(snap.counters.count("churn.steps"));
  EXPECT_EQ(snap.counters.at("churn.steps"), 10u);
  ASSERT_TRUE(snap.counters.count("churn.crashes"));
  ASSERT_TRUE(snap.counters.count("churn.revives"));
  ASSERT_TRUE(snap.counters.count("churn.moves"));
  ASSERT_TRUE(snap.counters.count("churn.boundary_churn"));
  bool found_hist = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "churn.redetect_ms") {
      found_hist = true;
      EXPECT_EQ(h.count, 10u);
    }
  }
  EXPECT_TRUE(found_hist);
  ASSERT_TRUE(snap.gauges.count("churn.p50_ms"));
  ASSERT_TRUE(snap.gauges.count("churn.p99_ms"));
  EXPECT_LE(snap.gauges.at("churn.p50_ms"), snap.gauges.at("churn.p99_ms"));

  obs::Registry::global().reset();
  obs::set_enabled(false);
}

}  // namespace
}  // namespace ballfit::sim
