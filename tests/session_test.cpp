// DetectionSession contract tests: cached sweeps and incremental
// re-detection must be bit-identical to fresh detect_boundaries runs, the
// stage keys must cover every config field a stage reads, and
// results must be independent of the worker thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/session.hpp"
#include "model/shapes.hpp"
#include "net/builder.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace ballfit::core {
namespace {

using net::NodeId;

net::Network sphere_network(std::uint64_t seed, std::size_t surface = 160,
                            std::size_t interior = 260) {
  Rng rng(seed);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = surface;
  opt.interior_count = interior;
  return net::build_network(shape, opt, rng);
}

void expect_same_result(const PipelineResult& a, const PipelineResult& b,
                        const char* what) {
  EXPECT_EQ(a.ubf_candidates, b.ubf_candidates) << what;
  EXPECT_EQ(a.boundary, b.boundary) << what;
  EXPECT_EQ(a.groups.leader, b.groups.leader) << what;
  EXPECT_EQ(a.groups.groups, b.groups.groups) << what;
  EXPECT_EQ(a.frame_fallbacks, b.frame_fallbacks) << what;
  EXPECT_EQ(a.iff_cost.messages, b.iff_cost.messages) << what;
  EXPECT_EQ(a.grouping_cost.messages, b.grouping_cost.messages) << what;
}

// (a) A config sweep through one session is bit-identical to a fresh
// detect_boundaries call per config — and actually reuses the expensive
// artifact (one frame build for the whole ε sweep).
TEST(SessionSweep, BitIdenticalToFreshRunsWithReuse) {
  const net::Network net = sphere_network(11);
  DetectionSession session(net);

  std::vector<PipelineConfig> sweep;
  for (const double eps : {1e-6, 0.1, 0.2}) {
    PipelineConfig cfg;
    cfg.measurement_error = 0.2;
    cfg.noise_seed = 5;
    cfg.ubf.epsilon = eps;
    sweep.push_back(cfg);
  }
  // The θ variants reuse the last ε point's flags, so the single-entry UBF
  // cache serves them without a recompute.
  const PipelineConfig eps_base = sweep.back();
  for (const std::uint32_t theta : {5u, 40u}) {
    PipelineConfig cfg = eps_base;
    cfg.iff.theta = theta;
    sweep.push_back(cfg);
  }

  for (const PipelineConfig& cfg : sweep) {
    const PipelineResult via_session = session.run(cfg);
    const PipelineResult fresh = detect_boundaries(net, cfg);
    expect_same_result(via_session, fresh, "sweep point vs fresh");
  }

  // The sweep only varied UBF/IFF knobs: frames must have been built
  // exactly once and reused by every later point.
  EXPECT_EQ(session.stats().localize.full_runs, 1u);
  EXPECT_EQ(session.stats().localize.cache_hits, sweep.size() - 1);
  EXPECT_EQ(session.stats().ubf.full_runs, 3u);  // one per distinct ε
  EXPECT_EQ(session.stats().ubf.cache_hits, 2u);  // θ sweep reuses flags
}

// Re-running an already-seen config is a pure cache hit everywhere and
// still returns the identical result.
TEST(SessionSweep, RepeatedConfigHitsEveryCache) {
  const net::Network net = sphere_network(12);
  PipelineConfig cfg;
  cfg.measurement_error = 0.1;
  DetectionSession session(net);
  const PipelineResult first = session.run(cfg);
  const PipelineResult second = session.run(cfg);
  expect_same_result(first, second, "repeat config");
  EXPECT_EQ(session.stats().localize.full_runs, 1u);
  EXPECT_EQ(session.stats().localize.cache_hits, 1u);
  EXPECT_EQ(session.stats().ubf.cache_hits, 1u);
  EXPECT_EQ(session.stats().iff.cache_hits, 1u);
  EXPECT_EQ(session.stats().group.cache_hits, 1u);
}

// (b) Incremental re-detection: warm session + apply(delta) must equal a
// cold session given the same delta, on both the noisy and oracle paths.
TEST(SessionDelta, IncrementalMatchesFromScratch) {
  const net::Network net = sphere_network(13);
  PipelineConfig cfg;
  cfg.measurement_error = 0.2;
  cfg.noise_seed = 9;

  NetworkDelta delta;
  Rng rng(99);
  while (delta.crashed.size() < 12) {
    const auto v = static_cast<NodeId>(rng.uniform_index(net.num_nodes()));
    if (std::find(delta.crashed.begin(), delta.crashed.end(), v) ==
        delta.crashed.end()) {
      delta.crashed.push_back(v);
    }
  }

  DetectionSession warm(net);
  (void)warm.run(cfg);  // populate every cache pre-delta
  warm.apply(delta);
  const PipelineResult incremental = warm.run(cfg);
  EXPECT_GT(warm.stats().localize.partial_runs, 0u);
  EXPECT_GT(warm.stats().ubf.partial_runs, 0u);
  // The dirty set is local to the crash sites, not the whole network.
  EXPECT_LT(warm.stats().last_frames_rebuilt, net.num_nodes());

  DetectionSession cold(net);
  cold.apply(delta);
  const PipelineResult scratch = cold.run(cfg);
  expect_same_result(incremental, scratch, "incremental vs cold session");
  EXPECT_EQ(incremental.crashed_nodes, delta.crashed.size());

  // Crashed nodes can never be reported as boundary.
  for (const NodeId v : delta.crashed) {
    EXPECT_FALSE(incremental.boundary[v]);
    EXPECT_FALSE(incremental.ubf_candidates[v]);
  }
}

TEST(SessionDelta, ReviveRestoresOriginalResult) {
  const net::Network net = sphere_network(14);
  PipelineConfig cfg;
  cfg.measurement_error = 0.15;

  DetectionSession session(net);
  const PipelineResult before = session.run(cfg);

  NetworkDelta crash;
  crash.crashed = {3, 40, 41, 120, 200};
  session.apply(crash);
  (void)session.run(cfg);

  NetworkDelta revive;
  revive.revived = crash.crashed;
  session.apply(revive);
  const PipelineResult after = session.run(cfg);
  expect_same_result(before, after, "crash+revive round trip");
  EXPECT_EQ(after.crashed_nodes, 0u);
  EXPECT_EQ(session.num_alive(), net.num_nodes());
}

TEST(SessionDelta, OracleModeMatchesFromScratch) {
  const net::Network net = sphere_network(15);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;

  DetectionSession warm(net);
  (void)warm.run(cfg);
  NetworkDelta delta;
  delta.crashed = {10, 11, 12, 80, 81, 150};
  warm.apply(delta);
  const PipelineResult incremental = warm.run(cfg);
  // The true-coordinates path re-tests only the dirty neighborhoods.
  EXPECT_EQ(warm.stats().ubf.partial_runs, 1u);
  EXPECT_GT(warm.stats().last_nodes_retested, 0u);
  EXPECT_LT(warm.stats().last_nodes_retested, net.num_nodes());

  DetectionSession cold(net);
  cold.apply(delta);
  expect_same_result(incremental, cold.run(cfg), "oracle incremental");
}

// (c) Key completeness: flipping any config field a stage reads
// must invalidate exactly that stage and downstream — observable as the
// session result staying bit-identical to a fresh run of the new config,
// even right after the session cached a near-identical one.
TEST(SessionFingerprint, EveryConfigFieldInvalidates) {
  const net::Network net = sphere_network(16, 100, 160);
  PipelineConfig base;
  base.measurement_error = 0.2;
  base.noise_seed = 5;

  std::vector<std::pair<const char*, PipelineConfig>> variants;
  const auto add = [&](const char* name, auto&& tweak) {
    PipelineConfig cfg = base;
    tweak(cfg);
    variants.emplace_back(name, cfg);
  };
  add("measurement_error", [](PipelineConfig& c) { c.measurement_error = 0.4; });
  add("noise_seed", [](PipelineConfig& c) { c.noise_seed = 6; });
  add("use_true_coordinates",
      [](PipelineConfig& c) { c.use_true_coordinates = true; });
  add("group_off", [](PipelineConfig& c) { c.group = false; });
  add("ubf.epsilon", [](PipelineConfig& c) { c.ubf.epsilon = 0.15; });
  add("ubf.measurement_error_hint",
      [](PipelineConfig& c) { c.ubf.measurement_error_hint = 0.5; });
  add("ubf.noise_margin_factor",
      [](PipelineConfig& c) { c.ubf.noise_margin_factor = 0.0; });
  add("ubf.min_empty_balls",
      [](PipelineConfig& c) { c.ubf.min_empty_balls = 4; });
  add("ubf.degenerate_is_boundary",
      [](PipelineConfig& c) { c.ubf.degenerate_is_boundary = false; });
  add("ubf.scope", [](PipelineConfig& c) {
    c.ubf.scope = UbfConfig::EmptinessScope::kOneHop;
  });
  add("localizer.tier", [](PipelineConfig& c) {
    c.localizer.tier = localization::EquivalenceTier::kBitwise;
  });
  add("iff.theta", [](PipelineConfig& c) { c.iff.theta = 3; });
  add("iff.ttl", [](PipelineConfig& c) { c.iff.ttl = 5; });
  add("iff.use_message_passing",
      [](PipelineConfig& c) { c.iff.use_message_passing = false; });

  DetectionSession session(net);
  (void)session.run(base);  // warm every cache with the base config
  const PipelineResult base_fresh = detect_boundaries(net, base);
  for (const auto& [name, cfg] : variants) {
    const PipelineResult via_session = session.run(cfg);
    const PipelineResult fresh = detect_boundaries(net, cfg);
    expect_same_result(via_session, fresh, name);
    // Return to base between variants so each flip is tested against a
    // fully warmed cache of a *different* config.
    expect_same_result(session.run(base), base_fresh, name);
  }
}

// (d) Thread-count independence: full runs and partial (post-delta) runs
// must not depend on the worker pool size.
TEST(SessionThreads, ResultIndependentOfThreadCount) {
  const net::Network net = sphere_network(17);
  PipelineConfig cfg;
  cfg.measurement_error = 0.2;
  NetworkDelta delta;
  delta.crashed = {7, 8, 9, 60, 61, 130};

  std::vector<PipelineResult> full_runs;
  std::vector<PipelineResult> partial_runs;
  for (const unsigned threads : {1u, 2u, 8u}) {
    PipelineConfig threaded = cfg;
    threaded.threads = threads;
    DetectionSession session(net);
    full_runs.push_back(session.run(threaded));
    session.apply(delta);
    partial_runs.push_back(session.run(threaded));
  }
  for (std::size_t i = 1; i < full_runs.size(); ++i) {
    expect_same_result(full_runs[0], full_runs[i], "full run thread sweep");
    expect_same_result(partial_runs[0], partial_runs[i],
                       "partial run thread sweep");
  }
}

// Guard rails: malformed deltas are rejected loudly — and before any state
// change, so a failed apply leaves the session exactly as it was.
TEST(SessionDelta, RejectsCrashOfDeadAndReviveOfAlive) {
  const net::Network net = sphere_network(18, 80, 100);
  DetectionSession session(net);
  NetworkDelta crash;
  crash.crashed = {1};
  session.apply(crash);

  NetworkDelta again;
  again.crashed = {1};  // already dead
  EXPECT_THROW(session.apply(again), InvalidArgument);
  NetworkDelta revive_alive;
  revive_alive.revived = {2};  // never crashed
  EXPECT_THROW(session.apply(revive_alive), InvalidArgument);
  NetworkDelta out_of_range;
  out_of_range.crashed = {static_cast<NodeId>(net.num_nodes())};
  EXPECT_THROW(session.apply(out_of_range), InvalidArgument);

  // The rejected deltas changed nothing.
  EXPECT_EQ(session.num_alive(), net.num_nodes() - 1);
  EXPECT_FALSE(session.is_alive(1));
  EXPECT_TRUE(session.is_alive(2));
}

TEST(SessionDelta, RejectsDuplicateIdsWithinOneDelta) {
  const net::Network net = sphere_network(18, 80, 100);
  DetectionSession session(net);
  NetworkDelta dup_crash;
  dup_crash.crashed = {4, 7, 4};
  EXPECT_THROW(session.apply(dup_crash), InvalidArgument);
  EXPECT_EQ(session.num_alive(), net.num_nodes());  // nothing applied

  NetworkDelta crash;
  crash.crashed = {4, 7};
  session.apply(crash);
  NetworkDelta dup_revive;
  dup_revive.revived = {4, 4};
  EXPECT_THROW(session.apply(dup_revive), InvalidArgument);
  EXPECT_FALSE(session.is_alive(4));

  NetworkDelta dup_move;
  dup_move.moved = {{2, {0, 0, 0}}, {2, {1, 0, 0}}};
  EXPECT_THROW(session.apply(dup_move), InvalidArgument);
}

TEST(SessionDelta, RejectsMovesOnConstBoundSession) {
  const net::Network net = sphere_network(18, 80, 100);
  DetectionSession session(net);  // const binding: observe-only
  NetworkDelta delta;
  delta.moved = {{0, net.position(0)}};
  EXPECT_THROW(session.apply(delta), InvalidArgument);
}

// A session bound to a mutable network accepts move deltas; the moved
// node's re-detection matches a cold session on the moved network.
TEST(SessionDelta, MoveDeltaMatchesColdSession) {
  net::Network warm_net = sphere_network(19, 100, 160);
  net::Network cold_net = sphere_network(19, 100, 160);
  PipelineConfig cfg;
  cfg.measurement_error = 0.1;

  DetectionSession warm(warm_net);
  (void)warm.run(cfg);  // populate caches pre-move

  NetworkDelta delta;
  const geom::Vec3 p5 = warm_net.position(5);
  const geom::Vec3 p80 = warm_net.position(80);
  delta.moved = {{5, {p5.x + 0.4, p5.y - 0.2, p5.z}},
                 {80, {p80.x, p80.y + 0.5, p80.z - 0.3}}};
  warm.apply(delta);
  const PipelineResult incremental = warm.run(cfg);
  EXPECT_GT(warm.stats().localize.partial_runs, 0u);
  EXPECT_LT(warm.stats().last_frames_rebuilt, warm_net.num_nodes());

  DetectionSession cold(cold_net);
  cold.apply(delta);
  expect_same_result(incremental, cold.run(cfg), "move incremental vs cold");
}

// --- Fault injection through the cached stage graph ------------------------

// An active fault config flows through the same input-keyed stages:
// repeating the config is pure cache hits and returns the identical result
// — faulted artifacts are pure functions of the fault channel's fields,
// not of RNG call order.
TEST(SessionFaults, RepeatedFaultedRunHitsEveryCache) {
  const net::Network net = sphere_network(33, 80, 100);
  DetectionSession session(net);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  sim::FaultConfig faults;
  faults.drop_probability = 0.1;
  faults.duplicate_probability = 0.05;
  faults.crash_fraction = 0.1;
  faults.seed = 7;
  cfg.faults = faults;

  const PipelineResult a = session.run(cfg);
  const std::uint64_t ubf_hits = session.stats().ubf.cache_hits;
  const std::uint64_t iff_hits = session.stats().iff.cache_hits;
  const std::uint64_t group_hits = session.stats().group.cache_hits;
  const PipelineResult b = session.run(cfg);
  EXPECT_EQ(a.ubf_candidates, b.ubf_candidates);
  EXPECT_EQ(a.boundary, b.boundary);
  EXPECT_EQ(a.groups.leader, b.groups.leader);
  EXPECT_EQ(a.fault_stats.dropped, b.fault_stats.dropped);
  EXPECT_EQ(a.fault_stats.duplicated, b.fault_stats.duplicated);
  EXPECT_EQ(a.crashed_nodes, b.crashed_nodes);
  EXPECT_GT(a.crashed_nodes, 0u);
  EXPECT_EQ(session.stats().ubf.cache_hits, ubf_hits + 1);
  EXPECT_EQ(session.stats().iff.cache_hits, iff_hits + 1);
  EXPECT_EQ(session.stats().group.cache_hits, group_hits + 1);
}

// Faults and user deltas compose on one session: a masked session accepts
// a faulted run and matches a cold session given the same dead set.
TEST(SessionFaults, FaultsComposeWithAppliedDelta) {
  const net::Network net = sphere_network(34, 100, 160);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  sim::FaultConfig faults;
  faults.drop_probability = 0.1;
  faults.crash_fraction = 0.1;
  faults.seed = 11;
  cfg.faults = faults;

  NetworkDelta delta;
  delta.crashed = {2, 30, 31, 90};

  DetectionSession warm(net);
  (void)warm.run(cfg);  // faulted warm-up, then a user delta on top
  warm.apply(delta);
  const PipelineResult incremental = warm.run(cfg);

  DetectionSession cold(net);
  cold.apply(delta);
  const PipelineResult scratch = cold.run(cfg);
  EXPECT_EQ(incremental.boundary, scratch.boundary);
  EXPECT_EQ(incremental.groups.leader, scratch.groups.leader);
  EXPECT_EQ(incremental.crashed_nodes, scratch.crashed_nodes);
  // The dead set is the union of both crash mechanisms.
  EXPECT_GE(incremental.crashed_nodes, delta.crashed.size());
}

// Fault casualties do not outlive their model: a reliable run revives them
// and reproduces the fault-free result bit-for-bit.
TEST(SessionFaults, ReliableRunRevivesFaultCasualties) {
  const net::Network net = sphere_network(35, 100, 160);
  PipelineConfig reliable;
  reliable.use_true_coordinates = true;
  PipelineConfig faulted = reliable;
  sim::FaultConfig faults;
  faults.crash_fraction = 0.2;
  faults.seed = 13;
  faulted.faults = faults;

  DetectionSession session(net);
  const PipelineResult before = session.run(reliable);
  const PipelineResult under_faults = session.run(faulted);
  EXPECT_GT(under_faults.crashed_nodes, 0u);
  EXPECT_TRUE(session.has_fault_model());
  const PipelineResult after = session.run(reliable);
  EXPECT_FALSE(session.has_fault_model());
  EXPECT_EQ(session.num_alive(), net.num_nodes());
  expect_same_result(before, after, "reliable run after faults");
}

// Satellite: crash → revive → crash round trip against the fault clock. A
// user revive of a scheduled casualty sticks until the model re-syncs.
TEST(SessionFaults, CrashReviveCrashRoundTripAgainstFaultClock) {
  const net::Network net = sphere_network(36, 80, 100);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  sim::FaultConfig faults;
  faults.crash_at_round = {{12, 1}};
  faults.seed = 3;
  cfg.faults = faults;

  DetectionSession session(net);
  (void)session.run(cfg);  // round 0: the scheduled crash has not fired
  EXPECT_TRUE(session.is_alive(12));

  const NetworkDelta fired = session.advance_faults(1);
  ASSERT_EQ(fired.crashed, std::vector<NodeId>{12});
  EXPECT_FALSE(session.is_alive(12));

  NetworkDelta revive;
  revive.revived = {12};
  session.apply(revive);  // operator intervention: node repaired
  EXPECT_TRUE(session.is_alive(12));

  (void)session.run(cfg);  // model still holds the node down: re-synced
  EXPECT_FALSE(session.is_alive(12));
}

TEST(SessionFaults, AdvanceFaultsRequiresInstalledModel) {
  const net::Network net = sphere_network(37, 80, 100);
  DetectionSession session(net);
  EXPECT_THROW((void)session.advance_faults(1), InvalidArgument);
}

// Satellite: delta_from_fault_state emits sorted, duplicate-free lists and
// is idempotent — applying its delta and diffing again yields nothing.
TEST(SessionFaults, DeltaFromFaultStateSortedDedupIdempotent) {
  const net::Network net = sphere_network(38, 80, 100);
  sim::FaultConfig fc;
  fc.crash_at_round = {{20, 0}, {5, 0}, {20, 0}};  // unsorted, duplicated

  DetectionSession session(net);
  const NetworkDelta d = delta_from_fault_state(session, fc, 0);
  EXPECT_EQ(d.crashed, (std::vector<NodeId>{5, 20}));
  EXPECT_TRUE(d.revived.empty());
  session.apply(d);
  EXPECT_TRUE(delta_from_fault_state(session, fc, 0).empty());
  EXPECT_TRUE(delta_from_fault_state(session, fc, 9).empty());
}

/// `expect_same_result` plus the fault telemetry.
void expect_same_faulted(const PipelineResult& a, const PipelineResult& b,
                         const char* what) {
  expect_same_result(a, b, what);
  EXPECT_EQ(a.crashed_nodes, b.crashed_nodes) << what;
  EXPECT_EQ(a.fault_stats.dropped, b.fault_stats.dropped) << what;
  EXPECT_EQ(a.fault_stats.duplicated, b.fault_stats.duplicated) << what;
  EXPECT_EQ(a.fault_stats.crashed, b.fault_stats.crashed) << what;
}

std::vector<bool> alive_set(const DetectionSession& session) {
  std::vector<bool> alive(session.network().num_nodes());
  for (NodeId v = 0; v < alive.size(); ++v) alive[v] = session.is_alive(v);
  return alive;
}

/// A true-coordinates config under every fault mechanism at once.
PipelineConfig every_fault_config() {
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  cfg.flood_repeat = 2;
  sim::FaultConfig faults;
  faults.drop_probability = 0.1;
  faults.link_loss_max = 0.1;
  faults.duplicate_probability = 0.05;
  faults.crash_fraction = 0.05;
  faults.crash_probability = 0.01;
  faults.crash_at_round = {{7, 2}, {40, 5}, {41, 0}};
  faults.seed = 19;
  cfg.faults = faults;
  return cfg;
}

// The fault clock is additive: two advances leave the session as one
// advance by their sum, and their casualties partition its casualties.
TEST(SessionFaults, AdvanceFaultsComposesAdditively) {
  const net::Network net = sphere_network(39, 80, 100);
  const PipelineConfig cfg = every_fault_config();
  DetectionSession split(net);
  DetectionSession whole(net);
  (void)split.run(cfg);
  (void)whole.run(cfg);

  const NetworkDelta a = split.advance_faults(3);
  const NetworkDelta b = split.advance_faults(4);
  const NetworkDelta ab = whole.advance_faults(7);
  EXPECT_EQ(alive_set(split), alive_set(whole));
  std::vector<NodeId> both = a.crashed;
  both.insert(both.end(), b.crashed.begin(), b.crashed.end());
  std::sort(both.begin(), both.end());
  EXPECT_EQ(both, ab.crashed);
  EXPECT_FALSE(ab.crashed.empty());
  EXPECT_TRUE(a.revived.empty() && b.revived.empty() && ab.revived.empty());
  expect_same_faulted(split.run(cfg), whole.run(cfg),
                      "advance(3) + advance(4) vs advance(7)");
}

// A faulted run depends on its config and the fault clock alone: a
// session that first ran a reliable run and a θ sweep returns what a
// fresh session does.
TEST(SessionFaults, EarlierRunsDoNotChangeAFaultedRun) {
  const net::Network net = sphere_network(40, 80, 100);
  const PipelineConfig faulted = every_fault_config();
  PipelineConfig reliable = faulted;
  reliable.faults.reset();

  DetectionSession used(net);
  (void)used.run(reliable);
  for (const std::uint32_t theta : {10u, 15u, 25u}) {
    PipelineConfig sweep = reliable;
    sweep.iff.theta = theta;
    (void)used.run(sweep);
    sweep.faults = faulted.faults;
    (void)used.run(sweep);
  }
  DetectionSession fresh(net);
  const PipelineResult want = fresh.run(faulted);
  expect_same_faulted(used.run(faulted), want, "used vs fresh session");
  EXPECT_GT(want.fault_stats.dropped, 0u);
  EXPECT_GT(want.fault_stats.duplicated, 0u);
  EXPECT_GT(want.crashed_nodes, 0u);
}

// Schedule order and repeats are not part of the config's identity: a
// permuted, duplicated schedule keeps the installed clock.
TEST(SessionFaults, PermutedScheduleKeepsTheClock) {
  const net::Network net = sphere_network(41, 80, 100);
  const PipelineConfig cfg = every_fault_config();
  DetectionSession session(net);
  (void)session.run(cfg);
  (void)session.advance_faults(6);
  EXPECT_FALSE(session.is_alive(40));  // scheduled for round 5
  const std::vector<bool> alive = alive_set(session);

  PipelineConfig permuted = cfg;
  permuted.faults->crash_at_round = {{41, 0}, {40, 5}, {7, 2}, {40, 5}};
  const PipelineResult r = session.run(permuted);
  EXPECT_EQ(alive_set(session), alive);
  expect_same_faulted(r, session.run(cfg), "permuted vs listed schedule");
}

TEST(SessionFaults, CasualtiesOnlyGrowAsTheClockAdvances) {
  const net::Network net = sphere_network(42, 80, 100);
  const PipelineConfig cfg = every_fault_config();
  DetectionSession session(net);
  (void)session.run(cfg);
  std::vector<bool> previous = alive_set(session);
  for (int step = 0; step < 12; ++step) {
    const NetworkDelta fired = session.advance_faults(1);
    EXPECT_TRUE(fired.revived.empty()) << "step " << step;
    const std::vector<bool> alive = alive_set(session);
    for (NodeId v = 0; v < alive.size(); ++v)
      EXPECT_TRUE(previous[v] || !alive[v]) << "node " << v << " revived";
    for (const NodeId v : fired.crashed) EXPECT_TRUE(previous[v]);
    previous = alive;
  }
  EXPECT_FALSE(session.is_alive(7));
  EXPECT_FALSE(session.is_alive(40));
}

// A bad fault config fails at the API boundary — out-of-range schedule
// ids, and probabilities that are NaN or outside [0, 1], even on an
// otherwise inert config — and leaves the session exactly as it was. So
// does a bad measurement error, even when it comes with a fault config
// other than the installed one.
TEST(SessionFaults, InvalidConfigRejectedBeforeAnyStateChange) {
  const net::Network net = sphere_network(43, 80, 100);
  const PipelineConfig cfg = every_fault_config();
  const double nan = std::nan("");
  std::vector<sim::FaultConfig> bad(7, *cfg.faults);
  bad[0].crash_at_round.push_back({static_cast<NodeId>(net.num_nodes()), 1});
  bad[1].drop_probability = nan;
  bad[2].crash_probability = nan;
  bad[3].crash_fraction = -0.1;
  bad[4].duplicate_probability = 1.5;
  bad[5].link_loss_max = 2.0;
  bad[6] = sim::FaultConfig{};
  bad[6].drop_probability = nan;
  ASSERT_FALSE(bad[6].any());

  DetectionSession session(net);
  (void)session.run(cfg);
  (void)session.advance_faults(3);
  const std::vector<bool> alive = alive_set(session);
  const std::uint64_t ubf_runs = session.stats().ubf.full_runs +
                                 session.stats().ubf.partial_runs +
                                 session.stats().ubf.cache_hits;
  std::vector<PipelineConfig> rejected;
  for (const sim::FaultConfig& faults : bad) {
    PipelineConfig c = cfg;
    c.faults = faults;
    rejected.push_back(c);
  }
  for (const double error : {-0.1, nan}) {
    PipelineConfig c = cfg;
    c.use_true_coordinates = false;
    c.measurement_error = error;
    c.faults->seed = 20;
    c.faults->crash_fraction = 0.3;
    rejected.push_back(c);
  }
  // A bad UBF config, on either coordinate path, is rejected before the
  // new fault config is installed (and before any frame is built).
  const std::vector<void (*)(UbfConfig&)> bad_ubf = {
      [](UbfConfig& u) { u.epsilon = -1.0; },
      [](UbfConfig& u) { u.noise_margin_factor = std::nan(""); },
      [](UbfConfig& u) { u.min_empty_balls = 0; },
  };
  for (const auto tweak : bad_ubf) {
    for (const bool true_coords : {true, false}) {
      PipelineConfig c = cfg;
      c.use_true_coordinates = true_coords;
      c.measurement_error = 0.1;
      tweak(c.ubf);
      c.faults->seed = 20;
      c.faults->crash_fraction = 0.3;
      rejected.push_back(c);
    }
  }
  for (std::size_t i = 0; i < rejected.size(); ++i) {
    const PipelineConfig& c = rejected[i];
    EXPECT_THROW((void)session.run(c), InvalidArgument) << "config " << i;
    EXPECT_EQ(alive_set(session), alive) << "config " << i;
    EXPECT_TRUE(session.has_fault_model()) << "config " << i;
    EXPECT_EQ(session.stats().ubf.full_runs + session.stats().ubf.partial_runs +
                  session.stats().ubf.cache_hits,
              ubf_runs)
        << "config " << i;
  }
  // The clock survived: the next valid run sees round 3.
  DetectionSession reference(net);
  (void)reference.run(cfg);
  (void)reference.advance_faults(3);
  expect_same_faulted(session.run(cfg), reference.run(cfg),
                      "after rejected configs");

  DetectionSession fresh(net);
  PipelineConfig c = cfg;
  c.faults = bad[0];
  EXPECT_THROW((void)fresh.run(c), InvalidArgument);
  EXPECT_EQ(fresh.num_alive(), net.num_nodes());
  EXPECT_FALSE(fresh.has_fault_model());
}

// --- Observability: stage counters and quality artifacts -------------------

/// Enables obs collection for one test; the registry is process-global.
class SessionObs : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset();
  }
  void TearDown() override {
    obs::reset();
    obs::set_enabled(false);
  }
};

TEST_F(SessionObs, StageCountersMirrorStatsInRegistry) {
  const net::Network net = sphere_network(31, 120, 180);
  DetectionSession session(net);
  PipelineConfig cfg;
  cfg.measurement_error = 0.05;
  (void)session.run(cfg);
  (void)session.run(cfg);  // identical config: every stage cache-hits

  const auto counters = obs::snapshot().metrics.counters;
  const SessionStats& stats = session.stats();
  const auto expect_counter = [&](const std::string& name,
                                  std::uint64_t want) {
    ASSERT_TRUE(counters.count(name)) << "missing counter " << name;
    EXPECT_EQ(counters.at(name), want) << name;
  };
  expect_counter("session.localize.full_runs", stats.localize.full_runs);
  expect_counter("session.localize.cache_hits", stats.localize.cache_hits);
  expect_counter("session.ubf.full_runs", stats.ubf.full_runs);
  expect_counter("session.ubf.cache_hits", stats.ubf.cache_hits);
  expect_counter("session.iff.full_runs", stats.iff.full_runs);
  expect_counter("session.iff.cache_hits", stats.iff.cache_hits);
  expect_counter("session.group.full_runs", stats.group.full_runs);
  expect_counter("session.group.cache_hits", stats.group.cache_hits);
  // Localize builds the measurement model and the localizer itself; the
  // retired Measure stage reports nothing.
  EXPECT_EQ(counters.count("session.measure.full_runs"), 0u);
  EXPECT_EQ(stats.measure.full_runs + stats.measure.cache_hits, 0u);
  EXPECT_EQ(stats.localize.full_runs, 1u);
  EXPECT_EQ(stats.localize.cache_hits, 1u);
  EXPECT_EQ(stats.ubf.full_runs, 1u);
  EXPECT_EQ(stats.ubf.cache_hits, 1u);
}

TEST_F(SessionObs, QualityArtifactsConsistentAndCacheStable) {
  const net::Network net = sphere_network(32, 120, 180);
  DetectionSession session(net);
  PipelineConfig cfg;
  cfg.measurement_error = 0.05;
  const PipelineResult r1 = session.run(cfg);

  ASSERT_EQ(r1.ubf_confidence.size(), net.num_nodes());
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    EXPECT_EQ(r1.ubf_candidates[v], r1.ubf_confidence[v] >= 0.5f)
        << "node " << v;
  }
  ASSERT_EQ(r1.group_quality.size(), r1.groups.count());
  for (std::size_t g = 0; g < r1.group_quality.size(); ++g) {
    const BoundaryQuality& q = r1.group_quality[g];
    EXPECT_EQ(q.leader, r1.groups.groups[g].front());
    EXPECT_EQ(q.size, r1.groups.groups[g].size());
    EXPECT_GT(q.score, 0.0);
    EXPECT_LT(q.score, 1.0);
    EXPECT_GT(q.mean_confidence, 0.0);  // members passed the 0.5 gate
  }

  // A cache-hit run re-publishes the same telemetry.
  const PipelineResult r2 = session.run(cfg);
  EXPECT_EQ(r1.ubf_confidence, r2.ubf_confidence);
  ASSERT_EQ(r2.group_quality.size(), r1.group_quality.size());
  for (std::size_t g = 0; g < r1.group_quality.size(); ++g) {
    EXPECT_DOUBLE_EQ(r1.group_quality[g].score, r2.group_quality[g].score);
  }

  // The confidence histogram saw every scored (non-crashed) node.
  bool found = false;
  for (const auto& h : obs::snapshot().metrics.histograms) {
    if (h.name != "ubf.confidence") continue;
    found = true;
    EXPECT_EQ(h.count, net.num_nodes());
  }
  EXPECT_TRUE(found);
}

TEST_F(SessionObs, InertFaultConfigIsTheReliablePath) {
  const net::Network net = sphere_network(33, 80, 100);
  DetectionSession session(net);
  PipelineConfig cfg;
  const PipelineResult reliable = session.run(cfg);
  cfg.faults.emplace();  // all-zero fault model: nothing can fire
  const PipelineResult inert = session.run(cfg);
  expect_same_result(reliable, inert, "inert faults vs reliable");
  EXPECT_FALSE(session.has_fault_model());
  // No fault channel means no drop/duplicate counters were published.
  const auto counters = obs::snapshot().metrics.counters;
  EXPECT_FALSE(counters.count("pipeline.dropped"));
}

}  // namespace
}  // namespace ballfit::core
