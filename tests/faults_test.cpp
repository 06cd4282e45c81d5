// Tests for the fault-injection layer (src/sim/faults) and the
// loss/crash-tolerance of the protocols and pipeline built on it:
//   - determinism: one seed, one outcome (drops, stats, results);
//   - statelessness: a shared model gives every flood the same fates
//     whatever ran on it before;
//   - the crash schedule: one death round per node, order-free, monotone
//     in the clock, binomially distributed;
//   - neutrality: the hook installed with a zero config (or pure loss=0)
//     is bit-identical to the oracle implementations;
//   - idempotency: duplicating every message changes nothing;
//   - tolerance: floods still converge at 10-20% loss given repeat >= 2;
//   - degradation: crashes shrink the answer but never break the run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "model/shapes.hpp"
#include "net/builder.hpp"
#include "net/graph.hpp"
#include "sim/faults.hpp"
#include "sim/protocols.hpp"

namespace ballfit::sim {
namespace {

using geom::Vec3;
using net::NodeId;
using net::NodeMask;

net::Network line_network(int n, double spacing = 0.9) {
  std::vector<Vec3> pos;
  for (int i = 0; i < n; ++i)
    pos.push_back({static_cast<double>(i) * spacing, 0, 0});
  return net::Network(std::move(pos), std::vector<bool>(n, false), 1.0);
}

net::Network random_network(std::uint64_t seed, std::size_t surface = 150,
                            std::size_t interior = 200) {
  Rng rng(seed);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = surface;
  opt.interior_count = interior;
  return net::build_network(shape, opt, rng);
}

/// Per node, whether it is alive at fault clock `round` under `cfg`'s
/// crash schedule — the mask the detection session folds crashes into.
NodeMask alive_at(const FaultConfig& cfg, std::size_t num_nodes,
                  std::size_t round) {
  const std::vector<std::size_t> death = death_rounds(cfg, num_nodes);
  NodeMask alive(num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) alive[v] = death[v] > round;
  return alive;
}

// ---------------------------------------------------------------------------
// FaultModel unit behavior.

TEST(FaultModel, ZeroConfigIsNeutral) {
  FaultConfig cfg;
  EXPECT_FALSE(cfg.any());
  const FaultModel model(cfg);
  for (std::uint64_t t = 0; t < 100; ++t) {
    EXPECT_EQ(model.deliveries(7, t % 5, 0, 1, t), 1u);
  }
  for (const std::size_t d : death_rounds(cfg, 16)) EXPECT_EQ(d, kNeverDies);
}

TEST(FaultModel, RejectsOutOfRangeProbabilities) {
  FaultConfig cfg;
  cfg.drop_probability = 1.5;
  EXPECT_THROW(FaultModel{cfg}, InvalidArgument);
  cfg = FaultConfig{};
  cfg.duplicate_probability = std::nan("");
  EXPECT_THROW(FaultModel{cfg}, InvalidArgument);
  cfg = FaultConfig{};
  cfg.crash_fraction = -0.1;
  EXPECT_THROW(validate(cfg, 4), InvalidArgument);
  EXPECT_THROW(death_rounds(cfg, 4), InvalidArgument);
  cfg = FaultConfig{};
  cfg.crash_probability = std::nan("");
  EXPECT_THROW(death_rounds(cfg, 4), InvalidArgument);
  cfg = FaultConfig{};
  cfg.crash_at_round = {{9, 0}};
  EXPECT_THROW(death_rounds(cfg, 4), InvalidArgument);
  EXPECT_NO_THROW(death_rounds(cfg, 10));
}

TEST(FaultModel, CrashFractionIsDeterministicInSeed) {
  FaultConfig cfg;
  cfg.crash_fraction = 0.3;
  cfg.seed = 99;
  const std::vector<std::size_t> a = death_rounds(cfg, 200);
  EXPECT_EQ(a, death_rounds(cfg, 200));
  const auto down = std::count(a.begin(), a.end(), std::size_t{0});
  ASSERT_GT(down, 0);
  ASSERT_LT(down, 200);
  for (const std::size_t d : a) EXPECT_TRUE(d == 0 || d == kNeverDies);
  cfg.seed = 100;
  EXPECT_NE(a, death_rounds(cfg, 200))
      << "different seeds produced identical crash sets";
}

TEST(FaultModel, ScheduledCrashFiresAtItsRound) {
  FaultConfig cfg;
  cfg.crash_at_round = {{2, 0}, {5, 3}};
  const std::vector<std::size_t> death = death_rounds(cfg, 8);
  EXPECT_EQ(death[2], 0u);  // down from the start
  EXPECT_EQ(death[5], 3u);  // alive at clock 2, down from clock 3
  EXPECT_TRUE(alive_at(cfg, 8, 2)[5]);
  EXPECT_FALSE(alive_at(cfg, 8, 3)[5]);
  EXPECT_EQ(std::count(death.begin(), death.end(), kNeverDies), 6);
}

TEST(FaultModel, LinkLossIsFixedPerLinkAndAsymmetric) {
  FaultConfig cfg;
  cfg.link_loss_max = 0.8;
  cfg.seed = 7;
  const FaultModel model(cfg);
  const double ab = model.link_loss(3, 4);
  EXPECT_EQ(model.link_loss(3, 4), ab);  // stateless: same link, same value
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 0.8);
  // Directions draw independently; equality would be a (vanishing-measure)
  // hash coincidence.
  EXPECT_NE(model.link_loss(3, 4), model.link_loss(4, 3));
}

// Every coordinate of a transmission feeds its fate: changing any one of
// them redraws it, repeating all of them repeats it.
TEST(FaultModel, FateIsAFunctionOfTheWholeTransmission) {
  FaultConfig cfg;
  cfg.drop_probability = 0.5;
  cfg.duplicate_probability = 0.5;
  cfg.seed = 5;
  const FaultModel model(cfg);
  const auto fates = [&](auto vary) {
    std::vector<unsigned> out;
    for (std::uint64_t i = 0; i < 64; ++i) out.push_back(vary(i));
    return out;
  };
  const auto by_protocol =
      fates([&](std::uint64_t i) { return model.deliveries(i, 1, 0, 1, 9); });
  const auto by_round =
      fates([&](std::uint64_t i) { return model.deliveries(3, i, 0, 1, 9); });
  const auto by_link = fates([&](std::uint64_t i) {
    return model.deliveries(3, 1, 0, static_cast<NodeId>(i), 9);
  });
  const auto by_identity =
      fates([&](std::uint64_t i) { return model.deliveries(3, 1, 0, 1, i); });
  for (const auto* f : {&by_protocol, &by_round, &by_link, &by_identity}) {
    for (unsigned fate : {0u, 1u, 2u})
      EXPECT_GT(std::count(f->begin(), f->end(), fate), 4) << fate;
  }
  EXPECT_EQ(by_identity, fates([&](std::uint64_t i) {
              return model.deliveries(3, 1, 0, 1, i);
            }));
}

// ---------------------------------------------------------------------------
// The crash schedule: one death round per node.

TEST(CrashSchedule, PermutedOrDuplicatedEntriesChangeNothing) {
  FaultConfig cfg;
  cfg.crash_fraction = 0.05;
  cfg.crash_probability = 0.02;
  cfg.crash_at_round = {{3, 4}, {9, 0}, {3, 2}, {40, 7}};
  cfg.seed = 12;
  FaultConfig shuffled = cfg;
  shuffled.crash_at_round = {{40, 7}, {3, 2}, {9, 0}, {40, 7}, {3, 4}};
  const std::vector<std::size_t> death = death_rounds(cfg, 100);
  EXPECT_EQ(death, death_rounds(shuffled, 100));
  EXPECT_EQ(death[9], 0u);
  // The earliest entry wins, wherever it is listed.
  EXPECT_LE(death[3], 2u);
  EXPECT_LE(death_rounds(shuffled, 100)[3], 2u);
  EXPECT_LE(death[40], 7u);
}

TEST(CrashSchedule, CasualtiesOnlyGrowWithTheClock) {
  FaultConfig cfg;
  cfg.crash_fraction = 0.1;
  cfg.crash_probability = 0.05;
  cfg.crash_at_round = {{17, 6}, {18, 30}};
  cfg.seed = 4;
  NodeMask previous = alive_at(cfg, 300, 0);
  std::size_t previous_alive = std::count(previous.begin(), previous.end(),
                                          true);
  for (std::size_t t = 1; t <= 40; ++t) {
    const NodeMask alive = alive_at(cfg, 300, t);
    for (NodeId v = 0; v < 300; ++v)
      EXPECT_TRUE(previous[v] || !alive[v]) << "node " << v << " revived";
    const std::size_t now = std::count(alive.begin(), alive.end(), true);
    EXPECT_LE(now, previous_alive);
    previous = alive;
    previous_alive = now;
  }
  EXPECT_LT(previous_alive, 300u * 3 / 10);  // 0.9 · 0.95^40 ≈ 0.12
}

// Over fixed seeds, the casualty count at clock t is Binomial(n, q) with
// q = crash_fraction at t = 0 and q = 1 − (1 − p)^t for crash_probability
// p. Every count must lie within 5 standard deviations of n·q.
TEST(CrashSchedule, CasualtyCountsFallInBinomialBand) {
  const std::size_t n = 20000;
  const auto expect_in_band = [n](const FaultConfig& cfg, std::size_t round,
                                  double q) {
    const NodeMask alive = alive_at(cfg, n, round);
    const double down =
        static_cast<double>(std::count(alive.begin(), alive.end(), false));
    const double mean = n * q;
    const double band = 5.0 * std::sqrt(n * q * (1.0 - q));
    EXPECT_NEAR(down, mean, band)
        << "seed=" << cfg.seed << " round=" << round << " q=" << q;
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    FaultConfig fraction;
    fraction.crash_fraction = 0.15;
    fraction.seed = seed;
    expect_in_band(fraction, 0, 0.15);
    expect_in_band(fraction, 50, 0.15);  // no per-round deaths

    FaultConfig per_round;
    per_round.crash_probability = 0.01;
    per_round.seed = seed;
    expect_in_band(per_round, 0, 0.0);
    for (std::size_t t : {1u, 10u, 60u})
      expect_in_band(per_round, t, 1.0 - std::pow(0.99, double(t)));

    FaultConfig certain;
    certain.crash_probability = 1.0;
    certain.seed = seed;
    expect_in_band(certain, 0, 0.0);
    expect_in_band(certain, 1, 1.0);
  }
}

// ---------------------------------------------------------------------------
// The channel as the protocols see it.

TEST(RoundEngineFaults, DropProbabilityOneLosesEverything) {
  const net::Network net = line_network(5);
  NodeMask active(5, true);
  FaultConfig cfg;
  cfg.drop_probability = 1.0;
  const FaultModel model(cfg);
  ProtocolOptions opts;
  opts.faults = &model;
  RunStats stats;
  const auto counts = ttl_flood_count(net, active, 3, &stats, opts);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(counts[v], 1u);  // self only
  EXPECT_EQ(stats.dropped, 8u);  // every origin's broadcast, to each side
  EXPECT_EQ(stats.messages, 5u);
}

// Copies of one packet carry their index, so they draw their fates
// independently: with per-hop loss p, a packet sent in k copies is lost
// with probability p^k. On a two-node line each TTL-1 count tells whether
// the other node's packet arrived; each seed redraws every fate.
TEST(RoundEngineFaults, RetransmittedCopiesDrawIndependently) {
  const net::Network net = line_network(2);
  const NodeMask active(2, true);
  FaultConfig cfg;
  cfg.drop_probability = 0.5;
  const int trials = 1000;
  for (std::uint32_t repeat : {1u, 2u, 3u}) {
    std::size_t heard = 0;
    for (int m = 0; m < trials; ++m) {
      cfg.seed = static_cast<std::uint64_t>(m) + 1;
      const FaultModel model(cfg);
      ProtocolOptions opts;
      opts.faults = &model;
      opts.repeat = repeat;
      const auto counts = ttl_flood_count(net, active, 1, nullptr, opts);
      heard += (counts[0] == 2) + (counts[1] == 2);
    }
    // P(some copy arrives) = 1 − 0.5^k; σ <= 0.011 over 2000 packets.
    EXPECT_NEAR(static_cast<double>(heard) / (2 * trials),
                1.0 - std::pow(0.5, repeat), 0.05)
        << "repeat=" << repeat;
  }
}

// ---------------------------------------------------------------------------
// Determinism: one seed, one outcome.

TEST(FaultDeterminism, SameSeedSameDropsStatsAndResults) {
  const net::Network net = random_network(3);
  NodeMask active(net.num_nodes(), true);
  FaultConfig cfg;
  cfg.drop_probability = 0.15;
  cfg.duplicate_probability = 0.05;
  cfg.seed = 42;

  auto run_once = [&](RunStats* stats) {
    const FaultModel model(cfg);
    ProtocolOptions opts;
    opts.faults = &model;
    opts.repeat = 2;
    return ttl_flood_count(net, active, 3, stats, opts);
  };
  RunStats s1, s2;
  const auto r1 = run_once(&s1);
  const auto r2 = run_once(&s2);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(s1.messages, s2.messages);
  EXPECT_EQ(s1.rounds, s2.rounds);
  EXPECT_EQ(s1.dropped, s2.dropped);
  EXPECT_EQ(s1.duplicated, s2.duplicated);
  EXPECT_GT(s1.dropped, 0u);
}

TEST(FaultDeterminism, DifferentSeedsDifferentDrops) {
  const net::Network net = random_network(3);
  NodeMask active(net.num_nodes(), true);
  FaultConfig cfg;
  cfg.drop_probability = 0.15;
  auto drops = [&](std::uint64_t seed) {
    cfg.seed = seed;
    const FaultModel model(cfg);
    ProtocolOptions opts;
    opts.faults = &model;
    RunStats stats;
    ttl_flood_count(net, active, 3, &stats, opts);
    return stats.dropped;
  };
  EXPECT_NE(drops(1), drops(2));
}

void expect_same_stats(const RunStats& a, const RunStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.messages, b.messages) << where;
  EXPECT_EQ(a.dropped, b.dropped) << where;
  EXPECT_EQ(a.duplicated, b.duplicated) << where;
}

// One shared model: a faulted flood returns the same result and RunStats
// whether it runs first or after other floods on that model.
TEST(FaultDeterminism, SharedModelResultsIndependentOfCallOrder) {
  const net::Network net = random_network(9);
  Rng rng(21);
  NodeMask active(net.num_nodes());
  for (NodeId v = 0; v < net.num_nodes(); ++v) active[v] = rng.uniform() < 0.8;
  FaultConfig cfg;
  cfg.drop_probability = 0.2;
  cfg.link_loss_max = 0.2;
  cfg.duplicate_probability = 0.1;
  cfg.seed = 77;
  ProtocolOptions opts;
  opts.repeat = 2;

  const FaultModel fresh_ttl(cfg);
  opts.faults = &fresh_ttl;
  RunStats ttl_first;
  const auto counts_first = ttl_flood_count(net, active, 3, &ttl_first, opts);
  const FaultModel fresh_leader(cfg);
  opts.faults = &fresh_leader;
  RunStats leader_first;
  const auto leaders_first = leader_flood(net, active, &leader_first, opts);

  const FaultModel shared(cfg);
  opts.faults = &shared;
  (void)khop_landmark_election(net, active, 2, nullptr, opts);
  (void)ttl_flood_count(net, active, 2, nullptr, opts);
  RunStats leader_later;
  EXPECT_EQ(leader_flood(net, active, &leader_later, opts), leaders_first);
  expect_same_stats(leader_later, leader_first, "leader_flood");
  (void)leader_flood(net, active, nullptr, opts);
  RunStats ttl_later;
  EXPECT_EQ(ttl_flood_count(net, active, 3, &ttl_later, opts), counts_first);
  expect_same_stats(ttl_later, ttl_first, "ttl_flood");
  EXPECT_GT(ttl_first.dropped, 0u);
  EXPECT_GT(leader_first.duplicated, 0u);
}

// ---------------------------------------------------------------------------
// Neutrality: hook installed, loss 0 => bit-identical results.

class FaultFreeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFreeEquivalence, AllProtocolsMatchOraclesWithHookInstalled) {
  const net::Network net = random_network(GetParam());
  Rng rng(GetParam() * 13 + 5);
  NodeMask active(net.num_nodes(), false);
  for (NodeId v = 0; v < net.num_nodes(); ++v) active[v] = rng.bernoulli(0.6);

  const FaultModel model(FaultConfig{});
  ProtocolOptions opts;
  opts.faults = &model;

  RunStats total;
  for (std::uint32_t ttl : {1u, 2u, 3u}) {
    RunStats stats;
    EXPECT_EQ(ttl_flood_count(net, active, ttl, &stats, opts),
              ttl_flood_count_oracle(net, active, ttl))
        << "ttl=" << ttl;
    total += stats;
  }
  RunStats stats;
  EXPECT_EQ(leader_flood(net, active, &stats, opts),
            leader_flood_oracle(net, active));
  total += stats;

  NodeMask all(net.num_nodes(), true);
  EXPECT_EQ(khop_landmark_election(net, all, 2, &stats, opts),
            khop_landmark_election(net, all, 2));
  total += stats;
  EXPECT_EQ(total.dropped, 0u);
  EXPECT_EQ(total.duplicated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFreeEquivalence,
                         ::testing::Values(1, 2, 3));

TEST(FaultFreeEquivalence, RepeatAloneDoesNotChangeResults) {
  const net::Network net = random_network(5);
  NodeMask active(net.num_nodes(), true);
  const FaultModel model(FaultConfig{});
  ProtocolOptions opts;
  opts.faults = &model;
  opts.repeat = 3;
  RunStats stats;
  EXPECT_EQ(ttl_flood_count(net, active, 2, &stats, opts),
            ttl_flood_count_oracle(net, active, 2));
  EXPECT_EQ(leader_flood(net, active, nullptr, opts),
            leader_flood_oracle(net, active));
  EXPECT_GT(stats.messages, 0u);
}

// ---------------------------------------------------------------------------
// Idempotency: duplicated deliveries change nothing.

TEST(FaultIdempotency, DuplicatingEveryMessagePreservesAllProtocols) {
  const net::Network net = random_network(7);
  NodeMask active(net.num_nodes(), true);
  FaultConfig cfg;
  cfg.duplicate_probability = 1.0;
  const FaultModel model(cfg);
  ProtocolOptions opts;
  opts.faults = &model;

  RunStats total, stats;
  EXPECT_EQ(ttl_flood_count(net, active, 3, &stats, opts),
            ttl_flood_count_oracle(net, active, 3));
  total += stats;
  EXPECT_EQ(leader_flood(net, active, &stats, opts),
            leader_flood_oracle(net, active));
  total += stats;
  EXPECT_EQ(khop_landmark_election(net, active, 2, &stats, opts),
            khop_landmark_election(net, active, 2));
  total += stats;
  EXPECT_GT(total.duplicated, 0u);
  EXPECT_EQ(total.dropped, 0u);
}

// ---------------------------------------------------------------------------
// Loss tolerance: repeat >= 2 keeps floods converging at 10-20% loss.

class LossTolerance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossTolerance, FloodsConvergeAtFifteenPercentLossWithRepeat3) {
  const net::Network net = random_network(GetParam(), 80, 100);
  NodeMask active(net.num_nodes(), true);
  FaultConfig cfg;
  cfg.drop_probability = 0.15;
  cfg.seed = GetParam();
  const FaultModel model(cfg);
  ProtocolOptions opts;
  opts.faults = &model;
  opts.repeat = 3;

  // Per-hop delivery with 3 transmissions: 1 - 0.15^3 = 99.66%. The
  // fragment-wide leader flood has both that and path redundancy plus n
  // rounds to recover, so it converges to the exact oracle answer.
  {
    RunStats stats;
    EXPECT_EQ(leader_flood(net, active, &stats, opts),
              leader_flood_oracle(net, active));
    EXPECT_GT(stats.dropped, 0u) << "loss process never fired";
  }
  // The TTL flood has no rounds to spare (a lost fact is gone after ttl
  // hops), so convergence is statistical: each node aggregates hundreds
  // of (origin, path) events, a handful of which hit the 0.34% per-hop
  // failure. Most nodes must still see the exact oracle count, the total
  // heard volume must stay within 1% of the oracle, and no node may hear
  // phantoms or go deaf.
  {
    const auto lossy = ttl_flood_count(net, active, 2, nullptr, opts);
    const auto exact = ttl_flood_count_oracle(net, active, 2);
    std::size_t matching = 0;
    std::uint64_t lossy_total = 0;
    std::uint64_t exact_total = 0;
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      EXPECT_LE(lossy[v], exact[v]) << "node " << v << " heard phantoms";
      EXPECT_GE(lossy[v], 1u);
      // Every node individually recovers at least 95% of its oracle
      // count (the +1 absorbs integer granularity on sparse nodes).
      EXPECT_GE((lossy[v] + 1) * 100, exact[v] * 95)
          << "node " << v << " lost too many facts: " << lossy[v] << " of "
          << exact[v];
      matching += lossy[v] == exact[v];
      lossy_total += lossy[v];
      exact_total += exact[v];
    }
    EXPECT_GE(matching * 100, net.num_nodes() * 85)
        << "more than 15% of nodes diverged from the oracle count";
    EXPECT_GE(lossy_total * 100, exact_total * 99)
        << "flood volume fell more than 1% below the oracle";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossTolerance, ::testing::Values(1, 2, 3, 4));

TEST(LossTolerance, TwentyPercentLossDegradesGracefullyNotCatastrophically) {
  const net::Network net = random_network(11, 80, 100);
  NodeMask active(net.num_nodes(), true);
  FaultConfig cfg;
  cfg.drop_probability = 0.2;
  cfg.seed = 3;
  const FaultModel model(cfg);
  ProtocolOptions opts;
  opts.faults = &model;
  opts.repeat = 2;

  // Counts can only shrink under loss (no phantom originators), and with
  // repeat=2 the bulk of the neighborhood still gets through.
  const auto lossy = ttl_flood_count(net, active, 2, nullptr, opts);
  const auto exact = ttl_flood_count_oracle(net, active, 2);
  std::size_t heard_lossy = 0, heard_exact = 0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    EXPECT_LE(lossy[v], exact[v]) << "node " << v << " heard phantoms";
    EXPECT_GE(lossy[v], 1u);
    heard_lossy += lossy[v];
    heard_exact += exact[v];
  }
  EXPECT_GT(heard_lossy * 10, heard_exact * 8)
      << "repeat=2 at 20% loss should retain >80% of the flood volume";
}

// Crashes reach the election as inactive nodes: under loss it still
// terminates and elects only live ones.
TEST(LossTolerance, ElectionTerminatesAndElectsOnlyLiveNodes) {
  const net::Network net = random_network(13, 80, 100);
  FaultConfig cfg;
  cfg.drop_probability = 0.2;
  cfg.crash_probability = 0.01;
  cfg.seed = 5;
  const NodeMask alive = alive_at(cfg, net.num_nodes(), 10);
  ASSERT_LT(std::count(alive.begin(), alive.end(), true),
            static_cast<std::ptrdiff_t>(net.num_nodes()));
  const FaultModel model(cfg);
  ProtocolOptions opts;
  opts.faults = &model;
  opts.repeat = 2;
  const auto landmarks = khop_landmark_election(net, alive, 2, nullptr, opts);
  ASSERT_FALSE(landmarks.empty());
  for (NodeId lm : landmarks) EXPECT_TRUE(alive[lm]);
}

// ---------------------------------------------------------------------------
// Crashes: protocols and pipeline shrink but never break.

TEST(CrashTolerance, CrashedNodesReportNothing) {
  const net::Network net = line_network(7);
  FaultConfig cfg;
  cfg.crash_at_round = {{3, 0}};  // severs the line into two fragments
  const NodeMask alive = alive_at(cfg, net.num_nodes(), 0);
  const FaultModel model(cfg);
  ProtocolOptions opts;
  opts.faults = &model;

  const auto counts = ttl_flood_count(net, alive, 6, nullptr, opts);
  EXPECT_EQ(counts[0], 3u);  // 0,1,2 only — 3 is a barrier now
  EXPECT_EQ(counts[3], 0u);
  EXPECT_EQ(counts[6], 3u);

  const auto leader = leader_flood(net, alive, nullptr, opts);
  EXPECT_EQ(leader[0], 0u);
  EXPECT_EQ(leader[2], 0u);
  EXPECT_EQ(leader[3], net::kInvalidNode);
  EXPECT_EQ(leader[4], 4u);
  EXPECT_EQ(leader[6], 4u);
}

TEST(CrashTolerance, AllInactiveMaskReturnsImmediately) {
  const net::Network net = line_network(6);
  NodeMask none(6, false);
  RunStats stats;
  stats.rounds = 99;
  const auto counts = ttl_flood_count(net, none, 3, &stats);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.messages, 0u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(counts[v], 0u);
  const auto leader = leader_flood(net, none, &stats);
  EXPECT_EQ(stats.messages, 0u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(leader[v], net::kInvalidNode);
}

TEST(CrashTolerance, EveryNodeCrashedStillTerminates) {
  const net::Network net = line_network(5);
  FaultConfig cfg;
  cfg.crash_fraction = 1.0;
  const NodeMask alive = alive_at(cfg, net.num_nodes(), 0);
  const FaultModel model(cfg);
  ProtocolOptions opts;
  opts.faults = &model;
  const auto counts = ttl_flood_count(net, alive, 3, nullptr, opts);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(counts[v], 0u);
  const auto landmarks = khop_landmark_election(net, alive, 2, nullptr, opts);
  EXPECT_TRUE(landmarks.empty());
}

}  // namespace
}  // namespace ballfit::sim

// ---------------------------------------------------------------------------
// Pipeline-level graceful degradation.

namespace ballfit::core {
namespace {

using net::NodeId;

net::Network pipeline_network(std::uint64_t seed) {
  Rng rng(seed);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = 250;
  opt.interior_count = 350;
  return net::build_network(shape, opt, rng);
}

TEST(PipelineFaults, ZeroFaultConfigMatchesReliableRun) {
  const net::Network network = pipeline_network(17);
  PipelineConfig reliable;
  reliable.use_true_coordinates = true;
  PipelineConfig hooked = reliable;
  hooked.faults = sim::FaultConfig{};  // installed but inert

  const PipelineResult a = detect_boundaries(network, reliable);
  const PipelineResult b = detect_boundaries(network, hooked);
  EXPECT_EQ(a.frame_fallbacks, b.frame_fallbacks);
  EXPECT_EQ(a.ubf_candidates, b.ubf_candidates);
  EXPECT_EQ(a.boundary, b.boundary);
  EXPECT_EQ(a.groups.leader, b.groups.leader);
  EXPECT_EQ(b.crashed_nodes, 0u);
  EXPECT_EQ(b.fault_stats.dropped, 0u);
}

TEST(PipelineFaults, CrashedNodesAreNeverReportedAsBoundary) {
  const net::Network network = pipeline_network(17);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  sim::FaultConfig faults;
  faults.crash_fraction = 0.2;
  faults.seed = 11;
  cfg.faults = faults;

  const PipelineResult result = detect_boundaries(network, cfg);
  EXPECT_GT(result.crashed_nodes, 0u);
  // The schedule is a pure function of the config: recover the down set.
  const std::vector<std::size_t> death =
      sim::death_rounds(faults, network.num_nodes());
  for (NodeId v = 0; v < network.num_nodes(); ++v) {
    if (death[v] == 0) {
      EXPECT_FALSE(result.ubf_candidates[v]);
      EXPECT_FALSE(result.boundary[v]);
      EXPECT_EQ(result.groups.leader[v], net::kInvalidNode);
    }
  }
}

TEST(PipelineFaults, DegradesGracefullyUnderLossAndCrashes) {
  const net::Network network = pipeline_network(17);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  sim::FaultConfig faults;
  faults.drop_probability = 0.15;
  faults.duplicate_probability = 0.05;
  faults.crash_fraction = 0.1;
  faults.seed = 23;
  cfg.faults = faults;
  cfg.flood_repeat = 2;

  const PipelineResult result = detect_boundaries(network, cfg);
  const DetectionStats s = evaluate_detection(network, result.boundary);
  // Degraded, not destroyed: the run completes, telemetry is populated,
  // and a meaningful share of the boundary is still found.
  EXPECT_GT(result.fault_stats.dropped, 0u);
  EXPECT_GT(result.fault_stats.duplicated, 0u);
  EXPECT_GT(result.crashed_nodes, 0u);
  EXPECT_GT(s.correct, s.true_boundary / 2);
}

TEST(PipelineFaults, FaultRunsAreDeterministic) {
  const net::Network network = pipeline_network(19);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  sim::FaultConfig faults;
  faults.drop_probability = 0.1;
  faults.crash_fraction = 0.05;
  faults.seed = 31;
  cfg.faults = faults;
  cfg.flood_repeat = 2;

  const PipelineResult a = detect_boundaries(network, cfg);
  const PipelineResult b = detect_boundaries(network, cfg);
  EXPECT_EQ(a.boundary, b.boundary);
  EXPECT_EQ(a.groups.leader, b.groups.leader);
  EXPECT_EQ(a.fault_stats.dropped, b.fault_stats.dropped);
  EXPECT_EQ(a.fault_stats.duplicated, b.fault_stats.duplicated);
  EXPECT_EQ(a.crashed_nodes, b.crashed_nodes);
}

}  // namespace
}  // namespace ballfit::core
