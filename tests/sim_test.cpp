// Tests for src/sim: the round engine semantics (locality enforcement,
// round delivery, quiescence) and the three protocols, each checked against
// its BFS oracle on random networks; the landmark election's BFS path is
// checked against its engine path.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/rng.hpp"
#include "model/shapes.hpp"
#include "net/builder.hpp"
#include "net/graph.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
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

net::Network random_network(std::uint64_t seed, std::size_t surface = 250,
                            std::size_t interior = 350) {
  Rng rng(seed);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = surface;
  opt.interior_count = interior;
  return net::build_network(shape, opt, rng);
}

TEST(RoundEngine, MessagesDeliverNextRound) {
  const net::Network net = line_network(3);
  RoundEngine<int> engine(net);
  engine.send(0, 1, 42);
  std::vector<int> delivered;
  engine.run(
      [&](NodeId self, NodeId from, int msg) {
        delivered.push_back(msg);
        EXPECT_EQ(self, 1u);
        EXPECT_EQ(from, 0u);
      },
      10);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], 42);
  EXPECT_EQ(engine.stats().rounds, 1u);
  EXPECT_EQ(engine.stats().messages, 1u);
}

TEST(RoundEngine, RejectsNonNeighborSend) {
  const net::Network net = line_network(4);
  RoundEngine<int> engine(net);
  EXPECT_THROW(engine.send(0, 3, 1), InvalidArgument);
}

TEST(RoundEngine, BroadcastReachesActiveNeighborsOnly) {
  const net::Network net = line_network(3);
  NodeMask active(3, true);
  active[2] = false;
  RoundEngine<int> engine(net, &active);
  engine.broadcast(1, 7);
  int deliveries = 0;
  engine.run([&](NodeId self, NodeId, int) {
    ++deliveries;
    EXPECT_EQ(self, 0u);  // node 2 is inactive
  },
             10);
  EXPECT_EQ(deliveries, 1);
}

TEST(RoundEngine, ChainedForwardingTakesOneRoundPerHop) {
  const net::Network net = line_network(5);
  RoundEngine<int> engine(net);
  engine.send(0, 1, 0);
  engine.run(
      [&](NodeId self, NodeId, int hops) {
        if (self + 1 < net.num_nodes()) {
          engine.send(self, static_cast<NodeId>(self + 1), hops + 1);
        }
      },
      100);
  EXPECT_EQ(engine.stats().rounds, 4u);  // 0→1→2→3→4
  EXPECT_EQ(engine.stats().messages, 4u);
}

TEST(TtlFloodCount, MatchesOracleOnLine) {
  const net::Network net = line_network(9);
  NodeMask active(9, true);
  const auto sim = ttl_flood_count(net, active, 2);
  const auto oracle = ttl_flood_count_oracle(net, active, 2);
  EXPECT_EQ(sim, oracle);
  // Interior node hears itself + 2 each side.
  EXPECT_EQ(sim[4], 5u);
  EXPECT_EQ(sim[0], 3u);
}

TEST(TtlFloodCount, RespectsInactiveBarrier) {
  const net::Network net = line_network(7);
  NodeMask active(7, true);
  active[3] = false;
  const auto counts = ttl_flood_count(net, active, 6);
  EXPECT_EQ(counts[0], 3u);  // 0,1,2 only
  EXPECT_EQ(counts[3], 0u);
  EXPECT_EQ(counts[6], 3u);
}

TEST(TtlFloodCount, TtlZeroCountsSelfOnly) {
  const net::Network net = line_network(4);
  NodeMask active(4, true);
  const auto counts = ttl_flood_count(net, active, 0);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(counts[v], 1u);
}

class FloodVsOracle : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FloodVsOracle, RandomNetworkAgreesWithOracle) {
  const net::Network net = random_network(GetParam());
  // Random active subset.
  Rng rng(GetParam() * 7 + 1);
  NodeMask active(net.num_nodes(), false);
  for (NodeId v = 0; v < net.num_nodes(); ++v) active[v] = rng.bernoulli(0.5);
  for (std::uint32_t ttl : {1u, 2u, 3u}) {
    EXPECT_EQ(ttl_flood_count(net, active, ttl),
              ttl_flood_count_oracle(net, active, ttl))
        << "ttl=" << ttl;
  }
  EXPECT_EQ(leader_flood(net, active), leader_flood_oracle(net, active));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloodVsOracle, ::testing::Values(1, 2, 3, 4));

TEST(LeaderFlood, SingleComponentElectsMinId) {
  const net::Network net = line_network(6);
  NodeMask active(6, true);
  const auto leader = leader_flood(net, active);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(leader[v], 0u);
}

TEST(LeaderFlood, TwoFragmentsTwoLeaders) {
  const net::Network net = line_network(7);
  NodeMask active(7, true);
  active[3] = false;
  const auto leader = leader_flood(net, active);
  EXPECT_EQ(leader[0], 0u);
  EXPECT_EQ(leader[2], 0u);
  EXPECT_EQ(leader[3], net::kInvalidNode);
  EXPECT_EQ(leader[4], 4u);
  EXPECT_EQ(leader[6], 4u);
}

TEST(LandmarkElection, PropertiesOnRandomNetwork) {
  const net::Network net = random_network(11);
  NodeMask active(net.num_nodes(), true);
  const std::uint32_t k = 3;
  const auto landmarks = khop_landmark_election(net, active, k);
  ASSERT_FALSE(landmarks.empty());

  // Pairwise separation > k hops.
  for (NodeId lm : landmarks) {
    const auto dist = net::hop_distances(net, lm, &active, k);
    for (NodeId other : landmarks) {
      if (other == lm) continue;
      EXPECT_TRUE(dist[other] == net::kUnreachable || dist[other] > k)
          << lm << " vs " << other;
    }
  }

  // Coverage: every node within k hops of some landmark.
  const auto assoc = net::multi_source_bfs(net, landmarks, &active);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    ASSERT_NE(assoc.distance[v], net::kUnreachable);
    EXPECT_LE(assoc.distance[v], k);
  }
}

TEST(LandmarkElection, SpacingOneIsClassicMis) {
  const net::Network net = line_network(10);
  NodeMask active(10, true);
  const auto landmarks = khop_landmark_election(net, active, 1);
  // On a path with min-id preference: 0, then 2, 4, 6, 8... but coverage
  // means adjacent nodes suppressed; verify the independence + domination
  // properties instead of the exact set.
  for (std::size_t i = 0; i + 1 < landmarks.size(); ++i)
    EXPECT_GT(landmarks[i + 1] - landmarks[i], 1u);
}

TEST(LandmarkElection, RestrictedToActiveSubgraph) {
  const net::Network net = line_network(9);
  NodeMask active(9, false);
  for (NodeId v = 4; v < 9; ++v) active[v] = true;
  const auto landmarks = khop_landmark_election(net, active, 2);
  for (NodeId lm : landmarks) EXPECT_GE(lm, 4u);
}

/// The `sim.landmark_election.*` counters one election call records.
std::map<std::string, std::uint64_t> election_counters(
    const net::Network& net, const NodeMask& active, std::uint32_t k,
    const ProtocolOptions& opts, std::vector<NodeId>& landmarks,
    RunStats& stats) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  landmarks = khop_landmark_election(net, active, k, &stats, opts);
  obs::set_enabled(false);
  std::map<std::string, std::uint64_t> out;
  for (const char* c : {"messages", "rounds", "active_nodes", "runs"}) {
    const std::string name = std::string("sim.landmark_election.") + c;
    out[name] = obs::Registry::global().snapshot().counters[name];
  }
  return out;
}

// The reliable-network election is computed by BFS, not by the engine; an
// inert fault model forces the engine path. Both must agree on everything
// a caller can observe: landmarks, rounds, messages and obs counters.
TEST(LandmarkElection, FaultFreeMatchesEngine) {
  const net::Network net = random_network(17, 220, 300);
  Rng rng(5);
  NodeMask sparse(net.num_nodes());
  for (NodeId v = 0; v < net.num_nodes(); ++v) sparse[v] = rng.uniform() < 0.6;
  NodeMask shell(net.num_nodes());
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    shell[v] = net.is_ground_truth_boundary(v);
  const NodeMask all(net.num_nodes(), true);
  const NodeMask none(net.num_nodes(), false);

  const NodeMask* const masks[] = {&all, &sparse, &shell, &none};
  for (const NodeMask* active : masks) {
    for (std::uint32_t k = 1; k <= 5; ++k) {
      for (std::uint32_t repeat : {1u, 3u}) {
        for (std::size_t max_rounds : {std::size_t{0}, std::size_t{1},
                                       std::size_t{2}}) {
          ProtocolOptions plain;
          plain.repeat = repeat;
          plain.max_rounds = max_rounds;
          FaultModel inert(FaultConfig{}, net.num_nodes());
          ProtocolOptions engine = plain;
          engine.faults = &inert;

          std::vector<NodeId> got, want;
          RunStats got_stats, want_stats;
          const auto got_obs =
              election_counters(net, *active, k, plain, got, got_stats);
          const auto want_obs =
              election_counters(net, *active, k, engine, want, want_stats);
          const std::string where = "k=" + std::to_string(k) +
                                    " repeat=" + std::to_string(repeat) +
                                    " max_rounds=" +
                                    std::to_string(max_rounds);
          ASSERT_EQ(want.empty(), active == &none) << where;
          EXPECT_EQ(got, want) << where;
          EXPECT_EQ(got_stats.rounds, want_stats.rounds) << where;
          EXPECT_EQ(got_stats.messages, want_stats.messages) << where;
          EXPECT_EQ(got_obs, want_obs) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ballfit::sim
