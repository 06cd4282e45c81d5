#pragma once

/// \file protocols.hpp
/// Reusable localized protocols built on RoundEngine.
///
/// These are the communication workhorses of IFF (fragment-size counting),
/// boundary grouping (min-id leader flood), and landmark election (k-hop
/// suppression). Both TTL-bounded protocols — the IFF count and the
/// election — are computed by bounded BFS when there is no fault model:
/// on a reliable synchronous network each of their floods reaches exactly
/// a hop ball, so the BFS yields the same result, and `RunStats` and
/// `sim.*` counters derived from ball sizes and depths, at a cost of the
/// balls instead of N per round. The engine runs them only under faults,
/// and runs the leader flood always, whose message count depends on the
/// timing of each wave. The two floods have oracle counterparts in terms
/// of BFS; tests assert equivalence with the engine.
///
/// All three tolerate imperfect communication when run with a
/// `ProtocolOptions` carrying a fault model: handlers are idempotent (a
/// duplicated delivery changes nothing), each newly learned fact can be
/// re-broadcast `repeat` times to survive loss — each copy names its index
/// in its transmission identity, so copies draw their fates independently
/// — and termination is by quiescence-under-loss (bounded by a rounds cap)
/// instead of exact round counts. Crashes do not reach the protocols: a
/// crashed node is an inactive one in the `active` mask. At zero loss the
/// results are bit-identical to the oracles even with the fault hook
/// installed.

#include <cstdint>
#include <vector>

#include "net/graph.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"

namespace ballfit::sim {

/// Execution knobs shared by every protocol.
struct ProtocolOptions {
  /// Lossy channel to run under (non-owning; nullptr = reliable network).
  const FaultModel* faults = nullptr;
  /// Radio transmissions per newly learned fact (>= 1). Each copy rolls
  /// the loss process independently, so k retransmissions turn per-hop
  /// loss p into p^k. Pointless (but harmless) without a fault model.
  std::uint32_t repeat = 1;
  /// Cap on engine rounds; 0 picks the protocol's natural bound (ttl+1
  /// for TTL floods, n+1 for fragment-wide floods). Protocols terminate
  /// on quiescence before the cap — under loss the cap is a safety net,
  /// not the expected exit.
  std::size_t max_rounds = 0;
};

/// TTL-limited origin-counting flood over the subgraph induced by `active`
/// (paper Sec. II-B): every active node originates a packet with TTL `ttl`;
/// packets are forwarded by active nodes only. Returns, for each active
/// node, the number of *distinct originators heard, including itself* —
/// i.e. the size of its TTL-neighborhood within its fragment. Inactive
/// nodes get 0. Without a fault model no engine runs: one
/// bounded BFS per active node, spread over `threads` workers (0 =
/// hardware concurrency), gives the counts, and the same `RunStats` and
/// `sim.ttl_flood.*` counters as the engine. With a fault model the flood
/// runs on the engine, serially.
std::vector<std::uint32_t> ttl_flood_count(const net::Network& net,
                                           const net::NodeMask& active,
                                           std::uint32_t ttl,
                                           RunStats* stats = nullptr,
                                           const ProtocolOptions& opts = {},
                                           unsigned threads = 0);

/// Oracle equivalent of `ttl_flood_count`: the same per-node BFS as its
/// reliable-network path, with the natural round cap, recording nothing.
std::vector<std::uint32_t> ttl_flood_count_oracle(const net::Network& net,
                                                  const net::NodeMask& active,
                                                  std::uint32_t ttl,
                                                  unsigned threads = 0);

/// Min-id leader flood over the induced subgraph: every active node ends up
/// knowing the smallest node id in its connected fragment. This both labels
/// fragments (grouping, Sec. II-B last paragraph) and elects a unique
/// leader per boundary. Inactive nodes map to kInvalidNode.
std::vector<net::NodeId> leader_flood(const net::Network& net,
                                      const net::NodeMask& active,
                                      RunStats* stats = nullptr,
                                      const ProtocolOptions& opts = {});

/// Oracle equivalent of `leader_flood` via connected components.
std::vector<net::NodeId> leader_flood_oracle(const net::Network& net,
                                             const net::NodeMask& active);

/// Distributed k-hop landmark election over the induced subgraph (mesh step
/// I): iterated min-id suppression — a node becomes a landmark iff no
/// already-elected landmark lies within `k` hops and it has the smallest id
/// among undecided nodes in its k-hop neighborhood. The result is a maximal
/// k-hop independent set: landmarks are pairwise > k hops apart, and every
/// active node is within k hops of some landmark. Under loss the
/// spacing/coverage guarantees degrade to best-effort (lost cover packets
/// can leave two landmarks closer than k); the smallest undecided id still
/// wins every iteration, so the election terminates.
/// Without a fault model the election is computed by bounded BFS instead of
/// the engine (one search per bidder and per winner and iteration), with the
/// same landmarks, `RunStats` and `sim.landmark_election.*` counters.
std::vector<net::NodeId> khop_landmark_election(
    const net::Network& net, const net::NodeMask& active, std::uint32_t k,
    RunStats* stats = nullptr, const ProtocolOptions& opts = {});

}  // namespace ballfit::sim
