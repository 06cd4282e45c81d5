#pragma once

/// \file protocols.hpp
/// The localized flooding protocols: the IFF fragment-size count, the
/// min-id leader flood of boundary grouping, and the k-hop landmark
/// election of mesh Step I.
///
/// **Model.** The paper assumes the LOCAL model: synchronous rounds and
/// reliable local broadcast. A packet broadcast in round t reaches every
/// active one-hop neighbor in round t + 1, and inactive nodes (outside the
/// `active` mask — non-boundary nodes, crashed nodes) neither send, receive
/// nor relay. One broadcast is one radio transmission (`RunStats::messages`),
/// whatever the number of neighbors it reaches; a round is counted when at
/// least one packet is in flight to an active node.
///
/// **The channel.** A `ProtocolOptions::faults` model makes the channel
/// lossy: each delivery's fate (lost, delivered, delivered twice) is a
/// stateless hash of (protocol, round, sender, receiver, transmission
/// identity), where the identity is the packet's payload plus its copy
/// index in [0, `repeat`). So every delivery can be decided where it
/// happens, in any order, and copies draw their fates independently:
/// k retransmissions turn per-hop loss p into p^k. Every handler is
/// idempotent, so a duplicate changes nothing but `RunStats::duplicated`.
/// Without a model every delivery succeeds; the same code runs either way.
/// Crashes never reach the protocols: a crashed node is an inactive one.
///
/// **Why the TTL floods are computed one source at a time.** In the TTL
/// count and in both phases of the election a node forwards a given
/// source's packet only on its first arrival, and a packet that arrives in
/// round R always carries TTL T − R. So the flood of one source never
/// depends on any other source's packets: each is a lossy bounded search
/// in which a node first hearing the packet in round R < T relays it once
/// per copy, and the protocol's result, messages, drops and duplicates are
/// sums over sources, its rounds the longest source. Both protocols run
/// one source per `parallel_for` index, each source's cost in its own slot,
/// so nothing they return depends on the thread count. The leader flood is
/// not separable: a node relays every improvement, and how many it makes
/// in one round depends on the order it reads its mail in. It is replayed
/// exactly: in each round, every receiver reads the previous round's
/// broadcasts of its active neighbors in ascending neighbor id, each
/// neighbor's in the order it made them — the order in which a round
/// engine that drains receivers in ascending id fills FIFO inboxes.
///
/// The reference for both claims is a literal round engine with FIFO
/// inboxes in tests/sim_test.cpp (`DenseEngine`): every protocol here
/// equals it on results, `RunStats` and `sim.*` counters, and the TTL
/// floods equal it under shuffled drain orders too.
///
/// **Observability.** Each call with at least one active node adds its
/// cost to the `sim.<protocol>.{messages,rounds,active_nodes,runs}`
/// counters, plus `{dropped,duplicated}` when a fault model is installed
/// (no-op while collection is disabled). The election counts two runs per
/// iteration (bids and covers), each over every active node.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/graph.hpp"
#include "net/network.hpp"
#include "sim/faults.hpp"

namespace ballfit::sim {

/// Cumulative cost counters for a protocol run — the only record of what
/// the fault channel did to it.
struct RunStats {
  std::size_t rounds = 0;      ///< synchronous rounds executed
  std::size_t messages = 0;    ///< radio transmissions
  std::size_t dropped = 0;     ///< fault-injected losses (deliveries lost)
  std::size_t duplicated = 0;  ///< fault-injected duplicate deliveries

  /// Pools another run's counters (the election's phases, the pipeline's
  /// stages).
  RunStats& operator+=(const RunStats& o) {
    rounds += o.rounds;
    messages += o.messages;
    dropped += o.dropped;
    duplicated += o.duplicated;
    return *this;
  }
};

/// Execution knobs shared by every protocol.
struct ProtocolOptions {
  /// Lossy channel to run under (non-owning; nullptr = reliable network).
  const FaultModel* faults = nullptr;
  /// Radio transmissions per newly learned fact (>= 1). Each copy rolls
  /// the loss process independently, so k retransmissions turn per-hop
  /// loss p into p^k. Pointless (but harmless) without a fault model.
  std::uint32_t repeat = 1;
};

/// TTL-limited origin-counting flood over the subgraph induced by `active`
/// (paper Sec. II-B): every active node originates a packet with TTL `ttl`;
/// packets are forwarded by active nodes only. Returns, for each active
/// node, the number of *distinct originators heard, including itself* —
/// i.e. the size of its TTL-neighborhood within its fragment. Inactive
/// nodes get 0. One lossy bounded search per active node, spread over
/// `threads` workers (0 = hardware concurrency); the result does not
/// depend on the thread count.
std::vector<std::uint32_t> ttl_flood_count(const net::Network& net,
                                           const net::NodeMask& active,
                                           std::uint32_t ttl,
                                           RunStats* stats = nullptr,
                                           const ProtocolOptions& opts = {},
                                           unsigned threads = 0);

/// Oracle equivalent of `ttl_flood_count` on a reliable network: the size
/// of each active node's `ttl`-hop ball, by BFS, recording nothing.
std::vector<std::uint32_t> ttl_flood_count_oracle(const net::Network& net,
                                                  const net::NodeMask& active,
                                                  std::uint32_t ttl,
                                                  unsigned threads = 0);

/// Min-id leader flood over the induced subgraph: every active node ends up
/// knowing the smallest node id in its connected fragment. This both labels
/// fragments (grouping, Sec. II-B last paragraph) and elects a unique
/// leader per boundary. Inactive nodes map to kInvalidNode. Serial.
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
/// wins every iteration, so the election terminates. Each iteration is a
/// bid flood from every undecided node and a cover flood from every
/// winner; a winner's cover is not pre-marked as heard at the winner, so
/// it echoes back and, for k >= 3, is relayed once more. Each phase's
/// floods are spread over `threads` workers (0 = hardware concurrency), one
/// source per index; the result does not depend on the thread count.
std::vector<net::NodeId> khop_landmark_election(
    const net::Network& net, const net::NodeMask& active, std::uint32_t k,
    RunStats* stats = nullptr, const ProtocolOptions& opts = {},
    unsigned threads = 0);

}  // namespace ballfit::sim
