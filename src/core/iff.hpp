#pragma once

/// \file iff.hpp
/// Isolated Fragment Filtering (paper Sec. II-B).
///
/// UBF occasionally marks interior nodes as boundary (noisy coordinates,
/// local low-density pockets), producing small isolated fragments. Real
/// boundaries form large, well-connected closed surfaces, so: every
/// UBF-positive node floods a packet with TTL = T over UBF-positive nodes
/// only and counts the distinct originators it hears; fewer than θ means
/// the node sits in a fragment too small to be a boundary and it demotes
/// itself. Defaults θ = 20, T = 3 come from the minimal hole (icosahedron:
/// ≥ 20 surface nodes, ≤ 3 hops across).

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "sim/protocols.hpp"

namespace ballfit::core {

struct IffConfig {
  /// θ: minimum number of distinct flooding originators heard.
  std::uint32_t theta = 20;
  /// T: flooding TTL in hops.
  std::uint32_t ttl = 3;
  /// Run the real message-passing protocol (default) or the BFS oracle
  /// (identical output). On a reliable network both are one bounded search
  /// per candidate; they differ only under a fault model, which the oracle
  /// ignores.
  bool use_message_passing = true;

  bool operator==(const IffConfig&) const = default;
};

/// Applies IFF to the UBF candidate set; returns the surviving boundary
/// flags. `stats`, when non-null, receives the protocol cost. `proto`
/// selects fault injection / retransmission for the flood (message-passing
/// mode only — the oracle models a reliable network by definition); lost
/// packets depress counts, so loss demotes borderline fragments first.
/// `counts_out`, when non-null, receives the per-node originator counts
/// the threshold was applied to (0 for non-candidates) — the flood margin
/// `counts[v] - θ` is the graded fragment-size signal behind the binary
/// verdict, consumed by the per-boundary quality scores (grouping.hpp).
/// `threads` spreads the count over workers (0 = hardware concurrency);
/// the result does not depend on it.
std::vector<bool> iff_filter(const net::Network& network,
                             const std::vector<bool>& candidates,
                             const IffConfig& config = {},
                             sim::RunStats* stats = nullptr,
                             const sim::ProtocolOptions& proto = {},
                             std::vector<std::uint32_t>* counts_out = nullptr,
                             unsigned threads = 0);

}  // namespace ballfit::core
