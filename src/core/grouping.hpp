#pragma once

/// \file grouping.hpp
/// Boundary grouping (paper Sec. II-B, last paragraph).
///
/// Nodes on the same boundary are connected through boundary nodes only;
/// nodes on different boundaries are not. A min-id leader flood over the
/// boundary subgraph therefore labels each closed boundary with a unique
/// leader — one group per inner hole plus one for the outer boundary.

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "sim/protocols.hpp"

namespace ballfit::core {

struct BoundaryGroups {
  /// Per node: the leader (smallest id) of its boundary, or kInvalidNode
  /// for non-boundary nodes.
  std::vector<net::NodeId> leader;
  /// The groups themselves, sorted by leader id; each group's nodes sorted.
  std::vector<std::vector<net::NodeId>> groups;

  std::size_t count() const { return groups.size(); }
};

/// Groups the boundary nodes. With `use_message_passing` the grouping runs
/// as the leader-flood protocol; otherwise as a component oracle. `proto`
/// selects fault injection / retransmission for the flood (message-passing
/// mode only); under loss a physically-connected boundary can split into
/// several reported groups — a graceful over-segmentation, never a merge.
BoundaryGroups group_boundaries(const net::Network& network,
                                const std::vector<bool>& boundary,
                                bool use_message_passing = true,
                                sim::RunStats* stats = nullptr,
                                const sim::ProtocolOptions& proto = {});

/// Graded per-boundary quality for observability. Each component is a
/// saturating x/(x+scale) map into [0, 1) so 0.5 sits exactly at the
/// corresponding decision threshold, matching the per-node confidence
/// convention (core::vote_confidence):
///
///   - `size_score`: group cardinality against θ — a surviving boundary
///     barely above the IFF fragment threshold scores near 0.5, a large
///     closed surface saturates toward 1.
///   - `mean_confidence`: mean UBF confidence of the members (0 when the
///     run produced no confidence — see vote_confidence gating).
///   - `flood_margin`: mean over members of count/(count+θ), the graded
///     form of the IFF verdict (0 when counts are unavailable).
///   - `score`: mean of the available components.
struct BoundaryQuality {
  net::NodeId leader = net::kInvalidNode;
  std::size_t size = 0;
  double size_score = 0.0;
  double mean_confidence = 0.0;
  double flood_margin = 0.0;
  double score = 0.0;
};

/// Scores every group. `confidence` (per-node, from the UBF stage) and
/// `flood_counts` (per-node, from iff_filter's `counts_out`) may be empty
/// when the run did not produce them; their components then drop out of
/// `score`. Pure function of its inputs — no messaging, no obs calls.
std::vector<BoundaryQuality> score_boundaries(
    const BoundaryGroups& groups, std::uint32_t theta,
    const std::vector<float>& confidence = {},
    const std::vector<std::uint32_t>& flood_counts = {});

}  // namespace ballfit::core
