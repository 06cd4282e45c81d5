#include "core/iff.hpp"

#include "common/assert.hpp"
#include "sim/protocols.hpp"

namespace ballfit::core {

std::vector<bool> iff_filter(const net::Network& network,
                             const std::vector<bool>& candidates,
                             const IffConfig& config, sim::RunStats* stats,
                             const sim::ProtocolOptions& proto,
                             std::vector<std::uint32_t>* counts_out,
                             unsigned threads) {
  BALLFIT_REQUIRE(candidates.size() == network.num_nodes(),
                  "candidate mask size mismatch");

  std::vector<std::uint32_t> counts =
      config.use_message_passing
          ? sim::ttl_flood_count(network, candidates, config.ttl, stats,
                                 proto, threads)
          : sim::ttl_flood_count_oracle(network, candidates, config.ttl,
                                        threads);

  std::vector<bool> boundary(network.num_nodes(), false);
  for (net::NodeId v = 0; v < network.num_nodes(); ++v) {
    boundary[v] = candidates[v] && counts[v] >= config.theta;
  }
  if (counts_out != nullptr) *counts_out = std::move(counts);
  return boundary;
}

}  // namespace ballfit::core
