#pragma once

/// \file centralized_ball.hpp
/// Centralized reference detector: the unit-ball emptiness test evaluated
/// with *global* knowledge — true coordinates for every node and emptiness
/// checked against the entire network (grid-accelerated), not just the
/// one-hop view. This is the idealized computation UBF approximates
/// locally; the gap between the two quantifies the cost of locality
/// (cf. Fig. 4's missed-node discussion).

#include <vector>

#include "core/ubf.hpp"
#include "net/network.hpp"

namespace ballfit::baselines {

/// Runs the global empty-unit-ball test for every node. `config` reuses the
/// UBF radius r = (1+ε)·radio_range and its strict-inside slack
/// `core::kInsideTolerance`.
std::vector<bool> centralized_ball_detect(const net::Network& network,
                                          const core::UbfConfig& config = {});

}  // namespace ballfit::baselines
