#pragma once

/// \file measurement.hpp
/// Ranging (distance measurement) with controlled error.
///
/// The paper (Sec. IV-A): "While our simulations do not involve physical
/// layer modeling, we introduce a wide range of random errors, from 0 to
/// 100% of the radio transmission radius, in the distance measurement."
///
/// `NoisyDistanceModel` reproduces that model: for each unordered node pair
/// the measured distance is
///     d̂_ij = max(0, d_ij + u · e · R),   u ~ Uniform(−1, 1)
/// where `e` is the error fraction and `R` the radio range. The perturbation
/// is symmetric (d̂_ij == d̂_ji) and deterministic given the seed: the draw is
/// keyed on (seed, min(i, j), max(i, j)) through a counter-mode hash, so it
/// is stable regardless of query order.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/network.hpp"

namespace ballfit::net {

class NoisyDistanceModel {
 public:
  /// `error_fraction` in [0, 1]: maximum error as a fraction of the range.
  /// Throws `InvalidArgument` when it is negative or not finite.
  NoisyDistanceModel(const Network& network, double error_fraction,
                     std::uint64_t seed);

  /// Measured distance between any two distinct nodes (callers are expected
  /// to only ask about pairs within measuring range — one-hop neighbors —
  /// but the model is defined for all pairs).
  double measured_distance(NodeId i, NodeId j) const;

  /// The underlying true distance (oracle, for evaluation only).
  double true_distance(NodeId i, NodeId j) const {
    return network_->true_distance(i, j);
  }

  double error_fraction() const { return error_fraction_; }
  const Network& network() const { return *network_; }

 private:
  const Network* network_;
  double error_fraction_;
  std::uint64_t seed_;
};

/// All measured edge distances of a network, materialized once.
///
/// `NoisyDistanceModel::measured_distance` is a pure function of
/// (seed, min(i,j), max(i,j)) — the determinism contract above — so the
/// measurement of every radio edge can be drawn once per run and shared by
/// every frame build. Without the cache, each frame re-hashes every edge it
/// touches: network-wide that is ~2·deg redundant model calls per edge
/// (each endpoint's one-hop frame, plus two-hop patches).
///
/// Layout mirrors the network's CSR adjacency: `row(i)[a]` is the measured
/// distance to `network.neighbors(i)[a]`. Symmetry of the model means both
/// directed copies of an edge hold bit-identical values.
class EdgeMeasurementCache {
 public:
  explicit EdgeMeasurementCache(const NoisyDistanceModel& model);

  const Network& network() const { return *network_; }

  /// Measured distances aligned index-for-index with
  /// `network().neighbors(i)`.
  const double* row(NodeId i) const { return meas_.data() + offsets_[i]; }

  /// Total directed-edge entries (2× the undirected edge count).
  std::size_t size() const { return meas_.size(); }

 private:
  const Network* network_;
  std::vector<std::size_t> offsets_;
  std::vector<double> meas_;
};

}  // namespace ballfit::net
