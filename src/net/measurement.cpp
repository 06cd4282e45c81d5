#include "net/measurement.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace ballfit::net {

NoisyDistanceModel::NoisyDistanceModel(const Network& network,
                                       double error_fraction,
                                       std::uint64_t seed)
    : network_(&network), error_fraction_(error_fraction), seed_(seed) {
  BALLFIT_REQUIRE(std::isfinite(error_fraction) && error_fraction >= 0.0,
                  "error fraction must be finite and non-negative");
}

double NoisyDistanceModel::measured_distance(NodeId i, NodeId j) const {
  BALLFIT_REQUIRE(i != j, "distance to self is not a measurement");
  const double truth = network_->true_distance(i, j);
  if (error_fraction_ == 0.0) return truth;

  const NodeId lo = std::min(i, j);
  const NodeId hi = std::max(i, j);
  // Counter-mode hash: three splitmix64 rounds over (seed, lo, hi) give an
  // i.i.d.-quality uniform draw per unordered pair.
  std::uint64_t s = seed_;
  (void)splitmix64(s);
  s ^= (static_cast<std::uint64_t>(lo) << 32) | hi;
  (void)splitmix64(s);
  const std::uint64_t bits = splitmix64(s);
  const double u = 2.0 * (double(bits >> 11) * 0x1.0p-53) - 1.0;  // [−1, 1)

  const double noise = u * error_fraction_ * network_->radio_range();
  return std::max(0.0, truth + noise);
}

EdgeMeasurementCache::EdgeMeasurementCache(const NoisyDistanceModel& model)
    : network_(&model.network()) {
  const std::size_t n = network_->num_nodes();
  offsets_.resize(n + 1);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    offsets_[i] = total;
    total += network_->neighbors(static_cast<NodeId>(i)).size();
  }
  offsets_[n] = total;
  meas_.resize(total);
  for (std::size_t i = 0; i < n; ++i) {
    const auto nbrs = network_->neighbors(static_cast<NodeId>(i));
    double* out = meas_.data() + offsets_[i];
    for (std::size_t a = 0; a < nbrs.size(); ++a)
      out[a] = model.measured_distance(static_cast<NodeId>(i), nbrs[a]);
  }
}

}  // namespace ballfit::net
