#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/assert.hpp"

namespace ballfit::sim {

namespace {

/// Validates a probability-typed config field (NaN fails both bounds).
void require_probability(double p, const char* what) {
  BALLFIT_REQUIRE(p >= 0.0 && p <= 1.0, std::string("FaultConfig: ") + what +
                                            " must be a probability in [0,1]");
}

/// A uniform draw in [0, 1) from the top 53 bits of a hash.
double unit(std::uint64_t h) { return double(h >> 11) * 0x1.0p-53; }

/// Salts that keep the hashes of one seed apart: the crash schedule's
/// per-node base, and the two draws taken from each node's or each
/// transmission's hash.
constexpr std::uint64_t kCrashSalt = 0xc4a54ull;
constexpr std::uint64_t kFirstDraw = 1;
constexpr std::uint64_t kSecondDraw = 2;

}  // namespace

void validate(const FaultConfig& config, std::size_t num_nodes) {
  require_probability(config.drop_probability, "drop_probability");
  require_probability(config.link_loss_max, "link_loss_max");
  require_probability(config.duplicate_probability, "duplicate_probability");
  require_probability(config.crash_fraction, "crash_fraction");
  require_probability(config.crash_probability, "crash_probability");
  for (const auto& [v, r] : config.crash_at_round) {
    BALLFIT_REQUIRE(v < num_nodes, "FaultConfig: crash_at_round node id out "
                                   "of range");
  }
}

std::vector<std::size_t> death_rounds(const FaultConfig& config,
                                      std::size_t num_nodes) {
  validate(config, num_nodes);
  std::vector<std::size_t> death(num_nodes, kNeverDies);
  for (const auto& [v, r] : config.crash_at_round)
    death[v] = std::min(death[v], r);
  const double p = config.crash_probability;
  if (config.crash_fraction <= 0.0 && p <= 0.0) return death;

  // The per-round roll is geometric: P(alive after round t) = (1 − p)^t,
  // so the first fatal round is 1 + ⌊ln u / ln(1 − p)⌋ for u in (0, 1].
  const double log_survive = std::log1p(-p);
  const std::uint64_t base = mix_hash(config.seed, kCrashSalt);
  for (net::NodeId v = 0; v < num_nodes; ++v) {
    const std::uint64_t h = mix_hash(base, v);
    if (unit(mix_hash(h, kFirstDraw)) < config.crash_fraction) {
      death[v] = 0;
      continue;
    }
    if (p <= 0.0) continue;
    std::size_t round = 1;
    if (p < 1.0) {
      const double u = 1.0 - unit(mix_hash(h, kSecondDraw));  // (0, 1]
      const double t = std::floor(std::log(u) / log_survive);
      // Far beyond any clock a caller can reach: never.
      if (!(t < 1e18)) continue;
      round += static_cast<std::size_t>(t);
    }
    death[v] = std::min(death[v], round);
  }
  return death;
}

FaultModel::FaultModel(const FaultConfig& config)
    : drop_probability_(config.drop_probability),
      link_loss_max_(config.link_loss_max),
      duplicate_probability_(config.duplicate_probability),
      seed_(config.seed) {
  require_probability(drop_probability_, "drop_probability");
  require_probability(link_loss_max_, "link_loss_max");
  require_probability(duplicate_probability_, "duplicate_probability");
}

double FaultModel::link_loss(net::NodeId from, net::NodeId to) const {
  if (link_loss_max_ <= 0.0) return 0.0;
  // Stateless per-directed-link draw: hash (seed, from, to) through
  // splitmix64. The asymmetry is deliberate — (from,to) and (to,from) mix
  // differently.
  std::uint64_t s =
      seed_ ^ (0x9e3779b97f4a7c15ULL + (std::uint64_t(from) << 32 | to));
  return unit(splitmix64(s)) * link_loss_max_;
}

unsigned FaultModel::deliveries(std::uint64_t protocol, std::size_t round,
                                net::NodeId from, net::NodeId to,
                                std::uint64_t transmission) const {
  std::uint64_t h = mix_hash(seed_, protocol);
  h = mix_hash(h, round);
  h = mix_hash(h, std::uint64_t(from) << 32 | to);
  h = mix_hash(h, transmission);
  // Independent loss processes compose: survive both the ambient and the
  // link-specific roll.
  double p = drop_probability_;
  const double l = link_loss(from, to);
  if (l > 0.0) p = 1.0 - (1.0 - p) * (1.0 - l);
  if (p > 0.0 && unit(mix_hash(h, kFirstDraw)) < p) return 0;
  if (duplicate_probability_ > 0.0 &&
      unit(mix_hash(h, kSecondDraw)) < duplicate_probability_)
    return 2;
  return 1;
}

}  // namespace ballfit::sim
