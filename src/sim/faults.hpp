#pragma once

/// \file faults.hpp
/// Deterministic fault injection: a stateless lossy channel for the
/// flooding protocols, and a crash schedule for the detection session's
/// alive mask.
///
/// The paper's protocols assume the LOCAL model with reliable local
/// broadcast; real 3D sensor deployments lose packets and nodes. Two pieces
/// make that gap testable, both pure functions of a `FaultConfig`:
///
///   - **The channel** (`FaultModel`): per-message loss
///     (`drop_probability`), per-directed-link asymmetric loss (each link
///     u→v carries a fixed extra loss rate in [0, link_loss_max]; u→v and
///     v→u draw independently, the common radio pathology) and duplication
///     (`duplicate_probability`; handlers must be idempotent). Each
///     transmission's fate is a splitmix64 hash of (seed, protocol,
///     protocol-local round, from, to, transmission identity), where the
///     protocol names the identity: the payload plus the copy index (plus
///     the iteration in the landmark election). So two different messages
///     on one link in one round draw independently, and no decision depends
///     on what else ran before it or on the order a protocol decides its
///     deliveries in.
///   - **Crashes** (`death_rounds`): `crash_fraction` (down from the
///     start), `crash_at_round` (scheduled deaths) and `crash_probability`
///     (each live node dies per round) collapse into one death round per
///     node, a pure function of (seed, node). `DetectionSession` folds the
///     nodes whose death round has passed into its alive mask on `run` and
///     on `advance_faults`, which moves its fault clock. Crashes are
///     permanent and act only through that mask: a crashed node is simply
///     inactive in every flood.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"

namespace ballfit::sim {

struct FaultConfig {
  /// Independent loss probability applied to every delivery, in [0, 1]
  /// (default 0 = reliable).
  double drop_probability = 0.0;
  /// Upper bound of the per-directed-link extra loss probability, in
  /// [0, 1] (default 0); each link's value is fixed (hashed from the
  /// seed) for the whole run.
  double link_loss_max = 0.0;
  /// Probability that a delivered message is delivered a second time, in
  /// [0, 1] (default 0). Handlers must be idempotent when > 0.
  double duplicate_probability = 0.0;
  /// Fraction of nodes crashed before round 0, in [0, 1] (default 0;
  /// drawn per node).
  double crash_fraction = 0.0;
  /// Per-node, per-round crash probability for nodes still alive, in
  /// [0, 1] (default 0).
  double crash_probability = 0.0;
  /// Scheduled crashes: (node, round) — the node is down from that round
  /// of the session's fault clock on. Order and repeats do not matter: a
  /// node dies at the earliest round listed for it.
  std::vector<std::pair<net::NodeId, std::size_t>> crash_at_round;
  /// Seed for every stochastic decision above.
  std::uint64_t seed = 1;

  /// True when any mechanism can actually fire. A default-constructed
  /// config is a no-op model (useful to prove the hook itself is neutral).
  bool any() const {
    return drop_probability > 0.0 || link_loss_max > 0.0 ||
           duplicate_probability > 0.0 || crash_fraction > 0.0 ||
           crash_probability > 0.0 || !crash_at_round.empty();
  }

  bool operator==(const FaultConfig&) const = default;
};

/// Throws `InvalidArgument` unless every probability of `config` lies in
/// [0, 1] (NaN included) and every `crash_at_round` id is below
/// `num_nodes`.
void validate(const FaultConfig& config, std::size_t num_nodes);

/// Death round of a node that never crashes.
inline constexpr std::size_t kNeverDies =
    std::numeric_limits<std::size_t>::max();

/// The crash schedule of `config` over `num_nodes` nodes: node v is down
/// at fault clock t iff `death_rounds(...)[v] <= t` (0 = down from the
/// start, `kNeverDies` = never). Node v's entry is the earliest of its
/// `crash_fraction` draw (round 0), its `crash_at_round` entries, and a
/// geometric draw with per-round probability `crash_probability`
/// (rounds >= 1). Each draw is a hash of (seed, v), so the schedule is the
/// same whatever the clock or call order. Validates `config` first.
std::vector<std::size_t> death_rounds(const FaultConfig& config,
                                      std::size_t num_nodes);

/// A faulted pipeline run's effects: what the flood stages' channels did
/// (summed from their `RunStats`) and how many nodes the crash schedule
/// holds down.
struct FaultStats {
  std::size_t dropped = 0;     ///< deliveries that never happened
  std::size_t duplicated = 0;  ///< extra deliveries injected
  std::size_t crashed = 0;     ///< fault-schedule casualties down now
};

/// The lossy channel: a const, stateless function from one transmission
/// to its number of deliveries. It holds only the channel's three
/// probabilities and the seed — no generator, clock, counters or per-node
/// state — so one model can serve any number of protocol runs, in any
/// order, on any thread, and every run sees the same fates. The crash
/// fields of the config it is built from play no part here (see
/// `death_rounds`).
class FaultModel {
 public:
  /// Throws `InvalidArgument` unless the channel probabilities lie in
  /// [0, 1].
  explicit FaultModel(const FaultConfig& config);

  /// How many times one transmission over from→to is delivered: 0 (lost),
  /// 1, or 2 (duplicated). `protocol` keys the protocol, `round` is the
  /// protocol-local round being delivered and `transmission` the identity
  /// the protocol gave the message.
  unsigned deliveries(std::uint64_t protocol, std::size_t round,
                      net::NodeId from, net::NodeId to,
                      std::uint64_t transmission) const;

  /// The fixed extra loss probability of the directed link from→to.
  double link_loss(net::NodeId from, net::NodeId to) const;

 private:
  double drop_probability_;
  double link_loss_max_;
  double duplicate_probability_;
  std::uint64_t seed_;
};

/// Folds `word` into the running hash `h` (one splitmix64 step). Protocols
/// build transmission identities with it; the channel and the crash
/// schedule draw from it.
constexpr std::uint64_t mix_hash(std::uint64_t h, std::uint64_t word) {
  std::uint64_t state = h ^ word;
  return splitmix64(state);
}

}  // namespace ballfit::sim
