#pragma once

/// \file engine.hpp
/// Synchronous round-based message-passing engine.
///
/// The paper's algorithms are *distributed and localized*: every step is a
/// node exchanging packets with one-hop neighbors. `RoundEngine` makes that
/// constraint structural — a node can only send to its one-hop neighbors
/// (enforced at send time), and a message sent in round t is delivered in
/// round t+1. Algorithms implemented on the engine are therefore honest
/// distributed protocols; the library also ships direct "oracle"
/// implementations, and tests assert the two agree.
///
/// The engine is deliberately synchronous (LOCAL model): the paper assumes
/// reliable local broadcast and gives no asynchrony analysis, and round
/// counts map directly to its TTL arguments.
///
/// Reliability is an *option*, not an assumption: installing a `FaultModel`
/// (see sim/faults.hpp) makes the channel lossy. Each queued transmission
/// is then lost, delivered, or delivered twice, as a stateless function of
/// the transmission itself (protocol, round, link and the identity its
/// message names — see `Transmission`). The engine's hard contracts hold
/// either way, and crashes never reach it: a crashed node is an inactive
/// one, folded into the `active` mask by the caller.
///
/// A round costs what it delivers, not N: the engine keeps a mail list —
/// the receivers whose inbox went from empty to non-empty since the last
/// round — and two inbox arrays that swap roles every round and keep their
/// capacity. Each round sorts the mail list and drains those inboxes in
/// ascending receiver id, FIFO within an inbox: the order a dense scan over
/// every node would visit them in. The leader flood's message count
/// depends on that order (a node that hears a smaller id first forwards
/// less); the fault channel does not.

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "net/graph.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/faults.hpp"

namespace ballfit::sim {

/// Cumulative cost counters for a protocol run — the only record of what
/// the fault channel did to it.
struct RunStats {
  std::size_t rounds = 0;      ///< synchronous rounds executed
  std::size_t messages = 0;    ///< radio transmissions
  std::size_t dropped = 0;     ///< fault-injected losses (deliveries lost)
  std::size_t duplicated = 0;  ///< fault-injected duplicate deliveries

  /// Pools another run's counters (protocols composed of several engine
  /// runs — e.g. landmark election — accumulate through this).
  RunStats& operator+=(const RunStats& o) {
    rounds += o.rounds;
    messages += o.messages;
    dropped += o.dropped;
    duplicated += o.duplicated;
    return *this;
  }
};

/// A message that can cross a faulted channel names its transmission: the
/// payload plus the copy index, plus whatever else tells two transmissions
/// from one sender in one round apart (the landmark election adds its
/// iteration). The channel draws each delivery's fate from that identity.
template <typename M>
concept Transmission = requires(const M& m) {
  { m.transmission() } -> std::convertible_to<std::uint64_t>;
};

template <typename M>
class RoundEngine {
 public:
  /// `active`, when non-null, restricts the protocol to the induced
  /// subgraph: inactive nodes neither send, receive, nor forward. This is
  /// how "forwarded by other boundary nodes but not non-boundary nodes"
  /// (Sec. II-B) is expressed.
  ///
  /// `protocol`, when non-null, names the protocol for observability: on
  /// destruction the engine's cumulative cost flows into the global metrics
  /// registry as `sim.<protocol>.{messages,rounds,active_nodes,runs}`
  /// counters — plus `{dropped,duplicated}` when a fault model is
  /// installed (no-op while collection is disabled). The name also keys
  /// the fault channel's draws.
  explicit RoundEngine(const net::Network& net,
                       const net::NodeMask* active = nullptr,
                       const char* protocol = nullptr)
      : net_(&net), active_(active), protocol_(protocol),
        pending_(net.num_nodes()), delivering_(net.num_nodes()) {}

  /// As above, with the lossy channel `faults` (nullptr = reliable). The
  /// model outlives the engine; it is const, so any number of engines may
  /// share it.
  RoundEngine(const net::Network& net, const net::NodeMask* active,
              const char* protocol, const FaultModel* faults)
    requires Transmission<M>
      : RoundEngine(net, active, protocol) {
    faults_ = faults;
    // FNV-1a of the protocol name: the channel's per-protocol stream.
    for (const char* c = protocol; c != nullptr && *c != '\0'; ++c) {
      protocol_key_ ^= static_cast<unsigned char>(*c);
      protocol_key_ *= 0x100000001b3ull;
    }
  }

  ~RoundEngine() {
    if (protocol_ == nullptr || !obs::enabled()) return;
    const std::string prefix = std::string("sim.") + protocol_;
    obs::Registry& reg = obs::Registry::global();
    reg.counter(prefix + ".messages").add(stats_.messages);
    reg.counter(prefix + ".rounds").add(stats_.rounds);
    reg.counter(prefix + ".active_nodes").add(num_active());
    reg.counter(prefix + ".runs").add(1);
    if (faults_ != nullptr) {
      reg.counter(prefix + ".dropped").add(stats_.dropped);
      reg.counter(prefix + ".duplicated").add(stats_.duplicated);
    }
  }

  RoundEngine(const RoundEngine&) = delete;
  RoundEngine& operator=(const RoundEngine&) = delete;

  /// Active-node count (all nodes when no mask was given).
  std::size_t num_active() const {
    if (active_ == nullptr) return net_->num_nodes();
    std::size_t n = 0;
    for (net::NodeId v = 0; v < net_->num_nodes(); ++v) n += (*active_)[v];
    return n;
  }

  bool is_active(net::NodeId v) const {
    return active_ == nullptr || (*active_)[v];
  }

  /// Queues a unicast for delivery next round. `to` must be a one-hop
  /// neighbor of `from` (throws otherwise) and both endpoints must be
  /// active.
  void send(net::NodeId from, net::NodeId to, M msg) {
    BALLFIT_REQUIRE(net_->are_neighbors(from, to),
                    "RoundEngine: send target is not a one-hop neighbor");
    BALLFIT_ASSERT_MSG(is_active(from) && is_active(to),
                       "send between inactive nodes");
    enqueue(to, from, std::move(msg));
    ++stats_.messages;
  }

  /// Queues a local broadcast to every active neighbor (counted as one
  /// radio transmission, as broadcast is in wireless media). Takes the
  /// message by value: all but the last recipient copy it, the last one
  /// receives it by move.
  void broadcast(net::NodeId from, M msg) {
    BALLFIT_ASSERT_MSG(is_active(from), "broadcast from inactive node");
    const auto neighbors = net_->neighbors(from);
    net::NodeId last = net::kInvalidNode;
    for (net::NodeId v : neighbors) {
      if (is_active(v)) last = v;
    }
    for (net::NodeId v : neighbors) {
      if (!is_active(v)) continue;
      if (v == last) {
        enqueue(v, from, std::move(msg));
      } else {
        enqueue(v, from, msg);
      }
    }
    ++stats_.messages;
  }

  /// Runs synchronous rounds until quiescence (no messages in flight) or
  /// `max_rounds`. `handler(self, from, msg)` is invoked once per delivered
  /// message and may call send()/broadcast() — those land next round.
  /// With a fault model each queued message is lost or delivered, possibly
  /// twice (duplication re-invokes the handler with the same message
  /// object; handlers must be idempotent). Returns the collected
  /// statistics.
  template <typename Handler>
  RunStats run(Handler&& handler, std::size_t max_rounds) {
    for (std::size_t round = 0; round < max_rounds; ++round) {
      if (!messages_in_flight()) break;
      ++stats_.rounds;
      // This round's mail moves to `delivering_`; the handlers' sends fill
      // the (empty) other buffer and the mail list for the next round.
      pending_.swap(delivering_);
      receivers_.swap(mail_);
      std::sort(receivers_.begin(), receivers_.end());
      for (net::NodeId v : receivers_) {
        auto& inbox = delivering_[v];
        for (auto& [from, msg] : inbox) {
          const unsigned copies = deliveries(from, v, msg);
          if (copies == 0) ++stats_.dropped;
          if (copies > 0) handler(v, from, msg);
          if (copies > 1) {
            ++stats_.duplicated;
            handler(v, from, msg);
          }
        }
        inbox.clear();
      }
      receivers_.clear();
    }
    return stats_;
  }

  bool messages_in_flight() const { return !mail_.empty(); }

  const RunStats& stats() const { return stats_; }
  const net::Network& network() const { return *net_; }

 private:
  /// How many times the channel delivers `msg` over from→to this round.
  unsigned deliveries(net::NodeId from, net::NodeId to, const M& msg) const {
    if constexpr (Transmission<M>) {
      if (faults_ != nullptr)
        return faults_->deliveries(protocol_key_, stats_.rounds, from, to,
                                   msg.transmission());
    }
    return 1;
  }

  /// Appends to `to`'s next-round inbox, listing `to` as a receiver when
  /// the inbox was empty.
  template <typename Msg>
  void enqueue(net::NodeId to, net::NodeId from, Msg&& msg) {
    auto& inbox = pending_[to];
    if (inbox.empty()) mail_.push_back(to);
    inbox.emplace_back(from, std::forward<Msg>(msg));
  }

  const net::Network* net_;
  const net::NodeMask* active_;
  const char* protocol_;
  const FaultModel* faults_ = nullptr;
  std::uint64_t protocol_key_ = 0xcbf29ce484222325ull;  // FNV offset basis
  /// Inboxes by receiver: next round's mail and the round being drained.
  std::vector<std::vector<std::pair<net::NodeId, M>>> pending_;
  std::vector<std::vector<std::pair<net::NodeId, M>>> delivering_;
  std::vector<net::NodeId> mail_;       ///< non-empty `pending_` inboxes
  std::vector<net::NodeId> receivers_;  ///< this round's, sorted
  RunStats stats_;
};

}  // namespace ballfit::sim
