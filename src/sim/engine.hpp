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
/// (see sim/faults.hpp) turns the engine into a lossy network. The model is
/// consulted at the start of every round (crash clock) and per delivered
/// message (loss and duplication); sends to crashed, inactive, or
/// out-of-range targets become counted drops instead of assertion failures.
/// Without a model the original hard contracts hold unchanged.
///
/// A round costs what it delivers, not N: the engine keeps a mail list —
/// the receivers whose inbox went from empty to non-empty since the last
/// round — and two inbox arrays that swap roles every round and keep their
/// capacity. Each round sorts the mail list and drains those inboxes in
/// ascending receiver id, FIFO within an inbox: the order a dense scan over
/// every node would visit them in. That order is part of the contract,
/// because a `FaultModel` draws loss and duplication from one sequential
/// stream (see sim/faults.hpp).

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "net/graph.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/faults.hpp"

namespace ballfit::sim {

/// Cumulative cost counters for a protocol run.
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
  /// counters — plus `{dropped,duplicated,crashed_nodes}` when a fault
  /// model is installed (no-op while collection is disabled).
  ///
  /// `faults`, when non-null, injects message loss, duplication, and node
  /// crashes (see sim/faults.hpp). The model outlives the engine and may be
  /// shared across engines; its round clock keeps advancing.
  explicit RoundEngine(const net::Network& net,
                       const net::NodeMask* active = nullptr,
                       const char* protocol = nullptr,
                       FaultModel* faults = nullptr)
      : net_(&net), active_(active), protocol_(protocol), faults_(faults),
        pending_(net.num_nodes()), delivering_(net.num_nodes()) {
    BALLFIT_REQUIRE(faults == nullptr || faults->num_nodes() == net.num_nodes(),
                    "RoundEngine: fault model sized for a different network");
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
      reg.counter(prefix + ".crashed_nodes").add(faults_->num_down());
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

  /// True when `v` can currently participate: active and not crashed.
  bool is_alive(net::NodeId v) const {
    return is_active(v) && (faults_ == nullptr || !faults_->is_down(v));
  }

  /// Queues a unicast for delivery next round. `to` must be a one-hop
  /// neighbor of `from` and both endpoints must be active — violations
  /// throw without a fault model, and become counted drops with one (a
  /// dead or out-of-range receiver is a radio reality, not a bug).
  void send(net::NodeId from, net::NodeId to, M msg) {
    if (faults_ != nullptr) {
      if (faults_->is_down(from)) {  // dead sender: nothing transmits
        drop(1);
        return;
      }
      if (!net_->are_neighbors(from, to) || !is_active(from) ||
          !is_active(to) || faults_->is_down(to)) {
        ++stats_.messages;  // the radio transmits into the void
        drop(1);
        return;
      }
    } else {
      BALLFIT_REQUIRE(net_->are_neighbors(from, to),
                      "RoundEngine: send target is not a one-hop neighbor");
      BALLFIT_ASSERT_MSG(is_active(from) && is_active(to),
                         "send between inactive nodes");
    }
    enqueue(to, from, std::move(msg));
    ++stats_.messages;
  }

  /// Queues a local broadcast to every active neighbor (counted as one
  /// radio transmission, as broadcast is in wireless media). Takes the
  /// message by value: all but the last recipient copy it, the last one
  /// receives it by move.
  void broadcast(net::NodeId from, M msg) {
    if (faults_ != nullptr) {
      if (faults_->is_down(from) || !is_active(from)) {
        drop(1);  // dead or deactivated sender: the broadcast never airs
        return;
      }
    } else {
      BALLFIT_ASSERT_MSG(is_active(from), "broadcast from inactive node");
    }
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
  /// With a fault model, each round first advances the crash clock, then
  /// each queued message is dropped wholesale (crashed receiver), lost to
  /// the loss roll, or delivered — possibly twice (duplication re-invokes
  /// the handler with the same message object; handlers must be
  /// idempotent). Returns the collected statistics.
  template <typename Handler>
  RunStats run(Handler&& handler, std::size_t max_rounds) {
    for (std::size_t round = 0; round < max_rounds; ++round) {
      if (!messages_in_flight()) break;
      ++stats_.rounds;
      if (faults_ != nullptr) faults_->advance_round();
      // This round's mail moves to `delivering_`; the handlers' sends fill
      // the (empty) other buffer and the mail list for the next round.
      pending_.swap(delivering_);
      receivers_.swap(mail_);
      std::sort(receivers_.begin(), receivers_.end());
      for (net::NodeId v : receivers_) {
        auto& inbox = delivering_[v];
        if (faults_ != nullptr && faults_->is_down(v)) {
          drop(inbox.size());  // receiver died with mail queued
          inbox.clear();
          continue;
        }
        for (auto& [from, msg] : inbox) {
          if (faults_ == nullptr) {
            handler(v, from, msg);
            continue;
          }
          if (!faults_->deliver(from, v)) {
            ++stats_.dropped;  // model counted its side already
            continue;
          }
          handler(v, from, msg);
          if (faults_->duplicate()) {
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
  const FaultModel* faults() const { return faults_; }

 private:
  /// Counts a structural drop in both the engine's and the model's books.
  void drop(std::size_t n) {
    stats_.dropped += n;
    faults_->note_dropped(n);
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
  FaultModel* faults_;
  /// Inboxes by receiver: next round's mail and the round being drained.
  std::vector<std::vector<std::pair<net::NodeId, M>>> pending_;
  std::vector<std::vector<std::pair<net::NodeId, M>>> delivering_;
  std::vector<net::NodeId> mail_;       ///< non-empty `pending_` inboxes
  std::vector<net::NodeId> receivers_;  ///< this round's, sorted
  RunStats stats_;
};

}  // namespace ballfit::sim
