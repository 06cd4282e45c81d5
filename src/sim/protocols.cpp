#include "sim/protocols.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <string_view>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"

namespace ballfit::sim {

using net::NodeId;

namespace {

/// One protocol's channel: the fault model (nullptr = reliable) and the
/// FNV-1a hash of the protocol's name, which keys the model's draws and
/// names the protocol's `sim.*` counters.
class Channel {
 public:
  Channel(const FaultModel* faults, std::string_view protocol)
      : faults_(faults), protocol_(protocol) {
    for (const char c : protocol) {
      key_ ^= static_cast<unsigned char>(c);
      key_ *= 0x100000001b3ull;
    }
  }

  /// How many times one transmission over from→to is delivered in
  /// `round`: always once on a reliable network; otherwise the model's
  /// draw for the identity `transmission()` names, tallied in `stats`.
  template <typename Identity>
  unsigned deliver(std::size_t round, NodeId from, NodeId to,
                   Identity&& transmission, RunStats& stats) const {
    if (faults_ == nullptr) return 1;
    const unsigned copies =
        faults_->deliveries(key_, round, from, to, transmission());
    if (copies == 0) ++stats.dropped;
    if (copies > 1) ++stats.duplicated;
    return copies;
  }

  /// Adds `runs` runs' pooled cost to the protocol's counters, each run
  /// over `active_nodes` nodes.
  void record(const RunStats& cost, std::size_t runs,
              std::size_t active_nodes) const {
    if (!obs::enabled()) return;
    const std::string prefix = "sim." + std::string(protocol_);
    obs::Registry& reg = obs::Registry::global();
    reg.counter(prefix + ".messages").add(cost.messages);
    reg.counter(prefix + ".rounds").add(cost.rounds);
    reg.counter(prefix + ".active_nodes").add(runs * active_nodes);
    reg.counter(prefix + ".runs").add(runs);
    if (faults_ != nullptr) {
      reg.counter(prefix + ".dropped").add(cost.dropped);
      reg.counter(prefix + ".duplicated").add(cost.duplicated);
    }
  }

 private:
  const FaultModel* faults_;
  std::string_view protocol_;
  std::uint64_t key_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

/// Effective retransmission count (the knob is >= 1 by contract).
std::uint32_t repeat_of(const ProtocolOptions& opts) {
  return std::max<std::uint32_t>(1, opts.repeat);
}

std::vector<NodeId> active_nodes(const net::NodeMask& active) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < active.size(); ++v) {
    if (active[v]) out.push_back(v);
  }
  return out;
}

/// One source's flood in a TTL-bounded protocol, as a lossy bounded
/// search. The source broadcasts in round 0; a node that first hears the
/// packet in round R, with R < `ttl`, relays it in round R, `repeat`
/// copies; each copy reaches every active neighbor in round R + 1 with TTL
/// `ttl` − R − 1 left, or not, as the channel decides. Epoch-stamped, so a
/// reused object costs what the flood reaches.
class SourceFlood {
 public:
  /// Floods `source`'s packet over `active`. With `source_heard` the
  /// source starts out having heard it; otherwise it hears it like any
  /// other node, when an echo comes back, and relays it then.
  /// `transmission(ttl_left, copy)` names a copy for the channel. Adds the
  /// flood's messages, drops and duplicates to `cost` and raises
  /// `cost.rounds` to the flood's last round.
  template <typename Identity>
  void run(const net::Network& net, const net::NodeMask& active,
           NodeId source, std::uint32_t ttl, std::uint32_t repeat,
           bool source_heard, const Channel& channel, Identity&& transmission,
           RunStats& cost) {
    if (stamp_.size() != net.num_nodes()) {
      stamp_.assign(net.num_nodes(), 0);
      epoch_ = 0;
    }
    if (++epoch_ == 0) {  // wrapped: no stale stamp may match
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    heard_.clear();
    if (source_heard) hear(source);
    relays_.assign(1, source);
    for (std::size_t round = 1; round <= ttl && !relays_.empty(); ++round) {
      const auto left = static_cast<std::uint32_t>(ttl - round);
      next_.clear();
      for (const NodeId w : relays_) {
        cost.messages += repeat;
        bool reaches = false;
        for (const NodeId x : net.neighbors(w)) {
          if (!active[x]) continue;
          reaches = true;
          for (std::uint32_t copy = 0; copy < repeat; ++copy) {
            const unsigned copies = channel.deliver(
                round, w, x, [&] { return transmission(left, copy); }, cost);
            if (copies > 0 && stamp_[x] != epoch_) {
              hear(x);
              next_.push_back(x);
            }
          }
        }
        if (reaches) cost.rounds = std::max(cost.rounds, round);
      }
      relays_.swap(next_);
    }
  }

  /// Nodes that heard the last run's packet, in the order they first did.
  const std::vector<NodeId>& heard() const { return heard_; }

 private:
  void hear(NodeId v) {
    stamp_[v] = epoch_;
    heard_.push_back(v);
  }

  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> heard_;
  std::vector<NodeId> relays_;  ///< this round's relays
  std::vector<NodeId> next_;    ///< next round's
};

/// One flood object per worker thread, reused across calls.
SourceFlood& local_flood() {
  static thread_local SourceFlood flood;
  return flood;
}

/// One BoundedBfs per worker thread, reused across calls.
net::BoundedBfs& local_bfs() {
  static thread_local net::BoundedBfs bfs;
  return bfs;
}

/// Pools per-source costs: sums, with the rounds of the longest flood.
RunStats pool(const std::vector<RunStats>& costs) {
  RunStats total;
  for (const RunStats& c : costs) {
    total.messages += c.messages;
    total.dropped += c.dropped;
    total.duplicated += c.duplicated;
    total.rounds = std::max(total.rounds, c.rounds);
  }
  return total;
}

}  // namespace

std::vector<std::uint32_t> ttl_flood_count(const net::Network& net,
                                           const net::NodeMask& active,
                                           std::uint32_t ttl, RunStats* stats,
                                           const ProtocolOptions& opts,
                                           unsigned threads) {
  const std::size_t n = net.num_nodes();
  BALLFIT_REQUIRE(active.size() == n, "mask size mismatch");

  std::vector<std::uint32_t> counts(n, 0);
  const std::vector<NodeId> origins = active_nodes(active);
  if (origins.empty()) {
    if (stats != nullptr) *stats = RunStats{};
    return counts;
  }

  const std::uint32_t repeat = repeat_of(opts);
  const Channel channel(opts.faults, "ttl_flood");
  std::vector<RunStats> costs(origins.size());
  // Under loss a flood reaching u says nothing about u's flood reaching
  // back, so each origin adds itself to the count of every node it reached.
  parallel_for(
      origins.size(),
      [&](std::size_t i) {
        const NodeId origin = origins[i];
        SourceFlood& flood = local_flood();
        flood.run(
            net, active, origin, ttl, repeat, /*source_heard=*/true, channel,
            [origin](std::uint32_t left, std::uint32_t copy) {
              return mix_hash(std::uint64_t{origin} << 32 | left, copy);
            },
            costs[i]);
        for (const NodeId v : flood.heard())
          std::atomic_ref<std::uint32_t>(counts[v]).fetch_add(
              1, std::memory_order_relaxed);
      },
      threads);

  const RunStats total = pool(costs);
  channel.record(total, 1, origins.size());
  if (stats != nullptr) *stats = total;
  return counts;
}

std::vector<std::uint32_t> ttl_flood_count_oracle(const net::Network& net,
                                                  const net::NodeMask& active,
                                                  std::uint32_t ttl,
                                                  unsigned threads) {
  BALLFIT_REQUIRE(active.size() == net.num_nodes(), "mask size mismatch");
  std::vector<std::uint32_t> counts(net.num_nodes(), 0);
  const std::vector<NodeId> origins = active_nodes(active);
  const auto visible = [&active](NodeId v) { return bool(active[v]); };
  parallel_for(
      origins.size(),
      [&](std::size_t i) {
        net::BoundedBfs& bfs = local_bfs();
        bfs.run(net, origins[i], ttl, visible);
        counts[origins[i]] = static_cast<std::uint32_t>(bfs.visited().size());
      },
      threads);
  return counts;
}

std::vector<NodeId> leader_flood(const net::Network& net,
                                 const net::NodeMask& active, RunStats* stats,
                                 const ProtocolOptions& opts) {
  const std::size_t n = net.num_nodes();
  BALLFIT_REQUIRE(active.size() == n, "mask size mismatch");

  std::vector<NodeId> leader(n, net::kInvalidNode);
  // The flood runs on the subgraph induced by `active`, its nodes numbered
  // in increasing id (node i is `ids[i]`), so a smaller number is a smaller
  // id and every per-round array is sized by the active nodes only.
  const std::vector<NodeId> ids = active_nodes(active);
  const std::size_t m = ids.size();
  if (m == 0) {
    if (stats != nullptr) *stats = RunStats{};
    return leader;
  }
  std::vector<std::uint32_t> number(n, 0);
  for (std::uint32_t i = 0; i < m; ++i) number[ids[i]] = i;
  std::vector<std::size_t> first_nbr(m + 1, 0);
  std::vector<std::uint32_t> nbrs;  // ascending within each node's row
  for (std::uint32_t i = 0; i < m; ++i) {
    for (const NodeId w : net.neighbors(ids[i])) {
      if (active[w]) nbrs.push_back(number[w]);
    }
    first_nbr[i + 1] = nbrs.size();
  }

  // One round's broadcasts: the senders, and the candidates each sent,
  // grouped by sender in the order sent (the s-th sender's are
  // candidates[offsets[s] .. offsets[s + 1])).
  struct Mail {
    std::vector<std::uint32_t> senders;
    std::vector<std::size_t> offsets{0};
    std::vector<std::uint32_t> candidates;
  };
  Mail sent;  // delivered this round
  Mail next;  // sent this round, delivered in the next
  std::vector<std::uint32_t> best(m);  // each node's leader so far
  for (std::uint32_t i = 0; i < m; ++i) {
    best[i] = i;
    sent.senders.push_back(i);
    sent.candidates.push_back(i);
    sent.offsets.push_back(i + 1);
  }

  const std::uint32_t repeat = repeat_of(opts);
  const Channel channel(opts.faults, "leader_flood");
  RunStats cost;
  cost.messages = std::size_t{repeat} * m;
  // Per node, 1 + its index among the senders of the round being
  // delivered (`slot`) or being sent (`next_slot`); 0 when it sent nothing.
  std::vector<std::uint32_t> slot(m), next_slot(m, 0);
  for (std::uint32_t i = 0; i < m; ++i) slot[i] = i + 1;
  std::vector<std::size_t> listed(m, 0);  // round a receiver was listed in
  std::vector<std::uint32_t> receivers;

  while (!sent.senders.empty()) {
    const std::size_t round = cost.rounds + 1;
    receivers.clear();
    for (const std::uint32_t w : sent.senders) {
      for (std::size_t e = first_nbr[w]; e < first_nbr[w + 1]; ++e) {
        const std::uint32_t u = nbrs[e];
        if (listed[u] != round) {
          listed[u] = round;
          receivers.push_back(u);
        }
      }
    }
    if (receivers.empty()) break;  // nobody in range: no round runs
    cost.rounds = round;

    // Receiver u reads its mail in the order its FIFO inbox filled during
    // the previous round's ascending drain: by sender id, then as sent.
    // Each improvement is re-broadcast at once; a duplicate or a candidate
    // no smaller than the current leader changes nothing. A receiver reads
    // and writes only its own state and mail, so receivers may run in any
    // order.
    for (const std::uint32_t u : receivers) {
      const std::size_t before = next.candidates.size();
      for (std::size_t e = first_nbr[u]; e < first_nbr[u + 1]; ++e) {
        const std::uint32_t w = nbrs[e];
        const std::uint32_t s = slot[w];
        if (s == 0) continue;
        for (std::size_t c = sent.offsets[s - 1]; c < sent.offsets[s]; ++c) {
          const std::uint32_t candidate = sent.candidates[c];
          for (std::uint32_t copy = 0; copy < repeat; ++copy) {
            const unsigned copies = channel.deliver(
                round, ids[w], ids[u],
                [&] { return std::uint64_t{ids[candidate]} << 32 | copy; },
                cost);
            if (copies > 0 && candidate < best[u]) {
              best[u] = candidate;
              next.candidates.push_back(candidate);
            }
          }
        }
      }
      if (next.candidates.size() > before) {
        next.senders.push_back(u);
        next.offsets.push_back(next.candidates.size());
        next_slot[u] = static_cast<std::uint32_t>(next.senders.size());
      }
    }
    cost.messages += std::size_t{repeat} * next.candidates.size();

    for (const std::uint32_t w : sent.senders) slot[w] = 0;
    std::swap(sent, next);
    std::swap(slot, next_slot);
    next.senders.clear();
    next.offsets.assign(1, 0);
    next.candidates.clear();
  }

  for (std::uint32_t i = 0; i < m; ++i) leader[ids[i]] = ids[best[i]];
  channel.record(cost, 1, m);
  if (stats != nullptr) *stats = cost;
  return leader;
}

std::vector<NodeId> leader_flood_oracle(const net::Network& net,
                                        const net::NodeMask& active) {
  const std::size_t n = net.num_nodes();
  BALLFIT_REQUIRE(active.size() == n, "mask size mismatch");
  const net::Components comps = net::connected_components(net, &active);
  std::vector<NodeId> min_id(comps.count(), net::kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if (!active[v]) continue;
    auto& slot = min_id[comps.component[v]];
    slot = std::min(slot, v);
  }
  std::vector<NodeId> leader(n, net::kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if (active[v]) leader[v] = min_id[comps.component[v]];
  }
  return leader;
}

std::vector<NodeId> khop_landmark_election(const net::Network& net,
                                           const net::NodeMask& active,
                                           std::uint32_t k, RunStats* stats,
                                           const ProtocolOptions& opts,
                                           unsigned threads) {
  const std::size_t n = net.num_nodes();
  BALLFIT_REQUIRE(active.size() == n, "mask size mismatch");
  BALLFIT_REQUIRE(k >= 1, "landmark spacing k must be >= 1");

  enum class Status : std::uint8_t { kUndecided, kLandmark, kCovered };
  enum Kind : std::uint64_t { kBid = 0, kCover = 1 };
  std::vector<Status> status(n, Status::kCovered);  // inactive: never bids
  std::vector<NodeId> undecided = active_nodes(active);
  for (const NodeId v : undecided) status[v] = Status::kUndecided;
  const std::size_t num_active = undecided.size();

  const std::uint32_t repeat = repeat_of(opts);
  const Channel channel(opts.faults, "landmark_election");
  // Per node, 1 + the last iteration in which a smaller bid reached it.
  std::vector<std::uint32_t> outbid(n, 0);
  RunStats total;
  std::size_t runs = 0;
  std::vector<NodeId> landmarks;
  std::vector<NodeId> winners;
  std::vector<RunStats> costs;

  // Each iteration elects the undecided nodes that hear no smaller bid and
  // suppresses what their covers reach. The smallest undecided id hears no
  // smaller bid, lost bids or not, so it wins every iteration and the loop
  // terminates. Within a phase the sources' floods are independent (see
  // the file comment), so each runs on its own index with its own cost
  // slot; the only shared writes are idempotent: every bid that outbids u
  // stores the same iteration, and a cover only ever moves u from
  // undecided to covered.
  for (std::uint32_t iteration = 0; !undecided.empty(); ++iteration) {
    const auto transmission = [iteration](Kind kind, NodeId id) {
      return [=](std::uint32_t left, std::uint32_t copy) {
        return mix_hash(mix_hash(std::uint64_t{id} << 32 | left,
                                 std::uint64_t{iteration} << 32 | copy),
                        kind);
      };
    };
    costs.assign(undecided.size(), RunStats{});
    parallel_for(
        undecided.size(),
        [&](std::size_t i) {
          const NodeId v = undecided[i];
          SourceFlood& flood = local_flood();
          flood.run(net, active, v, k, repeat, /*source_heard=*/true, channel,
                    transmission(kBid, v), costs[i]);
          for (const NodeId u : flood.heard()) {
            if (u > v)
              std::atomic_ref<std::uint32_t>(outbid[u]).store(
                  iteration + 1, std::memory_order_relaxed);
          }
        },
        threads);
    const RunStats bids = pool(costs);
    winners.clear();
    for (const NodeId v : undecided) {
      if (outbid[v] == iteration + 1) continue;
      status[v] = Status::kLandmark;
      winners.push_back(v);
    }
    BALLFIT_ASSERT_MSG(!winners.empty(), "landmark election made no progress");

    costs.assign(winners.size(), RunStats{});
    parallel_for(
        winners.size(),
        [&](std::size_t i) {
          const NodeId w = winners[i];
          SourceFlood& flood = local_flood();
          flood.run(net, active, w, k, repeat, /*source_heard=*/false,
                    channel, transmission(kCover, w), costs[i]);
          for (const NodeId u : flood.heard()) {
            Status expected = Status::kUndecided;
            std::atomic_ref<Status>(status[u]).compare_exchange_strong(
                expected, Status::kCovered, std::memory_order_relaxed);
          }
        },
        threads);
    const RunStats covers = pool(costs);

    total += bids;
    total += covers;
    runs += 2;
    landmarks.insert(landmarks.end(), winners.begin(), winners.end());
    std::erase_if(undecided,
                  [&](NodeId v) { return status[v] != Status::kUndecided; });
  }

  if (runs > 0) channel.record(total, runs, num_active);
  if (stats != nullptr) *stats = total;
  std::sort(landmarks.begin(), landmarks.end());
  return landmarks;
}

}  // namespace ballfit::sim
