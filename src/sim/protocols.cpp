#include "sim/protocols.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/assert.hpp"
#include "common/parallel.hpp"

namespace ballfit::sim {

using net::NodeId;

namespace {

struct FloodMsg {
  NodeId origin;
  std::uint32_t ttl;
  std::uint32_t copy;  ///< retransmission index, in [0, repeat)

  std::uint64_t transmission() const {
    return mix_hash(std::uint64_t{origin} << 32 | ttl, copy);
  }
};

/// One copy of a leader-flood candidate.
struct Candidate {
  NodeId id;
  std::uint32_t copy;

  std::uint64_t transmission() const {
    return std::uint64_t{id} << 32 | copy;
  }
};

/// Effective retransmission count (the knob is >= 1 by contract).
std::uint32_t repeat_of(const ProtocolOptions& opts) {
  return std::max<std::uint32_t>(1, opts.repeat);
}

/// True when no node in `active` can participate — protocols return their
/// "knows nothing" result immediately instead of spinning up an engine and
/// running empty rounds.
bool none_active(const net::NodeMask& active) {
  return std::none_of(active.begin(), active.end(),
                      [](bool b) { return b; });
}

/// One BoundedBfs per worker thread, reused across calls: its stamp arrays
/// are sized once per network size.
net::BoundedBfs& local_bfs() {
  static thread_local net::BoundedBfs bfs;
  return bfs;
}

/// The TTL flood on a reliable network, computed without the engine. There
/// a packet from v reaches exactly the active nodes within `reach` =
/// min(ttl, cap) hops, first along a shortest path, and each node within
/// `relay` = min(ttl − 1, cap) hops re-broadcasts it `repeat` times (the
/// origin included, even when it has no active neighbor). Hop distance is
/// symmetric, so one bounded BFS from each active node u yields both u's
/// count (the size of its ball) and its share of the messages (the
/// origins within `relay` hops of it). The flood from u lasts
/// min(cap, ttl, 1 + deepest level reached) rounds, and none when u is
/// isolated; the engine's rounds are the longest flood.
std::vector<std::uint32_t> flood_count_bfs(const net::Network& net,
                                           const net::NodeMask& active,
                                           std::uint32_t ttl, std::size_t cap,
                                           std::size_t repeat,
                                           unsigned threads, RunStats* stats) {
  const std::size_t n = net.num_nodes();
  std::vector<std::uint32_t> counts(n, 0);
  std::vector<NodeId> origins;
  for (NodeId v = 0; v < n; ++v) {
    if (active[v]) origins.push_back(v);
  }
  const auto reach =
      static_cast<std::uint32_t>(std::min<std::size_t>(ttl, cap));
  // One past the deepest relaying hop: 0 when nobody relays (ttl 0).
  const std::size_t relay_end =
      ttl == 0 ? 0 : std::min<std::size_t>(ttl - 1, cap) + 1;

  std::vector<std::uint32_t> relays(origins.size(), 0);
  std::vector<std::uint32_t> rounds(origins.size(), 0);
  const auto visible = [&active](NodeId v) { return bool(active[v]); };
  parallel_for(
      origins.size(),
      [&](std::size_t i) {
        net::BoundedBfs& bfs = local_bfs();
        bfs.run(net, origins[i], reach, visible);
        const std::vector<NodeId>& ball = bfs.visited();
        counts[origins[i]] = static_cast<std::uint32_t>(ball.size());
        // Visiting order is by level, so the relays form a prefix.
        std::uint32_t r = 0;
        while (r < ball.size() && bfs.dist(ball[r]) < relay_end) ++r;
        relays[i] = r;
        const std::uint32_t depth = bfs.dist(ball.back());
        if (relay_end > 0 && depth > 0)
          rounds[i] = static_cast<std::uint32_t>(
              std::min<std::size_t>({cap, ttl, std::size_t{depth} + 1}));
      },
      threads == 0 ? default_threads() : threads);

  if (stats != nullptr) {
    *stats = RunStats{};
    for (std::size_t i = 0; i < origins.size(); ++i) {
      stats->messages += repeat * relays[i];
      stats->rounds = std::max<std::size_t>(stats->rounds, rounds[i]);
    }
  }
  return counts;
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
  if (none_active(active)) {
    if (stats != nullptr) *stats = RunStats{};
    return counts;
  }

  const std::uint32_t repeat = repeat_of(opts);
  const std::size_t cap =
      opts.max_rounds > 0 ? opts.max_rounds : std::size_t{ttl} + 1;
  if (opts.faults == nullptr) {
    RunStats rs;
    counts = flood_count_bfs(net, active, ttl, cap, repeat, threads, &rs);
    if (stats != nullptr) *stats = rs;
    if (obs::enabled()) {  // the counters the engine run would record
      obs::Registry& reg = obs::Registry::global();
      reg.counter("sim.ttl_flood.messages").add(rs.messages);
      reg.counter("sim.ttl_flood.rounds").add(rs.rounds);
      reg.counter("sim.ttl_flood.active_nodes")
          .add(static_cast<std::uint64_t>(
              std::count(active.begin(), active.end(), true)));
      reg.counter("sim.ttl_flood.runs").add(1);
    }
    return counts;
  }

  // Only active nodes send, receive or report, so `heard` holds one set
  // per active node, indexed by its rank among them.
  std::vector<std::uint32_t> rank(n, 0);
  std::size_t num_active = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (active[v]) rank[v] = static_cast<std::uint32_t>(num_active++);
  }
  std::vector<std::unordered_set<NodeId>> heard(num_active);
  RoundEngine<FloodMsg> engine(net, &active, "ttl_flood", opts.faults);

  for (NodeId v = 0; v < n; ++v) {
    if (!active[v]) continue;
    heard[rank[v]].insert(v);
    if (ttl > 0) {
      for (std::uint32_t r = 0; r < repeat; ++r)
        engine.broadcast(v, {v, ttl - 1, r});
    }
  }

  // Idempotent by construction: a duplicated or retransmitted packet whose
  // origin is already known falls through the insert and is not forwarded.
  const RunStats rs = engine.run(
      [&](NodeId self, NodeId /*from*/, const FloodMsg& msg) {
        if (heard[rank[self]].insert(msg.origin).second && msg.ttl > 0) {
          for (std::uint32_t r = 0; r < repeat; ++r)
            engine.broadcast(self, {msg.origin, msg.ttl - 1, r});
        }
      },
      cap);
  if (stats != nullptr) *stats = rs;

  for (NodeId v = 0; v < n; ++v) {
    if (active[v])
      counts[v] = static_cast<std::uint32_t>(heard[rank[v]].size());
  }
  return counts;
}

std::vector<std::uint32_t> ttl_flood_count_oracle(const net::Network& net,
                                                  const net::NodeMask& active,
                                                  std::uint32_t ttl,
                                                  unsigned threads) {
  BALLFIT_REQUIRE(active.size() == net.num_nodes(), "mask size mismatch");
  return flood_count_bfs(net, active, ttl, std::size_t{ttl} + 1, 1, threads,
                         nullptr);
}

std::vector<NodeId> leader_flood(const net::Network& net,
                                 const net::NodeMask& active, RunStats* stats,
                                 const ProtocolOptions& opts) {
  const std::size_t n = net.num_nodes();
  BALLFIT_REQUIRE(active.size() == n, "mask size mismatch");

  std::vector<NodeId> leader(n, net::kInvalidNode);
  if (none_active(active)) {
    if (stats != nullptr) *stats = RunStats{};
    return leader;
  }

  const std::uint32_t repeat = repeat_of(opts);
  RoundEngine<Candidate> engine(net, &active, "leader_flood", opts.faults);
  for (NodeId v = 0; v < n; ++v) {
    if (!active[v]) continue;
    leader[v] = v;
    for (std::uint32_t r = 0; r < repeat; ++r) engine.broadcast(v, {v, r});
  }
  // Idempotent: a candidate no smaller than the current leader (duplicate
  // or stale retransmission) is ignored and not re-flooded.
  const RunStats rs = engine.run(
      [&](NodeId self, NodeId /*from*/, Candidate candidate) {
        if (candidate.id < leader[self]) {
          leader[self] = candidate.id;
          for (std::uint32_t r = 0; r < repeat; ++r)
            engine.broadcast(self, {candidate.id, r});
        }
      },
      /*max_rounds=*/opts.max_rounds > 0 ? opts.max_rounds : n + 1);
  if (stats != nullptr) *stats = rs;
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

namespace {
enum class BidKind : std::uint8_t { kBid, kCover };
struct BidMsg {
  BidKind kind;
  NodeId id;
  std::uint32_t ttl;
  std::uint32_t copy;       ///< retransmission index, in [0, repeat)
  std::uint32_t iteration;  ///< election iteration (bids recur each one)

  std::uint64_t transmission() const {
    return mix_hash(
        mix_hash(std::uint64_t{id} << 32 | ttl,
                 std::uint64_t{iteration} << 32 | copy),
        static_cast<std::uint64_t>(kind));
  }
};
enum class Status : std::uint8_t { kUndecided, kLandmark, kCovered };

/// The election on a reliable network, computed without the engine. On a
/// reliable synchronous network every flood is a BFS: a bid or cover
/// packet from v reaches exactly the nodes within `reach` = min(k, rounds
/// cap) hops over `active`, arriving first along a shortest path, and the
/// nodes within `relay` = min(k − 1, cap) hops re-broadcast it once per
/// copy. So each iteration is one bounded BFS per undecided node (it wins
/// iff no smaller undecided id lies in its ball) plus one per winner
/// (cover). Rounds, messages and the engine's obs counters are derived
/// from the BFS depths and ball sizes and equal the engine's exactly.
std::vector<NodeId> election_fault_free(const net::Network& net,
                                        const net::NodeMask& active,
                                        std::uint32_t k, RunStats* stats,
                                        const ProtocolOptions& opts) {
  const std::size_t n = net.num_nodes();
  const std::size_t repeat = repeat_of(opts);
  const std::size_t cap =
      opts.max_rounds > 0 ? opts.max_rounds : std::size_t{k} + 1;
  const auto reach = static_cast<std::uint32_t>(std::min<std::size_t>(k, cap));
  const auto relay =
      static_cast<std::uint32_t>(std::min<std::size_t>(k - 1, cap));

  std::vector<Status> status(n, Status::kCovered);
  std::vector<NodeId> undecided;
  for (NodeId v = 0; v < n; ++v) {
    if (!active[v]) continue;
    status[v] = Status::kUndecided;
    undecided.push_back(v);
  }
  const std::size_t num_active = undecided.size();

  net::BoundedBfs bfs;
  const auto visible = [&active](NodeId v) { return bool(active[v]); };
  // One flood from the last BFS source: its transmissions (the source and
  // every relay, `repeat` copies each) and the round of its last broadcast.
  // The engine runs a round after each broadcast that reaches a neighbor,
  // so a flood that reaches anyone lasts `last broadcast round + 1`.
  struct Flood {
    std::size_t relays = 0;
    std::uint32_t depth = 0;
  };
  const auto measure = [&bfs, relay]() {
    Flood f;
    for (NodeId u : bfs.visited()) {
      const std::uint32_t d = bfs.dist(u);
      f.depth = std::max(f.depth, d);
      if (d <= relay) ++f.relays;
    }
    return f;
  };

  RunStats total;
  std::size_t engine_runs = 0;
  std::vector<NodeId> landmarks;
  std::vector<NodeId> winners;
  while (!undecided.empty()) {
    // --- Bid phase. The source ignores the echo of its own bid.
    RunStats bid;
    winners.clear();
    for (NodeId v : undecided) {
      bfs.run(net, v, reach, visible);
      bool wins = true;
      for (NodeId u : bfs.visited()) {
        if (u < v && status[u] == Status::kUndecided) {
          wins = false;
          break;
        }
      }
      const Flood f = measure();
      bid.messages += repeat * f.relays;
      if (f.depth > 0)
        bid.rounds = std::max<std::size_t>(bid.rounds,
                                           std::min(f.depth, k - 1) + 1);
      if (wins) winners.push_back(v);
    }
    bid.rounds = std::min(bid.rounds, cap);
    BALLFIT_ASSERT_MSG(!winners.empty(), "landmark election made no progress");
    for (NodeId w : winners) status[w] = Status::kLandmark;

    // --- Cover phase. The winner's cover state is not seeded, so its own
    // cover echoes back in round 2 with TTL k − 2 and, for k >= 3, is
    // re-broadcast once more (and delivered in round 3).
    RunStats cover;
    const bool echo = k >= 3 && cap >= 2;
    for (NodeId w : winners) {
      bfs.run(net, w, reach, visible);
      for (NodeId u : bfs.visited()) {
        if (status[u] == Status::kUndecided) status[u] = Status::kCovered;
      }
      const Flood f = measure();
      const bool echoes = echo && f.depth > 0;
      cover.messages += repeat * (f.relays + (echoes ? 1 : 0));
      if (f.depth > 0) {
        const std::uint32_t last =
            std::max(std::min(f.depth, k - 1), echoes ? 2u : 0u);
        cover.rounds = std::max<std::size_t>(cover.rounds, last + 1);
      }
    }
    cover.rounds = std::min(cover.rounds, cap);

    total += bid;
    total += cover;
    engine_runs += 2;
    landmarks.insert(landmarks.end(), winners.begin(), winners.end());
    std::erase_if(undecided,
                  [&](NodeId v) { return status[v] != Status::kUndecided; });
  }

  if (engine_runs > 0 && obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("sim.landmark_election.messages").add(total.messages);
    reg.counter("sim.landmark_election.rounds").add(total.rounds);
    reg.counter("sim.landmark_election.active_nodes")
        .add(engine_runs * num_active);
    reg.counter("sim.landmark_election.runs").add(engine_runs);
  }
  if (stats != nullptr) *stats = total;
  std::sort(landmarks.begin(), landmarks.end());
  return landmarks;
}

}  // namespace

std::vector<NodeId> khop_landmark_election(const net::Network& net,
                                           const net::NodeMask& active,
                                           std::uint32_t k, RunStats* stats,
                                           const ProtocolOptions& opts) {
  const std::size_t n = net.num_nodes();
  BALLFIT_REQUIRE(active.size() == n, "mask size mismatch");
  BALLFIT_REQUIRE(k >= 1, "landmark spacing k must be >= 1");
  if (opts.faults == nullptr)
    return election_fault_free(net, active, k, stats, opts);

  const std::uint32_t repeat = repeat_of(opts);
  const std::size_t cap =
      opts.max_rounds > 0 ? opts.max_rounds : std::size_t{k} + 1;
  std::vector<Status> status(n, Status::kUndecided);
  std::size_t undecided = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (active[v]) ++undecided;
    else status[v] = Status::kCovered;  // inactive: never participates
  }

  RunStats total;
  std::vector<NodeId> landmarks;

  // Each iteration elects the locally-minimal undecided ids in parallel and
  // suppresses their k-hop neighborhoods. Bids come from undecided nodes
  // only, so the smallest undecided id hears nothing smaller — lost bids
  // or not — and wins every iteration: the loop terminates.
  for (std::uint32_t iteration = 0; undecided > 0; ++iteration) {
    // --- Bid phase: undecided nodes flood their id within k hops.
    std::vector<NodeId> min_bid(n, net::kInvalidNode);
    std::vector<std::unordered_map<NodeId, std::uint32_t>> heard(n);
    RoundEngine<BidMsg> engine(net, &active, "landmark_election",
                               opts.faults);
    for (NodeId v = 0; v < n; ++v) {
      if (status[v] != Status::kUndecided) continue;
      min_bid[v] = v;
      heard[v][v] = k;
      for (std::uint32_t r = 0; r < repeat; ++r)
        engine.broadcast(v, {BidKind::kBid, v, k - 1, r, iteration});
    }
    // Idempotent: a bid is re-forwarded only when it arrives with more
    // remaining TTL than ever seen before.
    total += engine.run(
        [&](NodeId self, NodeId /*from*/, const BidMsg& msg) {
          BALLFIT_ASSERT(msg.kind == BidKind::kBid);
          auto [it, inserted] = heard[self].try_emplace(msg.id, msg.ttl);
          if (!inserted) {
            if (it->second >= msg.ttl) return;  // already forwarded farther
            it->second = msg.ttl;
          }
          min_bid[self] = std::min(min_bid[self], msg.id);
          if (msg.ttl > 0) {
            for (std::uint32_t r = 0; r < repeat; ++r)
              engine.broadcast(self, {BidKind::kBid, msg.id, msg.ttl - 1, r,
                                      iteration});
          }
        },
        cap);

    // --- Decide phase: local minima become landmarks.
    std::vector<NodeId> winners;
    for (NodeId v = 0; v < n; ++v) {
      if (status[v] == Status::kUndecided && min_bid[v] == v) {
        status[v] = Status::kLandmark;
        winners.push_back(v);
        --undecided;
      }
    }
    BALLFIT_ASSERT_MSG(!winners.empty(), "landmark election made no progress");

    // --- Cover phase: winners suppress their k-hop neighborhoods.
    std::vector<std::unordered_map<NodeId, std::uint32_t>> cover_heard(n);
    RoundEngine<BidMsg> cover(net, &active, "landmark_election", opts.faults);
    for (NodeId w : winners) {
      for (std::uint32_t r = 0; r < repeat; ++r)
        cover.broadcast(w, {BidKind::kCover, w, k - 1, r, iteration});
    }
    total += cover.run(
        [&](NodeId self, NodeId /*from*/, const BidMsg& msg) {
          BALLFIT_ASSERT(msg.kind == BidKind::kCover);
          auto [it, inserted] =
              cover_heard[self].try_emplace(msg.id, msg.ttl);
          if (!inserted) {
            if (it->second >= msg.ttl) return;
            it->second = msg.ttl;
          }
          if (status[self] == Status::kUndecided) {
            status[self] = Status::kCovered;
            --undecided;
          }
          if (msg.ttl > 0) {
            for (std::uint32_t r = 0; r < repeat; ++r)
              cover.broadcast(self, {BidKind::kCover, msg.id, msg.ttl - 1, r,
                                     iteration});
          }
        },
        cap);

    landmarks.insert(landmarks.end(), winners.begin(), winners.end());
  }

  if (stats != nullptr) *stats = total;
  std::sort(landmarks.begin(), landmarks.end());
  return landmarks;
}

}  // namespace ballfit::sim
