// Tests for src/net: unit-disk adjacency, BFS/graph utilities, the network
// builder (ground truth labels, connectivity handling), and the noisy
// distance measurement model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "model/sampler.hpp"
#include "model/shapes.hpp"
#include "net/builder.hpp"
#include "net/graph.hpp"
#include "net/measurement.hpp"
#include "net/network.hpp"

namespace ballfit::net {
namespace {

using geom::Vec3;

Network line_network(int n, double spacing = 0.9) {
  std::vector<Vec3> pos;
  for (int i = 0; i < n; ++i)
    pos.push_back({static_cast<double>(i) * spacing, 0, 0});
  return Network(std::move(pos), std::vector<bool>(n, false), 1.0);
}

TEST(Network, AdjacencyMatchesBruteForce) {
  Rng rng(1);
  std::vector<Vec3> pos;
  for (int i = 0; i < 300; ++i)
    pos.push_back(geom::Vec3{rng.uniform(0, 5), rng.uniform(0, 5),
                             rng.uniform(0, 5)});
  const Network net(pos, std::vector<bool>(pos.size(), false), 1.0);
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    std::vector<NodeId> want;
    for (NodeId j = 0; j < net.num_nodes(); ++j) {
      if (i != j && pos[i].distance_to(pos[j]) <= 1.0) want.push_back(j);
    }
    const auto got = net.neighbors(i);
    ASSERT_EQ(got.size(), want.size()) << "node " << i;
    for (std::size_t k = 0; k < want.size(); ++k) EXPECT_EQ(got[k], want[k]);
  }
}

TEST(Network, LineTopologyDegrees) {
  const Network net = line_network(5);
  EXPECT_EQ(net.degree(0), 1u);
  EXPECT_EQ(net.degree(2), 2u);
  EXPECT_TRUE(net.are_neighbors(0, 1));
  EXPECT_FALSE(net.are_neighbors(0, 2));
  EXPECT_DOUBLE_EQ(net.average_degree(), (1 + 2 + 2 + 2 + 1) / 5.0);
  EXPECT_EQ(net.min_degree(), 1u);
  EXPECT_EQ(net.max_degree(), 2u);
}

TEST(Network, GroundTruthLabelsPreserved) {
  std::vector<Vec3> pos = {{0, 0, 0}, {0.5, 0, 0}, {1.0, 0, 0}};
  const Network net(pos, {true, false, true}, 1.0);
  EXPECT_TRUE(net.is_ground_truth_boundary(0));
  EXPECT_FALSE(net.is_ground_truth_boundary(1));
  EXPECT_EQ(net.num_ground_truth_boundary(), 2u);
}

TEST(Network, RejectsBadInputs) {
  std::vector<Vec3> pos = {{0, 0, 0}};
  EXPECT_THROW(Network(pos, {true, false}, 1.0), InvalidArgument);
  EXPECT_THROW(Network(pos, {true}, 0.0), InvalidArgument);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Network(pos, {true}, inf), InvalidArgument);
  EXPECT_THROW(Network(pos, {true}, nan), InvalidArgument);
  for (const Vec3& bad : {Vec3{nan, 0, 0}, Vec3{0, inf, 0}, Vec3{0, 0, -inf}}) {
    EXPECT_THROW(Network({{0, 0, 0}, bad}, {false, false}, 1.0),
                 InvalidArgument);
  }
}

TEST(Graph, HopDistancesOnLine) {
  const Network net = line_network(6);
  const auto dist = hop_distances(net, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Graph, HopDistancesRespectMask) {
  const Network net = line_network(6);
  NodeMask mask(6, true);
  mask[3] = false;  // cut the line
  const auto dist = hop_distances(net, 0, &mask);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], kUnreachable);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(Graph, HopDistancesMaxHops) {
  const Network net = line_network(8);
  const auto dist = hop_distances(net, 0, nullptr, 3);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(Graph, MultiSourceOwnersAndTies) {
  const Network net = line_network(7);
  const auto bfs = multi_source_bfs(net, {0, 6});
  EXPECT_EQ(bfs.owner[1], 0u);
  EXPECT_EQ(bfs.owner[5], 6u);
  EXPECT_EQ(bfs.distance[3], 3u);
  // Node 3 ties (3 hops to both); the smaller id must win.
  EXPECT_EQ(bfs.owner[3], 0u);
}

TEST(Graph, ConnectedComponentsWithMask) {
  const Network net = line_network(7);
  NodeMask mask(7, true);
  mask[3] = false;
  const auto comps = connected_components(net, &mask);
  EXPECT_EQ(comps.count(), 2u);
  EXPECT_EQ(comps.component[3], kUnreachable);
  EXPECT_EQ(comps.component[0], comps.component[2]);
  EXPECT_NE(comps.component[0], comps.component[4]);
  EXPECT_EQ(comps.sizes[comps.component[0]], 3u);
}

TEST(Graph, IsConnected) {
  EXPECT_TRUE(is_connected(line_network(5)));
  std::vector<Vec3> pos = {{0, 0, 0}, {5, 0, 0}};
  const Network split(pos, {false, false}, 1.0);
  EXPECT_FALSE(is_connected(split));
}

TEST(Graph, ShortestPathEndpointsAndLength) {
  const Network net = line_network(6);
  const auto path = shortest_path(net, 1, 4);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), 1u);
  EXPECT_EQ(path.back(), 4u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    EXPECT_TRUE(net.are_neighbors(path[i], path[i + 1]));
}

TEST(Graph, ShortestPathUnreachableEmpty) {
  const Network net = line_network(6);
  NodeMask mask(6, true);
  mask[2] = false;
  EXPECT_TRUE(shortest_path(net, 0, 5, &mask).empty());
}

// Literal copies of the deque BFS that `hop_distances` and `shortest_path`
// ran before both became wrappers over `BoundedBfs`: the references the
// primitive must reproduce, visiting order and parent tie-break included.
bool ref_visible(const NodeMask* mask, NodeId v) {
  return mask == nullptr || (*mask)[v];
}

std::vector<std::uint32_t> ref_hop_distances(const Network& net, NodeId source,
                                             const NodeMask* mask,
                                             std::uint32_t max_hops) {
  std::vector<std::uint32_t> dist(net.num_nodes(), kUnreachable);
  if (!ref_visible(mask, source)) return dist;
  std::deque<NodeId> queue{source};
  dist[source] = 0;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (dist[u] >= max_hops) continue;
    for (NodeId v : net.neighbors(u)) {
      if (!ref_visible(mask, v) || dist[v] != kUnreachable) continue;
      dist[v] = dist[u] + 1;
      queue.push_back(v);
    }
  }
  return dist;
}

std::vector<NodeId> ref_shortest_path(const Network& net, NodeId from,
                                      NodeId to, const NodeMask* mask) {
  std::vector<NodeId> empty;
  if (!ref_visible(mask, from) || !ref_visible(mask, to)) return empty;

  std::vector<std::uint32_t> dist(net.num_nodes(), kUnreachable);
  std::vector<NodeId> parent(net.num_nodes(), kInvalidNode);
  std::deque<NodeId> queue{from};
  dist[from] = 0;
  while (!queue.empty() && dist[to] == kUnreachable) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : net.neighbors(u)) {
      if (!ref_visible(mask, v)) continue;
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        parent[v] = u;
        queue.push_back(v);
      } else if (dist[v] == dist[u] + 1 && parent[v] != kInvalidNode &&
                 u < parent[v]) {
        parent[v] = u;
      }
    }
  }
  if (dist[to] == kUnreachable) return empty;

  std::vector<NodeId> path;
  for (NodeId v = to; v != kInvalidNode; v = parent[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

TEST(BoundedBfs, MatchesReferenceBfsOnRandomMasks) {
  Rng rng(21);
  const std::uint32_t kBounds[] = {0, 1, 2, 3, 4, 5, kUnreachable};
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<Vec3> pos;
    const int n = 150 + 40 * trial;
    for (int i = 0; i < n; ++i)
      pos.push_back({rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(0, 3)});
    const Network net(pos, std::vector<bool>(pos.size(), false), 1.0);
    NodeMask mask(net.num_nodes());
    const double keep = 0.5 + 0.1 * trial;
    for (NodeId v = 0; v < net.num_nodes(); ++v) mask[v] = rng.uniform() < keep;

    BoundedBfs bfs;  // reused across every search below
    const NodeMask* const masks[] = {nullptr, &mask};
    for (const NodeMask* m : masks) {
      const auto visible = [m](NodeId v) { return ref_visible(m, v); };
      for (int q = 0; q < 25; ++q) {
        const NodeId s = static_cast<NodeId>(rng.uniform_int(0, n - 1));
        const NodeId t = static_cast<NodeId>(rng.uniform_int(0, n - 1));
        for (std::uint32_t bound : kBounds) {
          const auto want = ref_hop_distances(net, s, m, bound);
          ASSERT_EQ(hop_distances(net, s, m, bound), want);
          bfs.run(net, s, bound, visible);
          std::size_t reached = 0;
          for (NodeId v = 0; v < net.num_nodes(); ++v) {
            ASSERT_EQ(bfs.dist(v), want[v]) << "trial " << trial << " v " << v;
            reached += want[v] != kUnreachable;
          }
          ASSERT_EQ(bfs.visited().size(), reached);
        }
        const auto want_path = ref_shortest_path(net, s, t, m);
        ASSERT_EQ(shortest_path(net, s, t, m), want_path);
        if (visible(t)) {
          bfs.run(net, s, kUnreachable, visible, t);
          ASSERT_EQ(bfs.path_to(t), want_path);
          if (!want_path.empty()) {
            ASSERT_EQ(bfs.dist(t) + 1, want_path.size());
          }
        }
      }
    }
  }
}

TEST(Builder, ProducesRequestedCountsAndLabels) {
  Rng rng(5);
  const model::SphereShape shape({0, 0, 0}, 4.0);
  BuildOptions opt;
  opt.surface_count = 600;
  opt.interior_count = 900;
  BuildDiagnostics diag;
  const Network net = build_network(shape, opt, rng, &diag);
  EXPECT_EQ(diag.requested_nodes, 1500u);
  EXPECT_GE(net.num_nodes(), 1400u);  // few may drop with the component
  EXPECT_GT(net.num_ground_truth_boundary(), 500u);
  EXPECT_GT(diag.average_degree, 4.0);
  // Surface nodes really sit on the surface; interior nodes inside.
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const double sd = shape.signed_distance(net.position(v));
    if (net.is_ground_truth_boundary(v)) {
      EXPECT_NEAR(sd, 0.0, 1e-6);
    } else {
      EXPECT_LE(sd, 0.0);
    }
  }
}

TEST(Builder, LargestComponentKept) {
  Rng rng(6);
  const model::SphereShape shape({0, 0, 0}, 4.0);
  BuildOptions opt;
  opt.surface_count = 400;
  opt.interior_count = 600;
  const Network net = build_network(shape, opt, rng);
  EXPECT_TRUE(is_connected(net));
}

TEST(Builder, TargetDegreeCalibration) {
  Rng rng(7);
  const model::SphereShape shape({0, 0, 0}, 4.0);
  const BuildOptions opt =
      options_for_target_degree(shape, 16.0, 0.35, rng);
  Rng build_rng(8);
  BuildDiagnostics diag;
  (void)build_network(shape, opt, build_rng, &diag);
  EXPECT_NEAR(diag.average_degree, 16.0, 2.5);
}

TEST(Measurement, ZeroErrorIsExact) {
  const Network net = line_network(4);
  const NoisyDistanceModel model(net, 0.0, 123);
  EXPECT_DOUBLE_EQ(model.measured_distance(0, 1), 0.9);
}

TEST(Measurement, RejectsNegativeOrNonFiniteError) {
  const Network net = line_network(4);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {-0.1, -inf, inf, nan}) {
    EXPECT_THROW(NoisyDistanceModel(net, bad, 1), InvalidArgument) << bad;
  }
  EXPECT_NO_THROW(NoisyDistanceModel(net, 0.0, 1));
  EXPECT_NO_THROW(NoisyDistanceModel(net, 1.0, 1));
}

TEST(Measurement, SymmetricAndDeterministic) {
  const Network net = line_network(10);
  const NoisyDistanceModel model(net, 0.5, 42);
  for (NodeId i = 0; i < 10; ++i)
    for (NodeId j = 0; j < 10; ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(model.measured_distance(i, j),
                       model.measured_distance(j, i));
      // Stable across repeated queries.
      EXPECT_DOUBLE_EQ(model.measured_distance(i, j),
                       model.measured_distance(i, j));
    }
  const NoisyDistanceModel again(net, 0.5, 42);
  EXPECT_DOUBLE_EQ(model.measured_distance(2, 7),
                   again.measured_distance(2, 7));
}

TEST(Measurement, ErrorBoundedByFraction) {
  const Network net = line_network(50);
  const double e = 0.3;
  const NoisyDistanceModel model(net, e, 7);
  for (NodeId i = 0; i < 50; ++i)
    for (NodeId j = i + 1; j < 50; ++j) {
      const double truth = net.true_distance(i, j);
      const double meas = model.measured_distance(i, j);
      EXPECT_GE(meas, std::max(0.0, truth - e * net.radio_range()) - 1e-12);
      EXPECT_LE(meas, truth + e * net.radio_range() + 1e-12);
    }
}

TEST(Measurement, DifferentSeedsDiffer) {
  const Network net = line_network(10);
  const NoisyDistanceModel a(net, 0.5, 1);
  const NoisyDistanceModel b(net, 0.5, 2);
  int equal = 0;
  for (NodeId i = 0; i < 9; ++i)
    equal += (a.measured_distance(i, i + 1) == b.measured_distance(i, i + 1));
  EXPECT_LT(equal, 3);
}

TEST(Measurement, NoiseRoughlyUniform) {
  // Mean error ≈ 0, spread ≈ e·R/√3 for Uniform(−eR, eR).
  const Network net = line_network(200, 0.5);
  const double e = 0.4;
  const NoisyDistanceModel model(net, e, 99);
  double sum = 0.0, sum2 = 0.0;
  int count = 0;
  for (NodeId i = 0; i + 1 < 200; ++i) {
    const double err =
        model.measured_distance(i, i + 1) - net.true_distance(i, i + 1);
    sum += err;
    sum2 += err * err;
    ++count;
  }
  EXPECT_NEAR(sum / count, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum2 / count), e / std::sqrt(3.0), 0.05);
}

TEST(EdgeMeasurementCache, MatchesModelBitwiseAndAlignsWithAdjacency) {
  Rng rng(7);
  std::vector<Vec3> pos;
  for (int i = 0; i < 400; ++i)
    pos.push_back(geom::Vec3{rng.uniform(0, 5), rng.uniform(0, 5),
                             rng.uniform(0, 5)});
  const Network net(pos, std::vector<bool>(pos.size(), false), 1.0);
  const NoisyDistanceModel model(net, 0.3, 42);
  const EdgeMeasurementCache cache(model);

  std::size_t entries = 0;
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    const auto nbrs = net.neighbors(i);
    const double* row = cache.row(i);
    for (std::size_t a = 0; a < nbrs.size(); ++a) {
      // Bitwise — the cache is a materialization, not an approximation.
      EXPECT_EQ(row[a], model.measured_distance(i, nbrs[a]));
      ++entries;
    }
  }
  EXPECT_EQ(cache.size(), entries);
}

TEST(EdgeMeasurementCache, SymmetricAcrossDirectedCopies) {
  const Network net = line_network(50, 0.8);
  const NoisyDistanceModel model(net, 0.5, 9);
  const EdgeMeasurementCache cache(model);
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    const auto nbrs = net.neighbors(i);
    for (std::size_t a = 0; a < nbrs.size(); ++a) {
      const NodeId j = nbrs[a];
      const auto back = net.neighbors(j);
      for (std::size_t b = 0; b < back.size(); ++b) {
        if (back[b] == i) {
          EXPECT_EQ(cache.row(i)[a], cache.row(j)[b]);
        }
      }
    }
  }
}

/// Brute-force unit-ball rows: j is in row i iff j != i and
/// |p_i − p_j|² <= r², the comparison the builder makes.
std::vector<std::vector<NodeId>> brute_force_rows(const std::vector<Vec3>& pos,
                                                  double r) {
  std::vector<std::vector<NodeId>> rows(pos.size());
  for (NodeId i = 0; i < pos.size(); ++i)
    for (NodeId j = 0; j < pos.size(); ++j)
      if (i != j && pos[i].distance_sq_to(pos[j]) <= r * r)
        rows[i].push_back(j);
  return rows;
}

void expect_brute_force_csr(const Network& net, const std::vector<Vec3>& pos,
                            const std::string& what) {
  const auto want = brute_force_rows(pos, net.radio_range());
  ASSERT_EQ(net.num_nodes(), pos.size()) << what;
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    const auto got = net.neighbors(i);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want[i].begin(),
                           want[i].end()))
        << what << ", row " << i;
  }
}

/// Point sets for the builder and apply_moves checks: a sampled sphere, a
/// stretched bar, two clusters far apart (over the grid's cell budget, so
/// the grid widens its cells), points on a line at exactly half a radio
/// range apart (neighbors at distance exactly 1), duplicated positions,
/// and a single node.
std::vector<std::pair<std::string, std::vector<Vec3>>> grid_inputs() {
  std::vector<std::pair<std::string, std::vector<Vec3>>> inputs;
  Rng rng(17);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  std::vector<Vec3> sphere = model::sample_surface(shape, 150, rng);
  {
    auto interior = model::sample_volume(shape, 250, rng, 0.0);
    sphere.insert(sphere.end(), interior.begin(), interior.end());
  }
  inputs.emplace_back("sphere", std::move(sphere));

  std::vector<Vec3> bar;
  for (int i = 0; i < 300; ++i)
    bar.push_back({rng.uniform(0, 150), rng.uniform(0, 1.2),
                   rng.uniform(0, 1.2)});
  inputs.emplace_back("stretched", std::move(bar));

  std::vector<Vec3> clusters;
  for (int i = 0; i < 200; ++i) {
    const Vec3 base = i % 2 == 0 ? Vec3{0, 0, 0} : Vec3{1000, -1000, 500};
    clusters.push_back(base + Vec3{rng.uniform(0, 3), rng.uniform(0, 3),
                                   rng.uniform(0, 3)});
  }
  inputs.emplace_back("two far clusters", std::move(clusters));

  std::vector<Vec3> line;
  for (int i = 0; i < 40; ++i) line.push_back({0.5 * (39 - i), 2.0, -1.0});
  inputs.emplace_back("collinear", std::move(line));

  std::vector<Vec3> dup;
  for (int i = 0; i < 60; ++i)
    dup.push_back({rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 3)});
  for (int i = 0; i < 60; i += 3) dup.push_back(dup[i]);
  dup.push_back(dup[0]);
  inputs.emplace_back("duplicates", std::move(dup));

  inputs.emplace_back("one node", std::vector<Vec3>{{7, -3, 2}});
  return inputs;
}

/// The spatial visit order holds every node id exactly once.
void expect_order_is_permutation(const Network& net, const std::string& what) {
  std::vector<NodeId> sorted(net.spatial_order().begin(),
                             net.spatial_order().end());
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sorted.size(), net.num_nodes()) << what;
  for (NodeId i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i], i) << what;
  }
}

TEST(ParallelBuilder, ThreadCountAndGridPathInvariant) {
  for (const auto& [name, pos] : grid_inputs()) {
    const std::vector<bool> truth(pos.size(), false);
    for (const unsigned threads : {1u, 4u}) {
      const Network net(pos, truth, 1.0, threads);
      const std::string what =
          name + ", " + std::to_string(threads) + " threads";
      expect_brute_force_csr(net, pos, what);
      expect_order_is_permutation(net, what);
    }
  }
}

TEST(Network, FarSpanMatchesBruteForce) {
  // Positions spanning 2·10⁶ radio ranges, far over the grid's cell
  // budget at a unit edge.
  Rng rng(31);
  std::vector<Vec3> pos;
  for (int i = 0; i < 40; ++i) {
    const double off = i % 2 == 0 ? 0.0 : 2e6;
    pos.push_back(
        {off + rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2)});
  }
  for (const unsigned threads : {1u, 4u}) {
    expect_brute_force_csr(
        Network(pos, std::vector<bool>(pos.size(), false), 1.0, threads),
        pos, std::to_string(threads) + " threads");
  }
}

// --- apply_moves: local adjacency rebuild ----------------------------------

/// Everything a Network holds matches: range, positions, labels, CSR
/// offsets (degrees) and rows, and the visit order.
void expect_same_csr(const Network& got, const Network& want,
                     const std::string& what) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << what;
  EXPECT_EQ(got.radio_range(), want.radio_range()) << what;
  EXPECT_EQ(got.ground_truth_boundary(), want.ground_truth_boundary())
      << what;
  EXPECT_EQ(got.num_ground_truth_boundary(), want.num_ground_truth_boundary())
      << what;
  for (NodeId i = 0; i < got.num_nodes(); ++i) {
    EXPECT_EQ(got.position(i), want.position(i)) << what << ", node " << i;
    EXPECT_EQ(got.degree(i), want.degree(i)) << what << ", node " << i;
    const auto a = got.neighbors(i);
    const auto b = want.neighbors(i);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << what << ", row " << i;
  }
  const auto oa = got.spatial_order();
  const auto ob = want.spatial_order();
  EXPECT_TRUE(std::equal(oa.begin(), oa.end(), ob.begin(), ob.end()))
      << what << ", spatial order";
  expect_order_is_permutation(got, what);
}

TEST(ApplyMoves, EquivalentToFreshConstruction) {
  Rng rng(7);
  std::vector<Vec3> pos;
  for (int i = 0; i < 250; ++i)
    pos.push_back({rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5)});
  std::vector<std::pair<std::string, std::vector<Vec3>>> inputs =
      grid_inputs();
  inputs.emplace_back("box", pos);

  for (auto& [name, p] : inputs) {
    const std::vector<bool> truth(p.size(), false);
    Network net(p, truth, 1.0);
    const auto last = static_cast<NodeId>(p.size() - 1);
    const Vec3 home = p.size() > 1 ? p[1] : p[0];
    // Batches, unsorted by id on purpose: small drifts and a jump onto
    // another node's exact position; a jump far outside the box (the grid
    // grows and may widen its cells); the far node brought back.
    std::vector<std::vector<NodeMove>> batches;
    if (p.size() == 1) {
      batches = {{{0, {7.5, -3, 2}}}, {{0, {1e5, 0, 0}}}, {{0, {7, -3, 2}}}};
    } else {
      batches = {
          {{last, p[last] + Vec3{0.3, 0, -0.2}},
           {0, p[0] - Vec3{0.4, -0.1, 0}},
           {last / 2, p[1]}},
          {{1, p[1] + Vec3{4e4, 0, 0}}},
          {{1, home}, {last, p[last / 3]}},
      };
    }
    for (std::size_t b = 0; b < batches.size(); ++b) {
      net.apply_moves(batches[b]);
      for (const NodeMove& m : batches[b]) p[m.node] = m.new_position;
      const std::string what = name + ", batch " + std::to_string(b);
      expect_same_csr(net, Network(p, truth, 1.0), what);
      expect_brute_force_csr(net, p, what);
    }
  }
}

// --- restricted_to: the induced subnetwork ----------------------------------

/// The kept positions and labels of `keep`, in id order.
std::pair<std::vector<Vec3>, std::vector<bool>> kept_part(
    const Network& net, const std::vector<char>& keep) {
  std::pair<std::vector<Vec3>, std::vector<bool>> out;
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    if (keep[i] == 0) continue;
    out.first.push_back(net.position(i));
    out.second.push_back(net.is_ground_truth_boundary(i));
  }
  return out;
}

TEST(RestrictedTo, EquivalentToFreshConstruction) {
  for (const auto& [name, pos] : grid_inputs()) {
    std::vector<bool> truth(pos.size(), false);
    for (std::size_t i = 0; i < pos.size(); i += 4) truth[i] = true;
    for (const unsigned threads : {1u, 4u}) {
      const Network net(pos, truth, 1.0, threads);
      const std::size_t n = net.num_nodes();
      // Masks: everything, nothing, every third node dropped (rows lose
      // entries), and the largest connected component alone (rows keep
      // every entry).
      std::vector<std::pair<std::string, std::vector<char>>> masks;
      masks.emplace_back("all", std::vector<char>(n, 1));
      masks.emplace_back("none", std::vector<char>(n, 0));
      std::vector<char> thirds(n, 1);
      for (std::size_t i = 0; i < n; i += 3) thirds[i] = 0;
      masks.emplace_back("thirds", std::move(thirds));
      const Components comps = connected_components(net);
      const std::size_t biggest = static_cast<std::size_t>(
          std::max_element(comps.sizes.begin(), comps.sizes.end()) -
          comps.sizes.begin());
      std::vector<char> component(n, 0);
      for (NodeId i = 0; i < n; ++i) {
        component[i] = comps.component[i] == biggest ? 1 : 0;
      }
      masks.emplace_back("largest component", std::move(component));
      for (const auto& [mask_name, keep] : masks) {
        const std::string what = name + ", " + mask_name + ", " +
                                 std::to_string(threads) + " threads";
        auto [kept_pos, kept_truth] = kept_part(net, keep);
        expect_same_csr(net.restricted_to(keep),
                        Network(std::move(kept_pos), std::move(kept_truth),
                                1.0, threads),
                        what);
      }
    }
  }
}

TEST(RestrictedTo, RejectsWrongMaskSize) {
  const Network net = line_network(5);
  EXPECT_THROW((void)net.restricted_to(std::vector<char>(4, 1)),
               InvalidArgument);
}

// A sparse build that drops nodes outside its largest component equals a
// fresh construction over the nodes it kept, at any build thread count.
TEST(Builder, DroppedComponentsEqualFreshBuild) {
  const model::SphereShape shape({0, 0, 0}, 4.0);
  for (const unsigned threads : {1u, 4u}) {
    Rng rng(9);
    BuildOptions opt;
    opt.surface_count = 150;
    opt.interior_count = 150;
    opt.threads = threads;
    BuildDiagnostics diag;
    const Network net = build_network(shape, opt, rng, &diag);
    ASSERT_GT(diag.dropped_disconnected, 0u);
    EXPECT_EQ(diag.kept_nodes + diag.dropped_disconnected, 300u);
    EXPECT_TRUE(is_connected(net));
    expect_same_csr(net,
                    Network(net.positions(), net.ground_truth_boundary(),
                            net.radio_range(), threads),
                    std::to_string(threads) + " threads");
  }
}

TEST(ApplyMoves, FarFromOriginMatchesBruteForce) {
  // A compact network 2·10⁶ radio ranges from the origin.
  const Vec3 far{2e6, 2e6, 2e6};
  std::vector<Vec3> pos = {far, far + Vec3{0.6, 0, 0}, far + Vec3{0, 0.6, 0},
                           far + Vec3{1.5, 0, 0}};
  const std::vector<bool> truth(pos.size(), false);
  Network net(pos, truth, 1.0);
  const std::vector<NodeMove> moves = {{3, far + Vec3{0.9, 0.3, 0}},
                                       {0, far + Vec3{-0.7, 0, 0}}};
  net.apply_moves(moves);
  for (const NodeMove& m : moves) pos[m.node] = m.new_position;
  expect_brute_force_csr(net, pos, "after moves");
  expect_same_csr(net, Network(pos, truth, 1.0), "after moves");
}

TEST(ApplyMoves, RejectsDuplicateAndOutOfRangeIds) {
  Network net = line_network(5);
  const std::vector<NodeMove> dup = {{1, {0, 0, 0}}, {1, {1, 0, 0}}};
  EXPECT_THROW(net.apply_moves(dup), InvalidArgument);
  const std::vector<NodeMove> oob = {{5, {0, 0, 0}}};
  EXPECT_THROW(net.apply_moves(oob), InvalidArgument);
  // Neither call mutated the network.
  EXPECT_DOUBLE_EQ(net.position(1).x, 0.9);
  EXPECT_EQ(net.degree(0), 1u);
}

TEST(ApplyMoves, RejectsNonFinitePositions) {
  Network net = line_network(5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // The valid first move must not be applied either: the batch is checked
  // before anything changes.
  const std::vector<NodeMove> with_nan = {{1, {0.5, 0, 0}}, {2, {nan, 0, 0}}};
  EXPECT_THROW(net.apply_moves(with_nan), InvalidArgument);
  const std::vector<NodeMove> with_inf = {{3, {0, 0, inf}}};
  EXPECT_THROW(net.apply_moves(with_inf), InvalidArgument);
  EXPECT_DOUBLE_EQ(net.position(1).x, 0.9);
  EXPECT_DOUBLE_EQ(net.position(2).x, 1.8);
  EXPECT_DOUBLE_EQ(net.position(3).z, 0.0);
  EXPECT_EQ(net.degree(0), 1u);
}

TEST(ApplyMoves, EmptyBatchIsNoOp) {
  Network net = line_network(4);
  net.apply_moves({});
  EXPECT_EQ(net.degree(0), 1u);
}

}  // namespace
}  // namespace ballfit::net
