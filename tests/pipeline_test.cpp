// End-to-end tests of the detection pipeline: accuracy at zero/low error,
// degradation at high error, determinism, and stage wiring.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "model/csg.hpp"
#include "model/shapes.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"

namespace ballfit::core {
namespace {

using net::NodeId;

net::Network sphere_network(std::uint64_t seed, std::size_t surface = 500,
                            std::size_t interior = 800) {
  Rng rng(seed);
  const model::SphereShape shape({0, 0, 0}, 3.5);
  net::BuildOptions opt;
  opt.surface_count = surface;
  opt.interior_count = interior;
  return net::build_network(shape, opt, rng);
}

TEST(Pipeline, TrueCoordinatesNearPerfect) {
  // Surface-heavy sampling keeps the "legitimate shell" of near-surface
  // interior nodes (which genuinely pass the empty-ball test) thin.
  const net::Network net = sphere_network(1, 750, 650);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  const DetectionStats s = detect_and_evaluate(net, cfg);
  EXPECT_GT(s.correct_rate(), 0.92);
  EXPECT_LT(s.mistaken_rate(), 0.12);
  EXPECT_LT(s.missing_rate(), 0.08);
}

TEST(Pipeline, ZeroMeasurementErrorNearPerfect) {
  const net::Network net = sphere_network(2, 750, 650);
  PipelineConfig cfg;
  cfg.measurement_error = 0.0;
  const DetectionStats s = detect_and_evaluate(net, cfg);
  EXPECT_GT(s.correct_rate(), 0.9);
  EXPECT_LT(s.mistaken_rate(), 0.2);
}

TEST(Pipeline, HighErrorDegradesButMistakenStayClose) {
  const net::Network net = sphere_network(3);
  PipelineConfig low;
  low.measurement_error = 0.1;
  PipelineConfig high;
  high.measurement_error = 0.9;
  const DetectionStats sl = detect_and_evaluate(net, low);
  const DetectionStats sh = detect_and_evaluate(net, high);
  EXPECT_GE(sh.missing + sh.mistaken, sl.missing + sl.mistaken);
  // Paper Sec. II-C: mistaken nodes concentrate within 1–2 hops of the
  // true boundary.
  if (sh.mistaken > 20) {
    const auto hops = sh.mistaken_hops();
    EXPECT_GT(hops[0] + hops[1], 0.8);
  }
}

TEST(Pipeline, DeterministicGivenSeed) {
  const net::Network net = sphere_network(4, 300, 450);
  PipelineConfig cfg;
  cfg.measurement_error = 0.3;
  cfg.noise_seed = 77;
  const PipelineResult a = detect_boundaries(net, cfg);
  const PipelineResult b = detect_boundaries(net, cfg);
  EXPECT_EQ(a.ubf_candidates, b.ubf_candidates);
  EXPECT_EQ(a.boundary, b.boundary);
  EXPECT_EQ(a.groups.leader, b.groups.leader);
}

TEST(Pipeline, ThreadCountDoesNotChangeResult) {
  const net::Network net = sphere_network(5, 250, 400);
  PipelineConfig cfg;
  cfg.measurement_error = 0.2;
  cfg.threads = 1;
  const PipelineResult serial = detect_boundaries(net, cfg);
  cfg.threads = 8;
  const PipelineResult parallel = detect_boundaries(net, cfg);
  EXPECT_EQ(serial.boundary, parallel.boundary);
}

TEST(Pipeline, IffRemovesOnlyCandidates) {
  const net::Network net = sphere_network(6, 300, 450);
  PipelineConfig cfg;
  cfg.measurement_error = 0.5;
  const PipelineResult r = detect_boundaries(net, cfg);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (r.boundary[v]) {
      EXPECT_TRUE(r.ubf_candidates[v]);
    }
  }
  EXPECT_LE(r.num_boundary(), r.num_candidates());
}

TEST(Pipeline, GroupsPartitionBoundary) {
  const net::Network net = sphere_network(7, 300, 450);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  const PipelineResult r = detect_boundaries(net, cfg);
  std::size_t grouped = 0;
  for (const auto& g : r.groups.groups) grouped += g.size();
  EXPECT_EQ(grouped, r.num_boundary());
}

TEST(Pipeline, DetectsInnerHoleAsSeparateGroup) {
  Rng rng(8);
  const model::Scenario sc = model::space_one_hole(1.0);
  net::BuildOptions opt;
  opt.surface_count = 2200;
  opt.interior_count = 2000;
  const net::Network net = net::build_network(*sc.shape, opt, rng);

  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  const PipelineResult r = detect_boundaries(net, cfg);
  // Expect exactly 2 substantial groups: outer boundary + hole boundary.
  std::size_t substantial = 0;
  for (const auto& g : r.groups.groups)
    if (g.size() >= 20) ++substantial;
  EXPECT_EQ(substantial, 2u);
}

TEST(Pipeline, CostCountersPopulated) {
  const net::Network net = sphere_network(9, 250, 350);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  const PipelineResult r = detect_boundaries(net, cfg);
  EXPECT_GT(r.iff_cost.messages, 0u);
  EXPECT_GT(r.grouping_cost.messages, 0u);
}

}  // namespace
}  // namespace ballfit::core
