// Tests for src/localization: local frame construction from one-hop
// measurements, missing-pair completion, exact recovery at zero error, and
// graceful degradation with noise.

#include <gtest/gtest.h>


#include "common/rng.hpp"
#include "localization/local_frame.hpp"
#include "model/shapes.hpp"
#include "net/builder.hpp"

namespace ballfit::localization {
namespace {

using geom::Vec3;
using net::NodeId;

net::Network random_network(std::uint64_t seed) {
  Rng rng(seed);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = 300;
  opt.interior_count = 500;
  return net::build_network(shape, opt, rng);
}

TEST(LocalFrame, SelfIsFirstMember) {
  const net::Network net = random_network(1);
  const net::NoisyDistanceModel model(net, 0.0, 1);
  const Localizer loc(net, model);
  for (NodeId v = 0; v < 20; ++v) {
    const LocalFrame frame = loc.local_frame(v);
    ASSERT_FALSE(frame.members.empty());
    EXPECT_EQ(frame.members[0], v);
    EXPECT_EQ(frame.members.size(), net.degree(v) + 1);
    EXPECT_EQ(frame.coords.size(), frame.members.size());
  }
}

TEST(LocalFrame, ZeroErrorRecoversGeometry) {
  // With exact distances the embedding matches truth up to rigid motion on
  // average; individual one-hop frames can retain fold-over ambiguities
  // (weakly-anchored members are genuinely underdetermined from one-hop
  // data), so the assertion is on the mean. The two-hop MDS-MAP frames
  // must be strictly better: each member carries far more constraints.
  const net::Network net = random_network(2);
  const net::NoisyDistanceModel model(net, 0.0, 1);
  const Localizer loc(net, model);
  double sum1 = 0.0, sum2 = 0.0;
  int tested = 0;
  for (NodeId v = 0; v < net.num_nodes() && tested < 30; v += 17, ++tested) {
    const LocalFrame f1 = loc.local_frame(v);
    const LocalFrame f2 = loc.mdsmap_frame(v);
    if (!f1.ok || !f2.ok) continue;
    sum1 += loc.frame_rms_error(f1);
    sum2 += loc.frame_rms_error(f2);
  }
  ASSERT_GT(tested, 10);
  EXPECT_LT(sum1 / tested, 0.12);
  EXPECT_LT(sum2 / tested, 0.20);  // larger patches → larger absolute RMS
  // Zero-error stress residual is small for the two-hop solver (SMACOF
  // stops at the configured sweep budget, not at machine precision).
  const LocalFrame probe = loc.mdsmap_frame(0);
  EXPECT_LT(probe.stress_rms, 1e-2);
}

TEST(LocalFrame, ZeroErrorPreservesMeasuredPairs) {
  // Distances between mutually-adjacent members must be reproduced
  // (near-)exactly by the embedding when measurements are exact.
  const net::Network net = random_network(3);
  const net::NoisyDistanceModel model(net, 0.0, 1);
  const Localizer loc(net, model);
  const NodeId v = 0;
  const LocalFrame frame = loc.local_frame(v);
  ASSERT_TRUE(frame.ok);
  double worst = 0.0;
  for (std::size_t a = 0; a < frame.members.size(); ++a)
    for (std::size_t b = a + 1; b < frame.members.size(); ++b) {
      const NodeId u = frame.members[a];
      const NodeId w = frame.members[b];
      if (a != 0 && !net.are_neighbors(u, w)) continue;
      const double want = net.true_distance(u, w);
      const double got = frame.coords[a].distance_to(frame.coords[b]);
      worst = std::max(worst, std::fabs(want - got));
    }
  EXPECT_LT(worst, 0.1);
}

TEST(LocalFrame, NoiseIncreasesError) {
  const net::Network net = random_network(4);
  const net::NoisyDistanceModel clean(net, 0.0, 1);
  const net::NoisyDistanceModel noisy(net, 0.6, 1);
  const Localizer loc_clean(net, clean);
  const Localizer loc_noisy(net, noisy);
  double err_clean = 0.0, err_noisy = 0.0;
  int count = 0;
  for (NodeId v = 0; v < net.num_nodes(); v += 23) {
    const LocalFrame fc = loc_clean.local_frame(v);
    const LocalFrame fn = loc_noisy.local_frame(v);
    if (!fc.ok || !fn.ok) continue;
    err_clean += loc_clean.frame_rms_error(fc);
    err_noisy += loc_noisy.frame_rms_error(fn);
    ++count;
  }
  ASSERT_GT(count, 5);
  EXPECT_LT(err_clean / count, err_noisy / count);
}

TEST(LocalFrame, DegenerateNeighborhoodsFlagged) {
  // Two isolated-ish nodes: neighborhoods of size 2 < 4 → not ok.
  std::vector<Vec3> pos = {{0, 0, 0}, {0.5, 0, 0}, {5, 5, 5}, {5.5, 5, 5}};
  const net::Network net(pos, std::vector<bool>(4, false), 1.0);
  const net::NoisyDistanceModel model(net, 0.0, 1);
  const Localizer loc(net, model);
  EXPECT_FALSE(loc.local_frame(0).ok);
  EXPECT_FALSE(loc.local_frame(2).ok);
}

TEST(LocalFrame, MismatchedNetworkRejected) {
  const net::Network a = random_network(5);
  const net::Network b = random_network(6);
  const net::NoisyDistanceModel model(a, 0.0, 1);
  EXPECT_THROW(Localizer(b, model), InvalidArgument);
}

class ErrorSweep : public ::testing::TestWithParam<double> {};

TEST_P(ErrorSweep, FrameErrorScalesWithMeasurementError) {
  // Property: average frame RMS error stays bounded by a small multiple of
  // the injected measurement error (plus the exact-recovery floor).
  const double e = GetParam();
  const net::Network net = random_network(7);
  const net::NoisyDistanceModel model(net, e, 3);
  const Localizer loc(net, model);
  double total = 0.0;
  int count = 0;
  for (NodeId v = 0; v < net.num_nodes(); v += 31) {
    const LocalFrame frame = loc.local_frame(v);
    if (!frame.ok) continue;
    total += loc.frame_rms_error(frame);
    ++count;
  }
  ASSERT_GT(count, 0);
  const double avg = total / count;
  EXPECT_LT(avg, 0.08 + 1.5 * e) << "error fraction " << e;
}

INSTANTIATE_TEST_SUITE_P(Errors, ErrorSweep,
                         ::testing::Values(0.0, 0.1, 0.2, 0.4, 0.8));

}  // namespace
}  // namespace ballfit::localization
