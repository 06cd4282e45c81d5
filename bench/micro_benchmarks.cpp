/// \file micro_benchmarks.cpp
/// google-benchmark microbenchmarks for the computational kernels:
/// trisphere solve (Eq. 1), spatial-grid queries, classical MDS + SMACOF,
/// the per-node UBF test (the Θ(ρ³) claim of Theorem 1), and the flooding
/// protocols. These back the complexity discussion in Sec. II-A2.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/ubf.hpp"
#include "geom/grid.hpp"
#include "geom/sampling.hpp"
#include "geom/trisphere.hpp"
#include "linalg/eigen.hpp"
#include "linalg/mds.hpp"
#include "localization/local_frame.hpp"
#include "model/shapes.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"
#include "sim/protocols.hpp"

namespace {

using namespace ballfit;
using geom::Vec3;

void BM_TrisphereSolve(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::array<Vec3, 3>> triples(1024);
  for (auto& t : triples) {
    t = {geom::sample_in_ball(rng, {0, 0, 0}, 0.9),
         geom::sample_in_ball(rng, {0, 0, 0}, 0.9),
         geom::sample_in_ball(rng, {0, 0, 0}, 0.9)};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& t = triples[i++ & 1023];
    benchmark::DoNotOptimize(geom::solve_trisphere(t[0], t[1], t[2], 1.0));
  }
}
BENCHMARK(BM_TrisphereSolve);

void BM_GridRadiusQuery(benchmark::State& state) {
  Rng rng(2);
  std::vector<Vec3> pts;
  for (int i = 0; i < 5000; ++i)
    pts.push_back(geom::sample_in_box(rng, {{0, 0, 0}, {10, 10, 10}}));
  const geom::SpatialGrid grid(pts, 1.0);
  std::size_t hits = 0;
  for (auto _ : state) {
    const Vec3 q = geom::sample_in_box(rng, {{0, 0, 0}, {10, 10, 10}});
    grid.for_each_in_ball(q, 1.0, [&](std::uint32_t) {
      ++hits;
      return true;
    });
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_GridRadiusQuery);

void BM_ClassicalMds(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<Vec3> pts;
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back(geom::sample_in_ball(rng, {0, 0, 0}, 1.0));
  linalg::Matrix d(n, n);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b) d(a, b) = pts[a].distance_to(pts[b]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::classical_mds(d, 3));
  }
}
BENCHMARK(BM_ClassicalMds)->Arg(10)->Arg(20)->Arg(40);

// Builds a random m-point configuration plus its (dense) distance/weight
// matrices with a unit-disk measurement pattern, shared by the SMACOF and
// eigen benchmarks below.
struct MdsFixture {
  std::vector<Vec3> pts;
  linalg::Matrix d, w;

  explicit MdsFixture(std::size_t m) {
    Rng rng(8);
    for (std::size_t i = 0; i < m; ++i)
      pts.push_back(geom::sample_in_ball(rng, {0, 0, 0}, 2.0));
    d = linalg::Matrix(m, m);
    w = linalg::Matrix(m, m);
    for (std::size_t a = 0; a < m; ++a)
      for (std::size_t b = 0; b < m; ++b) {
        d(a, b) = pts[a].distance_to(pts[b]);
        // ~unit-disk measurement sparsity: only nearby pairs measured.
        w(a, b) = (a != b && d(a, b) <= 1.2) ? 1.0 : 0.0;
      }
  }
};

// The SMACOF hot loop at one-hop (20), two-hop-ish (40), and large-patch
// (80) sizes. Uses the sparse CSR path the localization stage runs; flip
// `sparse` off in the loop to compare against the dense reference.
void BM_SmacofRefine(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const MdsFixture fx(m);
  const linalg::SmacofProblem problem(fx.d, fx.w);
  linalg::SmacofConfig sc;
  sc.max_sweeps = 30;
  std::vector<Vec3> init = fx.pts;
  Rng rng(9);
  for (Vec3& p : init)
    p += Vec3{rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
              rng.uniform(-0.2, 0.2)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.refine(init, sc));
  }
}
BENCHMARK(BM_SmacofRefine)->Arg(20)->Arg(40)->Arg(80);

// Top-3 eigenpairs of the centered Gram matrix — the classical-MDS init
// cost. m = 20 exercises the dense Jacobi fallback (n <= 24), 40/80 the
// subspace iteration.
void BM_EigenTopK(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const MdsFixture fx(m);
  linalg::Matrix full(m, m);
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = 0; b < m; ++b) full(a, b) = fx.d(a, b);
  const linalg::Matrix gram = linalg::double_center(full);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eigen_top_k(gram, 3, 60, 1e-6));
  }
}
BENCHMARK(BM_EigenTopK)->Arg(20)->Arg(40)->Arg(80);

// One-hop frame construction end to end (measured-pair fill, completion,
// classical MDS, SMACOF restarts) at neighborhood sizes bracketing
// kTopkMdsThreshold. The range argument is the target node degree.
void BM_LocalFrame(benchmark::State& state) {
  const double degree = static_cast<double>(state.range(0));
  Rng rng(10);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  const double volume = 4.0 / 3.0 * 3.14159 * 27.0;
  opt.interior_count =
      static_cast<std::size_t>(volume * degree / 4.19 * 0.7);
  opt.surface_count = opt.interior_count / 2;
  const net::Network network = net::build_network(shape, opt, rng);
  const net::NoisyDistanceModel model(network, 0.1, 7);
  const localization::Localizer localizer(network, model);
  net::NodeId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(localizer.local_frame(v));
    v = (v + 17) % static_cast<net::NodeId>(network.num_nodes());
  }
}
BENCHMARK(BM_LocalFrame)->Arg(20)->Arg(40)->Arg(80)
    ->Unit(benchmark::kMicrosecond);

// One full per-node localized step: MDS-MAP frame + UBF test. The paper's
// Theorem 1 bounds the ball tests at Θ(ρ²) balls × Θ(ρ) nodes; the range
// argument scales the density.
void BM_PerNodeDetection(benchmark::State& state) {
  const double degree = static_cast<double>(state.range(0));
  Rng rng(4);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  const double volume = 4.0 / 3.0 * 3.14159 * 27.0;
  opt.interior_count = static_cast<std::size_t>(volume * degree / 4.19 * 0.7);
  opt.surface_count = opt.interior_count / 2;
  const net::Network network = net::build_network(shape, opt, rng);
  const net::NoisyDistanceModel model(network, 0.1, 7);
  const localization::Localizer localizer(network, model);
  const core::UnitBallFitting ubf(network);

  net::NodeId v = 0;
  for (auto _ : state) {
    const auto frame = localizer.mdsmap_frame(v);
    if (frame.ok) {
      benchmark::DoNotOptimize(
          ubf.test_node(frame.coords, 0, frame.one_hop_count, nullptr,
                        frame.stress_rms));
    }
    v = (v + 17) % static_cast<net::NodeId>(network.num_nodes());
  }
}
BENCHMARK(BM_PerNodeDetection)->Arg(12)->Arg(18)->Arg(26)
    ->Unit(benchmark::kMillisecond);

// The whole single-threaded UBF kernel (gather + candidate cache + pair
// sweep) on a reduced Fig. 1 scenario — the same quantity the
// bench_compare regression gate tracks at full scale.
void BM_UbfKernelTrueCoords(benchmark::State& state) {
  Rng rng(7);
  const model::Scenario scenario = model::fig1_network(0.5);
  net::BuildOptions opt =
      net::options_for_target_degree(*scenario.shape, 18.8, 0.5, rng);
  opt.interior_margin = 0.35 * opt.radio_range;
  const net::Network network = net::build_network(*scenario.shape, opt, rng);
  const core::UnitBallFitting ubf(network);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ubf.detect_with_true_coordinates(
        nullptr, nullptr, nullptr, /*threads=*/1));
  }
}
BENCHMARK(BM_UbfKernelTrueCoords)->Unit(benchmark::kMillisecond);

void BM_TtlFlood(benchmark::State& state) {
  Rng rng(5);
  const model::SphereShape shape({0, 0, 0}, 2.5);
  net::BuildOptions opt;
  opt.surface_count = 300;
  opt.interior_count = 400;
  const net::Network network = net::build_network(shape, opt, rng);
  net::NodeMask active(network.num_nodes(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::ttl_flood_count(network, active, 3));
  }
}
BENCHMARK(BM_TtlFlood)->Unit(benchmark::kMillisecond);

void BM_LeaderFlood(benchmark::State& state) {
  Rng rng(6);
  const model::SphereShape shape({0, 0, 0}, 2.5);
  net::BuildOptions opt;
  opt.surface_count = 300;
  opt.interior_count = 400;
  const net::Network network = net::build_network(shape, opt, rng);
  net::NodeMask active(network.num_nodes(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::leader_flood(network, active));
  }
}
BENCHMARK(BM_LeaderFlood)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
