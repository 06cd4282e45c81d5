// Effort control plane contract tests: escalation-off must be bit-identical
// to a never-escalated run on both coordinate paths, escalation must be
// deterministic across thread counts, the fold-back must never lower a
// node's confidence class, and the Escalate fingerprint must cover every
// new config field.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/session.hpp"
#include "model/sampler.hpp"
#include "model/shapes.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"
#include "obs/metrics.hpp"

namespace ballfit::core {
namespace {

using net::NodeId;

net::Network sphere_network(std::uint64_t seed, std::size_t surface = 160,
                            std::size_t interior = 260) {
  Rng rng(seed);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = surface;
  opt.interior_count = interior;
  return net::build_network(shape, opt, rng);
}

net::Network fig1_hole_network(std::uint64_t seed) {
  Rng rng(seed);
  const model::Scenario scenario = model::fig1_network(0.45);
  net::BuildOptions opt =
      net::options_for_target_degree(*scenario.shape, 15.0, 0.5, rng);
  return net::build_network(*scenario.shape, opt, rng);
}

PipelineConfig noisy_config() {
  PipelineConfig cfg;
  cfg.measurement_error = 0.2;
  cfg.noise_seed = 7;
  return cfg;
}

void expect_same_result(const PipelineResult& a, const PipelineResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.ubf_candidates, b.ubf_candidates) << what;
  EXPECT_EQ(a.boundary, b.boundary) << what;
  EXPECT_EQ(a.groups.leader, b.groups.leader) << what;
  EXPECT_EQ(a.groups.groups, b.groups.groups) << what;
}

// ---------------------------------------------------------------------------
// (1) Escalation-off bit-identity: a session that ran the Escalate stage
// must return to the exact never-escalated output when the stage is
// switched off — no escalated artifact may leak through the caches — on
// both coordinate paths.

TEST(EscalationOff, BitIdenticalAfterEscalatedRuns) {
  for (const bool use_fig1 : {false, true}) {
    const net::Network net =
        use_fig1 ? fig1_hole_network(17) : sphere_network(17);
    const std::string label = use_fig1 ? "fig1" : "sphere";
    for (const bool true_coords : {false, true}) {
      PipelineConfig off = noisy_config();
      off.use_true_coordinates = true_coords;
      PipelineConfig on = off;
      on.escalate.enabled = true;

      const PipelineResult fresh = detect_boundaries(net, off);
      DetectionSession session(net);
      expect_same_result(session.run(off), fresh, label + " first off run");
      const PipelineResult escalated = session.run(on);
      expect_same_result(session.run(off), fresh,
                         label + " off run after escalated run");

      if (true_coords) {
        // The stage is a no-op on the oracle path: identical output and
        // all-zero accounting.
        expect_same_result(escalated, fresh, label + " true-coords no-op");
        EXPECT_EQ(escalated.effort.planned_full, 0u);
        EXPECT_EQ(escalated.effort.nodes_retested, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// (2) Escalation determinism: thread counts must not change a single
// output bit.

TEST(EscalationDeterminism, ThreadCountInvariant) {
  const net::Network net = fig1_hole_network(23);
  PipelineConfig on = noisy_config();
  on.escalate.enabled = true;

  DetectionSession reference_session(net);
  const PipelineResult reference = reference_session.run(on);
  // The run planned every node and actually escalated something — the
  // determinism assertions below must not pass vacuously.
  EXPECT_EQ(reference.effort.planned_cheap + reference.effort.planned_default +
                reference.effort.planned_full,
            net.num_nodes());
  EXPECT_GT(reference.effort.escalated_nodes, 0u);
  EXPECT_EQ(reference.effort.adopted + reference.effort.kept_first_pass,
            reference.effort.nodes_retested);

  for (const unsigned threads : {1u, 2u, 8u}) {
    PipelineConfig cfg = on;
    cfg.threads = threads;
    DetectionSession session(net);
    const PipelineResult r = session.run(cfg);
    expect_same_result(r, reference,
                       "threads=" + std::to_string(threads));
    EXPECT_EQ(r.ubf_confidence, reference.ubf_confidence)
        << "threads=" << threads;
  }

}

// ---------------------------------------------------------------------------
// (3) Monotonicity: the fold-back adopts an escalated verdict only when it
// is at least as decisive as the first pass, so no scored node's distance
// from the 0.5 decision threshold may shrink. (Stress-gated nodes enter
// with confidence 0 — provenance, not a vote margin — and always adopt;
// they are the conf == 0 entries the scan skips.)

TEST(EscalationMonotonicity, NeverLowersConfidenceClass) {
  const net::Network net = fig1_hole_network(29);
  const PipelineConfig off = noisy_config();
  PipelineConfig on = off;
  on.escalate.enabled = true;

  obs::set_enabled(true);
  DetectionSession session(net);
  const PipelineResult base = session.run(off);
  const PipelineResult esc = session.run(on);
  obs::set_enabled(false);

  ASSERT_EQ(base.ubf_confidence.size(), net.num_nodes());
  ASSERT_EQ(esc.ubf_confidence.size(), net.num_nodes());
  std::size_t scored = 0;
  for (std::size_t i = 0; i < net.num_nodes(); ++i) {
    if (base.ubf_confidence[i] <= 0.0f) continue;
    ++scored;
    const double base_d = std::abs(base.ubf_confidence[i] - 0.5);
    const double esc_d = std::abs(esc.ubf_confidence[i] - 0.5);
    EXPECT_GE(esc_d + 1e-9, base_d) << "node " << i;
  }
  EXPECT_GT(scored, 0u);
}

// ---------------------------------------------------------------------------
// (4) Fingerprint completeness: repeating an escalated run is a cache hit
// with an identical artifact; changing any new config field (margin,
// relax) recomputes the Escalate stage without touching UBF; toggling
// `enabled` re-keys the UBF artifact itself (confidence collection is part
// of its identity).

TEST(EscalationFingerprint, CoversEveryNewConfigField) {
  const net::Network net = sphere_network(31);
  PipelineConfig on = noisy_config();
  on.escalate.enabled = true;

  DetectionSession session(net);
  const PipelineResult r1 = session.run(on);
  EXPECT_EQ(session.stats().escalate.full_runs, 1u);

  const PipelineResult r2 = session.run(on);
  EXPECT_EQ(session.stats().escalate.cache_hits, 1u);
  EXPECT_EQ(session.stats().escalate.full_runs, 1u);
  expect_same_result(r1, r2, "escalate cache hit");
  EXPECT_EQ(r1.ubf_confidence, r2.ubf_confidence);

  const std::uint64_t ubf_runs_before = session.stats().ubf.full_runs;
  PipelineConfig margin = on;
  margin.escalate.margin = 0.25;
  (void)session.run(margin);
  EXPECT_EQ(session.stats().escalate.full_runs, 2u) << "margin not keyed";
  PipelineConfig relax = on;
  relax.escalate.relax = 3.5;
  (void)session.run(relax);
  EXPECT_EQ(session.stats().escalate.full_runs, 3u) << "relax not keyed";
  // Neither knob touches the UBF artifact.
  EXPECT_EQ(session.stats().ubf.full_runs, ubf_runs_before);

  // The enabled bit re-keys UBF: an escalate-off artifact (no confidence)
  // must never serve an escalate-on run.
  PipelineConfig off = noisy_config();
  (void)session.run(off);
  EXPECT_EQ(session.stats().ubf.full_runs, ubf_runs_before + 1)
      << "enabled bit not in the UBF key";
}

}  // namespace
}  // namespace ballfit::core
