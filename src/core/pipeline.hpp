#pragma once

/// \file pipeline.hpp
/// End-to-end boundary node identification (paper Sec. II):
///   measurements → local MDS frames → UBF → IFF → grouping.
///
/// This is the primary public entry point of the library. Everything it
/// consumes is one-hop-local per node; `PipelineResult` carries the outputs
/// of every stage so benches and tests can inspect intermediates.
///
/// The pipeline can run under fault injection (`PipelineConfig::faults`):
/// crashed nodes drop out of localization and detection entirely (they are
/// masked out of the alive set, keeping their original ids), the IFF and
/// grouping floods lose/duplicate messages per the model, and nodes whose
/// local frame cannot be built (too few surviving neighbors) fall back to
/// a conservative non-boundary vote instead of the optimistic
/// degenerate-is-boundary default. The run degrades — precision/recall
/// shrink with loss and crash rates — but never throws or hangs. Faulted
/// runs execute through the same cached `core::DetectionSession` stage
/// graph as reliable ones and compose with incremental deltas; see
/// session.hpp.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/grouping.hpp"
#include "core/iff.hpp"
#include "core/stats.hpp"
#include "core/ubf.hpp"
#include "net/measurement.hpp"
#include "net/network.hpp"
#include "sim/faults.hpp"
#include "sim/protocols.hpp"

namespace ballfit::core {

struct PipelineConfig {
  /// Phase-1 detection knobs (ball radius ε, emptiness scope, vote
  /// threshold, noise margin) — see UbfConfig field docs.
  UbfConfig ubf;
  /// Phase-2 fragment-filtering knobs (θ = 20, T = 3 by default).
  IffConfig iff;
  /// Maximum distance measurement error as a fraction of the radio range,
  /// in [0, 1] (Sec. IV-A sweeps this axis; default 0 = exact ranging).
  double measurement_error = 0.0;
  /// Seed for the measurement noise process (default 1). Same network +
  /// same config + same seed reproduces the run exactly.
  std::uint64_t noise_seed = 1;
  /// Skip local MDS and hand UBF the true coordinates — the noiseless
  /// reference configuration (and a localization ablation). Default off.
  bool use_true_coordinates = false;
  /// Localization equivalence tier. It is part of the session's Localize
  /// key, so cached artifacts never mix tiers.
  localization::LocalizerConfig localizer;
  /// Run boundary grouping after IFF (default on).
  bool group = true;
  /// Worker threads for the per-node stages (count; default 0 = hardware
  /// concurrency). Results are thread-count-independent — the per-thread
  /// scratch arenas in the UBF kernel carry no state between nodes.
  unsigned threads = 0;
  /// Fault injection for the communication stages (default nullopt =
  /// reliable network, the paper's assumption). The crash mechanisms fold
  /// into the session alive-mask before the stages run; the
  /// loss/duplication channel is a stateless `sim::FaultModel`, so each
  /// flood artifact is a pure function of (inputs, channel config) —
  /// cacheable, and reproducible from the config alone. Scheduled
  /// (`crash_at_round`) and per-round crashes fire when
  /// `DetectionSession::advance_faults` moves the fault clock between runs,
  /// not during a run's own floods. With an all-zero config installed the
  /// outputs are bit-identical to the reliable run. An invalid config
  /// throws `InvalidArgument` before the run starts.
  std::optional<sim::FaultConfig> faults;
  /// Retransmissions per newly learned fact in the floods (count, >= 1,
  /// default 1); raise to 2–3 to keep floods converging at 10–20% loss.
  std::uint32_t flood_repeat = 1;
};

struct PipelineResult {
  /// Stage outputs.
  std::vector<bool> ubf_candidates;  ///< after Phase 1 (UBF)
  std::vector<bool> boundary;        ///< after Phase 2 (IFF) — final answer
  BoundaryGroups groups;             ///< boundary grouping (if requested)

  /// Quality telemetry (additive — never feeds back into the flags above).
  /// Populated only when `obs::enabled()` at run time; empty otherwise, so
  /// the disabled pipeline does none of the extra vote counting. Faulted
  /// runs produce them too (they share the cached stage kernels).
  std::vector<float> ubf_confidence;          ///< per node, see vote_confidence
  std::vector<BoundaryQuality> group_quality; ///< parallel to groups.groups

  /// Cost of the IFF flooding protocol.
  sim::RunStats iff_cost;
  /// Cost of the grouping protocol.
  sim::RunStats grouping_cost;

  /// Work accounting of the run's Localize stage (sweeps executed vs.
  /// budget, restarts skipped, plateau exits). Reflects the most
  /// recent frame build the session executed — a cache-hit run repeats
  /// the stats of the build that produced the cached frames. All zeros on
  /// the true-coordinates path.
  localization::FrameBuildStats localize_stats;
  /// Nodes whose local frame could not be built (degenerate/starved
  /// neighborhood). Under faults these voted non-boundary conservatively;
  /// otherwise they voted `UbfConfig::degenerate_is_boundary`.
  std::size_t frame_fallbacks = 0;
  /// Nodes down during the run, by user delta or crash schedule (0 when
  /// every node is alive).
  std::size_t crashed_nodes = 0;
  /// Fault effects summed over the flood stages, plus the schedule's
  /// casualties (zeros without faults).
  sim::FaultStats fault_stats;

  /// Convenience: number of nodes flagged after each phase.
  std::size_t num_candidates() const;
  std::size_t num_boundary() const;
};

/// Runs the full detection pipeline on `network`.
PipelineResult detect_boundaries(const net::Network& network,
                                 const PipelineConfig& config = {});

/// Runs detection and scores it against ground truth in one call.
DetectionStats detect_and_evaluate(const net::Network& network,
                                   const PipelineConfig& config = {});

}  // namespace ballfit::core
