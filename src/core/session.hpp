#pragma once

/// \file session.hpp
/// Staged detection engine: the pipeline of pipeline.hpp (measurements →
/// local MDS frames → UBF → IFF → grouping) decomposed into named stages
/// with typed, fingerprint-keyed artifacts that persist across runs.
///
/// Stage graph (artifact → consumers):
///
///   Measure   (NoisyDistanceModel + Localizer)   ← measurement_error, noise_seed
///     └─ Localize (per-node LocalFrame vector)   ← scope, alive mask
///          └─ UBF (per-node candidate flags)     ← every UbfConfig knob
///               └─ IFF (boundary flags)          ← iff.theta/ttl/use_message_passing
///                    └─ Group (BoundaryGroups)   ← iff.use_message_passing
///
/// Each stage caches its last artifact keyed by a fingerprint of exactly
/// the config fields and upstream artifacts it reads. A config sweep that
/// only changes UBF/IFF knobs therefore reuses the measurement model and
/// the local frames — the multi-second part of a run — and a change to
/// `measurement_error` invalidates only Measure → Localize and downstream.
/// Every artifact is a pure function of (network, alive set, config), so a
/// cached or partially recomputed run is bit-identical to a fresh one;
/// `detect_boundaries` is now literally one-shot `DetectionSession::run`.
///
/// Incremental re-detection: `apply(NetworkDelta)` marks nodes crashed,
/// revived, or moved. Frames are re-embedded only inside the two-hop reach
/// of the changed nodes (a frame's membership is a subset of its owner's
/// two-hop neighborhood), the ball test re-runs only there plus one extra
/// witness hop, and the cheap whole-network floods (IFF, grouping) always
/// re-run. This mirrors the paper's localized semantics: a crash is
/// invisible beyond the neighborhoods that could hear the node. A move
/// dirties both the node's old and new neighborhoods; the adjacency itself
/// is rebuilt locally by `net::Network::apply_moves`, which requires the
/// session to have been constructed with a mutable network.
///
/// Fault injection (`PipelineConfig::faults`) flows through the same
/// cached stage graph. The session keeps the fault config and a fault
/// clock; the config's crash schedule (`sim::death_rounds`) at that clock
/// is folded into the alive mask (via `delta_from_fault_state`), so fault
/// crashes and user deltas compose. The loss/duplication channel is a
/// stateless `sim::FaultModel` whose every draw is a pure function of the
/// config, so the IFF/grouping artifacts stay cacheable — keyed on the
/// channel fields, not on what ran before them.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/pipeline.hpp"
#include "localization/local_frame.hpp"

namespace ballfit::core {

/// A topology change to apply between runs: nodes that crashed (fail-stop,
/// silent), nodes that came back, and nodes that moved. Ids keep their
/// original network numbering — nodes do not renumber when a peer dies.
///
/// `DetectionSession::apply` validates the delta strictly: ids must be in
/// range, each list must be duplicate-free, crashed nodes must currently be
/// alive, and revived nodes must currently be dead. Moves may target any
/// valid node (alive or dead — a dead node's radio is silent but its
/// position still changes) and require the session to hold a mutable
/// network.
struct NetworkDelta {
  std::vector<net::NodeId> crashed;
  std::vector<net::NodeId> revived;
  std::vector<net::NodeMove> moved;
  bool empty() const {
    return crashed.empty() && revived.empty() && moved.empty();
  }
};

/// Per-stage cache accounting (counts since session construction).
struct StageCounters {
  std::uint64_t full_runs = 0;     ///< artifact recomputed from scratch
  std::uint64_t partial_runs = 0;  ///< recomputed on the dirty set only
  std::uint64_t cache_hits = 0;    ///< artifact reused as-is
};

struct SessionStats {
  StageCounters measure;   ///< noise model + localizer construction
  StageCounters localize;  ///< per-node frame embedding
  StageCounters ubf;       ///< ball test + witness cross-verification
  /// Always zero (the stage was retired); perfbench/src/workloads.cpp reads it.
  StageCounters escalate;
  StageCounters iff;       ///< isolated fragment filtering
  StageCounters group;     ///< boundary grouping
  /// Frames re-embedded by the last partial Localize run (count).
  std::size_t last_frames_rebuilt = 0;
  /// Nodes re-tested by the last partial UBF run (count).
  std::size_t last_nodes_retested = 0;
};

/// A detection session bound to one `net::Network`.
///
/// Not thread-safe: one session serves one caller at a time (the per-node
/// stages still parallelize internally per `PipelineConfig::threads`).
/// The network must outlive the session.
///
/// Fault injection (`PipelineConfig::faults`) runs through the same cached
/// stage graph as reliable runs. A run with an active fault config
/// installs it (a changed config — schedule order and repeats aside —
/// restarts the fault clock at 0) and folds the nodes its crash schedule
/// holds down at the clock into the alive mask before the stages execute;
/// fault casualties are attributed, so they compose with user-applied
/// deltas: a user revive of a fault casualty sticks until the next faulted
/// run or `advance_faults` re-syncs the schedule, and a reliable run
/// revives every remaining fault casualty — results stay pure functions of
/// (network, deltas, config, clock).
class DetectionSession {
 public:
  /// Observe-only binding: `apply` deltas may crash/revive but not move
  /// nodes (moves must rebuild adjacency, which needs a mutable network).
  explicit DetectionSession(const net::Network& network);
  /// Mutable binding: `apply` deltas may also move nodes; the session
  /// forwards them to `net::Network::apply_moves`. The caller must not
  /// mutate the network behind the session's back.
  explicit DetectionSession(net::Network& network);

  const net::Network& network() const { return *network_; }

  /// Runs the pipeline, reusing every cached artifact the fingerprints
  /// allow. Bit-identical to `detect_boundaries(network, config)` for
  /// reliable (fault-free) configs, including the obs span tree and
  /// pipeline.* counters of a fresh run for stages that execute.
  PipelineResult run(const PipelineConfig& config = {});

  /// Applies a crash/revive/move delta and dirties the affected
  /// neighborhoods. The next `run` re-embeds frames only within two hops
  /// of the changed nodes and re-tests only those plus their witnesses
  /// (three hops); moves dirty both the old and the new neighborhood.
  /// Throws `InvalidArgument` (before any state change) on out-of-range
  /// ids, duplicates within a list, crashing a dead node, reviving an
  /// alive node, or moves on a const-bound session.
  void apply(const NetworkDelta& delta);

  /// Advances the fault clock by `rounds` rounds and folds the nodes whose
  /// death round has now passed into the alive mask. Returns the delta that
  /// was folded in; `advance_faults(a)` then `advance_faults(b)` leaves the
  /// session as `advance_faults(a + b)` does. Requires an installed fault
  /// config (i.e. a preceding `run` with an active one); note a reliable
  /// run uninstalls it.
  NetworkDelta advance_faults(std::size_t rounds = 1);

  /// True when a fault config is currently installed (last run was
  /// faulted).
  bool has_fault_model() const { return fault_config_.has_value(); }

  bool is_alive(net::NodeId v) const { return alive_[v] != 0; }
  std::size_t num_alive() const { return num_alive_; }

  const SessionStats& stats() const { return stats_; }

 private:
  void run_ubf_stages(const PipelineConfig& config,
                      const UbfConfig& ubf_config, unsigned threads,
                      PipelineResult& result);
  /// IFF and grouping over the UBF artifact. The IFF key fingerprints the
  /// candidate flags themselves, so new UBF content re-keys the flood
  /// artifacts automatically.
  void run_filter_stages(const PipelineConfig& config, bool faulted,
                         unsigned threads, PipelineResult& result);
  /// Installs `config` (validated); a config that differs from the
  /// installed one restarts the fault clock.
  void install_faults(const sim::FaultConfig& config);
  /// Uninstalls the fault config and revives its remaining casualties.
  void release_faults();
  /// Folds the crash schedule at the fault clock into the alive mask
  /// (fault casualties only — user-crashed nodes are never revived by it).
  NetworkDelta sync_fault_state();
  /// Updates the alive mask + dirty sets for an already-validated diff.
  void apply_alive_diff(const std::vector<net::NodeId>& crashed,
                        const std::vector<net::NodeId>& revived);

  const net::Network* network_;
  /// Non-null iff the session was constructed with a mutable network;
  /// required by move deltas.
  net::Network* mutable_network_ = nullptr;
  std::vector<char> alive_;
  std::size_t num_alive_;
  /// Bumped by every effective `apply`; artifacts remember the epoch they
  /// were computed in.
  std::uint64_t alive_epoch_ = 0;
  /// Bumped by every move-containing `apply`: adjacency identity for the
  /// flood-stage keys (flags alone cannot see an edge change).
  std::uint64_t topology_version_ = 0;
  bool masked_ = false;  ///< any node currently dead

  // --- Fault state (installed by faulted runs).
  /// The installed config, its crash schedule sorted and deduplicated.
  std::optional<sim::FaultConfig> fault_config_;
  /// Rounds `advance_faults` has moved since the config was installed.
  std::size_t fault_clock_ = 0;
  /// Attribution: nodes dead because the crash schedule killed them (vs a
  /// user delta). Only these are revived when the schedule recedes.
  std::vector<char> fault_dead_;

  // --- Measure artifact. `localizer_` holds a pointer to `model_`; both
  // live in optional slots so re-emplacement reuses the session object.
  std::optional<net::NoisyDistanceModel> model_;
  std::optional<localization::Localizer> localizer_;
  std::uint64_t measure_fp_ = 0;
  bool measure_valid_ = false;
  /// Set by move deltas: the localizer's per-edge measurement cache mirrors
  /// the CSR layout, so it must be re-materialized against the mutated
  /// adjacency. The refresh keeps `measure_version_` — the noise law is
  /// unchanged and unmoved pairs draw bit-identical measurements, so frames
  /// outside the dirty set stay valid.
  bool measure_stale_ = false;
  /// Distinguishes successive measure artifacts in downstream keys.
  std::uint64_t measure_version_ = 0;

  // --- Localize artifact.
  std::vector<localization::LocalFrame> frames_;
  /// Work accounting of the build that produced `frames_` (cache hits
  /// republish it; true-coordinates runs leave it zeroed).
  localization::FrameBuildStats loc_stats_;
  std::uint64_t frames_key_ = 0;    ///< (measure_version, scope)
  std::uint64_t frames_epoch_ = 0;  ///< alive_epoch_ the frames reflect
  std::uint64_t frames_version_ = 0;
  bool frames_valid_ = false;
  /// Nodes whose frame must be re-embedded before next use (accumulated
  /// across `apply` calls, cleared by every Localize run).
  std::vector<char> frames_dirty_;

  // --- UBF artifact.
  std::vector<char> ubf_flags_;
  std::vector<bool> ubf_candidates_;  ///< published copy of ubf_flags_
  /// Obs-gated companion to ubf_flags_ (see core::vote_confidence): filled
  /// when `obs::enabled()` at compute time, cleared when the flags are
  /// recomputed without it. Deliberately NOT part of any fingerprint —
  /// it never influences flags, so cache identity ignores it.
  std::vector<float> ubf_confidence_;
  std::size_t frame_fallbacks_ = 0;
  /// Exact-hit key: core key + degenerate vote + frames_version (frame
  /// path) or alive epoch (true coordinates).
  std::uint64_t ubf_full_fp_ = 0;
  /// Partial-run key: the coordinate path plus everything the per-node
  /// decision reads except the degenerate vote (only degenerate nodes read
  /// it; those join every partial run) and the frame contents or positions
  /// (covered by dirty tracking).
  std::uint64_t ubf_core_fp_ = 0;
  bool ubf_valid_ = false;
  /// Nodes whose flag must be recomputed: three hops around every change,
  /// i.e. dirty frames + one witness hop (a superset of the two-hop
  /// positions a true-coordinates test reads).
  std::vector<char> ubf_dirty_;

  // --- IFF artifact.
  std::vector<bool> boundary_;
  /// Obs-gated per-node flood counts (iff_filter's counts_out); same
  /// lifecycle as ubf_confidence_ — telemetry, never a cache key.
  std::vector<std::uint32_t> iff_counts_;
  /// Cost of the flood, channel drops and duplicates included; cached
  /// with the artifact so a cache hit reports what a fresh run would.
  sim::RunStats iff_cost_;
  std::uint64_t iff_fp_ = 0;
  bool iff_valid_ = false;

  // --- Group artifact.
  BoundaryGroups groups_;
  sim::RunStats group_cost_;
  std::uint64_t group_fp_ = 0;
  bool group_valid_ = false;

  SessionStats stats_;
};

/// Diffs the crash schedule of `faults` at fault clock `round` against
/// the session's alive set: nodes down but still alive in the session
/// become `crashed`, nodes back up become `revived`. Bridges the sim fault
/// schedule into the incremental re-detection path; `DetectionSession`
/// uses it internally to fold fault crashes into the alive mask on every
/// faulted run. Throws `InvalidArgument` on an invalid config.
///
/// Output contract: both lists are sorted ascending, duplicate-free, and
/// never intersect (one ascending scan per node decides at most one
/// membership). The function is idempotent — applying the returned delta
/// and diffing again yields an empty delta, because the diff is exactly
/// the symmetric difference of the two states.
NetworkDelta delta_from_fault_state(const DetectionSession& session,
                                    const sim::FaultConfig& faults,
                                    std::size_t round);

}  // namespace ballfit::core
