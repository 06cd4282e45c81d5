#include "core/session.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "net/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ballfit::core {

namespace {

std::size_t count_marks(const std::vector<char>& mask) {
  return static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), static_cast<char>(1)));
}

void note_stage(const char* stage, const char* kind) {
  if (!obs::enabled()) return;
  obs::Registry::global()
      .counter(std::string("session.") + stage + "." + kind)
      .add(1);
}

/// Requires a duplicate-free id list (the delta validation contract).
void require_unique(std::vector<net::NodeId> ids, const char* what) {
  std::sort(ids.begin(), ids.end());
  BALLFIT_REQUIRE(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                  std::string("NetworkDelta: duplicate node id in ") + what);
}

}  // namespace

DetectionSession::DetectionSession(const net::Network& network)
    : network_(&network),
      alive_(network.num_nodes(), 1),
      num_alive_(network.num_nodes()),
      fault_dead_(network.num_nodes(), 0),
      frames_dirty_(network.num_nodes(), 0),
      ubf_dirty_(network.num_nodes(), 0) {}

DetectionSession::DetectionSession(net::Network& network)
    : DetectionSession(static_cast<const net::Network&>(network)) {
  mutable_network_ = &network;
}

void DetectionSession::apply(const NetworkDelta& delta) {
  const std::size_t n = network_->num_nodes();

  // --- Validate the whole delta before mutating anything, so a rejected
  // delta leaves the session (and the network) untouched.
  for (const net::NodeId v : delta.crashed) {
    BALLFIT_REQUIRE(v < n, "NetworkDelta: crashed node id out of range");
    BALLFIT_REQUIRE(alive_[v] != 0,
                    "NetworkDelta: node " + std::to_string(v) +
                        " is already dead — cannot crash it again");
  }
  for (const net::NodeId v : delta.revived) {
    BALLFIT_REQUIRE(v < n, "NetworkDelta: revived node id out of range");
    BALLFIT_REQUIRE(alive_[v] == 0,
                    "NetworkDelta: node " + std::to_string(v) +
                        " is alive — cannot revive it");
  }
  require_unique(delta.crashed, "crashed");
  require_unique(delta.revived, "revived");
  std::vector<net::NodeId> moved;
  moved.reserve(delta.moved.size());
  for (const net::NodeMove& m : delta.moved) {
    BALLFIT_REQUIRE(m.node < n, "NetworkDelta: moved node id out of range");
    moved.push_back(m.node);
  }
  require_unique(moved, "moved");
  BALLFIT_REQUIRE(delta.moved.empty() || mutable_network_ != nullptr,
                  "NetworkDelta contains moves but the session observes a "
                  "const network — construct the session with a mutable "
                  "net::Network to enable node motion");
  if (delta.empty()) return;

  // A move changes which nodes are within reach at all, so its dirty set
  // is marked on BOTH the pre-move and the post-move adjacency: every
  // changed frame input involves the moved node under one of the two.
  if (!moved.empty()) {
    mark_dirty(moved);
    mutable_network_->apply_moves(delta.moved);
    ++topology_version_;
    mark_dirty(moved);
    if (obs::enabled()) {
      obs::Registry::global().counter("session.delta.moved").add(moved.size());
    }
  }
  apply_alive_diff(delta.crashed, delta.revived);
}

void DetectionSession::mark_dirty(const std::vector<net::NodeId>& seeds) {
  // A frame's membership is a subset of its owner's two-hop neighborhood,
  // so only frames within two hops of a changed node can change; a node's
  // UBF flag additionally reads its one-hop witnesses' frames, adding one
  // hop. The reach is computed on the full adjacency (conservative
  // superset of any masked reach).
  if (frames_key_) net::mark_k_hop(*network_, seeds, 2, frames_dirty_);
  if (ubf_key_) net::mark_k_hop(*network_, seeds, 3, ubf_dirty_);
  ++alive_epoch_;
}

void DetectionSession::apply_alive_diff(
    const std::vector<net::NodeId>& crashed,
    const std::vector<net::NodeId>& revived) {
  if (crashed.empty() && revived.empty()) return;
  std::vector<net::NodeId> seeds;
  seeds.reserve(crashed.size() + revived.size());
  seeds.insert(seeds.end(), crashed.begin(), crashed.end());
  seeds.insert(seeds.end(), revived.begin(), revived.end());
  mark_dirty(seeds);
  for (const net::NodeId v : crashed) {
    alive_[v] = 0;
    --num_alive_;
  }
  for (const net::NodeId v : revived) {
    alive_[v] = 1;
    ++num_alive_;
    // A revive clears the fault attribution: a user-revived casualty stays
    // up until the fault clock advances or the schedule is re-synced.
    fault_dead_[v] = 0;
  }
  masked_ = num_alive_ < network_->num_nodes();
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("session.delta.crashed").add(crashed.size());
    reg.counter("session.delta.revived").add(revived.size());
  }
}

void DetectionSession::install_faults(const sim::FaultConfig& config) {
  // Schedule order and repeats do not change a death round, so a permuted
  // or duplicated schedule is the installed config and keeps the clock.
  sim::FaultConfig normalized = config;
  auto& schedule = normalized.crash_at_round;
  std::sort(schedule.begin(), schedule.end());
  schedule.erase(std::unique(schedule.begin(), schedule.end()),
                 schedule.end());
  if (fault_config_ == normalized) return;
  fault_config_ = std::move(normalized);
  fault_clock_ = 0;
}

void DetectionSession::release_faults() {
  if (!fault_config_.has_value()) return;
  // Fault casualties do not outlive their config: a reliable run sees the
  // network the user deltas alone describe.
  std::vector<net::NodeId> revived;
  for (net::NodeId v = 0; v < fault_dead_.size(); ++v) {
    if (fault_dead_[v] != 0) {
      revived.push_back(v);
      fault_dead_[v] = 0;
    }
  }
  fault_config_.reset();
  fault_clock_ = 0;
  apply_alive_diff({}, revived);
}

NetworkDelta DetectionSession::sync_fault_state() {
  NetworkDelta delta =
      delta_from_fault_state(*this, *fault_config_, fault_clock_);
  // The schedule only speaks for its own casualties: a node the user
  // crashed is "up" as far as the schedule knows, but must stay down here.
  std::erase_if(delta.revived, [&](net::NodeId v) {
    return fault_dead_[v] == 0;
  });
  for (const net::NodeId v : delta.crashed) fault_dead_[v] = 1;
  for (const net::NodeId v : delta.revived) fault_dead_[v] = 0;
  apply_alive_diff(delta.crashed, delta.revived);
  return delta;
}

NetworkDelta DetectionSession::advance_faults(std::size_t rounds) {
  BALLFIT_REQUIRE(fault_config_.has_value(),
                  "advance_faults: no fault config installed — run with an "
                  "active fault config first (a reliable run uninstalls it)");
  fault_clock_ += rounds;
  return sync_fault_state();
}

void DetectionSession::run_ubf_stages(const PipelineConfig& config,
                                      const UbfConfig& ubf_config,
                                      const net::NoisyDistanceModel* model,
                                      PipelineResult& result) {
  const std::size_t n = network_->num_nodes();
  const std::vector<char>* alive_mask = masked_ ? &alive_ : nullptr;
  // The true-coordinates path reads true positions: it has no Localize
  // artifact, and its UBF artifact has no frames key. Both paths share the
  // UBF block below.
  const bool true_coords = model == nullptr;

  BALLFIT_SPAN("ubf");

  // --- Localize: one frame per node. Keyed on everything the localizer
  // reads plus the alive epoch; an epoch mismatch with a matching key
  // re-embeds the dirty neighborhoods only. The key holds the whole
  // localizer config, so cached frames can never mix equivalence tiers.
  std::optional<FramesKey> frames_key;
  if (!true_coords) {
    const bool two_hop =
        ubf_config.scope == UbfConfig::EmptinessScope::kTwoHop;
    frames_key = FramesKey{config.measurement_error, config.noise_seed,
                           config.localizer, two_hop};
    if (frames_key_ == frames_key && frames_epoch_ == alive_epoch_) {
      ++stats_.localize.cache_hits;
      note_stage("localize", "cache_hits");
    } else {
      BALLFIT_SPAN("mds_frames");
      // The localizer draws every edge's measurement up front
      // (`net::EdgeMeasurementCache`) over the current adjacency. The noise
      // draw is keyed on (seed, node-id pair), so after a move every
      // unmoved pair measures bit-identical and frames outside the dirty
      // set stay valid.
      const localization::Localizer localizer = [&] {
        BALLFIT_SPAN("measurement");
        return localization::Localizer(*network_, *model, config.localizer);
      }();
      const localization::FrameScope scope =
          two_hop ? localization::FrameScope::kTwoHop
                  : localization::FrameScope::kOneHop;
      // Same key + older epoch: the frames differ only inside the dirty
      // neighborhoods accumulated by apply(). Each frame is a pure function
      // of (network, model, scope, alive), so the partial rebuild is
      // bit-identical to a full one.
      if (frames_key_ == frames_key) {
        stats_.last_frames_rebuilt = count_marks(frames_dirty_);
        // A partial rebuild refreshes only the dirty frames, so its build
        // stats describe a fragment; fold them into the artifact's totals
        // rather than replacing them.
        localization::FrameBuildStats partial;
        localization::build_all_frames(localizer, scope, frames_,
                                       config.threads, alive_mask,
                                       &frames_dirty_, &partial);
        loc_stats_.merge(partial);
        ++stats_.localize.partial_runs;
        note_stage("localize", "partial_runs");
        if (obs::enabled()) {
          obs::Registry::global()
              .gauge("session.frames_rebuilt")
              .set(static_cast<double>(stats_.last_frames_rebuilt));
        }
      } else {
        frames_.clear();
        loc_stats_ = {};
        localization::build_all_frames(localizer, scope, frames_,
                                       config.threads, alive_mask, nullptr,
                                       &loc_stats_);
        ++stats_.localize.full_runs;
        note_stage("localize", "full_runs");
      }
      frames_key_ = frames_key;
      frames_epoch_ = alive_epoch_;
      std::fill(frames_dirty_.begin(), frames_dirty_.end(), 0);
    }
  }

  // Nodes that vote the degenerate default instead of testing: no usable
  // frame, or fewer than kMinBallTestMembers alive members on true
  // coordinates.
  const auto degenerate = [&](std::size_t i) {
    if (!true_coords) return !frames_[i].ok;
    std::size_t members = 1;
    for (const net::NodeId v :
         network_->neighbors(static_cast<net::NodeId>(i))) {
      members += alive_[v] != 0 ? 1 : 0;
    }
    return members < kMinBallTestMembers;
  };
  // Fallback count is a pure function of (inputs, alive): the nodes that
  // would vote the degenerate default. Recounted here so cache hits report
  // the same value a fresh run would.
  frame_fallbacks_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (alive_[i] != 0 && degenerate(i)) ++frame_fallbacks_;
  }

  // --- UBF ball test (+ witness cross-verification on the frame path).
  UbfKey key{{frames_key, ubf_config},
             ubf_config.degenerate_is_boundary,
             alive_epoch_};
  key.core.config.degenerate_is_boundary = false;
  if (ubf_key_ == key) {
    ++stats_.ubf.cache_hits;
    note_stage("ubf", "cache_hits");
  } else {
    const UnitBallFitting ubf(*network_, ubf_config);
    const std::vector<localization::LocalFrame>* frames =
        true_coords ? nullptr : &frames_;
    const bool partial = ubf_key_ && ubf_key_->core == key.core &&
                         ubf_flags_.size() == n;
    // Obs-gated confidence companion. A partial run can only update the
    // entries it re-tests, so it needs a full-sized carry-over; when the
    // previous artifact had no confidence (obs was off), start from zeros
    // — the untested remainder reads 0 ("not scored"), never garbage.
    std::vector<float>* conf_out = nullptr;
    if (obs::enabled()) {
      if (ubf_confidence_.size() != n) ubf_confidence_.assign(n, 0.0f);
      conf_out = &ubf_confidence_;
    } else {
      ubf_confidence_.clear();
    }
    if (partial) {
      // Re-test the dirty neighborhoods plus every alive degenerate node —
      // the only readers of the degenerate vote, which the core key
      // deliberately omits.
      for (std::size_t i = 0; i < n; ++i) {
        if (alive_[i] != 0 && degenerate(i)) ubf_dirty_[i] = 1;
      }
      stats_.last_nodes_retested = count_marks(ubf_dirty_);
      ubf.update_flags(frames, ubf_flags_, alive_mask, &ubf_dirty_,
                       config.threads, conf_out);
      ++stats_.ubf.partial_runs;
      note_stage("ubf", "partial_runs");
      if (obs::enabled()) {
        obs::Registry::global()
            .gauge("session.nodes_retested")
            .set(static_cast<double>(stats_.last_nodes_retested));
      }
    } else {
      ubf_flags_.assign(n, 0);
      ubf.update_flags(frames, ubf_flags_, alive_mask, /*run_mask=*/nullptr,
                       config.threads, conf_out);
      ++stats_.ubf.full_runs;
      note_stage("ubf", "full_runs");
    }
    ubf_candidates_.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      ubf_candidates_[i] = ubf_flags_[i] != 0;
    }
    ubf_key_ = std::move(key);
    std::fill(ubf_dirty_.begin(), ubf_dirty_.end(), 0);
  }
  result.ubf_candidates = ubf_candidates_;
  result.ubf_confidence = ubf_confidence_;
  result.frame_fallbacks = frame_fallbacks_;
  if (!true_coords) result.localize_stats = loc_stats_;
}

void DetectionSession::run_filter_stages(const PipelineConfig& config,
                                         bool faulted,
                                         PipelineResult& result) {
  // --- IFF: whole-network flood over the candidate set (cheap relative
  // to localization; no partial variant). Keyed on the candidate flags,
  // the IFF knobs, the adjacency version, and — under faults — the
  // channel. The channel is stateless, so the artifact is a pure function
  // of that key regardless of what ran before it.
  std::optional<sim::FaultModel> fault_model;
  std::optional<Channel> channel;
  sim::ProtocolOptions proto{};
  if (faulted) {
    const sim::FaultConfig& f = *config.faults;
    fault_model.emplace(f);
    proto.faults = &*fault_model;
    proto.repeat = config.flood_repeat;
    channel = Channel{f.seed, f.drop_probability, f.link_loss_max,
                      f.duplicate_probability, config.flood_repeat};
  }
  {
    IffKey key{ubf_candidates_, config.iff, topology_version_, channel};
    if (iff_key_ == key) {
      ++stats_.iff.cache_hits;
      note_stage("iff", "cache_hits");
    } else {
      BALLFIT_SPAN("iff");
      iff_cost_ = {};
      std::vector<std::uint32_t>* counts_out =
          obs::enabled() ? &iff_counts_ : nullptr;
      if (counts_out == nullptr) iff_counts_.clear();
      boundary_ = iff_filter(*network_, ubf_candidates_, config.iff,
                             &iff_cost_, proto, counts_out, config.threads);
      iff_key_ = std::move(key);
      ++stats_.iff.full_runs;
      note_stage("iff", "full_runs");
    }
    result.boundary = boundary_;
    result.iff_cost = iff_cost_;
    if (faulted) {
      result.fault_stats.dropped += iff_cost_.dropped;
      result.fault_stats.duplicated += iff_cost_.duplicated;
    }
  }

  // --- Grouping (optional stage). Keyed like IFF: the boundary flags, the
  // message-passing switch, the adjacency version, and the fault channel.
  if (config.group) {
    GroupKey key{boundary_, config.iff.use_message_passing,
                 topology_version_, channel};
    if (group_key_ == key) {
      ++stats_.group.cache_hits;
      note_stage("group", "cache_hits");
    } else {
      BALLFIT_SPAN("grouping");
      group_cost_ = {};
      groups_ = group_boundaries(*network_, boundary_,
                                 config.iff.use_message_passing,
                                 &group_cost_, proto);
      group_key_ = std::move(key);
      ++stats_.group.full_runs;
      note_stage("group", "full_runs");
    }
    result.groups = groups_;
    result.grouping_cost = group_cost_;
    if (faulted) {
      result.fault_stats.dropped += group_cost_.dropped;
      result.fault_stats.duplicated += group_cost_.duplicated;
    }

    // Per-boundary quality: cheap pure-function scoring over the cached
    // artifacts, recomputed whenever someone is observing. Components
    // whose inputs this run didn't produce (confidence/counts computed
    // under an earlier obs-off run and cached away) drop out gracefully.
    if (obs::enabled()) {
      result.group_quality = score_boundaries(
          groups_, config.iff.theta, ubf_confidence_, iff_counts_);
      obs::Registry& reg = obs::Registry::global();
      obs::Histogram& h_quality = reg.histogram(
          "group.quality", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9});
      obs::Histogram& h_size = reg.histogram(
          "group.size", {10, 20, 50, 100, 200, 500, 1000, 2000});
      for (const BoundaryQuality& q : result.group_quality) {
        h_quality.observe(q.score);
        h_size.observe(static_cast<double>(q.size));
      }
    }
  }
}

PipelineResult DetectionSession::run(const PipelineConfig& config) {
  BALLFIT_SPAN("pipeline");
  const std::size_t n = network_->num_nodes();

  // The measurement model checks `measurement_error` itself; build it
  // before the fault state below, so a bad value leaves the session as it
  // was.
  std::optional<net::NoisyDistanceModel> model;
  if (!config.use_true_coordinates) {
    model.emplace(*network_, config.measurement_error, config.noise_seed);
  }

  // Fold the crash schedule into the alive mask before any stage runs:
  // crashes act through the same masked kernels as user deltas, so faults
  // and `apply` history compose in one engine. An inert (all-zero) config
  // is the reliable path — the hook alone must not change any output bit.
  // A bad config is rejected before any session state changes.
  if (config.faults.has_value()) sim::validate(*config.faults, n);
  const bool faulted = config.faults.has_value() && config.faults->any();
  if (faulted) {
    install_faults(*config.faults);
    sync_fault_state();
  } else {
    release_faults();
  }

  // Nodes know their ranging error specification; the UBF emptiness slack
  // scales with it unless the caller already set a hint explicitly.
  UbfConfig ubf_config = config.ubf;
  if (ubf_config.measurement_error_hint == 0.0 &&
      !config.use_true_coordinates) {
    ubf_config.measurement_error_hint = config.measurement_error;
  }
  // A crashed or fault-injected topology gets a conservative degenerate
  // vote: a crash-starved neighborhood must not promote itself to
  // "boundary" by starvation alone.
  if (masked_ || faulted) ubf_config.degenerate_is_boundary = false;

  PipelineResult result;
  run_ubf_stages(config, ubf_config, model ? &*model : nullptr, result);
  run_filter_stages(config, faulted, result);

  if (masked_) result.crashed_nodes = n - num_alive_;
  if (faulted) result.fault_stats.crashed = count_marks(fault_dead_);

  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("pipeline.runs").add(1);
    reg.counter("pipeline.nodes").add(n);
    reg.counter("pipeline.ubf_candidates").add(result.num_candidates());
    reg.counter("pipeline.boundary_nodes").add(result.num_boundary());
    reg.counter("pipeline.frame_fallbacks").add(result.frame_fallbacks);
    if (masked_) {
      reg.counter("pipeline.crashed_nodes").add(result.crashed_nodes);
    }
    if (faulted) {
      reg.counter("pipeline.dropped").add(result.fault_stats.dropped);
      reg.counter("pipeline.duplicated").add(result.fault_stats.duplicated);
    }
  }
  return result;
}

NetworkDelta delta_from_fault_state(const DetectionSession& session,
                                    const sim::FaultConfig& faults,
                                    std::size_t round) {
  const std::size_t n = session.network().num_nodes();
  const std::vector<std::size_t> death = sim::death_rounds(faults, n);
  NetworkDelta delta;
  for (net::NodeId v = 0; v < n; ++v) {
    const bool down = death[v] <= round;
    if (down && session.is_alive(v)) {
      delta.crashed.push_back(v);
    } else if (!down && !session.is_alive(v)) {
      delta.revived.push_back(v);
    }
  }
  return delta;
}

}  // namespace ballfit::core
