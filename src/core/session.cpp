#include "core/session.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "net/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ballfit::core {

namespace {

/// FNV-1a accumulator for stage fingerprints. Doubles are mixed by bit
/// pattern, so a fingerprint match means the inputs were byte-identical —
/// exactly the contract the bit-identity guarantee needs.
class Fingerprint {
 public:
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void boolean(bool v) { u64(v ? 1u : 0u); }
  void flags(const std::vector<bool>& f) {
    u64(f.size());
    std::uint64_t acc = 0;
    int bits = 0;
    for (const bool x : f) {
      acc = (acc << 1) | (x ? 1u : 0u);
      if (++bits == 64) {
        u64(acc);
        acc = 0;
        bits = 0;
      }
    }
    if (bits > 0) u64(acc);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

/// Every UbfConfig field the per-node ball test reads, except the
/// degenerate vote — that one only reaches nodes without a usable frame,
/// which join every partial run, so it lives in the exact-hit key only.
void mix_ubf_core(Fingerprint& fp, const UbfConfig& c) {
  fp.f64(c.epsilon);
  fp.f64(c.radius_override);
  fp.f64(c.measurement_error_hint);
  fp.f64(c.noise_margin_factor);
  fp.u64(c.min_empty_balls);
  fp.u64(c.scope == UbfConfig::EmptinessScope::kTwoHop ? 1u : 0u);
}

/// Every LocalizerConfig field. The whole config keys the Measure artifact
/// (the localizer object embeds it), so cached frames can never mix
/// equivalence tiers.
void mix_localizer_config(Fingerprint& fp,
                          const localization::LocalizerConfig& c) {
  fp.u64(static_cast<std::uint64_t>(c.tier));
}

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
  {
    std::vector<net::NodeId> moved_ids;
    moved_ids.reserve(delta.moved.size());
    for (const net::NodeMove& m : delta.moved) {
      BALLFIT_REQUIRE(m.node < n, "NetworkDelta: moved node id out of range");
      moved_ids.push_back(m.node);
    }
    require_unique(std::move(moved_ids), "moved");
  }
  BALLFIT_REQUIRE(delta.moved.empty() || mutable_network_ != nullptr,
                  "NetworkDelta contains moves but the session observes a "
                  "const network — construct the session with a mutable "
                  "net::Network to enable node motion");
  if (delta.empty()) return;

  // A frame's membership is a subset of its owner's two-hop neighborhood,
  // so only frames within two hops of a changed node can change; a node's
  // UBF flag additionally reads its one-hop witnesses' frames, adding one
  // hop. The reach is computed on the full adjacency (conservative
  // superset of any masked reach). A move changes which nodes are within
  // reach at all, so its dirty set is marked on BOTH the pre-move and the
  // post-move adjacency: every changed frame input involves the moved node
  // under one of the two.
  std::vector<net::NodeId> seeds;
  seeds.reserve(delta.crashed.size() + delta.revived.size() +
                delta.moved.size());
  if (!delta.moved.empty()) {
    for (const net::NodeMove& m : delta.moved) seeds.push_back(m.node);
    if (frames_valid_) net::mark_k_hop(*network_, seeds, 2, frames_dirty_);
    if (ubf_valid_) net::mark_k_hop(*network_, seeds, 3, ubf_dirty_);
    mutable_network_->apply_moves(delta.moved);
    ++topology_version_;
    measure_stale_ = true;
  }
  seeds.insert(seeds.end(), delta.crashed.begin(), delta.crashed.end());
  seeds.insert(seeds.end(), delta.revived.begin(), delta.revived.end());
  if (frames_valid_) net::mark_k_hop(*network_, seeds, 2, frames_dirty_);
  if (ubf_valid_) net::mark_k_hop(*network_, seeds, 3, ubf_dirty_);

  for (const net::NodeId v : delta.crashed) {
    alive_[v] = 0;
    --num_alive_;
  }
  for (const net::NodeId v : delta.revived) {
    alive_[v] = 1;
    ++num_alive_;
    // A user revive of a fault casualty clears the attribution: the node
    // stays up until the fault clock advances or the model is re-synced.
    fault_dead_[v] = 0;
  }
  ++alive_epoch_;
  masked_ = num_alive_ < n;

  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("session.delta.crashed").add(delta.crashed.size());
    reg.counter("session.delta.revived").add(delta.revived.size());
    reg.counter("session.delta.moved").add(delta.moved.size());
  }
}

void DetectionSession::apply_alive_diff(
    const std::vector<net::NodeId>& crashed,
    const std::vector<net::NodeId>& revived) {
  if (crashed.empty() && revived.empty()) return;
  std::vector<net::NodeId> seeds;
  seeds.reserve(crashed.size() + revived.size());
  seeds.insert(seeds.end(), crashed.begin(), crashed.end());
  seeds.insert(seeds.end(), revived.begin(), revived.end());
  if (frames_valid_) net::mark_k_hop(*network_, seeds, 2, frames_dirty_);
  if (ubf_valid_) net::mark_k_hop(*network_, seeds, 3, ubf_dirty_);
  for (const net::NodeId v : crashed) {
    alive_[v] = 0;
    --num_alive_;
  }
  for (const net::NodeId v : revived) {
    alive_[v] = 1;
    ++num_alive_;
  }
  ++alive_epoch_;
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
                                      unsigned threads,
                                      PipelineResult& result) {
  const std::size_t n = network_->num_nodes();
  const std::vector<char>* alive_mask = masked_ ? &alive_ : nullptr;
  // The true-coordinates path reads true positions: it has no Measure or
  // Localize artifact, and its UBF artifact is keyed on the alive epoch
  // instead of the frames version. Both paths share the UBF block below.
  const bool true_coords = config.use_true_coordinates;

  // --- Measure: noise model + localizer (includes the per-edge
  // measurement cache). Keyed on (measurement_error, noise_seed) plus the
  // full localizer config — the localizer object embeds it, and every
  // downstream frame artifact chains off `measure_version_`, so runs at
  // different equivalence tiers can never share cached frames.
  if (!true_coords) {
    Fingerprint fp;
    fp.f64(config.measurement_error);
    fp.u64(config.noise_seed);
    mix_localizer_config(fp, config.localizer);
    if (measure_valid_ && measure_fp_ == fp.value() && !measure_stale_) {
      ++stats_.measure.cache_hits;
      note_stage("measure", "cache_hits");
    } else if (measure_valid_ && measure_fp_ == fp.value()) {
      // Same noise law, moved geometry: re-materialize the per-edge cache
      // against the rebuilt CSR adjacency. The noise draw is keyed on
      // (seed, node-id pair), so every unmoved pair measures bit-identical
      // — measure_version_ stays put and frames outside the move's dirty
      // set remain valid.
      BALLFIT_SPAN("measurement");
      model_.emplace(*network_, config.measurement_error, config.noise_seed);
      localizer_.emplace(*network_, *model_, config.localizer);
      measure_stale_ = false;
      ++stats_.measure.partial_runs;
      note_stage("measure", "partial_runs");
    } else {
      BALLFIT_SPAN("measurement");
      model_.emplace(*network_, config.measurement_error, config.noise_seed);
      localizer_.emplace(*network_, *model_, config.localizer);
      measure_fp_ = fp.value();
      measure_valid_ = true;
      measure_stale_ = false;
      ++measure_version_;  // downstream keys reference the new artifact
      ++stats_.measure.full_runs;
      note_stage("measure", "full_runs");
    }
  }

  BALLFIT_SPAN("ubf");

  // --- Localize: one frame per node. Keyed on (measure artifact, scope)
  // plus the alive epoch; an epoch mismatch with a matching key re-embeds
  // the dirty neighborhoods only.
  if (!true_coords) {
    const bool two_hop =
        ubf_config.scope == UbfConfig::EmptinessScope::kTwoHop;
    std::uint64_t frames_key = 0;
    {
      Fingerprint fp;
      fp.u64(measure_version_);
      fp.boolean(two_hop);
      frames_key = fp.value();
    }
    if (frames_valid_ && frames_key_ == frames_key &&
        frames_epoch_ == alive_epoch_) {
      ++stats_.localize.cache_hits;
      note_stage("localize", "cache_hits");
    } else {
      BALLFIT_SPAN("mds_frames");
      const localization::FrameScope scope =
          two_hop ? localization::FrameScope::kTwoHop
                  : localization::FrameScope::kOneHop;
      // Same key + older epoch: the frames differ only inside the dirty
      // neighborhoods accumulated by apply(). Each frame is a pure function
      // of (network, model, scope, alive), so the partial rebuild is
      // bit-identical to a full one.
      if (frames_valid_ && frames_key_ == frames_key) {
        stats_.last_frames_rebuilt = count_marks(frames_dirty_);
        // A partial rebuild refreshes only the dirty frames, so its build
        // stats describe a fragment; fold them into the artifact's totals
        // rather than replacing them.
        localization::FrameBuildStats partial;
        localization::build_all_frames(*localizer_, scope, frames_, threads,
                                       alive_mask, &frames_dirty_, &partial);
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
        localization::build_all_frames(*localizer_, scope, frames_, threads,
                                       alive_mask, nullptr, &loc_stats_);
        ++stats_.localize.full_runs;
        note_stage("localize", "full_runs");
      }
      frames_key_ = frames_key;
      frames_epoch_ = alive_epoch_;
      frames_valid_ = true;
      ++frames_version_;
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
  Fingerprint core;
  core.u64(true_coords ? 2 : 1);  // coordinate-path tag
  if (!true_coords) core.u64(frames_key_);
  mix_ubf_core(core, ubf_config);
  Fingerprint full;
  full.u64(core.value());
  full.boolean(ubf_config.degenerate_is_boundary);
  full.u64(true_coords ? alive_epoch_ : frames_version_);
  if (ubf_valid_ && ubf_full_fp_ == full.value()) {
    ++stats_.ubf.cache_hits;
    note_stage("ubf", "cache_hits");
  } else {
    const UnitBallFitting ubf(*network_, ubf_config);
    const std::vector<localization::LocalFrame>* frames =
        true_coords ? nullptr : &frames_;
    const bool partial = ubf_valid_ && ubf_core_fp_ == core.value() &&
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
      ubf.update_flags(frames, ubf_flags_, alive_mask, &ubf_dirty_, threads,
                       conf_out);
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
                       threads, conf_out);
      ++stats_.ubf.full_runs;
      note_stage("ubf", "full_runs");
    }
    ubf_candidates_.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      ubf_candidates_[i] = ubf_flags_[i] != 0;
    }
    ubf_full_fp_ = full.value();
    ubf_core_fp_ = core.value();
    ubf_valid_ = true;
    std::fill(ubf_dirty_.begin(), ubf_dirty_.end(), 0);
  }
  result.ubf_candidates = ubf_candidates_;
  result.ubf_confidence = ubf_confidence_;
  result.frame_fallbacks = frame_fallbacks_;
  if (!true_coords) result.localize_stats = loc_stats_;
}

void DetectionSession::run_filter_stages(const PipelineConfig& config,
                                         bool faulted, unsigned threads,
                                         PipelineResult& result) {
  // --- IFF: whole-network flood over the candidate set (cheap relative
  // to localization; no partial variant). Keyed on the candidate flags,
  // the IFF knobs, the adjacency version (a move changes flood paths even
  // when the flags do not), and — under faults — the channel fields plus
  // the retransmission count. The channel is stateless, so the artifact is
  // a pure function of that key regardless of what ran before it.
  std::optional<sim::FaultModel> channel;
  sim::ProtocolOptions proto{};
  if (faulted) {
    channel.emplace(*config.faults);
    proto.faults = &*channel;
    proto.repeat = config.flood_repeat;
  }
  const auto mix_channel = [&](Fingerprint& fp) {
    fp.boolean(faulted);
    if (!faulted) return;
    fp.u64(config.faults->seed);
    fp.f64(config.faults->drop_probability);
    fp.f64(config.faults->link_loss_max);
    fp.f64(config.faults->duplicate_probability);
    fp.u64(config.flood_repeat);
  };
  {
    Fingerprint fp;
    fp.flags(ubf_candidates_);
    fp.u64(config.iff.theta);
    fp.u64(config.iff.ttl);
    fp.boolean(config.iff.use_message_passing);
    fp.u64(topology_version_);
    mix_channel(fp);
    if (iff_valid_ && iff_fp_ == fp.value()) {
      ++stats_.iff.cache_hits;
      note_stage("iff", "cache_hits");
    } else {
      BALLFIT_SPAN("iff");
      iff_cost_ = {};
      std::vector<std::uint32_t>* counts_out =
          obs::enabled() ? &iff_counts_ : nullptr;
      if (counts_out == nullptr) iff_counts_.clear();
      boundary_ = iff_filter(*network_, ubf_candidates_, config.iff,
                             &iff_cost_, proto, counts_out, threads);
      iff_fp_ = fp.value();
      iff_valid_ = true;
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
    Fingerprint fp;
    fp.flags(boundary_);
    fp.boolean(config.iff.use_message_passing);
    fp.u64(topology_version_);
    mix_channel(fp);
    if (group_valid_ && group_fp_ == fp.value()) {
      ++stats_.group.cache_hits;
      note_stage("group", "cache_hits");
    } else {
      BALLFIT_SPAN("grouping");
      group_cost_ = {};
      groups_ = group_boundaries(*network_, boundary_,
                                 config.iff.use_message_passing,
                                 &group_cost_, proto);
      group_fp_ = fp.value();
      group_valid_ = true;
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
  const unsigned threads =
      config.threads == 0 ? default_threads() : config.threads;

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
  run_ubf_stages(config, ubf_config, threads, result);
  run_filter_stages(config, faulted, threads, result);

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
