#include "mesh/surface_stage.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ballfit::mesh {

namespace {

/// Folds the mesh knobs into the caller's result key (FNV-1a, matching the
/// session's fingerprint discipline).
std::uint64_t stage_key(std::uint64_t result_key, const MeshConfig& c) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(result_key);
  mix(c.landmark_spacing);
  mix(c.min_group_size);
  return h;
}

}  // namespace

SurfaceStage::SurfaceStage(MeshConfig config) : config_(config) {}

const SurfaceResult& SurfaceStage::run(const core::DetectionSession& session,
                                       const core::PipelineResult& result) {
  return run(session.network(), result.boundary, result.groups,
             session.result_fingerprint());
}

const SurfaceResult& SurfaceStage::run(const net::Network& network,
                                       const std::vector<bool>& boundary,
                                       const core::BoundaryGroups& groups,
                                       std::uint64_t result_key) {
  const std::uint64_t key = stage_key(result_key, config_);
  if (valid_ && key_ == key) {
    ++cache_hits_;
    if (obs::enabled()) {
      obs::Registry::global().counter("session.surface.cache_hits").add(1);
    }
    return surfaces_;
  }
  {
    BALLFIT_SPAN("surface");
    surfaces_ = build_surfaces(network, boundary, groups, config_);
  }
  key_ = key;
  valid_ = true;
  ++full_runs_;
  if (obs::enabled()) {
    obs::Registry::global().counter("session.surface.full_runs").add(1);
  }
  return surfaces_;
}

}  // namespace ballfit::mesh
