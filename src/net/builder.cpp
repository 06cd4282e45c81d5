#include "net/builder.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/assert.hpp"
#include "model/sampler.hpp"
#include "net/graph.hpp"
#include "obs/metrics.hpp"

namespace ballfit::net {

using geom::Vec3;

Network build_network(const model::Shape& shape, const BuildOptions& options,
                      Rng& rng, BuildDiagnostics* diagnostics) {
  BALLFIT_REQUIRE(options.surface_count + options.interior_count > 0,
                  "network needs at least one node");

  std::vector<Vec3> positions =
      model::sample_surface(shape, options.surface_count, rng);
  std::vector<bool> truth(positions.size(), true);

  std::vector<Vec3> interior = model::sample_volume(
      shape, options.interior_count, rng, options.interior_margin);
  positions.insert(positions.end(), interior.begin(), interior.end());
  truth.resize(positions.size(), false);

  Network net(std::move(positions), std::move(truth), options.radio_range,
              options.threads);

  std::size_t dropped = 0;
  if (options.keep_largest_component && net.num_nodes() > 0) {
    const Components comps = connected_components(net);
    if (comps.count() > 1) {
      const std::size_t biggest = static_cast<std::size_t>(
          std::max_element(comps.sizes.begin(), comps.sizes.end()) -
          comps.sizes.begin());
      std::vector<char> keep(net.num_nodes(), 0);
      for (NodeId i = 0; i < net.num_nodes(); ++i) {
        keep[i] = comps.component[i] == biggest ? 1 : 0;
      }
      dropped = net.num_nodes() - comps.sizes[biggest];
      net = net.restricted_to(keep);
    }
  }

  if (diagnostics != nullptr) {
    diagnostics->requested_nodes =
        options.surface_count + options.interior_count;
    diagnostics->kept_nodes = net.num_nodes();
    diagnostics->dropped_disconnected = dropped;
    diagnostics->average_degree = net.average_degree();
    diagnostics->min_degree = net.min_degree();
    diagnostics->max_degree = net.max_degree();
  }

  if (obs::enabled()) {
    // Degree distribution of the synthesized network — the density knob
    // every detection-rate claim is conditioned on (paper: avg degree 18.5).
    obs::Histogram& degrees = obs::Registry::global().histogram(
        "net.degree", {4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 64});
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      degrees.observe(static_cast<double>(net.degree(v)));
    }
    obs::Registry::global().counter("net.nodes_built").add(net.num_nodes());
    obs::Registry::global()
        .counter("net.nodes_dropped_disconnected")
        .add(dropped);
  }
  return net;
}

BuildOptions options_for_target_degree(const model::Shape& shape,
                                       double target_average_degree,
                                       double surface_share, Rng& rng,
                                       double radio_range) {
  BALLFIT_REQUIRE(target_average_degree > 0.0, "target degree must be > 0");
  BALLFIT_REQUIRE(surface_share > 0.0 && surface_share < 1.0,
                  "surface share must be in (0, 1)");

  // Initial guess from the uniform-volume estimate
  //   degree ≈ density · (4/3)π R³,
  // then one empirical correction: average degree is linear in node count,
  // so a single probe build suffices to land on target.
  const double volume = model::estimate_volume(shape, rng);
  const double density = target_average_degree /
                         (4.0 / 3.0 * std::numbers::pi * radio_range *
                          radio_range * radio_range);
  const double total_guess = std::max(64.0, density * volume);

  BuildOptions probe;
  probe.radio_range = radio_range;
  probe.surface_count =
      static_cast<std::size_t>(total_guess * surface_share);
  probe.interior_count =
      static_cast<std::size_t>(total_guess * (1.0 - surface_share));
  probe.keep_largest_component = true;

  Rng probe_rng = rng.split();
  BuildDiagnostics diag;
  (void)build_network(shape, probe, probe_rng, &diag);
  BALLFIT_ASSERT(diag.average_degree > 0.0);

  const double correction = target_average_degree / diag.average_degree;
  BuildOptions out = probe;
  out.surface_count = static_cast<std::size_t>(
      std::llround(static_cast<double>(probe.surface_count) * correction));
  out.interior_count = static_cast<std::size_t>(
      std::llround(static_cast<double>(probe.interior_count) * correction));
  return out;
}

}  // namespace ballfit::net
