#include "workloads.hpp"

#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/grouping.hpp"
#include "core/iff.hpp"
#include "core/session.hpp"
#include "core/stats.hpp"
#include "core/ubf.hpp"
#include "localization/local_frame.hpp"
#include "mesh/surface_builder.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"
#include "net/measurement.hpp"
#include "sim/churn.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace ballfit;

namespace {

// Each run samples several networks of its workload from the one seed and
// spreads its requests over them. Single networks differ too much (on
// 1,190 nodes misclassification runs 0.11-0.17 and churn step medians
// 260-390 ms across seeds; on 100k nodes the mesh takes 1.0-1.4 s): with
// one network per run the spread between runs would mostly be a spread
// between networks.
constexpr std::size_t kInstancesFig1 = 24;
constexpr std::size_t kInstances100k = 8;
// The first 12 noisy-fig1 networks: each costs a cold run and an untimed
// cold check besides its share of the steps.
constexpr std::size_t kInstancesChurn = 12;
// Floors on the measured repetitions, whatever --seconds says: cold runs
// detect every instance once and the first one twice (the repeat check);
// traced runs make at least two requests; churn runs at least 20 steps.
constexpr std::size_t kMinTracedRequests = 2;
constexpr std::size_t kMinChurnSteps = 20;

std::size_t instance_count(Workload w) {
  switch (w) {
    case Workload::kNoisyFig1: return kInstancesFig1;
    case Workload::kTrue100k: return kInstances100k;
    case Workload::kChurnNoisy: return kInstancesChurn;
  }
  return 1;
}

/// Seed of instance `i` (i < 64) of a run with seed `seed`: distinct for
/// distinct (seed, i).
std::uint64_t instance_seed(std::uint64_t seed, std::size_t i) {
  return seed * 64 + i;
}

/// One sampled network of the workload and the seed it was made from (its
/// sampling, noise and churn seed).
struct Instance {
  std::uint64_t seed = 0;
  net::Network network;
};

/// Counts operations and their failures: a call that throws or whose
/// output check returns false is one failed operation.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  template <typename Fn>
  bool run(const char* what, Fn&& op) {
    ++attempted;
    try {
      if (op()) return true;
      std::fprintf(stderr, "perfbench: %s: output check failed\n", what);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s threw: %s\n", what, e.what());
    }
    ++failed;
    return false;
  }
};

/// Identity of a built network: positions (bitwise) and adjacency.
std::uint64_t fingerprint(const net::Network& network) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (net::NodeId v = 0; v < network.num_nodes(); ++v) {
    const geom::Vec3& p = network.position(v);
    mix(&p.x, sizeof p.x);
    mix(&p.y, sizeof p.y);
    mix(&p.z, sizeof p.z);
    for (const net::NodeId u : network.neighbors(v)) mix(&u, sizeof u);
  }
  return h;
}

bool same_detection(const core::PipelineResult& a,
                    const core::PipelineResult& b) {
  return a.ubf_candidates == b.ubf_candidates && a.boundary == b.boundary &&
         a.groups.leader == b.groups.leader &&
         a.groups.groups == b.groups.groups;
}

/// A detection that found no boundary at all, or misclassifies half the
/// true boundary, is not a result of the paper's algorithm.
bool plausible(const net::Network& network, const core::PipelineResult& r) {
  return r.groups.count() >= 1 &&
         misclass_rate(core::evaluate_detection(network, r.boundary)) < 0.5;
}

struct SurfaceSummary {
  std::size_t surfaces = 0;
  std::size_t landmarks = 0;
  std::size_t cdg_edges = 0;
  std::size_t cdm_edges = 0;
  std::size_t flips = 0;
  std::size_t triangles = 0;
  bool operator==(const SurfaceSummary&) const = default;
};

SurfaceSummary summarize(const mesh::SurfaceResult& s) {
  SurfaceSummary out;
  out.surfaces = s.surfaces.size();
  for (const mesh::BoundarySurface& b : s.surfaces) {
    out.landmarks += b.landmarks.size();
    out.cdg_edges += b.cdg_edges;
    out.cdm_edges += b.cdm_edges;
    out.flips += b.flips;
    out.triangles += b.mesh.triangles().size();
  }
  return out;
}

/// Checks a repeated output against the first one of its instance.
template <typename T>
bool same_as_first(std::optional<T>& first, const T& now) {
  if (!first) {
    first = now;
    return true;
  }
  return now == *first;
}

/// The cold reference for the churn check: a fresh network from the live
/// positions, a fresh session, and one delta crashing every node the
/// incremental session holds dead.
core::PipelineResult cold_rerun(const net::Network& live,
                                const core::DetectionSession& warm,
                                const core::PipelineConfig& cfg) {
  std::vector<geom::Vec3> pos(live.positions());
  std::vector<bool> truth(live.ground_truth_boundary());
  net::Network fresh(std::move(pos), std::move(truth), live.radio_range(),
                     cfg.threads);
  core::DetectionSession cold(fresh);
  core::NetworkDelta dead;
  for (net::NodeId v = 0; v < live.num_nodes(); ++v) {
    if (!warm.is_alive(v)) dead.crashed.push_back(v);
  }
  if (!dead.empty()) cold.apply(dead);
  return cold.run(cfg);
}

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

/// (mistaken + missing) / true boundary pooled over the instances' first
/// detections.
double pooled_misclass(const std::vector<Instance>& instances,
                       const std::vector<std::optional<core::PipelineResult>>&
                           first) {
  std::size_t wrong = 0;
  std::size_t truth = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (!first[i]) continue;
    const core::DetectionStats s =
        core::evaluate_detection(instances[i].network, first[i]->boundary);
    wrong += s.mistaken + s.missing;
    truth += s.true_boundary;
  }
  return ratio(static_cast<double>(wrong), static_cast<double>(truth));
}

/// Builds every instance, then rebuilds the first once more: the rebuild
/// must reproduce it bit for bit. `setup_s` gets every build's time and
/// `build_ms`, when non-null, the net::build_network part of each.
std::vector<Instance> set_up(const RunOptions& o, Ops& ops,
                             std::vector<double>& setup_s,
                             std::vector<double>* build_ms = nullptr) {
  const std::size_t count = instance_count(o.workload);
  std::vector<Instance> instances;
  for (std::size_t i = 0; i <= count; ++i) {
    const std::uint64_t seed = instance_seed(o.seed, i % count);
    ops.run("network build", [&] {
      double ms = 0.0;
      Stopwatch sw;
      net::Network network = make_network(o.workload, seed, o.threads, &ms);
      setup_s.push_back(sw.elapsed_seconds());
      if (build_ms != nullptr) build_ms->push_back(ms);
      if (i == count) {
        return !instances.empty() && instances[0].seed == seed &&
               fingerprint(instances[0].network) == fingerprint(network);
      }
      instances.push_back({seed, std::move(network)});
      return true;
    });
  }
  if (instances.size() != count) instances.clear();
  return instances;
}

// ---------------------------------------------------------------------------
// Timed run.

/// noisy-fig1 and true-100k: cold detections, then surfaces, cycling over
/// the instances.
void end_to_end_cold(const RunOptions& o, std::vector<Instance>& instances,
                     Ops& ops, Record& rec) {
  const std::size_t count = instances.size();
  std::vector<double> detect_ms;
  std::vector<double> surface_ms;
  std::vector<std::optional<core::PipelineResult>> first(count);
  std::vector<std::optional<SurfaceSummary>> first_surface(count);
  Stopwatch clock;
  for (std::size_t rep = 0;
       rep <= count || clock.elapsed_seconds() < o.seconds; ++rep) {
    const std::size_t i = rep % count;
    const net::Network& network = instances[i].network;
    const core::PipelineConfig cfg =
        pipeline_config(o.workload, instances[i].seed, o.threads);
    core::PipelineResult r;
    const bool ok = ops.run("detect", [&] {
      Stopwatch sw;
      r = core::detect_boundaries(network, cfg);
      detect_ms.push_back(sw.elapsed_ms());
      if (!first[i]) {
        first[i] = r;
        return plausible(network, r);
      }
      return same_detection(r, *first[i]);
    });
    if (!ok) continue;
    ops.run("surface", [&] {
      Stopwatch sw;
      const mesh::SurfaceResult s =
          mesh::build_surfaces(network, r.boundary, r.groups);
      surface_ms.push_back(sw.elapsed_ms());
      const SurfaceSummary sum = summarize(s);
      return sum.surfaces > 0 && same_as_first(first_surface[i], sum);
    });
  }

  // Every request of a cold workload is a full re-detection of an
  // unchanged network.
  const Tail t = detect_ms.empty() ? Tail{} : tail(detect_ms);
  rec.add("detect_s", median_or_zero(detect_ms) / 1e3, "s", detect_ms.size());
  rec.add("surface_s", median_or_zero(surface_ms) / 1e3, "s",
          surface_ms.size());
  rec.add("redetect_p50_ms",
          detect_ms.empty() ? 0.0 : nearest_rank(detect_ms, 0.5), "ms",
          detect_ms.size());
  rec.add("redetect_tail_ms", t.value, "ms", detect_ms.size());
  rec.add("misclass_rate", pooled_misclass(instances, first), "ratio",
          count);
  std::printf("redetect tail read at q=%.2f (%zu samples beyond)\n", t.q,
              t.beyond);
}

/// One instance under churn: its session and its delta stream.
struct ChurnLane {
  std::unique_ptr<core::DetectionSession> session;
  std::unique_ptr<sim::ChurnEngine> engine;
};

/// Starts `inst`'s delta stream against `lane`'s session.
void attach_engine(Instance& inst, ChurnLane& lane) {
  sim::ChurnConfig churn;
  churn.seed = inst.seed;
  lane.engine = std::make_unique<sim::ChurnEngine>(inst.network,
                                                   *lane.session, churn);
}

/// Untimed: after the stream, each lane's incremental flags must equal a
/// cold run on its final network with the same nodes dead.
void check_lanes(const RunOptions& o, std::vector<Instance>& instances,
                 std::vector<ChurnLane>& lanes, Ops& ops) {
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (!lanes[i].engine) continue;
    const core::PipelineConfig cfg =
        pipeline_config(o.workload, instances[i].seed, o.threads);
    ops.run("cold check after churn", [&] {
      return same_detection(
          lanes[i].engine->last_result(),
          cold_rerun(instances[i].network, *lanes[i].session, cfg));
    });
  }
}

/// churn-noisy: one cold run per instance, then one client in a closed
/// loop stepping the instances' streams in turn.
void end_to_end_churn(const RunOptions& o, std::vector<Instance>& instances,
                      Ops& ops, Record& rec) {
  const std::size_t count = instances.size();
  std::vector<double> detect_ms;
  std::vector<double> redetect_ms;
  std::vector<double> surface_ms;
  std::vector<std::optional<core::PipelineResult>> first(count);
  std::vector<ChurnLane> lanes(count);
  Stopwatch clock;
  for (std::size_t i = 0; i < count; ++i) {
    const core::PipelineConfig cfg =
        pipeline_config(o.workload, instances[i].seed, o.threads);
    ops.run("cold session run", [&] {
      lanes[i].session =
          std::make_unique<core::DetectionSession>(instances[i].network);
      Stopwatch sw;
      first[i] = lanes[i].session->run(cfg);
      detect_ms.push_back(sw.elapsed_ms());
      attach_engine(instances[i], lanes[i]);
      return plausible(instances[i].network, *first[i]);
    });
  }

  bool stepping = true;
  for (std::size_t step = 0;
       stepping &&
       (step < kMinChurnSteps || clock.elapsed_seconds() < o.seconds);
       ++step) {
    const std::size_t i = step % count;
    if (!lanes[i].engine) continue;
    const core::PipelineConfig cfg =
        pipeline_config(o.workload, instances[i].seed, o.threads);
    // A step that throws leaves its session in an unknown state: stop.
    stepping = ops.run("churn step", [&] {
      Stopwatch sw;
      lanes[i].engine->step(cfg);
      redetect_ms.push_back(sw.elapsed_ms());
      return true;
    });
    if (!stepping) break;
    const core::PipelineResult& last = lanes[i].engine->last_result();
    ops.run("surface", [&] {
      Stopwatch sw;
      const mesh::SurfaceResult s =
          mesh::build_surfaces(instances[i].network, last.boundary,
                               last.groups);
      surface_ms.push_back(sw.elapsed_ms());
      return !s.surfaces.empty() || last.groups.count() == 0;
    });
  }
  if (stepping) check_lanes(o, instances, lanes, ops);

  const Tail t = redetect_ms.empty() ? Tail{} : tail(redetect_ms);
  rec.add("detect_s", median_or_zero(detect_ms) / 1e3, "s", detect_ms.size());
  rec.add("surface_s", median_or_zero(surface_ms) / 1e3, "s",
          surface_ms.size());
  rec.add("redetect_p50_ms",
          redetect_ms.empty() ? 0.0 : nearest_rank(redetect_ms, 0.5), "ms",
          redetect_ms.size());
  rec.add("redetect_tail_ms", t.value, "ms", redetect_ms.size());
  rec.add("misclass_rate", pooled_misclass(instances, first), "ratio",
          count);
  std::printf("redetect tail read at q=%.2f (%zu samples beyond)\n", t.q,
              t.beyond);
}

// ---------------------------------------------------------------------------
// Traced run.

using Samples = std::map<std::string, std::vector<double>>;

/// Every per-layer metric with its unit, in report order.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"net.build_ms", "ms"},
      {"net.nodes", "count"},
      {"net.avg_degree", "neighbors"},
      {"localization.measure_ms", "ms"},
      {"localization.frames_ms", "ms"},
      {"localization.frames_cpu_ms", "ms"},
      {"localization.frames_util", "ratio"},
      {"localization.frames_built", "count"},
      {"localization.sweeps_executed", "count"},
      {"localization.sweep_ratio", "ratio"},
      {"localization.frame_fallbacks", "count"},
      {"ubf.ms", "ms"},
      {"ubf.cpu_ms", "ms"},
      {"ubf.util", "ratio"},
      {"ubf.nodes_tested", "count"},
      {"ubf.candidates", "count"},
      {"ubf.candidate_ratio", "ratio"},
      {"iff.ms", "ms"},
      {"iff.rounds", "count"},
      {"iff.messages", "count"},
      {"iff.kept_ratio", "ratio"},
      {"grouping.ms", "ms"},
      {"grouping.rounds", "count"},
      {"grouping.messages", "count"},
      {"grouping.groups", "count"},
      {"mesh.ms", "ms"},
      {"mesh.cpu_ms", "ms"},
      {"mesh.landmarks", "count"},
      {"mesh.cdm_edges", "count"},
      {"mesh.cdm_ratio", "ratio"},
      {"mesh.flips", "count"},
      {"mesh.triangles", "count"},
      {"session.apply_ms", "ms"},
      {"session.run_ms", "ms"},
      {"session.frames_rebuilt", "count"},
      {"session.nodes_retested", "count"},
      {"session.partial_runs", "count"},
      {"session.cache_hits", "count"},
      {"session.overhead_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return kMetrics;
}

/// Records `value` as a counter of span `id` and as one sample of the
/// per-layer metric `name`.
void note(Trace& trace, int id, Samples& out, const std::string& name,
          double value) {
  trace.count(id, name, value);
  out[name].push_back(value);
}

double as_count(std::size_t v) { return static_cast<double>(v); }

/// The pipeline of `core::detect_boundaries`, composed from the layers'
/// public functions with a span around each call.
core::PipelineResult traced_detect(const net::Network& network,
                                   const core::PipelineConfig& cfg,
                                   Trace& trace, int request, int parent,
                                   Samples& out) {
  core::UbfConfig ubf_config = cfg.ubf;
  // As DetectionSession::run derives it: nodes know their ranging error.
  if (ubf_config.measurement_error_hint == 0.0 && !cfg.use_true_coordinates) {
    ubf_config.measurement_error_hint = cfg.measurement_error;
  }
  const std::size_t n = network.num_nodes();
  core::PipelineResult r;
  std::size_t fallbacks = 0;
  int ubf_span = -1;
  if (cfg.use_true_coordinates) {
    ubf_span = trace.begin("ubf", request, parent);
    const core::UnitBallFitting ubf(network, ubf_config);
    r.ubf_candidates = ubf.detect_with_true_coordinates(&fallbacks);
    trace.end(ubf_span);
  } else {
    int id = trace.begin("localization.measure", request, parent);
    const net::NoisyDistanceModel model(network, cfg.measurement_error,
                                        cfg.noise_seed);
    const localization::Localizer localizer(network, model, cfg.localizer);
    trace.end(id);
    note(trace, id, out, "localization.measure_ms", trace.span(id).wall_ms());

    id = trace.begin("localization.frames", request, parent);
    const localization::FrameScope scope =
        ubf_config.scope == core::UbfConfig::EmptinessScope::kTwoHop
            ? localization::FrameScope::kTwoHop
            : localization::FrameScope::kOneHop;
    std::vector<localization::LocalFrame> frames;
    localization::FrameBuildStats st;
    localization::build_all_frames(localizer, scope, frames, cfg.threads,
                                   nullptr, nullptr, &st);
    trace.end(id);
    const Span fs = trace.span(id);
    note(trace, id, out, "localization.frames_ms", fs.wall_ms());
    note(trace, id, out, "localization.frames_cpu_ms", fs.cpu_ms);
    note(trace, id, out, "localization.frames_util",
         utilisation(fs.cpu_ms, fs.wall_ms(), cfg.threads));
    note(trace, id, out, "localization.frames_built",
         as_count(st.frames_built));
    note(trace, id, out, "localization.sweeps_executed",
         as_count(st.sweeps_executed));
    note(trace, id, out, "localization.sweep_ratio",
         ratio(as_count(st.sweeps_executed), as_count(st.sweep_budget)));

    ubf_span = trace.begin("ubf", request, parent);
    const core::UnitBallFitting ubf(network, ubf_config);
    r.ubf_candidates = ubf.detect_on_frames(frames, cfg.threads, &fallbacks);
    trace.end(ubf_span);
    note(trace, id, out, "localization.frame_fallbacks", as_count(fallbacks));
  }
  const Span us = trace.span(ubf_span);
  const double tested = as_count(n - fallbacks);
  note(trace, ubf_span, out, "ubf.ms", us.wall_ms());
  note(trace, ubf_span, out, "ubf.cpu_ms", us.cpu_ms);
  note(trace, ubf_span, out, "ubf.util",
       utilisation(us.cpu_ms, us.wall_ms(), cfg.threads));
  note(trace, ubf_span, out, "ubf.nodes_tested", tested);
  note(trace, ubf_span, out, "ubf.candidates", as_count(r.num_candidates()));
  note(trace, ubf_span, out, "ubf.candidate_ratio",
       ratio(as_count(r.num_candidates()), tested));

  int id = trace.begin("iff", request, parent);
  r.boundary = core::iff_filter(network, r.ubf_candidates, cfg.iff,
                                &r.iff_cost);
  trace.end(id);
  note(trace, id, out, "iff.ms", trace.span(id).wall_ms());
  note(trace, id, out, "iff.rounds", as_count(r.iff_cost.rounds));
  note(trace, id, out, "iff.messages", as_count(r.iff_cost.messages));
  note(trace, id, out, "iff.kept_ratio",
       ratio(as_count(r.num_boundary()), as_count(r.num_candidates())));

  id = trace.begin("grouping", request, parent);
  r.groups = core::group_boundaries(network, r.boundary,
                                    cfg.iff.use_message_passing,
                                    &r.grouping_cost);
  trace.end(id);
  note(trace, id, out, "grouping.ms", trace.span(id).wall_ms());
  note(trace, id, out, "grouping.rounds", as_count(r.grouping_cost.rounds));
  note(trace, id, out, "grouping.messages",
       as_count(r.grouping_cost.messages));
  note(trace, id, out, "grouping.groups", as_count(r.groups.count()));
  return r;
}

SurfaceSummary traced_mesh(const net::Network& network,
                           const core::PipelineResult& r, Trace& trace,
                           int request, Samples& out) {
  const int id = trace.begin("mesh", request);
  const mesh::SurfaceResult s =
      mesh::build_surfaces(network, r.boundary, r.groups);
  trace.end(id);
  const SurfaceSummary sum = summarize(s);
  const Span ms = trace.span(id);
  note(trace, id, out, "mesh.ms", ms.wall_ms());
  note(trace, id, out, "mesh.cpu_ms", ms.cpu_ms);
  note(trace, id, out, "mesh.landmarks", as_count(sum.landmarks));
  note(trace, id, out, "mesh.cdm_edges", as_count(sum.cdm_edges));
  note(trace, id, out, "mesh.cdm_ratio",
       ratio(as_count(sum.cdm_edges), as_count(sum.cdg_edges)));
  note(trace, id, out, "mesh.flips", as_count(sum.flips));
  note(trace, id, out, "mesh.triangles", as_count(sum.triangles));
  return sum;
}

std::uint64_t cache_hits(const core::SessionStats& s) {
  return s.measure.cache_hits + s.localize.cache_hits + s.ubf.cache_hits +
         s.escalate.cache_hits + s.iff.cache_hits + s.group.cache_hits;
}

/// Per-layer timings that need both runs: the untraced session run, the
/// traced composition, and the part of it the layer spans cover.
struct Overheads {
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> layers_ms;
};

/// One untraced session run and one traced composition of the same
/// detection, checked against each other, then the traced mesh. False when
/// the untraced run fails.
bool traced_request(const net::Network& network,
                    const core::PipelineConfig& cfg,
                    core::DetectionSession& session, int request, Trace& trace,
                    Samples& out, Overheads& oh,
                    std::optional<SurfaceSummary>& first_surface, Ops& ops) {
  core::PipelineResult ref;
  const bool ok = ops.run("untraced detect", [&] {
    Stopwatch sw;
    ref = session.run(cfg);
    oh.untraced_ms.push_back(sw.elapsed_ms());
    return plausible(network, ref);
  });
  if (!ok) return false;

  ops.run("traced detect", [&] {
    const int root = trace.begin("detect", request);
    const core::PipelineResult composed =
        traced_detect(network, cfg, trace, request, root, out);
    trace.end(root);
    oh.traced_ms.push_back(trace.span(root).wall_ms());
    oh.layers_ms.push_back(trace.span(root).wall_ms() - trace.self_ms(root));
    return same_detection(composed, ref);
  });
  ops.run("traced surface", [&] {
    const SurfaceSummary sum = traced_mesh(network, ref, trace, request, out);
    return sum.surfaces > 0 && same_as_first(first_surface, sum);
  });
  return true;
}

/// One churn step on `lane`, traced as a span with the session's counters.
bool traced_step(const core::PipelineConfig& cfg, ChurnLane& lane,
                 int request, Trace& trace, Samples& out, Ops& ops) {
  const core::SessionStats before = lane.session->stats();
  const int id = trace.begin("churn.step", request);
  const bool ok = ops.run("churn step", [&] {
    lane.engine->step(cfg);
    return true;
  });
  trace.end(id);
  if (!ok) return false;
  const core::SessionStats& after = lane.session->stats();
  const double run_ms = lane.engine->report().redetect_ms.back();
  const bool rebuilt =
      after.localize.partial_runs > before.localize.partial_runs;
  const bool retested = after.ubf.partial_runs > before.ubf.partial_runs;
  note(trace, id, out, "session.run_ms", run_ms);
  // Delta generation, coalescing and apply: the step minus its run.
  note(trace, id, out, "session.apply_ms", trace.span(id).wall_ms() - run_ms);
  note(trace, id, out, "session.frames_rebuilt",
       rebuilt ? as_count(after.last_frames_rebuilt) : 0.0);
  note(trace, id, out, "session.nodes_retested",
       retested ? as_count(after.last_nodes_retested) : 0.0);
  note(trace, id, out, "session.partial_runs",
       as_count((after.measure.partial_runs - before.measure.partial_runs) +
                (after.localize.partial_runs - before.localize.partial_runs) +
                (after.ubf.partial_runs - before.ubf.partial_runs)));
  note(trace, id, out, "session.cache_hits",
       as_count(cache_hits(after) - cache_hits(before)));
  return true;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "noisy-fig1") return Workload::kNoisyFig1;
  if (name == "true-100k") return Workload::kTrue100k;
  if (name == "churn-noisy") return Workload::kChurnNoisy;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kNoisyFig1: return "noisy-fig1";
    case Workload::kTrue100k: return "true-100k";
    case Workload::kChurnNoisy: return "churn-noisy";
  }
  return "?";
}

net::Network make_network(Workload w, std::uint64_t seed, unsigned threads,
                          double* build_ms) {
  Rng rng(seed);
  net::BuildOptions options;
  model::Scenario scenario;
  if (w == Workload::kTrue100k) {
    bench::ScaledScenario sized = bench::scale_scenario_to_nodes(
        [](double s) { return model::fig1_network(s); }, 100000, seed, 18.5);
    scenario = std::move(sized.scenario);
    options = sized.options;
  } else {
    // bench::build_scenario_network at degree 18.8, without its print.
    scenario = model::fig1_network(0.6);
    options = net::options_for_target_degree(*scenario.shape, 18.8, 0.5, rng);
    options.interior_margin = 0.35 * options.radio_range;
  }
  options.threads = threads;
  Stopwatch sw;
  net::Network network = net::build_network(*scenario.shape, options, rng);
  if (build_ms != nullptr) *build_ms = sw.elapsed_ms();
  return network;
}

core::PipelineConfig pipeline_config(Workload w, std::uint64_t seed,
                                     unsigned threads) {
  core::PipelineConfig cfg;
  cfg.threads = threads;
  if (w == Workload::kTrue100k) {
    cfg.use_true_coordinates = true;
  } else {
    cfg.measurement_error = 0.2;
    cfg.noise_seed = seed;
  }
  return cfg;
}

Record run_end_to_end(const RunOptions& o) {
  Ops ops;
  std::vector<double> setup_s;
  std::vector<Instance> instances = set_up(o, ops, setup_s);
  Record rec;
  rec.add("setup_s", median_or_zero(setup_s), "s", setup_s.size());
  if (!instances.empty()) {
    if (o.workload == Workload::kChurnNoisy) {
      end_to_end_churn(o, instances, ops, rec);
    } else {
      end_to_end_cold(o, instances, ops, rec);
    }
  }
  rec.add("peak_rss_mib", peak_rss_mib(), "MiB");
  rec.attempted = ops.attempted;
  rec.failed = ops.failed;
  rec.correct = !instances.empty() && ops.failed == 0;
  return rec;
}

Record run_traced(const RunOptions& o) {
  Ops ops;
  Trace trace;
  Samples out;

  std::vector<double> setup_s;
  std::vector<double> build_ms;
  const int setup = trace.begin("setup", 0);
  std::vector<Instance> instances = set_up(o, ops, setup_s, &build_ms);
  trace.end(setup);
  out["net.build_ms"] = build_ms;
  for (const Instance& inst : instances) {
    note(trace, setup, out, "net.nodes", as_count(inst.network.num_nodes()));
    note(trace, setup, out, "net.avg_degree", inst.network.average_degree());
  }

  const std::size_t count = instances.size();
  Overheads oh;
  std::vector<std::optional<SurfaceSummary>> first_surface(count);
  Stopwatch clock;
  int request = 1;
  if (o.workload != Workload::kChurnNoisy) {
    for (std::size_t rep = 0;
         count > 0 &&
         (rep < kMinTracedRequests || clock.elapsed_seconds() < o.seconds);
         ++rep) {
      const std::size_t i = rep % count;
      core::DetectionSession session(instances[i].network);
      if (!traced_request(
              instances[i].network,
              pipeline_config(o.workload, instances[i].seed, o.threads),
              session, request++, trace, out, oh, first_surface[i], ops)) {
        continue;
      }
      // A cold run rebuilds everything: no apply, no partial work, no hits.
      out["session.run_ms"].push_back(oh.untraced_ms.back());
      for (const char* name :
           {"session.apply_ms", "session.frames_rebuilt",
            "session.nodes_retested", "session.partial_runs",
            "session.cache_hits"}) {
        out[name].push_back(0.0);
      }
    }
  } else if (count > 0) {
    // The cold pair on every instance, then the streams: inside a step the
    // stage split is not visible from outside the library, so a step
    // reports the session's own counters and its apply/run times.
    std::vector<ChurnLane> lanes(count);
    for (std::size_t i = 0; i < count; ++i) {
      const core::PipelineConfig cfg =
          pipeline_config(o.workload, instances[i].seed, o.threads);
      lanes[i].session =
          std::make_unique<core::DetectionSession>(instances[i].network);
      if (!traced_request(instances[i].network, cfg, *lanes[i].session,
                          request++, trace, out, oh, first_surface[i], ops)) {
        continue;
      }
      attach_engine(instances[i], lanes[i]);
    }
    bool stepping = true;
    for (std::size_t step = 0;
         stepping &&
         (step < kMinChurnSteps || clock.elapsed_seconds() < o.seconds);
         ++step) {
      ChurnLane& lane = lanes[step % count];
      if (!lane.engine) continue;
      stepping = traced_step(
          pipeline_config(o.workload, instances[step % count].seed, o.threads),
          lane, request++, trace, out, ops);
    }
    if (stepping) check_lanes(o, instances, lanes, ops);
  }

  if (!oh.untraced_ms.empty() && !oh.traced_ms.empty()) {
    const double untraced = median(oh.untraced_ms);
    out["trace.overhead_ms"].push_back(median(oh.traced_ms) - untraced);
    out["session.overhead_ms"].push_back(untraced - median(oh.layers_ms));
  }

  Record rec;
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = out.find(name);
    const bool have = it != out.end() && !it->second.empty();
    rec.add(name, have ? median(it->second) : 0.0, unit,
            have ? it->second.size() : 0);
  }
  if (!o.trace_out.empty()) {
    ops.run("trace write", [&] {
      trace.write_json(o.trace_out);
      return true;
    });
  }
  rec.attempted = ops.attempted;
  rec.failed = ops.failed;
  rec.correct = !instances.empty() && ops.failed == 0;
  return rec;
}

}  // namespace perfbench
