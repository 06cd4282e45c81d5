/// \file bench_compare.cpp
/// Perf-regression gate for the hot kernels.
///
/// Times four kernels on Fig. 1 scenarios (six records — the bitwise
/// reference and the 4-thread build ride with `pipeline.local_frames`),
/// writes one machine-readable record per kernel, and (with `--against`)
/// compares each measured wall time to a committed baseline:
///
///   - `ubf.true_coords` — `detect_with_true_coordinates` at one thread,
///     the pure Algorithm 1 kernel free of localization noise. The record
///     carries the ball test's deterministic work counters
///     (`nodes_certified`, `trisphere_solves`, `balls_tested`,
///     `cover_checks`) from an untimed run with collection on; an in-run
///     gate requires the interior certificate to settle some nodes and the
///     counters to be equal at 1 and 4 threads.
///   - `pipeline.local_frames` — the noisy-coordinates localization stage
///     at the *default* equivalence tier (kBoundaryIdentical: adaptive
///     plateau exits, fast sweep kernel), built through the per-node
///     `build_all_frames` executor the session runs, at a reduced scale
///     so a rep stays under ~1 s. The record carries the build's
///     `completion_scans` work counter and, from its best rep, the
///     per-phase wall split of the frame build (`phases_ms`: gather +
///     fill, completion, double-center, eigen init, refine).
///   - `pipeline.local_frames_mt` — the same default-tier build at 4
///     threads, the one kernel that sees the `parallel_for` scheduler. Each
///     rep follows a discarded 4-thread build that brings every core up
///     after the serial kernels. Its record carries `threads` and its best
///     rep's `util` = CPU / (wall · threads). Two in-run gates: its frames
///     must equal the 1-thread build's bit for bit, and the best rep's
///     `util` must reach 0.8, so a serialized rep cannot pass as a scaling
///     result (skipped, with a notice, on a machine with fewer than 4
///     hardware threads).
///   - `pipeline.local_frames_bitwise` — the same frame build pinned to
///     `EquivalenceTier::kBitwise` (every rounding-changing fast path
///     off): the reference kernel. Its reps alternate with the default
///     tier's. Two in-run gates tie the tiers together: the default tier
///     must be ≥ 2x faster than the bitwise kernel measured in the same
///     process, and the boundary sets of the two tiers must agree on
///     ≥ 95% of the bitwise boundary (the tier-drift tripwire).
///   - `pipeline.sweep_reuse` — a 5-point ε sweep through one
///     `core::DetectionSession` (the frames are ε-independent and are
///     reused), timed end-to-end and additionally required to beat five
///     fresh `detect_boundaries` calls by ≥ 2x.
///   - `pipeline.churn_p99` — p99 incremental re-detect latency over a
///     fixed `sim::ChurnEngine` soak (seeded bursts of crash/revive/move
///     deltas against one noisy-coordinates session). `best_ms` is the
///     best p99 across reps; the 15% threshold gates tail latency of the
///     delta path end to end. Baselines predating the kernel are skipped
///     gracefully like any missing record.
///
///   bench_compare --out BENCH_$(git rev-parse --short=12 HEAD).json
///                 --against bench/baselines/BENCH_<sha>.json
///
/// Exit status 1 when any kernel regressed more than `--threshold`
/// (default 0.15 = 15%) against the baseline's best time, or when its
/// boundary classification diverges from the baseline (the optimization
/// contract is classification-preserving output — a count drift is a
/// correctness regression, not a perf one). A kernel missing from the
/// baseline (e.g. an old v1 file, which carried only `ubf.true_coords`)
/// is reported and skipped; likewise a tier-dependent kernel whose
/// baseline record predates equivalence tiers (no `tier` field, or a
/// different tier) is skipped with a notice — refresh the baseline to
/// re-arm it. See EXPERIMENTS.md, "Performance regression tracking" for
/// the schema, the threshold rationale, and how to refresh the baseline
/// after an intentional change.
///
/// Flags: --scale S (default 1.0)  --reps N (default 7)
///        --frames-scale S (default 0.35)  --frames-reps N (default 5)
///        --frames-error E (default 0.2)  --sweep-reps N (default 3)
///        --churn-steps N (default 60)  --churn-reps N (default 3)
///        --out PATH  --against PATH  --threshold F

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/buildinfo.hpp"
#include "core/session.hpp"
#include "core/stats.hpp"
#include "core/ubf.hpp"
#include "localization/local_frame.hpp"
#include "model/zoo.hpp"
#include "net/measurement.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "sim/churn.hpp"

namespace {

using ballfit::bench::double_flag;
using ballfit::bench::int_flag;
using ballfit::bench::string_flag;

using Clock = std::chrono::steady_clock;

/// One timed kernel's results plus the scenario it ran on.
struct KernelRecord {
  std::string name;
  std::string scenario_name;
  double scale = 0.0;
  std::size_t nodes = 0;
  double avg_degree = 0.0;
  int reps = 0;
  double best_ms = 0.0;
  double mean_ms = 0.0;
  std::size_t boundary_nodes = 0;
  /// Equivalence tier the kernel ran at ("" for tier-independent kernels,
  /// e.g. the true-coordinates paths). Baselines whose record carries a
  /// different tier — or none, i.e. pre-tier files — are not comparable
  /// and are skipped by the gate.
  std::string tier;
  /// Worker threads of the timed kernel, and the CPU utilisation
  /// CPU / (wall · threads) of its best rep; written only when
  /// `threads` > 1.
  unsigned threads = 1;
  double util = 0.0;
  /// `FrameBuildStats::completion_scans` of one build; written when > 0.
  std::uint64_t completion_scans = 0;
  /// Per-phase wall time (ms) of the best rep's frame build, from the
  /// `FrameBuildStats` phase fields; written when `completion_scans` is.
  std::vector<std::pair<std::string, double>> phases_ms;
  /// The `ubf.*` work counters of one detection (`ubf.true_coords` only);
  /// written when non-empty.
  std::vector<std::pair<std::string, std::uint64_t>> ubf_counters;
};

/// The ball test's deterministic work counters (obs counter names).
constexpr const char* kUbfCounters[] = {"ubf.nodes_certified",
                                        "ubf.trisphere_solves",
                                        "ubf.balls_tested",
                                        "ubf.cover_checks"};

/// CPU time of the whole process (all threads), in ms.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// Minimal field extraction from a baseline file. The repo has a JSON
/// writer but no parser; the baseline schema is flat and produced by this
/// very tool, so scanning for `"key":` is adequate and keeps the bench
/// dependency-free. `from` scopes the scan to one kernel's object: pass
/// the position of its `"name":"..."` match so the first key found is that
/// kernel's own (each kernel object begins with its name field). Returns
/// false when the key is absent.
bool extract_number(const std::string& json, const std::string& key,
                    double* out, std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = json.find(needle, from);
  if (pos == std::string::npos) return false;
  *out = std::atof(json.c_str() + pos + needle.size());
  return true;
}

std::string extract_string(const std::string& json, const std::string& key,
                           std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t pos = json.find(needle, from);
  if (pos == std::string::npos) return "";
  const std::size_t start = pos + needle.size();
  const std::size_t end = json.find('"', start);
  return json.substr(start, end - start);
}

double avg_degree_of(const ballfit::net::Network& network) {
  double sum = 0.0;
  for (std::size_t i = 0; i < network.num_nodes(); ++i) {
    sum += static_cast<double>(network.degree(i));
  }
  return sum / static_cast<double>(network.num_nodes());
}

/// Compares one kernel record against the baseline text. Returns 0 when
/// the kernel is within threshold and classification-stable, 1 on a
/// regression or drift, and 0 (with a notice) when the baseline lacks the
/// kernel — old baselines predate `pipeline.local_frames`.
int gate_kernel(const KernelRecord& rec, const std::string& baseline,
                const std::string& against, double threshold) {
  const std::string name_needle = "\"name\":\"" + rec.name + "\"";
  const std::size_t at = baseline.find(name_needle);
  if (at == std::string::npos) {
    std::printf("%s: not in baseline %s — skipping (refresh the baseline "
                "to gate it)\n",
                rec.name.c_str(), against.c_str());
    return 0;
  }
  if (!rec.tier.empty()) {
    // Tier-dependent kernel: only records measured at the same equivalence
    // tier are comparable. `tier` is written directly after the kernel
    // name, so a match must land before the next "name" key (the record's
    // own scenario name) — anything later belongs to another record.
    const std::size_t next = baseline.find("\"name\":\"", at + 1);
    const std::size_t tpos = baseline.find("\"tier\":\"", at);
    std::string base_tier;
    if (tpos != std::string::npos &&
        (next == std::string::npos || tpos < next)) {
      base_tier = extract_string(baseline, "tier", at);
    }
    if (base_tier != rec.tier) {
      std::printf("%s: baseline %s is %s (measured at tier \"%s\", now "
                  "\"%s\") — skipping, refresh the baseline to gate it\n",
                  rec.name.c_str(), against.c_str(),
                  base_tier.empty() ? "pre-tier" : "a different tier",
                  base_tier.c_str(), rec.tier.c_str());
      return 0;
    }
  }
  const std::string base_sha = extract_string(baseline, "git_sha");

  double base_best = 0.0;
  if (!extract_number(baseline, "best_ms", &base_best, at) ||
      base_best <= 0.0) {
    std::fprintf(stderr, "baseline %s has no usable best_ms for %s\n",
                 against.c_str(), rec.name.c_str());
    return 2;
  }

  // Bit-identity gate: same scenario + same seed must classify the same
  // nodes as boundary in every build. A divergence means the kernel's
  // *output* changed, which no amount of speed excuses.
  double base_nodes = 0.0;
  if (extract_number(baseline, "nodes", &base_nodes, at) &&
      static_cast<std::size_t>(base_nodes) != rec.nodes) {
    std::fprintf(stderr,
                 "%s: baseline scenario mismatch: %zu nodes now vs %.0f in "
                 "%s — not comparable, regenerate the baseline\n",
                 rec.name.c_str(), rec.nodes, base_nodes, against.c_str());
    return 2;
  }
  double base_boundary = 0.0;
  if (extract_number(baseline, "boundary_nodes", &base_boundary, at) &&
      static_cast<std::size_t>(base_boundary) != rec.boundary_nodes) {
    std::fprintf(stderr,
                 "CLASSIFICATION DRIFT: %s finds %zu boundary nodes now vs "
                 "%.0f in baseline %s (%s)\n",
                 rec.name.c_str(), rec.boundary_nodes, base_boundary,
                 against.c_str(), base_sha.c_str());
    return 1;
  }

  const double ratio = rec.best_ms / base_best;
  std::printf("%s vs baseline %s (%s): %.2f ms -> %.2f ms (%+.1f%%)\n",
              rec.name.c_str(), against.c_str(), base_sha.c_str(), base_best,
              rec.best_ms, (ratio - 1.0) * 100.0);
  if (ratio > 1.0 + threshold) {
    std::fprintf(stderr, "REGRESSION: %s slowed by %.1f%% (threshold %.0f%%)\n",
                 rec.name.c_str(), (ratio - 1.0) * 100.0, threshold * 100.0);
    return 1;
  }
  std::printf("%s within threshold (%.0f%%)\n", rec.name.c_str(),
              threshold * 100.0);
  return 0;
}

void write_kernel(ballfit::obs::JsonWriter& w, const KernelRecord& rec) {
  w.begin_object().field("name", rec.name);
  // Directly after the name so the gate can scope it to this record.
  if (!rec.tier.empty()) w.field("tier", rec.tier);
  w.key("scenario")
      .begin_object()
      .field("name", rec.scenario_name)
      .field("scale", rec.scale)
      .field("seed", std::uint64_t{1})
      .field("nodes", static_cast<std::uint64_t>(rec.nodes))
      .field("avg_degree", rec.avg_degree)
      .end_object()
      .field("reps", static_cast<std::uint64_t>(rec.reps))
      .field("best_ms", rec.best_ms)
      .field("mean_ms", rec.mean_ms)
      .field("boundary_nodes", static_cast<std::uint64_t>(rec.boundary_nodes));
  if (rec.threads > 1) {
    w.field("threads", static_cast<std::uint64_t>(rec.threads))
        .field("util", rec.util);
  }
  if (rec.completion_scans > 0) {
    w.field("completion_scans", rec.completion_scans);
    w.key("phases_ms").begin_object();
    for (const auto& [phase, ms] : rec.phases_ms) w.field(phase, ms);
    w.end_object();
  }
  for (const auto& [name, value] : rec.ubf_counters) {
    w.field(name.substr(name.find('.') + 1), value);
  }
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ballfit;
  const double scale = double_flag(argc, argv, "--scale", 1.0);
  const int reps = int_flag(argc, argv, "--reps", 7);
  const double frames_scale = double_flag(argc, argv, "--frames-scale", 0.35);
  const int frames_reps = int_flag(argc, argv, "--frames-reps", 5);
  const double frames_error = double_flag(argc, argv, "--frames-error", 0.2);
  const int sweep_reps = int_flag(argc, argv, "--sweep-reps", 3);
  const int churn_steps = int_flag(argc, argv, "--churn-steps", 60);
  const int churn_reps = int_flag(argc, argv, "--churn-reps", 3);
  const double threshold = double_flag(argc, argv, "--threshold", 0.15);
  const std::string sha = git_sha();
  const std::string out_path =
      string_flag(argc, argv, "--out", "BENCH_" + sha + ".json");
  const std::string against = string_flag(argc, argv, "--against", "");

  std::vector<KernelRecord> records;

  // Kernel 1: the oracle-mode Algorithm 1 sweep (bit-identical contract).
  {
    const model::Scenario scenario = model::fig1_network(scale);
    const net::Network network =
        bench::build_scenario_network(scenario, /*seed=*/1, 18.8);
    const core::UnitBallFitting ubf(network);

    KernelRecord rec;
    rec.name = "ubf.true_coords";
    rec.scenario_name = scenario.name;
    rec.scale = scale;
    rec.nodes = network.num_nodes();
    rec.avg_degree = avg_degree_of(network);
    rec.reps = reps;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = Clock::now();
      const std::vector<bool> boundary = ubf.detect_with_true_coordinates(
          nullptr, nullptr, nullptr, /*threads=*/1);
      const auto t1 = Clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      rec.mean_ms += ms;
      if (rep == 0 || ms < rec.best_ms) rec.best_ms = ms;
      rec.boundary_nodes = 0;
      for (const bool b : boundary) rec.boundary_nodes += b;
      std::printf("%s rep %d: %.2f ms (boundary=%zu)\n", rec.name.c_str(),
                  rep, ms, rec.boundary_nodes);
    }
    rec.mean_ms /= reps;
    std::printf("%s: best %.2f ms, mean %.2f ms over %d reps\n",
                rec.name.c_str(), rec.best_ms, rec.mean_ms, rec.reps);

    // Work counters from untimed runs with collection on. They are sums of
    // per-node work, so any thread count must reproduce them exactly.
    const auto counters_at = [&](unsigned threads) {
      obs::set_enabled(true);
      obs::reset();
      (void)ubf.detect_with_true_coordinates(nullptr, nullptr, nullptr,
                                             threads);
      const auto counters = obs::Registry::global().snapshot().counters;
      obs::set_enabled(false);
      std::vector<std::pair<std::string, std::uint64_t>> out;
      for (const char* name : kUbfCounters) {
        const auto it = counters.find(name);
        out.emplace_back(name, it == counters.end() ? 0 : it->second);
      }
      return out;
    };
    rec.ubf_counters = counters_at(1);
    const auto counters_mt = counters_at(4);
    for (const auto& [name, value] : rec.ubf_counters) {
      std::printf("%s: %s = %" PRIu64 "\n", rec.name.c_str(), name.c_str(),
                  value);
    }
    records.push_back(rec);

    // In-run gate: the interior certificate settles interior nodes, and the
    // work is the same whichever worker ran each node.
    if (rec.ubf_counters != counters_mt) {
      std::fprintf(stderr,
                   "THREAD DRIFT: %s work counters differ between 1 and 4 "
                   "threads\n",
                   rec.name.c_str());
      return 1;
    }
    if (rec.ubf_counters.front().second == 0) {  // ubf.nodes_certified
      std::fprintf(stderr,
                   "REGRESSION: %s certified no node (the interior "
                   "certificate never fired)\n",
                   rec.name.c_str());
      return 1;
    }
  }

  // Kernels 2 + 3: the noisy-coordinates localization stage — every
  // node's MDS-MAP(P) two-hop frame, built single-threaded. This is where
  // the headline pipeline (use_true_coordinates=false) spends most of its
  // time. Kernel 2 runs the default tier (kBoundaryIdentical: adaptive
  // plateau exits + fast sweep kernel) through `build_all_frames`, the
  // per-node executor the session runs; kernel 3 pins kBitwise, the
  // reference per-node kernel. The same default-tier build also runs at
  // 4 threads (`pipeline.local_frames_mt`). The kernels alternate rep by
  // rep, so drift of the machine's speed during the run hits all alike
  // instead of skewing their ratio. The boundary counts come from untimed
  // full detection passes per tier; the in-run gates below (thread
  // identity, thread utilisation, tier speedup, tier drift) tie the
  // kernels together.
  {
    const model::Scenario scenario = model::fig1_network(frames_scale);
    const net::Network network =
        bench::build_scenario_network(scenario, /*seed=*/1, 18.8);
    const net::NoisyDistanceModel model(network, frames_error, /*seed=*/1);

    core::UbfConfig ubf_config;
    ubf_config.measurement_error_hint = frames_error;
    const core::UnitBallFitting ubf(network, ubf_config);

    const localization::Localizer localizer(network, model);
    localization::LocalizerConfig bitwise_cfg;
    bitwise_cfg.tier = localization::EquivalenceTier::kBitwise;
    const localization::Localizer bitwise(network, model, bitwise_cfg);
    KernelRecord rec;
    rec.name = "pipeline.local_frames";
    rec.scenario_name = scenario.name;
    rec.scale = frames_scale;
    rec.nodes = network.num_nodes();
    rec.avg_degree = avg_degree_of(network);
    rec.reps = frames_reps;
    rec.tier = "boundary_identical";
    KernelRecord ref = rec;
    ref.name = "pipeline.local_frames_bitwise";
    ref.tier = "bitwise";
    KernelRecord mt = rec;
    mt.name = "pipeline.local_frames_mt";
    mt.threads = 4;
    bool mt_identical = true;
    for (int rep = 0; rep < frames_reps; ++rep) {
      // Kernel 2: default tier through the frame executor.
      std::vector<localization::LocalFrame> frames;
      localization::FrameBuildStats stats;
      auto t0 = Clock::now();
      localization::build_all_frames(
          localizer, localization::FrameScope::kTwoHop, frames,
          /*threads=*/1, nullptr, nullptr, &stats);
      auto t1 = Clock::now();
      rec.completion_scans = stats.completion_scans;
      double checksum = 0.0;  // keep the frame builds observable
      for (const localization::LocalFrame& f : frames)
        checksum += f.stress_rms;
      double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      rec.mean_ms += ms;
      if (rep == 0 || ms < rec.best_ms) {
        rec.best_ms = ms;
        rec.phases_ms = {{"gather", stats.gather_ns * 1e-6},
                         {"completion", stats.completion_ns * 1e-6},
                         {"center", stats.center_ns * 1e-6},
                         {"eigen", stats.eigen_ns * 1e-6},
                         {"refine", stats.refine_ns * 1e-6}};
      }
      std::printf("%s rep %d: %.2f ms (stress checksum %.6f)\n",
                  rec.name.c_str(), rep, ms, checksum);

      // Kernel 2 at 4 threads: the same build, scheduled by parallel_for.
      // A discarded build first, so that a rep following the serial
      // kernels does not run on cores that are still being brought up.
      std::vector<localization::LocalFrame> mt_frames;
      localization::build_all_frames(
          localizer, localization::FrameScope::kTwoHop, mt_frames, mt.threads);
      mt_frames.clear();
      const double cpu0 = process_cpu_ms();
      t0 = Clock::now();
      localization::build_all_frames(
          localizer, localization::FrameScope::kTwoHop, mt_frames, mt.threads);
      t1 = Clock::now();
      const double cpu_ms = process_cpu_ms() - cpu0;
      ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      mt.mean_ms += ms;
      if (rep == 0 || ms < mt.best_ms) {
        mt.best_ms = ms;
        mt.util = cpu_ms / (ms * mt.threads);
      }
      for (std::size_t i = 0; i < frames.size(); ++i) {
        mt_identical = mt_identical &&
                       mt_frames[i].members == frames[i].members &&
                       mt_frames[i].coords == frames[i].coords &&
                       mt_frames[i].stress_rms == frames[i].stress_rms;
      }
      std::printf("%s rep %d: %.2f ms\n", mt.name.c_str(), rep, ms);

      // Kernel 3: the bitwise reference, one per-node call at a time.
      t0 = Clock::now();
      checksum = 0.0;
      for (std::size_t i = 0; i < network.num_nodes(); ++i) {
        const localization::LocalFrame frame =
            bitwise.mdsmap_frame(static_cast<net::NodeId>(i));
        checksum += frame.stress_rms;
      }
      t1 = Clock::now();
      ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      ref.mean_ms += ms;
      if (rep == 0 || ms < ref.best_ms) ref.best_ms = ms;
      std::printf("%s rep %d: %.2f ms (stress checksum %.6f)\n",
                  ref.name.c_str(), rep, ms, checksum);
    }
    rec.mean_ms /= frames_reps;
    ref.mean_ms /= frames_reps;
    mt.mean_ms /= frames_reps;
    const auto detect = [&](const localization::Localizer& tier) {
      std::vector<localization::LocalFrame> frames;
      localization::build_all_frames(tier, localization::FrameScope::kTwoHop,
                                     frames, /*threads=*/1);
      return ubf.detect_on_frames(frames, /*threads=*/1);
    };
    const std::vector<bool> boundary = detect(localizer);
    for (const bool b : boundary) rec.boundary_nodes += b;
    mt.boundary_nodes = rec.boundary_nodes;  // the frames are identical
    const std::vector<bool> bitwise_boundary = detect(bitwise);
    for (const bool b : bitwise_boundary) ref.boundary_nodes += b;
    for (const KernelRecord* r : {&rec, &ref, &mt})
      std::printf("%s: best %.2f ms, mean %.2f ms over %d reps "
                  "(boundary=%zu)\n",
                  r->name.c_str(), r->best_ms, r->mean_ms, r->reps,
                  r->boundary_nodes);
    std::printf("%s: %.2fx over 1 thread, util %.2f; %s: %" PRIu64
                " completion scans\n",
                mt.name.c_str(), rec.best_ms / mt.best_ms, mt.util,
                rec.name.c_str(), rec.completion_scans);
    std::printf("%s best rep phases:", rec.name.c_str());
    for (const auto& [phase, ms] : rec.phases_ms)
      std::printf(" %s %.2f ms", phase.c_str(), ms);
    std::printf("\n");
    records.push_back(rec);
    records.push_back(ref);
    records.push_back(mt);

    // In-run gate 0 — thread identity: a frame is a pure function of its
    // neighborhood, so the 4-thread build must equal the 1-thread one.
    if (!mt_identical) {
      std::fprintf(stderr,
                   "THREAD DRIFT: the %u-thread frame build differs from the "
                   "1-thread build\n",
                   mt.threads);
      return 1;
    }

    // In-run gate 1 — thread utilisation: the best 4-thread rep must keep
    // its workers busy. A rep that ran serialized (util near 0.25) says
    // nothing about scaling, so it fails instead of passing as a result.
    if (std::thread::hardware_concurrency() < mt.threads) {
      std::printf("%s: %u hardware threads, fewer than %u — utilisation "
                  "gate skipped\n",
                  mt.name.c_str(), std::thread::hardware_concurrency(),
                  mt.threads);
    } else if (mt.util < 0.8) {
      std::fprintf(stderr,
                   "SERIALIZED: %s best rep ran at util %.2f (gate: >= "
                   "0.8)\n",
                   mt.name.c_str(), mt.util);
      return 1;
    }

    // In-run gate 2 — tier speedup: the point of the optimized default
    // tier is throughput; it must beat the bitwise kernel measured in the
    // same process by ≥ 2x (the vs-pre-PR speedup is larger, since the
    // bitwise kernel itself carries the bit-identical optimizations — see
    // EXPERIMENTS.md).
    const double tier_speedup = ref.best_ms / rec.best_ms;
    std::printf("tier speedup: %.2f ms bitwise -> %.2f ms default "
                "(%.2fx)\n",
                ref.best_ms, rec.best_ms, tier_speedup);
    if (tier_speedup < 2.0) {
      std::fprintf(stderr,
                   "REGRESSION: default tier only %.2fx faster than the "
                   "bitwise kernel (contract: >= 2x)\n",
                   tier_speedup);
      return 1;
    }
    // In-run gate 3 — tier drift tripwire: the default tier may round
    // differently, but its boundary must agree with the bitwise answer on
    // ≥ 95% of nodes flagged by either tier.
    std::size_t flips = 0, either = 0;
    for (std::size_t i = 0; i < network.num_nodes(); ++i) {
      flips += boundary[i] != bitwise_boundary[i];
      either += boundary[i] || bitwise_boundary[i];
    }
    const double drift =
        either == 0 ? 0.0
                    : static_cast<double>(flips) / static_cast<double>(either);
    std::printf("tier drift: %zu/%zu flagged nodes flip between tiers "
                "(%.1f%%)\n",
                flips, either, drift * 100.0);
    if (drift > 0.05) {
      std::fprintf(stderr,
                   "TIER DRIFT: default tier flips %.1f%% of the boundary "
                   "vs kBitwise (tripwire: 5%%)\n",
                   drift * 100.0);
      return 1;
    }
  }

  // Kernel 3: the session-cached config sweep — five ε points through one
  // DetectionSession on the same scenario as kernel 2. The local frames
  // are ε-independent, so the session builds them once and only the ball
  // tests + IFF re-run per point; the gate locks that reuse in. A fresh
  // per-config sweep (five full detect_boundaries calls) is timed once as
  // the reference; the session sweep must (a) produce bit-identical
  // boundaries per point and (b) beat the fresh sweep by >= 2x.
  {
    const model::Scenario scenario = model::fig1_network(frames_scale);
    const net::Network network =
        bench::build_scenario_network(scenario, /*seed=*/1, 18.8);
    const double kEpsilons[] = {1e-6, 0.05, 0.1, 0.15, 0.2};

    auto config_for = [&](double eps) {
      core::PipelineConfig cfg;
      cfg.measurement_error = frames_error;
      cfg.noise_seed = 1;
      cfg.threads = 1;
      cfg.ubf.epsilon = eps;
      return cfg;
    };

    KernelRecord rec;
    rec.name = "pipeline.sweep_reuse";
    rec.scenario_name = scenario.name;
    rec.tier = "boundary_identical";  // sweeps the default localizer
    rec.scale = frames_scale;
    rec.nodes = network.num_nodes();
    rec.avg_degree = avg_degree_of(network);
    rec.reps = sweep_reps;

    std::size_t session_boundary = 0;
    for (int rep = 0; rep < sweep_reps; ++rep) {
      core::DetectionSession session(network);
      std::size_t boundary_sum = 0;
      const auto t0 = Clock::now();
      for (const double eps : kEpsilons) {
        boundary_sum += session.run(config_for(eps)).num_boundary();
      }
      const auto t1 = Clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      rec.mean_ms += ms;
      if (rep == 0 || ms < rec.best_ms) rec.best_ms = ms;
      session_boundary = boundary_sum;
      std::printf("%s rep %d: %.2f ms (boundary sum=%zu)\n", rec.name.c_str(),
                  rep, ms, boundary_sum);
    }
    rec.mean_ms /= sweep_reps;
    rec.boundary_nodes = session_boundary;

    // Reference: the pre-session workflow, one fresh pipeline per config.
    std::size_t fresh_boundary = 0;
    const auto f0 = Clock::now();
    for (const double eps : kEpsilons) {
      fresh_boundary +=
          core::detect_boundaries(network, config_for(eps)).num_boundary();
    }
    const auto f1 = Clock::now();
    const double fresh_ms =
        std::chrono::duration<double, std::milli>(f1 - f0).count();

    if (fresh_boundary != session_boundary) {
      std::fprintf(stderr,
                   "SESSION DRIFT: session sweep classifies %zu boundary "
                   "nodes total vs %zu from fresh runs — the cache changed "
                   "the answer\n",
                   session_boundary, fresh_boundary);
      return 1;
    }
    const double speedup = fresh_ms / rec.best_ms;
    std::printf("%s: best %.2f ms, mean %.2f ms over %d reps; fresh sweep "
                "%.2f ms -> %.2fx reuse speedup (boundary sum=%zu)\n",
                rec.name.c_str(), rec.best_ms, rec.mean_ms, rec.reps, fresh_ms,
                speedup, rec.boundary_nodes);
    if (speedup < 2.0) {
      std::fprintf(stderr,
                   "REGRESSION: session sweep only %.2fx faster than fresh "
                   "per-config runs (contract: >= 2x)\n",
                   speedup);
      return 1;
    }
    records.push_back(rec);
  }

  // Kernel 4: churn soak tail latency — the incremental delta path under a
  // fixed, seeded crash/revive/move workload. Each rep rebuilds the same
  // network + session + engine (the churn determinism contract makes the
  // event stream identical), soaks `churn_steps` steps, and reports the
  // p99 re-detect latency; `best_ms` is the best p99 across reps, which
  // damps the tail's run-to-run noise before the 15% gate sees it.
  {
    const model::Scenario scenario = model::fig1_network(frames_scale);
    const net::Network master =
        bench::build_scenario_network(scenario, /*seed=*/1, 18.8);

    core::PipelineConfig cfg;
    cfg.measurement_error = frames_error;
    cfg.noise_seed = 1;
    cfg.threads = 1;
    sim::ChurnConfig churn_cfg;
    churn_cfg.seed = 1;

    KernelRecord rec;
    rec.name = "pipeline.churn_p99";
    rec.scenario_name = scenario.name;
    rec.tier = "boundary_identical";
    rec.scale = frames_scale;
    rec.nodes = master.num_nodes();
    rec.avg_degree = avg_degree_of(master);
    rec.reps = churn_reps;
    for (int rep = 0; rep < churn_reps; ++rep) {
      net::Network network = master;  // engines mutate; each rep starts cold
      core::DetectionSession session(network);
      sim::ChurnEngine engine(network, session, churn_cfg);
      for (int s = 0; s < churn_steps; ++s) engine.step(cfg);
      const double p99 = engine.report().p99_ms();
      rec.mean_ms += p99;
      if (rep == 0 || p99 < rec.best_ms) rec.best_ms = p99;
      rec.boundary_nodes = engine.last_result().num_boundary();
      std::printf("%s rep %d: p99 %.2f ms over %d steps (p50 %.2f ms, "
                  "boundary=%zu)\n",
                  rec.name.c_str(), rep, p99, churn_steps,
                  engine.report().p50_ms(), rec.boundary_nodes);
    }
    rec.mean_ms /= churn_reps;
    std::printf("%s: best p99 %.2f ms, mean p99 %.2f ms over %d reps\n",
                rec.name.c_str(), rec.best_ms, rec.mean_ms, rec.reps);
    records.push_back(rec);
  }

  {
    obs::JsonWriter w;
    w.begin_object();
    w.field("schema", "ballfit-bench-compare-v4");
    w.field("git_sha", sha);
    // Kernels are timed single-threaded unless their record carries its
    // own `threads` (`pipeline.local_frames_mt`).
    w.field("threads", std::uint64_t{1});
    w.key("kernels").begin_array();
    for (const KernelRecord& rec : records) write_kernel(w, rec);
    w.end_array();
    w.end_object();
    std::ofstream out(out_path);
    if (!out.good()) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 2;
    }
    out << w.str() << '\n';
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (against.empty()) return 0;

  std::ifstream in(against);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read baseline %s\n", against.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string baseline = buf.str();

  int exit_code = 0;
  for (const KernelRecord& rec : records) {
    const int rc = gate_kernel(rec, baseline, against, threshold);
    exit_code = std::max(exit_code, rc);
  }
  return exit_code;
}
