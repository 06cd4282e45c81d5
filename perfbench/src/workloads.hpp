#pragma once

/// \file workloads.hpp
/// The benchmark's workloads and their timed and traced runs.
///
///   noisy-fig1   the paper's Fig. 1 box-with-hole (1,190 nodes, ranging
///                error 0.2): cold detection, then surfaces. Localization
///                does nearly all the work; the working set fits in cache.
///   true-100k    the same scene sized to 100,000 nodes on true
///                coordinates: localization is bypassed, UBF, the floods
///                and the mesh dominate, and the working set exceeds the
///                last-level cache.
///   churn-noisy  the noisy-fig1 network under a seeded crash/revive/move
///                stream, one client in a closed loop: each step applies
///                one coalesced delta to a DetectionSession and re-detects,
///                and the next delta is sent only after that result.
///
/// One seed drives network sampling, the measurement noise and the churn
/// stream; the library receives only the generated network, the noise seed
/// and the deltas.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/pipeline.hpp"
#include "net/network.hpp"
#include "stats.hpp"

namespace perfbench {

enum class Workload { kNoisyFig1, kTrue100k, kChurnNoisy };

/// nullopt for an unknown name.
std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

struct RunOptions {
  Workload workload = Workload::kNoisyFig1;
  std::uint64_t seed = 1;
  /// Measuring time of the run (after set-up), in seconds.
  double seconds = 20.0;
  /// Worker threads of every parallel stage (count).
  unsigned threads = 4;
  /// Traced run only: file the spans are written to; empty writes none.
  std::string trace_out;
};

/// Samples the workload's network from `seed` and builds its unit-disk
/// graph. `build_ms`, when non-null, receives the time of the
/// `net::build_network` call alone (sampling plus adjacency).
ballfit::net::Network make_network(Workload w, std::uint64_t seed,
                                   unsigned threads,
                                   double* build_ms = nullptr);

/// The workload's pipeline configuration (noise seed = `seed`).
ballfit::core::PipelineConfig pipeline_config(Workload w, std::uint64_t seed,
                                              unsigned threads);

/// Timed run with tracing off: every end-to-end metric.
Record run_end_to_end(const RunOptions& options);

/// Traced run: rebuilds the pipeline from the layers' public functions,
/// checks it against the untraced pipeline, and reports every per-layer
/// metric (0 for a layer the workload does not run).
Record run_traced(const RunOptions& options);

}  // namespace perfbench
