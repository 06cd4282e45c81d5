/// \file fig_robustness_sweep.cpp
/// Robustness sweep (ours — no paper counterpart): boundary-detection
/// quality under imperfect communication, plus a churn soak. Sweeps
/// message loss rate × crash fraction × flood retransmission count on the
/// Fig. 1 scenario through one cached `core::DetectionSession` and reports
/// precision/recall degradation plus the fault telemetry (drops,
/// duplications, crashed nodes, frame fallbacks) into
/// `bench_results.json`. A closing soak phase drives a `sim::ChurnEngine`
/// (crash/revive/move bursts under active fault injection) and reports
/// p50/p99/max incremental re-detect latency and boundary churn.
///
/// The paper assumes reliable local broadcast; this harness measures how
/// far the pipeline drifts from the reliable-network answer as that
/// assumption erodes, and how much `repeat` retransmissions buy back.
/// Phase 1 runs on true coordinates so the sweep isolates the
/// communication axis (localization noise is fig1_boundary_detection's
/// axis). Every configuration runs through the session stage graph — the
/// same engine the soak exercises incrementally — so fault-injected
/// results here are reproducible pure functions of the config.
///
/// Flags: --seed <n>, --scale <x> (default 0.5), --quick (tiny network,
/// 2 loss points, short soak — the CI smoke configuration),
/// --churn-steps <n> (soak length; 0 skips the phase), --out <path>
/// (default bench_results.json).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/session.hpp"
#include "sim/churn.hpp"

using namespace ballfit;

namespace {

bool has_flag(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    if (name == argv[i]) return true;
  }
  return false;
}

std::string pct(double x) { return format_percent(x); }

std::string ms(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", x);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed =
      static_cast<std::uint64_t>(bench::int_flag(argc, argv, "--seed", 1));
  const bool quick = has_flag(argc, argv, "--quick");
  const double scale =
      bench::double_flag(argc, argv, "--scale", quick ? 0.3 : 0.5);
  const auto churn_steps = static_cast<std::size_t>(
      bench::int_flag(argc, argv, "--churn-steps", quick ? 30 : 120));
  bench::BenchReport report(
      "fig_robustness_sweep",
      bench::string_flag(argc, argv, "--out", "bench_results.json"));

  std::printf("== Robustness sweep: loss x crash x retransmission ==\n");
  const model::Scenario scenario = model::fig1_network(scale);
  const net::Network network =
      bench::build_scenario_network(scenario, seed, 18.8);
  core::DetectionSession session(network);

  const std::vector<double> losses =
      quick ? std::vector<double>{0.0, 0.2}
            : std::vector<double>{0.0, 0.05, 0.1, 0.2, 0.3};
  const std::vector<double> crash_fractions =
      quick ? std::vector<double>{0.0} : std::vector<double>{0.0, 0.1, 0.2};
  const std::vector<std::uint32_t> repeats =
      quick ? std::vector<std::uint32_t>{2}
            : std::vector<std::uint32_t>{1, 2, 3};

  Table table({"loss", "crash", "repeat", "precision", "recall", "dropped",
               "dup", "crashed", "fallbacks", "groups"});

  // One fault seed for the whole sweep: every point draws its crash set
  // and its channel fates from it, so at a fixed crash fraction the same
  // nodes are down across every loss and repeat row, and a point differs
  // from its neighbors only along the axis that changed.
  const std::uint64_t fault_seed = seed * 1000;
  for (const double loss : losses) {
    for (const double crash : crash_fractions) {
      for (const std::uint32_t repeat : repeats) {
        Stopwatch timer;
        bench::RunRecord& run = report.begin_run();

        core::PipelineConfig cfg;
        cfg.use_true_coordinates = true;
        sim::FaultConfig faults;
        faults.drop_probability = loss;
        // Exercise the duplication path too: radios that lose packets
        // also replay them; half the loss rate is a plausible ratio.
        faults.duplicate_probability = loss / 2.0;
        faults.crash_fraction = crash;
        faults.seed = fault_seed;
        cfg.faults = faults;
        cfg.flood_repeat = repeat;

        const core::PipelineResult result = session.run(cfg);
        const core::DetectionStats s =
            core::evaluate_detection(network, result.boundary);
        const double precision =
            s.found == 0 ? 1.0
                         : static_cast<double>(s.correct) /
                               static_cast<double>(s.found);
        const double recall = s.correct_rate();

        run.param("scenario", scenario.name)
            .param("seed", static_cast<double>(seed))
            .param("scale", scale)
            .param("loss", loss)
            .param("crash_fraction", crash)
            .param("repeat", static_cast<double>(repeat))
            .param("precision", precision)
            .param("recall", recall)
            .param("dropped", static_cast<double>(result.fault_stats.dropped))
            .param("duplicated",
                   static_cast<double>(result.fault_stats.duplicated))
            .param("crashed_nodes",
                   static_cast<double>(result.crashed_nodes))
            .param("frame_fallbacks",
                   static_cast<double>(result.frame_fallbacks))
            .param("groups", static_cast<double>(result.groups.count()))
            .detection(s)
            .cost("iff", result.iff_cost)
            .cost("grouping", result.grouping_cost);

        table.add_row({pct(loss), pct(crash), std::to_string(repeat),
                       pct(precision), pct(recall),
                       std::to_string(result.fault_stats.dropped),
                       std::to_string(result.fault_stats.duplicated),
                       std::to_string(result.crashed_nodes),
                       std::to_string(result.frame_fallbacks),
                       std::to_string(result.groups.count())});
        std::fprintf(stderr,
                     "  loss %.0f%% crash %.0f%% repeat %u done in %.1fs\n",
                     loss * 100, crash * 100, repeat,
                     timer.elapsed_seconds());
      }
    }
  }

  std::printf("\n-- precision/recall degradation under faults --\n");
  table.print();

  if (churn_steps > 0) {
    std::printf("\n== Churn soak: %zu steps under active fault injection ==\n",
                churn_steps);
    // The soak mutates its network (move deltas rebuild adjacency), so it
    // runs on its own identically-built copy.
    net::Network soak_net = bench::build_scenario_network(scenario, seed, 18.8);
    core::DetectionSession soak_session(soak_net);

    core::PipelineConfig cfg;
    cfg.use_true_coordinates = true;
    sim::FaultConfig faults;
    faults.drop_probability = 0.1;
    faults.duplicate_probability = 0.05;
    faults.crash_probability = 0.001;
    faults.seed = seed * 1000 + 999;
    cfg.faults = faults;
    cfg.flood_repeat = 2;

    sim::ChurnConfig churn;
    churn.seed = seed + 77;
    churn.bursts_per_step = 2;
    churn.fault_rounds_per_step = 1;
    sim::ChurnEngine engine(soak_net, soak_session, churn);

    bench::RunRecord& run = report.begin_run();
    Stopwatch timer;
    for (std::size_t step = 0; step < churn_steps; ++step) {
      (void)engine.step(cfg);
    }
    const sim::ChurnReport& rep = engine.report();
    const core::DetectionStats s =
        core::evaluate_detection(soak_net, engine.last_result().boundary);
    run.param("scenario", scenario.name)
        .param("seed", static_cast<double>(seed))
        .param("scale", scale)
        .param("churn_steps", static_cast<double>(rep.steps))
        .param("churn_crashes", static_cast<double>(rep.crashes))
        .param("churn_revives", static_cast<double>(rep.revives))
        .param("churn_moves", static_cast<double>(rep.moves))
        .param("churn_coalesced_away", static_cast<double>(rep.coalesced_away))
        .param("boundary_churn", static_cast<double>(rep.boundary_churn))
        .param("redetect_p50_ms", rep.p50_ms())
        .param("redetect_p99_ms", rep.p99_ms())
        .param("redetect_max_ms", rep.max_ms())
        .param("redetect_total_ms", rep.total_ms())
        .detection(s);

    Table soak({"steps", "crashes", "revives", "moves", "boundary_churn",
                "p50 ms", "p99 ms", "max ms"});
    soak.add_row({std::to_string(rep.steps), std::to_string(rep.crashes),
                  std::to_string(rep.revives), std::to_string(rep.moves),
                  std::to_string(rep.boundary_churn), ms(rep.p50_ms()),
                  ms(rep.p99_ms()), ms(rep.max_ms())});
    soak.print();
    std::fprintf(stderr, "  soak done in %.1fs\n", timer.elapsed_seconds());
  }

  report.print_last_run_summary();
  report.write();
  return 0;
}
