#include "bench/figure_common.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "driver/compiler.h"
#include "driver/simulate.h"
#include "support/metrics.h"

namespace cgp::bench {

namespace {

CompileResult compile_for(const apps::AppConfig& config,
                          const EnvironmentSpec& env) {
  CompileOptions options;
  options.env = env;
  options.runtime_constants = config.runtime_constants;
  options.size_bindings = config.size_bindings;
  options.n_packets = config.n_packets;
  return compile_pipeline(config.source, options);
}

}  // namespace

double run_figure(const FigureSpec& spec) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", spec.figure.c_str(), spec.title.c_str());
  std::printf("app: %s, packets: %lld\n", spec.config.name.c_str(),
              static_cast<long long>(spec.config.n_packets));
  if (!spec.paper_notes.empty()) {
    std::printf("paper: %s\n", spec.paper_notes.c_str());
  }
  std::printf("--------------------------------------------------------------\n");
  std::printf("%-8s %-15s %12s %14s %14s %10s %6s\n", "width", "version",
              "sim time(s)", "link0 bytes", "link1 bytes", "bneck", "busy%");

  std::map<std::pair<int, std::string>, double> times;
  std::map<int, support::PipelineTrace> decomp_traces;
  for (int width : {1, 2, 4}) {
    EnvironmentSpec env = EnvironmentSpec::paper_cluster(width);
    CompileResult result = compile_for(spec.config, env);
    if (!result.ok) {
      std::fprintf(stderr, "compile failed for %s:\n%s\n",
                   spec.config.name.c_str(), result.diagnostics.c_str());
      std::exit(1);
    }
    struct Cell {
      std::string name;
      std::optional<Placement> placement;
    };
    std::vector<Cell> cells = {{"Default", result.baseline},
                               {"Decomp-Comp", result.decomposition.placement}};
    if (spec.manual) cells.push_back({"Decomp-Manual", std::nullopt});

    for (const Cell& cell : cells) {
      PipelineRunResult run =
          cell.placement
              ? result.make_runner(*cell.placement, env).run()
              : spec.manual(spec.config.runtime_constants, env);
      // Figure data from a faulted run is silently wrong — flag it.
      if (!run.completed || !run.faults.empty()) {
        std::printf("!! %s width %d: %zu fault(s)%s%s\n", cell.name.c_str(),
                    width, run.faults.size(),
                    run.completed ? "" : ", run did not complete: ",
                    run.completed ? "" : run.error.c_str());
      }
      double sim_time = simulate_run(run, env);
      times[{width, cell.name}] = sim_time;
      // Measured bottleneck stage: where the runtime actually spent its
      // busy time (the paper's bottleneck-stage analysis, from live
      // counters rather than the simulator).
      const int bneck = run.bottleneck_filter();
      std::string bneck_name = "-";
      double busy_share = 0.0;
      if (bneck >= 0 && run.wall_seconds > 0.0) {
        const support::FilterMetrics& f =
            run.stage_metrics[static_cast<std::size_t>(bneck)];
        bneck_name = f.name;
        busy_share =
            100.0 * f.busy_seconds() / (run.wall_seconds * f.copies);
      }
      std::printf("%-8d %-15s %12.4f %14lld %14lld %10s %5.1f%%\n", width,
                  cell.name.c_str(), sim_time,
                  static_cast<long long>(run.link_packet_bytes.size() > 0
                                             ? run.link_packet_bytes[0]
                                             : 0),
                  static_cast<long long>(run.link_packet_bytes.size() > 1
                                             ? run.link_packet_bytes[1]
                                             : 0),
                  bneck_name.c_str(), busy_share);
      if (cell.name == "Decomp-Comp") decomp_traces[width] = run;
    }
  }

  std::printf("--------------------------------------------------------------\n");
  std::printf("per-stage telemetry (Decomp-Comp):\n");
  std::printf("%-8s %-8s %7s %10s %10s %10s %9s %9s\n", "width", "stage",
              "pkts", "busy(s)", "stall_in", "stall_out", "lat_mean", "hiwater");
  for (const auto& [width, trace] : decomp_traces) {
    for (std::size_t s = 0; s < trace.stage_metrics.size(); ++s) {
      const support::FilterMetrics& f = trace.stage_metrics[s];
      std::int64_t hiwater = 0;
      if (s < trace.link_metrics.size())
        hiwater = trace.link_metrics[s].occupancy_high_water;
      std::printf("%-8d %-8s %7lld %10.4f %10.4f %10.4f %9.2e %9lld\n", width,
                  f.name.c_str(),
                  static_cast<long long>(
                      std::max(f.packets_in, f.packets_out)),
                  f.busy_seconds(), f.stall_input_seconds,
                  f.stall_output_seconds, f.latency.mean_seconds(),
                  static_cast<long long>(hiwater));
    }
  }

  std::printf("--------------------------------------------------------------\n");
  auto ratio = [&](int width, const char* a, const char* b) {
    auto ia = times.find({width, a});
    auto ib = times.find({width, b});
    if (ia == times.end() || ib == times.end() || ib->second <= 0.0)
      return 0.0;
    return ia->second / ib->second;
  };
  for (int width : {1, 2, 4}) {
    double improvement = (ratio(width, "Default", "Decomp-Comp") - 1.0) * 100.0;
    std::printf("width %d: Decomp-Comp faster than Default by %6.1f%%", width,
                improvement);
    if (spec.manual) {
      double gap = (ratio(width, "Decomp-Comp", "Decomp-Manual") - 1.0) * 100.0;
      std::printf(" | Manual faster than Comp by %6.1f%%", gap);
    }
    std::printf("\n");
  }
  double s2 = times[{1, "Decomp-Comp"}] / times[{2, "Decomp-Comp"}];
  double s4 = times[{1, "Decomp-Comp"}] / times[{4, "Decomp-Comp"}];
  std::printf("Decomp speedups vs width 1: x%.2f (width 2), x%.2f (width 4)\n",
              s2, s4);
  std::printf("==============================================================\n\n");
  return times[{1, "Decomp-Comp"}];
}

int run_benchmark_suite(const FigureSpec& spec, int argc, char** argv) {
  const apps::AppConfig& config = spec.config;
  benchmark::RegisterBenchmark(
      (spec.figure + "/decomp_width1_end_to_end").c_str(),
      [config](benchmark::State& state) {
        EnvironmentSpec env = EnvironmentSpec::paper_cluster(1);
        CompileResult result = compile_for(config, env);
        if (!result.ok) {
          state.SkipWithError("compile failed");
          return;
        }
        for (auto _ : state) {
          PipelineRunResult run =
              result.make_runner(result.decomposition.placement, env).run();
          benchmark::DoNotOptimize(run.packets);
        }
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace cgp::bench
