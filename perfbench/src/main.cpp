// cgpipe end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Closed loop, one client: each run compiles the workload's application
// with compile_pipeline, builds the runner for the DP-chosen placement and
// runs it to completion; the next run starts when the previous one has
// returned. Every run is checked against the sequential oracle. A warm-up
// run is dropped before timing starts.
//
// --trace 0 measures the end-to-end metrics with only the packet-stamp
// hook installed. --trace 1 alternates untraced runs with traced ones,
// which call each compiler layer separately inside a span, and reports
// the per-layer metrics plus the tracing overhead. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "apps/manual_filters.h"
#include "bench_math.h"
#include "codegen/emitter.h"
#include "codegen/interp.h"
#include "driver/simulate.h"
#include "parser/parser.h"
#include "sema/sema.h"
#include "spans.h"
#include "stamps.h"
#include "support/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cgp::CompileResult;
using cgp::PipelineRunResult;
using cgp::Value;
using Metrics = std::vector<std::pair<std::string, Metric>>;

constexpr int kCompilesPerRun = 8;  // compile_pipeline calls timed after each run
constexpr int kManualRepeats = 5;    // native vmscope runs behind manual.run_s

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload.empty()) return std::nullopt;
  return args;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Sequential-oracle finals and, for the native ceiling, the hand-written
/// vmscope pipeline's.
struct Reference {
  std::map<std::string, Value> oracle;
  double oracle_s = 0.0;
  double oracle_ops = 0.0;
  std::map<std::string, Value> manual;
  double manual_s = 0.0;
};

/// With a recorder, the oracle and the manual runs are traced too.
Reference make_reference(const Workload& w, std::uint64_t seed, bool need_manual,
                         SpanRecorder* rec) {
  Reference ref;
  cgp::DiagnosticEngine diags;
  auto program = cgp::Parser::parse(w.app.source, diags);
  cgp::Sema sema(*program, diags);
  cgp::SemaResult sr = sema.run();
  if (!sr.ok) throw std::runtime_error("oracle: sema failed: " + diags.render());
  cgp::Interpreter interp(sr.registry, w.app.runtime_constants);
  const int oracle_span = rec ? rec->begin("interp.oracle", -1, 0) : -1;
  const Clock::time_point t0 = Clock::now();
  cgp::Env env = interp.run(w.main_class, "main");
  ref.oracle_s = seconds_between(t0, Clock::now());
  if (rec) rec->end(oracle_span);
  ref.oracle_ops = interp.ops();
  ref.oracle = env.flatten();

  if (need_manual) {
    std::vector<double> times;
    for (int i = 0; i < kManualRepeats; ++i) {
      const int manual_span = rec ? rec->begin("manual.run", -1, 0) : -1;
      const Clock::time_point m0 = Clock::now();
      PipelineRunResult run =
          cgp::apps::run_vmscope_manual(vmscope_constants(seed), cgp::EnvironmentSpec::paper_cluster(1));
      times.push_back(seconds_between(m0, Clock::now()));
      if (rec) rec->end(manual_span);
      ref.manual = std::move(run.finals);
    }
    ref.manual_s = median(times);
  }
  return ref;
}

/// compile_pipeline, called layer by layer inside spans. Mirrors the steps
/// of driver/compiler.cpp; Sema runs once more on its own so its cost shows
/// (build_pipeline_model re-runs it internally).
CompileResult traced_compile(const Workload& w, const cgp::CompileOptions& options,
                             SpanRecorder& rec, int parent, int run) {
  CompileResult result;
  result.runtime_constants = options.runtime_constants;
  cgp::DiagnosticEngine diags;
  result.program = rec.timed("parser.parse", parent, run,
                             [&] { return cgp::Parser::parse(w.app.source, diags); });
  rec.timed("sema.run", parent, run, [&] { cgp::Sema(*result.program, diags).run(); });
  cgp::PipelineBuildOptions build;
  build.apply_fission = options.apply_fission;
  result.model = rec.timed("analysis.model", parent, run, [&] {
    return cgp::build_pipeline_model(*result.program, diags, build);
  });
  if (diags.has_errors() || result.model.filters.empty()) {
    result.diagnostics = diags.render();
    return result;
  }
  result.classification = rec.timed("analysis.classify", parent, run,
                                    [&] { return cgp::classify_filters(result.model); });
  result.decomp_input = rec.timed("cost.input", parent, run, [&] {
    return cgp::make_decomposition_input(result.model, options.env, options);
  });
  result.dp_figure3 = rec.timed("decomp.dp", parent, run,
                                [&] { return cgp::decompose_dp(result.decomp_input); });
  result.decomposition = rec.timed("decomp.bruteforce", parent, run, [&] {
    return cgp::decompose_bruteforce(result.decomp_input, cgp::Objective::PipelineTotal,
                                     options.n_packets);
  });
  result.baseline = cgp::default_placement(result.decomp_input, 1);
  result.stage_plans = rec.timed("codegen.plan", parent, run, [&] {
    return cgp::PipelineCompiler(result.model, result.decomposition.placement, options.env,
                                 options.runtime_constants)
        .plans();
  });
  result.generated_source = rec.timed("codegen.emit", parent, run, [&] {
    return cgp::emit_datacutter_source(result.model, result.stage_plans);
  });
  result.ok = true;
  return result;
}

struct RunSample {
  bool ok = true;
  std::string why;
  double wall_s = 0.0;
  double setup_s = 0.0;
  std::vector<double> latencies;
  std::vector<double> gaps;
  Metrics layer;  // traced runs only
};

RunSample failed_run(std::string why) {
  RunSample r;
  r.ok = false;
  r.why = std::move(why);
  return r;
}

Verdict check_run(const Workload& w, const Reference& ref, const PipelineRunResult& res,
                  const PacketStamps& stamps, int sink) {
  if (!res.completed || res.degraded || !res.error.empty())
    return {false, "incomplete run: " + res.error};
  if (!res.faults.empty()) return {false, "run reported a fault"};
  if (!res.respawns.empty()) return {false, "run respawned a worker"};
  if (res.packets <= 0) return {false, "run moved no packets"};
  for (int s = 0; s <= sink; ++s)
    if (stamps.attempted(s) != res.packets)
      return {false, "stage " + std::to_string(s) + " stamps do not match the packet count"};
  Verdict v = w.exact ? compare_exact(res.finals, ref.oracle)
                      : compare_structural(res.finals, ref.oracle, w.result_keys, 1e-9);
  if (v.ok && w.check_manual) {
    v = compare_structural(res.finals, ref.manual, {"total", "filled"}, 0.0);
    if (!v.ok) v.detail = "manual pipeline: " + v.detail;
  }
  return v;
}

/// Per-layer metrics of one traced run, from the runtime's counters, the
/// stamps and the spans.
void layer_metrics(const CompileResult& cr, const PipelineRunResult& res,
                   const PacketStamps& stamps, Clock::time_point t0, double drain_s,
                   double simulate_s, const cgp::SimResult& sim, const SpanRecorder& rec,
                   const std::map<std::string, int>& span_ids, Metrics& out) {
  auto put = [&](std::string name, double value, const char* unit) {
    out.emplace_back(std::move(name), Metric{value, unit});
  };
  auto ms = [&](const char* span) { return rec.duration(span_ids.at(span)) * 1e3; };
  put("parser.parse_ms", ms("parser.parse"), "ms");
  put("sema.run_ms", ms("sema.run"), "ms");
  put("analysis.model_ms", ms("analysis.model"), "ms");
  put("analysis.atomic_filters", static_cast<double>(cr.model.filters.size()), "count");
  put("analysis.classify_ms", ms("analysis.classify"), "ms");
  put("cost.input_ms", ms("cost.input"), "ms");
  put("decomp.dp_ms", ms("decomp.dp"), "ms");
  put("decomp.dp_cells", static_cast<double>(cr.dp_figure3.cells_evaluated), "count");
  put("decomp.bruteforce_ms", ms("decomp.bruteforce"), "ms");
  put("decomp.bruteforce_cells", static_cast<double>(cr.decomposition.cells_evaluated), "count");
  put("codegen.plan_ms", ms("codegen.plan"), "ms");
  put("codegen.emit_ms", ms("codegen.emit"), "ms");
  put("codegen.source_bytes", static_cast<double>(cr.generated_source.size()), "bytes");

  double ops_sum = 0.0, busy_sum = 0.0;
  for (int s = 0; s < PacketStamps::kStages; ++s) {
    const std::string p = "stage" + std::to_string(s) + ".";
    const cgp::support::FilterMetrics& m = res.stage_metrics.at(static_cast<std::size_t>(s));
    const std::vector<double> stamp = stamps.seconds_since(s, t0);
    put(p + "first_packet_s", *std::min_element(stamp.begin(), stamp.end()), "s");
    put(p + "busy_s", m.busy_seconds(), "s");
    if (s > 0) put(p + "stall_in_s", m.stall_input_seconds, "s");
    put(p + "stall_out_s", m.stall_output_seconds, "s");
    put(p + "ops", res.stage_ops.at(static_cast<std::size_t>(s)), "ops");
    if (s == 0) put(p + "copies", m.copies, "count");
    ops_sum += res.stage_ops[static_cast<std::size_t>(s)];
    busy_sum += m.busy_seconds();
  }
  put("interp.pipeline_mops_per_s", busy_sum > 0 ? ops_sum / busy_sum / 1e6 : 0.0, "Mops/s");

  for (std::size_t l = 0; l < 2; ++l) {
    const std::string p = "link" + std::to_string(l) + ".";
    const cgp::support::LinkMetrics& m = res.link_metrics.at(l);
    put(p + "bytes", static_cast<double>(m.bytes), "bytes");
    put(p + "mean_batch",
        m.batches > 0 ? static_cast<double>(m.buffers) / static_cast<double>(m.batches) : 0.0,
        "packets");
    put(p + "frames", static_cast<double>(m.frames), "count");
    put(p + "producer_block_s", m.producer_block_seconds, "s");
    put(p + "consumer_block_s", m.consumer_block_seconds, "s");
    put(p + "send_wait_s", m.send_wait_seconds, "s");
    put(p + "recv_wait_s", m.recv_wait_seconds, "s");
    put(p + "occupancy_hw", static_cast<double>(m.occupancy_high_water), "packets");
  }
  put("pool.hit_ratio", res.pool.hit_rate(), "ratio");
  put("pool.acquires", static_cast<double>(res.pool.acquires), "count");

  double cuts = 0.0, snapshots = 0.0, beats = 0.0;
  for (const auto& c : res.checkpoints) (c.group == "run" ? cuts : snapshots) += 1.0;
  for (const auto& h : res.heartbeats) beats += static_cast<double>(h.beats);
  put("recovery.cuts", cuts, "count");
  put("recovery.snapshots", snapshots, "count");
  put("recovery.heartbeats", beats, "count");
  put("run.respawns", static_cast<double>(res.respawns.size()), "count");
  put("run.drain_ms", drain_s * 1e3, "ms");

  put("sim.simulate_ms", simulate_s * 1e3, "ms");
  put("sim.bottleneck_stage", sim.bottleneck_index, "index");
  put("sim.paper_s", sim.total_time, "sim_s");
  // The cost model graded against this run, as |predicted / measured - 1|:
  // per-packet ops of the filters placed on each stage against the
  // measured mean, and the DP's total against the simulated time of the
  // measured run.
  const std::vector<double> measured = res.mean_stage_ops();
  for (int s = 0; s < PacketStamps::kStages; ++s) {
    double predicted = 0.0;
    const auto& units = cr.decomposition.placement.unit_of_filter;
    for (std::size_t i = 0; i < units.size(); ++i)
      if (units[i] == s) predicted += cr.decomp_input.task_ops[i];
    const double m = measured.at(static_cast<std::size_t>(s));
    put("model.stage" + std::to_string(s) + ".ops_rel_err",
        m > 0 ? std::abs(predicted / m - 1.0) : 0.0, "ratio");
  }
  put("model.total_rel_err",
      sim.total_time > 0 ? std::abs(cr.decomposition.cost / sim.total_time - 1.0) : 0.0, "ratio");
}

/// One closed-loop run: compile, build the runner, run, check. With a
/// recorder the compile is traced layer by layer and the layer metrics are
/// collected.
RunSample run_once(const Workload& w, const Reference& ref, PacketStamps& stamps,
                   SpanRecorder* rec, int run_id) {
  RunSample sample;
  const cgp::CompileOptions options = w.compile_options();
  const cgp::EnvironmentSpec env = w.env();
  const int sink = env.stages() - 1;
  int root = -1;
  stamps.reset();
  const Clock::time_point t0 = Clock::now();
  try {
    CompileResult cr;
    if (rec) {
      root = rec->begin("run", -1, run_id);
      const int compile = rec->begin("compile", root, run_id);
      cr = traced_compile(w, options, *rec, compile, run_id);
      rec->end(compile);
    } else {
      cr = cgp::compile_pipeline(w.app.source, options);
    }
    if (!cr.ok) return failed_run("compile failed: " + cr.diagnostics);

    const int make = rec ? rec->begin("runner.make", root, run_id) : -1;
    cgp::PipelineCompiler runner = cr.make_runner(cr.decomposition.placement, env, {}, w.runner);
    runner.set_packet_hook(stamps.hook());
    if (rec) rec->end(make);
    const int body = rec ? rec->begin("pipeline.run", root, run_id) : -1;
    PipelineRunResult res = runner.run();
    const Clock::time_point t1 = Clock::now();
    if (rec) rec->end(body);
    sample.wall_s = seconds_between(t0, t1);

    const Verdict verdict = rec ? rec->timed("check", root, run_id, [&] {
      return check_run(w, ref, res, stamps, sink);
    })
                                : check_run(w, ref, res, stamps, sink);
    if (!verdict.ok) return failed_run(verdict.detail);

    const std::vector<double> emits = stamps.seconds_since(0, t0);
    const std::vector<double> arrivals = stamps.seconds_since(sink, t0);
    sample.setup_s = *std::min_element(emits.begin(), emits.end());
    sample.latencies = match_latencies(emits, arrivals);
    sample.gaps = arrival_gaps(arrivals);
    const double last_arrival = *std::max_element(arrivals.begin(), arrivals.end());

    if (rec) {
      // Stage windows from the stamps: stage 0 sets up until its first
      // emission, then every stage is active from its first to its last
      // stamp; the run drains from the last sink arrival until run()
      // returns. The windows overlap, which self time accounts for.
      const double origin = rec->seconds(t0);
      rec->add("stage0.setup", body, run_id, rec->spans()[body].start, origin + sample.setup_s);
      for (int s = 0; s <= sink; ++s) {
        const std::vector<double> st = stamps.seconds_since(s, t0);
        rec->add("stage" + std::to_string(s) + ".flow", body, run_id,
                 origin + *std::min_element(st.begin(), st.end()),
                 origin + *std::max_element(st.begin(), st.end()));
      }
      rec->add("drain", body, run_id, origin + last_arrival, rec->spans()[body].end);
      const int sim_span = rec->begin("sim.simulate", root, run_id);
      const cgp::SimResult sim = cgp::simulate_run_full(res, env);
      rec->end(sim_span);
      rec->end(root);
      std::map<std::string, int> ids;
      for (std::size_t i = 0; i < rec->spans().size(); ++i)
        if (rec->spans()[i].run == run_id) ids[rec->spans()[i].name] = static_cast<int>(i);
      layer_metrics(cr, res, stamps, t0, sample.wall_s - last_arrival,
                    rec->duration(sim_span), sim, *rec, ids, sample.layer);
    }
  } catch (const std::exception& e) {
    return failed_run(std::string("run threw: ") + e.what());
  }
  return sample;
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

template <class F>
std::vector<double> collect(const std::vector<RunSample>& runs, F&& f) {
  std::vector<double> out;
  for (const RunSample& r : runs) f(r, out);
  return out;
}

void print_metric(const std::string& name, const Metric& m) {
  std::printf("  %-30s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
}

int run_benchmark(const Args& args) {
  const std::optional<Workload> found = make_workload(args.workload, args.seed);
  if (!found) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("drawn inputs:");
  for (const auto& [key, value] : w.drawn) std::printf(" %s=%lld", key.c_str(), static_cast<long long>(value));
  std::printf("\nconfiguration: %s, paper_cluster(%d), %s backend, batch %zu\n", w.app.name.c_str(),
              w.width, w.runner.backend == cgp::dc::TransportBackend::kProc ? "proc" : "thread",
              w.runner.batch_size);

  SpanRecorder rec(Clock::now());
  const Reference ref =
      make_reference(w, args.seed, w.check_manual || args.trace, args.trace ? &rec : nullptr);
  std::printf("oracle: %.4f s, %.4g ops\n", ref.oracle_s, ref.oracle_ops);
  if (!ref.manual.empty()) std::printf("manual vmscope: %.6f s (median of %d)\n", ref.manual_s, kManualRepeats);

  PacketStamps stamps;
  bool correct = true;
  int attempted = 0, failed = 0;
  auto account = [&](const RunSample& r, const char* what) {
    ++attempted;
    if (!r.ok) {
      ++failed;
      correct = false;
      std::printf("%s run FAILED: %s\n", what, r.why.c_str());
    }
  };

  // Warm-up: checked, not timed.
  {
    const RunSample warm = run_once(w, ref, stamps, nullptr, 0);
    if (!warm.ok) {
      correct = false;
      std::printf("warm-up run FAILED: %s\n", warm.why.c_str());
    }
  }

  // compile_pipeline takes a few milliseconds, shorter than the bursts of
  // host contention, so its samples are spread over the whole measurement
  // (a few calls after every run) and compile_ms is their 10th percentile:
  // on a shared host the median lands between a fast and a contended mode
  // and moved by up to 30% between invocations, the 10th percentile by 5%.
  std::vector<double> compile_times;
  auto time_compiles = [&] {
    for (int i = 0; i < kCompilesPerRun; ++i) {
      const Clock::time_point c0 = Clock::now();
      const CompileResult cr = cgp::compile_pipeline(w.app.source, w.compile_options());
      compile_times.push_back(seconds_between(c0, Clock::now()));
      if (!cr.ok) correct = false;
    }
  };

  std::vector<RunSample> plain, traced;
  const Clock::time_point start = Clock::now();
  int run_id = 0;
  while (seconds_between(start, Clock::now()) < args.seconds || run_id < (args.trace ? 2 : 1)) {
    ++run_id;
    const bool trace_this = args.trace && run_id % 2 == 0;
    RunSample r = run_once(w, ref, stamps, trace_this ? &rec : nullptr, run_id);
    account(r, trace_this ? "traced" : "timed");
    const std::size_t first_compile = compile_times.size();
    time_compiles();
    if (r.ok)
      std::printf("run %d%s: wall_s=%.4f setup_s=%.4f period_ms=%.3f latency_p50_ms=%.3f "
                  "latency_p90_ms=%.3f compile_ms=%.3f\n",
                  run_id, trace_this ? " (traced)" : "", r.wall_s, r.setup_s, median(r.gaps) * 1e3,
                  percentile(r.latencies, 50) * 1e3, percentile(r.latencies, 90) * 1e3,
                  median({compile_times.begin() + static_cast<std::ptrdiff_t>(first_compile),
                          compile_times.end()}) * 1e3);
    if (r.ok) (trace_this ? traced : plain).push_back(std::move(r));
  }
  const double measured_s = seconds_between(start, Clock::now());
  if (plain.empty() || (args.trace && traced.empty())) {
    std::printf("no successful %s run to measure\n", plain.empty() ? "timed" : "traced");
    const cgp::support::Json result(cgp::support::Json::Object{
        {"correct", false}, {"attempted", attempted}, {"failed", failed},
        {"metrics", cgp::support::Json::Object{}}});
    std::printf("%s\n", result.dump().c_str());
    return 1;
  }

  // End-to-end metrics from the untraced runs.
  const std::vector<double> walls = collect(plain, [](const RunSample& r, auto& o) { o.push_back(r.wall_s); });
  const std::vector<double> setups = collect(plain, [](const RunSample& r, auto& o) { o.push_back(r.setup_s); });
  const std::vector<double> lat = collect(plain, [](const RunSample& r, auto& o) {
    o.insert(o.end(), r.latencies.begin(), r.latencies.end());
  });
  const std::vector<double> gaps = collect(plain, [](const RunSample& r, auto& o) {
    o.insert(o.end(), r.gaps.begin(), r.gaps.end());
  });
  const double wall_s = median(walls);
  Metrics e2e = {
      {"wall_s", {wall_s, "s"}},
      {"setup_s", {median(setups), "s"}},
      {"compile_ms", {percentile(compile_times, 10) * 1e3, "ms"}},
      {"period_ms", {median(gaps) * 1e3, "ms"}},
      {"latency_p90_ms", {percentile(lat, 90) * 1e3, "ms"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
  };
  // The median latency is reported with the per-layer metrics, which carry
  // no regression bound: whether a run's source outpaces its bottleneck
  // stage depends on which thread the host slows, so the median packet
  // falls before or after the queues fill and moves by up to 30% between
  // invocations. The 90th percentile is set by the filled queues.
  const Metric latency_p50{percentile(lat, 50) * 1e3, "ms"};
  std::printf("\nend-to-end, closed loop, 1 client, %.1f s measured:\n", measured_s);
  std::printf("  runs: %zu timed untraced, %zu traced, %d attempted, %d failed (fail_ratio %.4g)\n",
              plain.size(), traced.size(), attempted, failed,
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0);
  std::printf("  samples: wall/setup n=%zu, compile n=%zu, latency n=%zu (highest supported "
              "percentile p%g), period gaps n=%zu\n",
              walls.size(), compile_times.size(), lat.size(), highest_supported_percentile(lat.size()),
              gaps.size());
  for (const auto& [name, m] : e2e) print_metric(name, m);
  print_metric("latency_p50_ms", latency_p50);
  std::printf("  compile samples (ms): min %.4f p10 %.4f p25 %.4f p50 %.4f p75 %.4f\n",
              percentile(compile_times, 0) * 1e3, percentile(compile_times, 10) * 1e3,
              percentile(compile_times, 25) * 1e3, percentile(compile_times, 50) * 1e3,
              percentile(compile_times, 75) * 1e3);

  Metrics layer;
  if (args.trace) {
    // Median of each layer metric over the traced runs.
    for (std::size_t k = 0; k < traced.front().layer.size(); ++k) {
      const std::vector<double> values =
          collect(traced, [k](const RunSample& r, auto& o) { o.push_back(r.layer[k].second.value); });
      layer.emplace_back(traced.front().layer[k].first,
                         Metric{median(values), traced.front().layer[k].second.unit});
    }
    const double traced_wall = median(collect(traced, [](const RunSample& r, auto& o) { o.push_back(r.wall_s); }));
    layer.push_back({"latency_p50_ms", latency_p50});
    layer.push_back({"interp.oracle_s", {ref.oracle_s, "s"}});
    layer.push_back({"interp.oracle_ops", {ref.oracle_ops, "ops"}});
    layer.push_back({"interp.oracle_mops_per_s", {ref.oracle_ops / ref.oracle_s / 1e6, "Mops/s"}});
    layer.push_back({"run.speedup_vs_oracle", {ref.oracle_s / wall_s, "ratio"}});
    layer.push_back({"manual.run_s", {ref.manual_s, "s"}});
    layer.push_back({"run.comp_over_manual", {wall_s / ref.manual_s, "ratio"}});
    layer.push_back({"trace.overhead_ratio", {traced_wall / wall_s, "ratio"}});

    std::printf("\nper-layer spans over %zu traced runs, sorted by self time:\n", traced.size());
    std::printf("  %-20s %6s %12s %12s\n", "span", "count", "total_s", "self_s");
    for (const LayerRow& row : layer_table(rec.spans()))
      std::printf("  %-20s %6d %12.6f %12.6f\n", row.name.c_str(), row.count, row.total_s, row.self_s);
    std::printf("\nper-layer metrics (median over traced runs):\n");
    for (const auto& [name, m] : layer) print_metric(name, m);

    if (!args.trace_out.empty()) {
      std::vector<std::pair<std::string, std::string>> header = {
          {"workload", w.name}, {"seed", std::to_string(args.seed)}};
      for (const auto& [key, value] : w.drawn) header.emplace_back(key, std::to_string(value));
      Metrics all = e2e;
      all.insert(all.end(), layer.begin(), layer.end());
      write_trace_json(args.trace_out, header, rec.spans(), all);
      std::printf("trace written to %s\n", args.trace_out.c_str());
    }
  }

  cgp::support::Json::Object metrics;
  for (const auto& [name, m] : args.trace ? layer : e2e)
    metrics.emplace_back(name, cgp::support::Json::Object{{"value", m.value}, {"unit", m.unit}});
  const cgp::support::Json result(cgp::support::Json::Object{{"correct", correct},
                                                             {"attempted", attempted},
                                                             {"failed", failed},
                                                             {"metrics", std::move(metrics)}});
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <zbuffer-w1|vmscope-w1|active-w2-proc> "
                 "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n");
    return 2;
  }
  try {
    return perfbench::run_benchmark(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
