// Differential conformance suite for the stream transport (ISSUE: buffer
// pooling + packet batching). Every dialect application is executed three
// ways — the sequential interpreter (the oracle), the generated pipeline
// under the paper's Default placement (forward-everything on the threaded
// runner), and the compiled pipeline under the compiler's Decomp placement —
// across the full transport matrix
//     batch_size in {1, 4, 64}  x  stream_capacity in {1, 16}  x
//     copies in {1, 3},
// and the final bindings are compared against the oracle. With a single
// copy per stage execution is deterministic, so the comparison is exact:
// each value is serialized with write_value and the bytes must match. With
// transparent copies the end-of-run replica merge may reorder float
// accumulation, so values are compared structurally with a tight tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "apps/app_configs.h"
#include "codegen/interp.h"
#include "codegen/serialize.h"
#include "datacutter/checkpoint.h"
#include "driver/compiler.h"
#include "parser/parser.h"
#include "sema/sema.h"
#include "support/faultinject.h"

namespace cgp {
namespace {

struct Oracle {
  std::map<std::string, Value> values;
};

Oracle run_sequential(const apps::AppConfig& config, const std::string& cls) {
  DiagnosticEngine diags;
  auto program = Parser::parse(config.source, diags);
  Sema sema(*program, diags);
  SemaResult result = sema.run();
  EXPECT_TRUE(result.ok) << diags.render();
  Interpreter interp(result.registry, config.runtime_constants);
  Env env = interp.run(cls, "main");
  return Oracle{env.flatten()};
}

CompileResult compile_app(const apps::AppConfig& config, int width,
                          int max_replicas = 1) {
  CompileOptions options;
  options.env = EnvironmentSpec::paper_cluster(width);
  options.runtime_constants = config.runtime_constants;
  options.size_bindings = config.size_bindings;
  options.n_packets = config.n_packets;
  options.max_replicas = max_replicas;
  if (max_replicas > 1)
    options.replication_overhead_sec = options.env.links.front().latency_sec;
  CompileResult result = compile_pipeline(config.source, options);
  EXPECT_TRUE(result.ok) << config.name << ": " << result.diagnostics;
  return result;
}

std::vector<unsigned char> value_bytes(const Value& value) {
  dc::Buffer buffer;
  write_value(buffer, value);
  const auto* data = reinterpret_cast<const unsigned char*>(buffer.data());
  return std::vector<unsigned char>(data, data + buffer.size());
}

/// Compares sink bindings against the oracle. With tol == 0 every final is
/// compared and must serialize to identical bytes (single-copy execution is
/// deterministic). With tol > 0 only the app's semantic result keys are
/// compared (transparent copies legitimately diverge on per-copy state such
/// as PRNG seeds, and replica merges may reorder float accumulation).
/// `stage_local` names scalars the decomposition legitimately leaves behind
/// on an upstream stage: mutated there but consumed by no later filter, so
/// ReqComm never ships them and the sink reports the declaration
/// initializer, while the oracle's single env holds the mutated value.
void expect_conformant(const Oracle& oracle, const PipelineRunResult& run,
                       double tol, const std::vector<std::string>& result_keys,
                       const std::vector<std::string>& stage_local,
                       const std::string& what) {
  ASSERT_TRUE(run.completed) << what << ": " << run.error;
  ASSERT_FALSE(run.finals.empty()) << what;
  if (tol == 0.0) {
    for (const auto& [key, value] : run.finals) {
      if (std::find(stage_local.begin(), stage_local.end(), key) !=
          stage_local.end())
        continue;
      auto it = oracle.values.find(key);
      ASSERT_NE(it, oracle.values.end()) << what << ": oracle lacks " << key;
      EXPECT_EQ(value_bytes(value), value_bytes(it->second))
          << what << ": " << key << " = " << value_to_string(value) << " vs "
          << value_to_string(it->second);
    }
    return;
  }
  for (const std::string& key : result_keys) {
    auto run_it = run.finals.find(key);
    ASSERT_NE(run_it, run.finals.end()) << what << ": run lacks " << key;
    auto it = oracle.values.find(key);
    ASSERT_NE(it, oracle.values.end()) << what << ": oracle lacks " << key;
    EXPECT_TRUE(value_equal(run_it->second, it->second, tol))
        << what << ": " << key << " = " << value_to_string(run_it->second)
        << " vs " << value_to_string(it->second);
  }
}

/// Runs one app through the transport matrix under both placements and
/// checks every cell against the sequential oracle.
void run_matrix(const apps::AppConfig& config, const std::string& cls,
                const std::vector<std::string>& result_keys,
                const std::vector<std::string>& stage_local = {}) {
  const Oracle oracle = run_sequential(config, cls);
  ASSERT_FALSE(oracle.values.empty());
  for (int copies : {1, 3}) {
    CompileResult result = compile_app(config, copies);
    if (!result.ok) continue;  // compile_app already recorded the failure
    const EnvironmentSpec env = EnvironmentSpec::paper_cluster(copies);
    const double tol = copies == 1 ? 0.0 : 1e-9;
    struct Path {
      const char* name;
      const Placement* placement;
    };
    const Path paths[] = {
        {"decomp", &result.decomposition.placement},
        {"default", &result.baseline},
    };
    for (const Path& path : paths) {
      for (std::size_t batch : {std::size_t{1}, std::size_t{4},
                                std::size_t{64}}) {
        for (std::size_t capacity : {std::size_t{1}, std::size_t{16}}) {
          dc::RunnerConfig transport;
          transport.stream_capacity = capacity;
          transport.batch_size = batch;
          PipelineRunResult run =
              result.make_runner(*path.placement, env, {}, transport).run();
          const std::string what = config.name + " " + path.name +
                                   " copies=" + std::to_string(copies) +
                                   " batch=" + std::to_string(batch) +
                                   " cap=" + std::to_string(capacity);
          expect_conformant(oracle, run, tol, result_keys, stage_local, what);
          EXPECT_EQ(run.batch_size, static_cast<std::int64_t>(batch)) << what;
        }
      }
    }
  }
}

/// Stateful-recovery matrix (docs/ROBUSTNESS.md): every consuming stage is
/// faulted once under restart-copy with filter-state checkpointing, across
/// checkpoint_interval {1, 16} x batch_size {1, 64}, single-copy so the
/// comparison against the fault-free oracle is byte-exact. Compiled stages
/// carry real state between packets (reduction replicas, carried scalars,
/// the packet cursor), so a recovery that loses or double-applies anything
/// shows up as a byte mismatch.
void run_recovery_matrix(const apps::AppConfig& config, const std::string& cls,
                         const std::vector<std::string>& result_keys,
                         const std::vector<std::string>& stage_local = {}) {
  const Oracle oracle = run_sequential(config, cls);
  ASSERT_FALSE(oracle.values.empty());
  CompileResult result = compile_app(config, 1);
  if (!result.ok) return;
  const EnvironmentSpec env = EnvironmentSpec::paper_cluster(1);
  dc::FaultPolicy policy;
  policy.action = dc::FaultAction::kRestartCopy;
  policy.max_retries = 4;
  policy.backoff_initial_seconds = 1e-4;
  policy.backoff_max_seconds = 1e-3;
  struct Path {
    const char* name;
    const Placement* placement;
  };
  const Path paths[] = {
      {"decomp", &result.decomposition.placement},
      {"default", &result.baseline},
  };
  for (const Path& path : paths) {
    for (std::size_t interval : {std::size_t{1}, std::size_t{16}}) {
      for (std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
        dc::RunnerConfig transport;
        transport.batch_size = batch;
        transport.checkpoint_interval = interval;
        PipelineCompiler compiler =
            result.make_runner(*path.placement, env, {}, transport);
        compiler.set_fault_policy(policy);
        compiler.set_packet_hook(support::make_fault_hook(
            support::parse_fault_plan("stage1:throw@2,stage2:throw@1")));
        PipelineRunResult run = compiler.run();
        const std::string what = config.name + " recovery " + path.name +
                                 " interval=" + std::to_string(interval) +
                                 " batch=" + std::to_string(batch);
        expect_conformant(oracle, run, 0.0, result_keys, stage_local, what);
        // Both consuming stages faulted and recovered from their snapshots;
        // nothing was dropped on the way to the byte-exact result.
        ASSERT_EQ(run.faults.size(), 2u) << what;
        for (const support::FaultRecord& fault : run.faults) {
          EXPECT_EQ(fault.resolution,
                    support::FaultResolution::kRestoredCheckpoint)
              << what << ": " << fault.group;
        }
        std::int64_t dropped = 0;
        for (const support::FilterMetrics& m : run.stage_metrics)
          dropped += m.dropped_packets;
        EXPECT_EQ(dropped, 0) << what;
        if (interval == 1) {
          // Every consumed packet commits a snapshot at this interval.
          EXPECT_GE(run.stage_metrics[2].checkpoints, 1) << what;
        }
      }
    }
  }
}

/// Replica-plan matrix (ROADMAP item 1): compile with a replication budget
/// at width 1 and run whatever per-stage replica plan the decomposition DP
/// emits across the transport matrix, checking finals against the oracle.
/// The DP is free to keep r = 1 at these scaled-down sizes, so a second
/// pass forces the budget onto every classifier-approved stage — the
/// runtime's replicated path (round-robin sources, competitive pops,
/// replica merges) is exercised either way. Replicated execution may
/// reorder float accumulation, so comparisons are structural at 1e-9.
void run_replica_plan_matrix(const apps::AppConfig& config,
                             const std::string& cls,
                             const std::vector<std::string>& result_keys,
                             const std::vector<std::string>& stage_local = {}) {
  const Oracle oracle = run_sequential(config, cls);
  ASSERT_FALSE(oracle.values.empty());
  const int budget = 4;
  CompileResult result = compile_app(config, /*width=*/1, budget);
  if (!result.ok) return;
  const EnvironmentSpec env = EnvironmentSpec::paper_cluster(1);
  const std::vector<char> flags = result.classification.parallel_flags();

  // The forced plan: every non-sink stage whose filters are all
  // classifier-approved (the filterless source stage counts) runs at the
  // full budget.
  Placement forced = result.decomposition.placement;
  const std::size_t stages = env.units.size();
  forced.replicas.assign(stages, 1);
  for (std::size_t s = 0; s + 1 < stages; ++s) {
    bool parallel = true;
    for (std::size_t i = 0; i < flags.size(); ++i) {
      if (forced.unit_of_filter[i] == static_cast<int>(s) && !flags[i])
        parallel = false;
    }
    if (parallel) forced.replicas[s] = budget;
  }

  struct Path {
    const char* name;
    const Placement* placement;
  };
  const Path paths[] = {
      {"dp-plan", &result.decomposition.placement},
      {"forced-plan", &forced},
  };
  for (const Path& path : paths) {
    const double tol = path.placement->replicated() ? 1e-9 : 0.0;
    for (std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
      for (std::size_t capacity : {std::size_t{1}, std::size_t{16}}) {
        dc::RunnerConfig transport;
        transport.stream_capacity = capacity;
        transport.batch_size = batch;
        PipelineRunResult run =
            result.make_runner(*path.placement, env, {}, transport).run();
        const std::string what = config.name + " " + path.name + " " +
                                 path.placement->to_string() +
                                 " batch=" + std::to_string(batch) +
                                 " cap=" + std::to_string(capacity);
        expect_conformant(oracle, run, tol, result_keys, stage_local, what);
        // The trace must report the widths the plan asked for.
        for (std::size_t s = 0; s < run.stage_replicas.size(); ++s) {
          EXPECT_EQ(run.stage_replicas[s],
                    path.placement->replicas_of(static_cast<int>(s)))
              << what;
        }
      }
    }
  }
}

/// Kill+resume matrix (the replica-aware exactly-once tentpole): compile
/// with a forced replica budget, enable run-level checkpointing, kill every
/// copy of the first consuming stage at cut marker 2 (refiring fault, retry
/// budget 1, so restarted instances re-die and the whole stage goes down),
/// then resume a fresh runner from the last usable cut on disk and compare
/// the finals against the sequential oracle. Replicated execution may
/// reorder float accumulation, so the comparison is structural at 1e-9
/// when the plan is replicated and byte-exact otherwise.
void run_kill_resume_matrix(const apps::AppConfig& config,
                            const std::string& cls,
                            const std::vector<std::string>& result_keys,
                            const std::vector<std::string>& stage_local = {}) {
  const Oracle oracle = run_sequential(config, cls);
  ASSERT_FALSE(oracle.values.empty());
  const int budget = 4;
  CompileResult result = compile_app(config, /*width=*/1, budget);
  if (!result.ok) return;
  const EnvironmentSpec env = EnvironmentSpec::paper_cluster(1);
  const std::vector<char> flags = result.classification.parallel_flags();

  Placement forced = result.decomposition.placement;
  const std::size_t stages = env.units.size();
  forced.replicas.assign(stages, 1);
  for (std::size_t s = 0; s + 1 < stages; ++s) {
    bool parallel = true;
    for (std::size_t i = 0; i < flags.size(); ++i) {
      if (forced.unit_of_filter[i] == static_cast<int>(s) && !flags[i])
        parallel = false;
    }
    if (parallel) forced.replicas[s] = budget;
  }
  const double tol = forced.replicated() ? 1e-9 : 0.0;

  dc::FaultPolicy policy;
  policy.action = dc::FaultAction::kRestartCopy;
  policy.max_retries = 1;
  policy.backoff_initial_seconds = 1e-4;
  policy.backoff_max_seconds = 1e-3;

  for (std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
    const std::string path = "cgp_conf_resume_" + config.name + "_" +
                             std::to_string(batch) + ".json";
    std::remove(path.c_str());
    const std::string what = config.name + " kill-resume " +
                             forced.to_string() +
                             " batch=" + std::to_string(batch);
    // Kill attempts: cut 0 commits well before marker 2 reaches the
    // consuming stage, so a usable checkpoint lands on disk before the
    // stage dies. A run that somehow leaves no cut (it raced to EOS) is
    // simply retried — the storm is about what survives on disk.
    dc::RunnerConfig transport;
    transport.batch_size = batch;
    transport.stream_capacity = 16;
    transport.checkpoint_interval = 2;
    transport.checkpoint_path = path;
    for (int attempt = 0; attempt < 3 && !std::ifstream(path).good();
         ++attempt) {
      PipelineCompiler killer = result.make_runner(forced, env, {}, transport);
      killer.set_fault_policy(policy);
      killer.set_marker_hook(support::make_marker_fault_hook(
          support::parse_fault_plan("stage1:throw@mark2!")));
      (void)killer.run();
    }
    ASSERT_TRUE(std::ifstream(path).good()) << what << ": no cut committed";
    // Resume from the surviving cut, fault-free; the delivered result must
    // match the uninterrupted oracle.
    const dc::RunCheckpoint cut = dc::load_checkpoint(path);
    EXPECT_GT(cut.source_copies.size(), 0u) << what;
    dc::RunnerConfig resumed = transport;
    resumed.resume = &cut;
    PipelineRunResult run = result.make_runner(forced, env, {}, resumed).run();
    expect_conformant(oracle, run, tol, result_keys, stage_local, what);
    std::remove(path.c_str());
  }
}

/// Cross-backend matrix (ISSUE: multi-process transport): the same compiled
/// pipeline under the Decomp placement on both execution substrates —
/// in-process queues and forked workers over shared-memory rings — across
/// batch x capacity x replicas, each cell checked against the sequential
/// oracle. Single-copy cells are byte-exact on both backends: crossing a
/// process boundary must not perturb one bit of the delivered result.
/// Multi-group cells on the process backend must also report wire
/// telemetry (cgpipe-trace-v7) for the backend they actually ran on.
void run_backend_matrix(const apps::AppConfig& config, const std::string& cls,
                        const std::vector<std::string>& result_keys,
                        const std::vector<std::string>& stage_local = {}) {
  const Oracle oracle = run_sequential(config, cls);
  ASSERT_FALSE(oracle.values.empty());
  for (int copies : {1, 3}) {
    CompileResult result = compile_app(config, copies);
    if (!result.ok) continue;  // compile_app already recorded the failure
    const EnvironmentSpec env = EnvironmentSpec::paper_cluster(copies);
    const double tol = copies == 1 ? 0.0 : 1e-9;
    for (dc::TransportBackend backend :
         {dc::TransportBackend::kThread, dc::TransportBackend::kProc}) {
      for (std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
        for (std::size_t capacity : {std::size_t{1}, std::size_t{16}}) {
          dc::RunnerConfig transport;
          transport.backend = backend;
          transport.stream_capacity = capacity;
          transport.batch_size = batch;
          PipelineRunResult run =
              result.make_runner(result.decomposition.placement, env, {},
                                 transport)
                  .run();
          const std::string what =
              config.name + " backend=" + dc::backend_name(backend) +
              " copies=" + std::to_string(copies) +
              " batch=" + std::to_string(batch) +
              " cap=" + std::to_string(capacity);
          expect_conformant(oracle, run, tol, result_keys, stage_local, what);
          if (backend != dc::TransportBackend::kThread) {
            for (const support::LinkMetrics& link : run.link_metrics) {
              EXPECT_EQ(link.transport, dc::backend_name(backend)) << what;
              EXPECT_GT(link.frames, 0) << what;
              EXPECT_GT(link.wire_bytes, 0) << what;
            }
          }
        }
      }
    }
  }
}

TEST(Conformance, Tiny) {
  run_matrix(apps::tiny_config(256, 8), "Tiny", {"result"});
}

TEST(Conformance, IsosurfaceZBuffer) {
  run_matrix(apps::isosurface_zbuffer_config(false), "IsoZBuffer",
             {"checksum", "lit"});
}

TEST(Conformance, IsosurfaceActivePixels) {
  run_matrix(apps::isosurface_active_pixels_config(false), "IsoActivePixels",
             {"checksum", "lit"});
}

TEST(Conformance, Knn) {
  // `seed` is the data host's point-synthesis PRNG cursor: mutated in
  // pre-loop code, consumed by no downstream filter, so the decomposed
  // sink correctly reports its initializer rather than the mutated value.
  run_matrix(apps::knn_config(3), "Knn", {"kth", "dsum"}, {"seed"});
}

TEST(Conformance, Vmscope) {
  run_matrix(apps::vmscope_config(false), "VMScope", {"total", "filled"});
}

TEST(Conformance, TinyRecovery) {
  run_recovery_matrix(apps::tiny_config(256, 8), "Tiny", {"result"});
}

TEST(Conformance, IsosurfaceZBufferRecovery) {
  run_recovery_matrix(apps::isosurface_zbuffer_config(false), "IsoZBuffer",
                      {"checksum", "lit"});
}

TEST(Conformance, IsosurfaceActivePixelsRecovery) {
  run_recovery_matrix(apps::isosurface_active_pixels_config(false),
                      "IsoActivePixels", {"checksum", "lit"});
}

TEST(Conformance, KnnRecovery) {
  run_recovery_matrix(apps::knn_config(3), "Knn", {"kth", "dsum"}, {"seed"});
}

TEST(Conformance, VmscopeRecovery) {
  run_recovery_matrix(apps::vmscope_config(false), "VMScope",
                      {"total", "filled"});
}

TEST(Conformance, TinyReplicaPlan) {
  run_replica_plan_matrix(apps::tiny_config(256, 8), "Tiny", {"result"});
}

TEST(Conformance, IsosurfaceZBufferReplicaPlan) {
  run_replica_plan_matrix(apps::isosurface_zbuffer_config(false), "IsoZBuffer",
                          {"checksum", "lit"});
}

TEST(Conformance, IsosurfaceActivePixelsReplicaPlan) {
  run_replica_plan_matrix(apps::isosurface_active_pixels_config(false),
                          "IsoActivePixels", {"checksum", "lit"});
}

TEST(Conformance, KnnReplicaPlan) {
  run_replica_plan_matrix(apps::knn_config(3), "Knn", {"kth", "dsum"},
                          {"seed"});
}

TEST(Conformance, VmscopeReplicaPlan) {
  run_replica_plan_matrix(apps::vmscope_config(false), "VMScope",
                          {"total", "filled"});
}

TEST(Conformance, TinyBackends) {
  run_backend_matrix(apps::tiny_config(256, 8), "Tiny", {"result"});
}

TEST(Conformance, IsosurfaceZBufferBackends) {
  run_backend_matrix(apps::isosurface_zbuffer_config(false), "IsoZBuffer",
                     {"checksum", "lit"});
}

TEST(Conformance, IsosurfaceActivePixelsBackends) {
  run_backend_matrix(apps::isosurface_active_pixels_config(false),
                     "IsoActivePixels", {"checksum", "lit"});
}

TEST(Conformance, KnnBackends) {
  run_backend_matrix(apps::knn_config(3), "Knn", {"kth", "dsum"}, {"seed"});
}

TEST(Conformance, VmscopeBackends) {
  run_backend_matrix(apps::vmscope_config(false), "VMScope",
                     {"total", "filled"});
}

/// A dataset whose fills leave no element at its default value: a copy
/// that failed to synthesize an element its packets read would add 0.0
/// for `data` or dereference a null `items` entry, so the finals only
/// match the oracle when every packet's section was synthesized.
std::string partitioned_setup_source() {
  return R"dialect(
interface Reducinterface { }

class Acc implements Reducinterface {
  double total;
  Acc() { total = 0.0; }
  void add(double v) { total = total + v; }
  void merge(Acc other) { total = total + other.total; }
}

class Item {
  double w;
  Item(double ww) { w = ww; }
}

class Setup {
  double weight(int i) { return 1.0 + (i % 7) * 0.125; }

  void main() {
    int n = runtime_define_num_items;
    int npackets = runtime_define_num_packets;
    int psize = n / npackets;
    double[] data = new double[n];
    foreach (i in [0 : n - 1]) {
      data[i] = i + 0.25;
    }
    Item[] items = new Item[n];
    foreach (i in [0 : n - 1]) {
      Item item = new Item(weight(i));
      items[i] = item;
    }
    Acc acc = new Acc();
    PipelinedLoop (p in [0 : npackets - 1]) {
      int base = p * psize;
      double[] vals = new double[psize];
      foreach (i in [base : base + psize - 1]) {
        Item item = items[i];
        vals[i - base] = data[i] * item.w;
      }
      foreach (j in [0 : psize - 1]) {
        acc.add(vals[j]);
      }
    }
    double result = acc.total;
  }
}
)dialect";
}

TEST(Conformance, PartitionedSetupBackends) {
  apps::AppConfig config;
  config.name = "partitioned-setup";
  config.source = partitioned_setup_source();
  const std::int64_t n = 240, npackets = 12, psize = n / npackets;
  config.runtime_constants = {{"runtime_define_num_items", n},
                              {"runtime_define_num_packets", npackets}};
  config.size_bindings = {{"n", n},         {"npackets", npackets},
                          {"psize", psize}, {"base", 0},
                          {"len(data)", n}, {"len(items)", n},
                          {"len(vals)", psize}};
  config.n_packets = npackets;
  const Oracle oracle = run_sequential(config, "Setup");
  ASSERT_FALSE(oracle.values.empty());

  for (int copies : {1, 3}) {
    CompileResult result = compile_app(config, copies);
    ASSERT_TRUE(result.ok);
    const EnvironmentSpec env = EnvironmentSpec::paper_cluster(copies);
    const double tol = copies == 1 ? 0.0 : 1e-9;
    for (dc::TransportBackend backend :
         {dc::TransportBackend::kThread, dc::TransportBackend::kProc}) {
      for (std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
        dc::RunnerConfig transport;
        transport.backend = backend;
        transport.batch_size = batch;
        PipelineCompiler compiler = result.make_runner(
            result.decomposition.placement, env, {}, transport);
        ASSERT_EQ(compiler.plans().front().setup_fills.size(), 2u);
        const PipelineRunResult run = compiler.run();
        const std::string what = std::string("backend=") +
                                 dc::backend_name(backend) +
                                 " copies=" + std::to_string(copies) +
                                 " batch=" + std::to_string(batch);
        expect_conformant(oracle, run, tol, {"result"}, {}, what);
        EXPECT_EQ(run.stage_replicas.front(), copies) << what;
      }
    }
  }

  // Copy c of 3 synthesizes exactly the union of the sections of the
  // packets it emits, p = c, c + 3, ...: [p*psize : p*psize + psize - 1].
  CompileResult result = compile_app(config, 3);
  ASSERT_TRUE(result.ok);
  const SourceSetupVerdict verdict = classify_source_setup(result.model);
  ASSERT_EQ(verdict.fills.size(), 2u) << verdict.to_string();
  for (const SetupFill& fill : verdict.fills) {
    const auto at = std::find(result.model.before.begin(),
                              result.model.before.end(), fill.loop);
    ASSERT_NE(at, result.model.before.end());
    Interpreter interp(result.model.registry, config.runtime_constants);
    Env env;
    interp.exec_stmts({result.model.before.begin(), at}, env);
    for (int c = 0; c < 3; ++c) {
      std::vector<std::pair<std::int64_t, std::int64_t>> expected;
      for (std::int64_t p = c; p < npackets; p += 3)
        expected.emplace_back(p * psize, p * psize + psize - 1);
      const auto ranges =
          source_fill_ranges(result.model, fill, interp, env, c, 3);
      ASSERT_TRUE(ranges.has_value()) << fill.array;
      std::vector<std::pair<std::int64_t, std::int64_t>> got;
      for (const RectDomainVal& range : *ranges)
        got.emplace_back(range.lo, range.hi);
      EXPECT_EQ(got, expected) << fill.array << " copy " << c;
    }
  }
}

TEST(Conformance, TinyKillResume) {
  run_kill_resume_matrix(apps::tiny_config(256, 8), "Tiny", {"result"});
}

TEST(Conformance, IsosurfaceZBufferKillResume) {
  run_kill_resume_matrix(apps::isosurface_zbuffer_config(false), "IsoZBuffer",
                         {"checksum", "lit"});
}

TEST(Conformance, IsosurfaceActivePixelsKillResume) {
  run_kill_resume_matrix(apps::isosurface_active_pixels_config(false),
                         "IsoActivePixels", {"checksum", "lit"});
}

TEST(Conformance, KnnKillResume) {
  run_kill_resume_matrix(apps::knn_config(3), "Knn", {"kth", "dsum"},
                         {"seed"});
}

TEST(Conformance, VmscopeKillResume) {
  run_kill_resume_matrix(apps::vmscope_config(false), "VMScope",
                         {"total", "filled"});
}

}  // namespace
}  // namespace cgp
