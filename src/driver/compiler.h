// Compiler facade: dialect source + environment -> analysis artifacts,
// decomposition, generated code, and a runnable pipeline.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "analysis/pipeline_model.h"
#include "analysis/stage_class.h"
#include "codegen/compiled_pipeline.h"
#include "cost/opcount.h"
#include "decomp/decompose.h"

namespace cgp {

struct CompileOptions {
  EnvironmentSpec env = EnvironmentSpec::paper_cluster(1);
  /// runtime_define_* bindings (packet counts, sizes, thresholds).
  std::map<std::string, std::int64_t> runtime_constants;
  /// Additional size bindings for the cost model: collection lengths
  /// ("len(cubes)") and plain scalars the bounds mention.
  std::map<std::string, std::int64_t> size_bindings;
  std::int64_t n_packets = 64;  // for the pipeline-total objective
  bool apply_fission = true;
  /// Charge moving the raw input over early links (Figure 3 as printed
  /// initializes T[0][j] = 0; see DESIGN.md).
  bool charge_input_movement = true;
  /// Storage-read cost on the data host, in abstract ops per raw input
  /// byte (the paper's data nodes read from local disk/RAID).
  double io_ops_per_byte = 0.5;
  /// Transport batching term fed to the cost model: fixed per-enqueue link
  /// overhead in seconds, amortized over batch_size packets (see DESIGN.md).
  /// The 0-second default reproduces the paper's model exactly.
  double link_batch_overhead_sec = 0.0;
  std::size_t batch_size = 1;
  /// Execution substrate the pipeline will run on ("thread" | "proc";
  /// docs/PERFORMANCE.md, backend selection). Folded into the cost
  /// model via transport_cost_spec: per-byte serialization shaves each
  /// link's effective bandwidth and per-frame overhead (amortized over
  /// batch_size) adds to its latency, so the decomposition sees that a
  /// cut which is free between threads is not free between processes.
  /// "thread" reproduces the paper's link model exactly.
  std::string backend = "thread";
  /// Checkpoint-overhead term fed to the cost model: seconds to serialize
  /// one stage snapshot, charged once every checkpoint_interval packets on
  /// each crossed link's consuming stage (see DESIGN.md). The 0 defaults
  /// reproduce the paper's model exactly.
  double checkpoint_snapshot_sec = 0.0;
  std::size_t checkpoint_interval = 0;
  /// Stage-replication budget (ROADMAP item 1): with max_replicas > 1 the
  /// decomposition may run each classifier-approved stage on up to this
  /// many transparent copies, charging replication_overhead_sec per packet
  /// for every extra copy (see DESIGN.md). The defaults reproduce the
  /// unreplicated decomposition exactly. Replica plans assume a width-1
  /// environment: combining max_replicas > 1 with env copies > 1 would
  /// double-count parallelism.
  int max_replicas = 1;
  double replication_overhead_sec = 0.0;
  OpCountOptions opcount;
};

struct CompileResult {
  std::unique_ptr<Program> program;  // owns the AST the model points into
  PipelineModel model;
  /// Sequential/parallel verdict per atomic filter (the replication DP's
  /// feasibility input; also printed by the decomposition report).
  PipelineClassification classification;
  DecompositionInput decomp_input;
  /// Placement minimizing total pipeline time (§4.3 formulas (1)/(2) with
  /// the configured packet count) — the compiler's chosen decomposition.
  DecompositionResult decomposition;
  /// The Figure 3 dynamic program's result (per-packet-latency objective),
  /// kept for comparison (see the decomposition ablation bench).
  DecompositionResult dp_figure3;
  Placement baseline;                 // the paper's Default placement
  std::string generated_source;       // emitted DataCutter C++ (Decomp)
  std::vector<StagePlan> stage_plans; // plans for the DP placement
  std::string diagnostics;
  bool ok = false;

  /// Builds a runner for an arbitrary placement (Decomp, Default, ...).
  /// `transport` tunes the DataCutter runtime: stream capacity, packet
  /// batching, buffer pooling.
  PipelineCompiler make_runner(const Placement& placement,
                               const EnvironmentSpec& env,
                               PackCost pack_cost = {},
                               dc::RunnerConfig transport = {}) const;
  std::map<std::string, std::int64_t> runtime_constants;
};

/// Full compilation per the paper's flow: parse -> sema -> fission ->
/// segmentation -> Gen/Cons + ReqComm -> cost model -> DP decomposition ->
/// code generation.
CompileResult compile_pipeline(std::string_view source,
                               const CompileOptions& options);

/// Cost-model inputs for a model under an environment and size bindings
/// (exposed separately for the decomposition benches).
DecompositionInput make_decomposition_input(const PipelineModel& model,
                                            const EnvironmentSpec& env,
                                            const CompileOptions& options);

}  // namespace cgp
