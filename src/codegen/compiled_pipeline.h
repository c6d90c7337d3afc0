// Executable code generation (§5).
//
// Given a PipelineModel and a Placement, builds one DataCutter filter per
// pipeline stage:
//   * stage 0 (data): runs the pre-loop setup once, then iterates its
//     round-robin share of packets, executes its atomic filters, packs the
//     boundary's ReqComm per the §5 layout, and emits. A dataset fill the
//     compiler partitions (DESIGN.md §6.13) synthesizes only the elements
//     that copy's own packets read, and is freed after its last packet on
//     the workers that filled it (DESIGN.md §6.14);
//   * middle stages: unpack -> execute -> pack -> emit (or pure relay when
//     no atomic filter is placed on the stage);
//   * last stage (view): unpack -> execute; at end of stream it merges the
//     reduction replicas cascaded from upstream copies and runs the
//     post-loop code.
//
// Reduction variables (loop-global Reducinterface objects) are replicated
// per filter copy; each copy accumulates locally and forwards its replica
// at finalize; downstream merges replicas via the class's `merge` method.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "analysis/pipeline_model.h"
#include "analysis/stage_class.h"
#include "codegen/packing.h"
#include "cost/environment.h"
#include "datacutter/runner.h"
#include "decomp/decompose.h"

namespace cgp {

/// Per-stage compiled plan (also consumed by the source emitter).
struct StagePlan {
  int stage = 0;
  /// Transparent copies this stage runs under the placement's replica plan
  /// (1 when the placement carries no plan — the runtime then falls back
  /// to the environment's per-unit copies knob).
  int copies = 1;
  std::vector<int> filter_indices;     // atomic filters placed here
  std::vector<const Stmt*> stmts;      // their statements, in order
  PackingLayout output_layout;         // empty for the last stage
  std::vector<std::string> replicas;   // reduction vars this stage updates
  std::vector<std::string> carry;      // values the post-loop code reads
  /// Pure scalar pre-loop declarations (computable from runtime constants)
  /// re-executed at init on non-source stages, so replica constructors and
  /// section bounds can reference them.
  std::vector<const VarDeclStmt*> preamble;
  /// Loop-body declarations re-executed at packet start on this stage:
  /// collections written here but declared on an earlier stage and fully
  /// regenerated (dead-in), so ReqComm rightly does not ship their
  /// contents — only the allocation must be recreated locally.
  std::vector<const VarDeclStmt*> materialize;
  /// An output group the stage forwards verbatim from the arriving packet
  /// (zero-copy passthrough): same collection and item list on both
  /// boundaries, no sections, and the stage never touches the collection.
  /// The group block is copied bytes-for-bytes instead of being unpacked
  /// into Values and repacked; `patch_flag` rewrites the single layout
  /// flag byte when the boundaries disagree on instance-wise vs field-wise
  /// (legal only for single-item groups, whose two serializations are
  /// otherwise identical).
  struct PassthroughRoute {
    int out_group = 0;  // index into output_layout.groups
    int in_group = 0;   // index into the upstream layout's groups
    bool patch_flag = false;
  };
  std::vector<PassthroughRoute> passthrough;
  bool relay = false;                  // no filters: forward buffers
  /// Source stage of a multi-stage pipeline only: the pre-loop fills each
  /// copy runs over just its own packets' share (classify_source_setup).
  /// The sink's bindings are the run's finals, so a one-stage pipeline
  /// keeps its whole setup.
  std::vector<SetupFill> setup_fills;
};

/// The element ranges of `fill` that source copy `copy_index` of
/// `copy_count` synthesizes: the union of the fill's sections over the
/// packets the copy owns (round-robin, as the source emits them), sorted
/// and merged. The packet domain and the section bounds are evaluated in
/// `env`, which holds the bindings at the fill's position. nullopt when a
/// bound does not resolve; the copy then runs the whole fill.
std::optional<std::vector<RectDomainVal>> source_fill_ranges(
    const PipelineModel& model, const SetupFill& fill, Interpreter& interp,
    Env& env, int copy_index, int copy_count);

/// One compiled run: the runtime's trace of it (faults, metrics, pool,
/// cuts, respawns, disposition; see support/metrics.h) plus the sink's
/// final bindings and the per-stage inputs of the pipeline simulator.
/// `packets` counts the packets the sources generated; `finals` may be
/// partial when !completed.
struct PipelineRunResult : support::PipelineTrace {
  std::map<std::string, Value> finals;  // sink bindings after post-loop code
  // Measured per-run telemetry (for the simulator).
  std::vector<double> stage_ops;          // total packet ops per stage
  std::vector<double> stage_replica_ops;  // end-of-run merge/setup ops
  std::vector<std::int64_t> link_packet_bytes;
  std::vector<std::int64_t> link_replica_bytes;

  /// Uniform per-packet trace + epilogue for the pipeline simulator.
  std::vector<double> mean_stage_ops() const;
  std::vector<double> mean_link_bytes() const;

  /// Takes the runner's trace of the run, keeping the source count the
  /// pipeline's own filters kept in `packets`.
  void adopt_trace(support::PipelineTrace trace);
};

/// Extra ops charged for buffer handling, emulating the DataCutter copy /
/// packing overhead on both sides of a link.
struct PackCost {
  double ops_per_byte = 0.25;
  double ops_per_buffer = 400.0;
  /// Rate for bytes a stage forwards verbatim (StagePlan::passthrough):
  /// a bulk memcpy of the group block instead of per-element unpack and
  /// repack, so it undercuts ops_per_byte by ~5x on both sides of the
  /// stage (docs/DESIGN.md, packing cost model).
  double passthrough_ops_per_byte = 0.05;
  /// Per-packet storage-read work charged to the source stage (disk read
  /// of the raw input), in abstract ops.
  double source_io_ops = 0.0;
};

class PipelineCompiler {
 public:
  PipelineCompiler(const PipelineModel& model, const Placement& placement,
                   const EnvironmentSpec& env,
                   std::map<std::string, std::int64_t> runtime_constants,
                   PackCost pack_cost = {});

  const std::vector<StagePlan>& plans() const { return plans_; }

  /// Fault policy applied to the generated pipeline's runner (default
  /// fail-fast, matching the historical throw-on-failure behavior).
  void set_fault_policy(const dc::FaultPolicy& policy) { policy_ = policy; }
  const dc::FaultPolicy& fault_policy() const { return policy_; }
  /// Per-packet fault-injection hook forwarded to the runner (stage groups
  /// are named "stage<N>").
  void set_packet_hook(dc::PacketHook hook) { hooks_.packet = std::move(hook); }
  /// Pre-snapshot fault-injection hook forwarded to the runner (the @ckpt
  /// trigger; see support/faultinject.h).
  void set_checkpoint_hook(dc::CheckpointHook hook) {
    hooks_.checkpoint = std::move(hook);
  }
  /// Run-level marker fault-injection hook forwarded to the runner (the
  /// @markN trigger; see support/faultinject.h).
  void set_marker_hook(dc::MarkerHook hook) { hooks_.marker = std::move(hook); }
  /// Transport tuning forwarded to the generated pipeline's runner: stream
  /// capacity, packet batching, buffer pooling.
  void set_runner_config(const dc::RunnerConfig& config) { config_ = config; }
  const dc::RunnerConfig& runner_config() const { return config_; }

  /// Runs the compiled pipeline on the threaded DataCutter runtime with the
  /// environment's copy counts and returns results + telemetry. Under
  /// fail-fast a filter failure throws (historical behavior); under
  /// restart-copy / drop-packet the result always comes back, with
  /// completed/error/faults describing what happened.
  PipelineRunResult run();

  struct Shared;  // internal telemetry/result aggregation (public for the
                  // generated filters)

 private:
  std::vector<dc::FilterGroup> build_groups(std::shared_ptr<Shared> shared);

  const PipelineModel& model_;
  Placement placement_;
  EnvironmentSpec env_;
  std::map<std::string, std::int64_t> runtime_constants_;
  PackCost pack_cost_;
  dc::FaultPolicy policy_;
  dc::RunnerConfig config_;
  dc::RunHooks hooks_;
  std::vector<StagePlan> plans_;
};

}  // namespace cgp
