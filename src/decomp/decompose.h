// Filter decomposition (§4.4).
//
// Inputs: n+1 atomic filters f_1..f_{n+1} (per-packet op counts), the n+1
// communication volumes Vol(f_i) = bytes crossing a boundary placed right
// after f_i (Vol(f_{n+1}) = final-result volume), and the environment
// C_1..C_m / L_1..L_{m-1}.
//
// The dynamic program of Figure 3 fills T[i][j] = minimum cost of completing
// f_1..f_i with the results of f_i resident on C_j:
//   T[i][j] = min( T[i][j-1] + Cost_comm(B(L_{j-1}), Vol(f_i)),
//                  T[i-1][j] + Cost_comp(P(C_j), Task(f_i)) )
// in O(n·m) time; a rolling-array variant uses O(m) space. A brute-force
// enumerator provides the optimality oracle for tests, and
// full_pipeline_time evaluates formulas (1)/(2) (bottleneck steady state)
// for any placement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cost/environment.h"

namespace cgp {

struct DecompositionInput {
  std::vector<double> task_ops;        // Task(f_i), size n+1
  std::vector<double> boundary_bytes;  // Vol(f_i), size n+1
  /// Volume of the raw input (ReqComm before f_1). Charged when a link is
  /// crossed before any filter has run. Figure 3 as printed initializes
  /// T[0][j] = 0, i.e. never charges this; set input_bytes = 0 to get the
  /// verbatim algorithm (compared in the decomposition ablation bench).
  double input_bytes = 0.0;
  /// Ops the data host spends reading a packet's raw input off storage —
  /// charged to C_1 regardless of placement. Makes offloading work onto
  /// the (I/O-busy) data nodes carry its real cost.
  double source_io_ops = 0.0;
  /// End-of-run reduction handoff (our extension to the paper's §4.3
  /// model): reduction replicas accumulated per copy of the last
  /// reduction-updating stage must cascade to C_m and be merged once the
  /// stream ends. Placing reduction updates early multiplies this fixed
  /// cost by the copy count and the hop count.
  std::vector<char> updates_reduction;   // per filter, optional
  double replica_payload_bytes = 0.0;    // one replica's wire size
  double replica_merge_ops = 0.0;        // merging one replica downstream
  /// Fixed per-enqueue overhead of a link (latency + lock + wakeup),
  /// amortized over the transport's batch size: each crossed link charges
  /// link_batch_overhead_sec / batch_size per packet on top of the byte
  /// cost (see DESIGN.md, "batching term"). Defaults reproduce the
  /// paper's Figure 3 model exactly (no batching term).
  double link_batch_overhead_sec = 0.0;
  double batch_size = 1.0;
  /// Checkpointed-recovery overhead (docs/ROBUSTNESS.md): every crossed
  /// link puts a consuming stage downstream of it, and under checkpointed
  /// restart-copy that stage snapshots its state every checkpoint_interval
  /// packets. Each crossed link therefore charges
  /// checkpoint_snapshot_sec / checkpoint_interval per packet alongside
  /// the batching term above. Defaults reproduce the paper's Figure 3
  /// model exactly (no checkpoint term).
  double checkpoint_snapshot_sec = 0.0;
  double checkpoint_interval = 0.0;
  /// Stage replication (ROADMAP item 1, PS-DSWP-style): per-filter flags
  /// from the stage classifier (1 = the filter tolerates transparent
  /// replication; empty = classify everything sequential), the per-stage
  /// replica budget, and the fixed per-packet cost of each extra replica
  /// on a stage (demux/competitive-pop contention plus replica-merge
  /// bookkeeping). max_replicas <= 1 reproduces the unreplicated model
  /// exactly; a replicated stage's per-packet time becomes
  ///   Task / (P(C_j) * r) + (r - 1) * replication_overhead_sec.
  std::vector<char> parallelizable;
  int max_replicas = 1;
  double replication_overhead_sec = 0.0;
  EnvironmentSpec env;

  int filter_count() const { return static_cast<int>(task_ops.size()); }
  bool valid() const {
    return !task_ops.empty() && task_ops.size() == boundary_bytes.size() &&
           env.valid();
  }
};

/// unit_of_filter[i] = pipeline stage (0-based) executing atomic filter i.
/// Non-decreasing by construction.
struct Placement {
  std::vector<int> unit_of_filter;
  /// Replica plan chosen by the replication-aware decomposition: replicas[s]
  /// = transparent copies of stage s. Empty = no plan (legacy behavior: the
  /// runtime falls back to the environment's per-unit `copies` knob).
  std::vector<int> replicas;

  /// Boundary index (0-based, "after filter b") cut by link k; filters
  /// 0..cut[k] run on units 0..k. cut[k] == -1 means link k is crossed
  /// before any filter ran (raw input forwarded).
  std::vector<int> cuts(int stages) const;

  /// Replica count of stage s under this plan (1 when no plan is present —
  /// callers wanting the legacy env fallback must consult the environment).
  int replicas_of(int stage) const {
    return replicas.empty() ? 1 : replicas[static_cast<std::size_t>(stage)];
  }
  bool replicated() const {
    for (int r : replicas)
      if (r > 1) return true;
    return false;
  }

  std::string to_string() const;
  bool operator==(const Placement& o) const {
    if (unit_of_filter != o.unit_of_filter) return false;
    // An absent plan and an all-ones plan describe the same execution.
    std::size_t n = std::max(replicas.size(), o.replicas.size());
    for (std::size_t s = 0; s < n; ++s) {
      int a = s < replicas.size() ? replicas[s] : 1;
      int b = s < o.replicas.size() ? o.replicas[s] : 1;
      if (a != b) return false;
    }
    return true;
  }
};

struct DecompositionResult {
  Placement placement;
  double cost = 0.0;  // objective value of the optimum
  std::size_t cells_evaluated = 0;
};

/// Figure 3 dynamic program; O(n·m) time, O(n·m) space (keeps the full
/// table for backtracking the placement). With max_replicas > 1 the DP
/// state gains a replica dimension — T[i][j][r] = minimum amortized
/// per-packet cost with f_i resident on C_j running r transparent copies —
/// and the result's placement carries the chosen per-stage replica plan
/// (DESIGN.md §6). r > 1 is only feasible on stages whose filters are all
/// flagged parallelizable, and the result stage C_m keeps r = 1. With
/// max_replicas <= 1 the same table has one replica layer: each stage is
/// priced at the environment's own `copies` and the placement carries no
/// replica plan.
DecompositionResult decompose_dp(const DecompositionInput& input);

/// Space-optimized variant described at the end of §4.4: O(m) live cells
/// (O(m·R) when replication is enabled). Returns the optimal cost only (no
/// placement backtrack is possible without the table).
double decompose_dp_cost_only(const DecompositionInput& input);

enum class Objective {
  PerPacketLatency,  // the DP objective: sum of comp+comm along the chain
  PipelineTotal,     // formulas (1)/(2) with N packets
};

/// Exhaustive enumeration of all C(n+m, m-1) cut placements; the oracle for
/// DP-optimality tests and for the full-pipeline-objective ablation.
DecompositionResult decompose_bruteforce(const DecompositionInput& input,
                                         Objective objective,
                                         std::int64_t n_packets = 1);

/// Per-packet stage/link times for a placement.
void placement_times(const DecompositionInput& input,
                     const Placement& placement,
                     std::vector<double>& unit_times,
                     std::vector<double>& link_times);

/// Formulas (1)/(2): total time of N packets through the placed pipeline,
/// plus the end-of-run reduction-replica cascade when the input declares
/// reduction-updating filters.
double full_pipeline_time(const DecompositionInput& input,
                          const Placement& placement, std::int64_t n_packets);

/// The replica-cascade estimate alone (0 when no reductions are declared).
double reduction_epilogue_time(const DecompositionInput& input,
                               const Placement& placement);

/// Per-packet latency (the DP objective) of a placement.
double placement_latency(const DecompositionInput& input,
                         const Placement& placement);

/// The paper's Default baseline (§6.2): data nodes only read and forward,
/// all processing on the middle stage(s), results copied to the last node.
/// Concretely: every filter on stage `compute_stage`.
Placement default_placement(const DecompositionInput& input,
                            int compute_stage = 1);

}  // namespace cgp
