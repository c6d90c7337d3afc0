#include "decomp/decompose.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <sstream>

namespace cgp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-packet share of the fixed per-enqueue link overhead (0 unless the
/// input models batching).
double per_packet_batch_overhead(const DecompositionInput& input) {
  return input.link_batch_overhead_sec / std::max(1.0, input.batch_size);
}

/// Per-packet share of the downstream stage's snapshot cost (0 unless the
/// input models checkpointed recovery): one snapshot every
/// checkpoint_interval packets on the consuming side of each crossed link.
double per_packet_checkpoint_overhead(const DecompositionInput& input) {
  if (input.checkpoint_interval <= 0.0) return 0.0;
  return input.checkpoint_snapshot_sec / input.checkpoint_interval;
}

/// True when filter i (0-based) tolerates transparent replication.
bool filter_parallel(const DecompositionInput& input, int i) {
  return i >= 0 && i < static_cast<int>(input.parallelizable.size()) &&
         input.parallelizable[static_cast<std::size_t>(i)];
}

/// Service power of a stage running `r` copies. A replica plan prices the
/// stage at r compiler-chosen copies; without one (R = 1, or a placement
/// with no plan) the environment's own `copies` knob sets the width.
double stage_power(const ComputeUnit& unit, bool planned, int r) {
  return planned ? replica_power(unit, r) : unit.effective_power();
}
}

std::vector<int> Placement::cuts(int stages) const {
  // cut[k] = last filter placed on stages <= k (i.e. complete before link k
  // is crossed); -1 when link k carries the raw input.
  std::vector<int> result(static_cast<std::size_t>(stages - 1), -1);
  for (std::size_t i = 0; i < unit_of_filter.size(); ++i) {
    for (int k = unit_of_filter[i]; k < stages - 1; ++k) {
      result[static_cast<std::size_t>(k)] = static_cast<int>(i);
    }
  }
  return result;
}

std::string Placement::to_string() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < unit_of_filter.size(); ++i) {
    if (i) out << " ";
    out << "f" << i + 1 << "->C" << unit_of_filter[i] + 1;
  }
  out << "]";
  if (replicated()) {
    out << " x[";
    for (std::size_t s = 0; s < replicas.size(); ++s) {
      if (s) out << " ";
      out << replicas[s];
    }
    out << "]";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// DP (Figure 3, with input movement charged on L_k before the first filter)
// ---------------------------------------------------------------------------

/// Replication-aware DP (DESIGN.md §6): T[i][j][r] = minimum amortized
/// per-packet cost of completing f_1..f_i with the results of f_i resident
/// on C_j running r transparent copies. Placing a filter on a replicated
/// stage divides its work over r copies (round-robin service); entering a
/// stage with r copies charges (r-1) * replication_overhead_sec once per
/// packet; r > 1 requires every filter on the stage to be classifier-
/// approved, and the result stage C_m keeps r = 1 so the final bindings
/// land on a single view node. R = 1 is Figure 3's T[i][j] exactly.
DecompositionResult decompose_dp(const DecompositionInput& input) {
  assert(input.valid());
  const int F = input.filter_count();
  const int M = input.env.stages();
  const int R = std::max(1, input.max_replicas);
  const bool planned = R > 1;
  const double link_oh = per_packet_batch_overhead(input) +
                         per_packet_checkpoint_overhead(input);
  const double rep_oh = input.replication_overhead_sec;
  // Replica budget of stage j: the sink stays single-copy.
  auto cap = [&](int j) { return j == M - 1 ? 1 : R; };

  // Flattened T[(i * M + j) * R + (r - 1)].
  const std::size_t cells_total = static_cast<std::size_t>(F + 1) *
                                  static_cast<std::size_t>(M) *
                                  static_cast<std::size_t>(R);
  std::vector<double> T(cells_total, kInf);
  std::vector<bool> from_comp(cells_total, false);
  std::vector<int> prev_r(cells_total, 1);  // comm transitions: r' on C_{j-1}
  auto at = [&](int i, int j, int r) -> std::size_t {
    return (static_cast<std::size_t>(i) * static_cast<std::size_t>(M) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(R) +
           static_cast<std::size_t>(r - 1);
  };
  std::size_t cells = 0;

  for (int r = 1; r <= cap(0); ++r) {
    T[at(0, 0, r)] =
        input.source_io_ops / stage_power(input.env.units[0], planned, r) +
        (r - 1) * rep_oh;
    ++cells;
  }
  for (int j = 1; j < M; ++j) {
    const Link& link = input.env.links[static_cast<std::size_t>(j - 1)];
    for (int r = 1; r <= cap(j); ++r) {
      double best = kInf;
      int best_prev = 1;
      for (int rp = 1; rp <= cap(j - 1); ++rp) {
        double prev = T[at(0, j - 1, rp)];
        if (prev >= kInf) continue;
        double cost = prev + cost_comm(link, input.input_bytes) + link_oh +
                      (r - 1) * rep_oh;
        if (cost < best) {
          best = cost;
          best_prev = rp;
        }
      }
      T[at(0, j, r)] = best;
      prev_r[at(0, j, r)] = best_prev;
      ++cells;
    }
  }

  for (int i = 1; i <= F; ++i) {
    const double task = input.task_ops[static_cast<std::size_t>(i - 1)];
    const double vol = input.boundary_bytes[static_cast<std::size_t>(i - 1)];
    const bool parallel = filter_parallel(input, i - 1);
    for (int j = 0; j < M; ++j) {
      const ComputeUnit& unit = input.env.units[static_cast<std::size_t>(j)];
      for (int r = 1; r <= cap(j); ++r) {
        double via_comp = kInf;
        if (r == 1 || parallel) {
          double prev = T[at(i - 1, j, r)];
          if (prev < kInf)
            via_comp = prev + task / stage_power(unit, planned, r);
        }
        double via_comm = kInf;
        int comm_prev = 1;
        if (j > 0) {
          const Link& link =
              input.env.links[static_cast<std::size_t>(j - 1)];
          for (int rp = 1; rp <= cap(j - 1); ++rp) {
            double prev = T[at(i, j - 1, rp)];
            if (prev >= kInf) continue;
            double cost = prev + cost_comm(link, vol) + link_oh +
                          (r - 1) * rep_oh;
            if (cost < via_comm) {
              via_comm = cost;
              comm_prev = rp;
            }
          }
        }
        const bool comp_wins = via_comp <= via_comm;
        T[at(i, j, r)] = comp_wins ? via_comp : via_comm;
        from_comp[at(i, j, r)] = comp_wins;
        prev_r[at(i, j, r)] = comm_prev;
        ++cells;
      }
    }
  }

  DecompositionResult result;
  result.cost = T[at(F, M - 1, 1)];
  result.cells_evaluated = cells;
  result.placement.unit_of_filter.assign(static_cast<std::size_t>(F), 0);
  result.placement.replicas.assign(static_cast<std::size_t>(M), 1);
  int i = F;
  int j = M - 1;
  int r = 1;
  while (i > 0) {
    if (from_comp[at(i, j, r)]) {
      result.placement.unit_of_filter[static_cast<std::size_t>(i - 1)] = j;
      --i;
    } else {
      r = prev_r[at(i, j, r)];
      --j;
      assert(j >= 0);
      result.placement.replicas[static_cast<std::size_t>(j)] = r;
    }
  }
  while (j > 0) {
    r = prev_r[at(0, j, r)];
    --j;
    result.placement.replicas[static_cast<std::size_t>(j)] = r;
  }
  // R = 1 leaves no replica plan: the runtime keeps the environment's
  // per-unit copies, as the placement was priced.
  if (!planned) result.placement.replicas.clear();
  return result;
}

double decompose_dp_cost_only(const DecompositionInput& input) {
  assert(input.valid());
  // Rolling (j, r) grid: O(m·R) live cells (§4.4 closing remark), same
  // transitions as the full table.
  const int F = input.filter_count();
  const int M = input.env.stages();
  const int R = std::max(1, input.max_replicas);
  const bool planned = R > 1;
  const double link_oh = per_packet_batch_overhead(input) +
                         per_packet_checkpoint_overhead(input);
  const double rep_oh = input.replication_overhead_sec;
  auto cap = [&](int j) { return j == M - 1 ? 1 : R; };
  std::vector<std::vector<double>> row(
      static_cast<std::size_t>(M),
      std::vector<double>(static_cast<std::size_t>(R), kInf));
  for (int r = 1; r <= cap(0); ++r) {
    row[0][static_cast<std::size_t>(r - 1)] =
        input.source_io_ops / stage_power(input.env.units[0], planned, r) +
        (r - 1) * rep_oh;
  }
  for (int j = 1; j < M; ++j) {
    const Link& link = input.env.links[static_cast<std::size_t>(j - 1)];
    for (int r = 1; r <= cap(j); ++r) {
      double best = kInf;
      for (int rp = 1; rp <= cap(j - 1); ++rp) {
        double prev = row[static_cast<std::size_t>(j - 1)]
                         [static_cast<std::size_t>(rp - 1)];
        if (prev >= kInf) continue;
        best = std::min(best, prev + cost_comm(link, input.input_bytes) +
                                  link_oh + (r - 1) * rep_oh);
      }
      row[static_cast<std::size_t>(j)][static_cast<std::size_t>(r - 1)] = best;
    }
  }
  for (int i = 1; i <= F; ++i) {
    const double task = input.task_ops[static_cast<std::size_t>(i - 1)];
    const double vol = input.boundary_bytes[static_cast<std::size_t>(i - 1)];
    const bool parallel = filter_parallel(input, i - 1);
    for (int j = 0; j < M; ++j) {
      const ComputeUnit& unit = input.env.units[static_cast<std::size_t>(j)];
      for (int r = 1; r <= cap(j); ++r) {
        double via_comp = kInf;
        if (r == 1 || parallel) {
          double prev = row[static_cast<std::size_t>(j)]
                           [static_cast<std::size_t>(r - 1)];
          if (prev < kInf)
            via_comp = prev + task / stage_power(unit, planned, r);
        }
        double via_comm = kInf;
        if (j > 0) {
          const Link& link = input.env.links[static_cast<std::size_t>(j - 1)];
          for (int rp = 1; rp <= cap(j - 1); ++rp) {
            // row[j-1] already holds T[i][j-1][*] (updated this sweep).
            double prev = row[static_cast<std::size_t>(j - 1)]
                             [static_cast<std::size_t>(rp - 1)];
            if (prev >= kInf) continue;
            via_comm = std::min(via_comm, prev + cost_comm(link, vol) +
                                              link_oh + (r - 1) * rep_oh);
          }
        }
        row[static_cast<std::size_t>(j)][static_cast<std::size_t>(r - 1)] =
            std::min(via_comp, via_comm);
      }
    }
  }
  return row[static_cast<std::size_t>(M - 1)][0];
}

// ---------------------------------------------------------------------------
// Placement evaluation
// ---------------------------------------------------------------------------

void placement_times(const DecompositionInput& input,
                     const Placement& placement,
                     std::vector<double>& unit_times,
                     std::vector<double>& link_times) {
  const int M = input.env.stages();
  unit_times.assign(static_cast<std::size_t>(M), 0.0);
  link_times.assign(static_cast<std::size_t>(M - 1), 0.0);
  // A replica plan overrides the environment's copies knob: stage s serves
  // packets at replica_power(unit, r_s) and pays the per-packet replication
  // overhead for every extra copy.
  const bool planned = !placement.replicas.empty();
  auto power = [&](int s) {
    return stage_power(input.env.units[static_cast<std::size_t>(s)], planned,
                       placement.replicas_of(s));
  };
  unit_times[0] = input.source_io_ops / power(0);
  for (std::size_t i = 0; i < placement.unit_of_filter.size(); ++i) {
    int unit = placement.unit_of_filter[i];
    unit_times[static_cast<std::size_t>(unit)] +=
        input.task_ops[i] / power(unit);
  }
  if (planned) {
    for (int s = 0; s < M; ++s) {
      unit_times[static_cast<std::size_t>(s)] +=
          (placement.replicas_of(s) - 1) * input.replication_overhead_sec;
    }
  }
  std::vector<int> cut = placement.cuts(M);
  const double link_oh = per_packet_batch_overhead(input) +
                         per_packet_checkpoint_overhead(input);
  for (int k = 0; k < M - 1; ++k) {
    double bytes = cut[static_cast<std::size_t>(k)] >= 0
                       ? input.boundary_bytes[static_cast<std::size_t>(
                             cut[static_cast<std::size_t>(k)])]
                       : input.input_bytes;
    link_times[static_cast<std::size_t>(k)] =
        cost_comm(input.env.links[static_cast<std::size_t>(k)], bytes) +
        link_oh;
  }
}

double placement_latency(const DecompositionInput& input,
                         const Placement& placement) {
  std::vector<double> unit_times;
  std::vector<double> link_times;
  placement_times(input, placement, unit_times, link_times);
  double total = 0.0;
  for (double t : unit_times) total += t;
  for (double t : link_times) total += t;
  return total;
}

double reduction_epilogue_time(const DecompositionInput& input,
                               const Placement& placement) {
  if (input.updates_reduction.empty() || input.replica_payload_bytes <= 0.0)
    return 0.0;
  int last_stage = -1;
  for (std::size_t i = 0; i < placement.unit_of_filter.size() &&
                          i < input.updates_reduction.size();
       ++i) {
    if (input.updates_reduction[i]) {
      last_stage = std::max(last_stage, placement.unit_of_filter[i]);
    }
  }
  if (last_stage < 0) return 0.0;
  const int m = input.env.stages();
  const bool planned = !placement.replicas.empty();
  double total = 0.0;
  for (int k = last_stage; k < m - 1; ++k) {
    const int copies =
        planned ? placement.replicas_of(k)
                : input.env.units[static_cast<std::size_t>(k)].copies;
    const Link& link = input.env.links[static_cast<std::size_t>(k)];
    total += copies * (link.latency_sec +
                       input.replica_payload_bytes / link.effective_bandwidth());
    const ComputeUnit& sink = input.env.units[static_cast<std::size_t>(k + 1)];
    total += copies * input.replica_merge_ops /
             (planned ? replica_power(sink, placement.replicas_of(k + 1))
                      : sink.effective_power());
  }
  return total;
}

double full_pipeline_time(const DecompositionInput& input,
                          const Placement& placement,
                          std::int64_t n_packets) {
  std::vector<double> unit_times;
  std::vector<double> link_times;
  placement_times(input, placement, unit_times, link_times);
  return pipeline_total_time(n_packets, unit_times, link_times) +
         reduction_epilogue_time(input, placement);
}

// ---------------------------------------------------------------------------
// Brute force oracle
// ---------------------------------------------------------------------------

DecompositionResult decompose_bruteforce(const DecompositionInput& input,
                                         Objective objective,
                                         std::int64_t n_packets) {
  assert(input.valid());
  const int F = input.filter_count();
  const int M = input.env.stages();

  DecompositionResult best;
  best.cost = kInf;
  Placement current;
  current.unit_of_filter.assign(static_cast<std::size_t>(F), 0);
  const int R = std::max(1, input.max_replicas);
  const bool replicate = R > 1;
  if (replicate)
    current.replicas.assign(static_cast<std::size_t>(M), 1);
  std::size_t evaluated = 0;

  auto evaluate = [&]() {
    ++evaluated;
    double cost = objective == Objective::PerPacketLatency
                      ? placement_latency(input, current)
                      : full_pipeline_time(input, current, n_packets);
    if (cost < best.cost) {
      best.cost = cost;
      best.placement = current;
    }
  };
  // For a fixed stage assignment, enumerate every per-stage replica count
  // within the unit budget. A stage may exceed one copy only when it hosts
  // at least one filter, every hosted filter is classifier-approved, and it
  // is not the result stage (the final bindings land on one view node).
  auto enumerate_replicas = [&]() {
    if (!replicate) {
      evaluate();
      return;
    }
    std::vector<int> caps(static_cast<std::size_t>(M), 1);
    for (int s = 0; s + 1 < M; ++s) {
      // The data host's packet read is round-robin-replicable work even
      // when no filter lands on stage 0 (mirrors the DP's T[0][0][r]).
      bool has_filter = s == 0 && input.source_io_ops > 0.0;
      bool all_parallel = true;
      for (int i = 0; i < F; ++i) {
        if (current.unit_of_filter[static_cast<std::size_t>(i)] != s) continue;
        has_filter = true;
        all_parallel = all_parallel && filter_parallel(input, i);
      }
      if (has_filter && all_parallel) caps[static_cast<std::size_t>(s)] = R;
    }
    std::function<void(int)> recurse_r = [&](int stage) {
      if (stage == M) {
        evaluate();
        return;
      }
      for (int r = 1; r <= caps[static_cast<std::size_t>(stage)]; ++r) {
        current.replicas[static_cast<std::size_t>(stage)] = r;
        recurse_r(stage + 1);
      }
    };
    recurse_r(0);
  };
  // Enumerate all non-decreasing assignments of F filters to M stages.
  std::function<void(int, int)> recurse = [&](int index, int min_stage) {
    if (index == F) {
      enumerate_replicas();
      return;
    }
    for (int stage = min_stage; stage < M; ++stage) {
      current.unit_of_filter[static_cast<std::size_t>(index)] = stage;
      recurse(index + 1, stage);
    }
  };
  recurse(0, 0);
  best.cells_evaluated = evaluated;
  return best;
}

Placement default_placement(const DecompositionInput& input,
                            int compute_stage) {
  Placement placement;
  placement.unit_of_filter.assign(
      static_cast<std::size_t>(input.filter_count()),
      std::min(compute_stage, input.env.stages() - 1));
  return placement;
}

}  // namespace cgp
