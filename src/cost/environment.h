// Execution environment description (§4.1, §4.3).
//
// A pipeline of m computing units C_1..C_m joined by m-1 links L_1..L_{m-1}.
// C_1 hosts the input data; C_m is where results are required. Each unit may
// be transparently copied (DataCutter transparent copies) to form a wider
// pipeline: the paper's 2-2-1 and 4-4-1 configurations set copies=2/4 on the
// data and compute stages.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cgp {

struct ComputeUnit {
  std::string name;
  double power_ops_per_sec = 1.0e9;
  int copies = 1;

  /// Aggregate throughput used by the cost model when work is spread
  /// round-robin over transparent copies.
  double effective_power() const { return power_ops_per_sec * copies; }
};

struct Link {
  double bandwidth_bytes_per_sec = 100.0e6;
  double latency_sec = 0.0;
  /// Parallel lanes: when both endpoints are transparently copied, packet
  /// flows pair up (data_i -> compute_i), giving `lanes` independent
  /// channels of this bandwidth.
  int lanes = 1;

  double effective_bandwidth() const { return bandwidth_bytes_per_sec * lanes; }
};

struct EnvironmentSpec {
  std::vector<ComputeUnit> units;
  std::vector<Link> links;

  int stages() const { return static_cast<int>(units.size()); }
  bool valid() const {
    return !units.empty() && links.size() + 1 == units.size();
  }

  /// Uniform pipeline: m units of equal power, m-1 identical links.
  static EnvironmentSpec uniform(int m, double power, double bandwidth,
                                 double latency = 0.0);

  /// The paper's experimental setup (§6.2): a 3-stage pipeline
  /// data -> compute -> view, on 700 MHz Pentium III-class nodes connected
  /// by Myrinet LANai 7.0. `width` = 1, 2 or 4 replicates the data and
  /// compute stages (the 1-1-1 / 2-2-1 / 4-4-1 configurations).
  static EnvironmentSpec paper_cluster(int width);
};

/// Cost primitives (§4.3/§4.4): time to run `ops` operations on a unit and
/// to move `bytes` across a link.
inline double cost_comp(const ComputeUnit& unit, double ops) {
  return ops / unit.effective_power();
}
inline double cost_comm(const Link& link, double bytes) {
  return link.latency_sec + bytes / link.effective_bandwidth();
}

/// Aggregate throughput of `replicas` compiler-chosen transparent copies of
/// a unit. A replica plan supersedes the unit's own `copies` knob: `copies`
/// describes the environment's fixed width, `replicas` the decomposition's
/// choice, and mixing the two would double-count parallelism.
inline double replica_power(const ComputeUnit& unit, int replicas) {
  return unit.power_ops_per_sec * replicas;
}

/// Total pipeline execution time over N packets (§4.3, formulas (1)/(2)):
/// the bottleneck stage or link is paid N-1 times plus one full traversal.
double pipeline_total_time(std::int64_t n_packets,
                           const std::vector<double>& unit_times,
                           const std::vector<double>& link_times);

/// Per-backend transport cost constants (docs/PERFORMANCE.md, backend
/// selection). The execution substrate adds work the paper's link model
/// does not know about: every packet crossing a process boundary is
/// serialized by the sender and deserialized by the receiver
/// (ops_per_byte, charged at each endpoint's power), and every enqueue
/// pays a fixed framing-plus-wakeup cost (ops_per_frame per endpoint,
/// amortized over the transport batch size). The thread backend moves
/// owning pointers through an in-process queue: both terms are zero and
/// the paper's model is reproduced exactly.
struct TransportCostSpec {
  double ops_per_byte = 0.0;   // memcpy through the substrate, per endpoint
  double ops_per_frame = 0.0;  // framing + wakeup per enqueue, per endpoint
};

/// Spec for a backend name ("thread" | "proc"); unknown names get the
/// thread (zero-cost) spec so cost queries never throw.
///   proc: two memcpys through a shared-memory ring plus a futex wakeup.
TransportCostSpec transport_cost_spec(std::string_view backend);

}  // namespace cgp
