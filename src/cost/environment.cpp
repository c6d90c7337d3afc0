#include "cost/environment.h"

#include <algorithm>

namespace cgp {

EnvironmentSpec EnvironmentSpec::uniform(int m, double power, double bandwidth,
                                         double latency) {
  EnvironmentSpec env;
  for (int i = 0; i < m; ++i) {
    env.units.push_back(ComputeUnit{"C" + std::to_string(i + 1), power, 1});
  }
  for (int i = 0; i + 1 < m; ++i) {
    env.links.push_back(Link{bandwidth, latency});
  }
  return env;
}

EnvironmentSpec EnvironmentSpec::paper_cluster(int width) {
  // 700 MHz Pentium III-class node: ~350 M usable ops/s for this workload
  // mix. Myrinet LANai 7.0 raw link is ~1 Gb/s, but DataCutter's TCP-based
  // streams achieved ~60 MB/s effective payload bandwidth on this hardware
  // class; one-way latency ~20 us.
  constexpr double kNodeOps = 350.0e6;
  constexpr double kMyrinetBytes = 60.0e6;
  constexpr double kMyrinetLatency = 20.0e-6;
  EnvironmentSpec env;
  env.units = {
      ComputeUnit{"data", kNodeOps, width},
      ComputeUnit{"compute", kNodeOps, width},
      ComputeUnit{"view", kNodeOps, 1},
  };
  env.links = {
      Link{kMyrinetBytes, kMyrinetLatency, width},
      Link{kMyrinetBytes, kMyrinetLatency, 1},
  };
  return env;
}

TransportCostSpec transport_cost_spec(std::string_view backend) {
  // Calibrated against bench_transport_backends on the reference model:
  // proc pays ~0.15 abstract ops per payload byte per endpoint (one memcpy
  // into the ring, one out, amortized alloc) and ~500 ops per frame (lock
  // hand-off + condvar wakeup).
  if (backend == "proc") return {0.15, 500.0};
  return {};  // thread, or unknown: the paper's zero-cost link model
}

double pipeline_total_time(std::int64_t n_packets,
                           const std::vector<double>& unit_times,
                           const std::vector<double>& link_times) {
  double bottleneck = 0.0;
  double traversal = 0.0;
  for (double t : unit_times) {
    bottleneck = std::max(bottleneck, t);
    traversal += t;
  }
  for (double t : link_times) {
    bottleneck = std::max(bottleneck, t);
    traversal += t;
  }
  if (n_packets <= 0) return 0.0;
  return static_cast<double>(n_packets - 1) * bottleneck + traversal;
}

}  // namespace cgp
