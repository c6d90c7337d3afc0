// The benchmark's own arithmetic: order statistics, packet matching, the
// realized period, span self time, and the oracle comparison. Kept apart
// from main.cpp so the self-tests can pin each rule down.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "codegen/value.h"

namespace perfbench {

/// Median of `values` (mean of the two middle ones for an even count); 0
/// when empty.
double median(std::vector<double> values);

/// Percentile `p` (0..100) by linear interpolation between closest ranks,
/// as numpy's default does; 0 when empty.
double percentile(std::vector<double> values, double p);

/// The highest of the reported percentiles (50, 90, 95, 99, 99.9) that has
/// at least `min_beyond` of `n` samples above it; 0 when not even the
/// median does.
double highest_supported_percentile(std::size_t n, std::size_t min_beyond = 10);

/// Per-packet latencies from emission stamps at the source and arrival
/// stamps at the sink: the k-th emission (in time order, over all source
/// copies) is matched to the k-th arrival. With one copy per stage the
/// pipeline is FIFO and the matching is exact; with interleaved copies the
/// individual pairs may be crossed but the mean latency is still exact,
/// because sum(arrivals) - sum(emissions) does not depend on the pairing.
/// Extra stamps on the longer side are ignored.
std::vector<double> match_latencies(std::vector<double> emissions,
                                    std::vector<double> arrivals);

/// Gaps between consecutive sink arrivals, in time order; the first
/// arrival opens no gap. Their median is the realized period.
std::vector<double> arrival_gaps(std::vector<double> arrivals);

/// One traced interval. `parent` is the index of the enclosing span in the
/// same vector (-1 for a root); spans of one pipeline run share `run`.
struct Span {
  std::string name;
  int parent = -1;
  int run = 0;
  double start = 0.0;  // seconds since the trace origin
  double end = 0.0;
};

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children (clipped to the span), so overlapping
/// children, such as concurrently running stages, are not subtracted twice.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Outcome of comparing a run's finals with the sequential oracle.
struct Verdict {
  bool ok = true;
  std::string detail;  // first mismatch, empty when ok
};

/// Byte-for-byte comparison over every final the run produced, each value
/// serialized with write_value; `skip` names stage-local scalars the
/// decomposition legitimately leaves on an upstream stage.
Verdict compare_exact(const std::map<std::string, cgp::Value>& finals,
                      const std::map<std::string, cgp::Value>& oracle,
                      const std::vector<std::string>& skip = {});

/// Structural comparison of the named result keys within `tol` (replicated
/// stages may merge float reductions in another order).
Verdict compare_structural(const std::map<std::string, cgp::Value>& finals,
                           const std::map<std::string, cgp::Value>& oracle,
                           const std::vector<std::string>& keys, double tol);

}  // namespace perfbench
