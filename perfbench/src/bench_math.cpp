#include "bench_math.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "codegen/serialize.h"

namespace perfbench {

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double highest_supported_percentile(std::size_t n, std::size_t min_beyond) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= static_cast<double>(min_beyond) - 1e-9)
      best = p;
  }
  return best;
}

std::vector<double> match_latencies(std::vector<double> emissions,
                                    std::vector<double> arrivals) {
  std::sort(emissions.begin(), emissions.end());
  std::sort(arrivals.begin(), arrivals.end());
  const std::size_t n = std::min(emissions.size(), arrivals.size());
  std::vector<double> latencies(n);
  for (std::size_t k = 0; k < n; ++k) latencies[k] = arrivals[k] - emissions[k];
  return latencies;
}

std::vector<double> arrival_gaps(std::vector<double> arrivals) {
  std::sort(arrivals.begin(), arrivals.end());
  std::vector<double> gaps;
  for (std::size_t k = 1; k < arrivals.size(); ++k)
    gaps.push_back(arrivals[k] - arrivals[k - 1]);
  return gaps;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, spans[i].end - spans[i].start - covered);
  }
  return self;
}

namespace {

std::string bytes_of(const cgp::Value& value) {
  cgp::dc::Buffer buffer;
  cgp::write_value(buffer, value);
  return std::string(reinterpret_cast<const char*>(buffer.data()), buffer.size());
}

}  // namespace

Verdict compare_exact(const std::map<std::string, cgp::Value>& finals,
                      const std::map<std::string, cgp::Value>& oracle,
                      const std::vector<std::string>& skip) {
  if (finals.empty()) return {false, "run produced no finals"};
  for (const auto& [key, value] : finals) {
    if (std::find(skip.begin(), skip.end(), key) != skip.end()) continue;
    auto it = oracle.find(key);
    if (it == oracle.end()) return {false, "oracle lacks " + key};
    if (bytes_of(value) != bytes_of(it->second))
      return {false, key + " = " + cgp::value_to_string(value) + " vs oracle " +
                         cgp::value_to_string(it->second)};
  }
  return {};
}

Verdict compare_structural(const std::map<std::string, cgp::Value>& finals,
                           const std::map<std::string, cgp::Value>& oracle,
                           const std::vector<std::string>& keys, double tol) {
  for (const std::string& key : keys) {
    auto run_it = finals.find(key);
    if (run_it == finals.end()) return {false, "run lacks " + key};
    auto it = oracle.find(key);
    if (it == oracle.end()) return {false, "oracle lacks " + key};
    if (!cgp::value_equal(run_it->second, it->second, tol))
      return {false, key + " = " + cgp::value_to_string(run_it->second) +
                         " vs oracle " + cgp::value_to_string(it->second)};
  }
  return {};
}

}  // namespace perfbench
