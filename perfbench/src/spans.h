// In-memory span recorder for the traced runs. Spans are recorded around
// the benchmark's calls into each layer (and derived from packet stamps
// for the stages), kept in memory, and written out once at exit.
#pragma once

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "stamps.h"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span now; returns its index (the parent of nested spans).
  int begin(std::string name, int parent, int run);
  /// Closes span `id` now.
  void end(int id);
  /// Records a span with known bounds (seconds since the origin).
  int add(std::string name, int parent, int run, double start, double end);
  /// Runs `f` inside a span and returns its result.
  template <class F>
  auto timed(const char* name, int parent, int run, F&& f) {
    const int id = begin(name, parent, run);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      end(id);
    } else {
      auto result = f();
      end(id);
      return result;
    }
  }

  double seconds(Clock::time_point t) const;
  const std::vector<Span>& spans() const { return spans_; }
  double duration(int id) const { return spans_[id].end - spans_[id].start; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Self time per span name, summed over all spans of that name, with the
/// number of spans: rows sorted by descending self time.
struct LayerRow {
  std::string name;
  double total_s = 0.0;
  double self_s = 0.0;
  int count = 0;
};
std::vector<LayerRow> layer_table(const std::vector<Span>& spans);

/// Writes the trace document: the spans (with self time), the per-layer
/// table and the metrics, plus a header of free-form context values.
void write_trace_json(const std::string& path,
                      const std::vector<std::pair<std::string, std::string>>& header,
                      const std::vector<Span>& spans,
                      const std::vector<std::pair<std::string, Metric>>& metrics);

}  // namespace perfbench
