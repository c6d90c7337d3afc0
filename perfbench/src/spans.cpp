#include "spans.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "support/json.h"

namespace perfbench {

using cgp::support::Json;

int SpanRecorder::begin(std::string name, int parent, int run) {
  const double now = seconds(Clock::now());
  return add(std::move(name), parent, run, now, now);
}

void SpanRecorder::end(int id) { spans_[static_cast<std::size_t>(id)].end = seconds(Clock::now()); }

int SpanRecorder::add(std::string name, int parent, int run, double start, double end) {
  spans_.push_back(Span{std::move(name), parent, run, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::seconds(Clock::time_point t) const {
  return std::chrono::duration<double>(t - origin_).count();
}

std::vector<LayerRow> layer_table(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::vector<LayerRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const LayerRow& r) { return r.name == spans[i].name; });
    if (it == rows.end()) it = rows.insert(rows.end(), LayerRow{spans[i].name});
    it->total_s += spans[i].end - spans[i].start;
    it->self_s += self[i];
    ++it->count;
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const LayerRow& a, const LayerRow& b) { return a.self_s > b.self_s; });
  return rows;
}

void write_trace_json(const std::string& path,
                      const std::vector<std::pair<std::string, std::string>>& header,
                      const std::vector<Span>& spans,
                      const std::vector<std::pair<std::string, Metric>>& metrics) {
  Json::Object doc;
  doc.emplace_back("schema", "perfbench-trace-v1");
  for (const auto& [key, value] : header) doc.emplace_back(key, value);

  const std::vector<double> self = self_times(spans);
  Json::Array span_array;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    span_array.push_back(Json::Object{{"id", i},
                                      {"parent", s.parent},
                                      {"run", s.run},
                                      {"name", s.name},
                                      {"start_s", s.start},
                                      {"end_s", s.end},
                                      {"self_s", self[i]}});
  }
  doc.emplace_back("spans", std::move(span_array));

  Json::Array layers;
  for (const LayerRow& row : layer_table(spans)) {
    layers.push_back(Json::Object{{"name", row.name},
                                  {"count", row.count},
                                  {"total_s", row.total_s},
                                  {"self_s", row.self_s}});
  }
  doc.emplace_back("layers", std::move(layers));

  Json::Object metric_object;
  for (const auto& [name, metric] : metrics)
    metric_object.emplace_back(name, Json::Object{{"value", metric.value}, {"unit", metric.unit}});
  doc.emplace_back("metrics", std::move(metric_object));

  std::ofstream out(path);
  out << Json(std::move(doc)).dump(1) << "\n";
  if (!out) throw std::runtime_error("perfbench: cannot write trace " + path);
}

}  // namespace perfbench
