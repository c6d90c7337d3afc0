// Cross-backend transport bench (ISSUE: multi-process transport): the same
// source -> relay -> sink byte pipeline timed on both execution
// substrates — in-process queues (thread) and forked workers over
// shared-memory rings (proc) — across payload x batch, plus the v7 wire
// telemetry (frames, raw wire bytes) each run reported.
//
// Two sweeps run. The "raw" sweep moves empty-handed buffers and so
// measures pure transport overhead: thread passes pointers while proc
// must serialize and copy every byte, so the gap there is the honest
// cost of crossing a process boundary (reported, never gated).
// The "compute" sweep gives the relay per-buffer work comparable to the
// real app filters; that is the configuration the ISSUE gates, because
// it measures what a user actually sees when picking a backend for a
// compute-bearing pipeline.
//
// Emits the results as BENCH_backends.json (schema
// cgpipe-bench-backends-v1) for the CI bench-smoke artifact, and exits
// nonzero when the shared-memory backend falls below 1/kProcBar of the
// thread backend's throughput on any compute cell with batch >= 16 —
// batching is exactly what amortizes the per-frame wakeup, so a
// regression there means the ring or the frame codec got slower, not
// the workload.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "datacutter/runner.h"
#include "support/json.h"

namespace {

using namespace cgp::dc;
namespace support = cgp::support;

constexpr std::size_t kStreamCapacity = 64;
constexpr int kRepeats = 3;
constexpr double kProcBar = 2.0;  // thread/proc throughput ratio ceiling

class PayloadSource : public Filter {
 public:
  PayloadSource(std::int64_t n, std::size_t bytes) : n_(n), bytes_(bytes) {}
  void process(FilterContext& ctx) override {
    const std::vector<std::byte> scratch(bytes_, std::byte{0x5a});
    for (std::int64_t i = 0; i < n_; ++i) {
      if (i % ctx.copy_count() != ctx.copy_index()) continue;
      Buffer b = ctx.acquire_buffer(bytes_);
      b.write_bytes(scratch.data(), bytes_);
      ctx.emit(std::move(b));
    }
  }

 private:
  std::int64_t n_;
  std::size_t bytes_;
};

class Relay : public Filter {
 public:
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) ctx.emit(std::move(*b));
  }
};

// Per-buffer work for the gated sweep: one FNV-style pass over the
// payload plus a fixed xorshift spin, roughly the arithmetic density of
// the real app filters (a few microseconds per buffer).
constexpr int kSpinOps = 1000;

std::uint64_t churn(const std::byte* data, std::size_t n) {
  std::uint64_t acc = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i)
    acc = (acc ^ std::to_integer<std::uint64_t>(data[i])) * 0x100000001b3ull;
  for (int i = 0; i < kSpinOps; ++i) {
    acc ^= acc << 13;
    acc ^= acc >> 7;
    acc ^= acc << 17;
  }
  return acc;
}

class WorkRelay : public Filter {
 public:
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      benchmark::DoNotOptimize(churn(b->data(), b->size()));
      ctx.emit(std::move(*b));
    }
  }
};

class ConsumingSink : public Filter {
 public:
  void process(FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      benchmark::DoNotOptimize(b->size());
      ctx.recycle(std::move(*b));
    }
  }
};

struct Cell {
  TransportBackend backend = TransportBackend::kThread;
  bool compute = false;
  std::size_t payload = 0;
  std::size_t batch = 0;
  std::int64_t buffers = 0;
  double seconds = 0.0;
  double buffers_per_sec = 0.0;
  double mb_per_sec = 0.0;
  std::int64_t frames = 0;      // summed over links (best repeat)
  std::int64_t wire_bytes = 0;  // summed over links (best repeat)
};

std::int64_t buffers_for(std::size_t payload) {
  return payload <= 256 ? 30000 : 8000;
}

Cell run_cell(TransportBackend backend, bool compute, std::size_t payload,
              std::size_t batch) {
  const std::int64_t buffers = buffers_for(payload);
  Cell cell;
  cell.backend = backend;
  cell.compute = compute;
  cell.payload = payload;
  cell.batch = batch;
  cell.buffers = buffers;
  cell.seconds = 1e30;
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::vector<FilterGroup> groups;
    groups.push_back({"source",
                      [buffers, payload] {
                        return std::make_unique<PayloadSource>(buffers,
                                                               payload);
                      },
                      1, 0});
    groups.push_back({"relay",
                      [compute]() -> std::unique_ptr<Filter> {
                        if (compute) return std::make_unique<WorkRelay>();
                        return std::make_unique<Relay>();
                      },
                      1, 1});
    groups.push_back(
        {"sink", [] { return std::make_unique<ConsumingSink>(); }, 1, 2});
    RunnerConfig config;
    config.stream_capacity = kStreamCapacity;
    config.batch_size = batch;
    config.backend = backend;
    PipelineRunner runner(std::move(groups), config);
    const auto start = std::chrono::steady_clock::now();
    support::PipelineTrace stats = runner.run();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (seconds < cell.seconds) {
      cell.seconds = seconds;
      cell.frames = 0;
      cell.wire_bytes = 0;
      for (const cgp::support::LinkMetrics& link : stats.link_metrics) {
        cell.frames += link.frames;
        cell.wire_bytes += link.wire_bytes;
      }
    }
  }
  cell.buffers_per_sec = static_cast<double>(buffers) / cell.seconds;
  cell.mb_per_sec = cell.buffers_per_sec * static_cast<double>(payload) /
                    (1024.0 * 1024.0);
  return cell;
}

const std::size_t kPayloads[] = {64, 4096};
const std::size_t kBatches[] = {1, 16, 64};
const TransportBackend kBackends[] = {TransportBackend::kThread,
                                      TransportBackend::kProc};

void backend_sweep(bool compute, std::vector<Cell>& cells) {
  std::printf(
      "=== %s sweep (source->%s->sink, capacity %zu, best of %d) ===\n",
      compute ? "Compute" : "Raw", compute ? "work-relay" : "relay",
      kStreamCapacity, kRepeats);
  std::printf("%-8s %-9s %-7s %-8s %10s %13s %10s %10s %12s\n", "backend",
              "payload", "batch", "buffers", "time(s)", "buffers/s", "MB/s",
              "frames", "wire bytes");
  for (std::size_t payload : kPayloads) {
    for (std::size_t batch : kBatches) {
      for (TransportBackend backend : kBackends) {
        Cell cell = run_cell(backend, compute, payload, batch);
        std::printf("%-8s %-9zu %-7zu %-8lld %10.4f %13.0f %10.1f %10lld "
                    "%12lld\n",
                    backend_name(cell.backend), cell.payload, cell.batch,
                    static_cast<long long>(cell.buffers), cell.seconds,
                    cell.buffers_per_sec, cell.mb_per_sec,
                    static_cast<long long>(cell.frames),
                    static_cast<long long>(cell.wire_bytes));
        cells.push_back(cell);
      }
    }
  }
  std::printf("\n");
}

const Cell* find_cell(const std::vector<Cell>& cells, TransportBackend backend,
                      bool compute, std::size_t payload, std::size_t batch) {
  for (const Cell& cell : cells) {
    if (cell.backend == backend && cell.compute == compute &&
        cell.payload == payload && cell.batch == batch)
      return &cell;
  }
  return nullptr;
}

// Emits BENCH_backends.json and returns false when the proc backend misses
// the bar on any compute cell with batch >= 16 (the CI failure condition).
bool emit_json(const std::vector<Cell>& cells) {
  support::Json::Array cell_array;
  for (const Cell& cell : cells) {
    support::Json::Object obj;
    obj.emplace_back("backend", support::Json(backend_name(cell.backend)));
    obj.emplace_back("workload",
                     support::Json(cell.compute ? "compute" : "raw"));
    obj.emplace_back("payload_bytes", support::Json(cell.payload));
    obj.emplace_back("batch_size", support::Json(cell.batch));
    obj.emplace_back("buffers", support::Json(cell.buffers));
    obj.emplace_back("seconds", support::Json(cell.seconds));
    obj.emplace_back("buffers_per_sec", support::Json(cell.buffers_per_sec));
    obj.emplace_back("mb_per_sec", support::Json(cell.mb_per_sec));
    obj.emplace_back("frames", support::Json(cell.frames));
    obj.emplace_back("wire_bytes", support::Json(cell.wire_bytes));
    cell_array.emplace_back(std::move(obj));
  }

  // The gate: thread/proc throughput ratio on every compute cell with
  // batch >= 16.
  double worst_ratio = 0.0;
  std::string worst_cell;
  support::Json::Array ratio_array;
  for (bool compute : {false, true}) {
    for (std::size_t payload : kPayloads) {
      for (std::size_t batch : kBatches) {
        const Cell* thread_cell = find_cell(
            cells, TransportBackend::kThread, compute, payload, batch);
        const Cell* proc_cell = find_cell(cells, TransportBackend::kProc,
                                          compute, payload, batch);
        if (!thread_cell || !proc_cell) continue;
        const double ratio =
            thread_cell->buffers_per_sec / proc_cell->buffers_per_sec;
        const bool gated = compute && batch >= 16;
        support::Json::Object obj;
        obj.emplace_back("workload",
                         support::Json(compute ? "compute" : "raw"));
        obj.emplace_back("payload_bytes", support::Json(payload));
        obj.emplace_back("batch_size", support::Json(batch));
        obj.emplace_back("thread_over_proc", support::Json(ratio));
        obj.emplace_back("gated", support::Json(gated));
        ratio_array.emplace_back(std::move(obj));
        if (gated && ratio > worst_ratio) {
          worst_ratio = ratio;
          worst_cell = "payload=" + std::to_string(payload) +
                       " batch=" + std::to_string(batch);
        }
      }
    }
  }
  const bool pass = worst_ratio <= kProcBar;

  support::Json::Object summary;
  summary.emplace_back("worst_thread_over_proc_compute_batched",
                       support::Json(worst_ratio));
  summary.emplace_back("worst_cell", support::Json(worst_cell));
  summary.emplace_back("proc_bar", support::Json(kProcBar));
  summary.emplace_back("proc_pass", support::Json(pass));

  support::Json::Object root;
  root.emplace_back("schema", support::Json("cgpipe-bench-backends-v1"));
  root.emplace_back("pipeline", support::Json("source->relay->sink"));
  root.emplace_back("stream_capacity", support::Json(kStreamCapacity));
  root.emplace_back("repeats", support::Json(kRepeats));
  root.emplace_back("cells", support::Json(std::move(cell_array)));
  root.emplace_back("ratios", support::Json(std::move(ratio_array)));
  root.emplace_back("summary", support::Json(std::move(summary)));

  std::ofstream out("BENCH_backends.json");
  out << support::Json(std::move(root)).dump(2) << "\n";
  std::printf(
      "wrote BENCH_backends.json (worst batched compute thread/proc %.2fx, "
      "bar %.1fx)\n",
      worst_ratio, kProcBar);
  return pass;
}

}  // namespace

int main() {
  std::vector<Cell> cells;
  backend_sweep(/*compute=*/false, cells);
  backend_sweep(/*compute=*/true, cells);
  const bool pass = emit_json(cells);
  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: proc backend slower than %.1fx of thread on the "
                 "compute sweep at batch >= 16\n",
                 kProcBar);
    return 1;
  }
  return 0;
}
