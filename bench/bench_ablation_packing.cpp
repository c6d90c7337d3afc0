// Packing ablation (§5): instance-wise vs field-wise packet layouts, the
// compiled flat pack plans vs the interpreted per-Value codec, and the
// batch-aligned buffer-pool sweep.
//
// Three measurements back docs/PERFORMANCE.md:
//   * wire size and pack/unpack wall time for a collection whose fields
//     are (a) all consumed by the receiving filter (instance-wise is
//     optimal: one interleaved pass) vs (b) partially re-forwarded
//     (field-wise lets the next filter skip a contiguous block);
//   * the compiled gather/scatter path (PacketCodec::pack/unpack) timed
//     against the interpreted reference (pack_interpreted /
//     unpack_interpreted) — both produce byte-identical wire data, so
//     the ratio is pure codec overhead;
//   * a pooled source -> relay -> sink transport sweep over batch sizes,
//     confirming the batch-aligned pool geometry (BufferPool::
//     set_geometry) keeps the hit rate high where it previously sagged.
// Emits the results as BENCH_packing.json (schema cgpipe-bench-packing-v1)
// for the CI bench-smoke artifact, and exits nonzero when any swept cell's
// pool hit rate drops below 95% — the CI acceptance bar.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "codegen/packing.h"
#include "datacutter/runner.h"
#include "support/json.h"

namespace {

using namespace cgp;
using namespace cgp::dc;

constexpr std::size_t kStreamCapacity = 64;
constexpr int kRepeats = 3;
constexpr double kPoolHitBar = 0.95;

ClassRegistry make_registry() {
  ClassRegistry registry;
  ClassInfo tri;
  tri.name = "Tri";
  for (int i = 0; i < 10; ++i) {
    tri.fields.push_back(FieldInfo{"f" + std::to_string(i),
                                   Type::primitive(PrimKind::Float), i});
  }
  registry.add(tri);
  return registry;
}

ArrayRef make_elements(const ClassRegistry& registry, int n) {
  ArrayRef arr = ArrayVal::make();
  const ClassInfo* info = registry.find("Tri");
  for (int i = 0; i < n; ++i) {
    std::vector<Value> fields(info->fields.size());
    for (std::size_t f = 0; f < fields.size(); ++f) {
      fields[f] = Value{static_cast<double>(static_cast<float>(
          i * 10 + static_cast<int>(f)))};
    }
    arr->elems.push_back(Object::make(intern_class("Tri"), fields));
  }
  return arr;
}

ValueSet all_fields_req(int lo, int hi) {
  ValueSet req;
  for (int f = 0; f < 10; ++f) {
    req.add(ValueId{"tris", {kElemStep, "f" + std::to_string(f)}},
            ValueEntry{Type::primitive(PrimKind::Float),
                       RectSection::dim1(SymPoly(lo), SymPoly(hi))});
  }
  return req;
}

PackingLayout layout_for(bool instancewise, int n, const ClassRegistry& reg) {
  ValueSet req = all_fields_req(0, n - 1);
  if (instancewise) {
    // Everything consumed immediately.
    return plan_packing(req, {req}, reg);
  }
  // Each field first consumed by a different later stage: all field-wise.
  std::vector<ValueSet> downstream;
  for (int f = 0; f < 10; ++f) {
    ValueSet cons;
    cons.add(ValueId{"tris", {kElemStep, "f" + std::to_string(f)}},
             ValueEntry{Type::primitive(PrimKind::Float),
                        RectSection::dim1(SymPoly(0), SymPoly(n - 1))});
    downstream.push_back(cons);
  }
  return plan_packing(req, downstream, reg);
}

void print_table() {
  ClassRegistry registry = make_registry();
  std::printf("=== Packing ablation: instance-wise vs field-wise ===\n");
  std::printf("%-10s %-14s %12s %8s\n", "elements", "layout", "wire bytes",
              "groups");
  for (int n : {256, 4096}) {
    Env env;
    env.declare("tris", make_elements(registry, n));
    for (bool instancewise : {true, false}) {
      PackingLayout layout = layout_for(instancewise, n, registry);
      PacketCodec codec(registry, layout);
      dc::Buffer buffer;
      codec.pack(env, [](const std::string&) { return std::nullopt; }, buffer);
      std::printf("%-10d %-14s %12zu %8zu\n", n,
                  instancewise ? "instance-wise" : "field-wise", buffer.size(),
                  layout.groups.size());
    }
  }
  std::printf("\n");
}

// --- Compiled vs interpreted codec micro-timings (BENCH_packing.json) ---

template <typename F>
double best_seconds_per_call(int iters, F&& fn) {
  double best = 1e30;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (seconds < best) best = seconds;
  }
  return best / static_cast<double>(iters);
}

struct CodecCell {
  int elements = 0;
  bool instancewise = true;
  double compiled_pack_ns = 0.0;  // per element
  double interpreted_pack_ns = 0.0;
  double compiled_unpack_ns = 0.0;
  double interpreted_unpack_ns = 0.0;
  double pack_speedup = 0.0;
  double unpack_speedup = 0.0;
};

CodecCell time_codec(int n, bool instancewise) {
  ClassRegistry registry = make_registry();
  PackingLayout layout = layout_for(instancewise, n, registry);
  PacketCodec codec(registry, layout);
  Env env;
  env.declare("tris", make_elements(registry, n));
  const auto resolve = [](const std::string&) { return std::nullopt; };
  dc::Buffer packed;
  codec.pack(env, resolve, packed);

  const int iters = n <= 256 ? 1000 : 100;
  CodecCell cell;
  cell.elements = n;
  cell.instancewise = instancewise;
  const double scale = 1e9 / static_cast<double>(n);
  cell.compiled_pack_ns = scale * best_seconds_per_call(iters, [&] {
    dc::Buffer out;
    codec.pack(env, resolve, out);
    benchmark::DoNotOptimize(out.size());
  });
  cell.interpreted_pack_ns = scale * best_seconds_per_call(iters, [&] {
    dc::Buffer out;
    codec.pack_interpreted(env, resolve, out);
    benchmark::DoNotOptimize(out.size());
  });
  cell.compiled_unpack_ns = scale * best_seconds_per_call(iters, [&] {
    dc::Buffer copy = packed;
    copy.seek(0);
    Env receiver;
    codec.unpack(copy, receiver);
    benchmark::DoNotOptimize(receiver.has("tris"));
  });
  cell.interpreted_unpack_ns = scale * best_seconds_per_call(iters, [&] {
    dc::Buffer copy = packed;
    copy.seek(0);
    Env receiver;
    codec.unpack_interpreted(copy, receiver);
    benchmark::DoNotOptimize(receiver.has("tris"));
  });
  cell.pack_speedup = cell.interpreted_pack_ns / cell.compiled_pack_ns;
  cell.unpack_speedup = cell.interpreted_unpack_ns / cell.compiled_unpack_ns;
  return cell;
}

std::vector<CodecCell> codec_table() {
  std::printf("=== Compiled plans vs interpreted codec (ns/element) ===\n");
  std::printf("%-10s %-14s %10s %10s %8s %10s %10s %8s\n", "elements",
              "layout", "pack-c", "pack-i", "pack-x", "unpack-c", "unpack-i",
              "unpack-x");
  std::vector<CodecCell> cells;
  for (int n : {256, 4096}) {
    for (bool instancewise : {true, false}) {
      CodecCell cell = time_codec(n, instancewise);
      std::printf("%-10d %-14s %10.1f %10.1f %7.2fx %10.1f %10.1f %7.2fx\n",
                  cell.elements,
                  cell.instancewise ? "instance-wise" : "field-wise",
                  cell.compiled_pack_ns, cell.interpreted_pack_ns,
                  cell.pack_speedup, cell.compiled_unpack_ns,
                  cell.interpreted_unpack_ns, cell.unpack_speedup);
      cells.push_back(cell);
    }
  }
  std::printf("\n");
  return cells;
}

// --- Pooled transport sweep (batch-aligned pool geometry) ---

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
  std::size_t payload = 0;
  std::size_t batch = 0;
  std::int64_t buffers = 0;
  double seconds = 0.0;
  double buffers_per_sec = 0.0;
  double mb_per_sec = 0.0;
  double pool_hit_rate = 0.0;
};

std::int64_t buffers_for(std::size_t payload) {
  if (payload <= 256) return 200000;
  return 50000;
}

Cell run_cell(std::size_t payload, std::size_t batch) {
  const std::int64_t buffers = buffers_for(payload);
  Cell cell;
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
    groups.push_back({"relay", [] { return std::make_unique<Relay>(); }, 1, 1});
    groups.push_back(
        {"sink", [] { return std::make_unique<ConsumingSink>(); }, 1, 2});
    RunnerConfig config;
    config.stream_capacity = kStreamCapacity;
    config.batch_size = batch;
    PipelineRunner runner(std::move(groups), config);
    const auto start = std::chrono::steady_clock::now();
    support::PipelineTrace stats = runner.run();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (seconds < cell.seconds) {
      cell.seconds = seconds;
      cell.pool_hit_rate = stats.pool.hit_rate();
    }
  }
  cell.buffers_per_sec = static_cast<double>(buffers) / cell.seconds;
  cell.mb_per_sec = cell.buffers_per_sec *
                    static_cast<double>(payload) / (1024.0 * 1024.0);
  return cell;
}

const std::size_t kPayloads[] = {8, 4096};
const std::size_t kBatches[] = {1, 4, 16, 64};

std::vector<Cell> transport_sweep() {
  std::printf(
      "=== Pooled transport sweep (source->relay->sink, capacity %zu, "
      "best of %d) ===\n",
      kStreamCapacity, kRepeats);
  std::printf("%-10s %-8s %-10s %12s %14s %12s %10s\n", "payload", "batch",
              "buffers", "time(s)", "buffers/s", "MB/s", "pool hit");
  std::vector<Cell> cells;
  for (std::size_t payload : kPayloads) {
    for (std::size_t batch : kBatches) {
      Cell cell = run_cell(payload, batch);
      std::printf("%-10zu %-8zu %-10lld %12.4f %14.0f %12.1f %9.1f%%\n",
                  cell.payload, cell.batch,
                  static_cast<long long>(cell.buffers), cell.seconds,
                  cell.buffers_per_sec, cell.mb_per_sec,
                  100.0 * cell.pool_hit_rate);
      cells.push_back(cell);
    }
  }
  std::printf("\n");
  return cells;
}

// Emits BENCH_packing.json and returns false when any swept cell's pool
// hit rate misses the bar (the CI failure condition).
bool emit_json(const std::vector<CodecCell>& codec_cells,
               const std::vector<Cell>& transport_cells) {
  support::Json::Array codec_array;
  for (const CodecCell& cell : codec_cells) {
    support::Json::Object obj;
    obj.emplace_back("elements", support::Json(cell.elements));
    obj.emplace_back("layout", support::Json(cell.instancewise
                                                 ? "instance-wise"
                                                 : "field-wise"));
    obj.emplace_back("compiled_pack_ns_per_element",
                     support::Json(cell.compiled_pack_ns));
    obj.emplace_back("interpreted_pack_ns_per_element",
                     support::Json(cell.interpreted_pack_ns));
    obj.emplace_back("pack_speedup", support::Json(cell.pack_speedup));
    obj.emplace_back("compiled_unpack_ns_per_element",
                     support::Json(cell.compiled_unpack_ns));
    obj.emplace_back("interpreted_unpack_ns_per_element",
                     support::Json(cell.interpreted_unpack_ns));
    obj.emplace_back("unpack_speedup", support::Json(cell.unpack_speedup));
    codec_array.emplace_back(std::move(obj));
  }

  support::Json::Array cell_array;
  double min_hit_rate = 1.0;
  double small_batched = 0.0;
  for (const Cell& cell : transport_cells) {
    support::Json::Object obj;
    obj.emplace_back("payload_bytes", support::Json(cell.payload));
    obj.emplace_back("batch_size", support::Json(cell.batch));
    obj.emplace_back("buffers", support::Json(cell.buffers));
    obj.emplace_back("seconds", support::Json(cell.seconds));
    obj.emplace_back("buffers_per_sec", support::Json(cell.buffers_per_sec));
    obj.emplace_back("mb_per_sec", support::Json(cell.mb_per_sec));
    obj.emplace_back("pool_hit_rate", support::Json(cell.pool_hit_rate));
    cell_array.emplace_back(std::move(obj));
    if (cell.pool_hit_rate < min_hit_rate) min_hit_rate = cell.pool_hit_rate;
    if (cell.payload == kPayloads[0] && cell.batch == 64) {
      small_batched = cell.buffers_per_sec;
    }
  }
  const bool pass = min_hit_rate >= kPoolHitBar;

  double best_pack_speedup = 0.0;
  double best_unpack_speedup = 0.0;
  for (const CodecCell& cell : codec_cells) {
    if (cell.pack_speedup > best_pack_speedup) {
      best_pack_speedup = cell.pack_speedup;
    }
    if (cell.unpack_speedup > best_unpack_speedup) {
      best_unpack_speedup = cell.unpack_speedup;
    }
  }

  support::Json::Object summary;
  summary.emplace_back("min_pool_hit_rate", support::Json(min_hit_rate));
  summary.emplace_back("pool_hit_bar", support::Json(kPoolHitBar));
  summary.emplace_back("pool_hit_pass", support::Json(pass));
  summary.emplace_back("buffers_per_sec_8b_batch64",
                       support::Json(small_batched));
  summary.emplace_back("best_pack_speedup", support::Json(best_pack_speedup));
  summary.emplace_back("best_unpack_speedup",
                       support::Json(best_unpack_speedup));

  support::Json::Object root;
  root.emplace_back("schema", support::Json("cgpipe-bench-packing-v1"));
  root.emplace_back("pipeline", support::Json("source->relay->sink"));
  root.emplace_back("stream_capacity", support::Json(kStreamCapacity));
  root.emplace_back("repeats", support::Json(kRepeats));
  root.emplace_back("codec", support::Json(std::move(codec_array)));
  root.emplace_back("cells", support::Json(std::move(cell_array)));
  root.emplace_back("summary", support::Json(std::move(summary)));

  std::ofstream out("BENCH_packing.json");
  out << support::Json(std::move(root)).dump(2) << "\n";
  std::printf("wrote BENCH_packing.json (min pool hit %.1f%%, bar %.0f%%)\n\n",
              100.0 * min_hit_rate, 100.0 * kPoolHitBar);
  return pass;
}

void BM_Pack(benchmark::State& state, bool instancewise, bool compiled) {
  ClassRegistry registry = make_registry();
  const int n = static_cast<int>(state.range(0));
  PackingLayout layout = layout_for(instancewise, n, registry);
  PacketCodec codec(registry, layout);
  Env env;
  env.declare("tris", make_elements(registry, n));
  const auto resolve = [](const std::string&) { return std::nullopt; };
  for (auto _ : state) {
    dc::Buffer buffer;
    if (compiled) {
      codec.pack(env, resolve, buffer);
    } else {
      codec.pack_interpreted(env, resolve, buffer);
    }
    benchmark::DoNotOptimize(buffer.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_Unpack(benchmark::State& state, bool instancewise, bool compiled) {
  ClassRegistry registry = make_registry();
  const int n = static_cast<int>(state.range(0));
  PackingLayout layout = layout_for(instancewise, n, registry);
  PacketCodec codec(registry, layout);
  Env env;
  env.declare("tris", make_elements(registry, n));
  dc::Buffer packed;
  codec.pack(env, [](const std::string&) { return std::nullopt; }, packed);
  for (auto _ : state) {
    dc::Buffer copy = packed;
    copy.seek(0);
    Env receiver;
    if (compiled) {
      codec.unpack(copy, receiver);
    } else {
      codec.unpack_interpreted(copy, receiver);
    }
    benchmark::DoNotOptimize(receiver.has("tris"));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void RegisterAll() {
  benchmark::RegisterBenchmark("pack/instance-wise", BM_Pack, true, true)
      ->Arg(256)->Arg(4096);
  benchmark::RegisterBenchmark("pack/field-wise", BM_Pack, false, true)
      ->Arg(256)->Arg(4096);
  benchmark::RegisterBenchmark("pack/instance-wise/interpreted", BM_Pack,
                               true, false)
      ->Arg(256)->Arg(4096);
  benchmark::RegisterBenchmark("pack/field-wise/interpreted", BM_Pack, false,
                               false)
      ->Arg(256)->Arg(4096);
  benchmark::RegisterBenchmark("unpack/instance-wise", BM_Unpack, true, true)
      ->Arg(256)->Arg(4096);
  benchmark::RegisterBenchmark("unpack/field-wise", BM_Unpack, false, true)
      ->Arg(256)->Arg(4096);
  benchmark::RegisterBenchmark("unpack/instance-wise/interpreted", BM_Unpack,
                               true, false)
      ->Arg(256)->Arg(4096);
  benchmark::RegisterBenchmark("unpack/field-wise/interpreted", BM_Unpack,
                               false, false)
      ->Arg(256)->Arg(4096);
}

}  // namespace

int main(int argc, char** argv) {
  print_table();
  const std::vector<CodecCell> codec_cells = codec_table();
  const std::vector<Cell> transport_cells = transport_sweep();
  const bool pass = emit_json(codec_cells, transport_cells);
  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: pool hit rate below %.0f%% in the transport sweep\n",
                 100.0 * kPoolHitBar);
    return 1;
  }
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
