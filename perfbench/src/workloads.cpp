#include "workloads.h"

#include "support/rng.h"

namespace perfbench {
namespace {

// Independent draws per input, so adding one never shifts another.
constexpr std::uint64_t kIsoStream = 0x150f00d;
constexpr std::uint64_t kWindowStream = 0x7717d0;

// Stream depth of the single-copy thread workloads. Their source is only
// slightly faster than the bottleneck stage, so deeper queues fill slowly
// or never within a run, and latency then measures the race between two
// stage rates, which magnifies run-to-run noise. One-deep queues fill
// within the first packets, after which a packet's latency is the pipeline
// depth times the bottleneck period.
constexpr std::size_t kShallowStreams = 1;

/// Isovalue in thousandths, within 1% of the configs' 500.
std::int64_t draw_iso_mille(std::uint64_t seed) {
  cgp::Rng rng(seed ^ kIsoStream);
  return rng.next_int(495, 505);
}

void set_constant(cgp::apps::AppConfig& app, const std::string& key, std::int64_t value) {
  app.runtime_constants["runtime_define_" + key] = value;
}

}  // namespace

cgp::CompileOptions Workload::compile_options() const {
  cgp::CompileOptions options;
  options.env = env();
  options.runtime_constants = app.runtime_constants;
  options.size_bindings = app.size_bindings;
  options.n_packets = app.n_packets;
  options.batch_size = runner.batch_size;
  options.backend = runner.backend == cgp::dc::TransportBackend::kProc ? "proc" : "thread";
  return options;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"zbuffer-w1", "vmscope-w1", "active-w2-proc"};
  return names;
}

std::map<std::string, std::int64_t> vmscope_constants(std::uint64_t seed) {
  // vmscope_config(large_query) reads a 960 x 672 window of a 1024 x 768
  // slide; slide the window, keep its size (and so the work) fixed.
  std::map<std::string, std::int64_t> constants =
      cgp::apps::vmscope_config(true).runtime_constants;
  const std::int64_t w = constants["runtime_define_qx1"] - constants["runtime_define_qx0"];
  const std::int64_t h = constants["runtime_define_qy1"] - constants["runtime_define_qy0"];
  cgp::Rng rng(seed ^ kWindowStream);
  const std::int64_t qx0 = rng.next_int(0, constants["runtime_define_img_w"] - 1 - w);
  const std::int64_t qy0 = rng.next_int(0, constants["runtime_define_img_h"] - 1 - h);
  constants["runtime_define_qx0"] = qx0;
  constants["runtime_define_qx1"] = qx0 + w;
  constants["runtime_define_qy0"] = qy0;
  constants["runtime_define_qy1"] = qy0 + h;
  return constants;
}

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "zbuffer-w1" || name == "active-w2-proc") {
    const bool active = name == "active-w2-proc";
    w.app = active ? cgp::apps::isosurface_active_pixels_config(true)
                   : cgp::apps::isosurface_zbuffer_config(true);
    w.main_class = active ? "IsoActivePixels" : "IsoZBuffer";
    const std::int64_t iso = draw_iso_mille(seed);
    set_constant(w.app, "iso_mille", iso);
    w.drawn["iso_mille"] = iso;
    if (active) {
      w.width = 2;
      w.runner.backend = cgp::dc::TransportBackend::kProc;
      w.runner.batch_size = 16;
      w.runner.checkpoint_interval = 16;
      w.runner.worker_restarts = 2;
      w.runner.heartbeat_seconds = 0.01;
      w.exact = false;
      w.result_keys = {"checksum", "lit"};
    } else {
      w.runner.stream_capacity = kShallowStreams;
    }
  } else if (name == "vmscope-w1") {
    w.app = cgp::apps::vmscope_config(true);
    w.main_class = "VMScope";
    w.app.runtime_constants = vmscope_constants(seed);
    for (const char* key : {"qx0", "qx1", "qy0", "qy1"}) {
      const std::int64_t value = w.app.runtime_constants["runtime_define_" + std::string(key)];
      w.app.size_bindings[key] = value;
    }
    w.drawn["qx0"] = w.app.runtime_constants["runtime_define_qx0"];
    w.drawn["qy0"] = w.app.runtime_constants["runtime_define_qy0"];
    w.check_manual = true;
    w.runner.stream_capacity = kShallowStreams;
  } else {
    return std::nullopt;
  }
  return w;
}

}  // namespace perfbench
